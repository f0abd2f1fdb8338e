"""Exact Gaussian process regression with a cached Cholesky factorization.

A model owns one scalar output (objective or a single constraint). Updates
return a fresh model, so callers may treat any instance as immutable and
query it concurrently between updates. ``add`` borders the noise-free Gram
matrix with the new point's kernel row, ``k(x_t, X)``, which is bit for bit
the matrix ``Kernel.gram`` gives, and then re-factorizes it in full: with a
few hundred observations at most that is cheap, and it keeps every factor a
deterministic function of the data alone. ``alpha = (K + lam I)^{-1} y`` is
solved when first read; the cached lattice path never reads it. Factors and
solves call LAPACK's ``dpotrf``, ``dpotrs`` and ``dtrtrs`` directly, with the
arguments and memory layout that ``scipy.linalg.cholesky``, ``cho_solve``
and ``solve_triangular`` pass them, so the bits are theirs without the
wrappers' per-call validation.

Posterior formulas, for observations ``X, y`` with Gram matrix ``K``, noise
variance ``lam`` and ``L L^T = K + lam I``::

    mean(q) = k(X, q)^T (K + lam I)^{-1} y
    var(q)  = k(q, q) - k(X, q)^T (K + lam I)^{-1} k(X, q)

Variance values in ``[-1e-9, 0)`` are clamped to zero; anything more
negative indicates a broken factorization and raises.

Groups. The posterior covariance depends on the inputs, the kernel and the
noise, never on the targets (Rasmussen & Williams 2006, §2.2). So a model
holds two parts: a covariance part with the kernel, the noise, ``X``, ``L``
and the lattice rows below, and its own targets ``y`` with what depends on
them. Outputs observed at the same inputs under equal kernel and noise can
hold one covariance part, a group: :func:`empty_models` starts one per
distinct ``(kernel, noise_variance)``, and when each member of a group
``add``s the same point, the first builds the child part and the others get
it. A model built any other way, such as a refit, is a group of one.

Lattice cache. Every policy step asks each model about the same lattice, so
a group keeps ``V = L^{-1} k(X, lattice)`` and the unclamped variance on the
last lattice one of its members was asked about, and each member keeps
``z = L^{-1} y`` and its mean there. The first query builds them with the
formulas above, so its answer is the uncached one; a member that first asks
about the group's lattice later makes the same uncached pass for its own
mean and takes the group's variance. ``add`` then extends the
cache by one row instead of dropping it (sequential Cholesky update;
Rasmussen & Williams 2006, Alg. 2.1; Osborne 2010). With ``l, d`` the new
last row and diagonal entry of the child's factor::

    row  = (k(x_t, lattice) - l^T V) / d     once per group
    var -= row**2                            once per group
    z_t  = (y_t - l . z) / d
    mean += z_t * row

which costs O(t G) per step instead of O(t G d + t^2 G). The cache is keyed
on the identity of a read-only array that owns its memory, such as
``Domain.grid``; any other query takes the uncached path and leaves the
cache alone. A group that is never asked about a lattice builds no cache,
and a model built from scratch (e.g. after a hyperparameter refit) rebuilds
it on its first lattice query.

Row store. A group's ``V`` lives in the first ``t`` rows of a private
mapping (``_LatticeRows.data``) with room for ``max(t, _ROW_CHUNK)`` more;
mapped rows not yet written are not resident. A model reads only its own
first ``t`` rows, so the first extension of a group's rows writes row ``t``
in place while there is room. Any other extension (a second child of one
parent, or one that finds the mapping full) copies the ``t`` rows into a new
mapping of the same shape rule, so branching and growth are one path.

Column blocks. Every query the cache cannot answer makes one pass,
:meth:`GpModel._streamed`, that streams its points through blocks of about
``_BLOCK_BYTES`` of ``t``-float columns (:func:`column_blocks`). Each block
computes its cross-covariance, means (``k(X, block)^T alpha``, before the
triangular solve), ``V`` and variances, and when the pass builds a cache it
writes its columns of ``V`` straight into the row store, so the cache is
the only ``t * G`` array alive and no heap array reaches numpy's 4 MiB
huge-page threshold. Every column goes through the same operations as in
one product over all columns, so the bits are the same; a query that fits
in one block is that product. (A BLAS that splits a product's rows among
threads by its size may round the one-product mean differently in its last
bits; on one BLAS thread the two are equal.)
"""

from __future__ import annotations

import mmap
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .domain import as_point
from .kernels import Kernel, positive_real

__all__ = ["GpModel", "empty_models"]

_VARIANCE_CLAMP = 1e-9

# Lattice-cache rows are allocated at least this many at a time.
_ROW_CHUNK = 32
# Guards the once-flag of _LatticeRows.extend.
_EXTEND_LOCK = threading.Lock()
# Bytes of one column block of an uncached query: (rows x width) floats.
# Well under numpy's 4 MiB huge-page threshold. Not much smaller: glibc
# raises its mmap and trim thresholds only when a block that large is freed,
# and blocks of about 0.25 MB left them low enough to roughly quadruple the
# minor page faults of a benchmark pass.
_BLOCK_BYTES = 1 << 20
# Block widths are a multiple of this many columns. BLAS gemv computes the
# last (m mod 4) rows of a product in another order than the others, so a
# block that ended mid-group would change the bits of k^T alpha there.
_BLOCK_ALIGN = 64


def column_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Slices covering ``range(n_cols)``, about ``_BLOCK_BYTES`` of ``n_rows``-float columns each.

    Widths are a positive multiple of ``_BLOCK_ALIGN``; one slice when all
    columns fit.
    """
    width = _BLOCK_BYTES // (np.dtype(float).itemsize * max(n_rows, 1))
    width = max(_BLOCK_ALIGN, width - width % _BLOCK_ALIGN)
    return [slice(start, min(start + width, n_cols)) for start in range(0, n_cols, width)]


def _mapped_rows(n_rows: int, width: int) -> np.ndarray:
    """An uninitialized ``(n_rows, width)`` float array in its own private mapping.

    numpy asks the kernel for transparent huge pages on every allocation of
    4 MiB or more. A long-lived buffer of that size taken from the malloc
    heap then leaves the heap partly huge-page backed, and how much stays
    resident depends on where the heap happens to lie: peak RSS of one
    experiment moved by about 10 MB between identical runs. A private
    anonymous mapping gets no such advice and is unmapped as soon as the
    array is dropped.
    """
    size = n_rows * width * np.dtype(float).itemsize
    buffer = mmap.mmap(-1, max(size, 1), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buffer, dtype=float, count=n_rows * width).reshape(n_rows, width)


class GpNumericsError(RuntimeError):
    """Posterior variance fell below the tolerated floating-point floor."""


def _checked(result, routine: str) -> np.ndarray:
    """The array of a LAPACK ``(array, info)`` pair; ``LinAlgError`` when ``info > 0``."""
    out, info = result
    if info > 0:
        raise LinAlgError(f"{routine} reported info={info}: matrix not positive definite or singular")
    return out


def _factor(gram: np.ndarray, noise_variance: float) -> np.ndarray:
    """Lower Cholesky factor of ``gram + noise_variance I``, in Fortran order.

    Raises ``LinAlgError`` on an ill-conditioned kernel/noise pair, and on
    settings that overflow: a non-finite entry reaches the factor's diagonal.
    """
    a = np.array(gram, order="F")
    a[np.diag_indices_from(a)] += noise_variance
    chol = _checked(dpotrf(a, lower=1, clean=1, overwrite_a=1), "dpotrf")
    if not np.isfinite(chol.diagonal()).all():
        raise LinAlgError("Cholesky factor is not finite: kernel or noise settings overflow")
    return chol


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``chol^{-1} b`` for a lower factor from :func:`_factor`."""
    return _checked(dtrtrs(chol, b, lower=1), "dtrtrs")


def _solve_gram(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(chol chol^T)^{-1} b`` for a lower factor from :func:`_factor`."""
    return _checked(dpotrs(chol, b, lower=1), "dpotrs")


def _row_store(t: int, width: int) -> np.ndarray:
    """A mapping for ``t`` rows of ``V`` and ``max(t, _ROW_CHUNK)`` more."""
    return _mapped_rows(t + max(t, _ROW_CHUNK), width)


class _LatticeRows:
    """A group's share of the posterior on one lattice after ``t`` observations.

    ``data[:t]`` is ``V``, in a mapping with room for more rows; ``var`` is
    not yet clamped. A model reads only its own first ``t`` rows, so the
    first extension of these rows appends in place while the mapping has
    room. Any other (a second child of one parent, or one that finds the
    mapping full) copies them into a new mapping.
    """

    def __init__(self, lattice: np.ndarray, data: np.ndarray, var: np.ndarray):
        self.lattice = lattice
        self.data = data
        self.var = var
        self._extended = False

    def extend(self, t: int, row: np.ndarray) -> "_LatticeRows":
        """The rows after one more observation, whose row of ``V`` is ``row``."""
        with _EXTEND_LOCK:
            first, self._extended = not self._extended, True
        data = self.data
        if not first or t == data.shape[0]:
            data = _row_store(t, data.shape[1])
            data[:t] = self.data[:t]
        data[t] = row
        return _LatticeRows(self.lattice, data, self.var - row * row)


@dataclass(frozen=True, eq=False)
class _LatticeMean:
    """One output's share of the posterior on the lattice of ``shared``."""

    shared: _LatticeRows
    z: np.ndarray
    mean: np.ndarray


class _Covariance:
    """The part of a posterior that depends on the inputs alone.

    Kernel, noise variance, inputs ``X``, their noise-free Gram matrix
    ``gram`` (built from scratch when not given), the lower Cholesky factor
    ``chol`` of ``K + lam I`` (None without data) and ``lattice``, the
    group's lattice cache (None until a lattice query builds it).
    """

    def __init__(self, kernel: Kernel, noise_variance: float, X: np.ndarray,
                 gram: np.ndarray | None = None):
        self.kernel = kernel
        self.noise_variance = noise_variance
        self.X = X
        self.chol = None
        self.lattice: _LatticeRows | None = None
        # (point bytes, lattice extended, weakref to the child, its lattice rows)
        self._last_child = None
        if not len(X):
            self.gram = np.empty((0, 0))
            return
        self.gram = kernel.gram(X) if gram is None else gram
        self.chol = _factor(self.gram, noise_variance)

    def extend(self, point: np.ndarray, lattice: _LatticeRows | None):
        """The part for ``X`` plus ``point``, and ``lattice`` extended by its row.

        ``lattice`` is this part's lattice cache as the caller read it. The
        members of a group call this in turn with the same arguments; while
        the first one's child lives, the others get the same pair back. Two
        calls that race both build a child, and either is correct.
        """
        key = point.tobytes()
        last = self._last_child
        if last is not None and last[0] == key and last[1] is lattice:
            child = last[2]()
            if child is not None:
                return child, last[3]
        # k(a, b) and k(b, a) come from (a - b)**2 and (b - a)**2, which are
        # equal, and Kernel.gram's 0.5 * (v + v) is v: the bordered Gram is
        # bit for bit the one Kernel.gram builds from scratch.
        t = self.X.shape[0]
        X = np.vstack([self.X, point[None, :]])
        gram = np.empty((t + 1, t + 1))
        gram[:t, :t] = self.gram
        gram[t] = gram[:, t] = self.kernel.cross(point[None, :], X)[0]
        child = _Covariance(self.kernel, self.noise_variance, X, gram)
        rows = None
        if lattice is not None:
            l, d = child.chol[t, :t], child.chol[t, t]
            k_row = self.kernel.cross(point[None, :], lattice.lattice)[0]
            rows = child.lattice = lattice.extend(t, (k_row - l @ lattice.data[:t]) / d)
        self._last_child = (key, lattice, weakref.ref(child), rows)
        return child, rows


def _is_lattice(queries: np.ndarray) -> bool:
    # A read-only view (say one row of Domain.grid) is a new object each time
    # it is made, so caching it would only evict the lattice cache.
    return queries.base is None and not queries.flags.writeable


class GpModel:
    """Gaussian process over one output with fixed hyperparameters.

    Parameters
    ----------
    kernel:
        Covariance function; also fixes the input dimension.
    noise_variance:
        i.i.d. Gaussian observation noise variance, a finite ``lam > 0``.
    """

    def __init__(self, kernel: Kernel, noise_variance: float,
                 _X: np.ndarray | None = None, _y: np.ndarray | None = None):
        noise_variance = positive_real("noise_variance", noise_variance)
        X = np.empty((0, kernel.dim)) if _X is None else _X
        self._hold(_Covariance(kernel, noise_variance, X), np.empty(0) if _y is None else _y)

    def _hold(self, cov: _Covariance, y: np.ndarray):
        """Take ``cov`` as the covariance part and ``y`` as the targets at its inputs."""
        self._cov = cov
        self._y = y
        self._lattice: _LatticeMean | None = None

    @cached_property
    def _alpha(self) -> np.ndarray:
        """``(K + lam I)^{-1} y``, solved when first read (never without data)."""
        return _solve_gram(self._cov.chol, self._y)

    @property
    def kernel(self) -> Kernel:
        return self._cov.kernel

    @property
    def noise_variance(self) -> float:
        return self._cov.noise_variance

    # -- observation data ---------------------------------------------------

    @property
    def n_observations(self) -> int:
        return self._y.shape[0]

    @property
    def points(self) -> np.ndarray:
        return self._cov.X.copy()

    @property
    def values(self) -> np.ndarray:
        return self._y.copy()

    def add(self, point, value: float) -> "GpModel":
        """Return a new model with one more observation appended."""
        point = as_point(point)
        if point.shape[0] != self.kernel.dim:
            raise ValueError(f"point has dim {point.shape[0]}, model has {self.kernel.dim}")
        if not np.isfinite(value):
            raise ValueError(f"observation value must be finite, got {value}")
        value = float(value)
        shared = self._cov.lattice
        cov, rows = self._cov.extend(point, shared)
        child = object.__new__(GpModel)
        child._hold(cov, np.append(self._y, value))
        own = self._lattice
        if own is not None and own.shared is shared:
            t = self.n_observations
            l, d = cov.chol[t, :t], cov.chol[t, t]
            z_t = (value - l @ own.z) / d
            child._lattice = _LatticeMean(
                shared=rows,
                z=np.append(own.z, z_t),
                mean=own.mean + z_t * rows.data[t],
            )
        return child

    # -- posterior queries ----------------------------------------------------

    def posterior(self, query) -> tuple[float, float]:
        """Posterior ``(mean, variance)`` at a single point."""
        query = as_point(query)
        means, variances = self.posterior_batch(query[None, :])
        return float(means[0]), float(variances[0])

    def posterior_batch(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances at many points at once.

        One triangular solve per column block of the cross-covariance; this
        is the hot path of every grid-based acquisition step. A read-only
        array that owns its memory, such as ``Domain.grid``, is answered from
        the lattice cache when it is the cached lattice, and becomes the
        cached lattice otherwise (see the module docstring).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if self.n_observations == 0:
            return np.zeros(queries.shape[0]), np.full(queries.shape[0], self.kernel.prior_variance)
        cov, own, shared = self._cov, self._lattice, self._cov.lattice
        if shared is not None and shared.lattice is not queries:
            shared = None
        if own is not None and own.shared is shared:
            means, variances = own.mean.copy(), shared.var
        else:
            data = None
            if shared is None and _is_lattice(queries):
                data = _row_store(cov.X.shape[0], queries.shape[0])
            means, variances = self._streamed(queries, data)
            if data is not None:
                shared = cov.lattice = _LatticeRows(queries, data, variances)
            if shared is not None:
                variances = shared.var
                z = _solve_lower(cov.chol, self._y)
                self._lattice = _LatticeMean(shared, z, means.copy())
        too_negative = variances < -_VARIANCE_CLAMP
        if np.any(too_negative):
            raise GpNumericsError(
                f"posterior variance reached {variances[too_negative].min():.3e}; "
                "factorization is inconsistent with the kernel"
            )
        return means, np.maximum(variances, 0.0)

    def _streamed(self, queries: np.ndarray,
                  rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and unclamped variances at ``queries``, one column block at a time.

        With ``rows``, each block also writes its columns of ``V`` into ``rows[:t]``.
        """
        X = self._cov.X
        t = X.shape[0]
        means = np.empty(queries.shape[0])
        variances = np.full(queries.shape[0], self.kernel.prior_variance)
        for cols in column_blocks(t, queries.shape[0]):
            block = self.kernel.cross(X, queries[cols])
            means[cols] = block.T @ self._alpha
            block = _solve_lower(self._cov.chol, block)  # V; k(X, block) is freed
            if rows is not None:
                rows[:t, cols] = block
            block *= block
            variances[cols] -= np.sum(block, axis=0)
            del block  # before the next block's cross-covariance
        return means, variances

    def log_marginal_likelihood(self) -> float:
        """Exact log marginal likelihood of the stored observations."""
        if self.n_observations == 0:
            return 0.0
        t = self.n_observations
        log_det = 2.0 * np.sum(np.log(np.diag(self._cov.chol)))
        return float(
            -0.5 * self._y @ self._alpha - 0.5 * log_det - 0.5 * t * np.log(2.0 * np.pi)
        )

    def __repr__(self):
        return (
            f"GpModel(family={self.kernel.family}, t={self.n_observations}, "
            f"lam={self.noise_variance:g})"
        )


def empty_models(settings) -> list[GpModel]:
    """One model without data per ``(kernel, noise_variance)`` pair, in order.

    Pairs that are equal share one covariance part, so while their models
    see the same inputs each step factorizes and extends the lattice cache
    once for all of them (see the module docstring).
    """
    models, groups = [], {}
    for kernel, noise_variance in settings:
        model = GpModel(kernel, noise_variance)
        model._hold(groups.setdefault((kernel, model.noise_variance), model._cov), model._y)
        models.append(model)
    return models
