"""Exact Gaussian process regression with a cached Cholesky factorization.

A model owns one scalar output (objective or a single constraint). Updates
return a fresh model, so callers may treat any instance as immutable; it may
be queried from any thread, and each part is extended at most once. ``add``
borders the noise-free Gram matrix with the new point's kernel row,
``k(x_t, X)``, which is bit for bit the matrix ``Kernel.gram`` gives, and
then re-factorizes it in full: with a few hundred observations at most that
is cheap, and it keeps every factor a deterministic function of the data
alone. ``alpha = (K + lam I)^{-1} y`` is solved when first read; the cached
lattice path never reads it. Factors and solves call LAPACK's ``dpotrf``,
``dpotrs`` and ``dtrtrs`` directly, with the arguments and memory layout
that ``scipy.linalg.cholesky``, ``cho_solve`` and ``solve_triangular`` pass
them, so the bits are theirs without the wrappers' per-call validation.

The three routines come from ``scipy.linalg._flapack``, the compiled f2py
module that ``scipy.linalg.lapack`` re-exports, linked against scipy's own
LAPACK. :func:`_lapack` loads that file through :func:`_scipy_extension`, by
itself and under its real name, at the process's first factorization or
solve: ``import cego`` maps no LAPACK and runs neither the ``scipy`` package
init nor that of ``scipy.linalg``, whose Python layers (through
``scipy._lib._util`` and ``array_api_compat``) cost more than half of the
import time and of the memory resident after it. A later ``import
scipy.linalg`` finds the module in ``sys.modules`` and reuses it, so
``scipy.linalg.lapack.dpotrf`` is ``gp._lapack().dpotrf`` whichever is
loaded first. ``LinAlgError`` is numpy's, which ``scipy.linalg`` re-exports.

Posterior formulas, for observations ``X, y`` with Gram matrix ``K``, noise
variance ``lam`` and ``L L^T = K + lam I``::

    mean(q) = k(X, q)^T (K + lam I)^{-1} y
    var(q)  = k(q, q) - k(X, q)^T (K + lam I)^{-1} k(X, q)

Variance values in ``[-1e-9, 0)`` are clamped to zero; anything more
negative indicates a broken factorization and raises.

Groups. The posterior covariance depends on the inputs, the kernel and the
noise, never on the targets (Rasmussen & Williams 2006, §2.2). So a model
holds two parts: a covariance part with the kernel, the noise, ``X``, ``L``
and the lattice cache below, and its own targets ``y`` with what depends on
them. Outputs observed at the same inputs under equal kernel and noise can
hold one covariance part, a group: :func:`empty_models` starts one per
distinct ``(kernel, noise_variance)``, and when each member of a group
``add``s the same point, the first builds the child part and the others get
it. A model built any other way, such as a refit, is a group of one. A part
has at most one child: adding another point raises ``ValueError``. A part
holds its child, so a kept old model keeps its descendants' parts alive, a
``G``-float variance, a ``G``-float row and a ``t x t`` factor per step; the
runner keeps none.

Lattice cache. Every policy step asks each model about the same lattice,
``Domain.grid``, so a covariance part caches the unclamped variance on the
first ``Domain.grid`` array any member asks about, and each model keeps ``z
= L^{-1} y`` and its mean there. That array is recognized by identity
(:func:`cego.domain.grid_axes`, which also names its axes). A part caches
one lattice and never replaces it: any other query, a second grid, a copy
or a slice of one included, is answered by the uncached pass below and
leaves the cache alone. The first query builds the cache with the
formulas above, so its answer is the uncached one; a member that first
asks about the part's lattice later makes the same uncached pass for its
own mean and takes the part's variance. ``add`` then extends the cache by
one row instead of dropping it (sequential Cholesky update; Rasmussen &
Williams 2006, Alg. 2.1; Osborne 2010), and the child part caches the same
lattice. With ``l, d`` the new last row and diagonal entry of the child's
factor, and ``w = L^{-T} l``::

    row  = (k(x_t, lattice) - w^T k(X, lattice)) / d     once per group
    var -= row**2                                        once per group
    z_t  = (y_t - l . z) / d
    mean += z_t * row

``w^T k(X, lattice)`` is ``l^T V`` with ``V = L^{-1} k(X, lattice)``, and
``row`` is the child's last row of ``V``; no part stores ``V``. Only an
extension computes ``row``: an ``add`` onto a part whose cache a query
built leaves the child's mean to its first query. A part that is never
asked about a grid builds no cache, and a model built from scratch (e.g.
after a hyperparameter refit) builds one on its first grid query.

Kernel rows. A part keeps ``k(X, lattice)`` factored when its kernel is
SE and whole, ``t x G`` floats, otherwise (Matern-5/2). An SE ``k(X,
lattice)`` factors over the grid's axes, ``Domain.axes``, whose row-major
tensor product it is (Saatci 2012; Gilboa, Saatci & Cunningham 2015): row
``i`` is ``s**2 kron(A[i], B[i])``, where ``A[i]`` is the row-wise
Kronecker product of the per-axis rows ``exp(-0.5 ((x_k / l_k) - (axis_k /
l_k))**2)`` of the leading ``d // 2`` axes, of ``G_A`` points, and ``B[i]``
that of the others, of ``G_B``. Such a part keeps the factor rows ``[A |
B]`` of ``X`` (:func:`_factor_rows`), and :func:`_kernel_product` reads
``w^T k(X, lattice)`` from them as ``s**2 (A^T diag(w) B)``, one ``(G_A x
t)(t x G_B)`` product, instead of reading ``t G`` floats: a d = 2 lattice
of 100 x 100 points keeps 200 floats per observation instead of 10^4. (For
d = 1, ``A`` is empty and the product is ``w^T B``.) Whole rows take the
same product without a split, and an extension appends to them the ``k(x_t,
lattice)`` it computes anyway. Either way a step costs O(t G) instead of
the uncached O(t G d + t^2 G).

Row store. A part's kernel rows, factored or whole, live in the first
``t`` rows of a private mapping (``_Covariance.rows``) of ``max(capacity,
2 t)`` rows, with ``t`` the observations when it is mapped and
``capacity`` the number the group was built for (:func:`empty_models`; the
runner passes its budget), 0 for a model built any other way. Mapped rows
not yet written are not resident, so a mapping sized for the whole run
costs nothing up front, but the kernel's overcommit check counts all of it:
the rows reserved for ``capacity`` are capped at ``_RESERVE_BYTES`` (1
GiB), and a run past them grows by doubling. A model reads only its own
first ``t`` rows, so a part's child writes row ``t`` in place while there
is room: a run that stays within its capacity maps its rows once and never
copies them. An extension past the mapping's end copies the ``t`` rows
into a new mapping of ``2 t`` rows: the mapping doubles. Besides its rows,
an extended part holds ``row`` for its members' means.

Column blocks. Every query the cache cannot answer makes one pass,
:meth:`GpModel._streamed`, that streams its points through blocks of about
``_BLOCK_BYTES`` of ``t``-float columns (:func:`column_blocks`). Each block
computes its cross-covariance ``k(X, block)``, means (``k(X, block)^T
alpha``), ``V`` and variances. A pass that builds a whole-row cache writes
each ``k(X, block)`` straight into the row store, so no ``t * G`` array
besides the cache is alive and no heap array reaches numpy's 4 MiB
huge-page threshold. Every column goes through the same operations as in
one product over all columns, so the bits are the same; a query that fits
in one block is that product. (A BLAS that splits a product's rows among
threads by its size may round the one-product mean differently in its last
bits; on one BLAS thread the two are equal.)
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import mmap
import sys
import threading
from functools import cache, cached_property

import numpy as np
from numpy.linalg import LinAlgError

from .domain import as_point, finite_real, grid_axes, int_at_least, positive_real
from .kernels import SQUARED_EXPONENTIAL, Kernel, covariance, scaled_sq_distances

__all__ = ["GpModel", "empty_models"]


# Serializes loads in _scipy_extension: threads that query models at once
# load an extension once.
_LOAD_LOCK = threading.Lock()


def _scipy_extension(subpackage: str, name: str):
    """Compiled extension ``scipy.<subpackage>.<name>``, loaded without any scipy package init.

    scipy's folder comes from the import system's search for ``scipy``,
    which runs no code of scipy. Its package init is not needed: on POSIX,
    which cego requires (``fcntl``, ``select.poll``), an extension finds
    scipy's bundled libraries through its own run path, and scipy's init
    adds library folders only on Windows. An entry already in
    ``sys.modules`` (the subpackage was imported first) is reused, and a
    later import of the subpackage reuses this one, so there is only ever one
    module of that name. Callers load at first use, so a process maps only
    the extensions it runs. Raises ``ImportError`` when scipy is missing or
    ships no such file.
    """
    qualified = f"scipy.{subpackage}.{name}"
    with _LOAD_LOCK:
        if qualified in sys.modules:
            return sys.modules[qualified]
        package = importlib.util.find_spec("scipy")
        if package is None or not package.submodule_search_locations:
            raise ImportError("scipy is not installed")
        folders = [f"{folder}/{subpackage}" for folder in package.submodule_search_locations]
        # The import system's own file search: the first of this
        # interpreter's extension suffixes that exists in the folder.
        spec = importlib.machinery.PathFinder.find_spec(qualified, folders)
        if spec is None:
            raise ImportError(f"no {qualified} extension in {folders}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module
        spec.loader.exec_module(module)
        return module


@cache
def _lapack():
    """``scipy.linalg._flapack``, loaded once per process at its first factorization or solve."""
    return _scipy_extension("linalg", "_flapack")


_VARIANCE_CLAMP = 1e-9

# Held through each _Covariance.extend (one child per part) and while a cache is set.
_EXTEND_LOCK = threading.Lock()
# Bytes a row store reserves at most for its capacity (see _row_store). The
# kernel's overcommit check counts a whole mapping, though rows not yet
# written are not resident: a budget of 10^6 on a 10^4-point lattice would
# reserve 80 GB.
_RESERVE_BYTES = 1 << 30
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

    ``gram`` must be symmetric bit for bit, as every Gram here is built: its
    transpose is then the same matrix, and copying that (Fortran-ordered for
    a C-ordered ``gram``) is a plain copy rather than a transposing one.
    Raises ``LinAlgError`` on an ill-conditioned kernel/noise pair, and on
    settings that overflow: a non-finite entry reaches the factor's diagonal.
    """
    a = np.array(gram.T, order="F")
    a.T.reshape(-1)[:: a.shape[0] + 1] += noise_variance  # the diagonal, as a strided view
    chol = _checked(_lapack().dpotrf(a, lower=1, clean=1, overwrite_a=1), "dpotrf")
    if not np.isfinite(chol.diagonal()).all():
        raise LinAlgError("Cholesky factor is not finite: kernel or noise settings overflow")
    return chol


def _solve_lower(chol: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """``chol^{-1} b`` (``chol^{-T} b`` with ``trans=1``) for a lower factor from :func:`_factor`."""
    return _checked(_lapack().dtrtrs(chol, b, lower=1, trans=trans), "dtrtrs")


def _solve_gram(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(chol chol^T)^{-1} b`` for a lower factor from :func:`_factor`."""
    return _checked(_lapack().dpotrs(chol, b, lower=1), "dpotrs")


def _row_store(t: int, width: int, capacity: int = 0) -> np.ndarray:
    """A mapping for a part's ``t`` kernel rows so far: ``max(capacity, 2 t)`` rows.

    The rows reserved for ``capacity`` are capped at ``_RESERVE_BYTES``; past
    them, doubling keeps the rows copied per extension bounded by one on
    average.
    """
    capacity = min(capacity, _RESERVE_BYTES // (np.dtype(float).itemsize * max(width, 1)))
    return _mapped_rows(max(capacity, 2 * t), width)


def _kron_rows(planes: list[np.ndarray]) -> np.ndarray:
    """Row-wise Kronecker product of ``(t, n_k)`` planes, the first plane's index slowest."""
    rows = planes[0]
    for plane in planes[1:]:
        rows = (rows[:, :, None] * plane[:, None, :]).reshape(rows.shape[0], -1)
    return rows


def _factor_rows(kernel: Kernel, axes: tuple[np.ndarray, ...], X: np.ndarray) -> np.ndarray:
    """Rows ``[A | B]`` of ``X``: ``k(X, lattice) / s**2`` on a tensor lattice, factored.

    An SE kernel is a product over axes: axis k gives the plane
    ``exp(-0.5 * ((x_k / l_k) - (axis_k / l_k))**2)``. ``A`` is the row-wise
    Kronecker product of the planes of the leading ``d // 2`` axes (none for
    d = 1) and ``B`` that of the others, so ``k(X, lattice)[i]`` is
    ``s**2 * kron(A[i], B[i])``.
    """
    planes = [covariance(SQUARED_EXPONENTIAL, scaled_sq_distances(X[:, k:k + 1], axis[:, None],
                                                                  kernel.lengthscales[k:k + 1]))
              for k, axis in enumerate(axes)]
    half = len(planes) // 2
    return np.hstack([_kron_rows(group) for group in (planes[:half], planes[half:]) if group])


def _kernel_product(rows: np.ndarray, w: np.ndarray, axes: tuple[np.ndarray, ...] | None,
                    prior_variance: float) -> np.ndarray:
    """``w^T k(X, lattice)`` from a part's kernel rows: whole without ``axes``, else ``[A | B]``.

    ``w^T rows``, or for factor rows of d >= 2 one ``(G_A x t)(t x G_B)``
    product; factor rows leave out ``s**2``, which the product takes last.
    """
    half = 0 if axes is None else len(axes) // 2
    if half:
        split = math.prod(len(axis) for axis in axes[:half])
        product = (rows[:, :split].T @ (w[:, None] * rows[:, split:])).reshape(-1)
    else:
        product = w @ rows
    if axes is not None:
        product *= prior_variance
    return product


class _Covariance:
    """The part of a posterior that depends on the inputs alone.

    Kernel, noise variance, inputs ``X``, their noise-free Gram matrix
    ``gram`` (built from scratch when not given), the lower Cholesky factor
    ``chol`` of ``K + lam I`` (None without data), and ``capacity``, the
    rows its first lattice query maps at least (see :func:`_row_store`),
    which its children keep. The lattice cache: ``lattice``, the
    ``Domain.grid`` array it answers (None until the first grid query or the
    parent sets it, and never replaced), ``axes``, that grid's
    ``Domain.axes`` when the kernel is SE (else None), ``rows``, a private
    mapping whose first ``t`` rows are ``k(X, lattice)``: the factor rows
    ``[A | B]`` of ``X`` with ``axes`` (:func:`_factor_rows`), whole rows
    without, ``var``, the unclamped variance there, and ``row``, the last
    row of ``V``, which only :meth:`extend` sets, for :meth:`GpModel.add`.
    ``lattice`` is set last, so whoever reads it set also reads the others.
    ``child`` is the one part :meth:`extend` made from this one, or None.
    """

    def __init__(self, kernel: Kernel, noise_variance: float, X: np.ndarray,
                 gram: np.ndarray | None = None, capacity: int = 0):
        self.kernel = kernel
        self.noise_variance = noise_variance
        self.X = X
        self.capacity = capacity
        self.chol = None
        self.lattice = self.axes = self.rows = self.var = self.row = self.child = None
        if not len(X):
            self.gram = np.empty((0, 0))
            return
        self.gram = kernel.gram(X) if gram is None else gram
        self.chol = _factor(self.gram, noise_variance)

    def extend(self, point: np.ndarray) -> "_Covariance":
        """The part for ``X`` plus ``point``, with the lattice cache extended by its row.

        A part has one child: the members of a group call this in turn with
        the same point (bitwise) and all get it, and any other point raises
        ``ValueError``; ``_EXTEND_LOCK`` makes that atomic. The child writes
        its kernel row (factored or whole) in place, or copies the rows past
        a full mapping.
        """
        with _EXTEND_LOCK:
            if self.child is not None:
                if self.child.X[-1].tobytes() == point.tobytes():
                    return self.child
                raise ValueError("a covariance part is extended at most once: this model "
                                 "already has a child at another point")
            # k(a, b) and k(b, a) come from (a - b)**2 and (b - a)**2, which are
            # equal, and Kernel.gram's 0.5 * (v + v) is v: the bordered Gram is
            # bit for bit the one Kernel.gram builds from scratch.
            t = self.X.shape[0]
            X = np.vstack([self.X, point[None, :]])
            gram = np.empty((t + 1, t + 1))
            gram[:t, :t] = self.gram
            gram[t] = gram[:, t] = self.kernel.cross(point[None, :], X)[0]
            child = _Covariance(self.kernel, self.noise_variance, X, gram, self.capacity)
            if self.lattice is not None:
                rows = self.rows
                l, d = child.chol[t, :t], child.chol[t, t]
                k_row = self.kernel.cross(point[None, :], self.lattice)[0]
                # l^T L^{-1} k(X, lattice) = w^T k(X, lattice), with w = L^{-T} l.
                w = _solve_lower(self.chol, l, trans=1)
                row = (k_row - _kernel_product(rows[:t], w, self.axes,
                                               self.kernel.prior_variance)) / d
                if t == rows.shape[0]:
                    rows = _row_store(t, rows.shape[1])
                    rows[:t] = self.rows[:t]
                if self.axes is None:
                    rows[t] = k_row
                else:
                    rows[t] = _factor_rows(self.kernel, self.axes, point[None, :])[0]
                child.axes, child.rows, child.row = self.axes, rows, row
                child.var = self.var - row * row
                child.lattice = self.lattice
            self.child = child
            return child


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
        # z = L^{-1} y and the mean on self._cov.lattice, once a query builds them
        self._z = self._mean = None

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
        value = finite_real("observation value", value)
        cov = self._cov.extend(point)
        child = object.__new__(GpModel)
        child._hold(cov, np.append(self._y, value))
        # Only extend sets a row: after a sibling's add, a member may get a child without one.
        if self._mean is not None and cov.row is not None:
            t = self.n_observations
            l, d = cov.chol[t, :t], cov.chol[t, t]
            z_t = (value - l @ self._z) / d
            child._z = np.append(self._z, z_t)
            child._mean = self._mean + z_t * cov.row
        return child

    # -- posterior queries ----------------------------------------------------

    def posterior_batch(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances at many points at once.

        One triangular solve per column block of the cross-covariance; this
        is the hot path of every grid-based acquisition step. A part caches
        the first ``Domain.grid`` array that any member asks about and
        answers it from the cache from then on; any other query is answered
        uncached (see the module docstring).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if queries.shape[1] != self.kernel.dim:
            raise ValueError(f"points have dims {self.kernel.dim}/{queries.shape[1]}, "
                             f"kernel has {self.kernel.dim}")
        if self.n_observations == 0:
            return np.zeros(queries.shape[0]), np.full(queries.shape[0], self.kernel.prior_variance)
        cov = self._cov
        if self._mean is not None and cov.lattice is queries:
            means, variances = self._mean.copy(), cov.var
        else:
            t, store, axes = cov.X.shape[0], None, None
            lattice_axes = grid_axes(queries) if cov.lattice is None else None
            if lattice_axes is not None and self.kernel.family == SQUARED_EXPONENTIAL:
                axes = lattice_axes
            elif lattice_axes is not None:
                store = _row_store(t, queries.shape[0], cov.capacity)
            means, variances = self._streamed(queries, None if store is None else store[:t])
            if lattice_axes is not None:
                if axes is not None:
                    factors = _factor_rows(self.kernel, axes, cov.X)
                    store = _row_store(t, factors.shape[1], cov.capacity)
                    store[:t] = factors
                with _EXTEND_LOCK:
                    if cov.lattice is None:
                        cov.axes, cov.rows, cov.var = axes, store, variances
                        cov.lattice = queries
            if cov.lattice is queries:
                variances = cov.var
                self._z = _solve_lower(cov.chol, self._y)
                self._mean = means.copy()
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

        With ``rows``, each block also writes its columns of ``k(X, queries)``
        into ``rows``.
        """
        X = self._cov.X
        means = np.empty(queries.shape[0])
        variances = np.full(queries.shape[0], self.kernel.prior_variance)
        for cols in column_blocks(X.shape[0], queries.shape[0]):
            block = self.kernel.cross(X, queries[cols])
            means[cols] = block.T @ self._alpha
            if rows is not None:
                rows[:, cols] = block
            block = _solve_lower(self._cov.chol, block)  # V; k(X, block) is freed
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


def empty_models(settings, capacity: int = 0) -> list[GpModel]:
    """One model without data per ``(kernel, noise_variance)`` pair, in order.

    Pairs that are equal share one covariance part, so while their models
    see the same inputs each step factorizes and extends the lattice cache
    once for all of them (see the module docstring). ``capacity`` is the
    number of observations the models are expected to reach, such as a
    run's budget: a lattice cache maps rows for that many at once (up to
    ``_RESERVE_BYTES``), so it is never copied before then. It bounds
    nothing; a model may grow past it.
    """
    capacity = int_at_least("capacity", capacity, 0)
    models, groups = [], {}
    for kernel, noise_variance in settings:
        model = GpModel(kernel, noise_variance)
        model._cov.capacity = capacity
        model._hold(groups.setdefault((kernel, model.noise_variance), model._cov), model._y)
        models.append(model)
    return models
