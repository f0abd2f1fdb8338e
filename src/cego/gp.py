"""Exact Gaussian process regression with a cached Cholesky factorization.

A model owns one scalar output (objective or a single constraint). Updates
return a fresh model, so callers may treat any instance as immutable and
query it concurrently between updates. ``add`` re-factorizes the Gram
matrix in full: with a few hundred observations at most that is cheap, and
it keeps every factor a deterministic function of the data alone.

Posterior formulas, for observations ``X, y`` with Gram matrix ``K``, noise
variance ``lam`` and ``L L^T = K + lam I``::

    mean(q) = k(X, q)^T (K + lam I)^{-1} y
    var(q)  = k(q, q) - k(X, q)^T (K + lam I)^{-1} k(X, q)

Variance values in ``[-1e-9, 0)`` are clamped to zero; anything more
negative indicates a broken factorization and raises.

Lattice cache. Every policy step asks each model about the same lattice, so
a model keeps ``V = L^{-1} k(X, lattice)``, ``z = L^{-1} y`` and the posterior
on the last lattice it was asked about. The first query builds them with the
formulas above, so its answer is the uncached one. ``add`` then extends the
cache by one row instead of dropping it (sequential Cholesky update;
Rasmussen & Williams 2006, Alg. 2.1; Osborne 2010). With ``l, d`` the new
last row and diagonal entry of the child's factor::

    z_t  = (y_t - l . z) / d
    row  = (k(x_t, lattice) - l^T V) / d
    mean += z_t * row
    var  -= row**2

which costs O(t G) per step instead of O(t G d + t^2 G). The cache is keyed
on the identity of a read-only array that owns its memory, such as
``Domain.grid``; any other query takes the uncached path and leaves the
cache alone. A model that is never asked about a lattice builds no cache,
and a model built from scratch (e.g. after a hyperparameter refit) rebuilds
it on its first lattice query. The cache holds ``t * G`` floats per model
plus up to ``_ROW_CHUNK`` spare rows; one uncached query builds a ``t * G``
cross-covariance on every call.
"""

from __future__ import annotations

import mmap
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .domain import as_point
from .kernels import Kernel

__all__ = ["GpModel"]

_VARIANCE_CLAMP = 1e-9

# Lattice-cache rows are allocated this many at a time.
_ROW_CHUNK = 32
_TIP_LOCK = threading.Lock()


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


class _RowBuffer:
    """Rows of ``V``, grown in chunks and shared along a chain of ``add`` calls.

    ``tip`` counts the rows some model has claimed. A model only reads its
    own first ``t`` rows, so the model whose cache ends at the tip may append
    in place; any other (a second child of one parent) gets a copy.
    """

    def __init__(self, rows: np.ndarray):
        self.tip = rows.shape[0]
        self.data = _mapped_rows(self.tip + _ROW_CHUNK, rows.shape[1])
        self.data[: self.tip] = rows

    def append(self, t: int, row: np.ndarray) -> "_RowBuffer":
        """A buffer whose first ``t + 1`` rows are ``self.data[:t]`` then ``row``."""
        with _TIP_LOCK:
            at_tip = self.tip == t
            if at_tip:
                self.tip = t + 1
        if not at_tip:
            return _RowBuffer(np.vstack([self.data[:t], row]))
        if t == self.data.shape[0]:
            grown = _mapped_rows(t + _ROW_CHUNK, self.data.shape[1])
            grown[:t] = self.data[:t]
            self.data = grown
        self.data[t] = row
        return self


@dataclass(frozen=True, eq=False)
class _LatticeCache:
    """A model's posterior on one lattice, and what extending it needs.

    ``rows.data[:len(z)]`` is ``V``; ``var`` is not yet clamped.
    """

    lattice: np.ndarray
    rows: _RowBuffer
    z: np.ndarray
    mean: np.ndarray
    var: np.ndarray


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
        i.i.d. Gaussian observation noise variance ``lam > 0``.
    """

    def __init__(self, kernel: Kernel, noise_variance: float,
                 _X: np.ndarray | None = None, _y: np.ndarray | None = None):
        if not noise_variance > 0:
            raise ValueError(f"noise_variance must be positive, got {noise_variance}")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self._X = np.empty((0, kernel.dim)) if _X is None else _X
        self._y = np.empty(0) if _y is None else _y
        self._chol = None
        self._alpha = None
        self._lattice: _LatticeCache | None = None
        if len(self._y):
            self._factorize()

    # -- observation data ---------------------------------------------------

    @property
    def n_observations(self) -> int:
        return self._y.shape[0]

    @property
    def points(self) -> np.ndarray:
        return self._X.copy()

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
        X = np.vstack([self._X, point[None, :]])
        y = np.append(self._y, value)
        child = GpModel(self.kernel, self.noise_variance, X, y)
        cache = self._lattice
        if cache is not None:
            t = self.n_observations
            l, d = child._chol[t, :t], child._chol[t, t]
            k_row = self.kernel.cross(point[None, :], cache.lattice)[0]
            row = (k_row - l @ cache.rows.data[:t]) / d
            z_t = (value - l @ cache.z) / d
            child._lattice = _LatticeCache(
                lattice=cache.lattice,
                rows=cache.rows.append(t, row),
                z=np.append(cache.z, z_t),
                mean=cache.mean + z_t * row,
                var=cache.var - row * row,
            )
        return child

    def _factorize(self):
        gram = self.kernel.gram(self._X)
        gram[np.diag_indices_from(gram)] += self.noise_variance
        # Raises scipy.linalg.LinAlgError on an ill-conditioned kernel/noise pair.
        self._chol = cholesky(gram, lower=True)
        self._alpha = cho_solve((self._chol, True), self._y)

    # -- posterior queries ----------------------------------------------------

    def posterior(self, query) -> tuple[float, float]:
        """Posterior ``(mean, variance)`` at a single point."""
        query = as_point(query)
        means, variances = self.posterior_batch(query[None, :])
        return float(means[0]), float(variances[0])

    def posterior_batch(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances at many points at once.

        One triangular solve against all cross-covariance columns; this is the
        hot path of every grid-based acquisition step. A read-only array that
        owns its memory, such as ``Domain.grid``, is answered from the lattice
        cache when it is the cached lattice, and becomes the cached lattice
        otherwise (see the module docstring).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        prior_var = np.full(queries.shape[0], self.kernel.prior_variance)
        if self.n_observations == 0:
            return np.zeros(queries.shape[0]), prior_var
        cache = self._lattice
        if cache is not None and cache.lattice is queries:
            means, variances = cache.mean.copy(), cache.var
        else:
            k_cross = self.kernel.cross(self._X, queries)
            means = k_cross.T @ self._alpha
            v = solve_triangular(self._chol, k_cross, lower=True)
            variances = prior_var - np.sum(v * v, axis=0)
            if _is_lattice(queries):
                z = solve_triangular(self._chol, self._y, lower=True)
                self._lattice = _LatticeCache(
                    lattice=queries, rows=_RowBuffer(v), z=z,
                    mean=means.copy(), var=variances,
                )
        too_negative = variances < -_VARIANCE_CLAMP
        if np.any(too_negative):
            raise GpNumericsError(
                f"posterior variance reached {variances[too_negative].min():.3e}; "
                "factorization is inconsistent with the kernel"
            )
        return means, np.maximum(variances, 0.0)

    def log_marginal_likelihood(self) -> float:
        """Exact log marginal likelihood of the stored observations."""
        if self.n_observations == 0:
            return 0.0
        t = self.n_observations
        log_det = 2.0 * np.sum(np.log(np.diag(self._chol)))
        return float(
            -0.5 * self._y @ self._alpha - 0.5 * log_det - 0.5 * t * np.log(2.0 * np.pi)
        )

    def __repr__(self):
        return (
            f"GpModel(family={self.kernel.family}, t={self.n_observations}, "
            f"lam={self.noise_variance:g})"
        )
