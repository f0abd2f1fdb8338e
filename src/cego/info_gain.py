"""Maximum information gain of a kernel over a gridded domain.

The quantity is the largest value of ``0.5 * logdet(I + K_A / lam)`` over
size-``t`` subsets ``A`` of the lattice. Small instances are solved by
exhaustive subset enumeration; larger ones fall back to lazy-free greedy
selection, which carries the usual ``1 - 1/e`` submodular guarantee and is
reported as an approximation. The greedy increment for adding a point with
posterior variance ``s2`` (conditioned on the points picked so far, noise
``lam``) is ``0.5 * log(1 + s2 / lam)``, so each round simply picks the
highest-variance grid point: a :class:`~cego.gp.GpModel` queried on the
lattice and given each pick with value 0 (the variance does not depend on
the values) does that bookkeeping.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from .domain import Domain
from .gp import GpModel, _factor
from .kernels import Kernel, positive_real

__all__ = ["max_info_gain"]

# Exhaustive enumeration is used below this many candidate subsets.
_EXACT_SUBSET_LIMIT = 20_000


def _logdet_gain(kernel: Kernel, points: np.ndarray, noise_variance: float) -> float:
    # 0.5 logdet(I + K / lam) = 0.5 logdet(K + lam I) - 0.5 m log(lam).
    chol = _factor(kernel.gram(points), noise_variance)
    return float(np.sum(np.log(np.diag(chol))) - 0.5 * len(points) * np.log(noise_variance))


def _exact(kernel: Kernel, grid: np.ndarray, t: int, noise_variance: float) -> float:
    best = -np.inf
    for subset in combinations(range(grid.shape[0]), t):
        best = max(best, _logdet_gain(kernel, grid[list(subset)], noise_variance))
    return best


def _greedy(kernel: Kernel, grid: np.ndarray, t: int, noise_variance: float) -> float:
    model = GpModel(kernel, noise_variance)
    gain = 0.0
    for _ in range(t):
        variances = model.posterior_batch(grid)[1]
        pick = int(np.argmax(variances))
        gain += 0.5 * np.log1p(variances[pick] / noise_variance)
        model = model.add(grid[pick], 0.0)
    return gain


def max_info_gain(
    kernel: Kernel,
    domain: Domain,
    t: int,
    noise_variance: float,
    method: str = "auto",
) -> float:
    """Worst-case mutual information between ``t`` lattice observations and the GP.

    Parameters
    ----------
    method:
        ``"exact"`` enumerates all subsets, ``"greedy"`` runs submodular
        greedy selection, ``"auto"`` enumerates when the subset count is
        small enough and is greedy otherwise.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    noise_variance = positive_real("noise_variance", noise_variance)
    grid = domain.grid
    if t > grid.shape[0]:
        raise ValueError(f"t={t} exceeds grid size {grid.shape[0]}")
    if t == 0:
        return 0.0
    if method not in ("auto", "exact", "greedy"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "exact" if comb(grid.shape[0], t) <= _EXACT_SUBSET_LIMIT else "greedy"
    if method == "exact":
        if comb(grid.shape[0], t) > _EXACT_SUBSET_LIMIT:
            raise ValueError(
                f"exact enumeration over C({grid.shape[0]}, {t}) subsets is too large"
            )
        return _exact(kernel, grid, t, noise_variance)
    return _greedy(kernel, grid, t, noise_variance)
