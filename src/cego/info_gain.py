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

from .domain import Domain, positive_real
from .gp import _factor, empty_models
from .kernels import Kernel

__all__ = ["max_info_gain"]

# Exhaustive enumeration is used up to this many candidate subsets.
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
    # Room for all t picks: the lattice rows are mapped once.
    model = empty_models([(kernel, noise_variance)], capacity=int(t))[0]
    gain = 0.0
    for _ in range(t):
        variances = model.posterior_batch(grid)[1]
        pick = int(np.argmax(variances))
        gain += 0.5 * np.log1p(variances[pick] / noise_variance)
        model = model.add(grid[pick], 0.0)
    return gain


def max_info_gain(kernel: Kernel, domain: Domain, t: int, noise_variance: float) -> float:
    """Worst-case mutual information between ``t`` lattice observations and the GP.

    Enumerates the size-``t`` subsets of the lattice when there are at most
    ``_EXACT_SUBSET_LIMIT`` (20,000) of them, and is greedy otherwise.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    noise_variance = positive_real("noise_variance", noise_variance)
    grid = domain.grid
    if t > grid.shape[0]:
        raise ValueError(f"t={t} exceeds grid size {grid.shape[0]}")
    if t == 0:
        return 0.0
    if comb(grid.shape[0], t) <= _EXACT_SUBSET_LIMIT:
        return _exact(kernel, grid, t, noise_variance)
    return _greedy(kernel, grid, t, noise_variance)
