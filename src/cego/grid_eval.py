"""Shared grid-evaluation engine behind every acquisition policy.

One pass computes posterior means and standard deviations of all surrogate
models at every lattice point (one factorization solve against all
cross-covariance columns), from which policies derive confidence-bound
scores and feasibility masks. Argmin/argmax selection breaks ties by the
smallest linear grid index so that every policy is a deterministic function
of its state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .gp import GpModel

__all__ = ["GridEvaluation", "evaluate_grid", "constrained_argmin"]


@dataclass(frozen=True)
class GridEvaluation:
    """Per-lattice-point posterior summaries for a stack of models.

    Arrays are shaped ``(n_models, grid_size)`` and indexed by the domain's
    row-major linear grid index.
    """

    means: np.ndarray
    sigmas: np.ndarray
    beta_sqrt: float

    @property
    def lcb(self) -> np.ndarray:
        return self.means - self.beta_sqrt * self.sigmas

    @property
    def ucb(self) -> np.ndarray:
        return self.means + self.beta_sqrt * self.sigmas


def evaluate_grid(models: list[GpModel], beta_sqrt: float, domain: Domain) -> GridEvaluation:
    """Evaluate each model's posterior over the whole lattice.

    ``beta_sqrt`` is the step's one nonnegative confidence weight, shared by
    every model. Batched values agree with pointwise posterior calls to 1e-12.
    """
    if not beta_sqrt >= 0:
        raise ValueError(f"beta_sqrt must be nonnegative, got {beta_sqrt}")
    grid = domain.grid
    means = np.empty((len(models), grid.shape[0]))
    sigmas = np.empty_like(means)
    for i, model in enumerate(models):
        if model.kernel.dim != domain.dim:
            raise ValueError(f"model {i} has dim {model.kernel.dim}, domain {domain.dim}")
        mean, var = model.posterior_batch(grid)
        means[i] = mean
        sigmas[i] = np.sqrt(var)
    return GridEvaluation(means=means, sigmas=sigmas, beta_sqrt=float(beta_sqrt))


def constrained_argmin(scores: np.ndarray, feasible_mask: np.ndarray | None = None) -> int | None:
    """Smallest-index minimizer of ``scores`` restricted to a mask.

    Returns None iff the mask is empty. With no mask the whole grid competes.
    ``np.argmin`` already returns the first minimizer, which under a
    subset-preserving mask is the smallest original index.
    """
    scores = np.asarray(scores, dtype=float)
    if feasible_mask is None:
        if scores.size == 0:
            return None
        return int(np.argmin(scores))
    feasible_mask = np.asarray(feasible_mask, dtype=bool)
    if feasible_mask.shape != scores.shape:
        raise ValueError("scores and feasible_mask must have identical shape")
    candidates = np.flatnonzero(feasible_mask)
    if candidates.size == 0:
        return None
    return int(candidates[np.argmin(scores[candidates])])
