"""Acquisition policies mapping surrogate state to the next sample.

All policies share the same mechanics: evaluate every model's posterior over
the domain lattice, derive a per-point score, and pick an extremizer with
ties broken by the smallest linear grid index. They differ in how constraint
information enters the score. ``config``, ``epbo`` and ``primal_dual`` all
minimize the objective LCB plus a constraint term with
:func:`~cego.grid_eval.constrained_argmin`, ``config`` under a mask:

``config``
    Optimism for both objective and constraints: minimize the objective LCB
    subject to every constraint LCB being nonpositive. If some constraint's
    LCB is positive over the whole lattice no feasible point can exist at
    the chosen confidence level, and infeasibility is declared.
``cei``
    Expected improvement times the probability that all constraints hold.
``epbo``
    Objective LCB plus a fixed penalty ``rho`` times summed positive parts
    of the constraint LCBs.
``primal_dual``
    Lagrangian LCB score with multiplier updates driven by measured
    violations.
``safeopt_lite``
    Never samples outside a certified safe set grown from feasible seeds by
    Lipschitz extrapolation of the constraint UCBs. Deliberately simplified
    relative to the published SafeOpt machinery; it exists to reproduce the
    conservative, locally-stuck behavior of safe methods.
``random``
    Uniform lattice draw, seeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .domain import Domain, as_point, finite_real, positive_real
from .gp import GpModel, column_blocks
from .grid_eval import GridEvaluation, constrained_argmin, evaluate_grid

__all__ = [
    "BetaSchedule",
    "AlgorithmState",
    "Decision",
    "POLICIES",
    "config_step",
    "cei_step",
    "epbo_step",
    "primal_dual_step",
    "safeopt_lite_step",
    "random_step",
    "propose",
    "observe",
    "updated_duals",
]

POLICIES = ("config", "cei", "epbo", "primal_dual", "safeopt_lite", "random")

# Incumbent rule for constrained EI: an observed point counts as feasible
# when each constraint on its own holds with posterior probability >= 1/2
# (the per-constraint rule of Gelbart, Snoek & Adams, UAI 2014), not when
# the joint probability does.
CEI_INCUMBENT_THRESHOLD = 0.5

# The standard normal CDF is ``ndtr`` and the density below is
# ``exp(-z**2/2) / sqrt(2*pi)``: the formulas behind ``scipy.stats.norm.cdf``
# and ``norm.pdf``, so scores keep their bits without importing scipy.stats.
_SQRT_2PI = np.sqrt(2 * np.pi)


def _normal_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal density, elementwise."""
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


@dataclass(frozen=True)
class BetaSchedule:
    """Exploration weight schedule for the confidence bounds.

    ``constant`` uses ``value`` directly as ``beta_sqrt`` at every step.
    ``log_growth`` uses ``value * sqrt(2 log(grid_size * t^2 * pi^2 / (6 delta)))``,
    which is nonnegative and non-decreasing in ``t``.
    """

    mode: str = "constant"
    value: float = 2.0
    delta: float = 0.05

    def __post_init__(self):
        if self.mode not in ("constant", "log_growth"):
            raise ValueError(f"unknown beta mode {self.mode!r}")
        positive_real("beta value", self.value)
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")

    def beta_sqrt(self, t: int, grid_size: int) -> float:
        if self.mode == "constant":
            return self.value
        t = max(int(t), 1)
        return self.value * np.sqrt(
            2.0 * np.log(grid_size * t**2 * np.pi**2 / (6.0 * self.delta))
        )


@dataclass(frozen=True)
class Decision:
    """Either the next sample location or a declaration that the problem is infeasible."""

    kind: str  # "sample" | "infeasible"
    point: np.ndarray | None = None
    index: int | None = None

    @classmethod
    def sample(cls, domain: Domain, index: int) -> "Decision":
        """Sample the lattice point with linear index ``index``."""
        return cls(kind="sample", point=domain.point(index), index=int(index))

    @classmethod
    def infeasible(cls) -> "Decision":
        return cls(kind="infeasible")

    @property
    def is_infeasible(self) -> bool:
        return self.kind == "infeasible"


@dataclass
class AlgorithmState:
    """Mutable per-run state: one GP per output plus policy bookkeeping.

    ``models[0]`` tracks the objective; ``models[i]`` tracks constraint ``i``.
    The dual variables of ``primal_dual`` start at zero, one per constraint.
    Stepping is strictly sequential within a run; independent runs share
    nothing mutable.
    """

    policy: str
    domain: Domain
    models: list[GpModel]
    beta: BetaSchedule = field(default_factory=BetaSchedule)
    t: int = 0
    rho: float = 1.0
    eta: float = 1.0
    duals: np.ndarray = field(init=False)
    lipschitz: float = 1.0
    safe_indices: np.ndarray | None = None

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")
        if not self.models:
            raise ValueError("need at least the objective model")
        for model in self.models:
            if model.kernel.dim != self.domain.dim:
                raise ValueError("model dimension does not match the domain")
        # An infinite rho or eta would turn scores or duals into NaN; an
        # infinite Lipschitz constant confines sampling to the seeds.
        self.rho = finite_real("rho", self.rho, minimum=0.0)
        self.eta = positive_real("eta", self.eta)
        if self.lipschitz != math.inf:
            self.lipschitz = finite_real("lipschitz", self.lipschitz, minimum=0.0)
        self.duals = np.zeros(self.n_constraints)
        if self.safe_indices is not None:
            self.safe_indices = np.unique(np.asarray(self.safe_indices, dtype=int))
            if self.safe_indices.size and (
                self.safe_indices[0] < 0 or self.safe_indices[-1] >= self.domain.grid_size
            ):
                raise ValueError("safe seed indices outside the grid")

    @property
    def n_constraints(self) -> int:
        return len(self.models) - 1

    def grid_bounds(self) -> GridEvaluation:
        """Every model's posterior on the lattice, under the upcoming step's beta."""
        beta_sqrt = self.beta.beta_sqrt(self.t + 1, self.domain.grid_size)
        return evaluate_grid(self.models, beta_sqrt, self.domain)


def config_step(state: AlgorithmState) -> Decision:
    """Optimistic constrained step: minimize LCB(objective) where all constraint LCBs <= 0.

    Declares infeasibility when some constraint's LCB is positive at every
    lattice point. If the jointly-LCB-feasible set is empty without any
    single constraint certifying infeasibility, falls back to the point with
    the smallest total positive-part constraint LCB.
    """
    lcb = state.grid_bounds().lcb
    if np.any(np.min(lcb[1:], axis=1) > 0):
        return Decision.infeasible()
    idx = constrained_argmin(lcb[0], np.all(lcb[1:] <= 0, axis=0))
    if idx is None:
        idx = constrained_argmin(_violation(lcb))
    return Decision.sample(state.domain, idx)


def epbo_step(state: AlgorithmState) -> Decision:
    """Penalty step: minimize LCB(objective) + rho * sum of positive-part constraint LCBs."""
    lcb = state.grid_bounds().lcb
    return Decision.sample(state.domain, constrained_argmin(lcb[0] + state.rho * _violation(lcb)))


def primal_dual_step(state: AlgorithmState) -> Decision:
    """Lagrangian step: minimize LCB(objective) + sum_i dual_i * LCB(constraint_i).

    The dual variables themselves are updated in :func:`observe` once the
    sampled point's constraint measurements are available.
    """
    lcb = state.grid_bounds().lcb
    return Decision.sample(state.domain, constrained_argmin(lcb[0] + state.duals @ lcb[1:]))


def _violation(lcb: np.ndarray) -> np.ndarray:
    """Summed positive parts of the constraint LCBs (rows ``1..N``), per grid point."""
    return np.sum(np.maximum(lcb[1:], 0.0), axis=0)


def _constraint_probability(means: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Elementwise posterior ``P[g <= 0]``; a point mass where ``sigma`` is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = ndtr(np.where(sigmas > 0, -means / np.where(sigmas > 0, sigmas, 1.0), 0.0))
    return np.where(sigmas > 0, p, (means <= 0).astype(float))


def cei_step(state: AlgorithmState) -> Decision:
    """Constrained expected improvement: EI times the feasibility probability.

    The feasibility probability is the product over constraints of
    ``P[g_i <= 0]``. The incumbent is the best observed objective value
    among points where every constraint on its own holds with posterior
    probability at least 1/2; with no such point the step maximizes the
    feasibility probability alone. Never declares infeasibility.
    """
    objective = state.models[0]
    if objective.n_observations == 0:
        raise ValueError("cei needs at least one objective observation for the incumbent")
    ev = state.grid_bounds()
    feas_prob = np.prod(_constraint_probability(ev.means[1:], ev.sigmas[1:]), axis=0)

    incumbent = _cei_incumbent(state)
    if incumbent is None:
        return Decision.sample(state.domain, np.argmax(feas_prob))

    mean, sigma = ev.means[0], ev.sigmas[0]
    improvement = incumbent - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma > 0, improvement / np.where(sigma > 0, sigma, 1.0), 0.0)
    ei = np.where(
        sigma > 0,
        improvement * ndtr(z) + sigma * _normal_pdf(z),
        np.maximum(improvement, 0.0),
    )
    return Decision.sample(state.domain, np.argmax(ei * feas_prob))


def _cei_incumbent(state: AlgorithmState) -> float | None:
    """Best objective observation at a point where each constraint is probably met."""
    objective = state.models[0]
    points = objective.points
    feasible = np.ones(points.shape[0], dtype=bool)
    for model in state.models[1:]:
        means, variances = model.posterior_batch(points)
        probability = _constraint_probability(means, np.sqrt(variances))
        feasible &= probability >= CEI_INCUMBENT_THRESHOLD
    if not np.any(feasible):
        return None
    return float(np.min(objective.values[feasible]))


def updated_duals(duals: np.ndarray, constraint_values: np.ndarray, eta: float) -> np.ndarray:
    """Projected dual ascent: ``max(0, dual + eta * measured_value)`` per constraint."""
    return np.maximum(0.0, np.asarray(duals, dtype=float) + eta * np.asarray(constraint_values, dtype=float))


def safeopt_lite_step(state: AlgorithmState) -> Decision:
    """Safe step: expand the certified set by Lipschitz extrapolation, then sample in it.

    A lattice point joins the safe set when some already-safe point ``s``
    certifies it: ``ucb_i(s) + L * ||s - theta||_1 <= 0`` for every
    constraint ``i``. Within the safe set the step picks the smallest
    objective LCB, breaking ties by larger posterior sigma and then by
    smaller index. The safe set only grows and sampling never leaves it.
    """
    if state.safe_indices is None or state.safe_indices.size == 0:
        raise ValueError("safeopt_lite requires a non-empty feasible seed set")
    ev = state.grid_bounds()
    safe = state.safe_indices

    if state.n_constraints and np.isfinite(state.lipschitz):
        grid = state.domain.grid
        safe_points = grid[safe]
        safe_ucb = np.max(ev.ucb[1:], axis=0)[safe][:, None]
        certified = np.empty(grid.shape[0], dtype=bool)
        # L1 distances from each safe point to one block of lattice points at
        # a time, summed one plane per dimension in order (see
        # kernels.scaled_sq_distances).
        for cols in column_blocks(safe.size, grid.shape[0]):
            block = grid[cols]
            dist = np.abs(np.subtract.outer(safe_points[:, 0], block[:, 0]))
            for k in range(1, state.domain.dim):
                dist += np.abs(np.subtract.outer(safe_points[:, k], block[:, k]))
            certified[cols] = np.min(safe_ucb + state.lipschitz * dist, axis=0) <= 0
        safe = np.union1d(safe, np.flatnonzero(certified))
    state.safe_indices = safe

    lcb0 = ev.lcb[0][safe]
    best = lcb0 == np.min(lcb0)
    sigma0 = ev.sigmas[0][safe]
    widest = sigma0 == np.max(sigma0[best])
    return Decision.sample(state.domain, safe[np.flatnonzero(best & widest)[0]])


def random_step(state: AlgorithmState, rng_seed) -> Decision:
    """Uniform draw over the lattice, deterministic for a given seed."""
    rng = np.random.default_rng(rng_seed)
    return Decision.sample(state.domain, state.domain.sample_index(rng))


_STEPS = {
    "config": config_step,
    "cei": cei_step,
    "epbo": epbo_step,
    "primal_dual": primal_dual_step,
    "safeopt_lite": safeopt_lite_step,
}


def propose(state: AlgorithmState, rng_seed=None) -> Decision:
    """Dispatch to the state's policy step."""
    if state.policy == "random":
        if rng_seed is None:
            raise ValueError("random policy needs an rng_seed")
        return random_step(state, rng_seed)
    return _STEPS[state.policy](state)


def observe(state: AlgorithmState, theta, values) -> AlgorithmState:
    """Fold a full measurement vector ``(y_0 .. y_N)`` into the state.

    Every model gains the observation, the step counter advances, and
    policy-specific bookkeeping (primal-dual multipliers) is refreshed.
    """
    theta = as_point(theta)
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.shape[0] != len(state.models):
        raise ValueError(f"expected {len(state.models)} outputs, got {values.shape[0]}")
    state.models = [model.add(theta, value) for model, value in zip(state.models, values)]
    state.t += 1
    if state.policy == "primal_dual" and state.n_constraints:
        state.duals = updated_duals(state.duals, values[1:], state.eta)
    return state
