"""Acquisition policies mapping surrogate state to the next sample.

:func:`propose` is the one step and :func:`observe` the one update. A step
of every policy but ``random`` evaluates every model's posterior over the
domain lattice once (:func:`evaluate_grid`), hands that
:class:`GridEvaluation` to the policy's private scorer, and turns the lattice
index it returns into the :class:`Decision`. Every scorer picks an
extremizer of a per-point score with ties broken by the smallest linear grid
index, the first one ``np.argmin`` and ``np.argmax`` return; they differ in
how constraint information enters the score. ``config``, ``epbo`` and
``primal_dual`` all minimize the objective LCB plus a constraint term,
``config`` under a mask:

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
    Lagrangian LCB score with multiplier updates, made in :func:`observe`,
    driven by measured violations.
``safeopt_lite``
    Never samples outside a certified safe set grown from feasible seeds by
    Lipschitz extrapolation of the constraint UCBs. Deliberately simplified
    relative to the published SafeOpt machinery; it exists to reproduce the
    conservative, locally-stuck behavior of safe methods.
``random``
    Uniform lattice draw from the step's seed; no lattice evaluation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import Domain, as_point, finite_real, positive_real
from .gp import GpModel, _scipy_extension, column_blocks

__all__ = ["BetaSchedule", "AlgorithmState", "Decision", "POLICIES", "propose", "observe"]

# The keys of a run configuration's policy spec that each policy reads,
# besides its ``name`` and ``label``.
SPEC_KEYS = {
    "config": ("beta",),
    "cei": (),
    "epbo": ("beta", "rho"),
    "primal_dual": ("beta", "eta"),
    "safeopt_lite": ("beta", "lipschitz", "safe_seed"),
    "random": (),
}
POLICIES = tuple(SPEC_KEYS)

# Incumbent rule for constrained EI: an observed point counts as feasible
# when each constraint on its own holds with posterior probability >= 1/2
# (the per-constraint rule of Gelbart, Snoek & Adams, UAI 2014), not when
# the joint probability does.
CEI_INCUMBENT_THRESHOLD = 0.5

# The standard normal CDF is scipy's ``ndtr`` ufunc and the density below is
# ``exp(-z**2/2) / sqrt(2*pi)``: the formulas behind ``scipy.stats.norm.cdf``
# and ``norm.pdf``, so scores keep their bits without importing scipy.stats
# or scipy.special.
_SQRT_2PI = np.sqrt(2 * np.pi)


def _normal_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal density, elementwise."""
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


@functools.cache
def _ndtr():
    """``scipy.special.ndtr``, loaded once per process at its first call.

    It is the ufunc of the compiled ``scipy.special._special_ufuncs``, which
    :func:`~cego.gp._scipy_extension` loads by itself, as ``cego.gp`` loads
    LAPACK at its first factorization, and with neither the ``scipy`` nor the
    ``scipy.special`` package init: the latter pulls in scipy's array-API
    layers, about 0.2 s and 21 MB resident, and only ``cei`` reads the CDF.
    A scipy that ships no such module, or one without ``ndtr``, gets the
    package import instead. A numpy formula would change bits: ``np.exp``
    and libm's ``exp`` differ in the last bit on about 5 % of inputs.
    """
    try:
        return _scipy_extension("special", "_special_ufuncs").ndtr
    except (ImportError, AttributeError):
        from scipy.special import ndtr

        return ndtr


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise: ``scipy.special.ndtr``."""
    return _ndtr()(z)


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
    """Each model's posterior over the whole lattice, under one confidence weight.

    ``beta_sqrt`` weighs every model's sigma. The lattice values agree with
    one-point ``posterior_batch`` queries to 1e-12.
    """
    grid = domain.grid
    means = np.empty((len(models), grid.shape[0]))
    sigmas = np.empty_like(means)
    for i, model in enumerate(models):
        mean, var = model.posterior_batch(grid)
        means[i] = mean
        sigmas[i] = np.sqrt(var)
    return GridEvaluation(means=means, sigmas=sigmas, beta_sqrt=float(beta_sqrt))


@dataclass(frozen=True)
class Decision:
    """Either the next sample location or a declaration that the problem is infeasible."""

    kind: str  # "sample" | "infeasible"
    point: np.ndarray | None = None
    index: int | None = None

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
            seeds = np.asarray(self.safe_indices, dtype=int)
            if seeds.size and (seeds.min() < 0 or seeds.max() >= self.domain.grid_size):
                raise ValueError("safe seed indices outside the grid")
            # Sorted and unique, as np.unique gives them; a lattice mask keeps
            # np.unique (which loads numpy.ma in numpy >= 2.3) out of the run.
            seed_mask = np.zeros(self.domain.grid_size, dtype=bool)
            seed_mask[seeds] = True
            self.safe_indices = np.flatnonzero(seed_mask)

    @property
    def n_constraints(self) -> int:
        return len(self.models) - 1

    def grid_bounds(self) -> GridEvaluation:
        """Every model's posterior on the lattice, under the upcoming step's beta."""
        beta_sqrt = self.beta.beta_sqrt(self.t + 1, self.domain.grid_size)
        return evaluate_grid(self.models, beta_sqrt, self.domain)


def _config(state: AlgorithmState, ev: GridEvaluation) -> int | None:
    """Optimistic constrained step: minimize LCB(objective) where all constraint LCBs <= 0.

    Declares infeasibility when some constraint's LCB is positive at every
    lattice point. If the jointly-LCB-feasible set is empty without any
    single constraint certifying infeasibility, falls back to the point with
    the smallest total positive-part constraint LCB.
    """
    lcb = ev.lcb
    if np.any(np.min(lcb[1:], axis=1) > 0):
        return None
    feasible = np.flatnonzero(np.all(lcb[1:] <= 0, axis=0))
    if feasible.size == 0:
        return int(np.argmin(_violation(lcb)))
    return int(feasible[np.argmin(lcb[0][feasible])])


def _epbo(state: AlgorithmState, ev: GridEvaluation) -> int:
    """Penalty step: minimize LCB(objective) + rho * sum of positive-part constraint LCBs."""
    lcb = ev.lcb
    return int(np.argmin(lcb[0] + state.rho * _violation(lcb)))


def _primal_dual(state: AlgorithmState, ev: GridEvaluation) -> int:
    """Lagrangian step: minimize LCB(objective) + sum_i dual_i * LCB(constraint_i).

    The dual variables themselves are updated in :func:`observe` once the
    sampled point's constraint measurements are available.
    """
    lcb = ev.lcb
    return int(np.argmin(lcb[0] + state.duals @ lcb[1:]))


def _violation(lcb: np.ndarray) -> np.ndarray:
    """Summed positive parts of the constraint LCBs (rows ``1..N``), per grid point."""
    return np.sum(np.maximum(lcb[1:], 0.0), axis=0)


def _constraint_probability(means: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Elementwise posterior ``P[g <= 0]``; a point mass where ``sigma`` is 0."""
    p = _normal_cdf(-means / np.where(sigmas > 0, sigmas, 1.0))
    return np.where(sigmas > 0, p, (means <= 0).astype(float))


def _cei(state: AlgorithmState, ev: GridEvaluation) -> int:
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
    feas_prob = np.prod(_constraint_probability(ev.means[1:], ev.sigmas[1:]), axis=0)

    incumbent = _cei_incumbent(state)
    if incumbent is None:
        return np.argmax(feas_prob)

    mean, sigma = ev.means[0], ev.sigmas[0]
    improvement = incumbent - mean
    z = improvement / np.where(sigma > 0, sigma, 1.0)
    ei = np.where(
        sigma > 0,
        improvement * _normal_cdf(z) + sigma * _normal_pdf(z),
        np.maximum(improvement, 0.0),
    )
    return np.argmax(ei * feas_prob)


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


def _safeopt_lite(state: AlgorithmState, ev: GridEvaluation) -> int:
    """Safe step: expand the certified set by Lipschitz extrapolation, then sample in it.

    A lattice point joins the safe set when some already-safe point ``s``
    certifies it: ``ucb_i(s) + L * ||s - theta||_1 <= 0`` for every
    constraint ``i``. Within the safe set the step picks the smallest
    objective LCB, breaking ties by larger posterior sigma and then by
    smaller index. The safe set only grows and sampling never leaves it.
    """
    if state.safe_indices is None or state.safe_indices.size == 0:
        raise ValueError("safeopt_lite requires a non-empty feasible seed set")
    safe = state.safe_indices

    # A set that holds the whole lattice has nothing left to certify.
    if np.isfinite(state.lipschitz) and safe.size < state.domain.grid_size:
        grid = state.domain.grid
        safe_points = grid[safe]
        # -inf with no constraint: every point is certified, vacuously.
        safe_ucb = np.max(ev.ucb[1:], axis=0, initial=-np.inf)[safe][:, None]
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
        # The set only grows: a safe point stays safe whether or not it
        # certifies itself. A mask, not np.union1d, which loads numpy.ma in
        # numpy >= 2.3.
        certified[safe] = True
        safe = np.flatnonzero(certified)
    state.safe_indices = safe

    lcb0 = ev.lcb[0][safe]
    best = lcb0 == np.min(lcb0)
    sigma0 = ev.sigmas[0][safe]
    widest = sigma0 == np.max(sigma0[best])
    return safe[np.flatnonzero(best & widest)[0]]


# Each scorer maps the step's lattice evaluation to a lattice index, or to
# None when ``config`` declares infeasibility.
_STEPS = {
    "config": _config,
    "cei": _cei,
    "epbo": _epbo,
    "primal_dual": _primal_dual,
    "safeopt_lite": _safeopt_lite,
}


def propose(state: AlgorithmState, rng_seed=None) -> Decision:
    """The state's policy step: the next lattice point, or a declaration of infeasibility.

    ``random`` draws its index uniformly from ``rng_seed``, deterministic for
    a given seed. Every other policy scores one evaluation of the lattice
    posterior (:meth:`AlgorithmState.grid_bounds`) with its scorer.
    """
    if state.policy == "random":
        if rng_seed is None:
            raise ValueError("random policy needs an rng_seed")
        index = state.domain.sample_index(np.random.default_rng(rng_seed))
    else:
        index = _STEPS[state.policy](state, state.grid_bounds())
    if index is None:
        return Decision(kind="infeasible")
    return Decision(kind="sample", point=state.domain.point(index), index=int(index))


def observe(state: AlgorithmState, theta, values) -> AlgorithmState:
    """Fold a full measurement vector ``(y_0 .. y_N)`` into the state.

    Every model gains the observation and the step counter advances. A
    ``primal_dual`` state then takes one projected dual-ascent step,
    ``dual_i = max(0, dual_i + eta * y_i)`` for each constraint ``i``.
    """
    theta = as_point(theta)
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.shape[0] != len(state.models):
        raise ValueError(f"expected {len(state.models)} outputs, got {values.shape[0]}")
    state.models = [model.add(theta, value) for model, value in zip(state.models, values)]
    state.t += 1
    if state.policy == "primal_dual" and state.n_constraints:
        state.duals = np.maximum(0.0, state.duals + state.eta * values[1:])
    return state
