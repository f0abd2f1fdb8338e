"""Acquisition policies mapping surrogate state to the next sample.

:func:`propose` is the one step and :func:`observe` the one update. A step
of every policy but ``random`` evaluates every model's posterior over the
domain lattice once (:func:`evaluate_grid`), hands that
:class:`GridEvaluation` to the policy's private scorer, and turns the lattice
index it returns into the :class:`Decision`. Every scorer picks an
extremizer of a per-point score with ties broken by the smallest linear grid
index, the first one ``np.argmin`` and ``np.argmax`` return; they differ in
how constraint information enters the score. ``config``, ``epbo`` and
``primal_dual`` share one scorer, which minimizes the objective LCB plus the
policy's constraint term; only ``config`` declares infeasibility, when that
minimum is ``+inf``:

``config``
    Optimism for both objective and constraints: minimize the objective LCB
    over the joint LCB-feasible set, where every constraint LCB is
    nonpositive (a term of 0 there, ``+inf`` elsewhere). An empty set means
    that no feasible point can exist at the chosen confidence level, and
    infeasibility is declared: CONFIG's rule (Xu et al., ICML 2023).
``cei``
    Expected improvement times the probability that all constraints hold.
``epbo``
    Exact-penalty BO (Lu & Paulson, IFAC-PapersOnLine 2022): minimize
    ``lcb_0(x) + rho * sum_i max(0, lcb_i(x))``, the objective LCB plus a
    fixed penalty ``rho`` times the summed positive parts of the constraint
    LCBs. The source's penalty is exact once ``rho`` exceeds the largest
    Lagrange multiplier; here ``rho`` is a setting, never adapted or checked
    against one, and the equality constraints the source also penalizes are
    not supported.
``primal_dual``
    Primal-dual kernelized bandit (Zhou & Ji, NeurIPS 2022): minimize the
    Lagrangian of the LCBs, ``lcb_0(x) + sum_i dual_i * lcb_i(x)``, then in
    :func:`observe` take a projected dual step ``dual_i = max(0, dual_i +
    eta * y_i)``, one dual per constraint, with a fixed step ``eta``. The
    code departs from the source in the dual step: it takes the noisy
    measurement ``y_i`` at the sampled point, where the source takes the
    constraint's confidence-bound estimate there.
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
from .gp import GpModel, _scipy_extension

__all__ = ["BetaSchedule", "AlgorithmState", "Decision", "POLICIES", "propose", "observe"]

# The keys of a run configuration's policy spec that each policy reads,
# besides its ``name`` and ``label``: the one list of them, which
# ``RunConfig`` checks specs against and ``runner.build_state`` passes on.
SPEC_KEYS = {
    "config": ("beta",),
    "cei": (),
    "epbo": ("beta", "rho"),
    "primal_dual": ("beta", "eta"),
    "safeopt_lite": ("beta", "lipschitz", "safe_seed"),
    "random": (),
}
POLICIES = tuple(SPEC_KEYS)

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

    ``beta_sqrt`` weighs every model's sigma. The lattice values are those of
    each model's lattice cache, which an update extends rather than rebuilds:
    they agree with an uncached ``posterior_batch`` query of the same points
    within 1e-12 at noise variance 1e-2, and within a few 1e-12 at 1e-3
    (about 5e-12 over 40 steps with repeated points).
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
    def t(self) -> int:
        """Steps observed so far: the objective model's observation count."""
        return self.models[0].n_observations

    @property
    def n_constraints(self) -> int:
        return len(self.models) - 1

    def grid_bounds(self) -> GridEvaluation:
        """Every model's posterior on the lattice, under the upcoming step's beta."""
        beta_sqrt = self.beta.beta_sqrt(self.t + 1, self.domain.grid_size)
        return evaluate_grid(self.models, beta_sqrt, self.domain)


def _lcb_step(state: AlgorithmState, ev: GridEvaluation) -> int | None:
    """Minimize LCB(objective) plus the policy's term from :data:`_CONSTRAINT_TERMS`.

    ``None`` (infeasible) only for ``config`` with a ``+inf`` minimum: its
    term is ``+inf`` off the joint LCB-feasible set, so no lattice point has
    every constraint LCB <= 0. Any other minimum that is not finite (an
    ``epbo`` penalty or ``primal_dual`` duals that overflowed) raises
    ``FloatingPointError`` naming the policy and its weight.
    """
    lcb = ev.lcb
    term, knob = _CONSTRAINT_TERMS[state.policy]
    score = term(state, lcb[1:])
    score += lcb[0]  # in place: one lattice-sized array fewer at the step's peak
    index = int(np.argmin(score))
    best = score[index]
    if np.isfinite(best):
        return index
    if state.policy == "config" and best == np.inf:
        return None
    weight = f" with {knob}={getattr(state, knob)!r}" if knob else ""
    raise FloatingPointError(f"{state.policy}{weight} scored a lattice minimum of {best}, "
                             "not a finite number")


# The term each LCB-style policy adds to the objective LCB, per lattice point, from
# the constraint LCB rows ``g`` (shape ``(N, G)``), and the weight named on overflow.
_CONSTRAINT_TERMS = {
    "config": (lambda state, g: np.where(np.all(g <= 0, axis=0), 0.0, np.inf), None),
    "epbo": (lambda state, g: state.rho * np.sum(np.maximum(g, 0.0), axis=0), "rho"),
    "primal_dual": (lambda state, g: state.duals @ g, "eta"),
}


def _constraint_probability(means: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Elementwise posterior ``P[g <= 0]``; a point mass where ``sigma`` is 0."""
    p = _normal_cdf(-means / np.where(sigmas > 0, sigmas, 1.0))
    return np.where(sigmas > 0, p, (means <= 0).astype(float))


def _cei(state: AlgorithmState, ev: GridEvaluation) -> int:
    """Constrained expected improvement: EI times the feasibility probability.

    The feasibility probability is the product over constraints of
    ``P[g_i <= 0]``. The incumbent is the best observed objective value
    among points where every constraint holds with posterior probability
    >= 1/2 on its own, that is posterior mean <= 0; with no such point, as
    at a cold start with no observation at all, the step maximizes the
    feasibility probability alone (the no-incumbent rule of Gelbart, Snoek
    & Adams). Under the prior that probability is the same everywhere, so a
    cold step takes index 0. Never declares infeasibility.
    """
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
    """Best objective observation where each constraint's posterior mean is <= 0.

    That is, each constraint holds with probability >= 1/2 on its own: the
    incumbent rule of Gelbart, Snoek & Adams (UAI 2014).
    """
    objective = state.models[0]
    points = objective.points
    feasible = np.ones(points.shape[0], dtype=bool)
    for model in state.models[1:]:
        means, _ = model.posterior_batch(points)
        feasible &= means <= 0
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
    The certificate takes one pass over the lattice per safe point.
    """
    if state.safe_indices is None or state.safe_indices.size == 0:
        raise ValueError("safeopt_lite requires a non-empty feasible seed set")
    safe = state.safe_indices

    # A set that holds the whole lattice has nothing left to certify.
    if np.isfinite(state.lipschitz) and safe.size < state.domain.grid_size:
        grid = state.domain.grid
        # -inf with no constraint: every point is certified, vacuously.
        worst = np.max(ev.ucb[1:], axis=0, initial=-np.inf)
        certified = np.zeros(grid.shape[0], dtype=bool)
        # One lattice-sized L1 distance row per safe point, summed one
        # dimension at a time in order (see kernels.scaled_sq_distances).
        for s in safe:
            dist = np.abs(grid[:, 0] - grid[s, 0])
            for k in range(1, state.domain.dim):
                dist += np.abs(grid[:, k] - grid[s, k])
            certified |= worst[s] + state.lipschitz * dist <= 0
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
    **dict.fromkeys(_CONSTRAINT_TERMS, _lcb_step),
    "cei": _cei,
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

    Every model gains the observation, so ``state.t`` grows by one. A
    ``primal_dual`` state then takes one projected dual-ascent step,
    ``dual_i = max(0, dual_i + eta * y_i)`` for each constraint ``i``.
    """
    theta = as_point(theta)
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.shape[0] != len(state.models):
        raise ValueError(f"expected {len(state.models)} outputs, got {values.shape[0]}")
    state.models = [model.add(theta, value) for model, value in zip(state.models, values)]
    if state.policy == "primal_dual" and state.n_constraints:
        state.duals = np.maximum(0.0, state.duals + state.eta * values[1:])
    return state
