"""Benchmark problems behind a single ``Problem`` abstraction.

Each problem exposes a pure oracle ``evaluate(theta) -> [J, g_1 .. g_N]``
(feasible means every ``g_i <= 0``) plus per-output noise levels; noisy
measurements are produced by a caller-supplied seeded generator so that the
underlying oracle stays deterministic and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .blackbox import ExternalBlackbox
from .cstr import WILLIAMS_OTTO_PLANT, CstrPlant, cstr_steady_state, williams_otto_profit
from .domain import Domain, as_point

__all__ = [
    "Problem",
    "artificial_eval",
    "artificial_values",
    "artificial_problem",
    "artificial_infeasible_problem",
    "williams_otto_eval",
    "williams_otto_problem",
    "external_problem",
    "problem_from_config",
    "PROBLEM_BUILDERS",
]

ARTIFICIAL_BOX = (-10.0, 10.0)
DEFAULT_ARTIFICIAL_NOISE = 0.01
INFEASIBLE_G_THR = -2.0  # cos(.) - (-2) >= 1 everywhere: provably infeasible


@dataclass(frozen=True)
class Problem:
    """A constrained black-box minimization instance on a gridded box."""

    name: str
    domain: Domain
    n_constraints: int
    oracle: Callable[[np.ndarray], np.ndarray]
    noise_std: tuple[float, ...]
    known_optimum: float | None = None
    optimum_note: str = ""
    params: dict = field(default_factory=dict)
    # Pure oracles are deterministic before noise injection, so logs can
    # carry the exact values next to the noisy measurements.
    pure: bool = True

    def __post_init__(self):
        if len(self.noise_std) != self.n_constraints + 1:
            raise ValueError(
                f"need {self.n_constraints + 1} noise levels, got {len(self.noise_std)}"
            )
        if any(s < 0 for s in self.noise_std):
            raise ValueError(f"noise_std entries must be nonnegative: {self.noise_std}")

    @property
    def n_outputs(self) -> int:
        return self.n_constraints + 1

    def evaluate(self, theta) -> np.ndarray:
        """Noiseless oracle values ``[J, g_1 .. g_N]``."""
        theta = as_point(theta)
        if not self.domain.contains(theta):
            raise ValueError(f"{theta} lies outside the domain of {self.name}")
        values = np.asarray(self.oracle(theta), dtype=float).reshape(-1)
        if values.shape[0] != self.n_outputs:
            raise ValueError(
                f"oracle returned {values.shape[0]} outputs, expected {self.n_outputs}"
            )
        return values

    def evaluate_noisy(self, theta, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """(noisy measurement, true values); exact when all noise levels are 0."""
        true = self.evaluate(theta)
        std = np.asarray(self.noise_std)
        if np.all(std == 0):
            return true.copy(), true
        return true + std * rng.standard_normal(self.n_outputs), true

    def close(self):
        """Release what the oracle holds, if it has a ``close`` (an external child process)."""
        close = getattr(self.oracle, "close", None)
        if close is not None:
            close()


# -- artificial trigonometric problem ------------------------------------------


def artificial_eval(theta, g_thr: float) -> tuple[float, float]:
    """Closed-form objective/constraint pair of the artificial benchmark.

    ``J = cos(2*t1)*cos(t2) + sin(t1)`` and ``g = cos(t1 + t2) - g_thr`` on
    the box ``[-10, 10]^2`` with ``g_thr`` strictly inside ``(-1, 1)``.
    """
    theta = as_point(theta)
    if theta.shape[0] != 2:
        raise ValueError(f"artificial problem is 2-D, got dim {theta.shape[0]}")
    if not (-1.0 < g_thr < 1.0):
        raise ValueError(f"g_thr must lie in (-1, 1), got {g_thr}")
    lo, hi = ARTIFICIAL_BOX
    if np.any(theta < lo) or np.any(theta > hi):
        raise ValueError(f"{theta} outside the box [{lo}, {hi}]^2")
    t1, t2 = theta
    return float(np.cos(2.0 * t1) * np.cos(t2) + np.sin(t1)), float(np.cos(t1 + t2) - g_thr)


def artificial_values(thetas: np.ndarray, g_thr: float) -> np.ndarray:
    """Vectorized oracle used by the dense-grid reference computations."""
    t1, t2 = thetas[:, 0], thetas[:, 1]
    j = np.cos(2.0 * t1) * np.cos(t2) + np.sin(t1)
    g = np.cos(t1 + t2) - g_thr
    return np.stack([j, g], axis=1)


def artificial_problem(
    g_thr: float = -0.6,
    grid: tuple[int, int] = (100, 100),
    noise_std: float = DEFAULT_ARTIFICIAL_NOISE,
    known_optimum: float | None = None,
    optimum_note: str = "",
) -> Problem:
    domain = Domain([ARTIFICIAL_BOX[0]] * 2, [ARTIFICIAL_BOX[1]] * 2, grid)
    return Problem(
        name="artificial",
        domain=domain,
        n_constraints=1,
        oracle=lambda theta: np.array(artificial_eval(theta, g_thr)),
        noise_std=(noise_std, noise_std),
        known_optimum=known_optimum,
        optimum_note=optimum_note,
        params={"g_thr": g_thr, "grid": tuple(grid), "noise_std": noise_std},
    )


def artificial_infeasible_problem(
    grid: tuple[int, int] = (100, 100),
    noise_std: float = DEFAULT_ARTIFICIAL_NOISE,
) -> Problem:
    """Same objective, constraint shifted so that g >= 1 everywhere."""

    def oracle(theta):
        theta = as_point(theta)
        t1, t2 = theta
        j = float(np.cos(2.0 * t1) * np.cos(t2) + np.sin(t1))
        return np.array([j, float(np.cos(t1 + t2) - INFEASIBLE_G_THR)])

    domain = Domain([ARTIFICIAL_BOX[0]] * 2, [ARTIFICIAL_BOX[1]] * 2, grid)
    return Problem(
        name="artificial_infeasible",
        domain=domain,
        n_constraints=1,
        oracle=oracle,
        noise_std=(noise_std, noise_std),
        params={"grid": tuple(grid), "noise_std": noise_std},
    )


# -- Williams-Otto reactor problem ----------------------------------------------

X_A_LIMIT = 0.12
X_G_LIMIT = 0.08


def williams_otto_eval(theta, plant: CstrPlant = WILLIAMS_OTTO_PLANT) -> tuple[float, float, float]:
    """Negative profit plus residual-fraction threshold constraints at ``(F_B, T_r)``."""
    theta = as_point(theta)
    if theta.shape[0] != 2:
        raise ValueError(f"Williams-Otto problem is 2-D, got dim {theta.shape[0]}")
    state = cstr_steady_state(theta[0], theta[1], plant=plant)
    profit = williams_otto_profit(state, plant=plant)
    return -profit, state.x_a - X_A_LIMIT, state.x_g - X_G_LIMIT


def williams_otto_problem(
    grid: tuple[int, int] = (50, 50),
    plant: CstrPlant = WILLIAMS_OTTO_PLANT,
    known_optimum: float | None = None,
    optimum_note: str = "",
) -> Problem:
    domain = Domain(
        [plant.feed_b_range[0], plant.temperature_range[0]],
        [plant.feed_b_range[1], plant.temperature_range[1]],
        grid,
    )
    return Problem(
        name="williams_otto",
        domain=domain,
        n_constraints=2,
        oracle=lambda theta: np.asarray(williams_otto_eval(theta, plant=plant)),
        noise_std=(0.0, 0.0, 0.0),  # treated as a deterministic simulation
        known_optimum=known_optimum,
        optimum_note=optimum_note,
        params={"grid": tuple(grid)},
    )


# -- external black-box problem --------------------------------------------------


def external_problem(
    command: list[str],
    lower,
    upper,
    grid,
    n_constraints: int,
    timeout: float = 30.0,
    noise_std: float = 0.0,
    name: str = "external",
) -> Problem:
    """Problem whose oracle lives in a child process behind the line protocol."""
    box = ExternalBlackbox(command, n_constraints=n_constraints, timeout=timeout)
    domain = Domain(lower, upper, grid)
    return Problem(
        name=name,
        domain=domain,
        n_constraints=n_constraints,
        oracle=box,
        noise_std=tuple([noise_std] * (n_constraints + 1)),
        params={
            "command": list(command),
            "timeout": timeout,
            "grid": tuple(int(g) for g in np.atleast_1d(grid)),
        },
        pure=False,
    )


# -- registry ---------------------------------------------------------------------


def _build_artificial(params: dict) -> Problem:
    return artificial_problem(
        g_thr=params.get("g_thr", -0.6),
        grid=tuple(params.get("grid", (100, 100))),
        noise_std=params.get("noise_std", DEFAULT_ARTIFICIAL_NOISE),
    )


def _build_artificial_infeasible(params: dict) -> Problem:
    return artificial_infeasible_problem(
        grid=tuple(params.get("grid", (100, 100))),
        noise_std=params.get("noise_std", DEFAULT_ARTIFICIAL_NOISE),
    )


def _build_williams_otto(params: dict) -> Problem:
    return williams_otto_problem(grid=tuple(params.get("grid", (50, 50))))


def _build_external(params: dict) -> Problem:
    return external_problem(
        command=params["command"],
        lower=params["lower"],
        upper=params["upper"],
        grid=params["grid"],
        n_constraints=params["n_constraints"],
        timeout=params.get("timeout", 30.0),
        noise_std=params.get("noise_std", 0.0),
    )


PROBLEM_BUILDERS: dict[str, Callable[[dict], Problem]] = {
    "artificial": _build_artificial,
    "artificial_infeasible": _build_artificial_infeasible,
    "williams_otto": _build_williams_otto,
    "external": _build_external,
}


def problem_from_config(config: dict) -> Problem:
    """Instantiate a registered problem from ``{"name": .., **params}``."""
    params = dict(config)
    name = params.pop("name")
    if name not in PROBLEM_BUILDERS:
        raise ValueError(f"unknown problem {name!r}, known: {sorted(PROBLEM_BUILDERS)}")
    return PROBLEM_BUILDERS[name](params)
