"""Benchmark problems behind a single ``Problem`` abstraction.

Each problem has one batch oracle: an ``(n, d)`` array of points in, an
``(n, 1 + N)`` array of rows ``[J, g_1 .. g_N]`` out (feasible means every
``g_i <= 0``). ``Problem.evaluate_batch`` validates both sides of it and
``Problem.evaluate`` is a batch of one. Per-output noise levels come with the
problem; noisy measurements are produced by a caller-supplied seeded
generator so that the underlying oracle stays deterministic and replayable.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cstr import WILLIAMS_OTTO_PLANT, cstr_steady_state, williams_otto_profit
from .domain import Domain, as_point, finite_real

__all__ = [
    "Problem",
    "artificial_values",
    "artificial_problem",
    "artificial_infeasible_problem",
    "williams_otto_values",
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
    """A constrained black-box minimization instance on a gridded box.

    ``oracle`` maps an ``(n, dim)`` array of points to an ``(n, 1 + N)``
    array of noiseless outputs, one row per point, in order.
    """

    name: str
    domain: Domain
    n_constraints: int
    oracle: Callable[[np.ndarray], np.ndarray]
    noise_std: tuple[float, ...]
    # Pure oracles are deterministic before noise injection, so logs can
    # carry the exact values next to the noisy measurements.
    pure: bool = True

    def __post_init__(self):
        if len(self.noise_std) != self.n_constraints + 1:
            raise ValueError(
                f"need {self.n_constraints + 1} noise levels, got {len(self.noise_std)}"
            )
        for std in self.noise_std:
            finite_real("noise_std", std, minimum=0.0)

    @property
    def n_outputs(self) -> int:
        return self.n_constraints + 1

    def evaluate(self, theta) -> np.ndarray:
        """Noiseless oracle values ``[J, g_1 .. g_N]`` at one point."""
        return self.evaluate_batch(as_point(theta)[None, :])[0]

    def evaluate_batch(self, thetas) -> np.ndarray:
        """Noiseless oracle values, one row ``[J, g_1 .. g_N]`` per row of ``thetas``."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.domain.dim:
            raise ValueError(
                f"need an (n, {self.domain.dim}) array of points, got shape {thetas.shape}"
            )
        outside = ~self.domain.contains(thetas)
        if np.any(outside):
            raise ValueError(f"{thetas[outside][0]} lies outside the domain of {self.name}")
        values = np.asarray(self.oracle(thetas), dtype=float)
        if values.shape != (thetas.shape[0], self.n_outputs):
            raise ValueError(
                f"oracle returned shape {values.shape}, expected "
                f"{(thetas.shape[0], self.n_outputs)}"
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


def artificial_values(thetas: np.ndarray, g_thr: float) -> np.ndarray:
    """Objective/constraint rows ``[J, g]`` of the artificial benchmark.

    ``J = cos(2*t1)*cos(t2) + sin(t1)`` and ``g = cos(t1 + t2) - g_thr`` at
    each row ``(t1, t2)`` of ``thetas``.
    """
    t1, t2 = thetas[:, 0], thetas[:, 1]
    j = np.cos(2.0 * t1) * np.cos(t2) + np.sin(t1)
    g = np.cos(t1 + t2) - g_thr
    return np.stack([j, g], axis=1)


def _artificial(name: str, g_thr: float, grid, noise_std: float) -> Problem:
    return Problem(
        name=name,
        domain=Domain([ARTIFICIAL_BOX[0]] * 2, [ARTIFICIAL_BOX[1]] * 2, grid),
        n_constraints=1,
        oracle=lambda thetas: artificial_values(thetas, g_thr),
        noise_std=(noise_std, noise_std),
    )


def artificial_problem(
    g_thr: float = -0.6,
    grid: tuple[int, int] = (100, 100),
    noise_std: float = DEFAULT_ARTIFICIAL_NOISE,
) -> Problem:
    """The artificial benchmark on ``[-10, 10]^2``; ``g_thr`` must lie strictly in ``(-1, 1)``."""
    if not -1.0 < finite_real("g_thr", g_thr) < 1.0:
        raise ValueError(f"g_thr must lie in (-1, 1), got {g_thr}")
    return _artificial("artificial", g_thr, grid, noise_std)


def artificial_infeasible_problem(
    grid: tuple[int, int] = (100, 100),
    noise_std: float = DEFAULT_ARTIFICIAL_NOISE,
) -> Problem:
    """Same objective, constraint shifted so that g >= 1 everywhere."""
    return _artificial("artificial_infeasible", INFEASIBLE_G_THR, grid, noise_std)


# -- Williams-Otto reactor problem ----------------------------------------------

X_A_LIMIT = 0.12
X_G_LIMIT = 0.08


def williams_otto_values(thetas: np.ndarray) -> np.ndarray:
    """Negative profit and residual-fraction constraints, one steady-state solve per row.

    Each row of ``thetas`` is an operating point ``(F_B, T_r)``.
    """
    rows = []
    for feed_b, temperature in thetas:
        state = cstr_steady_state(feed_b, temperature)
        profit = williams_otto_profit(state)
        rows.append((-profit, state.x_a - X_A_LIMIT, state.x_g - X_G_LIMIT))
    return np.array(rows, dtype=float).reshape(-1, 3)  # (0, 3) for no rows


def williams_otto_problem(grid: tuple[int, int] = (50, 50)) -> Problem:
    plant = WILLIAMS_OTTO_PLANT
    domain = Domain(
        [plant.feed_b_range[0], plant.temperature_range[0]],
        [plant.feed_b_range[1], plant.temperature_range[1]],
        grid,
    )
    return Problem(
        name="williams_otto",
        domain=domain,
        n_constraints=2,
        oracle=williams_otto_values,
        noise_std=(0.0, 0.0, 0.0),  # treated as a deterministic simulation
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
) -> Problem:
    """Problem whose oracle lives in a child process behind the line protocol."""
    # Imported here: only this problem needs the child-process machinery
    # (``subprocess``, ``select``).
    from .blackbox import ExternalBlackbox

    box = ExternalBlackbox(command, n_constraints=n_constraints, timeout=timeout)
    domain = Domain(lower, upper, grid)
    return Problem(
        name="external",
        domain=domain,
        n_constraints=n_constraints,
        oracle=box,
        noise_std=tuple([noise_std] * (n_constraints + 1)),
        pure=False,
    )


# -- registry ---------------------------------------------------------------------


PROBLEM_BUILDERS: dict[str, Callable[..., Problem]] = {
    "artificial": artificial_problem,
    "artificial_infeasible": artificial_infeasible_problem,
    "williams_otto": williams_otto_problem,
    "external": external_problem,
}


def problem_from_config(config: dict) -> Problem:
    """Instantiate a registered problem from ``{"name": .., **params}``.

    ``params`` are the builder's keyword arguments; an unknown or missing one
    raises a ``ValueError`` that names it. Each value is checked by the
    constructor that takes it (``Domain``, ``Problem``, ``ExternalBlackbox``
    or the builder), whose ``ValueError`` names the setting.
    """
    if not isinstance(config, dict):
        raise ValueError(f"problem must be an object with a 'name', got {config!r}")
    params = dict(config)
    name = params.pop("name", None)
    if name not in PROBLEM_BUILDERS:
        raise ValueError(f"unknown problem {name!r}, known: {sorted(PROBLEM_BUILDERS)}")
    builder = PROBLEM_BUILDERS[name]
    try:
        inspect.signature(builder).bind(**params)
    except TypeError as exc:
        raise ValueError(f"problem {name!r}: {exc}") from None
    return builder(**params)
