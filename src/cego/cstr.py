"""Williams-Otto continuous stirred-tank reactor at steady state.

The classical benchmark plant: pure feeds A and B enter a perfectly mixed
reactor of fixed mass holdup held at temperature ``T_r``, with three
reactions in mass-fraction kinetics::

    A + B -> C        r1 = k1 * XA * XB
    C + B -> P + E    r2 = k2 * XB * XC
    P + C -> G        r3 = k3 * XC * XP

and Arrhenius rate constants ``k_j = a_j * exp(-b_j / T_kelvin)``. Plant
constants (kinetics, feed rate of A, holdup, economic coefficients) follow
the values conventionally used for this benchmark in the real-time
optimization literature; they are grouped in :class:`CstrPlant` so tests can
substitute degenerate variants (e.g. zero reaction rates).

The steady state solves the six component mass balances

    0 = F_A - F*XA - W*r1
    0 = F_B - F*XB - W*(r1 + r2)
    0 =     - F*XC + W*(2*r1 - 2*r2 - r3)
    0 =     - F*XE + W*(2*r2)
    0 =     - F*XP + W*(r2 - 0.5*r3)
    0 =     - F*XG + W*(1.5*r3)

with ``F = F_A + F_B``; the reaction terms cancel in the sum, so any root
has mass fractions summing to one. Newton's method with the analytic
Jacobian, started from the no-reaction feed state, takes every step at full
length: over the 50x50 and 200x200 lattices and a 600x600 sweep of the input
box (402,500 solves) no solve took more than 6 steps, and no residual rose or
Jacobian was singular, so there is no line search or fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["CstrPlant", "CstrState", "WILLIAMS_OTTO_PLANT", "ConvergenceError",
           "cstr_steady_state", "williams_otto_profit"]

class ConvergenceError(RuntimeError):
    """Steady-state iteration hit a singular Jacobian or failed to reach the tolerance."""


@dataclass(frozen=True)
class CstrPlant:
    """Plant constants for the Williams-Otto reactor.

    ``arrhenius_a`` are the three pre-exponential factors (1/s per unit mass
    fraction product), ``arrhenius_b`` the activation temperatures (K).
    ``profit_*`` are the economic coefficients of the operating profit
    ``c_P*XP*F + c_E*XE*F - c_A*F_A - c_B*F_B``.
    """

    feed_a: float = 1.8275          # kg/s, fixed feed rate of component A
    holdup: float = 2105.0          # kg, reactor mass
    arrhenius_a: tuple[float, float, float] = (1.6599e6, 7.2117e8, 2.6745e12)
    arrhenius_b: tuple[float, float, float] = (6666.7, 8333.3, 11111.0)
    profit_p: float = 1143.38
    profit_e: float = 25.92
    cost_feed_a: float = 76.23
    cost_feed_b: float = 114.34
    feed_b_range: tuple[float, float] = (4.0, 7.0)
    temperature_range: tuple[float, float] = (70.0, 100.0)

    def rate_constants(self, temperature_c: float) -> np.ndarray:
        t_kelvin = temperature_c + 273.15
        a = np.asarray(self.arrhenius_a)
        b = np.asarray(self.arrhenius_b)
        return a * np.exp(-b / t_kelvin)


WILLIAMS_OTTO_PLANT = CstrPlant()


@dataclass(frozen=True)
class CstrState:
    """Converged reactor state: outlet mass fractions plus operating inputs."""

    mass_fractions: tuple[float, ...]  # A, B, C, E, P, G
    feed_a: float
    feed_b: float
    temperature: float

    @property
    def x_a(self) -> float:
        return self.mass_fractions[0]

    @property
    def x_b(self) -> float:
        return self.mass_fractions[1]

    @property
    def x_c(self) -> float:
        return self.mass_fractions[2]

    @property
    def x_e(self) -> float:
        return self.mass_fractions[3]

    @property
    def x_p(self) -> float:
        return self.mass_fractions[4]

    @property
    def x_g(self) -> float:
        return self.mass_fractions[5]


def _residual(x, feed_a: float, feed_b: float, k, holdup: float) -> list[float]:
    f = feed_a + feed_b
    xa, xb, xc, xe, xp, xg = x
    r1 = k[0] * xa * xb
    r2 = k[1] * xb * xc
    r3 = k[2] * xc * xp
    return [
        feed_a - f * xa - holdup * r1,
        feed_b - f * xb - holdup * (r1 + r2),
        -f * xc + holdup * (2.0 * r1 - 2.0 * r2 - r3),
        -f * xe + holdup * 2.0 * r2,
        -f * xp + holdup * (r2 - 0.5 * r3),
        -f * xg + holdup * 1.5 * r3,
    ]


def _jacobian(x, feed_a: float, feed_b: float, k, holdup: float) -> np.ndarray:
    f = feed_a + feed_b
    xa, xb, xc, xe, xp, xg = x
    w = holdup
    # d r1 = k1*(xb, xa, 0, 0, 0, 0); d r2 = k2*(0, xc, xb, 0, 0, 0); d r3 = k3*(0, 0, xp, 0, xc, 0)
    return np.array([
        [-f - w * k[0] * xb, -w * k[0] * xa, 0.0, 0.0, 0.0, 0.0],
        [-w * k[0] * xb, -f - w * (k[0] * xa + k[1] * xc), -w * k[1] * xb, 0.0, 0.0, 0.0],
        [2.0 * w * k[0] * xb, w * (2.0 * k[0] * xa - 2.0 * k[1] * xc),
         -f - w * (2.0 * k[1] * xb + k[2] * xp), 0.0, -w * k[2] * xc, 0.0],
        [0.0, 2.0 * w * k[1] * xc, 2.0 * w * k[1] * xb, -f, 0.0, 0.0],
        [0.0, w * k[1] * xc, w * (k[1] * xb - 0.5 * k[2] * xp), 0.0, -f - 0.5 * w * k[2] * xc, 0.0],
        [0.0, 0.0, 1.5 * w * k[2] * xp, 0.0, 1.5 * w * k[2] * xc, -f],
    ])


def _max_abs(values: list[float]) -> float:
    """``max |v|``, NaN when any ``v`` is NaN, as ``np.max(np.abs(values))``."""
    if any(v != v for v in values):
        return math.nan
    return max(map(abs, values))


TOLERANCE = 1e-10
MAX_ITERATIONS = 200


def cstr_steady_state(
    feed_b: float, temperature: float, plant: CstrPlant = WILLIAMS_OTTO_PLANT
) -> CstrState:
    """Solve the reactor steady state at inputs ``(F_B, T_r)``.

    Raises ``ValueError`` outside the admissible input box and
    :class:`ConvergenceError` if a Jacobian is singular or the residual fails
    to reach ``TOLERANCE`` in ``MAX_ITERATIONS`` iterations. The iteration
    runs on Python floats, six at a time: each operation is the one, in the
    order, that the same update on numpy arrays would make, without numpy's
    per-call cost on 6-vectors.
    """
    lo_b, hi_b = plant.feed_b_range
    lo_t, hi_t = plant.temperature_range
    if not lo_b <= feed_b <= hi_b:
        raise ValueError(f"feed_b={feed_b} outside admissible range [{lo_b}, {hi_b}]")
    if not lo_t <= temperature <= hi_t:
        raise ValueError(
            f"temperature={temperature} outside admissible range [{lo_t}, {hi_t}]"
        )
    feed_b, temperature = float(feed_b), float(temperature)
    k = plant.rate_constants(temperature).tolist()
    feed_a = plant.feed_a
    f = feed_a + feed_b
    x = [feed_a / f, feed_b / f, 0.0, 0.0, 0.0, 0.0]

    resid = _residual(x, feed_a, feed_b, k, plant.holdup)
    for _ in range(MAX_ITERATIONS):
        if _max_abs(resid) <= TOLERANCE:
            break
        try:
            step = np.linalg.solve(
                _jacobian(x, feed_a, feed_b, k, plant.holdup), [-r for r in resid]
            ).tolist()
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                f"singular Jacobian at (F_B={feed_b}, T_r={temperature})"
            ) from None
        x = [xi + si for xi, si in zip(x, step)]
        resid = _residual(x, feed_a, feed_b, k, plant.holdup)
    else:
        raise ConvergenceError(
            f"steady state not converged at (F_B={feed_b}, T_r={temperature}): "
            f"residual {_max_abs(resid):.3e} after {MAX_ITERATIONS} iterations"
        )

    if any(v < -1e-10 for v in x):
        raise ConvergenceError(
            f"steady state has negative mass fraction at (F_B={feed_b}, T_r={temperature}): {x}"
        )
    return CstrState(
        mass_fractions=tuple(x),
        feed_a=feed_a,
        feed_b=feed_b,
        temperature=temperature,
    )


def williams_otto_profit(state: CstrState) -> float:
    """Operating profit of a converged state of the classical plant (positive is good)."""
    plant = WILLIAMS_OTTO_PLANT
    f = state.feed_a + state.feed_b
    return (
        plant.profit_p * state.x_p * f
        + plant.profit_e * state.x_e * f
        - plant.cost_feed_a * state.feed_a
        - plant.cost_feed_b * state.feed_b
    )
