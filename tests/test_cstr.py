import numpy as np
import pytest

import cego.cstr as cstr_mod
from cego.cstr import (
    WILLIAMS_OTTO_PLANT,
    ConvergenceError,
    CstrPlant,
    cstr_steady_state,
)
from cego.problems import williams_otto_values

# Outlet fractions at two reference operating points, computed ahead of this
# implementation with a damped successive-substitution solver (each balance
# solved for its own fraction, damping 0.5, run to a 1e-15 step tolerance).
FIXED_POINT_REFERENCE = {
    (5.0, 85.0): {"x_a": 0.095843577398, "x_g": 0.081978901067, "profit": 180.40412817},
    (4.0, 70.0): {"x_a": 0.163326076771, "x_g": 0.046985894655, "profit": 106.63711803},
}


def residual_norm(feed_b, temperature, fractions, plant=WILLIAMS_OTTO_PLANT):
    k = plant.rate_constants(temperature)
    f = plant.feed_a + feed_b
    xa, xb, xc, xe, xp, xg = fractions
    r1, r2, r3 = k[0] * xa * xb, k[1] * xb * xc, k[2] * xc * xp
    w = plant.holdup
    res = [
        plant.feed_a - f * xa - w * r1,
        feed_b - f * xb - w * (r1 + r2),
        -f * xc + w * (2 * r1 - 2 * r2 - r3),
        -f * xe + w * 2 * r2,
        -f * xp + w * (r2 - 0.5 * r3),
        -f * xg + w * 1.5 * r3,
    ]
    return np.max(np.abs(res))


def operating_profit(feed_b, x_e, x_p, plant=WILLIAMS_OTTO_PLANT):
    """``c_P*XP*F + c_E*XE*F - c_A*F_A - c_B*F_B``, term by term in that order."""
    feed_b = float(feed_b)
    f = plant.feed_a + feed_b
    return (plant.profit_p * x_p * f + plant.profit_e * x_e * f
            - plant.cost_feed_a * plant.feed_a - plant.cost_feed_b * feed_b)


@pytest.mark.parametrize("operating_point,expected", sorted(FIXED_POINT_REFERENCE.items()))
def test_matches_independent_fixed_point_solver(operating_point, expected):
    x_a, _, _, x_e, x_p, x_g = cstr_steady_state(*operating_point)
    assert x_a == pytest.approx(expected["x_a"], abs=1e-9)
    assert x_g == pytest.approx(expected["x_g"], abs=1e-9)
    assert operating_profit(operating_point[0], x_e, x_p) == pytest.approx(expected["profit"],
                                                                            abs=1e-6)


def test_mass_conservation_across_input_sweep():
    for fb in np.linspace(4.0, 7.0, 7):
        for tr in np.linspace(70.0, 100.0, 7):
            fractions = cstr_steady_state(fb, tr)
            assert sum(fractions) == pytest.approx(1.0, abs=1e-8)
            assert residual_norm(fb, tr, fractions) <= 1e-10
            assert all(x >= -1e-10 for x in fractions)


def test_no_reaction_limit_returns_feed_composition():
    plant = CstrPlant(arrhenius_a=(0.0, 0.0, 0.0))
    x_a, x_b, x_c, x_e, x_p, x_g = cstr_steady_state(5.5, 80.0, plant=plant)
    f = plant.feed_a + 5.5
    assert x_a == pytest.approx(plant.feed_a / f, abs=1e-14)
    assert x_b == pytest.approx(5.5 / f, abs=1e-14)
    assert x_c == x_e == x_p == x_g == 0.0


def test_out_of_range_inputs_rejected():
    with pytest.raises(ValueError):
        cstr_steady_state(3.0, 80.0)
    with pytest.raises(ValueError):
        cstr_steady_state(5.0, 105.0)


def test_non_convergence_signalled(monkeypatch):
    monkeypatch.setattr(cstr_mod, "MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError):
        cstr_steady_state(5.0, 85.0)


def test_singular_jacobian_signalled(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(ConvergenceError, match=r"^singular Jacobian at \(F_B=5.0, T_r=85.0\)$"):
        cstr_steady_state(5.0, 85.0)


def test_residual_mass_fraction_constraints():
    # One row per operating point, in order, and each bit for bit the profit
    # and limits written out here, from the fractions the solver returns.
    points = [(5.0, 85.0), (4.0, 70.0)] + [
        (fb, tr) for fb in np.linspace(4.0, 7.0, 4) for tr in np.linspace(70.0, 100.0, 4)]
    values = williams_otto_values(np.array(points))
    assert values.shape == (len(points), 3)
    for (fb, tr), (j, g1, g2) in zip(points, values):
        x_a, _, _, x_e, x_p, x_g = cstr_steady_state(fb, tr)
        assert g1 == x_a - 0.12
        assert g2 == x_g - 0.08
        assert j == -operating_profit(fb, x_e, x_p)
        # X_A is a mass fraction, so g1 > -0.12 always.
        assert g1 > -0.12


def test_bisection_located_feasibility_boundary():
    # Bisection oracle on T_r at fixed F_B: find X_A = 0.12 and check g1 = 0.
    fb = 5.0
    lo, hi = 70.0, 100.0
    assert cstr_steady_state(fb, lo)[0] > 0.12 > cstr_steady_state(fb, hi)[0]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cstr_steady_state(fb, mid)[0] > 0.12:
            lo = mid
        else:
            hi = mid
    boundary = 0.5 * (lo + hi)
    _, g1, _ = williams_otto_values(np.array([[fb, boundary]]))[0]
    assert g1 == pytest.approx(0.0, abs=1e-6)


def test_temperature_monotonicity_of_conversion():
    # Hotter reactor converts more A and makes more G across the admissible box.
    x_a = [cstr_steady_state(5.0, tr)[0] for tr in np.linspace(70, 100, 5)]
    x_g = [cstr_steady_state(5.0, tr)[5] for tr in np.linspace(70, 100, 5)]
    assert all(b < a for a, b in zip(x_a, x_a[1:]))
    assert all(b > a for a, b in zip(x_g, x_g[1:]))
