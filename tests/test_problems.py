import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cego.domain import Domain
from cego.problems import (
    PROBLEM_BUILDERS,
    Problem,
    artificial_infeasible_problem,
    artificial_problem,
    artificial_values,
    problem_from_config,
)


def test_origin_values():
    j, g = artificial_problem(g_thr=-0.6).evaluate([0.0, 0.0])
    assert j == pytest.approx(1.0)
    assert g == pytest.approx(1.6)


def test_unconstrained_minimum_is_infeasible():
    j, g = artificial_problem(g_thr=-0.6).evaluate([-np.pi / 2, 0.0])
    assert j == pytest.approx(-2.0)
    assert g == pytest.approx(0.6)
    assert g > 0


@given(
    t1=st.floats(-10, 10),
    t2=st.floats(-10, 10),
    g_thr=st.floats(-0.99, 0.99),
)
def test_output_ranges(t1, t2, g_thr):
    j, g = artificial_values(np.array([[t1, t2]]), g_thr)[0]
    assert -2.0 - 1e-12 <= j <= 2.0 + 1e-12
    assert -1.0 - g_thr - 1e-12 <= g <= 1.0 - g_thr + 1e-12


def test_domain_violation_rejected():
    problem = artificial_problem(g_thr=-0.6, grid=(10, 10))
    with pytest.raises(ValueError):
        problem.evaluate([11.0, 0.0])
    with pytest.raises(ValueError):
        problem.evaluate([0.0])
    with pytest.raises(ValueError):
        problem.evaluate_batch([[0.0, 0.0], [0.0, -10.5]])
    with pytest.raises(ValueError):
        artificial_problem(g_thr=-1.5)


@pytest.mark.parametrize(
    "kwargs, setting",
    [({"noise_std": float("nan")}, "noise_std"), ({"noise_std": -0.1}, "noise_std"),
     ({"noise_std": "0.1"}, "noise_std"), ({"g_thr": float("nan")}, "g_thr"),
     ({"g_thr": "a"}, "g_thr")],
)
def test_mistyped_artificial_settings_rejected(kwargs, setting):
    # A NaN noise level was taken, and made every measurement NaN.
    with pytest.raises(ValueError, match=setting):
        artificial_problem(**kwargs)


def test_problem_checks_its_noise_levels_and_its_oracle_shape():
    domain = Domain([0.0], [1.0], [3])
    with pytest.raises(ValueError, match="need 2 noise levels, got 1"):
        Problem("p", domain, 1, lambda thetas: np.zeros((len(thetas), 2)), (0.0,))
    problem = Problem("p", domain, 1, lambda thetas: np.zeros((len(thetas), 3)), (0.0, 0.0))
    with pytest.raises(ValueError, match=r"oracle returned shape \(1, 3\), expected \(1, 2\)"):
        problem.evaluate([0.5])


def test_purity_bit_identical():
    rng = np.random.default_rng(0)
    thetas = rng.uniform(-10, 10, size=(1_000_000, 2))
    first = artificial_values(thetas, -0.6)
    second = artificial_values(thetas, -0.6)
    assert np.array_equal(first, second)


def test_scalar_and_vectorized_paths_agree():
    # evaluate() is a batch of one: bit for bit the matching row of a batch.
    rng = np.random.default_rng(1)
    thetas = rng.uniform(-10, 10, size=(50, 2))
    problem = artificial_problem(g_thr=-0.6)
    batch = problem.evaluate_batch(thetas)
    np.testing.assert_array_equal(batch, artificial_values(thetas, -0.6))
    for theta, row in zip(thetas, batch):
        np.testing.assert_array_equal(problem.evaluate(theta), row)


def test_infeasible_variant_constraint_at_least_one():
    problem = artificial_infeasible_problem(grid=(10, 10))
    rng = np.random.default_rng(2)
    for _ in range(200):
        values = problem.evaluate(rng.uniform(-10, 10, 2))
        assert values[1] >= 1.0 - 1e-12


def test_infeasible_variant_origin():
    problem = artificial_infeasible_problem(grid=(10, 10))
    values = problem.evaluate([0.0, 0.0])
    assert values[1] == pytest.approx(3.0)


def test_zero_noise_evaluation_exact():
    problem = artificial_problem(g_thr=-0.6, noise_std=0.0, grid=(10, 10))
    rng = np.random.default_rng(3)
    y, true = problem.evaluate_noisy([1.0, 2.0], rng)
    np.testing.assert_array_equal(y, true)
    np.testing.assert_array_equal(true, problem.evaluate([1.0, 2.0]))


def test_noise_injection_seeded():
    problem = artificial_problem(g_thr=-0.6, noise_std=0.05, grid=(10, 10))
    y1, _ = problem.evaluate_noisy([1.0, 2.0], np.random.default_rng(7))
    y2, _ = problem.evaluate_noisy([1.0, 2.0], np.random.default_rng(7))
    y3, _ = problem.evaluate_noisy([1.0, 2.0], np.random.default_rng(8))
    np.testing.assert_array_equal(y1, y2)
    assert not np.array_equal(y1, y3)
    assert not np.array_equal(y1, problem.evaluate([1.0, 2.0]))


def test_problem_registry_round_trip():
    problem = problem_from_config({"name": "artificial", "g_thr": -0.3, "grid": [20, 20]})
    assert problem.domain.grid_counts == (20, 20)
    # g = cos(t1 + t2) - g_thr
    np.testing.assert_allclose(problem.evaluate([0.0, 0.0]), [1.0, 1.3])
    with pytest.raises(ValueError):
        problem_from_config({"name": "unheard_of"})


# Answers each request with two constraint values.
TWO_CONSTRAINT_STUB = (
    "import json, sys\n"
    "for line in sys.stdin:\n"
    "    t = json.loads(line)['theta']\n"
    "    print(json.dumps({'objective': t[0], 'constraints': [t[1], -1.0]}), flush=True)\n"
)
SETTINGS = {"external": {"command": [sys.executable, "-c", TWO_CONSTRAINT_STUB],
                         "lower": [0.0, 0.0], "upper": [1.0, 1.0], "grid": [5, 5],
                         "n_constraints": 2}}


@pytest.mark.parametrize("name", sorted(PROBLEM_BUILDERS))
def test_every_oracle_answers_a_batch_of_any_size(name):
    # One oracle signature: (n, d) -> (n, 1 + N), for n = 0 as for any other n.
    problem = problem_from_config({"name": name, **SETTINGS.get(name, {})})
    try:
        for n in (0, 1, 3):
            points = problem.domain.grid[:n]
            values = problem.evaluate_batch(points)
            assert values.shape == (n, problem.n_outputs)
            for point, row in zip(points, values):
                np.testing.assert_array_equal(problem.evaluate(point), row)
    finally:
        problem.close()
