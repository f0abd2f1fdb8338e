import itertools

import numpy as np
import pytest

from cego.domain import Domain
from cego.info_gain import max_info_gain
from cego.kernels import Kernel


def brute_force_gain(kernel, domain, t, lam):
    """Independent enumeration oracle using slogdet over all size-t subsets."""
    grid = domain.grid
    best = -np.inf
    for subset in itertools.combinations(range(len(grid)), t):
        K = kernel.gram(grid[list(subset)])
        sign, logdet = np.linalg.slogdet(np.eye(t) + K / lam)
        assert sign > 0
        best = max(best, 0.5 * logdet)
    return best


def test_zero_steps_zero_gain():
    k = Kernel("squared_exponential", [1.0], 1.0)
    assert max_info_gain(k, Domain([0.0], [1.0], [5]), 0, 0.01) == 0.0


def test_single_step_closed_form():
    # One point: 0.5 * log(1 + prior_variance / lam) with prior variance 1, lam 0.01.
    k = Kernel("squared_exponential", [1.0], 1.0)
    gain = max_info_gain(k, Domain([0.0], [1.0], [5]), 1, 0.01)
    assert gain == pytest.approx(0.5 * np.log(101.0), rel=1e-12)


def test_two_point_domain_exact():
    k = Kernel("squared_exponential", [1.0], 1.0)
    domain = Domain([0.0], [1.0], [2])
    gain = max_info_gain(k, domain, 2, 0.01)
    K = k.gram(domain.grid)
    expected = 0.5 * np.log(np.linalg.det(np.eye(2) + K / 0.01))
    assert gain == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("family,n,t", [
    ("squared_exponential", 8, 2),
    ("squared_exponential", 12, 3),
    ("matern52", 10, 3),
    ("matern52", 12, 2),
])
def test_matches_enumeration_on_small_grids(family, n, t):
    k = Kernel(family, [0.4], 1.0)
    domain = Domain([0.0], [2.0], [n])
    got = max_info_gain(k, domain, t, 0.05, method="exact")
    want = brute_force_gain(k, domain, t, 0.05)
    assert got == pytest.approx(want, abs=1e-9)


def test_non_decreasing_in_t():
    k = Kernel("squared_exponential", [0.5, 0.5], 1.0)
    domain = Domain([0.0, 0.0], [1.0, 1.0], [4, 3])
    for method in ("exact", "greedy"):
        gains = [max_info_gain(k, domain, t, 0.01, method=method) for t in range(0, 5)]
        assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))


def test_greedy_within_submodular_certificate():
    k = Kernel("squared_exponential", [0.6], 1.0)
    domain = Domain([0.0], [3.0], [12])
    for t in (1, 2, 3):
        exact = max_info_gain(k, domain, t, 0.05, method="exact")
        greedy = max_info_gain(k, domain, t, 0.05, method="greedy")
        assert greedy <= exact + 1e-9
        assert greedy >= (1 - 1 / np.e) * exact - 1e-9


def test_greedy_first_step_matches_exact():
    k = Kernel("matern52", [0.7], 1.3)
    domain = Domain([-1.0], [1.0], [9])
    assert max_info_gain(k, domain, 1, 0.02, method="greedy") == pytest.approx(
        max_info_gain(k, domain, 1, 0.02, method="exact"), rel=1e-12
    )


def test_t_larger_than_grid_rejected():
    k = Kernel("squared_exponential", [1.0], 1.0)
    with pytest.raises(ValueError):
        max_info_gain(k, Domain([0.0], [1.0], [3]), 4, 0.01)


def conditioner_greedy_gain(kernel, grid, t, lam):
    """Greedy gain from explicitly conditioned covariance rows, one per pick."""
    variances = np.full(len(grid), kernel.prior_variance)
    conditioners = np.empty((t, len(grid)))
    gain = 0.0
    for step in range(t):
        pick = int(np.argmax(variances))
        gain += 0.5 * np.log1p(variances[pick] / lam)
        cross = kernel.cross(grid[pick][None, :], grid)[0]
        cross = cross - conditioners[:step].T @ conditioners[:step, pick]
        conditioners[step] = cross / np.sqrt(variances[pick] + lam)
        variances = np.maximum(variances - conditioners[step] ** 2, 0.0)
    return gain


@pytest.mark.parametrize("family", ["squared_exponential", "matern52"])
def test_greedy_matches_conditioned_rows_on_a_2d_lattice(family):
    k = Kernel(family, [0.3, 0.45], 1.2)
    domain = Domain([0.0, 0.0], [1.0, 1.0], [15, 13])
    for t in (1, 2, 7, 20, 40):
        got = max_info_gain(k, domain, t, 0.01, method="greedy")
        np.testing.assert_allclose(got, conditioner_greedy_gain(k, domain.grid, t, 0.01), rtol=1e-12)


@pytest.mark.parametrize("lam", [0.0, -0.1, float("nan"), float("inf"), True])
def test_noise_variance_must_be_finite_and_positive(lam):
    k = Kernel("squared_exponential", [1.0], 1.0)
    with pytest.raises(ValueError, match="noise_variance"):
        max_info_gain(k, Domain([0.0], [1.0], [5]), 1, lam)
