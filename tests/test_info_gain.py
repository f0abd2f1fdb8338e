import itertools

import numpy as np
import pytest

from cego import gp, info_gain
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
    got = info_gain._exact(k, domain.grid, t, 0.05)
    want = brute_force_gain(k, domain, t, 0.05)
    assert got == pytest.approx(want, abs=1e-9)


def test_non_decreasing_in_t():
    k = Kernel("squared_exponential", [0.5, 0.5], 1.0)
    domain = Domain([0.0, 0.0], [1.0, 1.0], [4, 3])
    for method in (info_gain._exact, info_gain._greedy):
        gains = [0.0] + [method(k, domain.grid, t, 0.01) for t in range(1, 5)]
        assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))


def test_greedy_within_submodular_certificate():
    k = Kernel("squared_exponential", [0.6], 1.0)
    domain = Domain([0.0], [3.0], [12])
    for t in (1, 2, 3):
        exact = info_gain._exact(k, domain.grid, t, 0.05)
        greedy = info_gain._greedy(k, domain.grid, t, 0.05)
        assert greedy <= exact + 1e-9
        assert greedy >= (1 - 1 / np.e) * exact - 1e-9


def test_greedy_first_step_matches_exact():
    k = Kernel("matern52", [0.7], 1.3)
    domain = Domain([-1.0], [1.0], [9])
    assert info_gain._greedy(k, domain.grid, 1, 0.02) == pytest.approx(
        info_gain._exact(k, domain.grid, 1, 0.02), rel=1e-12
    )


def test_enumerates_up_to_the_subset_limit(monkeypatch):
    # C(12, 2) = 66 subsets are enumerated, C(12, 3) = 220 are not.
    monkeypatch.setattr(info_gain, "_EXACT_SUBSET_LIMIT", 66)
    k = Kernel("squared_exponential", [0.6], 1.0)
    domain = Domain([0.0], [3.0], [12])
    assert max_info_gain(k, domain, 2, 0.05) == info_gain._exact(k, domain.grid, 2, 0.05)
    greedy = info_gain._greedy(k, domain.grid, 3, 0.05)
    assert greedy < info_gain._exact(k, domain.grid, 3, 0.05)
    assert max_info_gain(k, domain, 3, 0.05) == greedy


def test_t_larger_than_grid_rejected():
    k = Kernel("squared_exponential", [1.0], 1.0)
    with pytest.raises(ValueError):
        max_info_gain(k, Domain([0.0], [1.0], [3]), 4, 0.01)


@pytest.mark.parametrize("t", [True, 2.5, "2", -1, np.int64(1)],
                         ids=["bool", "float", "str", "negative", "numpy-int"])
def test_t_must_be_an_int_at_least_zero(t):
    # True counted as one step, 2.5 and "2" failed with a TypeError.
    k = Kernel("squared_exponential", [1.0], 1.0)
    with pytest.raises(ValueError, match="t must be an int >= 0"):
        max_info_gain(k, Domain([0.0], [1.0], [5]), t, 0.01)


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
        got = info_gain._greedy(k, domain.grid, t, 0.01)
        np.testing.assert_allclose(got, conditioner_greedy_gain(k, domain.grid, t, 0.01), rtol=1e-12)


def test_greedy_maps_its_lattice_rows_once(monkeypatch):
    # The model is built for its t picks, so its lattice rows (SE factor
    # rows, or rows of V) are never copied into a larger mapping.
    calls = []
    mapped_rows = gp._mapped_rows

    def counted(n_rows, width):
        calls.append((n_rows, width))
        return mapped_rows(n_rows, width)

    monkeypatch.setattr(gp, "_mapped_rows", counted)
    domain = Domain([0.0, 0.0], [1.0, 1.0], [15, 13])
    for family, width in (("squared_exponential", 15 + 13), ("matern52", 15 * 13)):
        calls.clear()
        max_info_gain(Kernel(family, [0.3, 0.45], 1.2), domain, 40, 0.01)
        assert calls == [(40, width)], family


@pytest.mark.parametrize("lam", [0.0, -0.1, float("nan"), float("inf"), True])
def test_noise_variance_must_be_finite_and_positive(lam):
    k = Kernel("squared_exponential", [1.0], 1.0)
    with pytest.raises(ValueError, match="noise_variance"):
        max_info_gain(k, Domain([0.0], [1.0], [5]), 1, lam)
