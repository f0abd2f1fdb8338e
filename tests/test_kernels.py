import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cego.domain import Domain
from cego.kernels import Kernel, covariance

FAMILIES = ["squared_exponential", "matern52"]


def tensor_cross(kernel, a, b):
    """The cross-covariance from an ``(n, m, d)`` difference tensor summed over its last axis."""
    ls = np.asarray(kernel.lengthscales)
    diff = a[:, None, :] / ls - b[None, :, :] / ls
    return covariance(kernel.family, np.sum(diff * diff, axis=-1), kernel.prior_variance)


def tensor_gram(kernel, points):
    gram = tensor_cross(kernel, points, points)
    return 0.5 * (gram + gram.T)


def cross_cases(dim, seed):
    """A kernel and point sets of shapes 0 x m, 1 x 1, 3 x 1 and t x 10^4, in ``dim`` dimensions."""
    rng = np.random.default_rng(seed)
    kernel_scales = rng.uniform(1.0, 3.0, dim)
    sizes = [(0, 7), (1, 1), (3, 1), (30, 10_000)]
    return kernel_scales, [(rng.uniform(0, 1, (n, dim)), rng.uniform(0, 1, (m, dim))) for n, m in sizes]


def test_se_at_identical_points_is_prior_variance():
    k = Kernel("squared_exponential", [1.0, 1.0], 1.0)
    assert k.cross([[0.0, 0.0]], [[0.0, 0.0]])[0, 0] == pytest.approx(1.0, abs=0)


def test_se_closed_form_unit_lengthscale():
    k = Kernel("squared_exponential", [1.0], 1.0)
    assert k.cross([[0.0]], [[1.0]])[0, 0] == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_se_closed_form_scaled_distance():
    # r / lengthscale = 1 again, so the value is unchanged.
    k = Kernel("squared_exponential", [2.0], 1.0)
    assert k.cross([[0.0]], [[2.0]])[0, 0] == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_se_output_scale_squares():
    k = Kernel("squared_exponential", [1.0], 3.0)
    assert k.cross([[0.5]], [[0.5]])[0, 0] == pytest.approx(9.0, rel=1e-12)


def test_matern52_closed_form():
    k = Kernel("matern52", [2.0], 1.5)
    r = np.array([0.0, 0.7, 3.0]) / 2.0
    expected = 1.5**2 * (1 + np.sqrt(5) * r + 5 * r**2 / 3) * np.exp(-np.sqrt(5) * r)
    np.testing.assert_allclose(k.cross([[0.0]], [[0.0], [0.7], [3.0]])[0], expected, rtol=1e-12)


def test_dimension_mismatch_raises():
    k = Kernel("squared_exponential", [1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        k.cross([[0.0]], [[1.0]])
    with pytest.raises(ValueError):
        k.cross([[0.0, 0.0]], [[1.0]])


@pytest.mark.parametrize("family", ["squared_exponential", "matern52"])
@given(data=st.data())
def test_symmetry(family, data):
    dim = data.draw(st.integers(1, 3))
    coords = st.floats(-5, 5)
    a = data.draw(st.lists(coords, min_size=dim, max_size=dim))
    b = data.draw(st.lists(coords, min_size=dim, max_size=dim))
    ls = data.draw(st.lists(st.floats(0.1, 4.0), min_size=dim, max_size=dim))
    k = Kernel(family, ls, 1.3)
    assert k.cross([a], [b])[0, 0] == pytest.approx(k.cross([b], [a])[0, 0], rel=1e-12)
    points = np.array([a, b])
    np.testing.assert_allclose(k.cross(points, points), k.cross(points, points).T, rtol=1e-12)


@pytest.mark.parametrize("family", ["squared_exponential", "matern52"])
def test_gram_plus_jitter_is_positive_definite(family):
    # Positive-definiteness witnessed by a successful Cholesky on random point sets.
    rng = np.random.default_rng(7)
    for trial in range(10):
        dim = rng.integers(1, 4)
        k = Kernel(family, rng.uniform(0.3, 2.0, dim), rng.uniform(0.5, 2.0))
        pts = rng.uniform(-3, 3, size=(rng.integers(2, 15), dim))
        gram = k.gram(pts) + 1e-8 * np.eye(pts.shape[0])
        np.linalg.cholesky(gram)  # raises LinAlgError on failure


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Kernel("squared_exponential", [0.0], 1.0)
    with pytest.raises(ValueError):
        Kernel("squared_exponential", [1.0], -1.0)
    with pytest.raises(ValueError):
        Kernel("cubic", [1.0], 1.0)
    for scale in (1e200, float("inf")):  # the prior variance, scale**2, overflows
        with pytest.raises(ValueError, match="output_scale"):
            Kernel("squared_exponential", [1.0], scale)
    # A bool is not a scale, even where it would act as 1.0.
    for scale in (True, np.True_, "1.0", float("nan")):
        with pytest.raises(ValueError, match="output_scale"):
            Kernel("squared_exponential", [1.0], scale)
    for lengthscales in (True, [True], [1.0, True], [float("inf")], [float("nan")], "1"):
        with pytest.raises(ValueError, match="lengthscales"):
            Kernel("squared_exponential", lengthscales, 1.0)


def test_covariance_refuses_an_unknown_family():
    # It used to compute any family but squared_exponential as Matern-5/2.
    with pytest.raises(ValueError, match="unknown kernel family 'bogus', expected one of"):
        covariance("bogus", np.zeros((2, 2)))


def test_zero_dimensions_rejected():
    with pytest.raises(ValueError, match="at least one lengthscale"):
        Kernel("squared_exponential", [], 1.0)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", range(1, 8))
def test_cross_and_gram_match_difference_tensor_bit_for_bit(family, dim):
    # numpy sums fewer than 8 elements in order, as the per-dimension planes are.
    scales, cases = cross_cases(dim, seed=dim)
    kernel = Kernel(family, scales, 1.3)
    for a, b in cases:
        assert np.array_equal(kernel.cross(a, b), tensor_cross(kernel, a, b))
        assert np.array_equal(kernel.gram(a), tensor_gram(kernel, a))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", range(8, 13))
def test_cross_and_gram_match_difference_tensor_beyond_seven_dimensions(family, dim):
    # From 8 elements numpy sums pairwise, so the last bit may differ.
    scales, cases = cross_cases(dim, seed=dim)
    kernel = Kernel(family, scales, 1.3)
    for a, b in cases:
        np.testing.assert_allclose(kernel.cross(a, b), tensor_cross(kernel, a, b), rtol=1e-14, atol=0)
        np.testing.assert_allclose(kernel.gram(a), tensor_gram(kernel, a), rtol=1e-14, atol=0)


def cross_peak_planes(family):
    """Peak traced memory of one ``(100, 10^4)`` cross, in planes of 100 x 10^4 floats."""
    t, grid = 100, Domain([0.0, 0.0], [1.0, 1.0], [100, 100]).grid
    points = np.random.default_rng(5).uniform(0, 1, (t, 2))
    kernel = Kernel(family, [0.1, 0.2], 1.0)
    tracemalloc.start()
    try:
        kernel.cross(points, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (t * len(grid) * 8)


@pytest.mark.parametrize("family, planes", [("squared_exponential", 3.5), ("matern52", 6.5)])
def test_cross_peak_memory_in_lattice_planes(family, planes):
    # An (n, m, d) difference tensor and its square cost 2d planes of n x m
    # floats on top of the covariance's own temporaries.
    assert cross_peak_planes(family) <= planes


def test_matern52_cross_reuses_its_temporaries():
    # sq, r and sqrt5_r are overwritten in place: 4 planes, not 6.
    assert cross_peak_planes("matern52") <= 4.5


def test_squared_exponential_cross_reuses_its_temporaries():
    # sq and one output array overwritten in place: 2 planes, not 3.
    assert cross_peak_planes("squared_exponential") <= 2.5
