import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cego.kernels import Kernel


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
