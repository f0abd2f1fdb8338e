import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cego.domain import Domain, as_point


def test_validation():
    with pytest.raises(ValueError):
        Domain([0.0], [0.0], [2])
    with pytest.raises(ValueError):
        Domain([0.0], [1.0], [1])
    with pytest.raises(ValueError):
        Domain([0.0, 0.0], [1.0], [2, 2])
    with pytest.raises(ValueError, match="at least one dimension"):
        Domain([], [], [])


def test_corners_on_lattice():
    d = Domain([-1.0, 2.0], [1.0, 4.0], [3, 5])
    np.testing.assert_array_equal(d.point(0), [-1.0, 2.0])
    np.testing.assert_array_equal(d.point(d.grid_size - 1), [1.0, 4.0])


@given(st.integers(0, 11))
def test_index_round_trip(idx):
    d = Domain([0.0, -1.0], [2.0, 1.0], [3, 4])
    assert d.nearest_index(d.point(idx)) == idx


def test_nearest_index_snaps():
    d = Domain([0.0], [1.0], [5])  # lattice 0, .25, .5, .75, 1
    assert d.nearest_index([0.3]) == 1
    assert d.nearest_index([0.4]) == 2


def test_contains():
    d = Domain([0.0, 0.0], [1.0, 1.0], [2, 2])
    assert d.contains([0.5, 0.5])
    assert not d.contains([1.5, 0.5])
    assert not d.contains([0.5])
    rows = [[0.5, 0.5], [1.5, 0.5], [np.nan, 0.5], [1.0, 0.0]]
    np.testing.assert_array_equal(d.contains(rows), [True, False, False, True])


def test_as_point_rejects_non_finite():
    with pytest.raises(ValueError):
        as_point([np.nan])
    with pytest.raises(ValueError):
        as_point([[0.0, 1.0], [2.0, 3.0]])


def test_grid_is_read_only():
    d = Domain([0.0], [1.0], [3])
    with pytest.raises(ValueError):
        d.grid[0, 0] = 5.0
