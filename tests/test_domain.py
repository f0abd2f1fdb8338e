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


@pytest.mark.parametrize(
    "lower, upper, counts, setting",
    [([0.0, 0.0], [1.0, 1.0], [10.5, 3], "grid_counts"),
     ([0.0], [1.0], [True], "grid_counts"),
     ([0.0], [1.0], [np.int64(3)], "grid_counts"),
     ([False, 0.0], [1.0, 1.0], [3, 3], "lower"),
     ([0.0], [np.nan], [3], "upper"),
     ([-np.inf], [1.0], [3], "lower"),
     ([0.0], ["1"], [3], "upper")],
    ids=["count-fraction", "count-bool", "count-numpy-int", "bound-bool", "bound-nan",
         "bound-inf", "bound-text"],
)
def test_mistyped_bounds_and_counts_rejected(lower, upper, counts, setting):
    # A fraction was truncated (10.5 became 10 points) and a bool or text bound converted.
    with pytest.raises(ValueError, match=setting):
        Domain(lower, upper, counts)


def test_corners_on_lattice():
    d = Domain([-1.0, 2.0], [1.0, 4.0], [3, 5])
    np.testing.assert_array_equal(d.point(0), [-1.0, 2.0])
    np.testing.assert_array_equal(d.point(d.grid_size - 1), [1.0, 4.0])


@pytest.mark.parametrize("index", [-1, 12])
def test_point_refuses_an_index_outside_the_lattice(index):
    d = Domain([0.0, -1.0], [2.0, 1.0], [3, 4])
    with pytest.raises(IndexError, match=rf"grid index {index} out of range \[0, 12\)"):
        d.point(index)


@given(st.integers(0, 11))
def test_index_round_trip(idx):
    d = Domain([0.0, -1.0], [2.0, 1.0], [3, 4])
    assert d.nearest_index(d.point(idx)) == idx


def test_nearest_index_snaps():
    d = Domain([0.0], [1.0], [5])  # lattice 0, .25, .5, .75, 1
    assert d.nearest_index([0.3]) == 1
    assert d.nearest_index([0.4]) == 2


def test_nearest_index_refuses_points_outside_the_box():
    # It used to snap (100, 100) to the corner (1, 1); the closed box's edge is inside.
    d = Domain([0.0, 0.0], [1.0, 1.0], [3, 3])
    assert d.nearest_index([1.0, 0.0]) == 6
    for outside in ([100.0, 100.0], [0.5, -1e-9]):
        with pytest.raises(ValueError, match="outside the box"):
            d.nearest_index(outside)


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


def test_axes_are_read_only():
    # A write would move nearest_index, the lattice itself and the SE factor
    # rows of every GP that caches the grid.
    d = Domain([0.0, 0.0], [1.0, 1.0], [3, 4])
    for axis in d.axes:
        with pytest.raises(ValueError):
            axis[0] = 9.0
    assert d.nearest_index([0.0, 0.0]) == 0
    assert np.array_equal(d.grid[0], [0.0, 0.0])
