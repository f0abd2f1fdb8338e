"""Box search spaces discretized on a rectangular lattice.

Every acquisition policy in this package optimizes its surrogate score by
exhaustive evaluation over the lattice, so the grid ordering is part of the
public contract: points are enumerated in row-major order (last coordinate
varies fastest), index 0 is the lower corner and the last index is the upper
corner. Deterministic tie-breaking everywhere else in the package relies on
this ordering being stable. That array is also the one lattice a GP
posterior caches (``cego.gp``): :func:`grid_axes` names its axes, so the
tensor structure of a lattice is stated here, where the lattice is built.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np

__all__ = ["Domain", "as_point", "finite_real", "grid_axes", "positive_real", "int_at_least"]

# The axes of each live Domain.grid array, by the array's id, beside a weak
# reference to it whose callback drops the entry when the array is collected.
_GRID_AXES: dict[int, tuple[weakref.ref, tuple[np.ndarray, ...]]] = {}


def grid_axes(points) -> tuple[np.ndarray, ...] | None:
    """``Domain.axes`` of the domain whose ``grid`` is ``points``, or None for any other object.

    Only the array ``Domain.grid`` returned answers: a copy, a view, a slice
    or a permutation of it is another object and gets None.
    """
    entry = _GRID_AXES.get(id(points))
    return None if entry is None else entry[1]


def _is_real(value) -> bool:
    """A real number and not a bool (a bool is an int; ``np.bool_`` is no ``Real``)."""
    return isinstance(value, Real) and not isinstance(value, bool)


def finite_real(what: str, value, minimum: float = -math.inf) -> float:
    """``value`` as a float; ``ValueError`` unless it is a finite real ``>= minimum``."""
    if not (_is_real(value) and math.isfinite(value) and value >= minimum):
        at_least = "" if minimum == -math.inf else f" >= {minimum}"
        raise ValueError(f"{what} must be a finite number{at_least}, got {value!r}")
    return float(value)


def positive_real(what: str, value) -> float:
    """``value`` as a float; ``ValueError`` unless it is a finite real ``> 0``."""
    if not (_is_real(value) and math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be a finite positive number, got {value!r}")
    return float(value)


def int_at_least(what: str, value, minimum: int) -> int:
    """``value``; ``ValueError`` unless it is a Python int ``>= minimum`` (no bool or numpy int)."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{what} must be an int >= {minimum}, got {value!r}")
    return value


def as_point(theta) -> np.ndarray:
    """Coerce a parameter vector to a 1-D float array and validate finiteness."""
    point = np.atleast_1d(np.asarray(theta, dtype=float))
    if point.ndim != 1:
        raise ValueError(f"parameter vector must be 1-D, got shape {point.shape}")
    if not np.all(np.isfinite(point)):
        raise ValueError(f"parameter vector has non-finite entries: {point}")
    return point


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box with a per-dimension grid resolution.

    Parameters
    ----------
    lower, upper:
        Box corners, one entry per dimension, ``lower[d] < upper[d]``.
    grid_counts:
        Number of lattice points per dimension, each at least 2 so the
        corners are always on the lattice.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    grid_counts: tuple[int, ...]

    def __init__(self, lower, upper, grid_counts):
        lower = tuple(finite_real("lower", v) for v in _entries(lower))
        upper = tuple(finite_real("upper", v) for v in _entries(upper))
        grid_counts = tuple(int_at_least("grid_counts", c, 2) for c in _entries(grid_counts))
        if not len(lower) == len(upper) == len(grid_counts):
            raise ValueError("lower, upper and grid_counts must have equal length")
        if not lower:
            raise ValueError("a domain needs at least one dimension")
        if any(lo >= hi for lo, hi in zip(lower, upper)):
            raise ValueError(f"need lower < upper per dimension, got {lower} / {upper}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "grid_counts", grid_counts)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def grid_size(self) -> int:
        return math.prod(self.grid_counts)

    @cached_property
    def widths(self) -> np.ndarray:
        """Per-dimension box width ``upper - lower``."""
        widths = np.subtract(self.upper, self.lower)
        widths.setflags(write=False)
        return widths

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Per-dimension lattice coordinates (inclusive of both corners), read-only."""
        axes = tuple(
            np.linspace(lo, hi, n)
            for lo, hi, n in zip(self.lower, self.upper, self.grid_counts)
        )
        for axis in axes:
            axis.setflags(write=False)
        return axes

    @cached_property
    def grid(self) -> np.ndarray:
        """All lattice points as a ``(grid_size, dim)`` array, row-major order.

        The array is read-only, and :func:`grid_axes` names its axes for as
        long as it lives, past the domain's own life.
        """
        mesh = np.meshgrid(*self.axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        pts.setflags(write=False)
        key = id(pts)
        _GRID_AXES[key] = (weakref.ref(pts, lambda _, key=key: _GRID_AXES.pop(key)), self.axes)
        return pts

    def point(self, index: int) -> np.ndarray:
        """Lattice point for a linear index."""
        if not 0 <= index < self.grid_size:
            raise IndexError(f"grid index {index} out of range [0, {self.grid_size})")
        return self.grid[index].copy()

    def nearest_index(self, theta) -> int:
        """Linear index of the lattice point closest to ``theta``, a point of the closed box."""
        theta = as_point(theta)
        if theta.shape[0] != self.dim:
            raise ValueError(f"point has dim {theta.shape[0]}, domain has {self.dim}")
        if not self.contains(theta):
            raise ValueError(f"point {theta} lies outside the box {self.lower} / {self.upper}")
        index = 0
        for d, (axis, count) in enumerate(zip(self.axes, self.grid_counts)):
            index = index * count + int(np.argmin(np.abs(axis - theta[d])))
        return index

    def contains(self, points) -> np.ndarray:
        """Whether a point, or each row of an ``(n, dim)`` array, lies in the closed box.

        Points of the wrong dimension and non-finite points are outside.
        """
        points = np.asarray(points, dtype=float)
        if points.shape[-1] != self.dim:
            return np.zeros(points.shape[:-1], dtype=bool)
        inside = (points >= np.asarray(self.lower)) & (points <= np.asarray(self.upper))
        return np.all(inside, axis=-1)

    def sample_index(self, rng: np.random.Generator) -> int:
        """Uniform lattice index draw."""
        return int(rng.integers(self.grid_size))


def _entries(values) -> list:
    """The entries of a scalar, a list, a tuple or an array, as Python objects."""
    if isinstance(values, np.ndarray):
        values = values.tolist()  # numpy scalars become Python floats and ints
    return list(values) if isinstance(values, (list, tuple)) else [values]
