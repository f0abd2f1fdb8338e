"""Stationary covariance functions for the surrogate models.

Two families are supported: squared-exponential for smooth targets and
Matern-5/2 for moderately rough ones. Both use per-dimension lengthscales
(ARD) and a scalar output scale ``s`` with prior variance ``s**2``.

Scaled squared distances are built one ``(len(a), len(b))`` plane per
dimension, ``((a_k / s_k) - (b_k / s_k))**2``, and summed in dimension order
k = 0, 1, ...; no ``(len(a), len(b), d)`` difference tensor is formed. For
d <= 7 this is bit for bit what ``np.sum(diff * diff, axis=-1)`` over that
tensor gives, because numpy sums fewer than 8 elements in order. From d = 8
numpy sums pairwise, so the last bit may differ there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import positive_real

__all__ = ["Kernel", "SQUARED_EXPONENTIAL", "MATERN52"]

SQUARED_EXPONENTIAL = "squared_exponential"
MATERN52 = "matern52"
_FAMILIES = (SQUARED_EXPONENTIAL, MATERN52)


@dataclass(frozen=True)
class Kernel:
    family: str
    lengthscales: tuple[float, ...]
    output_scale: float = 1.0

    def __init__(self, family, lengthscales, output_scale=1.0):
        if family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {family!r}, expected one of {_FAMILIES}")
        # Element by element, so that a bool in a list is not made a float first.
        lengthscales = lengthscales if np.ndim(lengthscales) else [lengthscales]
        lengthscales = tuple(positive_real("lengthscales", v) for v in lengthscales)
        if not lengthscales:
            raise ValueError("a kernel needs at least one lengthscale")
        output_scale = positive_real("output_scale", output_scale)
        if not math.isfinite(output_scale * output_scale):
            raise ValueError(f"output_scale must have a finite square (the prior variance), "
                             f"got {output_scale}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "lengthscales", lengthscales)
        object.__setattr__(self, "output_scale", output_scale)

    @property
    def dim(self) -> int:
        return len(self.lengthscales)

    @property
    def prior_variance(self) -> float:
        return self.output_scale**2

    def cross(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Cross-covariance matrix between two point sets, shape ``(len(a), len(b))``."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if a.shape[1] != self.dim or b.shape[1] != self.dim:
            raise ValueError(
                f"points have dims {a.shape[1]}/{b.shape[1]}, kernel has {self.dim}"
            )
        sq = scaled_sq_distances(a, b, self.lengthscales)
        return covariance(self.family, sq, self.prior_variance)

    def gram(self, points: np.ndarray) -> np.ndarray:
        """Gram matrix of a point set, exactly symmetric since ``(a - b)**2 == (b - a)**2``."""
        return self.cross(points, points)


def scaled_sq_distances(a: np.ndarray, b: np.ndarray, scales) -> np.ndarray:
    """Squared distances between the rows of ``a`` and ``b``, axis k divided by ``scales[k]``.

    Shape ``(len(a), len(b))``, summed one plane per dimension in order.
    """
    sq = None
    for k, scale in enumerate(scales):
        plane = np.subtract.outer(a[:, k] / scale, b[:, k] / scale)
        plane *= plane
        if sq is None:
            sq = plane
        else:
            sq += plane
    return sq


def covariance(family: str, sq: np.ndarray, variance: float = 1.0) -> np.ndarray:
    """Covariance at lengthscale-scaled squared distances ``sq``, prior variance ``variance``.

    Overwrites ``sq``, which each caller builds for the call; an SE result
    is ``sq`` itself.
    """
    if family == SQUARED_EXPONENTIAL:
        # variance * exp(-0.5 * sq), in place.
        sq *= -0.5
        np.exp(sq, out=sq)
        sq *= variance
        return sq
    if family != MATERN52:
        raise ValueError(f"unknown kernel family {family!r}, expected one of {_FAMILIES}")
    # Matern-5/2 in terms of the scaled distance r:
    # variance * (1 + sqrt(5) r + (5/3) sq) * exp(-sqrt(5) r), each operation
    # in that order, with two arrays the size of sq alive besides it.
    sqrt5_r = np.maximum(sq, 0.0)
    np.sqrt(sqrt5_r, out=sqrt5_r)
    sqrt5_r *= np.sqrt(5.0)
    out = 1.0 + sqrt5_r
    out += np.multiply(sq, 5.0 / 3.0, out=sq)
    out *= variance
    np.negative(sqrt5_r, out=sqrt5_r)
    out *= np.exp(sqrt5_r, out=sqrt5_r)
    return out
