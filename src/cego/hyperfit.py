"""Kernel hyperparameter estimation by log-marginal-likelihood grid search.

Deliberately gradient-free: candidates live on a fixed log-spaced grid and
the best exact marginal likelihood wins, which makes the procedure
deterministic for a given data set. Lengthscale candidates are expressed as
fractions of the per-dimension domain width; output-scale and noise
candidates scale with the sample standard deviation of the values, so the
same factor grid serves problems of any magnitude.

One fit serves every output of a problem: it takes the ``(t, m)`` matrix of
values observed at the shared points and returns one model per column.

Spectral screen. Every lengthscale candidate is ``f * width``, so the
unit-scale Gram matrix ``U_f`` depends on the points alone, through the
width-scaled squared distances ``S``, and not on the values. One batched
eigendecomposition ``U_f = Q diag(w) Q^T`` per lengthscale factor, made
once per fit for all outputs, then scores every output scale ``s`` and
noise ``lam`` of each output in O(t) (Rasmussen & Williams 2006, §2.3 and
§5.4.1), because ``s^2 U_f + lam I`` has the same eigenvectors::

    log|s^2 U_f + lam I|        = sum_i log(s^2 w_i + lam)
    y^T (s^2 U_f + lam I)^-1 y  = sum_i (q_i^T y)^2 / (s^2 w_i + lam)

Exact confirmation. The screen only ranks; the winner is still decided by
the exact Cholesky likelihood of ``GpModel``. Every candidate whose screened
likelihood, plus ``SCREEN_TOLERANCE`` times the size of the terms it sums,
reaches the best exact likelihood found so far is re-scored exactly, as is
every candidate whose screen is not finite. The exact maximum wins, and an
exact tie goes to the first candidate in ``(lengthscale, scale, noise)``
order, so the result equals that of scoring all candidates exactly. The
confirmation is needed: on 936 fits recorded from Williams-Otto runs the
screen was off by up to 1.5e-9 relative at the best candidate, while the
smallest gap between the best and the second-best candidate was 4.0e-10,
so the screen alone can pick a different winner (it does on one of the
seeded cases in ``tests/test_hyperfit.py``). Those fits confirmed 1.001
candidates out of 180 on average, and never more than 2.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

from .domain import Domain
from .gp import GpModel
from .kernels import SQUARED_EXPONENTIAL, Kernel, covariance, scaled_sq_distances

__all__ = ["fit_hyperparameters", "LENGTHSCALE_FACTORS", "OUTPUT_SCALE_FACTORS", "NOISE_FACTORS"]

LENGTHSCALE_FACTORS = tuple(np.logspace(np.log10(0.02), np.log10(1.0), 12))
OUTPUT_SCALE_FACTORS = (0.5, 1.0, 2.0)
NOISE_FACTORS = (1e-6, 1e-4, 1e-3, 1e-2, 1e-1)

MIN_OBSERVATIONS = 4

# Relative error the screen may make; far above the measured 1.5e-9, and far
# below the gaps that separate most candidates from the best.
SCREEN_TOLERANCE = 1e-6


def candidate_lengthscales(domain: Domain) -> list[tuple[float, ...]]:
    """The lengthscale grid for a domain: shared factor times each width."""
    return [tuple(f * domain.widths) for f in LENGTHSCALE_FACTORS]


def _screen(spectrum, values, value_scale):
    """Approximate log marginal likelihoods of all candidates for one output, and their error bounds.

    ``spectrum`` is the ``eigh`` of the unit-scale Grams, one per lengthscale
    factor. Both arrays are flat in ``(lengthscale, scale, noise)`` order.
    """
    eigvals, eigvecs = spectrum
    proj = np.einsum("fij,i->fj", eigvecs, values) ** 2
    scales = (np.asarray(OUTPUT_SCALE_FACTORS) * value_scale) ** 2
    noises = np.asarray(NOISE_FACTORS) * value_scale**2
    # (lengthscale, scale, noise, eigenvalue)
    denom = scales[None, :, None, None] * eigvals[:, None, None, :] + noises[None, None, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        quad = np.sum(proj[:, None, None, :] / denom, axis=-1)
        logs = np.log(denom)
        constant = 0.5 * len(values) * np.log(2.0 * np.pi)
        lml = -0.5 * quad - 0.5 * np.sum(logs, axis=-1) - constant
        size = 0.5 * np.abs(quad) + 0.5 * np.sum(np.abs(logs), axis=-1) + constant
    return lml.reshape(-1), size.reshape(-1)


def fit_hyperparameters(
    points: np.ndarray,
    values: np.ndarray,
    domain: Domain,
    family: str = SQUARED_EXPONENTIAL,
) -> list[GpModel | None]:
    """Per column of ``values``, the ``GpModel`` whose hyperparameters maximize the exact marginal likelihood.

    ``values`` has shape ``(t, m)``: column ``j`` holds output ``j`` at the
    ``t`` rows of ``points``. Each model is returned as it was confirmed,
    already factorized. Candidates whose output scale has an overflowing
    square or whose Gram matrix fails to factorize are skipped; a column for
    which every candidate fails gets ``None``.

    Requires at least four observations, and finite points and values.
    ``LinAlgError`` from the shared eigendecomposition (no convergence)
    reaches the caller.
    """
    # Copies: the returned models keep these arrays.
    points = np.atleast_2d(np.array(points, dtype=float))
    values = np.array(values, dtype=float)
    if values.ndim != 2 or points.shape[0] != values.shape[0]:
        raise ValueError(
            f"values must be ({points.shape[0]}, n_outputs) for {points.shape[0]} points, "
            f"got shape {values.shape}"
        )
    if points.shape[0] < MIN_OBSERVATIONS:
        raise ValueError(
            f"hyperparameter fitting needs >= {MIN_OBSERVATIONS} observations, "
            f"got {points.shape[0]}"
        )
    if points.shape[1] != domain.dim:
        raise ValueError(f"points have dim {points.shape[1]}, domain has {domain.dim}")
    for name, array in (("points", points), ("values", values)):
        if not np.isfinite(array).all():
            raise ValueError(f"{name} must be finite")

    sq = scaled_sq_distances(points, points, domain.widths)
    factors = np.asarray(LENGTHSCALE_FACTORS)
    spectrum = np.linalg.eigh(covariance(family, sq / (factors**2)[:, None, None]))
    # Rows of the transposed copy: one contiguous array per output.
    return [_confirm(points, column, domain, family, spectrum) for column in values.T.copy()]


def _confirm(points, values, domain, family, spectrum) -> GpModel | None:
    """The exact winner for one output among the candidates its screen cannot rule out."""
    value_scale = max(float(np.std(values)), 1e-8)
    screened, size = _screen(spectrum, values, value_scale)
    # An upper bound on each candidate's exact likelihood; unknown when not finite.
    bound = np.where(np.isfinite(screened), screened + SCREEN_TOLERANCE * size, np.inf)
    lengthscales = candidate_lengthscales(domain)
    grid_shape = (len(lengthscales), len(OUTPUT_SCALE_FACTORS), len(NOISE_FACTORS))
    best: tuple[float, int, GpModel] | None = None
    for index in np.argsort(-bound, kind="stable"):
        if best is not None and bound[index] < best[0]:
            break
        ls_index, scale_index, noise_index = np.unravel_index(index, grid_shape)
        noise_variance = NOISE_FACTORS[noise_index] * value_scale**2
        try:
            kernel = Kernel(
                family, lengthscales[ls_index], OUTPUT_SCALE_FACTORS[scale_index] * value_scale
            )
            model = GpModel(kernel, noise_variance, _X=points, _y=values)
        except (LinAlgError, ValueError):
            continue  # an output scale whose square overflows, or no factorization
        lml = model.log_marginal_likelihood()
        if not np.isfinite(lml):
            continue
        if best is None or (lml, -index) > (best[0], -best[1]):
            best = (lml, index, model)
    return None if best is None else best[2]
