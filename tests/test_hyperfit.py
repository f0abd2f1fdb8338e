import numpy as np
import pytest
from scipy.linalg import LinAlgError

from cego.domain import Domain
from cego.gp import GpModel
from cego.hyperfit import (
    LENGTHSCALE_FACTORS,
    NOISE_FACTORS,
    OUTPUT_SCALE_FACTORS,
    candidate_lengthscales,
    fit_hyperparameters,
)
from cego.kernels import MATERN52, SQUARED_EXPONENTIAL, Kernel


def gp_likelihood(points, values, kernel, noise_variance):
    """Independent log-marginal-likelihood computation for the comparison oracle."""
    K = kernel.gram(points) + noise_variance * np.eye(len(values))
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return -0.5 * values @ np.linalg.solve(K, values) - 0.5 * logdet - 0.5 * len(values) * np.log(2 * np.pi)


def test_requires_four_observations():
    domain = Domain([0.0], [10.0], [5])
    with pytest.raises(ValueError):
        fit_hyperparameters(np.zeros((3, 1)), np.zeros((3, 1)), domain)


@pytest.mark.parametrize("name, row, column, bad", [
    ("values", 2, 0, np.nan), ("values", 0, 1, np.inf), ("points", 3, 0, np.inf),
    ("points", 1, 0, np.nan)])
def test_non_finite_input_is_refused(name, row, column, bad):
    # A NaN value returned None for its output, as if no candidate factorized;
    # an infinite point returned None for every output, with a RuntimeWarning.
    rng = np.random.default_rng(3)
    data = {"points": rng.uniform(0, 10, (6, 1)), "values": rng.normal(size=(6, 2))}
    data[name][row, column] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        fit_hyperparameters(data["points"], data["values"], Domain([0.0], [10.0], [5]))


def test_recovers_known_lengthscale_within_grid_cell():
    # Sample a function from a known SE prior (lengthscale 1) and fit.
    rng = np.random.default_rng(2024)
    domain = Domain([0.0], [10.0], [100])
    true_kernel = Kernel("squared_exponential", [1.0], 1.0)
    pts = rng.uniform(0, 10, size=(50, 1))
    cov = true_kernel.gram(pts) + 1e-8 * np.eye(50)
    values = np.linalg.cholesky(cov) @ rng.standard_normal(50)

    kernel = fit_hyperparameters(pts, values[:, None], domain)[0].kernel
    candidates = np.asarray(LENGTHSCALE_FACTORS) * 10.0
    below = candidates[candidates <= 1.0].max()
    above = candidates[candidates >= 1.0].min()
    assert below <= kernel.lengthscales[0] <= above


def test_constant_data_selects_largest_lengthscale():
    rng = np.random.default_rng(5)
    domain = Domain([0.0], [10.0], [50])
    pts = rng.uniform(0, 10, size=(12, 1))
    values = np.full(12, 3.7)
    kernel = fit_hyperparameters(pts, values[:, None], domain)[0].kernel
    assert kernel.lengthscales[0] == pytest.approx(max(LENGTHSCALE_FACTORS) * 10.0)


def test_selected_candidate_maximizes_likelihood():
    # The returned model's likelihood beats perturbed neighbors on the grid.
    rng = np.random.default_rng(17)
    domain = Domain([0.0, 0.0], [5.0, 5.0], [10, 10])
    pts = rng.uniform(0, 5, size=(20, 2))
    values = np.sin(pts[:, 0]) + 0.1 * rng.standard_normal(20)
    (model,) = fit_hyperparameters(pts, values[:, None], domain)
    kernel, noise = model.kernel, model.noise_variance
    best = gp_likelihood(pts, values, kernel, noise)
    assert model.log_marginal_likelihood() == pytest.approx(best)
    for factor in (0.5, 2.0):
        other = Kernel(kernel.family, np.asarray(kernel.lengthscales) * factor, kernel.output_scale)
        assert gp_likelihood(pts, values, other, noise) <= best + 1e-9


def test_deterministic_for_fixed_input():
    rng = np.random.default_rng(3)
    domain = Domain([0.0], [4.0], [10])
    pts = rng.uniform(0, 4, size=(8, 1))
    values = rng.standard_normal(8)
    (first,) = fit_hyperparameters(pts, values[:, None], domain)
    (second,) = fit_hyperparameters(pts, values[:, None], domain)
    assert first.kernel == second.kernel
    assert first.noise_variance == second.noise_variance


def test_fitted_model_usable():
    rng = np.random.default_rng(8)
    domain = Domain([0.0], [4.0], [10])
    pts = rng.uniform(0, 4, size=(10, 1))
    values = np.cos(pts[:, 0])
    (model,) = fit_hyperparameters(pts, values[:, None], domain)
    np.testing.assert_array_equal(model.points, pts)
    np.testing.assert_array_equal(model.values, values)
    (mean,), _ = model.posterior_batch(pts[:1])
    assert mean == pytest.approx(values[0], abs=0.2)


def exhaustive_fit(points, values, domain, family):
    """Score every candidate with the exact likelihood; the first maximum wins."""
    value_scale = max(float(np.std(values)), 1e-8)
    best = None
    for lengthscales in candidate_lengthscales(domain):
        for scale_factor in OUTPUT_SCALE_FACTORS:
            kernel = Kernel(family, lengthscales, scale_factor * value_scale)
            for noise_factor in NOISE_FACTORS:
                noise_variance = noise_factor * value_scale**2
                try:
                    model = GpModel(kernel, noise_variance, _X=points, _y=values)
                except LinAlgError:
                    continue
                lml = model.log_marginal_likelihood()
                if np.isfinite(lml) and (best is None or lml > best[0]):
                    best = (lml, kernel, noise_variance)
    return best[1], best[2]


def random_case(seed):
    """Points and values of one seeded case: dim 1-3, t 4-40, varied shape and scale."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    t = int(rng.integers(4, 41))
    lower = rng.uniform(-5.0, 5.0, size=dim)
    upper = lower + rng.uniform(0.5, 20.0, size=dim)
    domain = Domain(lower, upper, [7] * dim)
    points = rng.uniform(lower, upper, size=(t, dim))
    if seed % 4 == 1:  # duplicated points
        points[t // 2:] = points[: t - t // 2]
    values = np.sin(points @ rng.normal(size=dim)) + 0.05 * rng.standard_normal(t)
    if seed % 5 == 2:  # constant values
        values = np.full(t, rng.normal())
    values = values * (1e-6, 1.0, 1e6)[seed % 3]
    return points, values, domain


@pytest.mark.parametrize("family", [SQUARED_EXPONENTIAL, MATERN52])
@pytest.mark.parametrize("seed", range(40))
def test_spectral_screen_matches_exhaustive_search(family, seed):
    # Without the exact confirmation, the screen alone picks a different
    # candidate for the squared-exponential case of seed 33.
    points, values, domain = random_case(seed)
    (model,) = fit_hyperparameters(points, values[:, None], domain, family)
    expected_kernel, expected_noise = exhaustive_fit(points, values, domain, family)
    assert model.kernel == expected_kernel
    assert model.noise_variance == expected_noise


@pytest.mark.parametrize("family", [SQUARED_EXPONENTIAL, MATERN52])
@pytest.mark.parametrize("seed", [3, 33])
def test_one_fit_for_all_outputs_matches_one_column_fits(family, seed):
    # One eigendecomposition serves every column. A column whose spread
    # overflows leaves every candidate non-finite, so it gets no model.
    points, values, domain = random_case(seed)
    rng = np.random.default_rng(seed)
    columns = np.column_stack([
        values,
        1e3 * np.cos(points @ rng.normal(size=domain.dim)),
        np.full(len(values), 2.5),
        1e160 * rng.normal(size=len(values)),
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        fitted = fit_hyperparameters(points, columns, domain, family)
        alone = [fit_hyperparameters(points, columns[:, [j]], domain, family)[0]
                 for j in range(columns.shape[1])]
    assert len(fitted) == columns.shape[1]
    assert fitted[-1] is None and alone[-1] is None
    for model, single, column in zip(fitted[:-1], alone[:-1], columns.T):
        np.testing.assert_array_equal(model.values, column)
        assert model.kernel == single.kernel
        assert model.noise_variance == single.noise_variance
        assert model.log_marginal_likelihood() == single.log_marginal_likelihood()


def test_unknown_family_is_refused():
    # It used to fit no candidate, [None, None], as if none had factorized.
    domain = Domain([0.0], [10.0], [20])
    points = np.linspace(0.0, 10.0, 6)[:, None]
    with pytest.raises(ValueError, match="unknown kernel family 'bogus'"):
        fit_hyperparameters(points, np.column_stack([np.sin(points[:, 0]), points[:, 0]]),
                            domain, family="bogus")


def test_values_must_be_one_column_per_output():
    domain = Domain([0.0], [1.0], [5])
    with pytest.raises(ValueError, match="n_outputs"):
        fit_hyperparameters(np.zeros((6, 1)), np.zeros(6), domain)
