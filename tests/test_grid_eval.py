import numpy as np
import pytest

from cego.domain import Domain
from cego.gp import GpModel
from cego.kernels import Kernel
from cego.policies import BetaSchedule, evaluate_grid

from conftest import random_model


def test_empty_models_give_prior_everywhere():
    domain = Domain([0.0, 0.0], [1.0, 1.0], [2, 2])
    kernel = Kernel("squared_exponential", [1.0, 1.0], 1.0)
    ev = evaluate_grid([GpModel(kernel, 0.01), GpModel(kernel, 0.01)], 2.0, domain)
    np.testing.assert_array_equal(ev.means, 0.0)
    np.testing.assert_allclose(ev.sigmas, 1.0)
    np.testing.assert_allclose(ev.lcb, -2.0)
    np.testing.assert_allclose(ev.ucb, 2.0)


def test_batched_matches_scalar_path():
    rng = np.random.default_rng(13)
    domain = Domain([-1.0, -1.0], [1.0, 1.0], [7, 5])
    kernel = Kernel("matern52", [0.8, 1.1], 1.2)
    model = random_model(rng, kernel, 1e-3, 10, lo=-1, hi=1)
    ev = evaluate_grid([model], 1.7, domain)
    for idx in range(domain.grid_size):
        (mean,), (var,) = model.posterior_batch([domain.point(idx)])
        assert abs(ev.means[0, idx] - mean) <= 1e-12
        assert abs(ev.sigmas[0, idx] - np.sqrt(var)) <= 1e-12


def test_grid_ordering_convention():
    domain = Domain([0.0, 0.0], [1.0, 2.0], [2, 3])
    np.testing.assert_array_equal(domain.point(0), [0.0, 0.0])
    np.testing.assert_array_equal(domain.point(domain.grid_size - 1), [1.0, 2.0])
    # Row-major: the last coordinate varies fastest.
    np.testing.assert_array_equal(domain.point(1), [0.0, 1.0])


def test_beta_broadcasting_and_validation():
    # One beta_sqrt weighs every model's sigma.
    domain = Domain([0.0], [1.0], [3])
    models = [GpModel(Kernel("squared_exponential", [1.0], scale), 0.01) for scale in (1.0, 2.0)]
    ev = evaluate_grid(models, 1.5, domain)
    np.testing.assert_allclose(ev.lcb[0], -1.5)
    np.testing.assert_allclose(ev.lcb[1], -3.0)
    # A step's beta comes from its schedule, which refuses a bad one.
    for beta in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            BetaSchedule(value=beta)
