import gc
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from cego import domain as domain_module
from cego import gp
from cego.domain import Domain, grid_axes
from cego.gp import GpModel, empty_models
from cego.hyperfit import fit_hyperparameters
from cego.kernels import Kernel
from cego.policies import AlgorithmState, evaluate_grid, observe

from conftest import random_model


def dense_posterior(model, query):
    """Direct dense-inverse evaluation of the posterior formulas (oracle)."""
    X, y = model.points, model.values
    k = model.kernel
    K = k.gram(X) + model.noise_variance * np.eye(len(y))
    K_inv = np.linalg.inv(K)
    kx = k.cross(X, np.atleast_2d(query))[:, 0]
    mean = kx @ K_inv @ y
    var = k.prior_variance - kx @ K_inv @ kx
    return mean, var


def test_empty_model_returns_prior():
    model = GpModel(Kernel("squared_exponential", [1.0], 1.0), 0.01)
    (mean,), (var,) = model.posterior_batch([[0.3]])
    assert mean == 0.0
    assert var == pytest.approx(1.0, rel=1e-12)


def test_single_observation_closed_form():
    # One observation y=1 at the query point: mean k/(k+lam), var k*lam/(k+lam).
    model = GpModel(Kernel("squared_exponential", [1.0], 1.0), 0.01).add([0.0], 1.0)
    (mean,), (var,) = model.posterior_batch([[0.0]])
    assert mean == pytest.approx(1.0 / 1.01, rel=1e-12)
    assert var == pytest.approx(1.0 - 1.0 / 1.01, rel=1e-10)


def test_near_noiseless_interpolation():
    rng = np.random.default_rng(0)
    kernel = Kernel("squared_exponential", [1.0, 1.0], 1.0)
    model = GpModel(kernel, 1e-8)
    pts = rng.uniform(-2, 2, size=(6, 2))
    vals = rng.normal(size=6)
    for p, v in zip(pts, vals):
        model = model.add(p, v)
    for p, v in zip(pts, vals):
        (mean,), _ = model.posterior_batch([p])
        assert mean == pytest.approx(v, abs=1e-3)


def test_variance_after_five_points_near_noise_floor():
    rng = np.random.default_rng(3)
    model = random_model(rng, Kernel("squared_exponential", [1.0], 1.0), 0.01, 5)
    for p in model.points:
        _, (var,) = model.posterior_batch([p])
        assert var <= 0.01 * 1.01


def test_rank_one_variance_drop():
    lam, prior = 0.01, 1.0
    model = GpModel(Kernel("squared_exponential", [1.0], 1.0), lam).add([0.4], 2.0)
    _, (var,) = model.posterior_batch([[0.4]])
    assert var == pytest.approx(prior * lam / (prior + lam), rel=1e-10)


def test_repeated_observation_shrinks_mean_toward_value():
    model = GpModel(Kernel("squared_exponential", [1.0], 1.0), 0.1)
    model1 = model.add([0.0], 1.0)
    model2 = model1.add([0.0], 1.0)
    (m1,), _ = model1.posterior_batch([[0.0]])
    (m2,), _ = model2.posterior_batch([[0.0]])
    assert abs(1.0 - m2) < abs(1.0 - m1)


def test_posterior_matches_dense_inverse_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        family = rng.choice(["squared_exponential", "matern52"])
        kernel = Kernel(family, rng.uniform(0.3, 2.0, dim), rng.uniform(0.5, 2.0))
        model = random_model(rng, kernel, 10 ** rng.uniform(-4, -1), int(rng.integers(1, 51)))
        for _ in range(5):
            q = rng.uniform(-2, 2, dim)
            (mean,), (var,) = model.posterior_batch([q])
            mean_ref, var_ref = dense_posterior(model, q)
            assert mean == pytest.approx(mean_ref, rel=1e-8, abs=1e-10)
            assert var == pytest.approx(var_ref, rel=1e-8, abs=1e-10)


def test_variance_never_exceeds_prior():
    rng = np.random.default_rng(5)
    kernel = Kernel("matern52", [0.8, 1.2], 1.4)
    model = random_model(rng, kernel, 1e-3, 25)
    queries = rng.uniform(-2, 2, size=(200, 2))
    _, variances = model.posterior_batch(queries)
    assert np.all(variances <= kernel.prior_variance + 1e-9)


def test_variance_monotone_under_new_observations():
    rng = np.random.default_rng(11)
    kernel = Kernel("squared_exponential", [0.7], 1.0)
    domain = Domain([-2.0], [2.0], [50])
    model = GpModel(kernel, 1e-3)
    _, var_prev = model.posterior_batch(domain.grid)
    for _ in range(15):
        model = model.add(rng.uniform(-2, 2, 1), rng.normal())
        _, var = model.posterior_batch(domain.grid)
        assert np.all(var <= var_prev + 1e-9)
        var_prev = var


def test_observation_order_irrelevant():
    rng = np.random.default_rng(9)
    kernel = Kernel("squared_exponential", [1.0, 1.0], 1.0)
    pts = rng.uniform(-2, 2, size=(12, 2))
    vals = rng.normal(size=12)
    forward = GpModel(kernel, 1e-2)
    backward = GpModel(kernel, 1e-2)
    for p, v in zip(pts, vals):
        forward = forward.add(p, v)
    for p, v in zip(pts[::-1], vals[::-1]):
        backward = backward.add(p, v)
    queries = rng.uniform(-2, 2, size=(30, 2))
    mf, vf = forward.posterior_batch(queries)
    mb, vb = backward.posterior_batch(queries)
    np.testing.assert_allclose(mf, mb, rtol=0, atol=1e-10)
    np.testing.assert_allclose(vf, vb, rtol=0, atol=1e-10)


def test_cached_factorization_reproduces_gram():
    # The log marginal likelihood reads the cached factor (its diagonal and
    # the solve behind alpha); compare it with a dense evaluation of the Gram.
    rng = np.random.default_rng(21)
    kernel = Kernel("squared_exponential", [1.0], 1.0)
    model = random_model(rng, kernel, 1e-2, 10)
    gram = kernel.gram(model.points) + model.noise_variance * np.eye(10)
    y = model.values
    _, log_det = np.linalg.slogdet(gram)
    dense = -0.5 * y @ np.linalg.solve(gram, y) - 0.5 * log_det - 5.0 * np.log(2.0 * np.pi)
    assert model.log_marginal_likelihood() == pytest.approx(dense, rel=1e-10)


def lattice_bounds(model, beta, lower=-1.0, upper=1.0, count=9):
    """``evaluate_grid`` and the posterior of one model on a 1-D lattice."""
    domain = Domain([lower], [upper], [count])
    ev = evaluate_grid([model], beta, domain)
    mean, var = model.posterior_batch(domain.grid.copy())
    return ev, mean, var


def test_lcb_ucb_identities():
    rng = np.random.default_rng(2)
    model = random_model(rng, Kernel("squared_exponential", [1.0], 1.0), 1e-2, 4)
    ev, mean, var = lattice_bounds(model, 0.0)
    np.testing.assert_allclose(ev.lcb[0], mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(ev.ucb[0], mean, rtol=1e-12, atol=1e-12)
    for beta in (0.5, 1.0, 2.0):
        ev, mean, var = lattice_bounds(model, beta)
        lcb, ucb = ev.lcb[0], ev.ucb[0]
        assert np.all(lcb <= mean) and np.all(mean <= ucb)
        np.testing.assert_allclose(ucb - lcb, 2 * beta * np.sqrt(var), rtol=1e-12)


def test_prior_bounds_without_data():
    model = GpModel(Kernel("squared_exponential", [1.0], 1.0), 1e-2)
    ev, _, _ = lattice_bounds(model, 2.0)
    np.testing.assert_allclose(ev.lcb[0], -2.0)
    np.testing.assert_allclose(ev.ucb[0], 2.0)


def test_single_observation_lcb_composition():
    model = GpModel(Kernel("squared_exponential", [1.0], 1.0), 0.01).add([0.0], 1.0)
    ev, _, _ = lattice_bounds(model, 1.0)  # lattice index 4 is the observed point 0.0
    (mean,), (var,) = model.posterior_batch([[0.0]])
    assert ev.lcb[0, 4] == pytest.approx(mean - np.sqrt(var), rel=1e-12)
    assert ev.lcb[0, 4] == pytest.approx(1 / 1.01 - np.sqrt(1 - 1 / 1.01), rel=1e-6)


def test_observation_validates_finiteness():
    model = GpModel(Kernel("squared_exponential", [1.0], 1.0), 0.01)
    with pytest.raises(ValueError):
        model.add([0.0], np.nan)
    with pytest.raises(ValueError):
        model.add([np.inf], 1.0)


@pytest.mark.parametrize("value", [True, "1.0", None, np.array([1.0, 2.0])])
def test_observation_value_must_be_a_finite_real(value):
    # True ran as 1.0; the others raised numpy's TypeError, or its ValueError
    # on the truth value of an array.
    model = GpModel(Kernel("squared_exponential", [1.0], 1.0), 0.01)
    with pytest.raises(ValueError, match="observation value must be a finite number"):
        model.add([0.0], value)


def test_add_checks_the_dimension_of_its_point():
    model = GpModel(Kernel("squared_exponential", [1.0], 1.0), 0.01)
    with pytest.raises(ValueError, match="point has dim 2, model has 1"):
        model.add([0.0, 0.0], 1.0)


@pytest.mark.parametrize("noise", [0.0, -1e-3, np.nan, np.inf, 1e400, True, "0.01"])
def test_noise_variance_must_be_a_finite_positive_real(noise):
    # True ran as 1.0, and an infinite noise failed every replication mid-run.
    with pytest.raises(ValueError, match="noise_variance"):
        GpModel(Kernel("squared_exponential", [1.0], 1.0), noise)


def test_ill_conditioned_factorization_signalled():
    # Duplicate points with essentially no noise make K + lam*I singular.
    import scipy.linalg

    model = GpModel(Kernel("squared_exponential", [1.0], 1.0), 1e-300)
    model = model.add([0.0], 1.0)
    with pytest.raises(scipy.linalg.LinAlgError):
        model.add([0.0], 1.0)


@pytest.mark.parametrize("family", ["squared_exponential", "matern52"])
@pytest.mark.parametrize("dim", range(1, 10))
def test_bordered_gram_equals_gram_from_scratch(family, dim):
    # Each add borders its parent's Gram with one kernel row; a repeated
    # point takes the same path.
    rng = np.random.default_rng(100 + dim)
    kernel = Kernel(family, rng.uniform(0.2, 2.0, dim), rng.uniform(0.5, 50.0))
    chain = [GpModel(kernel, 1e-3)]
    for t in range(25):
        point = chain[-1].points[rng.integers(t)] if t % 6 == 5 else rng.uniform(-2, 2, dim)
        chain.append(chain[-1].add(point, rng.normal()))
    for model in chain[1:]:
        gram = kernel.gram(model.points)
        # Exactly symmetric as built: each plane's (a - b)**2 equals (b - a)**2.
        assert np.array_equal(gram, gram.T)
        assert np.array_equal(model._cov.gram, gram)


@pytest.mark.parametrize("t", [1, 5, 30, 100, 300])
def test_direct_lapack_calls_match_scipy_wrappers(t):
    rng = np.random.default_rng(t)
    gram = Kernel("matern52", [0.7, 0.7], 1.3).gram(rng.uniform(-2, 2, (t, 2)))
    chol = gp._factor(gram, 1e-4)
    expected = scipy.linalg.cholesky(gram + 1e-4 * np.eye(t), lower=True)
    assert np.array_equal(chol, expected)
    assert chol.flags.f_contiguous == expected.flags.f_contiguous
    for b in (rng.normal(size=t), rng.normal(size=(t, 40))):
        for got, want in (
            (gp._solve_lower(chol, b), scipy.linalg.solve_triangular(expected, b, lower=True)),
            (gp._solve_gram(chol, b), scipy.linalg.cho_solve((expected, True), b)),
        ):
            assert np.array_equal(got, want)
            assert got.flags.f_contiguous == want.flags.f_contiguous


def test_non_positive_definite_gram_raises():
    with pytest.raises(scipy.linalg.LinAlgError):
        gp._factor(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.0)


def test_add_returns_new_model():
    base = GpModel(Kernel("squared_exponential", [1.0], 1.0), 0.01)
    grown = base.add([0.0], 1.0)
    assert base.n_observations == 0
    assert grown.n_observations == 1


# -- lattice cache: incremental vs fresh posterior -----------------------------


def assert_posteriors_close(actual, expected):
    # Criterion 1's tolerance: 1e-8 relative with a 1e-9 absolute floor.
    for got, want in zip(actual, expected):
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-9)


def fresh_lattice_posterior(model, domain):
    """Uncached posterior: a writeable copy of the lattice never hits the cache."""
    return model.posterior_batch(domain.grid.copy())


def random_instance(rng):
    dim = int(rng.integers(1, 4))
    family = rng.choice(["squared_exponential", "matern52"])
    kernel = Kernel(family, rng.uniform(0.3, 2.0, dim), rng.uniform(0.5, 2.0))
    side = int(round(600 ** (1 / dim)))
    domain = Domain([-2.0] * dim, [2.0] * dim, [side] * dim)
    return GpModel(kernel, 10 ** rng.uniform(-4, -1)), domain


def test_incremental_lattice_posterior_matches_fresh():
    rng = np.random.default_rng(17)
    for _ in range(8):
        model, domain = random_instance(rng)
        for _ in range(int(rng.integers(1, 61))):
            model = model.add(rng.uniform(-2, 2, domain.dim), rng.normal())
            assert_posteriors_close(
                model.posterior_batch(domain.grid), fresh_lattice_posterior(model, domain)
            )


def part_with_rows(t, width, store, seed=0):
    """A Matern-5/2 part on ``t`` inputs whose cache keeps arbitrary whole rows in ``store``."""
    rng = np.random.default_rng(seed)
    part = gp._Covariance(Kernel("matern52", [0.5, 0.5]), 1e-3,
                          rng.uniform(-1, 1, (t, 2)))
    lattice = rng.uniform(-1, 1, (width, 2))
    lattice.flags.writeable = False
    store[:t] = rng.normal(size=(t, width))
    part.rows, part.var, part.lattice = store, rng.uniform(1.0, 2.0, width), lattice
    return part


def extension_row(parent, child):
    """``k_row = k(x_t, lattice)`` and ``(k_row - w^T rows) / d`` for extending ``parent``.

    With ``w = L^{-T} l``. The child appends ``k_row`` to its kernel rows,
    and its members' means and its variance take the other row.
    """
    t = parent.X.shape[0]
    k_row = parent.kernel.cross(child.X[t:], parent.lattice)[0]
    w = scipy.linalg.solve_triangular(parent.chol, child.chol[t, :t], lower=True, trans=1)
    return k_row, (k_row - w @ parent.rows[:t]) / child.chol[t, t]


@pytest.mark.parametrize("t, capacity", [(3, 40), (40, 0)], ids=["capacity", "doubling"])
def test_lattice_rows_extend_in_place_once_while_there_is_room(t, capacity):
    width = 5
    rng = np.random.default_rng(t)
    parent = part_with_rows(t, width, gp._row_store(t, width, capacity))
    assert parent.rows.shape == (max(capacity, 2 * t), width)
    first = parent.extend(rng.uniform(-1, 1, 2))
    k_row, row = extension_row(parent, first)
    assert first.rows is parent.rows and first.lattice is parent.lattice
    assert np.array_equal(first.rows[t], k_row) and np.array_equal(first.row, row)
    assert np.array_equal(first.var, parent.var - row * row)
    # A child past the end of its parent's mapping doubles it.
    full = part_with_rows(t, width, gp._mapped_rows(t, width))
    child = full.extend(rng.uniform(-1, 1, 2))
    assert child.rows is not full.rows
    assert child.rows.shape == (2 * t, width)
    assert np.array_equal(child.rows[:t], full.rows[:t])
    k_row, row = extension_row(full, child)
    assert np.array_equal(child.rows[t], k_row) and np.array_equal(child.row, row)


def test_concurrent_extensions_of_one_parent_get_one_in_place():
    # A check and a set of the child that were not atomic would let two
    # children write row t of one mapping, and one would read the other's row.
    t, width, workers = 4, 3, 8
    points = np.random.default_rng(5).uniform(-1, 1, (workers, 2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            distinct = round_ % 2 == 0
            parent = part_with_rows(t, width, gp._row_store(t, width))
            values = parent.rows[:t].copy()
            barrier = threading.Barrier(workers)

            def extend(i):
                barrier.wait(timeout=10)
                try:
                    return parent.extend(points[i] if distinct else points[0])
                except ValueError:
                    return None

            with ThreadPoolExecutor(workers) as pool:
                children = list(pool.map(extend, range(workers), timeout=30))
            # Distinct points: one child and 7 refusals. One point: one child for all.
            made = [child for child in children if child is not None]
            assert len(made) == (1 if distinct else workers)
            assert all(child is parent.child for child in made)
            assert parent.child.rows is parent.rows
            assert np.array_equal(parent.rows[:t], values)
            k_row, row = extension_row(parent, parent.child)
            assert np.array_equal(parent.rows[t], k_row)
            assert np.array_equal(parent.child.row, row)
    finally:
        sys.setswitchinterval(interval)


def test_row_store_caps_the_rows_reserved_for_capacity(monkeypatch):
    # 1 GiB of 10^4-float rows; at a budget of 10^6 the whole capacity is 80 GB.
    assert gp._row_store(1, 10_000, capacity=10**6).shape == (13_421, 10_000)
    monkeypatch.setattr(gp, "_RESERVE_BYTES", 800)  # 10 rows of 10 floats
    assert gp._row_store(3, 10, capacity=100).shape == (10, 10)
    assert gp._row_store(8, 10, capacity=100).shape == (16, 10)  # 2 t is not capped
    assert gp._row_store(3, 10, capacity=4).shape == (6, 10)


# A model without a capacity maps 2 rows at t = 1 and doubles them when full;
# at t = 16 the child is extended past the end of the mapping.
@pytest.mark.parametrize("t, mapped", [(10, 16), (16, 16), (17, 32)],
                         ids=["room", "full-mapping", "after-growth"])
def test_branching_adds_leave_parent_posterior_unchanged(t, mapped):
    rng = np.random.default_rng(23)
    model, domain = random_instance(rng)
    for _ in range(t):
        model = model.add(rng.uniform(-2, 2, domain.dim), rng.normal())
        model.posterior_batch(domain.grid)  # the cache starts at t = 1 and grows with it
    assert model._cov.rows.shape[0] == mapped
    parent = model.posterior_batch(domain.grid)
    child = model.add(rng.uniform(-2, 2, domain.dim), rng.normal())
    child.posterior_batch(domain.grid)
    grandchild = child.add(rng.uniform(-2, 2, domain.dim), rng.normal())
    for before, after in zip(parent, model.posterior_batch(domain.grid)):
        np.testing.assert_array_equal(before, after)
    for later in (child, grandchild):
        assert_posteriors_close(
            later.posterior_batch(domain.grid), fresh_lattice_posterior(later, domain)
        )


def test_a_part_is_extended_once_and_refuses_another_point():
    # SE factor rows (12 + 12 floats) and whole kernel rows (12 x 12) alike.
    for family, width in (("squared_exponential", 12 + 12), ("matern52", 12 * 12)):
        check_part_extended_once(Kernel(family, [0.6, 0.6]), width)


def check_part_extended_once(kernel, width):
    # Capacity 0: the group's mapping has 4 rows at t = 3, room for one more.
    rng = np.random.default_rng(47)
    domain = Domain([-2.0, -2.0], [2.0, 2.0], [12, 12])
    first, second = empty_models([(kernel, 1e-3)] * 2)
    for _ in range(3):
        point = rng.uniform(-2, 2, 2)
        first, second = first.add(point, rng.normal()), second.add(point, rng.normal())
        first.posterior_batch(domain.grid)
    t = first.n_observations
    assert first._cov.rows.shape == (t + 1, width)
    point = rng.uniform(-2, 2, 2)
    child = first.add(point, 1.0)
    assert second.add(point.copy(), 2.0)._cov is child._cov
    before, rows = first.posterior_batch(domain.grid), first._cov.rows[:t + 1].copy()
    with pytest.raises(ValueError, match="extended at most once"):
        first.add(rng.uniform(-2, 2, 2), 1.0)
    for got, want in zip(first.posterior_batch(domain.grid), before):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(first._cov.rows[:t + 1], rows)
    # The child's mapping is full: its own child grows it.
    grandchild = child.add(rng.uniform(-2, 2, 2), 0.5)
    assert grandchild._cov.rows is not child._cov.rows
    assert grandchild._cov.rows.shape[0] == 2 * (t + 1)
    assert_posteriors_close(
        grandchild.posterior_batch(domain.grid), fresh_lattice_posterior(grandchild, domain)
    )


# -- separable SE update on a tensor lattice --------------------------------


@pytest.mark.parametrize("counts", [(7,), (7, 5), (7, 5, 3)], ids=["d1", "d2", "d3"])
def test_tensor_axes_of_a_domain_grid_are_its_axes(counts):
    domain = Domain([-2.0] * len(counts), [2.0] * len(counts), counts)
    assert grid_axes(domain.grid) is domain.axes
    model = GpModel(Kernel("squared_exponential", [0.6] * len(counts)), 1e-3).add(
        [0.0] * len(counts), 1.0)
    model.posterior_batch(domain.grid)
    assert model._cov.lattice is domain.grid and model._cov.axes is domain.axes


def test_only_a_domain_grid_is_a_cached_lattice():
    # Copies, views, slices and permutations of a grid, read-only or not, are
    # other arrays: each gets the uncached pass and leaves the part uncached.
    grid = Domain([-2.0, -2.0], [2.0, 2.0], [7, 5]).grid
    rng = np.random.default_rng(3)
    read_only = grid.copy()
    read_only.flags.writeable = False
    permuted = grid[rng.permutation(len(grid))]
    permuted.flags.writeable = False
    model = random_model(rng, Kernel("squared_exponential", [0.6, 0.8]), 1e-3, 4)
    for points in (grid.copy(), read_only, permuted, grid[:], grid[:-1], grid[:, ::-1],
                   rng.uniform(-2, 2, (35, 2)), model.points):
        assert grid_axes(points) is None
        means, _ = model.posterior_batch(points)
        assert model._cov.lattice is None and model._mean is None
        np.testing.assert_array_equal(means, model._streamed(points)[0])
    model.posterior_batch(grid)
    assert model._cov.lattice is grid


def test_grid_that_outlives_its_domain_takes_the_separable_path():
    # As problem_from_config(...).domain.grid leaves it: the domain is gone.
    grid = Domain([-2.0, -2.0], [2.0, 2.0], [9, 7]).grid
    gc.collect()
    axes = grid_axes(grid)
    assert [len(axis) for axis in axes] == [9, 7]
    rng = np.random.default_rng(11)
    model = random_model(rng, Kernel("squared_exponential", [0.6, 0.8]), 1e-2, 3)
    model.posterior_batch(grid)
    for _ in range(5):
        model = model.add(rng.uniform(-2, 2, 2), rng.normal())
        got = model.posterior_batch(grid)
        assert model._cov.axes is axes and model._cov.rows.shape[1] == 9 + 7
        for a, b in zip(got, model.posterior_batch(grid.copy())):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_grid_axes_forget_each_grid_when_it_is_collected():
    # Nothing grows with the number of replications, each of which builds a domain.
    start = len(domain_module._GRID_AXES)
    for i in range(1000):
        domain = Domain([0.0, 0.0], [1.0, 1.0 + i], [4, 3])
        assert grid_axes(domain.grid) is domain.axes
    del domain
    gc.collect()
    assert len(domain_module._GRID_AXES) == start


@pytest.mark.parametrize("counts", [(7,), (7, 5), (7, 5, 3)], ids=["d1", "d2", "d3"])
def test_separable_update_matches_an_uncached_pass(counts):
    # One group of two outputs steps on the lattice through SE factor rows,
    # and an equal group asks about a read-only copy of it, which no part
    # caches. The second member first reads the lattice after its sibling's
    # add at step 20. At noise 1e-3 the means of either incremental path,
    # SE factor rows or whole kernel rows, drift up to about 5e-12 from an
    # uncached pass over 40 steps with repeated points; at 1e-2 both stay
    # within 1e-12.
    dim = len(counts)
    domain = Domain([-2.0] * dim, [2.0] * dim, counts)
    separable, copy = domain.grid, domain.grid.copy()
    copy.flags.writeable = False
    kernel = Kernel("squared_exponential", [0.9, 0.7, 1.1][:dim], 1.3)
    groups = {"separable": (separable, empty_models([(kernel, 1e-2)] * 2)),
              "uncached": (copy, empty_models([(kernel, 1e-2)] * 2))}
    rng = np.random.default_rng(59)
    for step in range(40):
        if step % 2:
            point = rng.uniform(-2, 2, dim)
        else:
            point = domain.point(int(rng.integers(domain.grid_size)))
        values = rng.normal(size=2)
        for lattice, models in groups.values():
            models[0] = models[0].add(point, values[0])
            models[0].posterior_batch(lattice)
            if step == 20:
                models[1].posterior_batch(lattice)
            models[1] = models[1].add(point, values[1])
        (_, factored), (_, uncached) = groups.values()
        for i in range(2 if step >= 20 else 1):
            got = factored[i].posterior_batch(separable)
            for want in (uncached[i].posterior_batch(copy),
                         factored[i].posterior_batch(separable.copy())):
                for a, b in zip(got, want):
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    assert factored[0]._cov.axes is domain.axes and uncached[0]._cov.lattice is None
    assert factored[1]._cov is factored[0]._cov


@pytest.mark.parametrize("family", ["matern52"])
def test_parts_off_the_tensor_path_keep_whole_kernel_rows(family):
    domain = Domain([-2.0, -2.0], [2.0, 2.0], [9, 7])
    rng = np.random.default_rng(67)
    lattice = domain.grid
    model = GpModel(Kernel(family, [0.6, 0.8], 1.1), 1e-3).add([0.0, 0.0], 1.0)
    model.posterior_batch(lattice)
    for _ in range(10):
        t, parent = model.n_observations, model._cov
        model = model.add(rng.uniform(-2, 2, 2), rng.normal())
        child = model._cov
        assert child.axes is None and child.rows.shape[1] == domain.grid_size
        assert np.array_equal(child.row, extension_row(parent, child)[1])
        assert np.array_equal(child.rows[:t + 1], model.kernel.cross(model.points, lattice))
        model.posterior_batch(lattice)


def test_model_without_data_checks_the_dimension_of_its_query():
    model = GpModel(Kernel("squared_exponential", [1.0, 1.0]), 1e-3)
    for queries in ([[1.0, 2.0, 3.0]], []):
        with pytest.raises(ValueError, match="points have dims 2/"):
            model.posterior_batch(queries)
    means, variances = model.posterior_batch(np.empty((0, 2)))
    assert means.shape == variances.shape == (0,)


def test_model_rebuilt_from_its_data_matches_incremental():
    # The hyperparameter refit rebuilds a model from points/values; its first
    # lattice query builds a new cache that later adds extend.
    rng = np.random.default_rng(29)
    model, domain = random_instance(rng)
    for _ in range(20):
        model = model.add(rng.uniform(-2, 2, domain.dim), rng.normal())
        model.posterior_batch(domain.grid)
    rebuilt = GpModel(model.kernel, model.noise_variance, model.points, model.values)
    assert_posteriors_close(rebuilt.posterior_batch(domain.grid), model.posterior_batch(domain.grid))
    for _ in range(10):
        point, value = rng.uniform(-2, 2, domain.dim), rng.normal()
        model, rebuilt = model.add(point, value), rebuilt.add(point, value)
        assert_posteriors_close(
            rebuilt.posterior_batch(domain.grid), model.posterior_batch(domain.grid)
        )


def count_cross_entries(monkeypatch) -> list[int]:
    """Make every ``Kernel.cross`` call append its entry count to the returned list."""
    entries = []
    cross = Kernel.cross

    def counted_cross(kernel, a, b):
        entries.append(np.atleast_2d(a).shape[0] * np.atleast_2d(b).shape[0])
        return cross(kernel, a, b)

    monkeypatch.setattr(Kernel, "cross", counted_cross)
    return entries


def test_lattice_step_costs_one_kernel_row(monkeypatch):
    entries = count_cross_entries(monkeypatch)
    rng = np.random.default_rng(31)
    domain = Domain([-2.0, -2.0], [2.0, 2.0], [20, 20])
    model = GpModel(Kernel("squared_exponential", [0.5, 0.5]), 1e-3).add([0.0, 0.0], 1.0)
    model.posterior_batch(domain.grid)
    for _ in range(5):
        model = model.add(rng.uniform(-2, 2, 2), rng.normal())
        model.posterior_batch(model.points)  # writeable: uncached, keeps the cache
        entries.clear()
        model.posterior_batch(domain.grid)
        assert entries == []
    entries.clear()
    child = model.add([1.0, 1.0], 0.0)
    # One row bordering the Gram matrix, then one row against the lattice.
    assert entries == [child.n_observations, domain.grid_size]


def test_second_lattice_leaves_the_first_lattice_cache_alone(monkeypatch):
    entries = count_cross_entries(monkeypatch)
    rng = np.random.default_rng(41)
    model = random_model(rng, Kernel("squared_exponential", [0.5, 0.5]), 1e-3, 5)
    lattice = Domain([-2.0, -2.0], [2.0, 2.0], [15, 15]).grid
    first = model.posterior_batch(lattice)
    other = Domain([-1.0, -1.0], [1.0, 1.0], [9, 9]).grid
    model.posterior_batch(other)
    assert entries[-1] == 5 * other.shape[0]  # uncached
    entries.clear()
    for before, after in zip(first, model.posterior_batch(lattice)):
        assert np.array_equal(before, after)
    assert entries == []


@pytest.mark.parametrize("scales, noises, groups", [
    ((0.5, 0.5), (1e-3, 1e-3), 1),
    ((70.0, 0.05), (1e-3, 1e-3), 2),
    # The settings of configs/williams_otto.json: the two constraints share.
    ((70.0, 0.05, 0.05), (0.5, 1e-6, 1e-6), 2),
])
def test_observe_costs_one_gram_and_row_per_group(monkeypatch, scales, noises, groups):
    entries = count_cross_entries(monkeypatch)
    rng = np.random.default_rng(37)
    domain = Domain([-2.0, -2.0], [2.0, 2.0], [20, 20])
    models = empty_models(
        (Kernel("squared_exponential", [0.5, 0.5], scale), noise)
        for scale, noise in zip(scales, noises)
    )
    state = AlgorithmState(policy="config", domain=domain, models=models)
    for _ in range(4):
        observe(state, rng.uniform(-2, 2, 2), rng.normal(size=len(scales)))
        state.grid_bounds()
    entries.clear()
    observe(state, [1.0, 1.0], np.zeros(len(scales)))
    assert entries == [state.t, domain.grid_size] * groups


def traced_peak_of_lattice_query(t, side):
    """Traced peak bytes of one uncached ``posterior_batch`` on a ``side x side`` lattice."""
    domain = Domain([0.0, 0.0], [1.0, 1.0], [side, side])
    model = GpModel(Kernel("squared_exponential", [0.1, 0.2]), 1e-2)
    for point in np.random.default_rng(5).uniform(0, 1, (t, 2)):
        model = model.add(point, 0.0)
    tracemalloc.start()
    try:
        model.posterior_batch(domain.grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_uncached_lattice_query_peaks_within_block_budget():
    # One column block of k(X, lattice), its copy in dtrtrs and the cross's
    # own temporaries; the cache's rows live in an untraced private mapping.
    t, side = 100, 100
    assert traced_peak_of_lattice_query(t, side) / (t * side * side * 8) <= 0.5


@pytest.mark.parametrize("t, side", [(100, 100), (300, 200)])
def test_uncached_lattice_query_allocates_under_huge_page_threshold(t, side):
    # numpy advises huge pages for allocations of 4 MiB or more. The peak
    # bounds every single allocation, and does not grow with t x G (a t x G
    # array is 8 MB and 96 MB here).
    assert traced_peak_of_lattice_query(t, side) < 4 * 2**20


def se_factor_rows(kernel, axes, X):
    """``[A | B]`` for a 2-D lattice: one SE plane per axis, ``exp(-0.5 * ((x / l) - (a / l))**2)``."""
    return np.hstack([
        np.exp(-0.5 * ((X[:, k:k + 1] / scale) - (axis[None, :] / scale)) ** 2)
        for k, (axis, scale) in enumerate(zip(axes, kernel.lengthscales))
    ])


def check_streamed_posterior_matches_one_shot():
    """Means, variances and the cache equal the one-shot formulas, bit for bit.

    The cache is ``k(X, lattice)`` for Matern-5/2 and the SE factor rows for
    SE; a part built by a query keeps no ``row``. Each case spans several
    column blocks, the last one partial.
    """
    rng = np.random.default_rng(43)
    for family in ("squared_exponential", "matern52"):
        for t, shape in ((1, (363, 364)), (7, (150, 151)), (100, (61, 67))):
            domain = Domain([-2.0, -2.0], [2.0, 2.0], shape)
            width = gp.column_blocks(t, domain.grid_size)[0].stop
            assert 1 < len(gp.column_blocks(t, domain.grid_size)) and domain.grid_size % width
            kernel = Kernel(family, [0.4, 0.7], 1.3)
            first, second = empty_models([(kernel, 1e-3), (kernel, 1e-3)])
            for _ in range(t):
                point = rng.uniform(-2, 2, 2)
                first, second = first.add(point, rng.normal()), second.add(point, rng.normal())
            chol = first._cov.chol
            k_cross = kernel.cross(first.points, domain.grid)
            v = gp._solve_lower(chol, k_cross)
            v *= v
            variances = np.maximum(kernel.prior_variance - np.sum(v, axis=0), 0.0)
            for model in (first, second):
                means = k_cross.T @ model._alpha
                # Writeable copy: uncached. The lattice: builds the group's
                # cache (first), or its own mean beside the group's (second).
                for queries in (domain.grid.copy(), domain.grid):
                    got_means, got_variances = model.posterior_batch(queries)
                    assert np.array_equal(got_means, means), (family, t)
                    assert np.array_equal(got_variances, variances), (family, t)
            assert first._cov.row is None
            if family == "matern52":
                assert first._cov.axes is None
                assert np.array_equal(first._cov.rows[:t], k_cross), (family, t)
            else:
                assert np.array_equal(first._cov.rows[:t],
                                      se_factor_rows(kernel, domain.axes, first.points)), t


def test_streamed_posterior_matches_one_shot_formulas():
    # A threaded BLAS splits a product's rows among threads by its size, so
    # the one-shot gemv's last bits depend on the thread count. Both sides
    # run on one thread, in a fresh interpreter.
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]))}
    code = "import test_gp; test_gp.check_streamed_posterior_matches_one_shot()"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=300, env=env)
    assert result.returncode == 0, result.stderr


def assert_same_posteriors(shared, separate, domain, points):
    for a, b in zip(shared, separate):
        assert np.array_equal(a.points, points) and np.array_equal(b.points, points)
        for got, want in zip(a.posterior_batch(domain.grid), b.posterior_batch(domain.grid)):
            assert np.array_equal(got, want)


def test_shared_covariance_matches_separate_models_bit_for_bit():
    # Two outputs with equal settings step as one group on one side and as
    # two groups of one on the other; both see the same queries in order.
    rng = np.random.default_rng(41)
    domain = Domain([-2.0, -2.0], [2.0, 2.0], [15, 15])
    kernel = Kernel("squared_exponential", [0.6, 0.6], 1.5)
    shared = empty_models([(kernel, 1e-3), (kernel, 1e-3)])
    separate = [GpModel(kernel, 1e-3), GpModel(kernel, 1e-3)]

    def step(pairs, points):
        points.append(rng.uniform(-2, 2, 2))
        x = points[-1]
        values = (np.sin(3 * x[0]) + x[1], 50.0 * np.cos(2 * x[1]))
        return [[model.add(x, value) for model, value in zip(models, values)]
                for models in pairs]

    main = []
    for t in range(36):
        shared, separate = step((shared, separate), main)
        if t % 3 == 0:
            queries = rng.uniform(-2, 2, (7, 2))  # writeable: uncached
            for a, b in zip(shared, separate):
                for got, want in zip(a.posterior_batch(queries), b.posterior_batch(queries)):
                    assert np.array_equal(got, want)
        if t == 24:
            # A refit gives each output hyperparameters of its own.
            shared, separate = [
                fit_hyperparameters(main, np.column_stack([m.values for m in models]), domain)
                for models in (shared, separate)
            ]
            assert shared[0].kernel != shared[1].kernel
        assert_same_posteriors(shared, separate, domain, main)


def test_group_members_may_query_and_add_in_any_order():
    # Members of one group that ask about other lattices, or ask between two
    # members' adds of the same point, still get the posterior of their data.
    rng = np.random.default_rng(43)
    lattices = [Domain([-2.0, -2.0], [2.0, 2.0], [15, 15]), Domain([-1.0, -1.0], [1.0, 1.0], [9, 9])]
    kernel = Kernel("matern52", [0.7, 0.7], 1.2)

    def check(model, domain):
        assert_posteriors_close(model.posterior_batch(domain.grid), fresh_lattice_posterior(model, domain))

    for _ in range(12):
        models = empty_models([(kernel, 1e-3)] * 2)
        for t in range(6):
            point = rng.uniform(-2, 2, 2)
            for i in range(2):
                for _ in range(int(rng.integers(0, 3)) if t else 0):
                    check(models[rng.integers(2)], lattices[rng.integers(2)])
                models[i] = models[i].add(point, rng.normal())
        for model in models:
            for domain in lattices:
                check(model, domain)


@pytest.mark.parametrize("sibling_side", [9, 15], ids=["other-lattice", "same-lattice"])
def test_member_that_reads_its_lattice_after_a_siblings_add_keeps_its_mean(sibling_side):
    # The sibling's child part has no cache of the member's lattice when the
    # member reads it: the child may cache another lattice, or this one anew,
    # as whole kernel rows (Matern-5/2) or as SE factor rows.
    lattices = {side: Domain([-2.0, -2.0], [2.0, 2.0], [side, side]) for side in (9, 15)}
    for family in ("matern52", "squared_exponential"):
        rng = np.random.default_rng(53)
        first, second = empty_models([(Kernel(family, [0.7, 0.7], 1.2), 1e-3)] * 2)
        point = rng.uniform(-2, 2, 2)
        first, second = first.add(point, 1.0), second.add(point, -1.0)
        point = rng.uniform(-2, 2, 2)
        first = first.add(point, 0.5)
        first.posterior_batch(lattices[sibling_side].grid)
        second.posterior_batch(lattices[15].grid)
        second = second.add(point, 2.0)
        assert second._cov is first._cov
        assert_posteriors_close(second.posterior_batch(lattices[15].grid),
                                fresh_lattice_posterior(second, lattices[15]))


def test_cached_results_are_copies():
    model = GpModel(Kernel("squared_exponential", [1.0]), 1e-2).add([0.0], 1.0)
    domain = Domain([-1.0], [1.0], [9])
    mean, var = model.posterior_batch(domain.grid)
    expected = mean.copy(), var.copy()
    mean[:] = 7.0
    var[:] = 7.0
    for got, want in zip(model.posterior_batch(domain.grid), expected):
        np.testing.assert_array_equal(got, want)
