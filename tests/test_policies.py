import types

import numpy as np
import pytest
from scipy.stats import norm

from cego import gp, policies
from cego.domain import Domain
from cego.gp import GpModel
from cego.kernels import Kernel
from cego.policies import (
    CEI_INCUMBENT_THRESHOLD,
    POLICIES,
    AlgorithmState,
    BetaSchedule,
    GridEvaluation,
    _cei_incumbent,
    _constraint_probability,
    _normal_cdf,
    _normal_pdf,
    evaluate_grid,
    observe,
    propose,
)


def make_state(policy, domain, n_constraints=1, beta=2.0, noise=1e-2, output_scale=1.0,
               lengthscale=1.0, **kwargs):
    kernel = Kernel("squared_exponential", [lengthscale] * domain.dim, output_scale)
    models = [GpModel(kernel, noise) for _ in range(n_constraints + 1)]
    return AlgorithmState(
        policy=policy, domain=domain, models=models,
        beta=BetaSchedule(mode="constant", value=beta), **kwargs,
    )


def pointwise_bound(model, point, beta):
    """``mean + beta * std`` from a single-point posterior (beta < 0 gives the LCB)."""
    (mean,), (var,) = model.posterior_batch([point])
    return mean + beta * np.sqrt(var)


def reference_config_decision(state):
    """Two-loop reimplementation of the optimistic constrained step (oracle)."""
    beta = state.beta.value
    n = state.domain.grid_size
    lcbs = np.empty((len(state.models), n))
    for i, model in enumerate(state.models):
        for idx in range(n):
            lcbs[i, idx] = pointwise_bound(model, state.domain.point(idx), -beta)
    for i in range(1, len(state.models)):
        if np.min(lcbs[i]) > 0:
            return "infeasible", None
    best_idx, best_val = None, np.inf
    for idx in range(n):
        if all(lcbs[i, idx] <= 0 for i in range(1, len(state.models))):
            if lcbs[0, idx] < best_val:
                best_idx, best_val = idx, lcbs[0, idx]
    return "sample", best_idx


# -- config ------------------------------------------------------------------


def test_config_symmetric_prior_returns_first_grid_point():
    state = make_state("config", Domain([0.0, 0.0], [1.0, 1.0], [3, 3]))
    decision = propose(state)
    assert decision.kind == "sample"
    assert decision.index == 0
    np.testing.assert_array_equal(decision.point, [0.0, 0.0])


def test_config_declares_infeasibility_from_trained_constraint():
    # Train the constraint model hard at every grid point of a tiny domain so
    # its lcb with a small beta is positive everywhere.
    domain = Domain([0.0], [1.0], [3])
    state = make_state("config", domain, beta=0.1, noise=1e-4)
    for idx in range(domain.grid_size):
        observe(state, domain.point(idx), [0.0, 10.0])
    decision = propose(state)
    assert decision.is_infeasible


def test_config_respects_constraint_mask():
    rng = np.random.default_rng(31)
    domain = Domain([0.0], [1.0], [20])
    for _ in range(10):
        state = make_state("config", domain, noise=1e-3)
        for _ in range(int(rng.integers(1, 8))):
            theta = domain.point(int(rng.integers(domain.grid_size)))
            observe(state, theta, rng.normal(size=2))
        decision = propose(state)
        if decision.is_infeasible:
            continue
        lcb_g = pointwise_bound(state.models[1], decision.point, -state.beta.value)
        mask_nonempty = any(
            pointwise_bound(state.models[1], domain.point(i), -state.beta.value) <= 0
            for i in range(domain.grid_size)
        )
        if mask_nonempty:
            assert lcb_g <= 1e-12


def test_config_matches_two_loop_reference():
    rng = np.random.default_rng(77)
    for trial in range(8):
        dim = int(rng.integers(1, 3))
        counts = rng.integers(3, 8, size=dim)
        domain = Domain([-1.0] * dim, [1.0] * dim, counts)
        state = make_state("config", domain, n_constraints=int(rng.integers(1, 3)),
                           noise=1e-3, lengthscale=0.8)
        for _ in range(int(rng.integers(0, 12))):
            theta = domain.point(int(rng.integers(domain.grid_size)))
            observe(state, theta, rng.normal(size=len(state.models)))
        kind_ref, idx_ref = reference_config_decision(state)
        decision = propose(state)
        assert decision.kind == kind_ref
        if kind_ref == "sample" and idx_ref is not None:
            assert decision.index == idx_ref


def test_config_infeasible_iff_single_constraint_positive_everywhere():
    rng = np.random.default_rng(5)
    domain = Domain([0.0], [1.0], [15])
    for _ in range(10):
        state = make_state("config", domain, n_constraints=2, noise=1e-3)
        for _ in range(int(rng.integers(1, 10))):
            theta = domain.point(int(rng.integers(domain.grid_size)))
            observe(state, theta, rng.normal(loc=1.0, size=3))
        ev = state.grid_bounds()
        line2 = np.max(np.min(ev.lcb[1:], axis=1)) > 0
        assert propose(state).is_infeasible == line2


# -- cei ----------------------------------------------------------------------


def test_cei_requires_objective_observation():
    state = make_state("cei", Domain([0.0], [1.0], [3]))
    with pytest.raises(ValueError, match="cei needs at least one objective observation"):
        propose(state)


def test_cei_zero_variance_everywhere_ties_to_first_point():
    # Fully observed tiny grid with negligible noise: EI is ~0 everywhere.
    domain = Domain([0.0], [1.0], [3])
    state = make_state("cei", domain, n_constraints=0, noise=1e-12)
    for idx in range(domain.grid_size):
        observe(state, domain.point(idx), [1.0])
    decision = propose(state)
    assert decision.index == 0


def test_cei_reduces_to_ei_argmax_without_constraints():
    # Monte-Carlo oracle for expected improvement on a 5-point grid.
    domain = Domain([0.0], [2.0], [5])
    state = make_state("cei", domain, n_constraints=0, noise=1e-2, lengthscale=0.6)
    observe(state, domain.point(1), [0.3])
    observe(state, domain.point(3), [-0.4])

    model = state.models[0]
    incumbent = float(np.min(model.values))
    rng = np.random.default_rng(99)
    draws = rng.standard_normal(400_000)
    mc_ei = np.empty(domain.grid_size)
    for idx in range(domain.grid_size):
        (mean,), (var,) = model.posterior_batch([domain.point(idx)])
        samples = mean + np.sqrt(var) * draws
        mc_ei[idx] = np.mean(np.maximum(incumbent - samples, 0.0))
        # closed form agrees with the Monte-Carlo estimate
        sigma = np.sqrt(var)
        z = (incumbent - mean) / sigma
        closed = (incumbent - mean) * norm.cdf(z) + sigma * norm.pdf(z)
        assert closed == pytest.approx(mc_ei[idx], abs=1e-3)

    assert propose(state).index == int(np.argmax(mc_ei))


SPECIAL_Z = [0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, 38.5, -38.5, 1e-300, -1e-300, np.nan]


def test_normal_cdf_pdf_bit_identical_to_scipy_stats():
    # The cEI score and the feasibility probability use _normal_cdf and
    # _normal_pdf in place of scipy.stats.norm; logs stay byte-identical only
    # if every bit agrees, tails, signed zeros, infinities and NaN included.
    draws = np.random.default_rng(2024).standard_normal(10**6)
    z = np.concatenate([draws, 10.0 * draws, SPECIAL_Z])
    assert np.array_equal(_normal_cdf(z), norm.cdf(z), equal_nan=True)
    assert np.array_equal(_normal_pdf(z), norm.pdf(z), equal_nan=True)


def no_extension_file(subpackage, name):
    raise ImportError(f"no scipy.{subpackage}.{name} extension")


def extension_without_ndtr(subpackage, name):
    return types.ModuleType(f"scipy.{subpackage}.{name}")


@pytest.mark.parametrize("loader", [no_extension_file, extension_without_ndtr])
def test_normal_cdf_falls_back_to_scipy_special(monkeypatch, loader):
    # A scipy that ships no _special_ufuncs file, or one without ndtr, gets
    # scipy.special's ndtr, with the same bits.
    calls = []
    monkeypatch.setattr(policies, "_scipy_extension",
                        lambda *args: calls.append(args) or loader(*args))
    policies._ndtr.cache_clear()
    try:
        draws = np.random.default_rng(2025).standard_normal(10**4)
        z = np.concatenate([draws, 10.0 * draws, SPECIAL_Z])
        assert np.array_equal(_normal_cdf(z), norm.cdf(z), equal_nan=True)
        assert calls == [("special", "_special_ufuncs")]
    finally:
        policies._ndtr.cache_clear()


def test_constraint_probability_bit_identical_to_scipy_stats():
    rng = np.random.default_rng(7)
    means = np.concatenate([rng.standard_normal(10**6), SPECIAL_Z, SPECIAL_Z])
    sigmas = np.concatenate([rng.uniform(0.0, 2.0, 10**6), np.ones(len(SPECIAL_Z)),
                             np.zeros(len(SPECIAL_Z))])
    sigmas[::1000] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigmas > 0, -means / np.where(sigmas > 0, sigmas, 1.0), 0.0)
    expected = np.where(sigmas > 0, norm.cdf(z), (means <= 0).astype(float))
    assert np.array_equal(_constraint_probability(means, sigmas), expected, equal_nan=True)


def test_cei_prefers_probably_feasible_point():
    # Two extreme grid points, objective posterior symmetric about the middle
    # observation, constraint trained strongly negative at one end and
    # strongly positive at the other: equal EI, feasibility decides.
    domain = Domain([-1.0], [1.0], [3])
    state = make_state("cei", domain, noise=1e-4)
    observe(state, domain.point(1), [0.0, 0.0])
    for _ in range(5):
        state.models[1] = state.models[1].add([-1.0], -3.0).add([1.0], 3.0)

    (mean_a, mean_b), (var_a, var_b) = state.models[0].posterior_batch([[-1.0], [1.0]])
    assert (mean_a, var_a) == pytest.approx((mean_b, var_b))  # symmetric EI by construction
    decision = propose(state)
    np.testing.assert_array_equal(decision.point, [-1.0])


def test_cei_falls_back_to_feasibility_maximization():
    # The only observed point is confidently infeasible: no incumbent exists,
    # so the step maximizes the feasibility probability instead.
    domain = Domain([-1.0], [1.0], [5])
    state = make_state("cei", domain, noise=1e-4, lengthscale=0.4)
    for _ in range(5):
        observe(state, domain.point(4), [0.0, 2.0])
    decision = propose(state)
    probs = []
    for idx in range(domain.grid_size):
        (mean,), (var,) = state.models[1].posterior_batch([domain.point(idx)])
        probs.append(norm.cdf(-mean / np.sqrt(var)) if var > 0 else float(mean <= 0))
    assert decision.index == int(np.argmax(probs))


def test_cei_incumbent_rule_is_per_constraint():
    # Each constraint holds at the observed point with probability 0.6 on its
    # own, so the point counts as feasible although the joint probability,
    # 0.36, is below the threshold.
    domain = Domain([0.0], [1.0], [3])
    state = make_state("cei", domain, n_constraints=2, noise=1.0)
    # Prior variance 1, noise 1: the posterior at the observed point has mean
    # y / 2 and variance 1 / 2.
    y = -2.0 * np.sqrt(0.5) * norm.ppf(0.6)
    observe(state, domain.point(1), [0.7, y, y])
    probabilities = []
    for model in state.models[1:]:
        (mean,), (var,) = model.posterior_batch([domain.point(1)])
        probabilities.append(norm.cdf(-mean / np.sqrt(var)))
    assert probabilities == pytest.approx([0.6, 0.6])
    assert np.prod(probabilities) < CEI_INCUMBENT_THRESHOLD
    assert _cei_incumbent(state) == 0.7


# -- epbo -----------------------------------------------------------------------


def test_epbo_zero_penalty_ignores_constraints():
    rng = np.random.default_rng(4)
    domain = Domain([0.0], [1.0], [10])
    state = make_state("epbo", domain, rho=0.0, noise=1e-3)
    for _ in range(5):
        observe(state, domain.point(int(rng.integers(10))), rng.normal(size=2))
    ev = state.grid_bounds()
    assert propose(state).index == int(np.argmin(ev.lcb[0]))


def test_epbo_no_observations_ties_to_first_point():
    state = make_state("epbo", Domain([0.0, 0.0], [1.0, 1.0], [4, 4]), rho=1.0)
    assert propose(state).index == 0


def test_epbo_large_penalty_recovers_config_choice():
    rng = np.random.default_rng(6)
    domain = Domain([0.0], [1.0], [25])
    matches = 0
    for _ in range(20):
        obs = [
            (domain.point(int(rng.integers(domain.grid_size))), rng.normal(size=2))
            for _ in range(int(rng.integers(1, 12)))
        ]
        epbo_state = make_state("epbo", domain, rho=1e6, noise=1e-3)
        config_state = make_state("config", domain, noise=1e-3)
        for theta, y in obs:
            observe(epbo_state, theta, y)
            observe(config_state, theta, y)
        config_decision = propose(config_state)
        if config_decision.is_infeasible:
            continue
        ev = config_state.grid_bounds()
        if not np.any(np.all(ev.lcb[1:] <= 0, axis=0)):
            continue  # lcb-feasible set empty: limit equivalence not claimed
        epbo_decision = propose(epbo_state)
        if np.all(ev.lcb[1:, epbo_decision.index] <= 0):
            assert epbo_decision.index == config_decision.index
            matches += 1
    assert matches >= 10  # the comparison must actually exercise the claim


# -- primal-dual -----------------------------------------------------------------


def test_primal_dual_zero_duals_minimizes_the_objective_lcb():
    rng = np.random.default_rng(8)
    domain = Domain([0.0], [1.0], [12])
    state = make_state("primal_dual", domain, noise=1e-3)
    for _ in range(6):
        observe(state, domain.point(int(rng.integers(12))), rng.normal(size=2))
    # observe() on a primal_dual state updates duals; reset them for the check
    state.duals = np.zeros(1)
    ev = state.grid_bounds()
    assert propose(state).index == int(np.argmin(ev.lcb[0]))


def test_dual_update_clamps_at_zero():
    domain = Domain([0.0], [1.0], [5])
    state = make_state("primal_dual", domain, eta=1.0)
    state.duals = np.array([0.5])
    observe(state, domain.point(0), [0.0, -1.0])
    np.testing.assert_allclose(state.duals, [0.0])


def test_dual_update_accumulates_violation():
    domain = Domain([0.0], [1.0], [5])
    state = make_state("primal_dual", domain, eta=1.0)
    state.duals = np.array([0.5])
    observe(state, domain.point(0), [0.0, 0.2])
    np.testing.assert_allclose(state.duals, [0.7])


def test_observe_updates_duals_for_primal_dual_policy():
    domain = Domain([0.0], [1.0], [5])
    state = make_state("primal_dual", domain, eta=2.0)
    observe(state, domain.point(0), [0.0, 0.3])
    np.testing.assert_allclose(state.duals, [0.6])
    observe(state, domain.point(1), [0.0, -1.0])
    np.testing.assert_allclose(state.duals, [0.0])


# -- safeopt-lite -------------------------------------------------------------------


def test_safeopt_requires_seed():
    state = make_state("safeopt_lite", Domain([0.0], [1.0], [5]))
    with pytest.raises(ValueError, match="non-empty feasible seed set"):
        propose(state)


def test_safeopt_seeds_are_sorted_unique_lattice_indices():
    # The state keeps its seeds as np.unique gives them, and refuses any that
    # lie off the lattice.
    domain = Domain([0.0], [1.0], [6])
    seeds = [3, 0, 5, 3, 0, 3]
    state = make_state("safeopt_lite", domain, safe_indices=seeds)
    np.testing.assert_array_equal(state.safe_indices, np.unique(seeds))
    assert state.safe_indices.dtype == np.unique(seeds).dtype
    for outside in (-1, domain.grid_size):
        with pytest.raises(ValueError, match="safe seed indices outside the grid"):
            make_state("safeopt_lite", domain, safe_indices=[2, outside, 2])


def test_safeopt_infinite_lipschitz_confines_to_seed():
    domain = Domain([0.0], [1.0], [6])
    state = make_state("safeopt_lite", domain, lipschitz=np.inf,
                       safe_indices=np.array([2, 3]))
    for _ in range(5):
        decision = propose(state)
        assert decision.index in (2, 3)
        observe(state, decision.point, [0.0, -1.0])
    np.testing.assert_array_equal(state.safe_indices, [2, 3])


def test_safeopt_without_constraints_certifies_the_whole_lattice(monkeypatch):
    # "Every constraint" holds vacuously with none: the first step certifies
    # every point, so the seed does not sample itself forever. Later steps
    # measure no distances, since a full set has nothing left to certify.
    passes = []
    monkeypatch.setattr(policies, "column_blocks",
                        lambda *args: passes.append(args) or gp.column_blocks(*args))
    domain = Domain([0.0, 0.0], [1.0, 1.0], [11, 11])
    state = make_state("safeopt_lite", domain, n_constraints=0, lipschitz=1.0,
                       safe_indices=[60], lengthscale=0.3)
    picks = []
    for _ in range(5):
        decision = propose(state)
        np.testing.assert_array_equal(state.safe_indices, np.arange(domain.grid_size))
        picks.append(decision.index)
        observe(state, decision.point, [float(np.sum(decision.point))])
    assert len(set(picks)) == 5
    assert passes == [(1, domain.grid_size)]


def test_safeopt_expansion_certificate():
    # One seed, strongly negative constraint there: points within
    # ucb(seed) + L*d <= 0 join the safe set, others stay out.
    domain = Domain([0.0], [10.0], [11])
    state = make_state("safeopt_lite", domain, lipschitz=1.0, noise=1e-6,
                       safe_indices=np.array([0]), lengthscale=0.5)
    for _ in range(8):
        observe(state, domain.point(0), [0.0, -3.0])
    propose(state)
    ucb_seed = pointwise_bound(state.models[1], domain.point(0), state.beta.value)
    grid = domain.grid[:, 0]
    expected = set(np.flatnonzero(ucb_seed + 1.0 * np.abs(grid - grid[0]) <= 0)) | {0}
    assert set(state.safe_indices) == expected


def test_safeopt_keeps_seeds_it_cannot_certify():
    # A seed whose own constraint UCB is positive certifies nothing, not even
    # itself, and still stays in the set: the step returns the sorted union
    # of the old set and the certified points, as np.union1d gives it.
    domain = Domain([0.0], [10.0], [11])
    state = make_state("safeopt_lite", domain, lipschitz=1.0, noise=1e-6,
                       safe_indices=[10, 0], lengthscale=0.5)
    for _ in range(8):
        observe(state, domain.point(0), [0.0, -3.0])
        observe(state, domain.point(10), [0.0, 1.0])
    ucb = state.grid_bounds().ucb[1]
    grid = domain.grid[:, 0]
    certified = np.zeros(domain.grid_size, dtype=bool)
    for seed in (0, 10):
        certified |= ucb[seed] + np.abs(grid - grid[seed]) <= 0
    assert certified[0] and not certified[10] and certified.sum() > 1
    old = state.safe_indices
    propose(state)
    expected = np.union1d(old, np.flatnonzero(certified))
    np.testing.assert_array_equal(state.safe_indices, expected)
    assert state.safe_indices.dtype == expected.dtype


def test_safeopt_expansion_matches_brute_force_l1():
    # Three spread seeds, two constraints: a lattice point is certified when
    # some seed's worst UCB plus L times its L1 distance is <= 0.
    domain = Domain([0.0, -1.0], [3.0, 1.0], [16, 11])
    seeds = np.array([0, 93, domain.grid_size - 1])
    state = make_state("safeopt_lite", domain, n_constraints=2, lipschitz=1.5, noise=1e-6,
                       safe_indices=seeds, lengthscale=0.4)
    for index, value in zip(seeds, (-1.0, -2.0, -0.6)):
        for _ in range(3):
            observe(state, domain.point(index), [0.0, value, value - 0.2])
    ucb = state.grid_bounds().ucb
    grid = domain.grid
    certified = np.zeros(domain.grid_size, dtype=bool)
    for index in range(domain.grid_size):
        for seed in seeds:
            dist = sum(abs(float(grid[seed, k]) - float(grid[index, k])) for k in range(2))
            if max(ucb[1][seed], ucb[2][seed]) + 1.5 * dist <= 0:
                certified[index] = True
    old = state.safe_indices
    propose(state)
    # The grown set is exactly the sorted union of the old set and the
    # certified points, as np.union1d gives it.
    expected = np.union1d(old, np.flatnonzero(certified))
    np.testing.assert_array_equal(state.safe_indices, expected)
    assert state.safe_indices.dtype == expected.dtype
    assert len(seeds) < len(expected) < domain.grid_size


@pytest.mark.parametrize("shape, block_bytes", [((210, 210), None), ((16, 11), 8 * 3 * 64)])
def test_safeopt_expansion_across_column_blocks_matches_brute_force(
        monkeypatch, shape, block_bytes):
    # The |S| x G distance planes are built one column block of the lattice
    # at a time: the lattice spans several blocks, at the real budget and at
    # one of 64 columns, and the certified points lie in more than one.
    if block_bytes is not None:
        monkeypatch.setattr(gp, "_BLOCK_BYTES", block_bytes)
    domain = Domain([0.0, -1.0], [3.0, 1.0], shape)
    seeds = np.array([0, domain.grid_size // 2 + shape[1] // 2, domain.grid_size - 1])
    state = make_state("safeopt_lite", domain, n_constraints=2, lipschitz=1.5, noise=1e-6,
                       safe_indices=seeds, lengthscale=0.4)
    for index, value in zip(seeds, (-1.0, -2.0, -0.6)):
        for _ in range(3):
            observe(state, domain.point(index), [0.0, value, value - 0.2])
    worst_ucb = np.max(state.grid_bounds().ucb[1:], axis=0)
    grid = domain.grid
    certified = np.zeros(domain.grid_size, dtype=bool)
    for seed in seeds:
        dist = np.abs(grid[:, 0] - grid[seed, 0]) + np.abs(grid[:, 1] - grid[seed, 1])
        certified |= worst_ucb[seed] + 1.5 * dist <= 0
    expected = set(seeds) | set(np.flatnonzero(certified))
    blocks = gp.column_blocks(len(seeds), domain.grid_size)
    assert len({i // blocks[0].stop for i in expected}) > 1
    propose(state)
    assert set(state.safe_indices) == expected
    assert len(seeds) < len(expected) < domain.grid_size


def test_safeopt_never_samples_outside_safe_set():
    rng = np.random.default_rng(12)
    domain = Domain([0.0, 0.0], [1.0, 1.0], [5, 5])
    state = make_state("safeopt_lite", domain, lipschitz=2.0,
                       safe_indices=np.array([12]), lengthscale=0.5)
    for _ in range(10):
        before = set(state.safe_indices)
        decision = propose(state)
        after = set(state.safe_indices)
        assert before <= after  # the safe set only grows
        assert decision.index in after
        observe(state, decision.point, rng.normal(size=2) - 1.0)


def test_safeopt_tie_break_prefers_wider_sigma():
    # Two safe points, identical objective lcb by symmetry, but one has been
    # sampled already (smaller sigma): the unsampled one wins.
    domain = Domain([-1.0], [1.0], [3])
    state = make_state("safeopt_lite", domain, safe_indices=np.array([0, 2]),
                       lipschitz=np.inf)
    observe(state, domain.point(1), [0.0, -1.0])  # symmetric midpoint evidence
    (mean0, mean2), (var0, var2) = state.models[0].posterior_batch(domain.grid[[0, 2]])
    assert (mean0, var0) == pytest.approx((mean2, var2))
    state.models[0] = state.models[0].add(domain.point(0), 0.0)
    decision = propose(state)
    assert decision.index == 2


# -- random --------------------------------------------------------------------------


def test_random_deterministic_given_seed():
    domain = Domain([0.0, 0.0], [1.0, 1.0], [10, 10])
    state = make_state("random", domain)
    a = propose(state, 1234)
    b = propose(state, 1234)
    assert a.index == b.index


def test_random_single_point_grid():
    domain = Domain([0.0], [1.0], [2])
    state = make_state("random", domain)
    assert propose(state, 7).index in (0, 1)


def test_random_uniform_frequencies():
    domain = Domain([0.0], [1.0], [4])
    state = make_state("random", domain)
    counts = np.zeros(4)
    n = 10_000
    for s in range(n):
        counts[propose(state, s).index] += 1
    freqs = counts / n
    tol = 3 * np.sqrt(0.25 * 0.75 / n)
    np.testing.assert_allclose(freqs, 0.25, atol=tol)


def test_propose_dispatch_and_seed_requirement():
    domain = Domain([0.0], [1.0], [4])
    state = make_state("random", domain)
    with pytest.raises(ValueError, match="random policy needs an rng_seed"):
        propose(state)
    assert propose(state, rng_seed=3).kind == "sample"
    config_state = make_state("config", domain)
    assert propose(config_state).kind == "sample"


@pytest.mark.parametrize("policy", POLICIES)
def test_propose_evaluates_the_lattice_once(monkeypatch, policy):
    # Every scoring policy reads one lattice evaluation per step; random
    # draws its index without one.
    calls = []

    def counting(*args):
        calls.append(args)
        return evaluate_grid(*args)

    monkeypatch.setattr(policies, "evaluate_grid", counting)
    domain = Domain([0.0], [1.0], [5])
    seeds = np.array([2]) if policy == "safeopt_lite" else None
    state = make_state(policy, domain, safe_indices=seeds)
    observe(state, domain.point(1), [0.3, -0.5])
    decision = propose(state, rng_seed=3)
    assert decision.kind == "sample"
    assert len(calls) == (0 if policy == "random" else 1)


def state_on_bounds(monkeypatch, policy, lcb, **kwargs):
    """A state of ``policy`` whose every lattice evaluation has the given LCB rows.

    The sigmas are zero, so each row is that model's LCB and UCB.
    """
    lcb = np.asarray(lcb, dtype=float)
    ev = GridEvaluation(means=lcb, sigmas=np.zeros_like(lcb), beta_sqrt=2.0)
    monkeypatch.setattr(policies, "evaluate_grid", lambda *args: ev)
    domain = Domain([0.0], [1.0], [lcb.shape[1]])
    return make_state(policy, domain, n_constraints=lcb.shape[0] - 1, **kwargs)


def test_config_picks_the_first_tied_minimum_inside_the_mask(monkeypatch):
    # The global objective minimizer (index 0) violates the constraint; the
    # feasible minimum 1.0 is tied at indices 2 and 4.
    state = state_on_bounds(monkeypatch, "config", [[0.0, 3.0, 1.0, 2.0, 1.0],
                                                    [1.0, -1.0, 0.0, 1.0, -0.5]])
    decision = propose(state)
    assert decision.kind == "sample" and decision.index == 2


def test_config_falls_back_to_the_least_violation(monkeypatch):
    # Each constraint holds somewhere, so infeasibility is not declared, but
    # never both at once. The summed positive parts (2, 0.5, 1, 0.5, 5) are
    # least at indices 1 and 3, whatever the objective says.
    state = state_on_bounds(monkeypatch, "config", [[0.0, 3.0, -1.0, 2.0, -2.0],
                                                    [-1.0, 0.25, 1.0, 0.25, 2.0],
                                                    [2.0, 0.25, -1.0, 0.25, 3.0]])
    decision = propose(state)
    assert decision.kind == "sample" and decision.index == 1


@pytest.mark.parametrize("policy, lcb, knobs, duals, expected", [
    # 3 + 2*0, 0 + 2*1, 2 + 0, 1 + 0, 1 + 0: tied at 3 and 4.
    ("epbo", [[3.0, 0.0, 2.0, 1.0, 1.0], [0.0, 1.0, -1.0, 0.0, 0.0]], {"rho": 2.0}, None, 3),
    # 3 + 0, 0 + 0.5*2, 2 + 0, 1 + 0, 2 - 0.5*2: tied at 1, 3 and 4.
    ("primal_dual", [[3.0, 0.0, 2.0, 1.0, 2.0], [0.0, 2.0, 0.0, 0.0, -2.0]], {}, [0.5], 1),
], ids=["epbo", "primal_dual"])
def test_penalty_scores_pick_the_first_tied_minimum(monkeypatch, policy, lcb, knobs, duals,
                                                     expected):
    state = state_on_bounds(monkeypatch, policy, lcb, **knobs)
    if duals is not None:
        state.duals = np.array(duals)
    assert propose(state).index == expected


# -- shared machinery ---------------------------------------------------------------


def test_observe_increments_t_and_grows_models():
    domain = Domain([0.0], [1.0], [4])
    state = make_state("config", domain)
    observe(state, domain.point(2), [1.0, -0.5])
    assert state.t == 1
    assert all(m.n_observations == 1 for m in state.models)


def test_beta_schedule_log_growth_monotone():
    sched = BetaSchedule(mode="log_growth", value=1.0, delta=0.05)
    values = [sched.beta_sqrt(t, grid_size=100) for t in range(1, 30)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(v >= 0 for v in values)


def test_beta_schedule_validation():
    with pytest.raises(ValueError):
        BetaSchedule(mode="weird")
    with pytest.raises(ValueError):
        BetaSchedule(delta=1.5)
    with pytest.raises(ValueError):
        BetaSchedule(value=float("nan"))


@pytest.mark.parametrize(
    "knobs", [{"rho": -1.0}, {"rho": "x"}, {"rho": float("nan")}, {"rho": True},
              {"rho": np.inf}, {"eta": 0.0}, {"eta": -1.0}, {"eta": np.inf},
              {"lipschitz": -1.0}]
)
def test_state_rejects_bad_knobs(knobs):
    # Checked once when the state is built, not again at every step.
    with pytest.raises(ValueError):
        make_state("epbo", Domain([0.0], [1.0], [4]), **knobs)


def test_policies_deterministic_replay():
    # Identical seeds and observation sequences yield identical decisions.
    domain = Domain([0.0, 0.0], [2.0, 2.0], [6, 6])
    rng_values = np.random.default_rng(55).normal(size=(5, 2))
    sequences = []
    for _ in range(2):
        state = make_state("config", domain, noise=1e-3)
        seq = []
        for values in rng_values:
            decision = propose(state)
            seq.append(decision.index)
            observe(state, decision.point, values)
        sequences.append(seq)
    assert sequences[0] == sequences[1]
