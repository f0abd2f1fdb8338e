import fcntl
import importlib.util
import json
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError

import cego.gp as gp_mod
import cego.runner as runner_mod
from cego.gp import GpModel
from cego.metrics import best_so_far_series
from cego.problems import (
    artificial_infeasible_problem,
    artificial_problem,
    problem_from_config,
)
from cego.runner import (
    LOG_DIR_ENV,
    FeasibleStartError,
    RunConfig,
    emit_metrics,
    load_log,
    log_path,
    run_experiment,
    run_replication,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

GP = {"lengthscale_factor": 0.05, "output_scale": 0.5, "noise_variance": 1e-4}


def small_config(tmp_path, policies=None, budget=5, seeds=(1,), problem=None, gp=None, **kwargs):
    return RunConfig(
        problem=problem or {"name": "artificial", "g_thr": -0.6, "grid": [12, 12], "noise_std": 0.01},
        policies=policies or [{"name": "random"}],
        budget=budget,
        seeds=seeds,
        gp=gp or GP,
        **{"output_dir": str(tmp_path), **kwargs},
    )


def test_budget_one_random_yields_one_record(tmp_path):
    config = small_config(tmp_path, budget=1, start="none")
    (path,) = run_experiment(config)
    header, records = load_log(path)
    assert header["budget"] == 1
    assert len(records) == 1
    assert records[0].decision == "sample"


def test_rerun_is_byte_identical(tmp_path):
    config = small_config(
        tmp_path, policies=[{"name": "config"}, {"name": "random"}], budget=6, seeds=(3, 4)
    )
    paths = run_experiment(config)
    first = {p: p.read_bytes() for p in paths}
    for p in paths:
        p.unlink()
    run_experiment(config)
    for p, blob in first.items():
        assert p.read_bytes() == blob


def resume_config(tmp_path):
    """Three initial points (feasible start, two random), then proposals; the first refit is at t=6."""
    return small_config(
        tmp_path, policies=[{"name": "config"}], budget=9, seeds=(5,), start="feasible",
        n_init_random=2, gp={**GP, "fit_every": 3},
    )


@pytest.mark.parametrize(
    "kept, torn", [(0, False), (1, False), (3, False), (3, True), (7, False)],
    ids=["cut-0", "cut-1", "cut-3", "cut-3-torn", "cut-7"],
)
def test_truncate_and_resume_reproduces_prefix(tmp_path, kept, torn):
    config = resume_config(tmp_path)
    (path,) = run_experiment(config)
    original = path.read_bytes()

    lines = original.split(b"\n")
    # keep the header and `kept` records, perhaps plus a torn partial line
    truncated = b"\n".join(lines[: kept + 1]) + b"\n"
    if torn:
        truncated += lines[kept + 1][: len(lines[kept + 1]) // 2]
    path.write_bytes(truncated)
    run_experiment(config)
    assert path.read_bytes() == original


def test_torn_header_resumes_to_the_clean_run(tmp_path):
    # A log cut inside its header holds no complete line: the run starts over
    # from t = 1 instead of refusing to resume.
    config = small_config(tmp_path, policies=[{"name": "config"}], budget=3,
                          problem={"name": "artificial", "grid": [8, 8]})
    (path,) = run_experiment(config)
    original = path.read_bytes()
    path.write_bytes(original[:20])
    run_experiment(config)
    assert path.read_bytes() == original


@pytest.mark.parametrize("step", [2, 5], ids=["initial", "proposed"])
def test_resume_rejects_a_tampered_record(tmp_path, step):
    # Steps 1-3 are the initial points, later ones the policy's proposals.
    config = resume_config(tmp_path)
    (path,) = run_experiment(config)
    header, *records = path.read_text(encoding="utf-8").splitlines()[: step + 1]
    tampered = json.loads(records[step - 1])
    assert tampered["theta"] != [-10.0, -10.0]
    tampered["theta"] = [-10.0, -10.0]
    records[step - 1] = runner_mod._dumps(tampered)
    path.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
    with pytest.raises(RuntimeError, match=f"resume mismatch at t={step}"):
        run_experiment(config)


def test_resume_refuses_foreign_config(tmp_path):
    config = small_config(tmp_path, budget=3, seeds=(6,))
    (path,) = run_experiment(config)
    other = small_config(tmp_path, budget=4, seeds=(6,))
    with pytest.raises(RuntimeError, match="different configuration"):
        run_replication(other, other.policies[0], 6)


def test_completed_log_left_untouched(tmp_path):
    config = small_config(tmp_path, budget=4, seeds=(9,))
    (path,) = run_experiment(config)
    before = path.read_bytes()
    run_experiment(config)
    assert path.read_bytes() == before


def test_log_of_two_writers_is_named_on_resume_and_in_metrics(tmp_path):
    # Two writers that each resume from the other's partial file leave a
    # budget's worth of records with a repeated step: t = 1, 2, 2, 3.
    config = small_config(tmp_path, budget=4, seeds=(9,))
    (path,) = run_experiment(config)
    header, *records = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([header, *records[:2], records[1], records[2]]) + "\n",
                    encoding="utf-8")
    named = f"log {re.escape(str(path))} line 4: t=2 where t=3"
    with pytest.raises(RuntimeError, match=f"cannot resume {re.escape(str(path))}: {named}"):
        run_experiment(config)
    with pytest.raises(ValueError, match=named):
        emit_metrics([path], metric="best_so_far")


def test_locked_log_fails_only_its_replication_and_is_left_as_it_was(tmp_path):
    clean = {p.name: p.read_bytes()
             for p in run_experiment(small_config(tmp_path / "clean", budget=4, seeds=(1, 2)))}
    config = small_config(tmp_path / "run", budget=4, seeds=(1, 2))
    locked, other = (log_path(config, config.policies[0], seed) for seed in (1, 2))
    locked.parent.mkdir()
    torn = clean[locked.name][:-5]  # the last record lacks its end
    locked.write_bytes(torn)
    with open(locked, "rb") as holder:
        # Another writer's lock: flock locks of two opens conflict even in one process.
        fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
        named = f"policy=random seed=1: log {re.escape(str(locked))} is being written by another run"
        with pytest.raises(RuntimeError, match=rf"^1 replication\(s\) failed: {named}"):
            run_experiment(config)
        assert locked.read_bytes() == torn  # not even the torn line was cut
        assert not locked.with_suffix(".meta.json").exists()
        assert other.read_bytes() == clean[other.name]
    # The holder closed its file, which dropped the lock: the rerun resumes.
    run_experiment(config)
    assert locked.read_bytes() == clean[locked.name]


# One writer process: it waits for a line on stdin, then runs the config named
# by its argument with every measurement slowed down, so that two such
# writers started together are inside the same replication at the same time.
SLOW_WRITER = """
import sys, time
from cego.problems import Problem
from cego.runner import RunConfig, run_experiment
measure = Problem.evaluate_noisy
def slow(self, *args):
    time.sleep(0.02)
    return measure(self, *args)
Problem.evaluate_noisy = slow
print("ready", flush=True)
sys.stdin.readline()
try:
    run_experiment(RunConfig.from_json(sys.argv[1]))
except RuntimeError as exc:
    print(exc)
"""


def test_two_writers_on_one_output_dir_leave_single_run_logs(tmp_path, monkeypatch):
    # Two runs of one config into one output_dir. Each log is written by one
    # of them; the other stops that replication with the named error and
    # changes nothing, so every log holds a single run's bytes. Without the
    # lock both appended to the same logs and reported success.
    monkeypatch.delenv(LOG_DIR_ENV, raising=False)
    settings = {"problem": {"name": "artificial", "grid": [12, 12]},
                "policies": [{"name": "random"}], "budget": 6, "seeds": [1, 2, 3], "start": "none"}
    clean = {p.name: p.read_bytes()
             for p in run_experiment(RunConfig(**settings, output_dir=str(tmp_path / "clean")))}
    path = tmp_path / "shared.json"
    path.write_text(json.dumps({**settings, "output_dir": str(tmp_path / "shared")}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    writers = [subprocess.Popen([sys.executable, "-c", SLOW_WRITER, str(path)], env=env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE) for _ in range(2)]
    try:
        for writer in writers:
            assert writer.stdout.readline() == "ready\n"
        for writer in writers:
            writer.stdin.write("go\n")
            writer.stdin.flush()
        outputs = [writer.communicate(timeout=60)[0] for writer in writers]
    finally:
        for writer in writers:
            writer.kill()
            writer.wait()
    for output in outputs:
        # Nothing, or "N replication(s) failed: ..." with each of the N a locked log.
        failed = int(output.split()[0]) if output else 0
        assert output.count("is being written by another run") == failed, output
    assert {p.name: p.read_bytes() for p in (tmp_path / "shared").glob("*.jsonl")} == clean


@pytest.mark.parametrize("kept, tabulated", [(2, False), (3, True)],
                         ids=["cut-short", "declared-infeasible"])
def test_emit_metrics_refuses_an_unfinished_log(tmp_path, kept, tabulated):
    # A run cut after two records was padded with its last value and averaged
    # as if finished; only an infeasibility declaration may end a run early.
    config = small_config(tmp_path, budget=6, seeds=(9,))
    (path,) = run_experiment(config)
    header, *records = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in records[:2]]
    if tabulated:
        records.append(runner_mod._record_dict(3, None, None, None))
    path.write_text("\n".join([header, *map(runner_mod._dumps, records)]) + "\n",
                    encoding="utf-8")
    if tabulated:
        assert len(emit_metrics([path], metric="best_so_far")) == 1 + 6
    else:
        with pytest.raises(ValueError, match=f"log {re.escape(str(path))} is unfinished: "
                                             "2 records of a budget of 6"):
            emit_metrics([path], metric="best_so_far")


@pytest.mark.parametrize("edit, problem", [
    (lambda records: records[1:], "line 2: t=2 where t=1"),
    (lambda records: records + [{**records[-1], "t": 5}], "line 6: a record beyond the budget"),
    (lambda records: [records[0], runner_mod._record_dict(2, None, None, None), records[2]],
     "line 4: a record after the infeasible marker"),
    (lambda records: [records[0], {"t": 2}], "line 3: 'theta'"),
    (lambda records: [records[0], {**records[1], "decision": "foo"}, records[2]],
     "line 3: decision 'foo' is neither 'sample' nor 'infeasible'"),
    (lambda records: [records[0], {**records[1], "theta": None, "y": None}],
     "line 3: a sample record needs lists for theta and y"),
    (lambda records: [records[0], {**records[1], "decision": "infeasible"}],
     "line 3: an infeasible marker needs null theta, y and true"),
], ids=["gap", "over-budget", "after-infeasible", "missing-field", "unknown-decision",
        "sample-without-values", "infeasible-with-values"])
def test_load_log_names_the_first_bad_line(tmp_path, edit, problem):
    config = small_config(tmp_path, budget=4, seeds=(9,))
    (path,) = run_experiment(config)
    header, *records = path.read_text(encoding="utf-8").splitlines()
    records = edit([json.loads(line) for line in records])
    path.write_text("\n".join([header, *map(runner_mod._dumps, records)]) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"log {re.escape(str(path))} {problem}"):
        load_log(path)


@pytest.mark.parametrize("header", ['{"kind": ', '[1]', '{"kind": "run_header"}',
                                    '{"kind": "run_header", "budget": 1, "policy": {}}'])
def test_load_log_names_a_bad_header(tmp_path, header):
    # emit_metrics used to fail on these with a JSON or lookup error naming no log.
    path = tmp_path / "bad.jsonl"
    path.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"log {re.escape(str(path))} line 1: "):
        emit_metrics([path], metric="best_so_far")


def test_infeasible_variant_ends_with_marker(tmp_path):
    config = RunConfig(
        problem={"name": "artificial_infeasible", "grid": [20, 20], "noise_std": 0.01},
        policies=[{"name": "config"}],
        budget=50,
        seeds=[1],
        output_dir=str(tmp_path),
        start="none",
        gp={"lengthscale_factor": 0.125, "output_scale": 0.5, "noise_variance": 1e-4},
    )
    (path,) = run_experiment(config)
    _, records = load_log(path)
    assert records[-1].decision == "infeasible"
    assert records[-1].theta is None
    assert all(r.decision == "sample" for r in records[:-1])


def test_huge_budget_reserves_bounded_lattice_rows(tmp_path):
    # A row store sized for 10^6 steps on 10^4 points is 80 GB; mapped whole,
    # it failed the replication with ENOMEM at its first lattice query.
    config = RunConfig(
        problem={"name": "artificial_infeasible", "grid": [100, 100]},
        policies=[{"name": "config"}],
        budget=10**6,
        seeds=[1],
        output_dir=str(tmp_path),
        start="none",
        gp={"lengthscale_factor": 0.125, "output_scale": 0.5, "noise_variance": 1e-4},
    )
    (path,) = run_experiment(config)
    _, records = load_log(path)
    assert len(records) == 31
    assert records[-1].decision == "infeasible"


def test_record_schema(tmp_path):
    config = small_config(tmp_path, budget=2, seeds=(2,))
    (path,) = run_experiment(config)
    lines = path.read_text().strip().split("\n")
    header = json.loads(lines[0])
    assert header["kind"] == "run_header"
    for i, line in enumerate(lines[1:], start=1):
        rec = json.loads(line)
        assert set(rec) == {"t", "theta", "y", "true", "decision"}
        assert rec["t"] == i
        assert rec["decision"] == "sample"
        assert len(rec["theta"]) == 2
        assert len(rec["y"]) == 2
        assert len(rec["true"]) == 2


def feasible_start(problem, seed):
    """The first initial point of a replication that starts feasible."""
    config = small_config("unused", start="feasible")
    return runner_mod._initial_points(problem, config, seed)[0]


def test_feasible_start_satisfies_constraint():
    problem = artificial_problem(g_thr=-0.6, grid=(30, 30), noise_std=0.0)
    for seed in range(5):
        theta = feasible_start(problem, seed)
        assert np.cos(theta[0] + theta[1]) <= -0.6 + 1e-12


def test_feasible_start_deterministic():
    problem = artificial_problem(g_thr=-0.6, grid=(30, 30), noise_std=0.0)
    np.testing.assert_array_equal(
        feasible_start(problem, 123), feasible_start(problem, 123)
    )


def test_feasible_start_fails_on_infeasible_problem(monkeypatch):
    problem = artificial_infeasible_problem(grid=(5, 5))
    monkeypatch.setattr(runner_mod, "MAX_START_REJECTIONS", 200)
    with pytest.raises(FeasibleStartError):
        feasible_start(problem, 0)


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("CEGO_LOG_DIR", str(override))
    config = small_config(tmp_path / "ignored", budget=1, seeds=(1,), start="none")
    (path,) = run_experiment(config)
    assert path.parent == override


def test_distinct_seeds_required(tmp_path):
    with pytest.raises(ValueError, match="distinct"):
        small_config(tmp_path, seeds=(1, 1))


@pytest.mark.parametrize(
    "settings, match",
    [({"budget": 2.5}, "must be an int"), ({"budget": 0}, "must be an int"),
     ({"n_init_random": 1.5}, "must be an int"), ({"n_init_random": True}, "must be an int"),
     ({"seeds": (1, 1.5)}, "must be an int"), ({"seeds": (1, True)}, "must be an int"),
     ({"seeds": (2, True)}, "must be an int"), ({"seeds": (-1,)}, "must be an int"),
     ({"seeds": 3}, "seeds must be a list"), ({"gp": 5}, "gp must be an object"),
     ({"policies": {"name": "config"}}, "policies must be a list"),
     # Both go into the JSON header, and json.dumps refuses numpy ints.
     ({"seeds": [np.int64(1)]}, "must be an int"),
     ({"gp": {**GP, "fit_every": np.int64(5)}}, "fit_every must be an int"),
     # Every replication then failed on opening its log.
     ({"output_dir": 5}, "output_dir must be a path string")],
    ids=["budget-fraction", "budget-zero", "n_init-fraction", "n_init-bool",
         "seed-fraction", "seed-true-as-1", "seed-bool", "seed-negative",
         "seeds-not-a-list", "gp-not-an-object", "policies-not-a-list", "seed-numpy-int",
         "fit_every-numpy-int", "output_dir-not-text"],
)
def test_mistyped_run_settings_rejected(tmp_path, settings, match):
    # The streams key on int(seed), so seeds 2 and True would run the same
    # replication twice; a fractional count would fail every replication.
    # A setting of the wrong JSON shape must be named, not fail inside a lookup.
    with pytest.raises(ValueError, match=match):
        small_config(tmp_path, **settings)


@pytest.mark.parametrize(
    "spec", [{"name": "confg"}, {"label": "nameless"}, {"name": "epbo", "rh": 0.2},
             {"name": "config", "beta": {"vaule": 3.0}},
             {"name": "epbo", "rho": -1.0}, {"name": "epbo", "rho": "x"},
             {"name": "primal_dual", "eta": 0.0}, {"name": "safeopt_lite", "lipschitz": -1.0},
             {"name": "config", "beta": {"mode": "linear"}},
             {"name": "config", "beta": {"value": "x"}}, {"name": "config", "beta": 2.0},
             {"name": "safeopt_lite", "safe_seed": [[0.0]]}, "config",
             {"name": "config", "beta": {"value": True}},
             {"name": "config", "beta": {"value": 1e400}},
             # An unhashable label escaped as a TypeError; a separator put the
             # log where `cego metrics` never looks, or outside output_dir.
             {"name": "config", "label": ["a"]}, {"name": "config", "label": ""},
             {"name": "config", "label": "a/b"}, {"name": "config", "label": "x/../../../y"},
             {"name": "config", "label": "a\\b"},
             # Snapped to the corner (10, 10), a point the oracle refuses.
             {"name": "safeopt_lite", "safe_seed": [[100.0, 100.0]]},
             # Keys of other policies, which this one would run without.
             {"name": "config", "rho": 5.0, "eta": 3.0, "lipschitz": 2.0,
              "safe_seed": [[0.0, 0.0]]},
             {"name": "random", "label": "r", "beta": {"value": 9.0}},
             {"name": "cei", "beta": {"mode": "log_growth"}}]
)
def test_mistyped_policy_spec_rejected(tmp_path, spec):
    # A misspelled policy, knob or value must fail when the config is built,
    # not after the other replications have run (or never, for a knob).
    with pytest.raises(ValueError):
        small_config(tmp_path, policies=[{"name": "random"}, spec])


@pytest.mark.parametrize("spec, key", [
    ({"name": "random", "label": "r", "beta": {"value": 9.0}}, "beta"),
    ({"name": "epbo", "eta": 1.0}, "eta"),
    ({"name": "primal_dual", "lipschitz": 1.0}, "lipschitz"),
    ({"name": "safeopt_lite", "rho": 1.0}, "rho"),
])
def test_unread_policy_key_named_with_its_label(tmp_path, spec, key):
    label = spec.get("label", spec["name"])
    with pytest.raises(ValueError, match=rf"policy '{label}': .* \['{key}'\]"):
        small_config(tmp_path, policies=[spec])


@pytest.mark.parametrize(
    "gp", [{"fit_evry": 5}, {"lengthscale_facor": 0.5}, {"fit_every": -1},
           {"fit_every": 2.5}, {"fit_every": "5"}, {"fit_every": True},
           {"family": "rbf"}, {"lengthscale_factor": -1}, {"lengthscale_factor": "x"},
           {"output_scale": [0.5, 0.5, 0.5]}, {"noise_variance": float("nan")},
           {"lengthscales": [1.0, 1.0]},
           # Its square, the prior variance, overflows: an OverflowError mid-run.
           {"output_scale": 1e200},
           # A bool ran as 1.0; an infinite noise failed every replication mid-run.
           {"output_scale": True}, {"noise_variance": True}, {"lengthscale_factor": True},
           {"lengthscale_factor": 1e400}, {"noise_variance": [1e-4, 1e400]}]
)
def test_mistyped_gp_settings_rejected(tmp_path, gp):
    # A misspelled fit_every would silently turn hyperparameter refits off.
    with pytest.raises(ValueError):
        small_config(tmp_path, gp={**GP, **gp})


def test_random_makes_no_gp_update_or_refit(tmp_path, monkeypatch):
    def read_a_model(*args, **kwargs):
        raise AssertionError("random updated or refit a model")

    monkeypatch.setattr(GpModel, "add", read_a_model)
    monkeypatch.setattr(runner_mod, "fit_hyperparameters", read_a_model)
    config = small_config(tmp_path, budget=12, n_init_random=2, gp={**GP, "fit_every": 4})
    (path,) = run_experiment(config)
    assert len(load_log(path)[1]) == 12


def test_rejected_config_writes_nothing_and_its_fix_runs(tmp_path):
    # A bad knob used to leave a header and a first record in every log, and
    # those logs then blocked the corrected config ("different configuration").
    out = tmp_path / "runs"
    policies = [{"name": "config"}, {"name": "epbo", "rho": -1.0}]
    with pytest.raises(ValueError, match="policy 'epbo': rho"):
        small_config(out, policies=policies, budget=3, seeds=(1, 2))
    assert not out.exists()
    policies[1]["rho"] = 1.0
    paths = run_experiment(small_config(out, policies=policies, budget=3, seeds=(1, 2)))
    assert sorted(out.glob("*.jsonl")) == sorted(paths)
    assert all(len(load_log(path)[1]) == 3 for path in paths)


@pytest.mark.parametrize(
    "problem, key",
    [({"name": "artificial", "gird": [10, 10]}, "gird"),
     ({"name": "williams_otto", "noise_std": 0.1}, "noise_std"),
     ({"name": "williams_otto", "plant": {}}, "plant"),
     ({"name": "external", "lower": [0.0], "upper": [1.0], "grid": [5], "n_constraints": 1},
      "command"),
     ({"name": "artificial", "g_thr": "a"}, "g_thr"),
     ({"name": "artificial", "noise_std": "x"}, "noise_std"),
     ({"name": "artificial", "noise_std": float("nan")}, "noise_std"),
     ({"name": "artificial", "grid": "ab"}, "grid"),
     ({"name": "artificial", "grid": [10.5, 10]}, "grid"),
     ({"name": "williams_otto", "grid": [True, 10]}, "grid"),
     ({"name": "external", "command": "python stub.py", "lower": [0.0], "upper": [1.0],
       "grid": [5], "n_constraints": 1}, "command"),
     ({"name": "external", "command": ["python"], "lower": [0.0], "upper": [1.0],
       "grid": [5], "n_constraints": "1"}, "n_constraints"),
     ("artificial", "problem"),
     ({"name": "external", "command": ["python"], "lower": [0.0], "upper": [1.0],
       "grid": [5], "n_constraints": -1}, "n_constraints"),
     ({"name": "external", "command": ["python"], "lower": [float("nan")], "upper": [1.0],
       "grid": [5], "n_constraints": 1}, "lower"),
     ({"name": "external", "command": ["python"], "lower": [0.0], "upper": [1.0],
       "grid": [5], "n_constraints": 1, "timeout": float("nan")}, "timeout")],
    ids=["misspelled", "not-a-setting", "not-a-plant-setting", "missing", "g_thr-text",
         "noise-text", "noise-nan", "grid-text", "grid-fraction", "grid-bool",
         "command-string", "n_constraints-text", "not-an-object", "n_constraints-negative",
         "lower-nan", "timeout-nan"],
)
def test_mistyped_problem_settings_rejected(tmp_path, problem, key):
    # A dropped key would silently run the default problem instead.
    with pytest.raises(ValueError, match=key):
        small_config(tmp_path, problem=problem)


def test_shipped_and_benchmark_configs_construct(tmp_path, monkeypatch):
    for path in sorted(CONFIGS.glob("*.json")):
        RunConfig.from_json(path)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        RunConfig(**workload.run_config(1, tmp_path))


def test_emit_metrics_single_log_zero_std(tmp_path):
    config = small_config(tmp_path, budget=4, seeds=(8,))
    paths = run_experiment(config)
    table = emit_metrics(paths, metric="best_so_far")
    assert table[0] == ["step", "random_mean", "random_std"]
    assert len(table) == 5
    assert all(row[2] == 0.0 for row in table[1:])
    means = [row[1] for row in table[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))


def write_constant_logs(directory, values_by_seed):
    """One two-step ``random`` log per seed whose every sample is ``(value, -1)``."""
    for seed, value in values_by_seed.items():
        lines = [
            json.dumps({"kind": "run_header", "policy": {"name": "random"}, "budget": 2, "seed": seed})
        ]
        for t in (1, 2):
            lines.append(
                json.dumps(
                    {"t": t, "theta": [0.0], "y": [value, -1.0], "true": [value, -1.0], "decision": "sample"}
                )
            )
        (directory / f"x__random__seed{seed}.jsonl").write_text("\n".join(lines) + "\n")
    return sorted(directory.glob("*.jsonl"))


def test_emit_metrics_mean_and_sample_std(tmp_path):
    # Synthetic two-replication logs with constant series [1,1] and [3,3].
    paths = write_constant_logs(tmp_path, {1: 1.0, 2: 3.0})
    table = emit_metrics(paths, metric="constrained_regret", j_star=0.0)
    for row in table[1:]:
        assert row[1] == pytest.approx(2.0)
        assert row[2] == pytest.approx(np.sqrt(2.0))


def test_emit_metrics_does_not_depend_on_log_order(tmp_path):
    # A float sum depends on its order: 1e16 + 1.0 rounds back to 1e16. The
    # file names sort seed10 before seed2, so a mean taken in argument order
    # differs between the two orders.
    paths = write_constant_logs(tmp_path, {1: 1e16, 2: 1.0, 10: -1e16})
    assert emit_metrics(paths, metric="best_so_far") == emit_metrics(paths[::-1], metric="best_so_far")


def test_emit_metrics_refuses_logs_of_different_budgets(tmp_path):
    # The budget-3 run used to be padded to 5 steps with its last value and
    # averaged with the budget-5 run without a word.
    short = run_experiment(small_config(tmp_path / "short", budget=3, seeds=(1,)))
    long = run_experiment(small_config(tmp_path / "long", budget=5, seeds=(2,)))
    assert emit_metrics(long + long, metric="best_so_far")[-1][0] == 5
    with pytest.raises(ValueError, match=re.escape(
            f"log {long[0]} has a budget of 5, the logs before it 3")):
        emit_metrics(short + long, metric="best_so_far")


def test_emit_metrics_regret_needs_reference(tmp_path):
    config = small_config(tmp_path, budget=2, seeds=(4,))
    paths = run_experiment(config)
    with pytest.raises(ValueError, match="j_star"):
        emit_metrics(paths, metric="constrained_regret")


def test_emit_metrics_writes_csv(tmp_path):
    config = small_config(tmp_path, budget=3, seeds=(4,))
    paths = run_experiment(config)
    out = tmp_path / "table.csv"
    emit_metrics(paths, metric="best_so_far", out=out)
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "step,random_mean,random_std"
    assert len(rows) == 4


def test_parallel_jobs_match_serial(tmp_path, monkeypatch):
    # The same bytes, and the same paths in task order, at either jobs.
    config = small_config(tmp_path / "configured", budget=4, seeds=(2, 1),
                          policies=[{"name": "config"}, {"name": "random"}])
    names = [log_path(config, spec, seed).name for spec in config.policies for seed in config.seeds]
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        monkeypatch.setenv(LOG_DIR_ENV, str(out))
        assert run_experiment(config, jobs=jobs) == [out / name for name in names]
        assert sorted(out.glob("*.jsonl")) == sorted(out / name for name in names)
    for name in names:
        assert (tmp_path / "jobs2" / name).read_bytes() == (tmp_path / "jobs1" / name).read_bytes()
    assert not (tmp_path / "configured").exists()


# Answers every request, but exits with code 3 when asked for the lattice's
# lower corner: the point that config samples first from zero data.
CORNER_EXIT_STUB = (
    "import json, sys\n"
    "for line in sys.stdin:\n"
    "    t = json.loads(line)['theta']\n"
    "    if t == [0.0, 0.0]:\n"
    "        sys.exit(3)\n"
    "    print(json.dumps({'objective': t[0], 'constraints': [t[1] - 1.0]}), flush=True)\n"
)


def test_parallel_failure_names_only_its_replication(tmp_path):
    # config fails at its first step; random runs, in its own worker, to the
    # bytes it writes at jobs=1.
    problem = {"name": "external", "command": [sys.executable, "-c", CORNER_EXIT_STUB],
               "lower": [0.0, 0.0], "upper": [1.0, 1.0], "grid": [12, 12], "n_constraints": 1}
    base = dict(policies=[{"name": "config"}, {"name": "random"}], budget=3, start="none",
                problem=problem)
    logs = {}
    for jobs in (1, 2):
        config = small_config(tmp_path / f"jobs{jobs}", **base)
        with pytest.raises(RuntimeError) as failed:
            run_experiment(config, jobs=jobs)
        assert str(failed.value) == ("1 replication(s) failed: policy=config seed=1: external "
                                     "evaluator exited (code 3) before answering")
        logs[jobs] = log_path(config, {"name": "random"}, 1).read_bytes()
    assert logs[2] == logs[1]
    assert len(logs[1].splitlines()) == 4  # header and 3 records


def test_dead_worker_fails_with_one_error_naming_its_replication(tmp_path, monkeypatch):
    # A worker that dies (an OOM kill, a segfault) breaks the pool: the
    # replications it takes down are reported by name in one RuntimeError.
    advance = runner_mod._advance_replication

    def die_on_seed_2(config, spec, seed, *args):
        if seed == 2:
            os._exit(9)
        return advance(config, spec, seed, *args)

    monkeypatch.setattr(runner_mod, "_advance_replication", die_on_seed_2)
    # Forked workers run the patched module.
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda max_workers: ProcessPoolExecutor(max_workers, mp_context=fork))
    config = small_config(tmp_path, budget=2, seeds=(1, 2, 3))
    with pytest.raises(RuntimeError) as failed:
        run_experiment(config, jobs=2)
    assert type(failed.value) is RuntimeError
    assert re.match(r"\d replication\(s\) failed: ", str(failed.value))
    assert "policy=random seed=2: " in str(failed.value)
    assert isinstance(failed.value.__cause__, BrokenProcessPool)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs each task in this process."""

    def __init__(self, sizes: list, max_workers: int):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("jobs, sizes", [(64, [14]), (5, [5]), (1, [])])
def test_process_pool_has_at_most_one_worker_per_replication(tmp_path, monkeypatch, jobs, sizes):
    created = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(created, max_workers))
    config = small_config(tmp_path, policies=[{"name": "random"}, {"name": "config"}],
                          budget=2, seeds=tuple(range(1, 8)))
    assert len(run_experiment(config, jobs=jobs)) == 14
    assert created == sizes


@pytest.mark.parametrize("jobs", [0, -2, 2.0, True, "2", None])
def test_jobs_must_be_a_positive_int(tmp_path, monkeypatch, jobs):
    created = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(created, max_workers))
    with pytest.raises(ValueError, match="jobs"):
        run_experiment(small_config(tmp_path), jobs=jobs)
    assert created == [] and list(tmp_path.iterdir()) == []


def test_shared_covariance_keeps_every_log_byte(tmp_path, monkeypatch):
    # Outputs with equal GP settings share one covariance part; stepping each
    # output on its own must write the same bytes, refits included.
    base = dict(
        policies=[{"name": "config"}, {"name": "cei"}, {"name": "safeopt_lite"}],
        budget=30, seeds=(2,), gp={**GP, "fit_every": 10},
        problem={"name": "artificial", "g_thr": -0.6, "grid": [30, 30], "noise_std": 0.01},
    )
    shared = run_experiment(small_config(tmp_path / "shared", **base))
    monkeypatch.setattr(runner_mod, "empty_models",
                        lambda settings, capacity: [GpModel(k, noise) for k, noise in settings])
    separate = run_experiment(small_config(tmp_path / "separate", **base))
    assert [len(load_log(path)[1]) for path in shared] == [30, 30, 30]
    for a, b in zip(shared, separate):
        assert a.read_bytes() == b.read_bytes()


def test_external_failure_aborts_only_that_replication(tmp_path):
    # A stub that answers twice, then emits garbage: the run aborts but the
    # log keeps the prior steps; a healthy policy in the same experiment
    # still completes.
    stub = (
        "import sys, json\n"
        "n = 0\n"
        "for line in sys.stdin:\n"
        "    n += 1\n"
        "    if n > 2:\n"
        "        print('garbage', flush=True)\n"
        "    else:\n"
        "        t = json.loads(line)['theta']\n"
        "        print(json.dumps({'objective': t[0], 'constraints': [t[1] - 1.0]}), flush=True)\n"
    )
    config = RunConfig(
        problem={
            "name": "external",
            "command": [sys.executable, "-c", stub],
            "lower": [0.0, 0.0],
            "upper": [1.0, 1.0],
            "grid": [4, 4],
            "n_constraints": 1,
            "timeout": 10.0,
        },
        policies=[{"name": "random"}],
        budget=6,
        seeds=[1],
        output_dir=str(tmp_path),
        start="none",
        gp=GP,
    )
    with pytest.raises(RuntimeError, match="replication"):
        run_experiment(config)
    (path,) = list(tmp_path.glob("*.jsonl"))
    _, records = load_log(path)
    assert len(records) == 2  # partial log preserved
    assert all(r.true_values is None for r in records)  # external oracle is not pure


def test_hyperparameter_refit_in_the_loop(tmp_path):
    config = small_config(
        tmp_path,
        policies=[{"name": "config"}],
        budget=7,
        seeds=(2,),
        n_init_random=3,
        gp={**GP, "fit_every": 3},
    )
    (path,) = run_experiment(config)
    _, records = load_log(path)
    assert len(records) == 7
    original = path.read_bytes()
    # refitting is part of the deterministic replay contract
    lines = original.split(b"\n")
    path.write_bytes(b"\n".join(lines[:6]) + b"\n")
    run_experiment(config)
    assert path.read_bytes() == original


def test_safeopt_requires_seed_or_feasible_start(tmp_path):
    for start in ("none", "uniform"):
        with pytest.raises(ValueError, match="policy 'safeopt_lite'.*safe_seed"):
            small_config(tmp_path, policies=[{"name": "safeopt_lite"}], start=start)
    assert not any(tmp_path.iterdir())


def test_safeopt_refuses_an_empty_safe_seed(tmp_path):
    # Accepted, the empty seed set failed every replication at its first
    # policy step, after its log was written.
    spec = {"name": "safeopt_lite", "label": "safe", "safe_seed": []}
    with pytest.raises(ValueError, match="policy 'safe': safeopt_lite needs a non-empty safe_seed"):
        run_experiment(small_config(tmp_path, policies=[spec], budget=3))
    assert not any(tmp_path.iterdir())


def test_config_replication_maps_its_lattice_rows_once(tmp_path, monkeypatch):
    # The runner builds its models for the budget, so the group's rows of V
    # (t x G floats) are mapped at the first lattice query and never copied.
    calls = []
    mapped_rows = gp_mod._mapped_rows

    def counted(n_rows, width):
        calls.append((n_rows, width))
        return mapped_rows(n_rows, width)

    monkeypatch.setattr(gp_mod, "_mapped_rows", counted)
    config = small_config(tmp_path, policies=[{"name": "config"}], budget=100,
                          problem={"name": "artificial", "grid": [100, 100]})
    (path,) = run_experiment(config)
    assert len(load_log(path)[1]) == 100
    assert calls == [(100, 100 * 100)]


def test_cei_requires_an_initial_point(tmp_path):
    # With no initial point cei has no incumbent for its first step.
    with pytest.raises(ValueError, match="policy 'cei': cei needs an initial point"):
        small_config(tmp_path, policies=[{"name": "cei"}], start="none", n_init_random=0)
    assert not any(tmp_path.iterdir())
    small_config(tmp_path, policies=[{"name": "cei"}], start="none", n_init_random=1)


def test_safeopt_without_seed_starts_from_the_feasible_start(tmp_path):
    implicit = small_config(tmp_path / "implicit", policies=[{"name": "safeopt_lite"}],
                            budget=6, seeds=(3,))
    start = feasible_start(problem_from_config(implicit.problem), 3)
    explicit = small_config(
        tmp_path / "explicit",
        policies=[{"name": "safeopt_lite", "safe_seed": [[float(v) for v in start]]}],
        budget=6, seeds=(3,),
    )
    (implicit_log,) = run_experiment(implicit)
    (explicit_log,) = run_experiment(explicit)
    assert load_log(implicit_log)[1] == load_log(explicit_log)[1]


# Answers every request, records its pid, and lingers briefly after stdin
# closes, so a child nobody closed is still alive when the run returns.
LINGERING_STUB = (
    "import json, os, sys, time\n"
    "with open(sys.argv[1], 'a') as fh:\n"
    "    fh.write(f'{os.getpid()}\\n')\n"
    "for line in sys.stdin:\n"
    "    t = json.loads(line)['theta']\n"
    "    print(json.dumps({'objective': t[0], 'constraints': [t[1] - 1.0]}), flush=True)\n"
    "time.sleep(0.5)\n"
)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("jobs", [1, 2])
def test_no_external_child_survives_run_experiment(tmp_path, jobs):
    pid_file = tmp_path / "pids.txt"
    config = RunConfig(
        problem={
            "name": "external",
            "command": [sys.executable, "-c", LINGERING_STUB, str(pid_file)],
            "lower": [0.0, 0.0],
            "upper": [1.0, 1.0],
            "grid": [4, 4],
            "n_constraints": 1,
            "timeout": 10.0,
        },
        policies=[{"name": "random"}],
        budget=3,
        seeds=[1, 2],
        output_dir=str(tmp_path / "logs"),
        start="none",
        gp=GP,
    )
    run_experiment(config, jobs=jobs)
    pids = [int(line) for line in pid_file.read_text().split()]
    assert len(pids) == 2  # one child per replication
    assert not [pid for pid in pids if _alive(pid)]


def test_refit_failure_keeps_previous_models(tmp_path, monkeypatch):
    def failing_fit(*args, **kwargs):
        raise LinAlgError("no hyperparameter candidate produced a valid factorization")

    monkeypatch.setattr(runner_mod, "fit_hyperparameters", failing_fit)
    base = dict(policies=[{"name": "config"}], budget=8, seeds=(2,), n_init_random=3)
    refit = small_config(tmp_path / "refit", gp={**GP, "fit_every": 2}, **base)
    (path,) = run_experiment(refit)
    _, records = load_log(path)
    assert len(records) == 8
    # Every refit failed, so each output kept its model: the run without refits.
    (plain_path,) = run_experiment(small_config(tmp_path / "plain", **base))
    assert records == load_log(plain_path)[1]

    original = path.read_bytes()
    path.unlink()
    run_experiment(refit)
    assert path.read_bytes() == original
    lines = original.split(b"\n")
    path.write_bytes(b"\n".join(lines[:6]) + b"\n" + lines[6][:5])
    run_experiment(refit)
    assert path.read_bytes() == original


def test_no_model_work_after_the_last_record(tmp_path, monkeypatch):
    observed, fits = [], []
    observe, fit = runner_mod.observe, runner_mod.fit_hyperparameters

    def counted_observe(state, *args):
        observed.append(state.t)
        return observe(state, *args)

    def counted_fit(points, *args, **kwargs):
        fits.append(len(points))
        return fit(points, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "observe", counted_observe)
    monkeypatch.setattr(runner_mod, "fit_hyperparameters", counted_fit)
    config = small_config(tmp_path, policies=[{"name": "config"}], budget=8, seeds=(2,),
                          n_init_random=3, gp={**GP, "fit_every": 4})
    (path,) = run_experiment(config)
    assert len(load_log(path)[1]) == 8
    assert observed == list(range(7))
    assert fits == [4]  # one fit for all outputs, and none at t = 8


def test_every_failed_replication_is_reported(tmp_path, monkeypatch):
    advance = runner_mod._advance_replication

    def fail_seed_4(config, spec, seed, *args):
        if seed == 4:
            raise RuntimeError(f"boom in {spec['name']}")
        return advance(config, spec, seed, *args)

    monkeypatch.setattr(runner_mod, "_advance_replication", fail_seed_4)
    config = small_config(tmp_path, policies=[{"name": "random"}, {"name": "config"}],
                          budget=2, seeds=(3, 4))
    with pytest.raises(RuntimeError) as failed:
        run_experiment(config)
    message = str(failed.value)
    assert message.startswith("2 replication(s) failed: ")
    assert "policy=random seed=4: boom in random" in message
    assert "policy=config seed=4: boom in config" in message
    assert "seed=3" not in message
    assert str(failed.value.__cause__) == "boom in random"
