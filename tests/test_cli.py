import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cego.cli import main
from cego.problems import artificial_values
from cego.references import get_reference, load_references, write_reference


def test_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out.split()
    assert "artificial" in out
    assert "williams_otto" in out
    assert "external" in out


def test_run_and_metrics_round_trip(tmp_path, capsys, monkeypatch):
    config = {
        "problem": {"name": "artificial", "g_thr": -0.6, "grid": [10, 10], "noise_std": 0.01},
        "policies": [{"name": "random"}],
        "budget": 3,
        "seeds": [1, 2],
        "output_dir": str(tmp_path / "logs"),
        "start": "none",
        "gp": {"lengthscale_factor": 0.05, "output_scale": 0.5, "noise_variance": 1e-4},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path)]) == 0
    logs = sorted((tmp_path / "logs").glob("*.jsonl"))
    assert len(logs) == 2

    out_csv = tmp_path / "regret.csv"
    code = main([
        "metrics", "--logs", str(tmp_path / "logs"),
        "--metric", "constrained_regret", "--problem", "artificial",
        "--out", str(out_csv),
    ])
    assert code == 0
    rows = out_csv.read_text().strip().split("\n")
    assert rows[0] == "step,random_mean,random_std"
    assert len(rows) == 4

    # A log whose records repeat a step is named in one line, not a traceback.
    header, *records = logs[0].read_text().splitlines()
    logs[0].write_text("\n".join([header, records[0], records[0]]) + "\n")
    capsys.readouterr()
    assert main(["metrics", "--logs", str(tmp_path / "logs"), "--metric", "best_so_far"]) == 1
    err = capsys.readouterr().err
    assert err == f"cego metrics: log {logs[0]} line 3: t=1 where t=2 was due\n"

    # So is a log cut short of its budget, which used to be tabulated as finished.
    logs[0].write_text("\n".join([header, *records[:2]]) + "\n")
    assert main(["metrics", "--logs", str(tmp_path / "logs"), "--metric", "best_so_far"]) == 1
    err = capsys.readouterr().err
    assert err == f"cego metrics: log {logs[0]} is unfinished: 2 records of a budget of 3\n"

    # CEGO_LOG_DIR overrides output_dir, and `cego run` prints each log path in it.
    monkeypatch.setenv("CEGO_LOG_DIR", str(tmp_path / "elsewhere"))
    assert main(["run", "--config", str(cfg_path)]) == 0
    moved = sorted((tmp_path / "elsewhere").glob("*.jsonl"))
    assert len(moved) == 2
    assert capsys.readouterr().out == "".join(f"{path}\n" for path in moved)


def test_oracle_subcommand_writes_reference(tmp_path, capsys):
    out = tmp_path / "refs.json"
    assert main(["oracle", "--problem", "artificial", "--grid", "120x120", "--out", str(out)]) == 0
    refs = load_references(out)
    assert refs["artificial"]["grid"] == [120, 120]
    assert refs["artificial"]["j_star"] <= -1.7


def test_packaged_reference_matches_recomputation():
    # The frozen artificial entry must equal a fresh dense-grid enumeration.
    ref = get_reference("artificial")
    from cego.problems import artificial_problem

    problem = artificial_problem(g_thr=-0.6, grid=tuple(ref["grid"]), noise_std=0.0)
    values = artificial_values(problem.domain.grid, -0.6)
    feasible = values[:, 1] <= 0
    j_star = values[feasible, 0].min()
    assert ref["j_star"] == pytest.approx(j_star, abs=0)


def test_write_reference_merges_entries(tmp_path):
    out = tmp_path / "refs.json"
    write_reference("artificial", grid=(50, 50), path=out)
    before = load_references(out)
    assert set(before) == {"artificial"}
    write_reference("artificial", grid=(60, 60), path=out)
    after = load_references(out)
    assert after["artificial"]["grid"] == [60, 60]


def test_failed_reference_write_leaves_the_file_as_it_was(tmp_path, monkeypatch):
    out = tmp_path / "refs.json"
    write_reference("artificial", grid=(50, 50), path=out)
    before = out.read_bytes()

    def dump_half(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:100])
        raise OSError("No space left on device")

    monkeypatch.setattr(json, "dump", dump_half)
    with pytest.raises(OSError, match="No space left"):
        write_reference("artificial", grid=(60, 60), path=out)
    assert out.read_bytes() == before
    assert [path.name for path in tmp_path.iterdir()] == ["refs.json"]


# Modules a fresh interpreter must not load. scipy.stats (and the
# scipy.optimize it pulls in) would double the cold start of every interpreter
# that imports cego: the CLI, each script and each benchmark child.
# scipy.linalg's and scipy.special's package inits (through scipy._lib._util
# and scipy's array-API layers) would add as much again; cego.gp loads only the
# LAPACK extension, and cego.policies, at the first cei step, only the
# scipy.special extension that holds ndtr. The process pool
# (concurrent.futures.process and the multiprocessing it imports) is loaded
# only by a run with jobs > 1.
_LEFT_OUT = ("scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.special", "scipy._lib._util",
             "concurrent.futures.process", "multiprocessing")


# Modules that only some steps need, each loaded at the first step that runs
# it: scipy's package init (cego loads scipy's extensions from their files),
# its LAPACK (at the first factorization), the child-process machinery of the
# external problem, and numpy.ma, which np.unique loads in numpy >= 2.3.
_AT_FIRST_USE = ("scipy", "scipy.linalg._flapack", "subprocess", "cego.blackbox", "numpy.ma")
ARTIFICIAL_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "artificial.json"


def run_fresh(probe: str) -> str:
    """Run ``probe`` in a fresh interpreter that finds ``src`` first; its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def print_loaded(modules: tuple[str, ...]) -> str:
    """Probe code that prints which of ``modules`` the interpreter has loaded."""
    return f"print(' '.join(m for m in {modules!r} if m in sys.modules))"


_PRINT_LOADED = print_loaded(_LEFT_OUT)


@pytest.mark.parametrize("module", ["cego", "cego.cli"])
def test_import_leaves_out_scipy_stats(module):
    # Only a fresh interpreter shows what an import loads.
    assert run_fresh(f"import sys, {module}; {_PRINT_LOADED}").split() == []


@pytest.mark.parametrize("setup", [
    "import cego", "import cego.cli",
    f"from cego import RunConfig; RunConfig.from_json({str(ARTIFICIAL_CONFIG)!r})",
], ids=["cego", "cego.cli", "run-config"])
def test_startup_loads_nothing_a_step_loads(setup):
    # Importing cego and checking a run configuration factor nothing, run no
    # child process and dedupe no safe set.
    assert run_fresh(f"import sys; {setup}; {print_loaded(_AT_FIRST_USE)}").split() == []


def run_fresh_replication(tmp_path, policy: str, probe: str, **spec) -> str:
    """Run a budget-3 replication of ``policy`` (with the policy ``spec``
    settings) with ``jobs=1`` in a fresh interpreter, then ``probe``; its
    stdout."""
    config = {"problem": {"name": "artificial", "grid": [10, 10]},
              "policies": [{"name": policy, **spec}], "budget": 3, "seeds": [1],
              "output_dir": str(tmp_path / "logs"), "start": "none", "n_init_random": 1}
    out = run_fresh("import sys; from cego import RunConfig, run_experiment; "
                    f"run_experiment(RunConfig(**{config!r}), jobs=1); {probe}")
    (log,) = (tmp_path / "logs").glob("*.jsonl")
    assert len(log.read_text().splitlines()) == 4  # the header and three records
    return out


def test_config_replication_leaves_out_scipy_linalg_and_special(tmp_path):
    # A whole config replication (GP updates, lattice posteriors, the LCB
    # step) needs only the LAPACK extension, and a jobs=1 run no process pool.
    assert run_fresh_replication(tmp_path, "config", _PRINT_LOADED).split() == []


def test_config_replication_loads_lapack_without_scipy_init(tmp_path):
    probe = print_loaded(("scipy", "scipy.linalg._flapack"))
    assert run_fresh_replication(tmp_path, "config", probe).split() == ["scipy.linalg._flapack"]


def test_safeopt_lite_replication_leaves_out_numpy_ma(tmp_path):
    # The safe set is kept with a lattice mask, not np.unique or np.union1d.
    probe = print_loaded(("numpy.ma",))
    out = run_fresh_replication(tmp_path, "safeopt_lite", probe, safe_seed=[[6.0, 9.0]])
    assert out.split() == []


def test_cei_replication_leaves_out_scipy_special(tmp_path):
    # cei's normal CDF comes from scipy.special's compiled extension, loaded
    # by itself at the first cei step; the package init stays out.
    probe = f"{_PRINT_LOADED}; print('scipy.special._special_ufuncs' in sys.modules)"
    assert run_fresh_replication(tmp_path, "cei", probe).split() == ["True"]


@pytest.mark.parametrize("first, second", [("cego.gp", "scipy.linalg.lapack"),
                                           ("scipy.linalg.lapack", "cego.gp")])
def test_lapack_module_is_scipys_in_either_import_order(first, second):
    # cego.gp registers the extension under its own name at its first
    # factorization, so scipy.linalg reuses it when imported later, and
    # cego.gp reuses scipy's otherwise.
    steps = {"cego.gp": "import cego.gp as gp, numpy as np; gp._factor(np.eye(2), 1.0)",
             "scipy.linalg.lapack": "import scipy.linalg.lapack as lapack"}
    probe = (f"import sys; {steps[first]}; {steps[second]}; flapack = gp._lapack(); "
             "print(lapack.dpotrf is flapack.dpotrf, lapack.dtrtrs is flapack.dtrtrs, "
             "sys.modules['scipy.linalg._flapack'] is flapack)")
    assert run_fresh(probe).split() == ["True", "True", "True"]


@pytest.mark.parametrize("cego_first", [True, False], ids=["cego-first", "scipy-first"])
def test_ndtr_is_scipys_in_either_import_order(cego_first):
    # cego.policies registers scipy.special's extension under its own name,
    # so scipy.special reuses it when imported later, and cego reuses
    # scipy's otherwise.
    name = "scipy.special._special_ufuncs"
    steps = ["import cego.policies as policies; ndtr = policies._ndtr()", "import scipy.special"]
    first, second = steps if cego_first else steps[::-1]
    probe = (f"import sys; {first}; loaded = sys.modules[{name!r}]; "
             f"print('scipy.special' in sys.modules); {second}; "
             f"print(ndtr is scipy.special.ndtr, sys.modules[{name!r}] is loaded, "
             "loaded.ndtr is ndtr)")
    assert run_fresh(probe).split() == [str(not cego_first), "True", "True", "True"]


def test_run_configuration_errors_are_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CEGO_LOG_DIR", str(tmp_path / "logs"))
    infeasible = Path(__file__).resolve().parent.parent / "configs" / "artificial_infeasible.json"
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"problem": ')
    # Each of these ended in a TypeError from RunConfig(**raw).
    shapes = {}
    base = json.loads(infeasible.read_text())
    for name, raw in (("listed", [1, 2]),
                      ("misspelled", {**base, "budgett": 5}),
                      ("budgetless", {"problem": {"name": "artificial"}, "policies": [],
                                      "seeds": [1]}),
                      # A list label escaped as a TypeError from set(labels); a number
                      # as output_dir failed every replication.
                      ("listlabel", {**base, "policies": [{"name": "config", "label": ["a"]}]}),
                      ("numberdir", {**base, "output_dir": 5}),
                      # It ran no replication, wrote nothing and exited 0.
                      ("policyless", {**base, "policies": []})):
        shapes[name] = tmp_path / f"{name}.json"
        shapes[name].write_text(json.dumps(raw))
    for argv, phrase in (
        (["--config", str(infeasible), "--jobs", "0"], "jobs must be an int >= 1"),
        (["--config", str(malformed)], "Expecting value"),
        (["--config", str(tmp_path / "missing.json")], "No such file or directory"),
        (["--config", str(shapes["listed"])], "must be a JSON object"),
        (["--config", str(shapes["misspelled"])], "unknown configuration keys ['budgett']"),
        (["--config", str(shapes["budgetless"])], "configuration lacks keys ['budget']"),
        (["--config", str(shapes["listlabel"])], "policy label must be a non-empty string"),
        (["--config", str(shapes["numberdir"])], "output_dir must be a path string, got 5"),
        (["--config", str(shapes["policyless"])], "policies must list at least one"),
    ):
        assert main(["run", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and phrase in captured.err
        assert captured.err.startswith("cego run: ")
    assert not (tmp_path / "logs").exists()


def test_run_failed_replication_is_one_line(tmp_path, monkeypatch, capsys):
    # A replication that fails (here an external evaluator that exits at
    # once) escaped as a RuntimeError traceback. It exits 1, not the 2 of a
    # configuration error, and the line names the replication.
    monkeypatch.setenv("CEGO_LOG_DIR", str(tmp_path / "logs"))
    exits = [sys.executable, "-c", "raise SystemExit(3)"]
    config = {"problem": {"name": "external", "command": exits, "lower": [0.0], "upper": [1.0],
                          "grid": [5], "n_constraints": 1},
              "policies": [{"name": "random"}], "budget": 2, "seeds": [1], "start": "none"}
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("cego run: 1 replication(s) failed: policy=random seed=1: ")
    assert "external evaluator exited" in captured.err


@pytest.mark.parametrize("grid, phrase", [("10.5x5", "invalid literal for int()"),
                                          ("1x5", "grid_counts must be an int >= 2, got 1")])
def test_oracle_bad_grid_is_one_line(tmp_path, capsys, grid, phrase):
    out = tmp_path / "refs.json"
    assert main(["oracle", "--problem", "artificial", "--grid", grid, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cego oracle: ") and captured.err.count("\n") == 1
    assert phrase in captured.err
    assert not out.exists()


def run_small(tmp_path, problem, name="logs"):
    config = {"problem": {**problem, "grid": [10, 10]}, "policies": [{"name": "random"}],
              "budget": 2, "seeds": [1], "output_dir": str(tmp_path / name), "start": "none",
              "gp": {"lengthscale_factor": 0.05, "output_scale": 0.5, "noise_variance": 1e-4}}
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path)]) == 0
    return tmp_path / name


def test_metrics_unknown_reference_is_one_line(tmp_path, capsys):
    logs = run_small(tmp_path, {"name": "artificial"})
    capsys.readouterr()
    assert main(["metrics", "--logs", str(logs), "--problem", "nosuch"]) == 1
    assert capsys.readouterr().err == (
        "cego metrics: no reference entry for 'nosuch'; run the oracle subcommand\n")


def test_metrics_missing_inputs_are_one_line(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["metrics", "--logs", str(empty)]) == 1
    assert capsys.readouterr().err == f"cego metrics: no .jsonl logs under {empty}\n"
    logs = run_small(tmp_path, {"name": "artificial"})
    capsys.readouterr()
    assert main(["metrics", "--logs", str(logs)]) == 1
    assert capsys.readouterr().err == (
        "cego metrics: need --problem (for the frozen reference) or --j-star\n")
    assert main(["metrics", "--logs", str(logs), "--metric", "normalized", "--j-star", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cego metrics: the normalized metric needs --problem to load sigmas\n"


def test_metrics_checks_logs_against_the_reference(tmp_path, capsys):
    # The packaged artificial entry is the optimum for g_thr = -0.6; logs of
    # g_thr = 0.4, or of another problem, were tabulated against it.
    other_thr = run_small(tmp_path, {"name": "artificial", "g_thr": 0.4}, "thr")
    (log,) = other_thr.glob("*.jsonl")
    capsys.readouterr()
    assert main(["metrics", "--logs", str(other_thr), "--problem", "artificial"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"cego metrics: log {log} has problem g_thr=0.4; "
                            "the reference has g_thr=-0.6\n")
    for metric in ("constrained_regret", "normalized"):
        assert main(["metrics", "--logs", str(other_thr), "--problem", "williams_otto",
                     "--metric", metric]) == 1
        assert capsys.readouterr().err == (f"cego metrics: log {log} has problem "
                                           "name='artificial'; the reference has "
                                           "name='williams_otto'\n")
    # A log that leaves g_thr out ran at the default the reference was computed for.
    default_thr = run_small(tmp_path, {"name": "artificial"}, "default")
    assert main(["metrics", "--logs", str(default_thr), "--problem", "artificial"]) == 0
