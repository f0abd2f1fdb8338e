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


def test_run_and_metrics_round_trip(tmp_path, capsys):
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


def test_oracle_subcommand_writes_reference(tmp_path, capsys):
    out = tmp_path / "refs.json"
    assert main(["oracle", "--problem", "artificial", "--grid", "120x120", "--out", str(out)]) == 0
    refs = load_references(out)
    assert refs["artificial"]["grid"] == [120, 120]
    assert refs["artificial"]["j_star"] <= -1.7


def test_packaged_reference_matches_recomputation():
    # The frozen artificial entry must equal a fresh dense-grid enumeration.
    ref = get_reference("artificial", g_thr=-0.6)
    from cego.problems import artificial_problem

    problem = artificial_problem(g_thr=-0.6, grid=tuple(ref["grid"]), noise_std=0.0)
    values = artificial_values(problem.domain.grid, -0.6)
    feasible = values[:, 1] <= 0
    j_star = values[feasible, 0].min()
    assert ref["j_star"] == pytest.approx(j_star, abs=0)


def test_reference_g_thr_mismatch_rejected():
    with pytest.raises(ValueError):
        get_reference("artificial", g_thr=0.4)


def test_write_reference_merges_entries(tmp_path):
    out = tmp_path / "refs.json"
    write_reference("artificial", grid=(50, 50), path=out)
    before = load_references(out)
    assert set(before) == {"artificial"}
    write_reference("artificial", grid=(60, 60), path=out)
    after = load_references(out)
    assert after["artificial"]["grid"] == [60, 60]


@pytest.mark.parametrize("module", ["cego", "cego.cli"])
def test_import_leaves_out_scipy_stats(module):
    # scipy.stats (and the scipy.optimize it pulls in) would double the cold
    # start of every interpreter that imports cego: the CLI, each script and
    # each benchmark child. Only a fresh interpreter shows what an import loads.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    probe = (f"import sys, {module}; "
             "print(' '.join(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def test_run_configuration_errors_are_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CEGO_LOG_DIR", str(tmp_path / "logs"))
    infeasible = Path(__file__).resolve().parent.parent / "configs" / "artificial_infeasible.json"
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"problem": ')
    # Each of these ended in a TypeError from RunConfig(**raw).
    shapes = {}
    for name, raw in (("listed", [1, 2]),
                      ("misspelled", {**json.loads(infeasible.read_text()), "budgett": 5}),
                      ("budgetless", {"problem": {"name": "artificial"}, "policies": [],
                                      "seeds": [1]})):
        shapes[name] = tmp_path / f"{name}.json"
        shapes[name].write_text(json.dumps(raw))
    for argv, phrase in (
        (["--config", str(infeasible), "--jobs", "0"], "jobs must be an int >= 1"),
        (["--config", str(malformed)], "Expecting value"),
        (["--config", str(tmp_path / "missing.json")], "No such file or directory"),
        (["--config", str(shapes["listed"])], "must be a JSON object"),
        (["--config", str(shapes["misspelled"])], "unknown configuration keys ['budgett']"),
        (["--config", str(shapes["budgetless"])], "configuration lacks keys ['budget']"),
    ):
        assert main(["run", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and phrase in captured.err
        assert captured.err.startswith("cego run: ")
    assert not (tmp_path / "logs").exists()
