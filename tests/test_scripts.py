"""The shipped scripts run against the current API."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )


def load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_external_blackbox_demo_runs_to_completion():
    result = run_script("demo_external_blackbox.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].startswith("t=15 ")


def test_external_blackbox_demo_closes_its_problem(monkeypatch):
    demo = load_script("demo_external_blackbox.py")
    build, problems = demo.external_problem, []

    def recording_problem(*args, **kwargs):
        problems.append(build(*args, **kwargs))
        return problems[-1]

    monkeypatch.setattr(demo, "external_problem", recording_problem)
    demo.main()
    (problem,) = problems
    assert problem.oracle._proc is None  # the child was stopped


@pytest.mark.parametrize("name", ["run_artificial.py", "run_williams_otto.py"])
def test_experiment_script_help(name):
    result = run_script(name, "--help")
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout


@pytest.mark.parametrize("name, config", [("run_artificial.py", "artificial.json"),
                                          ("run_williams_otto.py", "williams_otto.json")])
def test_experiment_script_names_the_log_directory(tmp_path, monkeypatch, capsys, name, config):
    # CEGO_LOG_DIR overrides the configuration's output_dir, and the script
    # must name the directory the logs went to.
    settings = json.loads((ROOT / "configs" / config).read_text(encoding="utf-8"))
    settings["problem"]["grid"] = [8, 8]
    settings.update(budget=3, seeds=[1], output_dir=str(tmp_path / "unused"))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(settings), encoding="utf-8")
    monkeypatch.setenv("CEGO_LOG_DIR", str(tmp_path / "logs"))
    monkeypatch.setattr(sys, "argv", [name, "--config", str(config_path),
                                      "--out", str(tmp_path / "table.csv")])
    load_script(name).main()
    assert f"replication logs in {(tmp_path / 'logs').resolve()}\n" in capsys.readouterr().out
    assert (tmp_path / "table.csv").exists() and not (tmp_path / "unused").exists()


@pytest.mark.parametrize("name, problem, reference", [
    ("run_artificial.py", {"g_thr": 0.4}, "g_thr=-0.6"),
    ("run_williams_otto.py", {}, "name='williams_otto'"),
], ids=["artificial-other-g_thr", "williams_otto-other-problem"])
def test_experiment_script_checks_logs_against_the_reference(tmp_path, monkeypatch, name,
                                                             problem, reference):
    # The table is refused when the logs are not of the problem and settings
    # the packaged reference was computed for.
    settings = json.loads((ROOT / "configs" / "artificial.json").read_text(encoding="utf-8"))
    settings["problem"].update(grid=[8, 8], **problem)
    settings.update(budget=3, seeds=[1], policies=[{"name": "random"}])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(settings), encoding="utf-8")
    monkeypatch.setenv("CEGO_LOG_DIR", str(tmp_path / "logs"))
    monkeypatch.setattr(sys, "argv", [name, "--config", str(config_path),
                                      "--out", str(tmp_path / "table.csv")])
    with pytest.raises(ValueError, match=f"the reference has {reference}$"):
        load_script(name).main()
    assert not (tmp_path / "table.csv").exists()
