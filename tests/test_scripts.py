"""The shipped demo script runs against the current API."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name)],
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
