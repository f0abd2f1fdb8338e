import fcntl
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cego.logs as logs_mod
from cego.logs import LOG_DIR_ENV, load_log, log_path
from cego.runner import RunConfig, emit_metrics, run_experiment

from conftest import infeasible_config, resume_config, small_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
MANIFESTS = ROOT / "configs" / "manifests"
# The metric table CI writes into each config's log directory, if any.
TABLES = {"artificial": {"constrained_regret.csv"}, "williams_otto": {"normalized.csv"},
          "artificial_infeasible": {"best_so_far.csv"}}


def test_every_manifest_has_its_config():
    assert {p.stem for p in MANIFESTS.glob("*.sha256")} == {p.stem for p in CONFIGS}


@pytest.mark.parametrize("config_path", CONFIGS, ids=lambda p: p.stem)
def test_manifest_lists_exactly_the_logs_of_its_config(config_path, monkeypatch):
    # A config edit that adds, drops or renames a replication leaves a
    # manifest that no run can match; this names the difference at once.
    monkeypatch.delenv(LOG_DIR_ENV, raising=False)
    config = RunConfig.from_json(config_path)
    lines = (MANIFESTS / f"{config_path.stem}.sha256").read_text(encoding="utf-8").splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    names = [line.split("  ", 1)[1] for line in lines]
    assert len(set(names)) == len(names)
    logs = {log_path(config, spec, seed).name for spec in config.policies for seed in config.seeds}
    assert set(names) == logs | TABLES.get(config_path.stem, set())


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


@pytest.mark.parametrize("edit, problem", [
    (lambda records: records[1:], "line 2: t=2 where t=1"),
    # True == 1 == 1.0, so a first record with either t used to load as step 1.
    (lambda records: [{**records[0], "t": True}, *records[1:]],
     "line 2: t must be an int >= 1, got True"),
    (lambda records: [{**records[0], "t": 1.0}, *records[1:]],
     "line 2: t must be an int >= 1, got 1.0"),
    (lambda records: records + [{**records[-1], "t": 5}], "line 6: a record beyond the budget"),
    (lambda records: [records[0], logs_mod._record_dict(2, None, None, None), records[2]],
     "line 4: a record after the infeasible marker"),
    (lambda records: [records[0], {"t": 2}], "line 3: 'theta'"),
    (lambda records: [records[0], {**records[1], "decision": "foo"}, records[2]],
     "line 3: decision 'foo' is neither 'sample' nor 'infeasible'"),
    (lambda records: [records[0], {**records[1], "theta": None, "y": None}],
     "line 3: a sample record needs lists for theta and y"),
    (lambda records: [records[0], {**records[1], "decision": "infeasible"}],
     "line 3: an infeasible marker needs null theta, y and true"),
    # Records of another shape used to load; a metric dropped the extra outputs.
    (lambda records: [records[0], {**records[1], "y": [0.1, 0.2, 0.3], "true": [0.1]},
                      {**records[2], "theta": [0.0, 0.0, 0.0]}],
     "line 3: true and y differ in length: 1 and 3"),
    (lambda records: [records[0], {**records[1], "y": [0.1, 0.2, 0.3], "true": None}],
     "line 3: theta and y have lengths 2 and 3, the first record's 2 and 2"),
    (lambda records: [records[0], records[1], {**records[2], "theta": [0.0, 0.0, 0.0]}],
     "line 4: theta and y have lengths 3 and 2, the first record's 2 and 2"),
    (lambda records: [{**records[0], "true": [0.1, 0.2, 0.3]}, *records[1:]],
     "line 2: true and y differ in length: 3 and 2"),
], ids=["gap", "t-bool", "t-float", "over-budget", "after-infeasible", "missing-field",
        "unknown-decision", "sample-without-values", "infeasible-with-values",
        "true-shorter-than-y", "y-longer-than-first", "theta-longer-than-first",
        "first-true-longer-than-y"])
def test_load_log_names_the_first_bad_line(tmp_path, edit, problem):
    config = small_config(tmp_path, budget=4, seeds=(9,))
    (path,) = run_experiment(config)
    header, *records = path.read_text(encoding="utf-8").splitlines()
    records = edit([json.loads(line) for line in records])
    path.write_text("\n".join([header, *map(logs_mod._dumps, records)]) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"log {re.escape(str(path))} {problem}"):
        load_log(path)


@pytest.mark.parametrize("header", [
    '{"kind": ', '[1]', '{"kind": "run_header"}',
    '{"kind": "run_header", "budget": 1, "policy": {}}',
    '{"kind": "run_header", "budget": 1, "seed": 1, "policy": "config"}',
    '{"kind": "run_header", "budget": 1, "seed": 1, "policy": {}}',
    '{"kind": "run_header", "budget": 1, "seed": 1, "policy": {"name": 7}}',
    '{"kind": "run_header", "budget": 1, "seed": 1, "policy": {"name": "random", "label": 7}}',
    '{"kind": "run_header", "budget": 1, "seed": 1.0, "policy": {"name": "random"}}',
    '{"kind": "run_header", "budget": 0, "seed": 1, "policy": {"name": "random"}}',
    '{"kind": "run_header", "budget": "2", "seed": 1, "policy": {"name": "random"}}',
    '{"kind": "run_header", "budget": 1, "seed": 1, "policy": {"name": "random"}, '
    '"problem": "artificial"}',
    '{"kind": "run_header", "budget": 1, "seed": 1, "policy": {"name": "random"}, '
    '"problem": {"name": ["artificial"]}}',
])
def test_load_log_names_a_bad_header(tmp_path, header):
    # emit_metrics used to fail on these with a JSON, lookup or attribute
    # error naming no log, or to name the log but not its header.
    path = tmp_path / "bad.jsonl"
    path.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"log {re.escape(str(path))} line 1: "):
        emit_metrics([path], metric="best_so_far")


@pytest.mark.parametrize("field, value", [
    ("true", "Infinity"), ("true", "NaN"), ("y", "-Infinity"), ("theta", "1e999"),
    ("y", '"0.5"'), ("y", "true"), ("true", "null"),
])
def test_load_log_refuses_a_value_that_is_not_a_finite_number(tmp_path, field, value):
    # JSON parses NaN, Infinity and 1e999 to floats that are not finite: an
    # infinite true value was dropped from the running minimum, a NaN made
    # every row of the table nan, and a string was tabulated as it stood.
    (path,) = run_experiment(small_config(tmp_path, budget=3, seeds=(9,)))
    header, *records = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(records[1])
    record[field][0] = "@"
    records[1] = logs_mod._dumps(record).replace('"@"', value)
    path.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"log {re.escape(str(path))} line 3: "
                                         f"{field} must be a finite number"):
        load_log(path)


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


@pytest.mark.parametrize("before", [0, 3], ids=["marker-torn", "3-before-marker-torn"])
def test_resume_of_a_log_that_ends_in_the_marker(tmp_path, before):
    # The line `before` records ahead of the marker is cut in half.
    config = infeasible_config(tmp_path)
    (path,) = run_experiment(config)
    original = path.read_bytes()
    lines = original.split(b"\n")[:-1]
    assert json.loads(lines[-1])["decision"] == "infeasible"
    torn = len(lines) - 1 - before
    path.write_bytes(b"\n".join(lines[:torn]) + b"\n" + lines[torn][: len(lines[torn]) // 2])
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
