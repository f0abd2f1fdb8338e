import re
from pathlib import Path

import pytest

from cego.logs import LOG_DIR_ENV, log_path
from cego.runner import RunConfig

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
