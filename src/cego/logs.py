"""The run log format: its writer's pieces, its reader and its lock.

Log layout: one JSONL file per (policy, seed). The first line is a header
object carrying the full effective configuration; every further line is a
step record ``{"t", "theta", "y", "true", "decision"}``. A replication holds
an exclusive ``flock`` on its log from before it reads the log until its last
write, so a second run on the same output directory stops that replication
with an error naming the log instead of interleaving records with the first.

``cego.runner`` writes and resumes logs with these pieces: its one writer,
in ``run_replication``, appends the header and each record as one flushed
line. Every reader, ``runner.emit_metrics`` included, goes through
``load_log``. Files that are rewritten whole, a log's ``.meta.json`` sidecar
and the reference file (``cego.references``), go through ``_write_whole``.
"""

from __future__ import annotations

import fcntl
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

import numpy as np

from . import __version__
from .domain import finite_real, int_at_least

if TYPE_CHECKING:
    from .runner import RunConfig

__all__ = ["LOG_DIR_ENV", "RunRecord", "load_log", "log_path", "policy_label"]

LOG_DIR_ENV = "CEGO_LOG_DIR"


@dataclass(frozen=True)
class RunRecord:
    """One step of one run: where we sampled and what we measured."""

    t: int
    theta: tuple[float, ...] | None
    y: tuple[float, ...] | None
    true_values: tuple[float, ...] | None = None
    decision: str = "sample"

    def outputs(self) -> np.ndarray:
        """Oracle values when available, else measurements."""
        values = self.true_values if self.true_values is not None else self.y
        if values is None:
            raise ValueError(f"record at t={self.t} carries no output values")
        return np.asarray(values, dtype=float)


def policy_label(spec: dict) -> str:
    return spec.get("label", spec["name"])


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _record_dict(t: int, theta, y, true) -> dict:
    """A sampled step's record, or the ``infeasible`` marker when ``theta`` is None."""
    return {
        "t": t,
        "theta": None if theta is None else [float(v) for v in theta],
        "y": None if y is None else [float(v) for v in y],
        "true": None if true is None else [float(v) for v in true],
        "decision": "sample" if theta is not None else "infeasible",
    }


def log_path(config: RunConfig, policy_spec: dict, seed: int) -> Path:
    out_dir = Path(os.environ.get(LOG_DIR_ENV, config.output_dir))
    name = f"{config.problem['name']}__{policy_label(policy_spec)}__seed{seed}.jsonl"
    return out_dir / name


def _header(config: RunConfig, policy_spec: dict, seed: int) -> dict:
    return {
        "kind": "run_header",
        "schema": 1,
        "version": __version__,
        "problem": config.problem,
        "policy": policy_spec,
        "budget": config.budget,
        "seed": seed,
        "start": config.start,
        "n_init_random": config.n_init_random,
        "gp": config.gp,
    }


def load_log(path) -> tuple[dict, list[RunRecord]]:
    """Parse a log file into its header and complete records.

    A trailing line without a newline (truncated write) is ignored. The
    header must carry an int ``budget`` >= 1, an int ``seed`` >= 0, a
    ``policy`` object with a string ``name`` (and ``label``, if any) and, if
    any, a ``problem`` object with a string ``name``, and the records must
    run int ``t = 1, 2, ...`` with no gap or repeat, number at most the header's
    ``budget``, and hold an ``infeasible`` marker only as the last one. A
    ``sample`` record holds lists ``theta`` and ``y`` and a list or null
    ``true``, each list of finite numbers, ``true`` as long as ``y``, and
    ``theta`` and ``y`` as long as the first record's; the marker holds null
    for all three. Otherwise a ``ValueError`` names the log and the first bad
    line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    # The last element is "" after a final newline, else an incomplete line.
    lines = text.split("\n")[:-1]
    if not lines:
        raise ValueError(f"log {path} has no header line")
    records: list[RunRecord] = []
    number = 1
    try:
        header = json.loads(lines[0])
        if not isinstance(header, dict) or header.get("kind") != "run_header":
            raise ValueError("not a run header")
        budget = int_at_least("budget", header["budget"], 1)
        int_at_least("seed", header["seed"], 0)
        policy = header["policy"]
        if not (isinstance(policy, dict) and isinstance(policy.get("name"), str)
                and isinstance(policy_label(policy), str)):
            raise ValueError(f"policy must be an object with a string 'name' and, if any, "
                             f"'label', got {policy!r}")
        if "problem" in header and not (isinstance(header["problem"], dict)
                                        and isinstance(header["problem"].get("name"), str)):
            raise ValueError(f"problem must be an object with a string 'name', "
                             f"got {header['problem']!r}")
        for number, line in enumerate(lines[1:], start=2):
            records.append(_next_record(json.loads(line), records, budget))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"log {path} line {number}: {exc}") from exc
    return header, records


def _next_record(raw: dict, records: list[RunRecord], budget: int) -> RunRecord:
    """The record that ``raw`` holds, if it may follow ``records`` in a log of ``budget`` steps."""
    due = len(records) + 1
    if int_at_least("t", raw["t"], 1) != due:
        raise ValueError(f"t={raw['t']} where t={due} was due")
    if due > budget:
        raise ValueError(f"a record beyond the budget of {budget}")
    if records and records[-1].decision == "infeasible":
        raise ValueError("a record after the infeasible marker")
    theta, y, true, decision = raw["theta"], raw["y"], raw["true"], raw["decision"]
    if decision == "sample":
        if not (isinstance(theta, list) and isinstance(y, list)
                and (true is None or isinstance(true, list))):
            raise ValueError("a sample record needs lists for theta and y, "
                             "and a list or null for true")
        if true is not None and len(true) != len(y):
            raise ValueError(f"true and y differ in length: {len(true)} and {len(y)}")
        # Only the last record may be the marker, so any record before this one is a sample.
        if records and (len(theta), len(y)) != (len(records[0].theta), len(records[0].y)):
            raise ValueError(f"theta and y have lengths {len(theta)} and {len(y)}, the first "
                             f"record's {len(records[0].theta)} and {len(records[0].y)}")
    elif decision == "infeasible":
        if (theta, y, true) != (None, None, None):
            raise ValueError("an infeasible marker needs null theta, y and true")
    else:
        raise ValueError(f"decision {decision!r} is neither 'sample' nor 'infeasible'")
    return RunRecord(
        t=raw["t"],
        theta=_finite_values("theta", theta),
        y=_finite_values("y", y),
        true_values=_finite_values("true", true),
        decision=decision,
    )


def _finite_values(what: str, values: list | None) -> tuple | None:
    """``values`` as a tuple, or None; ``ValueError`` unless each is a finite number.

    JSON parses ``NaN``, ``Infinity`` and ``1e999`` to floats that are not finite.
    """
    if values is None:
        return None
    # Checked in place: a tuple built from a generator of the checked values
    # raised the peak resident size a little more at every resume.
    for value in values:
        finite_real(what, value)
    return tuple(values)


def _finished(records: list[RunRecord], budget: int) -> bool:
    """Whether a log's records end its run: the whole budget, or an infeasibility declaration."""
    return len(records) >= budget or (bool(records) and records[-1].decision == "infeasible")


def _cut_torn_line(path: Path) -> int:
    """Cut a last line that lacks its newline (a torn write) off the log, in place.

    Returns the log's length after the cut: 0 when it held no complete line.
    """
    data = path.read_bytes()
    size = data.rfind(b"\n") + 1
    if size < len(data):
        os.truncate(path, size)
    return size


def _lock_log(fh: TextIO, path: Path):
    """Take the log's exclusive lock for this replication, or raise ``RuntimeError`` naming it.

    One writer per log: two runs appending to one log interleave their
    records. The lock is ``flock``'s, on the open file, so the kernel drops it
    when the file is closed or its process dies and no stale lock is left.
    """
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        raise RuntimeError(
            f"log {path} is being written by another run; wait for it or change output_dir"
        ) from None


def _write_whole(path: Path, text: str):
    """Write ``text`` to ``path`` through a temporary file beside it and ``os.replace``.

    A reader sees the previous file or the new one, whole: a run killed
    mid-write leaves at most the temporary ``<name>.tmp``, which the next
    write replaces. A write or replace that fails removes it.
    """
    temporary = path.with_name(path.name + ".tmp")
    try:
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
