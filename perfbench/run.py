#!/usr/bin/env python3
"""Seeded wall-time benchmark of ``cego`` experiment grids.

Usage, from the repository root::

    python3 perfbench/run.py --workload art-config-long --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of one workload; with
``--trace 1`` the per-layer metrics of a separate traced run. The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is non-zero when a correctness check fails.
Workloads, metrics and the baseline are described in ``perfbench/README.md``.

This process imports only the standard library; every measured phase runs
in a child process (``worker.py``) so that ``peak_rss_mb`` is the workload's
own and numpy never loads here.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import (  # noqa: E402
    layer_stats,
    load_spans,
    nearest_rank,
    phase_breakdown,
    root_balance,
    self_times,
    tail_percentile,
    count_under,
)
from workloads import CONFIGS, ROOT, WORKLOADS  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0
ROOT_BALANCE_TOLERANCE = 0.01
POLICY_LABELS = ("config", "cei", "epbo_0.2", "epbo_3.0", "primal_dual", "safeopt_lite", "random")


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(self.end - time.monotonic(), 1.0)


def _worker(mode: str, args, out: Path) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out)]


def setup_probe(args, out: Path, deadline: Deadline) -> float:
    """Seconds from spawning an interpreter until it reports the first replication ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(_worker("setup", args, out), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=deadline.left())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def run_child(mode: str, args, out: Path, deadline: Deadline) -> dict:
    # Children's chatter goes to stderr: stdout's last line is the result.
    subprocess.run(_worker(mode, args, out), stdout=sys.stderr, check=True,
                   timeout=deadline.left())
    return json.loads((out / f"{mode}.json").read_text(encoding="utf-8"))


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def end_to_end(setup_s: list[float], res: dict) -> dict:
    passes = res["passes"]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
        "resume_s": (statistics.median(p["resume_s"] for p in passes), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict, ref: dict, spans, counters):
    selfs = self_times(spans)
    stats = layer_stats(spans, selfs)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}

    def get(name):
        return stats.get(name, empty)

    traced, untraced = res["traced"], res["passes"][0]
    propose_ms = [1e3 * (s[2] - s[1]) for s in spans if s[0] == "policies.propose"]
    tail = tail_percentile(propose_ms) or (0, 0.0, len(propose_ms))
    candidates = counters.get("hyperfit.candidates", 0)
    replications = get("runner.replication")["calls"]
    metrics = {
        "kernels.cross.calls": (get("kernels.cross")["calls"], "count"),
        "kernels.cross.entries": (get("kernels.cross")["work"], "count"),
        "kernels.cross.self_s": (get("kernels.cross")["self_s"], "s"),
        "gp.posterior_batch.calls": (get("gp.posterior_batch")["calls"], "count"),
        "gp.posterior_batch.self_s": (get("gp.posterior_batch")["self_s"], "s"),
        "gp.add.calls": (get("gp.add")["calls"], "count"),
        "gp.add.self_s": (get("gp.add")["self_s"], "s"),
        **{name: (ms, "ms") for name, ms in res["sweep"].items()},
        "grid_eval.evaluate_grid.calls": (get("grid_eval.evaluate_grid")["calls"], "count"),
        "grid_eval.evaluate_grid.self_s": (get("grid_eval.evaluate_grid")["self_s"], "s"),
        "policies.propose.calls": (get("policies.propose")["calls"], "count"),
        "policies.propose.self_s": (get("policies.propose")["self_s"], "s"),
        "policies.propose_ms.p50": (
            nearest_rank(sorted(propose_ms), 50) if propose_ms else 0.0, "ms"),
        "policies.propose_ms.tail": (tail[1], "ms"),
        "policies.propose_ms.tail_pct": (tail[0], "%"),
        "policies.propose_ms.n": (tail[2], "count"),
        "policies.observe.self_s": (get("policies.observe")["self_s"], "s"),
        **{
            f"policies.{label}.replication_s": (
                statistics.median(untraced["replication_s"][label])
                if label in untraced["replication_s"] else 0.0, "s")
            for label in POLICY_LABELS
        },
        "hyperfit.fit.calls": (get("hyperfit.fit")["calls"], "count"),
        "hyperfit.fit.self_s": (get("hyperfit.fit")["self_s"], "s"),
        "hyperfit.candidates": (candidates, "count"),
        "hyperfit.valid_ratio": (
            counters.get("hyperfit.valid", 0) / candidates if candidates else 0.0, "ratio"),
        "cstr.steady_state.calls": (get("cstr.steady_state")["calls"], "count"),
        "cstr.steady_state.self_s": (get("cstr.steady_state")["self_s"], "s"),
        "problems.evaluate.calls": (get("problems.evaluate")["calls"], "count"),
        "problems.evaluate.self_s": (get("problems.evaluate")["self_s"], "s"),
        "runner.start_evaluations": (
            count_under(spans, "problems.evaluate", "runner.feasible_start") / replications
            if replications else 0.0, "count"),
        "metrics.compute_normalizers_s": (get("metrics.compute_normalizers")["total_s"], "s"),
        "metrics.best_so_far_series_s": (get("metrics.best_so_far_series")["total_s"], "s"),
        "references.compute_reference.self_s": (
            get("references.compute_reference")["self_s"], "s"),
        "reference_s": (ref["reference_s"], "s"),
        "runner.replication.self_s": (get("runner.replication")["self_s"], "s"),
        "runner.replayed_steps": (traced["replayed_steps"], "count"),
        "runner.load_log_s": (get("runner.load_log")["total_s"], "s"),
        "runner.emit_metrics_s": (get("runner.emit_metrics")["total_s"], "s"),
        "runner.log_bytes": (traced["log_bytes"], "bytes"),
        "domain.grid_build_s": (get("domain.grid_build")["total_s"], "s"),
        "trace.overhead_frac": (traced["run_s"] / untraced["run_s"] - 1.0, "ratio"),
        "regret.median": (statistics.median(res["regret"]), "regret"),
        "failed_frac": (traced["failed"] / traced["attempted"], "ratio"),
    }
    return metrics, stats, selfs


def trace_checks(workload, spans, selfs, stats) -> list[tuple[str, bool, str]]:
    missing = [name for name in workload.layers if stats.get(name, {}).get("calls", 0) == 0]
    worst = 0.0
    for duration, total in root_balance(spans, selfs).values():
        worst = max(worst, abs(total - duration) / duration if duration > 0 else 0.0)
    return [
        ("wrapper_coverage", not missing, f"layers with no call: {missing}" if missing else
         f"{len(workload.layers)} layers recorded calls"),
        ("self_time_sums_to_root", worst <= ROOT_BALANCE_TOLERANCE,
         f"worst relative gap {worst:.2e}"),
    ]


def print_breakdown(spans, selfs):
    for phase, names in phase_breakdown(spans, selfs).items():
        total = sum(names.values())
        top = sorted(names.items(), key=lambda kv: -kv[1])[:6]
        parts = ", ".join(f"{n} {100 * s / total:.1f}%" for n, s in top)
        print(f"phase {phase}: {total:.3f} s self time; {parts}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    needed = {ROOT / "src" / "cego" / "__init__.py"} | {
        CONFIGS / w.config_file for w in WORKLOADS.values()}
    absent = sorted(str(p.relative_to(ROOT)) for p in needed if not p.is_file())
    if absent:
        print(f"perfbench: run from a checkout of the repository; missing {absent}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    deadline = Deadline(TIME_LIMIT_S)
    out = OUT_DIR / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    checks: list[tuple[str, bool, str]] = []
    attempted = failed = 0
    metrics: dict = {}
    try:
        setup_s = [] if args.trace else [
            setup_probe(args, out, deadline) for _ in range(SETUP_PROBES)]
        res = run_child("workload", args, out, deadline)
        ref = run_child("reference", args, out, deadline) if args.trace else None
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: a measured phase failed: {exc}", file=sys.stderr)
        checks.append(("phases_completed", False, str(exc)))
        res = ref = None

    if res is not None:
        passes = res["passes"] + ([res["traced"]] if args.trace else [])
        attempted = sum(p["attempted"] for p in passes) + (ref["computations"] if ref else 0)
        failed = sum(p["failed"] for p in passes)
        print("env " + json.dumps(res["env"], sort_keys=True))
        print(f"logs sha256 {passes[0]['sha256']} seed {args.seed} workload {args.workload}")
        checks += [
            ("no_failed_replications", failed == 0, f"{failed} of {attempted} failed"),
            ("resume_identical", all(p["resume_identical"] for p in passes),
             "resumed logs byte-identical to the fresh logs"),
            ("passes_identical", len({p["sha256"] for p in passes}) == 1,
             f"{len(passes)} passes, one log sha256"),
            ("regret_finite", all(math.isfinite(r) for r in res["regret"]),
             f"{len(res['regret'])} replications"),
        ]
        if args.trace:
            checks.append(("reference_equal", ref["reference_equal"],
                           f"recomputed {workload.reference} entry equals "
                           "cego/data/references.json"))
            spans, counters = load_spans(
                [out / "workload.spans.jsonl", out / "reference.spans.jsonl"])
            metrics, stats, selfs = per_layer(res, ref, spans, counters)
            checks += trace_checks(workload, spans, selfs, stats)
            print_breakdown(spans, selfs)
        else:
            metrics = end_to_end(setup_s, res)
            print(f"samples: setup {len(setup_s)}, passes {len(res['passes'])}")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {_fmt(value)} {unit}")
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    correct = bool(checks) and all(ok for _, ok, _ in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if res is not None else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
