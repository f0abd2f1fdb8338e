"""One measured phase of the benchmark, run in its own process by ``run.py``.

Modes:

``setup``
    Import ``cego``, build the workload's problem and its lattice, load the
    frozen references, then print ``ready``. The parent times it from spawn.
``workload``
    Fresh replication grid, then the midpoint resume of the same grid, in
    passes (at least two) until ``--seconds`` have elapsed; with ``--trace 1``
    one untraced and one traced pass, the regret table, and the posterior
    scaling sweep.
``reference`` (traced runs only)
    Recompute the workload's frozen reference entry once, timed, then once
    more, traced, and compare both with the shipped one.

Results go to ``<out>/<mode>.json``; spans to ``<out>/<mode>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install  # noqa: E402
from workloads import ROOT, WORKLOADS, Workload  # noqa: E402

# numpy and cego are imported inside the functions below, only after main()
# has pinned the BLAS thread count, which must happen before numpy loads.
BLAS_THREADS = 1
NPROC = len(os.sched_getaffinity(0))

SWEEP_STEPS = (10, 30, 100, 300)
SWEEP_SIDES = (100, 200)  # lattices of G = 10^4 and 4*10^4 points
SWEEP_REPEATS = 3
MIN_PASSES = 2


def _phase(tracer: Tracer | None, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(f"phase.{name}")


def _log_set(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.jsonl"))}


def log_set_sha256(logs: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name in sorted(logs):
        digest.update(name.encode() + b"\0" + logs[name] + b"\0")
    return digest.hexdigest()


def cut_at_midpoint(data: bytes) -> bytes:
    """Keep the header and the first half of the records, plus half a line."""
    lines = data.split(b"\n")[:-1]
    keep = 1 + (len(lines) - 1) // 2
    partial = lines[keep][: len(lines[keep]) // 2] if keep < len(lines) else b'{"t":'
    return b"\n".join(lines[:keep]) + b"\n" + partial


def _complete(data: bytes, budget: int) -> bool:
    records = [json.loads(line) for line in data.split(b"\n")[1:] if line]
    return bool(records) and (records[-1]["decision"] == "infeasible" or len(records) >= budget)


def _meta(directory: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(directory.glob("*.meta.json"))]


def one_pass(w: Workload, seed: int, directory: Path, tracer: Tracer | None) -> dict:
    """Fresh grid, then cut every log at its midpoint and resume the grid."""
    from cego import runner

    config = runner.RunConfig(**w.run_config(seed, directory))
    expected = len(config.policies) * len(config.seeds)
    failed = 0
    start = time.perf_counter()
    with _phase(tracer, "run"):
        try:
            runner.run_experiment(config, jobs=1)
        except RuntimeError as exc:
            print(f"fresh run failed: {exc}", file=sys.stderr)
    run_s = time.perf_counter() - start

    fresh = _log_set(directory)
    failed += expected - sum(_complete(data, config.budget) for data in fresh.values())
    labels = {name: runner.policy_label(json.loads(data.split(b"\n", 1)[0])["policy"])
              for name, data in fresh.items()}
    replication_s = {}
    for meta in _meta(directory):
        replication_s.setdefault(labels[meta["log"]], []).append(
            meta["finished_at"] - meta["started_at"])

    for name, data in fresh.items():
        (directory / name).write_bytes(cut_at_midpoint(data))
    start = time.perf_counter()
    with _phase(tracer, "resume"):
        try:
            runner.run_experiment(config, jobs=1)
        except RuntimeError as exc:
            print(f"resume failed: {exc}", file=sys.stderr)
    resume_s = time.perf_counter() - start
    resumed = _log_set(directory)
    failed += expected - sum(_complete(data, config.budget) for data in resumed.values())

    return {
        "run_s": run_s,
        "resume_s": resume_s,
        "attempted": 2 * expected,
        "failed": failed,
        "sha256": log_set_sha256(fresh),
        "resume_identical": resumed == fresh,
        "replication_s": replication_s,
        "replayed_steps": sum(m["resumed_at_step"] for m in _meta(directory)),
        "log_bytes": sum(len(data) for data in fresh.values()),
    }


def regret_finals(w: Workload, directory: Path, tracer: Tracer | None) -> list[float]:
    """Final best-so-far regret of each replication, via ``emit_metrics``."""
    from cego import runner
    from cego.references import get_reference

    ref = get_reference(w.reference)
    sigmas = ref["sigmas"] if w.regret_metric == "normalized" else None
    with _phase(tracer, "regret"):
        return [
            runner.emit_metrics([p], metric=w.regret_metric, j_star=ref["j_star"],
                                sigmas=sigmas)[-1][1]
            for p in sorted(directory.glob("*.jsonl"))
        ]


def posterior_sweep(seed: int) -> dict[str, float]:
    """Milliseconds of one ``posterior_batch`` call per (t, G), synthetic data."""
    import numpy as np

    from cego import Domain, GpModel, Kernel

    rng = np.random.default_rng([seed, 7])
    out = {}
    for side in SWEEP_SIDES:
        grid = Domain([0.0, 0.0], [1.0, 1.0], (side, side)).grid
        for t in SWEEP_STEPS:
            model = GpModel(Kernel("squared_exponential", (0.1, 0.1)), 1e-4)
            for x in rng.uniform(size=(t, 2)):
                model = model.add(x, np.sin(6 * x[0]) * np.cos(4 * x[1]))
            times = []
            for _ in range(SWEEP_REPEATS):
                start = time.perf_counter()
                model.posterior_batch(grid)
                times.append(time.perf_counter() - start)
            out[f"gp.posterior_batch_ms.t{t}.G{side * side}"] = 1e3 * statistics.median(times)
    return out


def warm_up(w: Workload):
    """One untimed lattice posterior at the workload's largest step count.

    The first replication in a fresh process otherwise pays for growing the
    allocator's heap (about 0.6 s of page faults on a 10^4 lattice), which
    a user running a grid of replications pays only once.
    """
    import numpy as np

    from cego import GpModel, Kernel, problem_from_config

    grid = problem_from_config(w.problem()).domain.grid
    X = grid[np.linspace(0, len(grid) - 1, w.budget).astype(int)]
    model = GpModel(Kernel("squared_exponential", np.ptp(grid, axis=0) / 10), 1e-2)
    for x in X:
        model = model.add(x, 0.0)
    model.posterior_batch(grid)


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, when it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            return int(getter())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": _blas_threads(),
    }


def mode_setup(w: Workload, args) -> dict:
    import cego
    from cego.references import get_reference

    config = cego.RunConfig(**w.run_config(args.seed, args.out / "setup"))
    cego.problem_from_config(config.problem).domain.grid
    get_reference(w.reference)
    print("ready", flush=True)
    return {}


def mode_workload(w: Workload, args) -> dict:
    import resource

    result = {"env": environment(), "passes": []}
    warm_up(w)
    deadline = time.perf_counter() + args.seconds
    passes = result["passes"]
    while True:
        passes.append(one_pass(w, args.seed, args.out / f"pass{len(passes)}", None))
        if args.trace or (len(passes) >= MIN_PASSES and time.perf_counter() >= deadline):
            break
    if not args.trace:
        result["regret"] = regret_finals(w, args.out / "pass0", None)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result

    tracer = Tracer()
    install(tracer)
    try:
        result["traced"] = one_pass(w, args.seed, args.out / "traced", tracer)
        result["regret"] = regret_finals(w, args.out / "traced", tracer)
    finally:
        tracer.uninstall()
        tracer.dump(args.out / "workload.spans.jsonl")
    result["sweep"] = posterior_sweep(args.seed)
    return result


def mode_reference(w: Workload, args) -> dict:
    from cego import references

    packaged = references.load_references()[w.reference]
    start = time.perf_counter()
    entry = references.compute_reference(w.reference)
    seconds = time.perf_counter() - start
    # Bit-for-bit: the JSON round trip is how the shipped file was written.
    equal = [json.loads(json.dumps(entry)) == packaged]
    tracer = Tracer()
    install(tracer)
    try:
        with tracer.span("phase.reference"):
            entry = references.compute_reference(w.reference)
        equal.append(json.loads(json.dumps(entry)) == packaged)
    finally:
        tracer.uninstall()
        tracer.dump(args.out / "reference.spans.jsonl")
    return {"reference_s": seconds, "computations": len(equal), "reference_equal": all(equal)}


MODES = {"setup": mode_setup, "workload": mode_workload, "reference": mode_reference}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    # One BLAS thread and one CPU: a run uses one core on any machine and
    # does not migrate between cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.pop("CEGO_LOG_DIR", None)  # would redirect every log away from --out
    sys.path.insert(0, str(ROOT / "src"))
    result = MODES[args.mode](WORKLOADS[args.workload], args)
    if args.mode != "setup":
        (args.out / f"{args.mode}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
