"""The benchmark's tracer still reaches every layer of a run.

``perfbench/tracing.py`` wraps each layer at the attribute its caller looks
it up under (``cego.runner.propose``, ``cego.runner.load_log``,
``cego.policies.evaluate_grid``, ``Problem.evaluate``, ``cego.hyperfit.GpModel``
and so on). If one of those names moves, the benchmark would report no time
for that layer; this test catches it in the suite. The layers checked are
those that ``perfbench/workloads.py`` requires of some workload.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from cego import policies, problems, references, runner

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # A dataclass looks its module up by name while the class is built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_records_a_span_for_every_layer(tmp_path):
    tracing = load_perfbench("tracing")
    layers = sorted({layer for workload in load_perfbench("workloads").WORKLOADS.values()
                     for layer in workload.layers})
    tracer = tracing.Tracer()
    originals = (runner.propose, runner.observe, runner.run_replication, runner.load_log,
                 runner.best_so_far_series, runner.emit_metrics, runner.run_experiment,
                 references.compute_reference, policies.evaluate_grid, problems.Problem.evaluate)
    tracing.install(tracer)
    try:
        config = runner.RunConfig(
            problem={"name": "artificial", "grid": [8, 8]},
            policies=[{"name": "config"}, {"name": "cei"}],
            budget=5,
            seeds=[1],
            output_dir=str(tmp_path),
            gp={"fit_every": 4},
        )
        paths = runner.run_experiment(config)
        # Resume one log cut after its header and two records.
        lines = paths[0].read_bytes().split(b"\n")
        paths[0].write_bytes(b"\n".join(lines[:3]) + b"\n")
        runner.run_experiment(config)
        table = runner.emit_metrics(paths, metric="best_so_far")
        lattice = problems.williams_otto_problem(grid=(3, 3))
        lattice.evaluate_batch(lattice.domain.grid)
        entry = references.compute_reference("artificial", grid=(3, 3))
    finally:
        tracer.uninstall()
    calls = Counter(span[tracing.NAME] for span in tracer.spans)
    assert len(layers) == 18
    assert [layer for layer in layers if calls[layer] == 0] == []
    assert calls["runner.replication"] == 4  # the run's two, then the resume's two
    assert len(table) == 1 + config.budget
    assert round(entry["j_star"], 3) == -0.839
    # Candidate models are counted through the ``GpModel`` name in cego.hyperfit.
    assert tracer.counters["hyperfit.candidates"] > 0
    assert originals == (runner.propose, runner.observe, runner.run_replication, runner.load_log,
                         runner.best_so_far_series, runner.emit_metrics, runner.run_experiment,
                         references.compute_reference, policies.evaluate_grid,
                         problems.Problem.evaluate)
