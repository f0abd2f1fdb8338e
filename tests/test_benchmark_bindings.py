"""The benchmark's tracer still reaches every layer of a run.

``perfbench/tracing.py`` wraps each layer at the attribute its caller looks
it up under (``cego.runner.propose``, ``cego.policies.evaluate_grid``,
``Problem.evaluate``, ``cego.hyperfit.GpModel`` and so on). If one of those
names moves, the benchmark would report no time for that layer; this test
catches it in the suite.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from cego import policies, problems, references, runner

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

LAYERS = (
    "kernels.cross", "gp.posterior_batch", "gp.add", "grid_eval.evaluate_grid",
    "policies.propose", "policies.observe", "problems.evaluate", "runner.replication",
    "runner.feasible_start", "cstr.steady_state", "metrics.compute_normalizers", "hyperfit.fit",
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_a_span_for_every_layer(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    originals = (runner.propose, runner.observe, runner.run_replication,
                 policies.evaluate_grid, problems.Problem.evaluate)
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
        runner.run_experiment(config)
        lattice = problems.williams_otto_problem(grid=(3, 3))
        references.compute_normalizers(lattice.evaluate_batch(lattice.domain.grid))
    finally:
        tracer.uninstall()
    calls = Counter(span[tracing.NAME] for span in tracer.spans)
    assert [layer for layer in LAYERS if calls[layer] == 0] == []
    assert calls["runner.replication"] == 2
    # Candidate models are counted through the ``GpModel`` name in cego.hyperfit.
    assert tracer.counters["hyperfit.candidates"] > 0
    assert originals == (runner.propose, runner.observe, runner.run_replication,
                         policies.evaluate_grid, problems.Problem.evaluate)
