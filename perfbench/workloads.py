"""The benchmark's workloads: which experiment grid each runs, made from a seed.

Every workload is driven through the public ``cego`` API, single process,
with ``run_experiment(jobs=1)``. The workload seed only picks the
replication seeds, so a later claim can be checked on a seed nobody tuned
against. Standard library only at import time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Layers that must record at least one call in a traced run of every workload;
# a binding mistake in the wrappers then fails loudly instead of reading 0 s.
COMMON_LAYERS = (
    "kernels.cross", "gp.posterior_batch", "gp.add", "grid_eval.evaluate_grid",
    "policies.propose", "policies.observe", "problems.evaluate",
    "runner.run_experiment", "runner.replication", "runner.load_log", "runner.emit_metrics",
    "metrics.best_so_far_series", "metrics.compute_normalizers",
    "references.compute_reference", "domain.grid_build",
)


@dataclass(frozen=True)
class Workload:
    name: str
    config_file: str
    budget: int
    n_seeds: int
    reference: str  # problem whose frozen reference entry is recomputed
    regret_metric: str  # emit_metrics metric for regret.median
    policies: tuple[str, ...] | None = None  # labels kept from the config; None = all
    gp_overrides: dict = field(default_factory=dict)
    extra_layers: tuple[str, ...] = ()

    @property
    def layers(self) -> tuple[str, ...]:
        return COMMON_LAYERS + self.extra_layers

    def _config(self) -> dict:
        return json.loads((CONFIGS / self.config_file).read_text(encoding="utf-8"))

    def problem(self) -> dict:
        return self._config()["problem"]

    def run_config(self, seed: int, output_dir) -> dict:
        """Keyword arguments of ``cego.RunConfig`` for this workload and seed."""
        raw = self._config()
        policies = raw["policies"]
        if self.policies is not None:
            policies = [p for p in policies if p.get("label", p["name"]) in self.policies]
        return {
            "problem": raw["problem"],
            "policies": policies,
            "budget": self.budget,
            "seeds": replication_seeds(seed, self.n_seeds),
            "output_dir": str(output_dir),
            "start": raw.get("start", "feasible"),
            "n_init_random": raw.get("n_init_random", 0),
            "gp": {**raw["gp"], **self.gp_overrides},
        }


def replication_seeds(seed: int, n: int) -> list[int]:
    return random.Random(seed).sample(range(1, 1_000_000), n)


WORKLOADS = {
    w.name: w
    for w in (
        # Long replications on G = 10^4: step cost grows as O(t*G*d + t^2*G),
        # so kernel cross-covariance and the lattice posterior dominate.
        Workload("art-config-long", "artificial.json", budget=100, n_seeds=1,
                 reference="artificial", regret_metric="constrained_regret",
                 policies=("config",), extra_layers=("runner.feasible_start",)),
        # Many short replications: per-replication fixed costs and each
        # policy's own selection weigh more; the resume re-proposes every step.
        Workload("art-policies-resume", "artificial.json", budget=30, n_seeds=1,
                 reference="artificial", regret_metric="constrained_regret",
                 extra_layers=("runner.feasible_start",)),
        # Little GP work on G = 2,500 but a hyperparameter refit every 5 steps;
        # the reference is 50k pointwise CSTR solves and no GP at all.
        Workload("wo-refit-reference", "williams_otto.json", budget=30, n_seeds=1,
                 reference="williams_otto", regret_metric="normalized",
                 gp_overrides={"fit_every": 5},
                 extra_layers=("hyperfit.fit", "cstr.steady_state")),
    )
}
