"""Frozen reference values: dense-grid constrained optima and metric normalizers.

The reference optimum of a benchmark is defined operationally as the best
feasible value over a dense lattice, recorded together with the lattice
resolution that produced it. The metric normalizers are the per-output
standard deviations over a seeded uniform sample of that lattice's points;
both read one evaluation of the whole lattice. The ``oracle`` CLI subcommand performs these
brute-force computations and writes/updates the JSON file; the copy shipped
in ``cego/data/references.json`` is what the metric tools and the test
suite read.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .logs import _write_whole
from .problems import Problem, problem_from_config

__all__ = [
    "compute_reference",
    "compute_normalizers",
    "load_references",
    "get_reference",
    "reference_problem",
    "packaged_references_path",
    "DEFAULT_ORACLE_GRIDS",
]

DEFAULT_ORACLE_GRIDS = {"artificial": (2000, 2000), "williams_otto": (200, 200)}
# Problem parameters (besides the lattice) that each reference is computed
# for; they are recorded in the entry.
REFERENCE_PARAMS = {"artificial": {"g_thr": -0.6}, "williams_otto": {}}
# Dedicated seed and size of the normalizer sample; recorded alongside the sigmas.
SIGMA_SEED = 202303
SIGMA_SAMPLES = 10_000


def packaged_references_path() -> Path:
    return Path(resources.files("cego").joinpath("data", "references.json"))


def load_references(path=None) -> dict:
    target = Path(path) if path is not None else packaged_references_path()
    if not target.exists():
        raise FileNotFoundError(
            f"reference file {target} not found; generate it with the 'oracle' subcommand"
        )
    with open(target, "r", encoding="utf-8") as fh:
        refs = json.load(fh)
    if not isinstance(refs, dict):
        raise ValueError(f"reference file {target} must hold a JSON object, got {refs!r:.60}")
    return refs


def get_reference(name: str, path=None) -> dict:
    """Reference entry for a problem."""
    refs = load_references(path)
    if name not in refs:
        raise KeyError(f"no reference entry for {name!r}; run the oracle subcommand")
    if not isinstance(refs[name], dict):
        raise ValueError(f"reference entry {name!r} must be a JSON object, got {refs[name]!r:.60}")
    return refs[name]


def reference_problem(name: str, entry: dict) -> dict:
    """Settings ``entry`` was computed for, in the form ``emit_metrics(problem=...)`` takes."""
    return {"name": name, **{key: entry[key] for key in REFERENCE_PARAMS.get(name, {})
                             if key in entry}}


def _dense_feasible_optimum(problem: Problem, values: np.ndarray) -> dict:
    """Best feasible value among ``values``, the oracle rows of the problem's whole lattice."""
    feasible = np.all(values[:, 1:] <= 0, axis=1)
    if not np.any(feasible):
        raise ValueError(f"{problem.name}: no feasible lattice point at this resolution")
    objectives = np.where(feasible, values[:, 0], np.inf)
    idx = int(np.argmin(objectives))
    return {
        "j_star": float(values[idx, 0]),
        "argmin_theta": [float(v) for v in problem.domain.point(idx)],
        "grid": list(problem.domain.grid_counts),
    }


def compute_normalizers(values: np.ndarray) -> np.ndarray:
    """Per-output standard deviations over a seeded uniform sample of the lattice's oracle rows."""
    rng = np.random.default_rng(SIGMA_SEED)
    return np.std(values[rng.integers(len(values), size=SIGMA_SAMPLES)], axis=0)


def compute_reference(name: str, grid=None) -> dict:
    """One problem's entry, from one evaluation of every point of its lattice."""
    if name not in REFERENCE_PARAMS:
        raise ValueError(f"no reference computation defined for problem {name!r}")
    grid = tuple(grid) if grid is not None else DEFAULT_ORACLE_GRIDS[name]
    params = REFERENCE_PARAMS[name]
    problem = problem_from_config({"name": name, "grid": grid, **params})
    values = problem.evaluate_batch(problem.domain.grid)
    entry = {**_dense_feasible_optimum(problem, values), **params}
    entry["sigmas"] = [float(s) for s in compute_normalizers(values)]
    entry["sigma_seed"] = SIGMA_SEED
    entry["sigma_samples"] = SIGMA_SAMPLES
    return entry


def write_reference(name: str, grid=None, path=None) -> dict:
    """Compute and merge one problem's entry into the reference file."""
    target = Path(path) if path is not None else packaged_references_path()
    refs = load_references(target) if target.exists() else {}
    refs[name] = compute_reference(name, grid)
    target.parent.mkdir(parents=True, exist_ok=True)
    _write_whole(target, json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return refs[name]
