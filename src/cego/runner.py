"""Experiment orchestration: seeded replications, resume, metrics tables.

Reproducibility contract: a run configuration determines every byte of its
logs for a given BLAS thread count. All randomness is drawn from named
streams derived from the replication seed (start sampling, per-step
measurement noise, per-step random-policy draws), so a replication can be
resumed after truncation and will reproduce the original prefix exactly.
Wall-clock timestamps live in a sidecar file, never in the log itself. A
threaded BLAS may split a product's rows among its threads by the product's
size and round the rows at each thread's edge differently, so a posterior
mean, and through it a decision, can differ in its last bits between thread
counts. Run with ``OPENBLAS_NUM_THREADS=1`` (as ``perfbench`` does) for logs
that compare across machines. The log format is ``cego.logs``'s.
"""

from __future__ import annotations

import json
import time
from contextlib import closing
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

from .domain import int_at_least, positive_real
from .gp import empty_models
from .hyperfit import MIN_OBSERVATIONS, fit_hyperparameters
from .kernels import SQUARED_EXPONENTIAL, Kernel
# Module-level bindings: the benchmark's tracer patches the readers here, where they are called.
from .logs import (RunRecord, _cut_torn_line, _dumps, _finished, _header, _lock_log, _record_dict,
                   _write_whole, load_log, log_path, policy_label)
from .metrics import best_so_far_series, record_metric
from .policies import POLICIES, SPEC_KEYS, AlgorithmState, BetaSchedule, observe, propose
from .problems import Problem, problem_from_config, problem_settings

__all__ = [
    "RunConfig",
    "run_experiment",
    "run_replication",
    "emit_metrics",
    "FeasibleStartError",
]

# Stream tags separating the independent RNG streams of one replication.
_STREAM_START = 101
_STREAM_NOISE = 202
_STREAM_POLICY = 303

MAX_START_REJECTIONS = 100_000

# The experiment's ``gp`` settings and the value each takes when left out.
_GP_DEFAULTS = {"family": SQUARED_EXPONENTIAL, "lengthscale_factor": 0.1, "output_scale": 1.0,
                "noise_variance": 1e-4, "fit_every": 0}


class FeasibleStartError(RuntimeError):
    """Rejection sampling failed to find a feasible starting point."""


@dataclass
class RunConfig:
    """One experiment grid: a problem, a set of policies, and replication seeds.

    Building one checks every setting: each policy spec is turned into the
    state its replications start from, before any log is written.
    """

    problem: dict
    policies: list[dict]
    budget: int
    seeds: list[int]
    output_dir: str = "runs"
    start: str = "feasible"  # "feasible" | "uniform" | "none"
    n_init_random: int = 0
    gp: dict = field(default_factory=dict)

    def __post_init__(self):
        # A JSON config can hold any shape; each setting's is checked first.
        _check_shape("gp", self.gp, dict, "an object of GP settings")
        _check_shape("policies", self.policies, (list, tuple), "a list of policy specs")
        for spec in self.policies:
            _check_shape("policy spec", spec, dict, "an object with a 'name'")
        _check_shape("seeds", self.seeds, (list, tuple), "a list of ints")
        _check_shape("output_dir", self.output_dir, str, "a path string")
        int_at_least("budget", self.budget, 1)
        int_at_least("n_init_random", self.n_init_random, 0)
        int_at_least("gp fit_every", self.gp.get("fit_every", _GP_DEFAULTS["fit_every"]), 0)
        if not self.policies:
            raise ValueError("policies must list at least one policy spec")
        if not self.seeds:
            raise ValueError("need at least one replication seed")
        for seed in self.seeds:
            int_at_least("replication seed", seed, 0)
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("replication seeds must be distinct")
        if self.start not in ("feasible", "uniform", "none"):
            raise ValueError(f"unknown start mode {self.start!r}")
        _check_keys("gp", self.gp, _GP_DEFAULTS.keys())
        problem = problem_from_config(self.problem)
        if self.start == "feasible" and not problem.pure:
            # Its rejection sampling would send the external evaluator
            # requests that no record logs, and send them again at a resume.
            raise ValueError(f"start='feasible' is refused for the {problem.name!r} problem, "
                             "whose evaluations are not replayable; use 'uniform' or 'none'")
        for spec in self.policies:
            if spec.get("name") not in POLICIES:
                raise ValueError(f"policy spec needs a 'name' out of {POLICIES}: {spec}")
            label = policy_label(spec)
            # The label names the log file, which `cego metrics` finds in output_dir.
            if not (isinstance(label, str) and label) or "/" in label or "\\" in label:
                raise ValueError(f"policy label must be a non-empty string with no path "
                                 f"separator, got {label!r}")
            seedless = spec["name"] == "safeopt_lite" and "safe_seed" not in spec
            if seedless and self.start != "feasible":
                raise ValueError(
                    f"policy {label!r}: safeopt_lite needs an explicit safe_seed "
                    "unless start='feasible'"
                )
            try:
                # A key the policy never reads would be logged but not used.
                _check_keys(f"{spec['name']} policy", spec,
                            {"name", "label", *SPEC_KEYS[spec["name"]]})
                build_state(problem, spec, self.gp, self.budget)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"policy {label!r}: {exc}") from exc
        labels = [policy_label(p) for p in self.policies]
        if len(set(labels)) != len(labels):
            raise ValueError(f"policy labels must be unique, got {labels}")

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        """The configuration a JSON file holds; ``ValueError`` naming any unknown or missing key."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        _check_shape("a run configuration", raw, dict, "a JSON object")
        _check_keys("configuration", raw, frozenset(f.name for f in fields(cls)))
        missing = [f.name for f in fields(cls) if f.name not in raw and f.default is MISSING
                   and f.default_factory is MISSING]
        if missing:
            raise ValueError(f"configuration lacks keys {missing}")
        return cls(**raw)


def _check_shape(what: str, value, kinds, expected: str):
    if not isinstance(value, kinds):
        raise ValueError(f"{what} must be {expected}, got {value!r}")


def _check_keys(what: str, settings: dict, allowed):
    unknown = sorted(set(settings) - allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown} in {settings}")


def _stream_key(seed: int, tag: int, step: int | None = None) -> list[int]:
    return [int(seed), tag] if step is None else [int(seed), tag, int(step)]


# -- state construction ------------------------------------------------------------


def _per_output(value, n_outputs: int) -> list:
    """Broadcast a scalar GP setting or pass through one value per output."""
    if isinstance(value, (list, tuple)):
        if len(value) != n_outputs:
            raise ValueError(f"expected {n_outputs} per-output values, got {len(value)}")
        return list(value)
    return [value] * n_outputs


def build_state(problem: Problem, policy_spec: dict, gp_config: dict,
                budget: int) -> AlgorithmState:
    """Fresh algorithm state for one replication of ``budget`` steps.

    ``output_scale`` and ``noise_variance`` accept either a scalar or one
    value per output, since objective and constraints often live on very
    different scales. The constructors check every value. Outputs whose
    kernel and noise are equal share one covariance part, whose lattice rows
    are mapped once for the ``budget`` observations (see ``cego.gp``). Each
    key that ``SPEC_KEYS`` lists for the policy and the spec holds reaches
    ``AlgorithmState``, ``beta`` as a ``BetaSchedule`` and ``safe_seed`` as
    ``safe_indices``; one the spec leaves out keeps the state's default.
    """
    gp = {**_GP_DEFAULTS, **gp_config}
    factor = positive_real("lengthscale_factor", gp["lengthscale_factor"])
    lengthscales = tuple(factor * problem.domain.widths)
    output_scales = _per_output(gp["output_scale"], problem.n_outputs)
    noise_variances = _per_output(gp["noise_variance"], problem.n_outputs)
    models = empty_models(
        ((Kernel(gp["family"], lengthscales, output_scales[i]), noise_variances[i])
         for i in range(problem.n_outputs)),
        capacity=budget,
    )
    knobs = {key: policy_spec[key] for key in SPEC_KEYS[policy_spec["name"]] if key in policy_spec}
    if "beta" in knobs:
        knobs["beta"] = BetaSchedule(**knobs["beta"])
    if "safe_seed" in knobs:
        knobs["safe_indices"] = [
            problem.domain.nearest_index(point) for point in knobs.pop("safe_seed")
        ]
        if not knobs["safe_indices"]:
            raise ValueError("safeopt_lite needs a non-empty safe_seed")
    return AlgorithmState(
        policy=policy_spec["name"],
        domain=problem.domain,
        models=models,
        **knobs,
    )


def _feasible_start(problem: Problem, rng: np.random.Generator) -> np.ndarray:
    """Uniformly draw lattice points until the true constraints are all satisfied."""
    for _ in range(MAX_START_REJECTIONS):
        point = problem.domain.point(problem.domain.sample_index(rng))
        values = problem.evaluate(point)
        if np.all(values[1:] <= 0):
            return point
    raise FeasibleStartError(
        f"no feasible lattice point found for {problem.name} "
        f"after {MAX_START_REJECTIONS} rejections"
    )


def _initial_points(problem: Problem, config: RunConfig, seed: int) -> list[np.ndarray]:
    """The feasible start, if any, then the uniform lattice draws, all from the start stream.

    ``start="uniform"`` is one more uniform draw than ``"none"``, so
    ``("uniform", n)`` and ``("none", n + 1)`` give the same points. Draws
    stop at ``budget`` points, the most a replication takes.
    """
    rng = np.random.default_rng(_stream_key(seed, _STREAM_START))
    points = [_feasible_start(problem, rng)] if config.start == "feasible" else []
    draws = config.n_init_random + (config.start == "uniform")
    for _ in range(min(draws, config.budget - len(points))):
        points.append(problem.domain.point(problem.domain.sample_index(rng)))
    return points


# -- replication loop ---------------------------------------------------------------


def run_replication(config: RunConfig, policy_spec: dict, seed: int) -> Path:
    """Run (or resume) one (policy, seed) replication; returns the log path."""
    path = log_path(config, policy_spec, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = _header(config, policy_spec, seed)

    # Append mode creates a missing log and never truncates one, so a writer
    # that finds the log locked leaves it as it was.
    with (open(path, "a", encoding="utf-8") as fh,
          closing(problem_from_config(config.problem)) as problem):
        _lock_log(fh, path)
        existing: list[RunRecord] = []
        # A log with no complete line, not even its header, starts afresh.
        fresh = not _cut_torn_line(path)
        if not fresh:
            try:
                old_header, existing = load_log(path)
            except (ValueError, json.JSONDecodeError) as exc:
                raise RuntimeError(f"cannot resume {path}: {exc}") from exc
            # Compared as written: JSON turns a tuple setting into a list.
            if old_header != json.loads(_dumps(header)):
                raise RuntimeError(
                    f"existing log {path} was produced by a different configuration; "
                    "move it aside or change output_dir"
                )
        started = time.time()
        steps = (() if _finished(existing, config.budget)
                 else _advance_replication(config, policy_spec, seed, problem, path, existing))
        # The one writer: each line is whole on disk before the next step runs.
        for line in chain([header] if fresh else [], steps):
            fh.write(_dumps(line) + "\n")
            fh.flush()
        meta = {
            "log": path.name,
            "resumed_at_step": len(existing),
            "started_at": started,
            "finished_at": time.time(),
        }
        _write_whole(path.with_suffix(".meta.json"), json.dumps(meta, indent=2))
    return path


def _advance_replication(
    config: RunConfig,
    policy_spec: dict,
    seed: int,
    problem: Problem,
    path: Path,
    existing: list[RunRecord],
):
    """Re-derive the ``existing`` records, then yield each record the log must append."""
    init_points = _initial_points(problem, config, seed)
    if policy_spec["name"] == "safeopt_lite" and "safe_seed" not in policy_spec:
        # RunConfig made sure the start is feasible: it seeds the safe set.
        policy_spec = {**policy_spec, "safe_seed": [[float(v) for v in init_points[0]]]}

    state = build_state(problem, policy_spec, config.gp, config.budget)
    fit_every = config.gp.get("fit_every", _GP_DEFAULTS["fit_every"])
    # `random` never reads a model, so its replications make no GP update or refit.
    updates = policy_spec["name"] != "random"
    for t in range(config.budget):
        if t < len(init_points):
            theta = init_points[t]
        else:
            decision = propose(state, rng_seed=_stream_key(seed, _STREAM_POLICY, t + 1))
            theta = None if decision.is_infeasible else decision.point
        if t < len(existing):
            # A logged step must be re-derived exactly; its measurement is reused.
            logged = existing[t]
            if theta is None or logged.theta is None or list(theta) != list(logged.theta):
                raise RuntimeError(
                    f"resume mismatch at t={t + 1} in {path}: the configuration "
                    "or code no longer reproduces the logged decision"
                )
            y = np.asarray(logged.y)
        elif theta is None:
            yield _record_dict(t + 1, None, None, None)
            return
        else:
            y, true = problem.evaluate_noisy(
                theta, np.random.default_rng(_stream_key(seed, _STREAM_NOISE, t + 1)))
            yield _record_dict(t + 1, theta, y, true if problem.pure else None)
        if updates and t + 1 < config.budget:  # nothing reads the state after the last record
            observe(state, theta, y)
            _maybe_refit(state, fit_every)


def _maybe_refit(state: AlgorithmState, fit_every: int):
    if fit_every <= 0 or state.t < MIN_OBSERVATIONS or state.t % fit_every:
        return
    # Every output is observed at the same points, so one fit serves them all.
    values = np.column_stack([model.values for model in state.models])
    try:
        fitted = fit_hyperparameters(
            state.models[0].points, values, state.domain, family=state.models[0].kernel.family
        )
    except LinAlgError:
        return  # The shared eigendecomposition failed: keep every output's hyperparameters.
    # An output for which no candidate factorized keeps its current hyperparameters.
    state.models = [old if new is None else new for old, new in zip(state.models, fitted)]


def _attempt(config: RunConfig, policy_spec: dict, seed: int) -> Exception | None:
    """Run one replication; the exception that stopped it, or ``None``."""
    try:
        run_replication(config, policy_spec, seed)
    except Exception as exc:  # noqa: BLE001 - reported by run_experiment
        return exc
    return None


def run_experiment(config: RunConfig, jobs: int = 1) -> list[Path]:
    """Execute every (policy, seed) replication; returns the log paths.

    Replications are independent; with ``jobs > 1`` they run in separate
    processes, at most one per replication. An error raised in a
    replication (e.g. external evaluator fault) fails only that replication;
    its partial log is preserved. A worker process that dies (killed, or a
    crash in native code) breaks the whole pool instead: every replication
    not finished by then is reported failed, and those that were running
    keep the log they had written (ROADMAP item 2). At the end one
    ``RuntimeError`` names every failed replication, chained to the first
    error. A bad ``jobs`` value raises ``ValueError`` before any replication
    starts.
    """
    int_at_least("jobs", jobs, 1)
    tasks = [(spec, seed) for spec in config.policies for seed in config.seeds]
    # The pool forks all its workers at the first submit.
    workers = min(jobs, len(tasks))
    if workers > 1:
        # Imported here: it loads multiprocessing, which a jobs=1 run never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_attempt, config, spec, seed) for spec, seed in tasks]
            # A dead worker sets its futures' exception, not their result.
            errors = [future.exception() or future.result() for future in futures]
    else:
        errors = [_attempt(config, spec, seed) for spec, seed in tasks]
    failures = [(spec, seed, exc) for (spec, seed), exc in zip(tasks, errors) if exc is not None]
    if failures:
        listed = "; ".join(
            f"policy={policy_label(spec)} seed={seed}: {exc}" for spec, seed, exc in failures
        )
        raise RuntimeError(f"{len(failures)} replication(s) failed: {listed}") from failures[0][2]
    return [log_path(config, spec, seed) for spec, seed in tasks]


# -- metric tables -------------------------------------------------------------------


def _check_problem(path, settings: dict, expected: dict, keys, whose: str):
    """Raise unless a log's problem ``settings`` equal ``expected`` (``whose`` settings) on ``keys``."""
    for key in keys:
        if settings.get(key) != expected.get(key):
            raise ValueError(f"log {path} has problem {key}={settings.get(key)!r}; "
                             f"{whose} has {key}={expected.get(key)!r}")


def emit_metrics(
    log_paths: list,
    metric: str = "constrained_regret",
    j_star: float | None = None,
    sigmas=None,
    problem: dict | None = None,
) -> list[list]:
    """Aggregate per-policy metric series into a CSV-shaped table, and return it.

    It opens no file but the logs; ``cego metrics`` writes the table.

    One row per step: ``step, <label>_mean, <label>_std, ...`` with the
    sample standard deviation (n-1 denominator; 0.0 for a single
    replication). All logs must share one ``budget``. Runs that stopped
    early with an infeasibility declaration are padded with their last value
    so every row aggregates the same replications. ``problem``, when given,
    holds the settings (``name`` and any others) that ``j_star`` and
    ``sigmas`` were computed for; a setting a log leaves out counts at its
    default. Each label's replications are averaged in ascending header
    ``seed``, so the table does not depend on the order of ``log_paths``. A
    ``ValueError`` names the first log, in the given order, that is unfinished
    (short of its budget without an infeasibility declaration), differs in
    budget from the logs before it, differs from ``problem``, repeats the
    label and seed of an earlier log (named too), or differs in any problem
    setting from the earlier logs of its label (the first of them named).
    ``j_star`` must be a finite number and ``sigmas`` finite positive numbers,
    both checked before any log is read, one sigma per output of each record.
    """
    quantity = record_metric(metric, j_star, sigmas)
    by_label: dict[str, dict[int, tuple[object, np.ndarray]]] = {}  # seed -> (log, series)
    first_of_label: dict[str, tuple[object, dict]] = {}  # its first log and problem settings
    budget = None
    for path in log_paths:
        header, records = load_log(path)
        if budget is None:
            budget = header["budget"]
        if header["budget"] != budget:
            raise ValueError(f"log {path} has a budget of {header['budget']}, the logs before "
                             f"it {budget}")
        settings = problem_settings(header.get("problem", {}))
        if problem is not None:
            _check_problem(path, settings, problem, problem, "the reference")
        if not _finished(records, budget):
            raise ValueError(f"log {path} is unfinished: {len(records)} records of a "
                             f"budget of {budget}")
        label, seed = policy_label(header["policy"]), header["seed"]
        # A label's column averages distinct seeds of one problem.
        runs = by_label.setdefault(label, {})
        if seed in runs:
            raise ValueError(f"log {path} repeats label {label!r} and seed {seed} of "
                             f"log {runs[seed][0]}")
        first, first_settings = first_of_label.setdefault(label, (path, settings))
        _check_problem(path, settings, first_settings, {**first_settings, **settings},
                       f"log {first} of its label")
        try:
            series = best_so_far_series(records, quantity)
        except ValueError as exc:
            raise ValueError(f"log {path}: {exc}") from exc
        if series.size == 0:
            raise ValueError(f"log {path} has no sampled records to aggregate")
        runs[seed] = (path, series)

    labels = sorted(by_label)
    columns: list = [range(1, (budget or 0) + 1)]
    for lab in labels:
        # A C-contiguous (budget, seeds) array, seeds ascending: each row sums
        # in the pairwise order of its step's 1-D column. Reducing axis 0 of a
        # (seeds, budget) array instead changes the last bits of some means.
        runs = np.stack([np.concatenate([s, np.full(budget - s.size, s[-1])])
                         for _, (_, s) in sorted(by_label[lab].items())], axis=1)
        std = np.std(runs, axis=1, ddof=1) if runs.shape[1] > 1 else np.zeros(budget)
        columns += [np.mean(runs, axis=1).tolist(), std.tolist()]
    header = ["step"] + [f"{lab}_{s}" for lab in labels for s in ("mean", "std")]
    return [header] + [list(row) for row in zip(*columns)]
