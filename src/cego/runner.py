"""Experiment orchestration: seeded replications, JSONL logs, resume, metrics tables.

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
that compare across machines.

Log layout: one JSONL file per (policy, seed). The first line is a header
object carrying the full effective configuration; every further line is a
step record ``{"t", "theta", "y", "true", "decision"}``. A replication holds
an exclusive ``flock`` on its log from before it reads the log until its last
write, so a second run on the same output directory stops that replication
with an error naming the log instead of interleaving records with the first.
"""

from __future__ import annotations

import csv
import fcntl
import inspect
import json
import os
import time
from contextlib import closing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import TextIO

import numpy as np
from numpy.linalg import LinAlgError

from . import __version__
from .domain import int_at_least, positive_real
from .gp import empty_models
from .hyperfit import MIN_OBSERVATIONS, fit_hyperparameters
from .kernels import SQUARED_EXPONENTIAL, Kernel
from .metrics import (
    RunRecord,
    best_so_far_series,
    normalized_regret_violation,
    regret_contribution,
)
from .policies import POLICIES, SPEC_KEYS, AlgorithmState, BetaSchedule, observe, propose
from .problems import PROBLEM_BUILDERS, Problem, problem_from_config

__all__ = [
    "RunConfig",
    "run_experiment",
    "run_replication",
    "emit_metrics",
    "load_log",
    "log_path",
    "FeasibleStartError",
]

LOG_DIR_ENV = "CEGO_LOG_DIR"

# Stream tags separating the independent RNG streams of one replication.
_STREAM_START = 101
_STREAM_NOISE = 202
_STREAM_POLICY = 303

MAX_START_REJECTIONS = 100_000

# Policy knobs a spec passes straight to ``AlgorithmState``.
_STATE_KNOBS = ("rho", "eta", "lipschitz")
# Keys of the experiment's ``gp`` settings.
GP_KEYS = frozenset({"family", "lengthscale_factor", "output_scale", "noise_variance", "fit_every"})


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
        int_at_least("gp fit_every", self.gp.get("fit_every", 0), 0)
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
        _check_keys("gp", self.gp, GP_KEYS)
        problem = problem_from_config(self.problem)
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
            if spec["name"] == "cei" and self.start == "none" and self.n_init_random == 0:
                raise ValueError(
                    f"policy {label!r}: cei needs an initial point for its incumbent, "
                    "so start='none' needs n_init_random >= 1"
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


def policy_label(spec: dict) -> str:
    return spec.get("label", spec["name"])


def _stream(seed: int, tag: int, step: int | None = None):
    key = [int(seed), tag] if step is None else [int(seed), tag, int(step)]
    return np.random.default_rng(key)


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
    are mapped once for the ``budget`` observations (see ``cego.gp``).
    """
    family = gp_config.get("family", SQUARED_EXPONENTIAL)
    factor = positive_real("lengthscale_factor", gp_config.get("lengthscale_factor", 0.1))
    lengthscales = tuple(factor * problem.domain.widths)
    output_scales = _per_output(gp_config.get("output_scale", 1.0), problem.n_outputs)
    noise_variances = _per_output(gp_config.get("noise_variance", 1e-4), problem.n_outputs)
    models = empty_models(
        ((Kernel(family, lengthscales, output_scales[i]), noise_variances[i])
         for i in range(problem.n_outputs)),
        capacity=budget,
    )
    # A knob the spec leaves out keeps the default of AlgorithmState.
    knobs = {key: policy_spec[key] for key in _STATE_KNOBS if key in policy_spec}
    if policy_spec["name"] == "safeopt_lite" and "safe_seed" in policy_spec:
        knobs["safe_indices"] = [
            problem.domain.nearest_index(point) for point in policy_spec["safe_seed"]
        ]
        if not knobs["safe_indices"]:
            raise ValueError("safeopt_lite needs a non-empty safe_seed")
    return AlgorithmState(
        policy=policy_spec["name"],
        domain=problem.domain,
        models=models,
        beta=BetaSchedule(**policy_spec.get("beta", {})),
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
    rng = _stream(seed, _STREAM_START)
    points: list[np.ndarray] = []
    if config.start == "feasible":
        points.append(_feasible_start(problem, rng))
    elif config.start == "uniform":
        points.append(problem.domain.point(problem.domain.sample_index(rng)))
    for _ in range(config.n_init_random):
        points.append(problem.domain.point(problem.domain.sample_index(rng)))
    return points


# -- log I/O -----------------------------------------------------------------------


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
    header must carry ``budget``, ``seed`` and ``policy``, and the records
    must run ``t = 1, 2, ...`` with no gap or repeat, number at most
    the header's ``budget``, and hold an ``infeasible`` marker only as the
    last one. A ``sample`` record holds lists ``theta`` and ``y`` and a list
    or null ``true``; the marker holds null for all three. Otherwise a
    ``ValueError`` names the log and the first bad line.
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
        budget = header["budget"]
        header["seed"], header["policy"]  # emit_metrics reads both
        for number, line in enumerate(lines[1:], start=2):
            records.append(_next_record(json.loads(line), records, budget))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"log {path} line {number}: {exc}") from exc
    return header, records


def _next_record(raw: dict, records: list[RunRecord], budget: int) -> RunRecord:
    """The record that ``raw`` holds, if it may follow ``records`` in a log of ``budget`` steps."""
    due = len(records) + 1
    if raw["t"] != due:
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
    elif decision == "infeasible":
        if (theta, y, true) != (None, None, None):
            raise ValueError("an infeasible marker needs null theta, y and true")
    else:
        raise ValueError(f"decision {decision!r} is neither 'sample' nor 'infeasible'")
    return RunRecord(
        t=raw["t"],
        theta=None if theta is None else tuple(theta),
        y=None if y is None else tuple(y),
        true_values=None if true is None else tuple(true),
        decision=decision,
    )


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
        if _cut_torn_line(path):
            try:
                old_header, existing = load_log(path)
            except (ValueError, json.JSONDecodeError) as exc:
                raise RuntimeError(f"cannot resume {path}: {exc}") from exc
            if old_header != header:
                raise RuntimeError(
                    f"existing log {path} was produced by a different configuration; "
                    "move it aside or change output_dir"
                )
        else:
            fh.write(_dumps(header) + "\n")
            fh.flush()

        started = time.time()
        if not _finished(existing, config.budget):
            _advance_replication(config, policy_spec, seed, problem, fh, existing)
        meta = {
            "log": path.name,
            "resumed_at_step": len(existing),
            "started_at": started,
            "finished_at": time.time(),
        }
        path.with_suffix(".meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")
    return path


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


def _advance_replication(
    config: RunConfig,
    policy_spec: dict,
    seed: int,
    problem: Problem,
    fh: TextIO,
    existing: list[RunRecord],
):
    init_points = _initial_points(problem, config, seed)
    if policy_spec["name"] == "safeopt_lite" and "safe_seed" not in policy_spec:
        # RunConfig made sure the start is feasible: it seeds the safe set.
        policy_spec = {**policy_spec, "safe_seed": [[float(v) for v in init_points[0]]]}

    state = build_state(problem, policy_spec, config.gp, config.budget)
    fit_every = config.gp.get("fit_every", 0)
    # `random` never reads a model, so its replications make no GP update or refit.
    updates = policy_spec["name"] != "random"
    for t in range(config.budget):
        if t < len(init_points):
            theta = init_points[t]
        else:
            decision = propose(state, rng_seed=_policy_seed(seed, t + 1))
            theta = None if decision.is_infeasible else decision.point
        if t < len(existing):
            # A logged step must be re-derived exactly; its measurement is reused.
            logged = existing[t]
            if theta is None or logged.theta is None or list(theta) != list(logged.theta):
                raise RuntimeError(
                    f"resume mismatch at t={t + 1} in {fh.name}: the configuration "
                    "or code no longer reproduces the logged decision"
                )
            y = np.asarray(logged.y)
        elif theta is None:
            fh.write(_dumps(_record_dict(t + 1, None, None, None)) + "\n")
            return
        else:
            y, true = problem.evaluate_noisy(theta, _stream(seed, _STREAM_NOISE, t + 1))
            record = _record_dict(t + 1, theta, y, true if problem.pure else None)
            fh.write(_dumps(record) + "\n")
            fh.flush()
        if updates and t + 1 < config.budget:  # nothing reads the state after the last record
            observe(state, theta, y)
            _maybe_refit(state, fit_every)


def _policy_seed(seed: int, step: int):
    return [int(seed), _STREAM_POLICY, int(step)]


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


def _series_for(records: list[RunRecord], metric: str, j_star, sigmas) -> np.ndarray:
    if metric == "constrained_regret":
        if j_star is None:
            raise ValueError("constrained_regret needs a reference optimum j_star")
        return best_so_far_series(records, lambda r: regret_contribution(r, j_star))
    if metric == "normalized":
        if sigmas is None:
            raise ValueError("normalized metric needs per-output sigmas")
        return best_so_far_series(
            records, lambda r: normalized_regret_violation(r, j_star, sigmas)
        )
    if metric == "best_so_far":
        return best_so_far_series(records, lambda r: float(r.outputs()[0]))
    raise ValueError(f"unknown metric {metric!r}")


def _check_problem(path, logged: dict, expected: dict):
    """Raise unless a log's problem holds every setting of ``expected``, defaults filled in."""
    if logged.get("name") == expected["name"]:
        parameters = inspect.signature(PROBLEM_BUILDERS[logged["name"]]).parameters
        logged = {**{key: p.default for key, p in parameters.items()}, **logged}
    for key, value in expected.items():
        if logged.get(key) != value:
            raise ValueError(f"log {path} has problem {key}={logged.get(key)!r}; "
                             f"the reference has {key}={value!r}")


def emit_metrics(
    log_paths: list,
    metric: str = "constrained_regret",
    j_star: float | None = None,
    sigmas=None,
    out=None,
    problem: dict | None = None,
) -> list[list]:
    """Aggregate per-policy metric series into a CSV-shaped table.

    One row per step: ``step, <label>_mean, <label>_std, ...`` with the
    sample standard deviation (n-1 denominator; 0.0 for a single
    replication). All logs must share one ``budget``. Runs that stopped
    early with an infeasibility declaration are padded with their last value
    so every row aggregates the same replications. ``problem``, when given,
    holds the settings (``name`` and any others) that ``j_star`` and
    ``sigmas`` were computed for; a setting a log leaves out counts at its
    default. Each label's replications are averaged in ascending header
    ``seed`` (ties by path), so the table does not depend on the order of
    ``log_paths``. A ``ValueError`` names the first log, in the given order,
    that is unfinished (short of its budget without an infeasibility
    declaration), differs in budget from the logs before it, or differs from
    ``problem``.
    """
    by_label: dict[str, list[tuple[int, str, np.ndarray]]] = {}
    budget = None
    for path in log_paths:
        header, records = load_log(path)
        if budget is None:
            budget = header["budget"]
        if header["budget"] != budget:
            raise ValueError(f"log {path} has a budget of {header['budget']}, the logs before "
                             f"it {budget}")
        if problem is not None:
            _check_problem(path, header.get("problem", {}), problem)
        if not _finished(records, budget):
            raise ValueError(f"log {path} is unfinished: {len(records)} records of a "
                             f"budget of {budget}")
        label = policy_label(header["policy"])
        series = _series_for(records, metric, j_star, sigmas)
        if series.size == 0:
            raise ValueError(f"log {path} has no sampled records to aggregate")
        by_label.setdefault(label, []).append((header["seed"], str(path), series))

    labels = sorted(by_label)
    table: list[list] = [["step"] + [f"{lab}_{s}" for lab in labels for s in ("mean", "std")]]
    padded = {
        lab: np.stack([
            np.concatenate([s, np.full(budget - s.size, s[-1])])
            for _, _, s in sorted(runs, key=lambda run: run[:2])
        ])
        for lab, runs in by_label.items()
    }
    for step in range(budget or 0):
        row: list = [step + 1]
        for lab in labels:
            column = padded[lab][:, step]
            mean = float(np.mean(column))
            std = float(np.std(column, ddof=1)) if column.size > 1 else 0.0
            row.extend([mean, std])
        table.append(row)

    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(table)
    return table
