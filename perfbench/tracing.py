"""Spans recorded from outside the ``cego`` package, and the arithmetic on them.

The benchmark never edits ``src/cego``. Instead :func:`install` replaces each
layer's public function at the name its caller looks it up under (a
``from x import y`` binding is a separate name, so e.g. ``propose`` is patched
in ``cego.runner``, not in ``cego.policies``) with a wrapper that records a
span. Spans live in memory as ``[name, start, end, parent, rep, work]`` lists
and are written out once, when the traced process ends.

This module imports nothing beyond the standard library at import time, so the
orchestrator can use the arithmetic without loading numpy.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, REP, WORK = range(6)
NO_PARENT = -1

# Names that the benchmark itself opens around each measured phase. Every
# other span is a descendant of one of them.
PHASE_PREFIX = "phase."


class Tracer:
    """In-memory span recorder with an explicit parent stack (single thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.rep: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str, work) -> list:
        parent = self._stack[-1] if self._stack else NO_PARENT
        span = [name, time.perf_counter(), 0.0, parent, self.rep, work]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, work=None):
        span = self._open(name, work)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, fn, name: str, work=None, rep=None):
        """``fn`` recording one span per call.

        ``work(*args)`` gives an exact work count stored with the span;
        ``rep(*args)`` names the replication that the call's descendants
        belong to.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, work(*args) if work else None)
            outer = self.rep
            if rep is not None:
                self.rep = span[REP] = rep(*args)
            try:
                return fn(*args, **kwargs)
            finally:
                self.rep = outer
                self._close(span)

        return traced

    def patch(self, owner, attr: str, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rows(x) -> int:
    return x.shape[0] if getattr(x, "ndim", 2) == 2 else 1


def install(tracer: Tracer):
    """Wrap every traced layer of the imported ``cego`` package."""
    from functools import cached_property

    from cego import domain, gp, hyperfit, kernels, policies, problems, references, runner

    wrap, patch = tracer.wrap, tracer.patch

    # kernels / gp / problems: methods looked up on the class by every caller.
    patch(kernels.Kernel, "cross", wrap(
        kernels.Kernel.cross, "kernels.cross", work=lambda _k, a, b: _rows(a) * _rows(b)))
    patch(gp.GpModel, "posterior_batch", wrap(gp.GpModel.posterior_batch, "gp.posterior_batch"))
    patch(gp.GpModel, "add", wrap(gp.GpModel.add, "gp.add"))
    patch(problems.Problem, "evaluate", wrap(problems.Problem.evaluate, "problems.evaluate"))

    # Domain.grid is a cached_property; rebuild it around the wrapped function.
    grid = cached_property(wrap(domain.Domain.__dict__["grid"].func, "domain.grid_build"))
    grid.__set_name__(domain.Domain, "grid")
    patch(domain.Domain, "grid", grid)

    # Module-level bindings, patched where their callers read them.
    patch(policies, "evaluate_grid", wrap(policies.evaluate_grid, "grid_eval.evaluate_grid"))
    patch(runner, "propose", wrap(runner.propose, "policies.propose"))
    patch(runner, "observe", wrap(runner.observe, "policies.observe"))
    patch(runner, "fit_hyperparameters", wrap(runner.fit_hyperparameters, "hyperfit.fit"))
    patch(runner, "_feasible_start", wrap(runner._feasible_start, "runner.feasible_start"))
    patch(runner, "run_replication", wrap(
        runner.run_replication, "runner.replication",
        rep=lambda _config, spec, seed: f"{runner.policy_label(spec)}/seed{seed}"))
    patch(runner, "load_log", wrap(runner.load_log, "runner.load_log"))
    patch(runner, "best_so_far_series", wrap(
        runner.best_so_far_series, "metrics.best_so_far_series"))
    patch(problems, "cstr_steady_state", wrap(problems.cstr_steady_state, "cstr.steady_state"))
    patch(references, "compute_normalizers", wrap(
        references.compute_normalizers, "metrics.compute_normalizers"))

    # Entry points the benchmark calls through their module attribute.
    patch(runner, "run_experiment", wrap(runner.run_experiment, "runner.run_experiment"))
    patch(runner, "emit_metrics", wrap(runner.emit_metrics, "runner.emit_metrics"))
    patch(references, "compute_reference", wrap(
        references.compute_reference, "references.compute_reference"))

    # hyperfit: count candidate models built inside a fit, and those that factorized.
    model_class = hyperfit.GpModel

    def counted_model(*args, **kwargs):
        tracer.counters["hyperfit.candidates"] += 1
        model = model_class(*args, **kwargs)
        tracer.counters["hyperfit.valid"] += 1
        return model

    patch(hyperfit, "GpModel", counted_model)


# -- arithmetic on recorded spans --------------------------------------------------


def load_spans(paths) -> tuple[list[list], dict[str, int]]:
    """Concatenate span files from several processes, re-basing parent indices."""
    spans: list[list] = []
    counters: dict[str, int] = defaultdict(int)
    for path in paths:
        offset = len(spans)
        with open(path, "r", encoding="utf-8") as fh:
            for key, value in json.loads(fh.readline())["counters"].items():
                counters[key] += value
            for line in fh:
                span = json.loads(line)
                if span[PARENT] != NO_PARENT:
                    span[PARENT] += offset
                spans.append(span)
    return spans, dict(counters)


def children_of(spans) -> list[list[int]]:
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] != NO_PARENT:
            children[span[PARENT]].append(i)
    return children


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    out = []
    for span, kids in zip(spans, children_of(spans)):
        start, end = span[START], span[END]
        intervals = sorted(
            (max(spans[k][START], start), min(spans[k][END], end)) for k in kids
        )
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def root_of(spans) -> list[int]:
    """Index of each span's root; parents always precede their children."""
    roots = []
    for i, span in enumerate(spans):
        roots.append(i if span[PARENT] == NO_PARENT else roots[span[PARENT]])
    return roots


def root_balance(spans, selfs) -> dict[int, tuple[float, float]]:
    """Per root span: (duration, sum of self times over its whole tree)."""
    totals: dict[int, float] = defaultdict(float)
    for root, own in zip(root_of(spans), selfs):
        totals[root] += own
    return {r: (spans[r][END] - spans[r][START], totals[r]) for r in totals}


def nearest_rank(sorted_values, pct: int):
    """The ``pct``-th percentile by the nearest-rank rule (``pct`` in 1..100)."""
    rank = -(-pct * len(sorted_values) // 100)  # ceil without float error
    return sorted_values[rank - 1]


def tail_percentile(values, min_beyond: int = 10):
    """Highest whole percentile that still has ``min_beyond`` samples above its rank.

    Returns ``(pct, value, n)``, or None when fewer than ``min_beyond + 1``
    samples exist. With n = 200 this is the 95th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        if n - -(-pct * n // 100) >= min_beyond:
            return pct, nearest_rank(ordered, pct), n
    return None


def layer_stats(spans, selfs) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (children included) and self seconds, work."""
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
    for span, own in zip(spans, selfs):
        entry = stats[span[NAME]]
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own
        if span[WORK] is not None:
            entry["work"] += span[WORK]
    return dict(stats)


def phase_breakdown(spans, selfs) -> dict[str, dict[str, float]]:
    """Self seconds per span name inside each benchmark phase (``phase.*`` roots)."""
    out: dict[str, dict[str, float]] = {}
    for root, span, own in zip(root_of(spans), spans, selfs):
        phase = spans[root][NAME]
        if not phase.startswith(PHASE_PREFIX):
            continue
        names = out.setdefault(phase[len(PHASE_PREFIX):], defaultdict(float))
        names[span[NAME]] += own
    return {phase: dict(names) for phase, names in out.items()}


def count_under(spans, name: str, ancestor: str) -> int:
    """Spans called ``name`` that have a span called ``ancestor`` above them."""
    inside = []
    count = 0
    for span in spans:
        parent = span[PARENT]
        flag = parent != NO_PARENT and (spans[parent][NAME] == ancestor or inside[parent])
        inside.append(flag)
        if flag and span[NAME] == name:
            count += 1
    return count
