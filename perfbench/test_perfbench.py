"""Tests of the benchmark's own helpers: span arithmetic, percentiles, log cutting.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import types

import pytest

from tracing import (
    NO_PARENT,
    Tracer,
    count_under,
    load_spans,
    nearest_rank,
    phase_breakdown,
    root_balance,
    self_times,
    tail_percentile,
)
from worker import cut_at_midpoint, log_set_sha256


def span(name, start, end, parent=NO_PARENT, work=None):
    return [name, start, end, parent, None, work]


# root [0, 10] > a [1, 4] > a.child [2, 3]; root > b [5, 9] > two children that
# overlap each other ([6, 8] and [7, 8.5]); root > c [9.5, 10].
NESTED = [
    span("phase.run", 0.0, 10.0),
    span("a", 1.0, 4.0, 0),
    span("a.child", 2.0, 3.0, 1),
    span("b", 5.0, 9.0, 0),
    span("b.x", 6.0, 8.0, 3),
    span("b.y", 7.0, 8.5, 3),
    span("c", 9.5, 10.0, 0),
]


def test_self_time_subtracts_direct_children_only():
    selfs = self_times(NESTED)
    # root: 10 - (3 + 4 + 0.5); a: 3 - 1; b: 4 - union([6, 8], [7, 8.5]) = 4 - 2.5
    assert selfs == pytest.approx([2.5, 2.0, 1.0, 1.5, 2.0, 1.5, 0.5])


def test_self_times_of_a_tree_sum_to_its_root():
    selfs = self_times(NESTED)
    (duration, total), = root_balance(NESTED, selfs).values()
    # The overlapping children of b are counted twice in the sum, once each.
    assert duration == 10.0
    assert total == pytest.approx(10.0 + 1.0)


def test_self_time_clips_a_child_that_outlives_its_parent():
    spans = [span("p", 0.0, 2.0), span("k", 1.0, 5.0, 0)]
    assert self_times(spans) == pytest.approx([1.0, 4.0])


def test_phase_breakdown_groups_self_time_by_phase_root():
    spans = NESTED + [span("loose", 20.0, 21.0)]
    phases = phase_breakdown(spans, self_times(spans))
    assert list(phases) == ["run"]
    assert phases["run"]["b.x"] == pytest.approx(2.0)


def test_count_under_follows_ancestors_not_just_parents():
    spans = [
        span("runner.feasible_start", 0, 3),
        span("problems.evaluate", 0, 1, 0),
        span("wrapper", 1, 3, 0),
        span("problems.evaluate", 1, 2, 2),
        span("problems.evaluate", 4, 5),
    ]
    assert count_under(spans, "problems.evaluate", "runner.feasible_start") == 2


@pytest.mark.parametrize(
    "n, pct",
    [(11, 9), (20, 50), (100, 90), (200, 95), (250, 96), (1000, 99), (5000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    values = list(range(n, 0, -1))  # unsorted input
    got_pct, value, got_n = tail_percentile(values)
    assert (got_pct, got_n) == (pct, n)
    assert sum(v > value for v in values) >= 10
    # One percentile higher would leave fewer than ten samples beyond.
    if pct < 99:
        assert sum(v > nearest_rank(sorted(values), pct + 1) for v in values) < 10


def test_tail_percentile_needs_eleven_samples():
    assert tail_percentile(list(range(10))) is None


def test_nearest_rank():
    ordered = [1.0, 2.0, 3.0, 4.0]
    assert [nearest_rank(ordered, p) for p in (1, 25, 26, 50, 100)] == [1.0, 1.0, 2.0, 2.0, 4.0]


def test_tracer_records_parent_replication_and_work(tmp_path):
    tracer = Tracer()
    owner = types.SimpleNamespace()
    owner.inner = tracer.wrap(lambda a, b: a + b, "inner", work=lambda a, b: a * b)
    outer = tracer.wrap(lambda label: owner.inner(2, 3), "outer", rep=lambda label: label)

    assert outer("rep-1") == 5
    with tracer.span("phase.run"):
        owner.inner(1, 1)
    assert [(s[0], s[3], s[4], s[5]) for s in tracer.spans] == [
        ("outer", NO_PARENT, "rep-1", None),
        ("inner", 0, "rep-1", 6),
        ("phase.run", NO_PARENT, None, None),
        ("inner", 2, None, 1),
    ]
    assert all(s[1] <= s[2] for s in tracer.spans)

    tracer.counters["hyperfit.candidates"] += 3
    tracer.dump(tmp_path / "a.jsonl")
    tracer.dump(tmp_path / "b.jsonl")
    spans, counters = load_spans([tmp_path / "a.jsonl", tmp_path / "b.jsonl"])
    assert counters == {"hyperfit.candidates": 6}
    assert [s[3] for s in spans] == [NO_PARENT, 0, NO_PARENT, 2, NO_PARENT, 4, NO_PARENT, 6]


def test_patch_and_uninstall_restore_the_original():
    tracer = Tracer()
    module = types.ModuleType("fake")
    module.f = original = lambda: 1
    tracer.patch(module, "f", tracer.wrap(module.f, "f"))
    assert module.f is not original and module.f() == 1
    tracer.uninstall()
    assert module.f is original


def test_tracer_closes_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    with tracer.span("after"):
        pass
    assert tracer.spans[1][3] == NO_PARENT


def test_cut_at_midpoint_keeps_half_the_records_and_a_partial_line():
    lines = [json.dumps({"kind": "run_header"})] + [json.dumps({"t": t}) for t in range(1, 8)]
    cut = cut_at_midpoint(("\n".join(lines) + "\n").encode())
    kept = cut.split(b"\n")
    assert kept[:-1] == [line.encode() for line in lines[:4]]
    assert kept[-1] and kept[-1] != lines[4].encode()
    assert lines[4].encode().startswith(kept[-1])


def test_log_set_sha256_depends_on_names_and_bytes():
    base = log_set_sha256({"a.jsonl": b"x\n", "b.jsonl": b"y\n"})
    assert base == log_set_sha256({"b.jsonl": b"y\n", "a.jsonl": b"x\n"})
    assert base != log_set_sha256({"a.jsonl": b"y\n", "b.jsonl": b"x\n"})
