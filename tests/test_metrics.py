import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cego.logs import RunRecord
from cego.metrics import best_so_far_series, normalized_regret_violation


def record(j, gs, t=1):
    return RunRecord(t=t, theta=(0.0, 0.0), y=None, true_values=(j, *gs))


def regret_series(records, j_star):
    """The constrained-regret series that ``emit_metrics`` tabulates."""
    return best_so_far_series(records, lambda r: normalized_regret_violation(r, j_star))


def test_regret_zero_at_optimum():
    np.testing.assert_array_equal(regret_series([record(1.5, [-0.2])], j_star=1.5), [0.0])


def test_regret_clips_negative_violation():
    np.testing.assert_allclose(regret_series([record(2.0, [-5.0])], j_star=1.0), [1.0])


def test_regret_superoptimal_infeasible_counts_violation_only():
    np.testing.assert_allclose(regret_series([record(-3.0, [0.5])], j_star=0.0), [0.5])


def test_regret_is_prefix_minimum():
    records = [record(2.0, [0.0], t=1), record(1.0, [0.3], t=2), record(5.0, [-1.0], t=3)]
    # contributions: 2.0, 1.3, 5.0 -> prefix minima 2.0, 1.3, 1.3
    np.testing.assert_allclose(regret_series(records, 0.0), [2.0, 1.3, 1.3])


@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=20))
def test_regret_monotone_in_prefix_length(pairs):
    records = [record(j, [g], t=i + 1) for i, (j, g) in enumerate(pairs)]
    values = regret_series(records, j_star=0.0)
    assert values.size == len(records)
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_normalized_zero_at_feasible_optimum():
    assert normalized_regret_violation(record(1.0, [-0.1, -0.2]), 1.0, [2.0, 1.0, 1.0]) == 0.0


def test_normalized_unit_suboptimality():
    r = record(1.0 + 2.0, [-1.0])
    assert normalized_regret_violation(r, 1.0, [2.0, 1.0]) == pytest.approx(1.0)


@given(
    j=st.floats(-3, 3), g=st.floats(-3, 3),
    sj=st.floats(0.1, 5), sg=st.floats(0.1, 5),
)
def test_normalized_scales_inversely_with_sigmas(j, g, sj, sg):
    r = record(j, [g])
    one = normalized_regret_violation(r, 0.0, [sj, sg])
    half = normalized_regret_violation(r, 0.0, [2 * sj, 2 * sg])
    assert half == pytest.approx(one / 2.0, rel=1e-9, abs=1e-12)


def test_best_so_far_running_min():
    records = [record(v, [0.0], t=i + 1) for i, v in enumerate([3.0, 1.0, 2.0])]
    series = best_so_far_series(records, lambda r: r.outputs()[0])
    np.testing.assert_allclose(series, [3.0, 1.0, 1.0])


def test_best_so_far_single_and_empty():
    one = best_so_far_series([record(4.0, [0.0])], lambda r: r.outputs()[0])
    np.testing.assert_allclose(one, [4.0])
    assert best_so_far_series([], lambda r: r.outputs()[0]).size == 0


def test_best_so_far_skips_infeasible_markers():
    records = [
        record(3.0, [0.0], t=1),
        RunRecord(t=2, theta=None, y=None, decision="infeasible"),
    ]
    series = best_so_far_series(records, lambda r: r.outputs()[0])
    np.testing.assert_allclose(series, [3.0])


def test_records_prefer_true_values():
    r = RunRecord(t=1, theta=(0.0,), y=(9.0, 9.0), true_values=(1.0, -1.0))
    assert normalized_regret_violation(r, j_star=1.0) == 0.0
    measured = RunRecord(t=1, theta=(0.0,), y=(9.0, 9.0), true_values=None)
    assert normalized_regret_violation(measured, j_star=1.0) == pytest.approx(17.0)
