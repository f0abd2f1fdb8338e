"""Solution-quality metrics computed from run logs.

The central quantity is the constrained regret of a sample sequence: the
best over sampled steps of positive-part suboptimality plus summed
positive-part constraint violations. Its normalized form divides each term
by a per-problem scale so that outputs of different physical magnitudes can
be added; with unit scales it is the plain regret. The scales are the
reference entry's sigmas, which ``cego.references`` computes and records.

All metrics prefer the noiseless oracle values stored in a record and fall
back to the measured values when the problem is not pure.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .domain import finite_real, positive_real
from .logs import RunRecord

__all__ = ["METRICS", "record_metric", "normalized_regret_violation", "best_so_far_series"]

# The per-record quantities a metric table can aggregate, for `emit_metrics`
# and `cego metrics --metric`.
METRICS = ("constrained_regret", "normalized", "best_so_far")


def _sampled(records: Sequence[RunRecord]) -> list[RunRecord]:
    return [r for r in records if r.decision == "sample"]


def normalized_regret_violation(
    record: RunRecord,
    j_star: float,
    sigmas: Sequence[float] | None = None,
) -> float:
    """Scale-free quality of one record: ``[J - J*]^+ / sigma_J + sum_i [g_i]^+ / sigma_i``.

    Unit ``sigmas`` (the default) give the plain constrained regret term
    ``[J - J*]^+ + sum_i [g_i]^+``. Given ``sigmas`` must be finite and
    positive, which the caller checks once (``record_metric`` does, before
    ``emit_metrics`` reads a log); only their count, one per output of the
    record, is checked here.
    """
    values = record.outputs()
    if sigmas is None:
        sigmas = np.ones(values.shape[0])
    else:
        sigmas = np.asarray(sigmas, dtype=float)
        if sigmas.shape[0] != values.shape[0]:
            raise ValueError(f"sigmas must be {values.shape[0]} numbers, one per output, "
                             f"got {sigmas.shape[0]}")
    total = max(values[0] - j_star, 0.0) / sigmas[0]
    total += float(np.sum(np.maximum(values[1:], 0.0) / sigmas[1:]))
    return float(total)


def record_metric(metric: str, j_star=None, sigmas=None) -> Callable[[RunRecord], float]:
    """The per-record quantity of ``metric``; ``ValueError`` naming a missing or bad setting."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if j_star is not None:
        j_star = finite_real("j_star", j_star)
    if sigmas is not None:
        if not isinstance(sigmas, (list, tuple, np.ndarray)) or len(sigmas) == 0:
            raise ValueError(f"sigmas must be a list of finite positive numbers, one per "
                             f"output, got {sigmas!r}")
        sigmas = np.array([positive_real("each of sigmas", s) for s in sigmas])
    if metric == "best_so_far":
        return lambda r: float(r.outputs()[0])
    if j_star is None:
        raise ValueError(f"{metric} needs a reference optimum j_star")
    if metric == "constrained_regret":
        return lambda r: normalized_regret_violation(r, j_star)
    if sigmas is None:
        raise ValueError("normalized metric needs per-output sigmas")
    return lambda r: normalized_regret_violation(r, j_star, sigmas)


def best_so_far_series(
    records: Sequence[RunRecord],
    metric: Callable[[RunRecord], float],
) -> np.ndarray:
    """Running minimum of a per-record metric over the sampled prefix."""
    values = [metric(r) for r in _sampled(records)]
    if not values:
        return np.empty(0)
    return np.minimum.accumulate(np.asarray(values, dtype=float))

