"""Online prediction of user behavior (paper Sec. IV takeaway).

The paper finds that even "expert" users have high within-user
variance, so "user-specific predictive resource management strategies
may not remain effective".  This module makes that claim testable: it
replays the job stream in submission order, predicts each job's
runtime / utilization from the submitting user's history with several
simple strategies, and scores the errors.

The reproducible insight: per-user predictors barely improve on a
global baseline for runtime (within-user CoV ~155 %), while
utilization is somewhat more learnable.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.analysis.streaming import iter_key_sorted_chunks
from repro.errors import AnalysisError
from repro.frame import Table

STRATEGIES = ("user_mean", "user_median", "user_last", "user_ewma", "global_median")

#: EWMA smoothing factor for the ``user_ewma`` strategy.
EWMA_ALPHA = 0.3


@dataclass(frozen=True)
class PredictionReport:
    """Accuracy of one strategy on one metric."""

    metric: str
    strategy: str
    num_predictions: int
    #: median of |prediction - actual| / actual
    median_relative_error: float
    #: mean of |log(prediction / actual)| — symmetric, scale-free
    mean_log_error: float
    #: fraction of predictions within a factor of two of the actual
    within_2x_fraction: float


class _History:
    """Per-user running state for all strategies at once.

    Kept incremental (running sum, sorted inserts, last value, EWMA)
    so a heavy user with thousands of jobs costs O(log n) per update
    rather than O(n) per prediction.
    """

    __slots__ = ("sorted_values", "total", "count", "last", "ewma")

    def __init__(self) -> None:
        self.sorted_values: list[float] = []
        self.total = 0.0
        self.count = 0
        self.last = 0.0
        self.ewma: float | None = None

    def predict(self, strategy: str, global_median: float) -> float:
        if strategy == "global_median":
            return global_median
        if strategy == "user_mean":
            return self.total / self.count
        if strategy == "user_median":
            values = self.sorted_values
            mid = len(values) // 2
            if len(values) % 2:
                return values[mid]
            return 0.5 * (values[mid - 1] + values[mid])
        if strategy == "user_last":
            return self.last
        if strategy == "user_ewma":
            assert self.ewma is not None
            return self.ewma
        raise AnalysisError(f"unknown strategy {strategy!r}")

    def update(self, value: float) -> None:
        import bisect

        bisect.insort(self.sorted_values, value)
        self.total += value
        self.count += 1
        self.last = value
        if self.ewma is None:
            self.ewma = value
        else:
            self.ewma = EWMA_ALPHA * value + (1.0 - EWMA_ALPHA) * self.ewma


def predict_user_behavior(
    gpu_jobs: Table,
    metric: str = "run_time_s",
    strategy: str = "user_mean",
    warmup: int = 3,
) -> PredictionReport:
    """Replay the job stream and score one prediction strategy.

    Predictions start after ``warmup`` prior jobs by the same user;
    the running global median serves both as the baseline strategy and
    as the cold-start value it is compared against.  Rows replay in
    submission order (see
    :func:`~repro.analysis.streaming.iter_key_sorted_chunks`), so any
    row order of a materialized table scores like
    ``sort_by("submit_time_s")``.
    """
    if strategy not in STRATEGIES:
        raise AnalysisError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    return _replay(gpu_jobs, metric, (strategy,), warmup)[0]


def _replay(
    gpu_jobs: Table, metric: str, strategies: tuple[str, ...], warmup: int
) -> list[PredictionReport]:
    """Score ``strategies`` on one metric from a single replay: the
    per-user histories and the running global median do not depend on
    the strategy."""
    if warmup < 1:
        raise AnalysisError("warmup must be >= 1")
    # Python floats: the same IEEE arithmetic as numpy scalars, at a
    # fraction of the cost per operation.
    stream = (
        pair
        for chunk in iter_key_sorted_chunks(gpu_jobs, "submit_time_s")
        for pair in zip(list(chunk["user"]), np.asarray(chunk[metric], dtype=float).tolist())
    )

    import bisect

    histories: dict[str, _History] = defaultdict(_History)
    seen_sorted: list[float] = []
    #: per strategy: (relative error, log error, within 2x) per prediction
    scored: list[list[tuple]] = [[] for _ in strategies]

    def running_median() -> float:
        mid = len(seen_sorted) // 2
        if len(seen_sorted) % 2:
            return seen_sorted[mid]
        return 0.5 * (seen_sorted[mid - 1] + seen_sorted[mid])

    for user, actual in stream:
        history = histories[user]
        if actual > 0 and history.count >= warmup and seen_sorted:
            global_median = running_median()
            for strategy, scores in zip(strategies, scored):
                prediction = history.predict(strategy, global_median)
                if prediction > 0:
                    ratio = prediction / actual
                    scores.append((
                        abs(prediction - actual) / actual,
                        abs(math.log(ratio)),
                        0.5 <= ratio <= 2.0,
                    ))
        history.update(actual)
        bisect.insort(seen_sorted, actual)

    reports = []
    for strategy, scores in zip(strategies, scored):
        if not scores:
            raise AnalysisError(f"no predictions possible (warmup={warmup})")
        rel_errors, log_errors, within_2x = zip(*scores)
        reports.append(
            PredictionReport(
                metric=metric,
                strategy=strategy,
                num_predictions=len(scores),
                median_relative_error=float(np.median(rel_errors)),
                mean_log_error=float(np.mean(log_errors)),
                within_2x_fraction=sum(within_2x) / len(scores),
            )
        )
    return reports


def strategy_comparison(
    gpu_jobs: Table,
    metrics: tuple[str, ...] = ("run_time_s", "sm_mean"),
    warmup: int = 3,
) -> Table:
    """Score every strategy on every metric; one row per pair, from one
    replay per metric."""
    rows = []
    for metric in metrics:
        for report in _replay(gpu_jobs, metric, STRATEGIES, warmup):
            rows.append(
                {
                    "metric": metric,
                    "strategy": report.strategy,
                    "median_relative_error": report.median_relative_error,
                    "mean_log_error": report.mean_log_error,
                    "within_2x_fraction": report.within_2x_fraction,
                    "num_predictions": report.num_predictions,
                }
            )
    return Table.from_rows(rows)


def predictability_gain(comparison: Table, metric: str) -> float:
    """How much the best per-user strategy beats the global baseline.

    Returns the relative reduction in mean log error; values near zero
    reproduce the paper's "users are not predictable" conclusion.
    """
    rows = [r for r in comparison.iter_rows() if r["metric"] == metric]
    if not rows:
        raise AnalysisError(f"metric {metric!r} not in comparison table")
    baseline = next(
        (r for r in rows if r["strategy"] == "global_median"), None
    )
    if baseline is None:
        raise AnalysisError("comparison table lacks the global_median baseline")
    best = min(
        (r for r in rows if r["strategy"] != "global_median"),
        key=lambda r: r["mean_log_error"],
    )
    if baseline["mean_log_error"] == 0:
        return 0.0
    return 1.0 - best["mean_log_error"] / baseline["mean_log_error"]
