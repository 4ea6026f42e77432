"""Active/idle phase segmentation of GPU time series (Fig 6, Fig 7a).

The paper's finding: GPU jobs alternate between active phases (GPU
resources in use) and idle phases (only host CPUs busy), at irregular
intervals.  We recover those phases from a sampled series exactly the
way an operator would: a sample is *active* when any GPU-side signal
(SM or memory-bandwidth utilization) exceeds a small threshold, and
consecutive same-state samples form intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import coefficient_of_variation
from repro.errors import AnalysisError
from repro.monitor.timeseries import GpuTimeSeries

#: Utilization (%) below which a sample counts as idle.
ACTIVITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class PhaseStats:
    """Per-job phase statistics."""

    job_id: int
    active_fraction: float
    num_active_intervals: int
    num_idle_intervals: int
    active_interval_cov: float
    idle_interval_cov: float
    mean_active_interval_s: float
    mean_idle_interval_s: float


def activity_mask(series: GpuTimeSeries, threshold: float = ACTIVITY_THRESHOLD) -> np.ndarray:
    """Boolean per-sample activity: any GPU-side signal above threshold."""
    sm = series.metric("sm")
    mem = series.metric("mem_bw")
    return (sm > threshold) | (mem > threshold)


def _intervals(times_s: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lengths of maximal same-state runs: (active_lengths, idle_lengths)."""
    if len(times_s) == 0:
        return np.empty(0), np.empty(0)
    change = np.nonzero(np.diff(mask.astype(np.int8)))[0]
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change, [len(mask) - 1]))
    lengths = times_s[ends] - times_s[starts]
    # A run of a single sample still occupies one sampling interval.
    if len(times_s) > 1:
        step = float(np.median(np.diff(times_s)))
        lengths = np.maximum(lengths, step)
    states = mask[starts]
    return lengths[states], lengths[~states]


def phase_stats(series: GpuTimeSeries, threshold: float = ACTIVITY_THRESHOLD) -> PhaseStats:
    """Segment one series into phases and summarise them."""
    if series.num_samples == 0:
        raise AnalysisError(f"series for job {series.job_id} has no samples")
    mask = activity_mask(series, threshold)
    active_lengths, idle_lengths = _intervals(series.times_s, mask)
    total = active_lengths.sum() + idle_lengths.sum()
    active_fraction = float(active_lengths.sum() / total) if total > 0 else float(mask.mean())
    return PhaseStats(
        job_id=series.job_id,
        active_fraction=active_fraction,
        num_active_intervals=len(active_lengths),
        num_idle_intervals=len(idle_lengths),
        active_interval_cov=coefficient_of_variation(active_lengths),
        idle_interval_cov=coefficient_of_variation(idle_lengths),
        mean_active_interval_s=float(active_lengths.mean()) if len(active_lengths) else 0.0,
        mean_idle_interval_s=float(idle_lengths.mean()) if len(idle_lengths) else 0.0,
    )


def within_active_cov(
    series: GpuTimeSeries,
    metrics: tuple[str, ...] = ("sm", "mem_bw", "mem_size"),
    threshold: float = ACTIVITY_THRESHOLD,
) -> dict[str, float]:
    """CoV of each metric over the job's *active* samples (Fig 7a).

    The paper computes utilization variability during active phases;
    including idle zeros would trivially inflate every CoV.
    """
    mask = activity_mask(series, threshold)
    out: dict[str, float] = {}
    for name in metrics:
        values = series.metric(name)[mask]
        out[name] = coefficient_of_variation(values) if values.size else float("nan")
    return out


class PhaseAccumulator:
    """Mergeable one-pass fold producing the per-job phase table.

    Feed it series grouped by job (``store.iter_sorted()`` order); it
    keeps exactly one job's running best candidate resident — the
    series with the highest SM mean, strict ``>`` so the first
    candidate wins ties, matching ``max()`` over an ascending
    ``gpu_index`` list.  Island shards each fold their own jobs and
    :meth:`merge` takes the disjoint union, so the partitioned build
    never holds more than one series per shard.
    """

    def __init__(self) -> None:
        #: job id -> finished phase row, in first-seen order per shard.
        self._rows: dict[int, dict] = {}
        self._job: int | None = None
        self._best: GpuTimeSeries | None = None
        self._best_mean = float("-inf")

    def update(self, series: GpuTimeSeries) -> None:
        """Fold in the next series (must arrive grouped by job id)."""
        if series.job_id != self._job:
            self._finish_job()
            self._job = series.job_id
        mean = float(series.metric("sm").mean())
        if self._best is None or mean > self._best_mean:
            self._best = series
            self._best_mean = mean

    def _finish_job(self) -> None:
        if self._best is None:
            return
        stats = phase_stats(self._best)
        covs = within_active_cov(self._best)
        self._rows[self._best.job_id] = {
            "job_id": self._best.job_id,
            "active_fraction": stats.active_fraction,
            "active_interval_cov": stats.active_interval_cov,
            "idle_interval_cov": stats.idle_interval_cov,
            "num_active_intervals": stats.num_active_intervals,
            "num_idle_intervals": stats.num_idle_intervals,
            "sm_active_cov": covs["sm"],
            "mem_bw_active_cov": covs["mem_bw"],
            "mem_size_active_cov": covs["mem_size"],
        }
        self._best = None
        self._best_mean = float("-inf")

    def merge(self, other: "PhaseAccumulator") -> None:
        """Absorb another shard's finished rows (disjoint job ids)."""
        other._finish_job()
        for job_id, row in other._rows.items():
            if job_id in self._rows:
                raise AnalysisError(f"job {job_id} folded by two phase shards")
            self._rows[job_id] = row

    def result(self, jobs_with_context=None):
        """The phase table, rows in ascending job-id order."""
        from repro.frame import Table

        self._finish_job()
        rows = []
        for job_id in sorted(self._rows):
            row = dict(self._rows[job_id])
            if jobs_with_context and job_id in jobs_with_context:
                row.update(jobs_with_context[job_id])
            rows.append(row)
        return Table.from_rows(rows)


def job_phase_table(store, jobs_with_context=None):
    """Phase stats for every job in a time-series store, as a Table.

    ``jobs_with_context`` optionally maps job id -> dict of extra
    columns (lifecycle class etc.).  Multi-GPU jobs use their most
    active GPU (idle GPUs would report a zero active fraction that
    says nothing about the job's phase structure).

    One bounded-memory pass: series stream through in ``(job_id,
    gpu_index)`` order (``iter_sorted`` keeps one spill batch resident
    for a :class:`~repro.monitor.timeseries.SpilledTimeSeriesStore`)
    and the :class:`PhaseAccumulator` holds a single candidate series
    at a time, so the table costs O(jobs) rows rather than O(samples).
    """
    accumulator = PhaseAccumulator()
    for series in store.iter_sorted():
        accumulator.update(series)
    return accumulator.result(jobs_with_context)
