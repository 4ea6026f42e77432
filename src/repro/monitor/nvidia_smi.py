"""The simulated ``nvidia-smi`` sampler.

Real nvidia-smi polls device counters; ours chooses the times at which
a job's :class:`~repro.workload.activity.JobActivityModel` — the
ground truth of what the job does on each of its GPUs — is evaluated.
Two sampling modes mirror the paper:

* dense sampling at a fixed interval (100 ms in production), used for
  the time-series subset (:meth:`NvidiaSmiSampler.series_times`);
* min/mean/max summaries computed from stratified samples plus the
  model's analytic extremes (:meth:`NvidiaSmiSampler.draw_offsets`,
  :func:`stratified_times`, :func:`summary_stats`), used for the full
  47k-job summary dataset where dense sampling would be too expensive
  (the paper reports exactly min/mean/max for this reason).

:func:`repro.monitor.sampling.run_sampling` evaluates both for a whole
island of jobs at once.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import MonitoringError
from repro.monitor.timeseries import METRIC_NAMES


class NvidiaSmiSampler:
    """How nvidia-smi samples a GPU: the dense-series cadence and its
    cap, and the stratified sample count of a summary."""

    def __init__(
        self,
        interval_s: float = 0.1,
        summary_samples: int = 512,
        max_series_samples: int = 20000,
    ) -> None:
        if not 0 < interval_s < math.inf:
            raise MonitoringError(
                f"sampling interval must be positive and finite, got {interval_s}"
            )
        if not summary_samples >= 2:
            raise MonitoringError(f"need at least 2 summary samples, got {summary_samples}")
        if not max_series_samples >= 1:
            raise MonitoringError(
                f"dense series need at least 1 sample, got {max_series_samples}"
            )
        self.interval_s = interval_s
        self.summary_samples = summary_samples
        self.max_series_samples = max_series_samples

    def series_times(self, duration_s: float) -> np.ndarray:
        """Dense-series sample offsets for a ``duration_s`` run.

        One sample every ``interval_s`` from 0; a run that would need
        more than ``max_series_samples`` gets that many evenly spaced
        offsets over ``[0, duration_s]`` instead, which bounds memory
        for very long jobs (the paper instead bounded data volume by
        collecting the dense series for only 2,149 jobs).
        """
        if duration_s < 0:
            raise MonitoringError(f"negative duration {duration_s}")
        count = int(duration_s / self.interval_s) + 1
        if count > self.max_series_samples:
            return np.linspace(0.0, duration_s, self.max_series_samples)
        return np.arange(count) * self.interval_s

    def summary_sample_count(self, duration_s: float) -> int:
        """Stratified samples used to summarize one ``duration_s`` run."""
        if duration_s < 0:
            raise MonitoringError(f"negative duration {duration_s}")
        return min(self.summary_samples, max(int(duration_s / self.interval_s) + 1, 2))

    def draw_offsets(
        self, duration_s: float, num_gpus: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Stratified sample offsets (in ``[0, 1)``) for a whole job.

        One C-ordered ``rng.random((num_gpus, n))`` draw: row ``g``
        drives GPU ``g`` through :func:`stratified_times`.
        """
        return rng.random((num_gpus, self.summary_sample_count(duration_s)))


def stratified_times(durations: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Stratified sample times for rows of ``(rows, n)`` ``offsets``.

    Row ``i`` splits ``[0, durations[i]]`` into ``n`` equal strata at
    ``np.linspace(0.0, durations[i], n + 1)`` and samples stratum ``k``
    at fraction ``offsets[i, k]``, giving an unbiased mean estimate.
    The edges repeat ``np.linspace``'s own operations row by row
    (including its zero-step branch), so a row is bit-for-bit what a
    one-job evaluation computes.  Each row's times come out
    non-decreasing, which lets the batch kernel find a burst window as
    one index range of the row.
    """
    n = offsets.shape[1]
    steps = durations / n
    grid = np.arange(n + 1, dtype=float)
    edges = grid * steps[:, None]
    zero = steps == 0
    if zero.any():
        edges[zero] = grid / n * durations[zero, None]
    edges += 0.0
    edges[:, -1] = durations
    return edges[:, :-1] + offsets * np.diff(edges, axis=1)


def summary_stats(
    metrics: dict[str, np.ndarray], maxima: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """``{"<metric>_<stat>": (rows,) array}`` from ``(rows, n)`` samples.

    min/mean/max reduce along each row; the max is raised to the row's
    analytic maximum so short 100 %-utilization bursts the strata
    missed still count (they define the bottleneck analysis of
    Fig. 7/8).
    """
    out: dict[str, np.ndarray] = {}
    for name in METRIC_NAMES:
        values = metrics[name]
        out[f"{name}_min"] = values.min(axis=1)
        out[f"{name}_mean"] = values.mean(axis=1)
        out[f"{name}_max"] = np.maximum(values.max(axis=1), maxima[name])
    return out
