"""The simulated ``nvidia-smi`` sampler.

Real nvidia-smi polls device counters; ours polls an
:class:`ActivityModel` — the ground-truth process describing what the
job does on each of its GPUs.  Two sampling modes mirror the paper:

* :meth:`NvidiaSmiSampler.sample_series` — dense sampling at a fixed
  interval (100 ms in production), used for the time-series subset;
* :meth:`NvidiaSmiSampler.summarize` — min/mean/max summaries computed
  from stratified samples plus the model's analytic extremes, used for
  the full 47k-job summary dataset where dense sampling would be too
  expensive (the paper reports exactly min/mean/max for this reason).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.errors import MonitoringError
from repro.monitor.timeseries import METRIC_NAMES, GpuTimeSeries


class ActivityModel(Protocol):
    """Ground truth for one job's GPU activity.

    Implementations live in :mod:`repro.workload.activity`.  A model
    may additionally offer ``metrics_at_all(times_s)`` — the batched
    form evaluating every GPU from one ``(num_gpus, n)`` time matrix —
    which the sampler uses when present and falls back to per-GPU
    :meth:`metrics_at` calls otherwise.  Deferred sampling
    (:func:`repro.monitor.sampling.run_sampling`) evaluates a whole
    island of :class:`~repro.workload.activity.JobActivityModel` s as
    one batch; any other model keeps this per-GPU path.
    """

    @property
    def num_gpus(self) -> int:
        """Number of GPUs the job holds."""

    def metrics_at(self, times_s: np.ndarray, gpu_index: int) -> dict[str, np.ndarray]:
        """Instantaneous metric values at the given offsets from start."""

    def analytic_max(self, gpu_index: int) -> dict[str, float]:
        """Per-metric supremum over the whole run (captures bursts that
        stratified sampling could miss)."""


class NvidiaSmiSampler:
    """Samples an activity model the way nvidia-smi samples a GPU."""

    def __init__(self, interval_s: float = 0.1, summary_samples: int = 512) -> None:
        if interval_s <= 0:
            raise MonitoringError(f"sampling interval must be positive, got {interval_s}")
        if summary_samples < 2:
            raise MonitoringError("need at least 2 summary samples")
        self.interval_s = interval_s
        self.summary_samples = summary_samples

    # ------------------------------------------------------------------
    def sample_series(
        self,
        job_id: int,
        model: ActivityModel,
        duration_s: float,
        gpu_index: int,
        max_samples: int | None = None,
    ) -> GpuTimeSeries:
        """Densely sample one GPU for the whole run.

        ``max_samples`` bounds memory for very long jobs by widening
        the effective interval (the paper instead bounded data volume
        by collecting the dense series for only 2,149 jobs).
        """
        if duration_s < 0:
            raise MonitoringError(f"negative duration {duration_s}")
        count = int(duration_s / self.interval_s) + 1
        if max_samples is not None and count > max_samples:
            times = np.linspace(0.0, duration_s, max_samples)
        else:
            times = np.arange(count) * self.interval_s
        metrics = model.metrics_at(times, gpu_index)
        self._check_metrics(job_id, metrics)
        return GpuTimeSeries(job_id=job_id, gpu_index=gpu_index, times_s=times, metrics=metrics)

    def sample_series_job(
        self,
        job_id: int,
        model: ActivityModel,
        duration_s: float,
        max_samples: int | None = None,
    ) -> list["GpuTimeSeries"]:
        """Densely sample every GPU of a job — batched when the model
        offers ``metrics_at_all``, matching per-GPU
        :meth:`sample_series` results bit for bit either way.
        """
        if duration_s < 0:
            raise MonitoringError(f"negative duration {duration_s}")
        count = int(duration_s / self.interval_s) + 1
        if max_samples is not None and count > max_samples:
            times = np.linspace(0.0, duration_s, max_samples)
        else:
            times = np.arange(count) * self.interval_s
        num_gpus = model.num_gpus
        metrics = self._metrics_rows(
            model, np.broadcast_to(times, (num_gpus, len(times))), job_id=job_id
        )
        return [
            GpuTimeSeries(
                job_id=job_id,
                gpu_index=gpu_index,
                times_s=times,
                metrics={name: values[gpu_index] for name, values in metrics.items()},
            )
            for gpu_index in range(num_gpus)
        ]

    def summary_sample_count(self, duration_s: float) -> int:
        """Stratified samples used to summarize one ``duration_s`` run."""
        if duration_s < 0:
            raise MonitoringError(f"negative duration {duration_s}")
        return min(self.summary_samples, max(int(duration_s / self.interval_s) + 1, 2))

    def draw_offsets(
        self, duration_s: float, num_gpus: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Stratified sample offsets (in ``[0, 1)``) for a whole job.

        One C-ordered ``rng.random((num_gpus, n))`` draw — exactly the
        stream ``num_gpus`` consecutive single-GPU draws consume, so
        batched and per-GPU summarization stay interchangeable.
        """
        return rng.random((num_gpus, self.summary_sample_count(duration_s)))

    def summarize(
        self,
        model: ActivityModel,
        duration_s: float,
        gpu_index: int,
        rng: np.random.Generator,
    ) -> dict[str, float]:
        """min/mean/max per metric from stratified sampling.

        Strata are equal-width time bins with one uniform sample each,
        giving an unbiased mean estimate; maxima are taken from the
        model's analytic extremes so short 100 %-utilization bursts are
        never missed (they define the bottleneck analysis of Fig. 7/8).
        """
        n = self.summary_sample_count(duration_s)
        offsets = rng.random(n).reshape(1, n)
        summary = self.summarize_with_offsets(
            model, duration_s, offsets, gpu_indices=(gpu_index,)
        )
        return {name: float(values[0]) for name, values in summary.items()}

    def summarize_job(
        self,
        model: ActivityModel,
        duration_s: float,
        rng: np.random.Generator,
    ) -> dict[str, np.ndarray]:
        """Summarize every GPU of a job at once.

        Returns ``{"<metric>_<stat>": array}`` with one element per GPU
        — column fragments ready for a
        :class:`~repro.frame.TableBuilder`.  The stratified offsets for
        all GPUs come from a single C-ordered ``rng.random((g, n))``
        draw (:meth:`draw_offsets`), which consumes the generator
        stream exactly like ``g`` consecutive :meth:`summarize` calls,
        so batched and per-GPU summarization produce identical
        datasets.
        """
        offsets = self.draw_offsets(duration_s, model.num_gpus, rng)
        return self.summarize_with_offsets(model, duration_s, offsets)

    def summarize_with_offsets(
        self,
        model: ActivityModel,
        duration_s: float,
        offsets: np.ndarray,
        gpu_indices: tuple[int, ...] | None = None,
    ) -> dict[str, np.ndarray]:
        """The single stratified min/mean/max implementation.

        Deterministic given ``offsets`` (row ``i`` drives GPU
        ``gpu_indices[i]``, default GPU ``i``), which is what lets the
        monitoring epilog defer this evaluation — and shard it across
        a process pool — without touching the RNG stream.  When the
        model implements ``metrics_at_all`` the whole job is evaluated
        in one vectorized call; the per-GPU ``metrics_at`` loop remains
        as the fallback and produces bit-identical output.  The island
        batch of :mod:`repro.monitor.sampling` shares its
        :func:`stratified_times` and :func:`summary_stats`.
        """
        if duration_s < 0:
            raise MonitoringError(f"negative duration {duration_s}")
        num_rows = offsets.shape[0]
        times = stratified_times(np.full(num_rows, float(duration_s)), offsets)
        if gpu_indices is None:
            gpu_indices = tuple(range(num_rows))
        metrics = self._metrics_rows(model, times, gpu_indices=gpu_indices)
        analytic = [model.analytic_max(g) for g in gpu_indices]
        maxima = {
            name: np.asarray([a.get(name, -np.inf) for a in analytic]) for name in METRIC_NAMES
        }
        return summary_stats(metrics, maxima)

    def _metrics_rows(
        self,
        model: ActivityModel,
        times: np.ndarray,
        gpu_indices: tuple[int, ...] | None = None,
        job_id: int | None = None,
    ) -> dict[str, np.ndarray]:
        """Evaluate ``times`` row ``i`` on GPU ``gpu_indices[i]``.

        Takes the model's batched ``metrics_at_all`` when it exists and
        the evaluation covers every GPU in order; otherwise loops
        :meth:`ActivityModel.metrics_at` per GPU and stacks the rows.
        """
        full_job = gpu_indices is None or gpu_indices == tuple(range(model.num_gpus))
        batched = getattr(model, "metrics_at_all", None) if full_job else None
        if batched is not None:
            metrics = batched(times)
            self._check_metrics(job_id, metrics)
            return metrics
        if gpu_indices is None:
            gpu_indices = tuple(range(model.num_gpus))
        rows = [model.metrics_at(times[i], g) for i, g in enumerate(gpu_indices)]
        for row in rows:
            self._check_metrics(job_id, row)
        return {
            name: np.stack([row[name] for row in rows]) for name in METRIC_NAMES
        }

    @staticmethod
    def _check_metrics(job_id: int | None, metrics: dict[str, np.ndarray]) -> None:
        missing = [m for m in METRIC_NAMES if m not in metrics]
        if missing:
            label = f"job {job_id}" if job_id is not None else "model"
            raise MonitoringError(f"{label} produced no values for {missing}")


def stratified_times(durations: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Stratified sample times for rows of ``(rows, n)`` ``offsets``.

    Row ``i`` splits ``[0, durations[i]]`` into ``n`` equal strata at
    ``np.linspace(0.0, durations[i], n + 1)`` and samples stratum ``k``
    at fraction ``offsets[i, k]``.  The edges repeat ``np.linspace``'s
    own operations row by row (including its zero-step branch), so a
    row is bit-for-bit what a one-job evaluation computes.  Each row's
    times come out non-decreasing, which lets the batch kernel find a
    burst window as one index range of the row.
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
    analytic maximum so short bursts the strata missed still count.
    """
    out: dict[str, np.ndarray] = {}
    for name in METRIC_NAMES:
        values = metrics[name]
        out[f"{name}_min"] = values.min(axis=1)
        out[f"{name}_mean"] = values.mean(axis=1)
        out[f"{name}_max"] = np.maximum(values.max(axis=1), maxima[name])
    return out
