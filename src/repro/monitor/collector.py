"""The collector tying the GPU monitor into the scheduler's epilog.

At job end the epilog records everything *ordered* about a GPU job —
the keep-series decision and the stratified sample offsets, both
drawn from the collector RNG in job-completion order — and enqueues
the expensive activity-model evaluation as a
:class:`~repro.monitor.sampling.SamplingTask`; a CPU-only job draws
nothing.  :meth:`flush` evaluates the queue after the simulation and
lands min/mean/max summary rows (one per GPU) plus the dense series
subset, reproducing the paper's 2,149-job detailed dataset with
bit-for-bit the output of an inline epilog.  One
:class:`~repro.monitor.nvidia_smi.NvidiaSmiSampler`, built from the
config, draws the offsets in the epilog and places the dense series
in :meth:`flush`.

The job's :class:`~repro.workload.activity.JobActivityModel` travels
on the job request under ``request.tags["activity"]``, so the
scheduler never sees it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MonitoringError
from repro.frame import Table
from repro.monitor.nvidia_smi import NvidiaSmiSampler
from repro.monitor.sampling import SamplingTask, run_sampling
from repro.monitor.timeseries import METRIC_NAMES, TimeSeriesStore
from repro.slurm.job import JobRecord


@dataclass
class MonitoringConfig:
    """Knobs of the telemetry pipeline (paper Sec. II defaults)."""

    gpu_interval_s: float = 0.1
    #: Stratified samples used for production summaries.
    summary_samples: int = 256
    #: Fraction of GPU jobs that keep a dense series (2149 / 47120).
    timeseries_fraction: float = 2149.0 / 47120.0
    #: Dense series are decimated beyond this many samples per GPU.
    timeseries_max_samples: int = 20000
    seed: int = 20220402


class MonitoringCollector:
    """Collects summaries and dense series as jobs finish.

    GPU sampling is deferred: epilogs enqueue tasks, :meth:`flush`
    evaluates them.  Every dataset accessor flushes first, so callers
    that never learned about deferral still see the finished tables.
    """

    def __init__(self, config: MonitoringConfig | None = None) -> None:
        self.config = config or MonitoringConfig()
        if not 0.0 <= self.config.timeseries_fraction <= 1.0:
            raise MonitoringError("timeseries_fraction must be in [0, 1]")
        self._rng = np.random.default_rng(self.config.seed)
        self._gpu_sampler = NvidiaSmiSampler(
            self.config.gpu_interval_s,
            self.config.summary_samples,
            self.config.timeseries_max_samples,
        )
        self._store = TimeSeriesStore()
        #: Per-GPU summary columns, one array per flush, concatenated
        #: once by :meth:`per_gpu_table`.
        self._gpu_parts: dict[str, list[np.ndarray]] = {"job_id": [], "gpu_index": []}
        self._pending: list[SamplingTask] = []

    # ------------------------------------------------------------------
    # Scheduler hook
    # ------------------------------------------------------------------
    def epilog(self, record: JobRecord) -> None:
        """Called when a job ends: the cheap, RNG-ordered half.

        A GPU job consumes the collector RNG exactly as an inline
        epilog would (keep-series draw, then stratified offsets) and
        defers the activity-model evaluation to :meth:`flush`.
        """
        from repro.obs import runtime

        request = record.request
        if not request.is_gpu_job:
            return
        model = request.tags.get("activity")
        if model is None:
            raise MonitoringError(f"GPU job {request.job_id} has no activity model")
        keep_series = self._rng.random() < self.config.timeseries_fraction
        metrics = runtime.get_metrics()
        if keep_series and metrics.enabled:
            metrics.counter(
                "repro_monitor_series_kept_total",
                help="dense time series retained (one per GPU)",
            ).inc(model.num_gpus)
        self._pending.append(
            SamplingTask(
                job_id=request.job_id,
                model=model,
                run_time_s=record.run_time_s,
                offsets=self._gpu_sampler.draw_offsets(
                    record.run_time_s, model.num_gpus, self._rng
                ),
                keep_series=keep_series,
            )
        )

    def attach(self, simulator) -> "MonitoringCollector":
        """Register this collector's epilog on a :class:`SlurmSimulator`."""
        simulator.add_epilog(self.epilog)
        return self

    # ------------------------------------------------------------------
    # Deferred sampling
    # ------------------------------------------------------------------
    @property
    def pending_tasks(self) -> int:
        """Sampling tasks enqueued but not yet evaluated."""
        return len(self._pending)

    def flush(self) -> int:
        """Evaluate every pending task and merge the results.

        Tasks are evaluated in job-completion order, so repeated
        partial flushes, one big flush, and the old inline epilog all
        build the same tables and series store.  Returns the number of
        per-GPU summary rows produced.  A flush with work to do runs
        under a ``monitor.sampling`` span carrying its task and row
        counts.
        """
        from repro.obs import runtime

        if not self._pending:
            return 0
        tasks, self._pending = self._pending, []
        with runtime.get_tracer().span(
            "monitor.sampling", category="monitor", tasks=len(tasks)
        ) as span:
            results = run_sampling(tasks, self._gpu_sampler)
            sizes = [result.num_gpus for result in results]
            rows = sum(sizes)
            parts = self._gpu_parts
            parts["job_id"].append(
                np.repeat(np.array([result.job_id for result in results], dtype=np.int64), sizes)
            )
            parts["gpu_index"].append(
                np.concatenate([np.arange(size, dtype=np.int64) for size in sizes])
            )
            for name in results[0].summary:
                parts.setdefault(name, []).append(
                    np.concatenate([result.summary[name] for result in results])
                )
            for result in results:
                for series in result.series:
                    self._store.add(series)
            span.set(rows=rows)
        metrics = runtime.get_metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_sampling_tasks_total",
                help="deferred sampling tasks evaluated",
            ).inc(len(tasks))
            metrics.counter(
                "repro_sampling_rows_total",
                help="per-GPU summary rows produced by deferred sampling",
            ).inc(rows)
            metrics.counter(
                "repro_sampling_series_total",
                help="dense series materialized by deferred sampling",
            ).inc(sum(len(result.series) for result in results))
        return rows

    # ------------------------------------------------------------------
    # Dataset assembly
    # ------------------------------------------------------------------
    @property
    def store(self) -> TimeSeriesStore:
        """The dense-series store (flushes pending tasks first)."""
        self.flush()
        return self._store

    def per_gpu_table(self) -> Table:
        """One row per (job, GPU) with min/mean/max of every metric, in
        job-completion order."""
        self.flush()
        columns = {}
        for name, parts in self._gpu_parts.items():
            if len(parts) > 1:
                parts[:] = [np.concatenate(parts)]
            # An island without GPU jobs has empty float64 key columns.
            columns[name] = parts[0] if parts else np.empty(0)
        return Table(columns)

    def job_gpu_table(self) -> Table:
        """Per-job GPU summary of :meth:`per_gpu_table`; see
        :func:`job_gpu_summary`."""
        return job_gpu_summary(self.per_gpu_table())


def job_gpu_summary(per_gpu: Table) -> Table:
    """Per-job GPU summary averaged over the job's GPUs.

    Matches the paper's methodology: "the average over multiple GPUs
    was computed to get a single number for multi-GPU jobs".  Minima
    take the min over GPUs and maxima the max, so bottleneck detection
    still sees the most-loaded device.
    """
    if not per_gpu.num_rows:
        return Table.empty(["job_id"])
    spec = {}
    for name in METRIC_NAMES:
        spec[f"{name}_min"] = "min"
        spec[f"{name}_mean"] = "mean"
        spec[f"{name}_max"] = "max"
    aggregated = per_gpu.group_by("job_id").aggregate(spec)
    renames = {}
    for name in METRIC_NAMES:
        renames[f"{name}_min_min"] = f"{name}_min"
        renames[f"{name}_mean_mean"] = f"{name}_mean"
        renames[f"{name}_max_max"] = f"{name}_max"
    return aggregated.rename(renames)
