"""The collector tying the monitors into the scheduler's prolog/epilog.

At job start the prolog notes the placement; at job end the epilog
records everything *ordered* about the job — the CPU summary, the
keep-series decision, and the stratified sample offsets, all drawn
from the collector RNG in job-completion order — and enqueues the
expensive activity-model evaluation as a
:class:`~repro.monitor.sampling.SamplingTask`.  :meth:`flush`
evaluates the queue after the simulation (optionally across a process
pool) and lands min/mean/max summary rows (one per GPU) plus the dense
series subset, reproducing the paper's 2,149-job detailed dataset with
bit-for-bit the output of the old inline epilog.

The activity model travels on the job request under
``request.tags["activity"]`` so the monitoring substrate stays
decoupled from the workload generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import MonitoringError
from repro.frame import Table, TableBuilder
from repro.monitor.cpu_sampler import CpuSampler
from repro.monitor.nvidia_smi import NvidiaSmiSampler
from repro.monitor.sampling import SamplingPlan, SamplingTask, run_sampling
from repro.monitor.timeseries import METRIC_NAMES, TimeSeriesStore
from repro.slurm.job import JobRecord, JobRequest


@dataclass
class MonitoringConfig:
    """Knobs of the telemetry pipeline (paper Sec. II defaults)."""

    gpu_interval_s: float = 0.1
    cpu_interval_s: float = 10.0
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
    evaluates them (``workers > 1`` shards the queue across a process
    pool).  Every dataset accessor flushes serially first, so callers
    that never learned about deferral still see the finished tables.
    """

    def __init__(self, config: MonitoringConfig | None = None) -> None:
        self.config = config or MonitoringConfig()
        if not 0.0 <= self.config.timeseries_fraction <= 1.0:
            raise MonitoringError("timeseries_fraction must be in [0, 1]")
        self._rng = np.random.default_rng(self.config.seed)
        self._gpu_sampler = NvidiaSmiSampler(
            self.config.gpu_interval_s, self.config.summary_samples
        )
        self._cpu_sampler = CpuSampler(self.config.cpu_interval_s)
        self._plan = SamplingPlan(
            gpu_interval_s=self.config.gpu_interval_s,
            timeseries_max_samples=self.config.timeseries_max_samples,
        )
        self._store = TimeSeriesStore()
        self._gpu_builder = TableBuilder(columns=["job_id", "gpu_index"])
        self._cpu_builder = TableBuilder(columns=["job_id"])
        self._started: dict[int, tuple[float, tuple[int, ...]]] = {}
        self._pending: list[SamplingTask] = []
        #: Set by :meth:`enable_spill`: where sealed summary runs go,
        #: and how many rows seal one.
        self._spill_dir: Path | None = None
        self._seal_rows = 0
        self._spill_runs: list[Path] = []

    # ------------------------------------------------------------------
    # Scheduler hooks
    # ------------------------------------------------------------------
    def prolog(self, request: JobRequest, start_time_s: float, nodes: tuple[int, ...]) -> None:
        """Called when a job starts: begin "sampling"."""
        self._started[request.job_id] = (start_time_s, nodes)

    def epilog(self, record: JobRecord) -> None:
        """Called when a job ends: the cheap, RNG-ordered half.

        Consumes the collector RNG exactly as the old inline epilog
        did (CPU summary, keep-series draw, stratified offsets) and
        defers the activity-model evaluation to :meth:`flush`.
        """
        from repro.obs import runtime

        request = record.request
        self._started.pop(request.job_id, None)
        self._cpu_builder.append_row(
            {
                "job_id": request.job_id,
                **self._cpu_sampler.summarize(
                    record.run_time_s, request.cores, request.memory_gb, self._rng
                ),
            }
        )
        metrics = runtime.get_metrics()
        if not request.is_gpu_job:
            if metrics.enabled:
                metrics.counter(
                    "repro_monitor_jobs_total",
                    help="jobs summarized by the monitoring epilog",
                    kind="cpu",
                ).inc()
            return
        model = request.tags.get("activity")
        if model is None:
            raise MonitoringError(f"GPU job {request.job_id} has no activity model")
        keep_series = self._rng.random() < self.config.timeseries_fraction
        if metrics.enabled:
            metrics.counter(
                "repro_monitor_jobs_total",
                help="jobs summarized by the monitoring epilog",
                kind="gpu",
            ).inc()
            metrics.counter(
                "repro_monitor_summary_rows_total",
                help="per-GPU summary rows emitted",
            ).inc(model.num_gpus)
            if keep_series:
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

    def run_end(self, result) -> None:
        """Called when the simulation drains: record the deferred load."""
        from repro.obs import runtime

        metrics = runtime.get_metrics()
        if metrics.enabled:
            metrics.gauge(
                "repro_sampling_pending_tasks",
                help="sampling tasks deferred by the epilog, awaiting flush",
            ).set(len(self._pending))

    def attach(self, simulator) -> "MonitoringCollector":
        """Register this collector on a :class:`SlurmSimulator`."""
        simulator.add_prolog(self.prolog)
        simulator.add_epilog(self.epilog)
        simulator.add_run_end(self.run_end)
        return self

    # ------------------------------------------------------------------
    # Deferred sampling
    # ------------------------------------------------------------------
    @property
    def pending_tasks(self) -> int:
        """Sampling tasks enqueued but not yet evaluated."""
        return len(self._pending)

    def flush(self, workers: int | None = None) -> int:
        """Evaluate every pending task and merge the results.

        Tasks are evaluated in job-completion order (sharded across a
        process pool when ``workers > 1``, with identical output), so
        repeated partial flushes, one big flush, and the old inline
        epilog all build the same tables and series store.  Returns
        the number of per-GPU summary rows produced.  A flush with work
        to do runs under a ``monitor.sampling`` span carrying its task
        count, row count and mode (``serial`` or ``parallel``).
        """
        from repro.obs import runtime

        if not self._pending:
            return 0
        tasks, self._pending = self._pending, []
        mode = "parallel" if workers is not None and workers > 1 else "serial"
        with runtime.get_tracer().span(
            "monitor.sampling", category="monitor", tasks=len(tasks), mode=mode
        ) as span:
            results = run_sampling(tasks, self._plan, workers=workers)
            rows = 0
            for result in results:
                # All of the job's GPUs land in the builder as column
                # fragments — no per-GPU row dict.
                self._gpu_builder.extend_columns(
                    {
                        "job_id": np.full(result.num_gpus, result.job_id, dtype=np.int64),
                        "gpu_index": np.arange(result.num_gpus, dtype=np.int64),
                        **result.summary,
                    }
                )
                rows += result.num_gpus
                for series in result.series:
                    self._store.add(series)
                if self._spill_dir is not None and self._gpu_builder.num_rows >= self._seal_rows:
                    self._seal_gpu_run()
            span.set(rows=rows)
        metrics = runtime.get_metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_sampling_tasks_total",
                help="deferred sampling tasks evaluated",
                mode=mode,
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

    def enable_spill(self, directory: str | Path, chunk_rows: int | None = None) -> None:
        """Seal per-GPU summary rows to ``.npz`` runs as sampling flushes.

        A runtime switch, deliberately *not* a :class:`MonitoringConfig`
        field: the config hashes into dataset cache keys, and spilling
        is an execution detail that must leave them untouched.  Flip it
        before the final flush: from then on a flush seals the live
        rows into a run whenever they reach ``chunk_rows`` (default
        :data:`~repro.frame.DEFAULT_CHUNK_ROWS`).  Runs go through the
        lossless spill codec, so read-back stays bit-identical.  A
        ``directory`` that cannot be created raises
        :class:`~repro.errors.FrameError` naming it.
        """
        from repro.frame import DEFAULT_CHUNK_ROWS
        from repro.frame.codec import make_spill_dir

        self._spill_dir = make_spill_dir(directory)
        self._seal_rows = chunk_rows if chunk_rows is not None else DEFAULT_CHUNK_ROWS

    def _seal_gpu_run(self) -> None:
        """Write the live summary rows as one sealed run, counting its
        bytes, and start a fresh builder."""
        from repro.frame import LOSSLESS, table_raw_bytes, write_table_npz
        from repro.frame.codec import count_spill
        from repro.obs import runtime

        table = self._gpu_builder.finish()
        path = self._spill_dir / f"run_{len(self._spill_runs):06d}.npz"
        write_table_npz(table, path, codec=LOSSLESS)
        self._spill_runs.append(path)
        self._gpu_builder = TableBuilder(columns=self._gpu_builder.column_names)
        count_spill(1, path.stat().st_size, table_raw_bytes(table))
        metrics = runtime.get_metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_monitor_summary_chunks_total",
                help="per-GPU summary runs the collector sealed to disk",
            ).inc()

    def _sealed_parts(self) -> list:
        """Sealed runs as lazy thunks plus the live builder remainder.

        Each element is a zero-arg callable returning a Table; disk
        runs load on call so only one run is resident at a time.
        """
        from repro.frame import read_table_npz

        parts: list = [
            (lambda p=path: read_table_npz(p)) for path in self._spill_runs
        ]
        if self._gpu_builder.num_rows or not parts:
            remainder = self._gpu_builder.finish()
            parts.append(lambda t=remainder: t)
        return parts

    def per_gpu_table(self) -> Table:
        """One row per (job, GPU) with min/mean/max of every metric."""
        from repro.frame import concat_tables

        self.flush()
        parts = [thunk() for thunk in self._sealed_parts()]
        if len(parts) == 1:
            return parts[0]
        return concat_tables(parts)

    def sorted_summary_stream(self, chunk_rows: int | None = None) -> "ChunkedTable":
        """Per-GPU summary rows in global ``(job_id, gpu_index)`` order.

        Sealed runs are each job-completion-ordered internally, so a
        lazily sorted view of every run feeds a k-way
        :func:`~repro.frame.merge_sorted_chunked` — at most one run is
        fully resident per source while merging.  Bit-identical to
        ``per_gpu_table().sort_by("job_id", "gpu_index")`` because the
        merge preserves source order on ties and sorts are stable.
        """
        from repro.frame import DEFAULT_CHUNK_ROWS, ChunkedTable, merge_sorted_chunked

        self.flush()
        parts = self._sealed_parts()
        rows = chunk_rows if chunk_rows is not None else DEFAULT_CHUNK_ROWS

        def source(thunk):
            def produce():
                table = thunk().sort_by("job_id", "gpu_index")
                if table.num_rows:
                    yield table

            return ChunkedTable(produce)

        return merge_sorted_chunked(
            [source(thunk) for thunk in parts],
            ("job_id", "gpu_index"),
            chunk_rows=rows,
        )

    def cpu_table(self) -> Table:
        """One row per job with CPU-side summary metrics."""
        return self._cpu_builder.finish()

    def job_gpu_table(self) -> Table:
        """Per-job GPU summary averaged over the job's GPUs.

        Matches the paper's methodology: "the average over multiple
        GPUs was computed to get a single number for multi-GPU jobs".
        Minima take the min over GPUs and maxima the max, so bottleneck
        detection still sees the most-loaded device.
        """
        per_gpu = self.per_gpu_table()
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
