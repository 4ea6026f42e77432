"""The :class:`Session` — single entry point to the dataset engine.

A session owns one pipeline configuration and everything derived from
it: the staged dataset build (``workload → schedule → assemble``, run
by :func:`repro.pipeline.shard.build_sharded_dataset` as
``partitions`` cluster islands, one island for the whole machine), the
on-disk artifact cache, figure execution, and per-stage
instrumentation.  Each island evaluates the GPU sampling tasks its
monitoring epilogs deferred as it finishes, inside ``schedule``, under
its own ``monitor.sampling`` span.  The session's ``workers``
setting bounds the forked island hosts, which also draw the workload
cohorts routed to their islands; figures always run in the session's
process.  Consumers —
the CLI, figure regeneration, validation, robustness sweeps,
benchmarks — share one session instead of each re-running the
generation pipeline:

>>> from repro.pipeline import Session
>>> session = Session.from_scenario(scale=0.01, seed=7)
>>> dataset = session.dataset()           # built once, memoized
>>> dataset is session.dataset()          # later calls are free
True

With ``cache_dir`` set, the built artifacts persist: a second session
(or a second *process*) with the same configuration loads the frame
tables, time series and job records from disk instead of
re-simulating.  Figure results live only on the dataset
(:attr:`~repro.dataset.SupercloudDataset.figure_results`), so every
session computes its figures from the dataset it holds.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Sequence

from repro.monitor.collector import MonitoringConfig
from repro.obs import runtime as obs_runtime
from repro.obs.events import FlightRecorder, NullRecorder
from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.trace import NullTracer, Tracer
from repro.pipeline.cache import DatasetCache, dataset_key
from repro.pipeline.instrument import PipelineInstrumentation, StageRecord
from repro.pipeline.parallel import resolve_workers
from repro.pipeline.shard import build_sharded_dataset
from repro.workload.generator import WorkloadConfig

#: The dataset-construction stages, in execution order.
BUILD_STAGES = ("workload", "schedule", "assemble")


class Session:
    """Shared, cached, optionally parallel dataset engine.

    Parameters
    ----------
    config:
        Workload configuration (defaults to the paper workload).
    monitoring:
        Telemetry configuration (defaults preserved when ``None``).
    cache_dir:
        Directory for the on-disk artifact cache.  ``None`` disables
        disk caching (the in-memory memo still applies).
    workers:
        Process width of cold dataset builds; ``1`` means serial.  A
        build forks ``min(workers, partitions)`` island hosts; each
        draws the GPU cohorts routed to its islands, then simulates
        and samples them serially, while the session's process draws
        only the CPU shard and numbers the jobs.
        Figures run in the session's process at any width.  ``None``
        defers to the ``REPRO_WORKERS`` environment variable (serial
        when unset).
    tracer, metrics, recorder:
        The session's observability triple (see :mod:`repro.obs`).
        Defaults to a fresh enabled :class:`~repro.obs.trace.Tracer`,
        :class:`~repro.obs.metrics.MetricsRegistry`, and
        :class:`~repro.obs.events.FlightRecorder`; pass
        :data:`~repro.obs.trace.NULL_TRACER` /
        :data:`~repro.obs.metrics.NULL_METRICS` /
        :data:`~repro.obs.events.NULL_RECORDER` to opt out entirely.
        While the session builds datasets or runs figures the triple
        is installed as the ambient observability
        (:func:`repro.obs.runtime.use`), so the scheduler loop, the
        frame kernels, and the collector report into it too.  Span
        closes live only in the tracer; the recorder keeps the moments
        no span covers, and :func:`repro.obs.export.timeline_events`
        joins the two for export.
    """

    def __init__(
        self,
        config: WorkloadConfig | None = None,
        monitoring: MonitoringConfig | None = None,
        *,
        cache_dir: str | Path | None = None,
        workers: int | None = None,
        interchange=None,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | NullMetrics | None = None,
        recorder: FlightRecorder | NullRecorder | None = None,
    ) -> None:
        self.config = config or WorkloadConfig()
        self.monitoring = monitoring
        self.workers = resolve_workers(workers)
        self.interchange = interchange
        self.cache = DatasetCache(cache_dir) if cache_dir is not None else None
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.instrumentation = PipelineInstrumentation(self.tracer, self.metrics)
        self._dataset = None
        self._streaming_dataset = None

    @classmethod
    def from_scenario(
        cls,
        scenario: str = "paper",
        *,
        scale: float = 0.1,
        seed: int = 20220214,
        days: float | None = None,
        partitions: int = 1,
        cohorts: int | None = None,
        monitoring: MonitoringConfig | None = None,
        interchange=None,
        **session_kwargs,
    ) -> "Session":
        """Build a session from a named workload scenario.

        ``partitions`` splits the machine into that many islands and
        ``cohorts`` the workload into that many generator streams;
        ``interchange`` couples the islands (migration / fair-share
        sync; see ``docs/scaling.md``).  The defaults simulate the
        whole machine as one island from the single-stream workload.
        """
        from repro.workload.scenarios import make_scenario

        config = make_scenario(scenario, scale=scale, seed=seed)
        if days is not None and days != config.days:
            config = dataclasses.replace(config, days=days)
        if partitions != config.partitions or cohorts != config.cohorts:
            config = dataclasses.replace(config, partitions=partitions, cohorts=cohorts)
        return cls(config, monitoring, interchange=interchange, **session_kwargs)

    # ------------------------------------------------------------------
    # Dataset
    # ------------------------------------------------------------------
    @property
    def key(self) -> str:
        """The cache key: content hash of the full configuration."""
        return dataset_key(self.config, self.monitoring, self.interchange)

    def dataset(self):
        """The dataset — memoized, cache-backed, built at most once."""
        inst = self.instrumentation
        if self._dataset is not None:
            inst.bump("memory_hit")
            return self._dataset
        with obs_runtime.use(self.tracer, self.metrics, self.recorder):
            if self.cache is not None and self.cache.has(self.key):
                with inst.stage("cache_load", from_cache=True) as probe:
                    loaded = self.cache.load(self.key, self.config)
                    probe.rows = loaded.jobs.num_rows if loaded is not None else 0
                if loaded is not None:
                    inst.bump("cache_hit")
                    self._dataset = loaded
                    return loaded
                inst.bump("cache_corrupt")
                self.cache.evict(self.key)
            dataset = build_sharded_dataset(
                self.config,
                self.monitoring,
                inst,
                workers=self.workers,
                interchange=self.interchange,
            )
            inst.bump("build")
            if self.cache is not None:
                with inst.stage("cache_store") as probe:
                    self.cache.store(self.key, dataset)
                    probe.rows = dataset.jobs.num_rows
        self._dataset = dataset
        return dataset

    def streaming_dataset(
        self,
        chunk_rows: int | None = None,
        spill_dir: str | Path | None = None,
    ):
        """The dataset as a bounded-memory streaming build.

        The spill-and-merge path, for one island or many: each island
        spills its monitoring outputs to ``spill_dir`` (a fresh temp
        directory by default) and the parent k-way-merges the chunk
        streams, so parent memory stays bounded by the chunk size.  The
        result carries chunked job tables, a
        :class:`~repro.monitor.timeseries.SpilledTimeSeriesStore`, and
        no job records; call :meth:`SupercloudDataset.materialize` to
        pull it back into memory.  Streaming builds bypass the disk
        cache (the artifacts *are* the spill files) but are memoized
        on the session.
        """
        if self._streaming_dataset is not None:
            self.instrumentation.bump("memory_hit")
            return self._streaming_dataset
        with obs_runtime.use(self.tracer, self.metrics, self.recorder):
            dataset = build_sharded_dataset(
                self.config,
                self.monitoring,
                self.instrumentation,
                workers=self.workers,
                interchange=self.interchange,
                streaming=True,
                spill_dir=spill_dir,
                chunk_rows=chunk_rows,
            )
            self.instrumentation.bump("build")
        self._streaming_dataset = dataset
        return dataset

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------
    def run_figures(self, figure_ids: Sequence[str] | None = None) -> list:
        """Run figure reproductions against the shared dataset.

        The figures run one after another in this process, under the
        ``figures`` stage; the dataset keeps each result, so a figure
        it already computed is not run again.
        """
        from repro.figures.registry import all_figures, get_figure, run_figure

        ids = list(figure_ids) if figure_ids is not None else all_figures()
        for figure_id in ids:
            get_figure(figure_id)  # validate up front
        with obs_runtime.use(self.tracer, self.metrics, self.recorder):
            dataset = self.dataset()
            with self.instrumentation.stage("figures") as probe:
                results = [run_figure(figure_id, dataset) for figure_id in ids]
                probe.rows = len(ids)
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stages(self) -> list[StageRecord]:
        return list(self.instrumentation.stages)

    def executed(self, stage_name: str) -> bool:
        """Whether a pipeline stage actually ran in this session."""
        return self.instrumentation.executed(stage_name)

    def summary(self) -> str:
        """Per-stage timing/row counts plus cache and build counters."""
        cfg = self.config
        cache_line = str(self.cache.root) if self.cache is not None else "disabled"
        lines = [
            f"pipeline session {self.key}",
            f"  config: scale={cfg.scale:g} seed={cfg.seed} days={cfg.days:g}",
            f"  partitions: {cfg.partitions} (cohorts: {cfg.resolved_cohorts})",
            f"  cache: {cache_line}",
            f"  workers: {self.workers}",
            f"  builds: {self.instrumentation.count('build')}, "
            f"cache hits: {self.instrumentation.count('cache_hit')}",
        ]
        text = self.instrumentation.to_text()
        if text:
            lines.append(text)
        return "\n".join(lines)
