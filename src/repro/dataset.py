"""The combined study dataset and its one-call entry point.

The dataset *engine* lives in :mod:`repro.pipeline`: a
:class:`~repro.pipeline.session.Session` runs the staged
``workload → schedule → assemble`` pipeline with per-stage
instrumentation, an on-disk artifact cache, and forked island
hosts.  This module keeps the data container
(:class:`SupercloudDataset`) and :func:`generate_dataset`, a thin
wrapper over ``Session.dataset()``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.cluster.spec import ClusterSpec
from repro.frame import Table
from repro.monitor.collector import MonitoringConfig
from repro.monitor.timeseries import TimeSeriesStore
from repro.slurm.job import JobRecord
from repro.workload.generator import WorkloadConfig


@dataclass
class SupercloudDataset:
    """The reproduced study dataset.

    Attributes
    ----------
    jobs:
        All finished jobs (CPU and GPU) with accounting fields; GPU
        summary metrics joined where available.
    gpu_jobs:
        GPU jobs after the paper's 30-second filter, with per-job GPU
        metrics averaged over the job's GPUs.
    per_gpu:
        One row per (job, GPU) with metric summaries plus job context.
    timeseries:
        Dense series store for the sampled subset of jobs.
    """

    jobs: Table
    gpu_jobs: Table
    per_gpu: Table
    timeseries: TimeSeriesStore
    records: list[JobRecord]
    spec: ClusterSpec
    config: WorkloadConfig

    @property
    def is_streaming(self) -> bool:
        """Whether the job tables are chunked streams (see
        :meth:`repro.pipeline.Session.streaming_dataset`)."""
        from repro.frame import ChunkedTable

        return isinstance(self.jobs, ChunkedTable)

    @functools.cached_property
    def phase_table(self) -> Table:
        """:func:`~repro.analysis.phases.job_phase_table` of the series
        store, folded on first use and kept (O(jobs with series) rows);
        copies (:meth:`streaming_view`, ``dataclasses.replace``) fold
        their own."""
        from repro.analysis.phases import job_phase_table

        return job_phase_table(self.timeseries)

    @functools.cached_property
    def figure_results(self) -> dict:
        """Figure results computed against this dataset, by figure id:
        :func:`~repro.figures.registry.run_figure` keeps each one the
        first time it computes it, so validation grades the figures a
        report already ran; copies (:meth:`streaming_view`,
        ``dataclasses.replace``) compute their own."""
        return {}

    @property
    def num_users(self) -> int:
        return self.gpu_jobs.value_counts("user").num_rows

    def describe(self) -> str:
        """Short textual summary mirroring the paper's Sec. II stats."""
        return (
            f"{self.config.days:g}-day study: {self.jobs.num_rows} total jobs, "
            f"{self.gpu_jobs.num_rows} GPU jobs after the 30 s filter, "
            f"{self.num_users} users, "
            f"{len(self.timeseries.job_ids())} jobs with dense time series"
        )

    def streaming_view(self, chunk_rows: int | None = None) -> "SupercloudDataset":
        """A copy whose job tables are chunked views of the same data.

        Every registered figure producer consumes either
        representation through the same chunk folds
        (:mod:`repro.analysis`): count/share statistics are exact on
        any chunking, and quantiles are exact on one chunk (the
        materialized tables) and rank-bounded on more.  ``timeseries``/``records`` are shared, and
        :meth:`repro.monitor.timeseries.TimeSeriesStore.scan_table`
        streams the dense samples.  When ``chunk_rows`` is omitted each
        table picks an adaptive size targeting
        :data:`repro.frame.DEFAULT_CHUNK_BYTES` per chunk.  A dataset
        that is already streaming (a sharded spill build) is returned
        as-is.

        The view presents the job tables in ascending ``job_id`` order
        — the order the sharded builds' k-way merge emits — which is
        also ascending submit time (ids are assigned by submit order),
        so the sequential streaming folds (transitions, prediction
        replay) and the per-job group folds (``per_gpu`` sorted by
        ``(job_id, gpu_index)``) hold on every chunk stream.
        """
        import dataclasses

        if self.is_streaming:
            return self

        return dataclasses.replace(
            self,
            jobs=self.jobs.sort_by("job_id").to_chunked(chunk_rows),
            gpu_jobs=self.gpu_jobs.sort_by("job_id").to_chunked(chunk_rows),
            per_gpu=self.per_gpu.sort_by("job_id", "gpu_index").to_chunked(chunk_rows),
        )

    def materialize(self) -> "SupercloudDataset":
        """Pull a streaming dataset fully back into memory.

        Chunked job tables concatenate into :class:`~repro.frame.Table`
        objects and a spilled series store loads into a
        :class:`~repro.monitor.timeseries.TimeSeriesStore`; an already
        materialized dataset is returned as-is.  The explicit escape
        hatch for consumers that need whole-table verbs at a scale that
        still fits in memory.
        """
        import dataclasses

        from repro.monitor.timeseries import SpilledTimeSeriesStore

        if not self.is_streaming:
            return self
        timeseries = self.timeseries
        if isinstance(timeseries, SpilledTimeSeriesStore):
            timeseries = timeseries.materialize()
        return dataclasses.replace(
            self,
            jobs=self.jobs.materialize(),
            gpu_jobs=self.gpu_jobs.materialize(),
            per_gpu=self.per_gpu.materialize(),
            timeseries=timeseries,
        )


def generate_dataset(
    config: WorkloadConfig | None = None,
    monitoring: MonitoringConfig | None = None,
) -> SupercloudDataset:
    """Run the full pipeline and assemble the combined dataset.

    Compatibility wrapper over :meth:`repro.pipeline.Session.dataset`
    (no disk cache, no memoization — a fresh build every call).  New
    code that builds the dataset more than once, wants the artifact
    cache, or fans out across workers should hold a ``Session``.
    """
    from repro.pipeline.session import Session

    return Session(config=config, monitoring=monitoring).dataset()
