"""The dataset build: K cluster islands, simulated and merged.

Every dataset build runs here.  The machine is ``WorkloadConfig.partitions``
islands (``partitions=1`` is the whole machine as one island); each
island gets its own :class:`~repro.slurm.scheduler.SlurmSimulator` plus
a partition-local :class:`~repro.monitor.collector.MonitoringCollector`,
attached by the :class:`~repro.slurm.interchange.PartitionedRunner`
setup hook and flushed — the deferred sampling — by its finish hook, in
whichever process hosts the island.  Islands hosted in the parent
sample with the session's ``workers``; forked hosts sample serially.
The per-island outputs merge deterministically:

* job records — global job-id order, node indices remapped to the
  whole machine;
* monitoring tables — merged into ``(job_id[, gpu_index])`` order, so
  the merge is independent of which process ran which island;
* time series — disjoint union of the island stores;
* obs spans/metrics/events — reported straight into the session's by
  in-process islands; drained by forked hosts and adopted by the parent.

Two orthogonal axes:

* **coupling** — with a coupled
  :class:`~repro.slurm.interchange.InterchangeConfig` (migration or
  fair-share sync) the runner steps the islands through lockstep
  epochs, exchanging only the bounded interchange payload; uncoupled
  islands are the one-round case of the same loop;
* **streaming** — islands spill their monitoring tables and series to
  per-island ``.npz`` chunk directories and return *handles*; the
  parent k-way-merges the key-sorted spill streams
  (:func:`~repro.frame.merge_sorted_chunked`) and assembles the
  dataset chunk-wise (:meth:`~repro.frame.ChunkedTable.join_sorted`),
  so its resident set is bounded by the chunk size instead of the
  trace size.  Streaming datasets carry
  :class:`~repro.frame.ChunkedTable` job tables, a
  :class:`~repro.monitor.timeseries.SpilledTimeSeriesStore`, and no
  job records.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import numpy as np

from repro.cluster.partition import Partition, PartitionError, PartitionLayout
from repro.monitor.collector import MonitoringConfig
from repro.pipeline.instrument import PipelineInstrumentation
from repro.workload.generator import WorkloadConfig

#: Job columns joined onto ``per_gpu`` rows during assembly.
CONTEXT_COLUMNS = (
    "job_id", "user", "num_gpus", "run_time_s", "gpu_hours",
    "lifecycle_class", "interface",
)


def island_monitoring(
    monitoring: MonitoringConfig | None, partition_index: int, num_partitions: int
) -> MonitoringConfig:
    """The partition-local monitoring config for one island.

    Each island's collector needs its own RNG stream (sampling draws
    happen in island-local job-completion order), derived from the
    base monitoring seed with the partition index as the spawn key —
    the same stream no matter which process runs the island.
    """
    base = monitoring if monitoring is not None else MonitoringConfig()
    if num_partitions <= 1:
        return base
    derived = int(
        np.random.SeedSequence(
            entropy=base.seed, spawn_key=(partition_index,)
        ).generate_state(1)[0]
    )
    return dataclasses.replace(base, seed=derived)


def _island_setup(simulator, partition: Partition, context: dict):
    """Runner setup hook: attach the partition-local collector.

    Runs in the island's host process before ``begin``; the returned
    state travels to :func:`_island_finish` untouched.
    """
    from repro.monitor.collector import MonitoringCollector

    monitoring = island_monitoring(
        context.get("monitoring"), partition.index, context["num_partitions"]
    )
    collector = MonitoringCollector(monitoring).attach(simulator)
    spill_dir = context.get("spill_dir")
    if spill_dir is not None:
        collector.enable_spill(
            Path(spill_dir) / f"island_{partition.index:03d}" / "summary",
            context.get("chunk_rows"),
        )
    return (collector, partition, context)


def _island_finish(simulator, state, result) -> dict:
    """Runner finish hook: sample, then package the island's outputs.

    Receives the finalized :class:`SimulationResult` (records already
    remapped to global node indices).  The deferred sampling runs
    here, with the session's ``workers`` in the parent process and
    serially in a forked host.  Materialized path (no ``spill_dir``):
    the tables and series store come back as objects.  Streaming path:
    every output is spilled under ``<spill_dir>/island_<index>/`` in
    the key order the parent merge expects — accounting and the
    per-job GPU summary sorted by ``job_id``, the per-GPU summary by
    ``(job_id, gpu_index)`` — and only directory handles plus row
    counts return.
    """
    collector, partition, context = state
    simulator.cluster.check_invariants()
    in_parent = os.getpid() == context["parent_pid"]
    sampling_rows = collector.flush(workers=context["workers"] if in_parent else 1)
    spill_dir = context.get("spill_dir")
    if spill_dir is None:
        return {
            "sampling_rows": sampling_rows,
            "gpu_summary": collector.job_gpu_table(),
            "per_gpu": collector.per_gpu_table(),
            "store": collector.store,
            "handles": None,
        }
    from repro.frame import DEFAULT_CHUNK_ROWS
    from repro.slurm.accounting import accounting_chunked

    island_dir = Path(spill_dir) / f"island_{partition.index:03d}"
    chunk_rows = context.get("chunk_rows")
    rows = chunk_rows if chunk_rows is not None else DEFAULT_CHUNK_ROWS
    ordered = sorted(result.records, key=lambda record: record.request.job_id)
    accounting_chunked(ordered, rows).spill(island_dir / "jobs")
    gpu_summary = collector.job_gpu_table().sort_by("job_id")
    gpu_summary.to_chunked(rows).spill(island_dir / "gpu_summary")
    per_gpu = collector.sorted_summary_stream(rows).spill(island_dir / "per_gpu")
    collector.store.spill(island_dir / "series")
    return {
        "sampling_rows": sampling_rows,
        "handles": {
            "root": str(island_dir),
            "jobs_rows": len(ordered),
            "gpu_summary_rows": gpu_summary.num_rows,
            "per_gpu_rows": per_gpu.num_rows,
        },
    }


def check_island_capacity(layout: PartitionLayout, buckets: list, spec) -> None:
    """Fail fast, with a remedy, when an island cannot place its jobs.

    Splitting a small machine into many islands can leave every island
    smaller than the largest job in its bucket; without this check the
    failure surfaces as a :class:`PlacementError` deep inside a pool
    worker.
    """
    gpus_per_node = spec.node.gpus_per_node
    for part, bucket in zip(layout, buckets):
        if not bucket:
            continue
        worst = max(bucket, key=lambda request: request.num_gpus)
        needed = -(-worst.num_gpus // gpus_per_node)
        if worst.num_gpus and needed > part.num_nodes:
            raise PartitionError(
                f"island {part.index} has {part.num_nodes} of the machine's "
                f"{layout.total_nodes} nodes, but job {worst.job_id} in its "
                f"bucket needs {needed} nodes ({worst.num_gpus} GPUs); use "
                "fewer partitions, or a larger scale / num_nodes so every "
                f"island has at least {needed} nodes"
            )


def _merge_tables(tables: list, sort_keys: tuple[str, ...]):
    """Concatenate island tables and sort into a process-independent
    order; empty islands (no rows yet, schema-less) are skipped."""
    from repro.frame import concat_tables

    filled = [table for table in tables if table.num_rows]
    if not filled:
        return tables[0]
    merged = concat_tables(filled) if len(filled) > 1 else filled[0]
    return merged.sort_by(*sort_keys)


def _merge_spilled(
    handles: list[dict], name: str, keys: tuple[str, ...],
    chunk_rows: int, column_names: tuple[str, ...] | None = None,
):
    """K-way merge the islands' key-sorted spill streams for one output.

    Each island directory re-reads lazily, so the parent holds one
    in-flight chunk per island plus the current merge segment — never
    a whole island's table.
    """
    from repro.frame import ChunkedTable, merge_sorted_chunked

    total = 0
    sources = []
    for handle in handles:
        rows = handle[f"{name}_rows"]
        total += rows
        if rows:
            sources.append(
                ChunkedTable.scan(Path(handle["root"]) / name, chunk_rows)
            )
    if not sources:
        return ChunkedTable((), column_names=column_names, num_rows=0)
    merged = merge_sorted_chunked(sources, keys, chunk_rows=chunk_rows)
    merged._num_rows = total
    return merged


def _keep_gpu_jobs(chunk):
    """The paper's GPU-job filter (>= 30 s, at least one GPU) as a row
    mask over a job table or one chunk of it."""
    from repro.workload.calibration import PAPER_TARGETS

    return (np.asarray(chunk["num_gpus"]) > 0) & (
        np.asarray(chunk["run_time_s"], dtype=float)
        >= PAPER_TARGETS.short_job_filter_s
    )


def build_sharded_dataset(
    config: WorkloadConfig,
    monitoring: MonitoringConfig | None,
    inst: PipelineInstrumentation,
    workers: int = 1,
    *,
    interchange=None,
    streaming: bool = False,
    spill_dir: str | Path | None = None,
    chunk_rows: int | None = None,
):
    """Build the dataset as ``config.partitions`` islands: the only build.

    Five stages.  ``workload`` draws the requests; ``schedule`` runs
    the islands through one :class:`~repro.slurm.interchange.PartitionedRunner`
    — in-process, or across ``min(workers, partitions)`` forked hosts —
    whose finish hook also samples each island; ``sampling`` tallies
    those rows; ``monitor`` merges the partition-local outputs; and
    ``assemble`` joins the job tables.  With ``streaming=True`` the
    merge is the k-way spill merge and ``assemble`` is chunk-wise; the
    returned dataset holds chunked tables, a spilled series store, and
    no job records (``spill_dir`` defaults to a fresh temp directory,
    removed again if the islands fail).
    """
    import shutil
    import tempfile

    from repro.cluster.spec import supercloud_spec
    from repro.dataset import SupercloudDataset
    from repro.monitor.timeseries import SpilledTimeSeriesStore, TimeSeriesStore
    from repro.slurm.accounting import ACCOUNTING_COLUMNS, accounting_table
    from repro.slurm.interchange import PartitionedRunner, route_requests
    from repro.workload.cohorts import generate_sharded

    temp_spill = streaming and spill_dir is None
    if temp_spill:
        spill_dir = tempfile.mkdtemp(prefix="repro-shard-")
    spill = str(spill_dir) if streaming else None

    with inst.stage("workload") as probe:
        requests = generate_sharded(config, workers=workers)
        probe.rows = len(requests)

    layout = PartitionLayout.even(config.scaled_nodes, config.partitions)
    spec = supercloud_spec(config.scaled_nodes)

    with inst.stage("schedule") as probe:
        check_island_capacity(layout, route_requests(requests, len(layout)), spec)
        runner = PartitionedRunner(
            layout,
            spec=spec,
            interchange=interchange,
            workers=workers,
            island_setup=_island_setup,
            island_finish=_island_finish,
            island_context={
                "monitoring": monitoring,
                "num_partitions": len(layout),
                "spill_dir": spill,
                "chunk_rows": chunk_rows,
                "workers": workers,
                "parent_pid": os.getpid(),
            },
            return_records=not streaming,
        )
        try:
            outcome = runner.run(requests)
        except BaseException:
            if temp_spill:
                shutil.rmtree(spill, ignore_errors=True)
            raise
        islands = outcome.extras
        records = outcome.merged_records()
        inst.metrics.counter(
            "repro_shard_migrations_total",
            help="jobs migrated between islands by the interchange",
        ).inc(outcome.migrations)
        inst.metrics.gauge(
            "repro_shard_island_peak_rss_bytes",
            help="largest per-island process peak RSS in the sharded build",
        ).set_max(outcome.island_peak_rss_bytes)
        probe.rows = (
            sum(island["handles"]["jobs_rows"] for island in islands)
            if streaming
            else len(records)
        )

    with inst.stage("sampling") as probe:
        # Sampling already ran island-locally inside ``schedule``; this
        # stage only accounts for it so stage rows stay comparable.
        probe.rows = sum(island["sampling_rows"] for island in islands)

    with inst.stage("monitor") as probe:
        from repro.frame import DEFAULT_CHUNK_ROWS

        if streaming:
            handles = [island["handles"] for island in islands]
            rows = chunk_rows if chunk_rows is not None else DEFAULT_CHUNK_ROWS
            jobs_stream = _merge_spilled(
                handles, "jobs", ("job_id",), rows, ACCOUNTING_COLUMNS
            )
            gpu_summary = _merge_spilled(handles, "gpu_summary", ("job_id",), rows)
            per_gpu = _merge_spilled(
                handles, "per_gpu", ("job_id", "gpu_index"), rows
            )
            store = SpilledTimeSeriesStore(
                Path(handle["root"]) / "series" for handle in handles
            )
        else:
            gpu_summary = _merge_tables(
                [island["gpu_summary"] for island in islands], ("job_id",)
            )
            per_gpu = _merge_tables(
                [island["per_gpu"] for island in islands], ("job_id", "gpu_index")
            )
            store = TimeSeriesStore.merged(island["store"] for island in islands)
        probe.rows = per_gpu.num_rows

    with inst.stage("assemble") as probe:
        if streaming:
            jobs = jobs_stream
            gpu_jobs = jobs.filter(_keep_gpu_jobs).join_sorted(
                gpu_summary, on="job_id"
            )
            if per_gpu.num_rows:
                per_gpu = per_gpu.join_sorted(
                    jobs.select(CONTEXT_COLUMNS), on="job_id"
                )
        else:
            jobs = accounting_table(records)
            gpu_jobs = jobs.filter(_keep_gpu_jobs(jobs)).join(gpu_summary, on="job_id")
            if per_gpu.num_rows:
                context = jobs.select(list(CONTEXT_COLUMNS))
                per_gpu = per_gpu.join(context, on="job_id")
        probe.rows = jobs.num_rows

    return SupercloudDataset(
        jobs=jobs,
        gpu_jobs=gpu_jobs,
        per_gpu=per_gpu,
        timeseries=store,
        records=records,
        spec=spec,
        config=config,
    )
