"""The dataset build: K cluster islands, simulated and merged.

Every dataset build runs here.  The machine is ``WorkloadConfig.partitions``
islands (``partitions=1`` is the whole machine as one island); each
island gets its own :class:`~repro.slurm.scheduler.SlurmSimulator` plus
a partition-local :class:`~repro.monitor.collector.MonitoringCollector`,
attached by the :class:`~repro.slurm.interchange.PartitionedRunner`
setup hook and flushed — the deferred sampling — by its finish hook,
serially, in whichever process hosts the island.  The per-island
outputs merge deterministically:

* job records — global job-id order, node indices remapped to the
  whole machine;
* job tables — each island builds its three key-sorted tables once
  (``jobs`` and ``gpu_summary`` by ``job_id``, ``per_gpu`` by
  ``(job_id, gpu_index)``); the parent opens each as a
  :class:`~repro.frame.ChunkedTable`, k-way merges the islands
  (:func:`~repro.frame.merge_sorted_chunked`) and assembles the
  dataset through the lazy ``filter``/``join_sorted`` verbs, so the
  result is independent of which process ran which island;
* time series — disjoint union of the island stores;
* obs spans/metrics/events — reported straight into the session's by
  in-process islands; drained by forked hosts and adopted by the parent.

Two orthogonal axes:

* **coupling** — with a coupled
  :class:`~repro.slurm.interchange.InterchangeConfig` (migration or
  fair-share sync) the runner steps the islands through lockstep
  epochs, exchanging only the bounded interchange payload; uncoupled
  islands are the one-round case of the same loop;
* **streaming** — where the island tables and the assembled tables
  land.  Without it the islands hand their tables and series stores
  back in memory and the assembled tables are materialized.  With it
  the islands spill them to per-island ``.npz`` chunk directories and
  return only those directories; the merge then re-reads them lazily,
  so the parent's resident set is bounded by the chunk size instead
  of the trace size, and the assembled tables are spilled once under
  ``<spill_dir>/assembled/``.  Streaming datasets carry file-backed
  :class:`~repro.frame.ChunkedTable` job tables, a
  :class:`~repro.monitor.timeseries.SpilledTimeSeriesStore`, and no
  job records.
"""

from __future__ import annotations

import dataclasses
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
    return (collector, partition, context)


def _island_finish(simulator, state, result) -> dict:
    """Runner finish hook: sample, then package the island's outputs.

    Receives the finalized :class:`SimulationResult` (records already
    remapped to global node indices).  The deferred sampling runs
    here, serially, in whichever process hosts the island.  The island
    then builds its three tables once, in the key order the parent
    merge expects: ``jobs`` (accounting) and ``gpu_summary`` (per-job
    GPU summary) by ``job_id``, ``per_gpu`` by ``(job_id, gpu_index)``
    — both summaries from one :meth:`~repro.monitor.collector.MonitoringCollector.per_gpu_table`.
    Each table returns as a ``(source, rows)`` pair for
    :func:`_merge_islands`, next to the series ``store``.  Without a
    ``spill_dir`` the sources are the tables and the store is the
    island's store; with one, each is spilled under
    ``<spill_dir>/island_<index>/`` and only its directory returns.
    """
    from repro.monitor.collector import job_gpu_summary
    from repro.slurm.accounting import accounting_table

    collector, partition, context = state
    simulator.cluster.check_invariants()
    collector.flush()
    per_gpu = collector.per_gpu_table()
    tables = {
        "jobs": accounting_table(
            sorted(result.records, key=lambda record: record.request.job_id)
        ),
        "gpu_summary": job_gpu_summary(per_gpu).sort_by("job_id"),
        "per_gpu": per_gpu.sort_by("job_id", "gpu_index"),
    }
    sources, store = tables, collector.store
    spill_dir = context["spill_dir"]
    if spill_dir is not None:
        island_dir = Path(spill_dir) / f"island_{partition.index:03d}"
        for name, table in tables.items():
            table.to_chunked(context["chunk_rows"]).spill(island_dir / name)
        store.spill(island_dir / "series")
        sources = {name: str(island_dir / name) for name in tables}
        store = str(island_dir / "series")
    return {
        "tables": {
            name: (sources[name], table.num_rows) for name, table in tables.items()
        },
        "store": store,
    }


def check_island_capacity(layout: PartitionLayout, buckets: list, spec) -> None:
    """Fail fast, with a remedy, when an island cannot place its jobs.

    Splitting a small machine into many islands can leave every island
    smaller than the largest job in its bucket; without this check the
    failure surfaces as a :class:`PlacementError` deep inside an
    island host.
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


def _merge_islands(
    islands: list[dict], name: str, keys: tuple[str, ...], chunk_rows: int,
    column_names: tuple[str, ...] | None = None,
):
    """The lazy k-way merge of the islands' key-sorted ``name`` tables.

    Each island's table opens as a chunked view — an in-memory table
    sliced into ``chunk_rows`` chunks, a spill directory re-read
    lazily — so the parent holds one in-flight chunk per island plus
    the current merge segment, and nothing runs until the view is
    iterated.  Empty islands are skipped; when every island is empty
    the view is empty with ``column_names``.
    """
    from repro.frame import ChunkedTable, merge_sorted_chunked

    parts = [island["tables"][name] for island in islands]
    sources = [ChunkedTable.scan(source, chunk_rows) for source, rows in parts if rows]
    if not sources:
        return ChunkedTable((), column_names=column_names, num_rows=0)
    merged = merge_sorted_chunked(sources, keys, chunk_rows=chunk_rows)
    merged._num_rows = sum(rows for _, rows in parts)
    return merged


def _assemble(jobs, gpu_summary, per_gpu, target: Path | None):
    """Join the merged island streams into the dataset's three tables.

    Each output lands once, in the chunks the lazy joins produce:
    spilled under ``target`` when streaming, materialized when
    ``target`` is ``None``.  ``jobs`` lands first and its landed copy
    feeds both merge-joins, so each island table is k-way merged once.
    """
    from repro.frame import ChunkedTable

    def land(view, name):
        return view.materialize() if target is None else view.spill(target / name)

    jobs = land(jobs, "jobs")
    job_view = ChunkedTable.scan(jobs)
    gpu_jobs = job_view.filter(_keep_gpu_jobs).join_sorted(gpu_summary, on="job_id")
    if per_gpu.num_rows:
        per_gpu = per_gpu.join_sorted(job_view.select(CONTEXT_COLUMNS), on="job_id")
    return jobs, land(gpu_jobs, "gpu_jobs"), land(per_gpu, "per_gpu")


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

    One :class:`~repro.slurm.interchange.PartitionedRunner` — an
    in-process host, or ``min(workers, partitions)`` forked hosts —
    runs three stages.  ``workload`` starts the hosts, each drawing the
    GPU cohorts routed to its islands while the parent draws the CPU
    shard and numbers every job, then checks that each island can place
    its largest job (:func:`check_island_capacity`); the parent holds
    no activity model.  ``schedule`` runs the islands through the
    runner's epochs, whose finish hook also samples each island (a
    ``monitor.sampling`` span per island) and builds its key-sorted
    tables; and ``assemble`` unions the series stores, k-way merges the
    island tables, runs the merges through the joins and lands the job
    tables (:func:`_assemble`).  Both builds share that path; only
    where the tables land differs.  Without ``streaming`` they stay in
    memory.  With ``streaming=True`` the islands spill them,
    ``assemble`` spills its chunks once under
    ``<spill_dir>/assembled/`` and removes the island table spills, and
    the returned dataset holds those file-backed tables, a spilled
    series store, and no job records (``spill_dir`` defaults to a temp
    directory, removed if any stage fails).  A failure in any stage
    reaps every host before it propagates.
    """
    import shutil
    import tempfile

    from repro.cluster.spec import supercloud_spec
    from repro.dataset import SupercloudDataset
    from repro.frame import DEFAULT_CHUNK_ROWS
    from repro.monitor.timeseries import SpilledTimeSeriesStore, TimeSeriesStore
    from repro.slurm.accounting import ACCOUNTING_COLUMNS
    from repro.slurm.interchange import PartitionedRunner

    layout = PartitionLayout.even(config.scaled_nodes, config.partitions)
    spec = supercloud_spec(config.scaled_nodes)
    rows = chunk_rows if chunk_rows is not None else DEFAULT_CHUNK_ROWS
    temp_spill = streaming and spill_dir is None
    if temp_spill:
        spill_dir = tempfile.mkdtemp(prefix="repro-shard-")
    spill = str(spill_dir) if streaming else None

    runner = None
    try:
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
                "chunk_rows": rows,
            },
            return_records=not streaming,
        )
        with inst.stage("workload") as probe:
            probe.rows = runner.draw(
                config, check=lambda buckets: check_island_capacity(layout, buckets, spec)
            )

        with inst.stage("schedule") as probe:
            outcome = runner.finish()
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
            probe.rows = sum(island["tables"]["jobs"][1] for island in islands)

        with inst.stage("assemble") as probe:
            stores = [island["store"] for island in islands]
            store = (
                SpilledTimeSeriesStore(stores) if streaming else TimeSeriesStore.merged(stores)
            )
            jobs, gpu_jobs, per_gpu = _assemble(
                _merge_islands(islands, "jobs", ("job_id",), rows, ACCOUNTING_COLUMNS),
                _merge_islands(islands, "gpu_summary", ("job_id",), rows),
                _merge_islands(islands, "per_gpu", ("job_id", "gpu_index"), rows),
                Path(spill) / "assembled" if streaming else None,
            )
            if streaming:
                for island in islands:
                    for source, _ in island["tables"].values():
                        shutil.rmtree(source, ignore_errors=True)
            probe.rows = jobs.num_rows
    except BaseException:
        if runner is not None:
            runner.close(failed=True)
        if temp_spill:
            shutil.rmtree(spill, ignore_errors=True)
        raise

    return SupercloudDataset(
        jobs=jobs,
        gpu_jobs=gpu_jobs,
        per_gpu=per_gpu,
        timeseries=store,
        records=records,
        spec=spec,
        config=config,
    )
