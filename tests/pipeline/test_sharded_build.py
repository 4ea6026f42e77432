"""Tests for the partitioned (sharded) dataset build.

Every dataset build is K islands driven by one runner.  The contract,
pinned end to end at the session level:

* for a fixed partition count the build is **bit-for-bit identical**
  whether one in-process host runs the islands or ``min(workers, K)``
  forked hosts do;
* ``partitions=1`` is a one-island build that reproduces the
  pre-island monolithic build's content exactly (golden digests), in
  ascending ``job_id`` order, and runs in the session's process at any
  ``workers``;
* the merged dataset keeps the whole-machine shape (global node
  indices, one spec, job-id-ordered tables);
* the **streaming** build — islands spill to disk, the parent k-way
  merges chunk streams — yields the same tables chunk for chunk, for
  uncoupled islands and for interchange-coupled islands run serially
  or process-parallel;
* the in-memory build merges and joins through the same verbs, and
  equals a concatenate, stable-sort and hash-join oracle byte for byte.
"""

import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from repro.monitor.collector import MonitoringConfig
from repro.pipeline import Session
from repro.pipeline.parallel import ParallelTaskError
from repro.pipeline.shard import CONTEXT_COLUMNS, _island_setup, island_monitoring
from repro.slurm.interchange import InterchangeConfig
from repro.workload.generator import WorkloadConfig

# 3200 configured nodes at scale 0.02 -> 64 simulated nodes, so even a
# 4-way split leaves islands big enough for the largest (16-GPU) jobs.
SHARDED = dict(scale=0.02, seed=13, num_nodes=3200, partitions=4)


def datasets_equal(a, b):
    assert a.jobs.to_dict() == b.jobs.to_dict()
    assert a.gpu_jobs.to_dict() == b.gpu_jobs.to_dict()
    assert a.per_gpu.to_dict() == b.per_gpu.to_dict()
    assert len(a.timeseries) == len(b.timeseries)
    for series in a.timeseries:
        twin = b.timeseries.get(series.job_id, series.gpu_index)
        assert np.array_equal(series.times_s, twin.times_s)
        for name, values in series.metrics.items():
            assert np.array_equal(values, twin.metrics[name]), name


@pytest.fixture(scope="module")
def serial_session():
    session = Session(WorkloadConfig(**SHARDED), workers=1)
    session.dataset()
    return session


class TestBitIdentity:
    def test_parallel_build_matches_serial(self, serial_session):
        parallel = Session(WorkloadConfig(**SHARDED), workers=4).dataset()
        datasets_equal(serial_session.dataset(), parallel)

    def test_single_partition_matches_legacy(self):
        base = dict(SHARDED, partitions=1)
        legacy = Session(WorkloadConfig(**base)).dataset()
        # The one island runs and samples in the parent at any worker
        # count, so workers changes nothing (TestGolden pins the content).
        roundtrip = Session(WorkloadConfig(**base), workers=2).dataset()
        datasets_equal(legacy, roundtrip)

    def test_single_partition_starts_no_process_pool(self, tmp_path, monkeypatch):
        """A ``workers=2`` one-island cold build and a ``workers=2``
        report on its warm cache construct no process pool: the island
        samples, and the figures run, in the session's process."""
        from concurrent.futures import process

        pools = []
        init = process.ProcessPoolExecutor.__init__

        def recording_init(self, *args, **kwargs):
            pools.append((args, kwargs))
            init(self, *args, **kwargs)

        monkeypatch.setattr(process.ProcessPoolExecutor, "__init__", recording_init)
        config = WorkloadConfig(scale=0.01, seed=7)
        Session(config, cache_dir=tmp_path, workers=2).dataset()
        warm = Session(config, cache_dir=tmp_path, workers=2)
        results = warm.run_figures()
        assert warm.instrumentation.count("cache_hit") == 1
        assert [(st.name, st.rows) for st in warm.stages][-1] == ("figures", len(results))
        assert pools == []


def table_digest(table, keys):
    """sha256 over the column names and exact values, rows sorted by ``keys``."""
    table = table.sort_by(*keys)
    digest = hashlib.sha256()
    for name in table.column_names:
        digest.update(name.encode())
        values = np.asarray(table[name])
        if values.dtype == object:
            digest.update(repr(values.tolist()).encode())
        else:
            digest.update(values.dtype.str.encode())
            digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


def series_digest(store):
    digest = hashlib.sha256()
    for series in sorted(store, key=lambda s: (s.job_id, s.gpu_index)):
        digest.update(f"{series.job_id}/{series.gpu_index}".encode())
        digest.update(np.ascontiguousarray(series.times_s).tobytes())
        for name in sorted(series.metrics):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(series.metrics[name]).tobytes())
    return digest.hexdigest()


def records_digest(records):
    rows = sorted(
        (r.request.job_id, r.start_time_s, r.end_time_s, tuple(r.nodes), r.exit_condition.name)
        for r in records
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestGolden:
    """Digests of the one-island build at scale 0.01, seed 7.

    ``jobs`` and ``records`` equal the monolithic (pre-island) build's;
    ``gpu_jobs``, ``per_gpu`` and ``series`` pin the monitor's draws as
    of ``SCHEMA_VERSION`` 7, and ``series`` its samples at sensor
    resolution as of ``SCHEMA_VERSION`` 8.
    """

    GOLDEN = {
        "jobs": "3226757f9e6ef73e4c12838361599d5ae8ad9f4da27f4cf3cbc5402a9606f299",
        "gpu_jobs": "4dc3ea543ef2a7c12c5d206dcc06be628b77f9788ab1ef9fd00a2ec1ee424d83",
        "per_gpu": "b8d3b7e4a1867e8a43fd2754bbcf5f9d95d93d71a5d9d13400ac6166484918d7",
        "series": "f3f7adc30e151f7c56673f7ba0f8521e697102fbda294223dfe5e8354d9ed9bb",
        "records": "38708501dd5b5e3fa4a7d9a0ced3dd13b9818349a230b7568fcd0668848f6ce5",
    }

    def test_single_partition_matches_pre_island_build(self):
        dataset = Session(WorkloadConfig(scale=0.01, seed=7)).dataset()
        assert len(dataset.timeseries) == 26
        assert len(dataset.records) == 767
        assert {
            "jobs": table_digest(dataset.jobs, ("job_id",)),
            "gpu_jobs": table_digest(dataset.gpu_jobs, ("job_id",)),
            "per_gpu": table_digest(dataset.per_gpu, ("job_id", "gpu_index")),
            "series": series_digest(dataset.timeseries),
            "records": records_digest(dataset.records),
        } == self.GOLDEN
        # The one-island build emits tables and records in job_id order.
        ids = np.asarray(dataset.jobs["job_id"])
        assert np.all(np.diff(ids) > 0)


class TestMergedShape:
    def test_whole_machine_spec_and_global_nodes(self, serial_session):
        dataset = serial_session.dataset()
        assert dataset.spec.num_nodes == dataset.config.scaled_nodes
        assert "[partition" not in dataset.spec.name
        max_node = max(
            (node for record in dataset.records for node in record.nodes),
            default=0,
        )
        assert max_node < dataset.spec.num_nodes
        # records span more than one island's node range
        assert max_node >= dataset.spec.num_nodes // 4

    def test_records_in_job_id_order(self, serial_session):
        ids = [r.request.job_id for r in serial_session.dataset().records]
        assert ids == sorted(ids)

    def test_tables_sorted_for_process_independence(self, serial_session):
        dataset = serial_session.dataset()
        job_ids = np.asarray(dataset.gpu_jobs["job_id"])
        assert np.all(np.diff(job_ids) >= 0)

    def test_island_rss_gauge_recorded(self, serial_session):
        gauge = serial_session.metrics.gauge("repro_shard_island_peak_rss_bytes")
        assert gauge.value > 0

    def test_stage_names_unchanged(self, serial_session):
        from repro.pipeline import BUILD_STAGES

        assert tuple(serial_session.instrumentation.stage_names()) == BUILD_STAGES


class TestIslandCapacity:
    def test_oversized_job_fails_fast_with_remedy(self):
        from repro.cluster.partition import PartitionError, PartitionLayout
        from repro.cluster.spec import supercloud_spec
        from repro.pipeline.shard import check_island_capacity
        from tests.slurm.test_job import make_request

        layout = PartitionLayout.even(8, 4)  # 2-node (4-GPU) islands
        buckets = [[make_request(job_id=7, num_gpus=16)], [], [], []]
        with pytest.raises(PartitionError, match="fewer partitions"):
            check_island_capacity(layout, buckets, supercloud_spec(8))

    def test_fitting_jobs_pass(self):
        from repro.cluster.partition import PartitionLayout
        from repro.cluster.spec import supercloud_spec
        from repro.pipeline.shard import check_island_capacity
        from tests.slurm.test_job import make_request

        layout = PartitionLayout.even(8, 4)
        buckets = [[make_request(job_id=1, num_gpus=4)], [], [], []]
        check_island_capacity(layout, buckets, supercloud_spec(8))

    def test_cli_scale_too_small_for_partitions(self):
        # end to end: the session surfaces the actionable error instead
        # of a PlacementError from inside an island host
        from repro.cluster.partition import PartitionError

        session = Session(WorkloadConfig(scale=0.05, seed=20220214, partitions=2))
        with pytest.raises(PartitionError, match="fewer partitions"):
            session.dataset()


class TestIslandMonitoring:
    def test_single_partition_keeps_base_seed(self):
        base = MonitoringConfig(seed=99)
        assert island_monitoring(base, 0, 1) is base

    def test_islands_get_distinct_derived_seeds(self):
        base = MonitoringConfig(seed=99)
        seeds = {island_monitoring(base, i, 4).seed for i in range(4)}
        assert len(seeds) == 4
        assert island_monitoring(base, 2, 4).seed == island_monitoring(base, 2, 4).seed

    def test_default_config_when_none(self):
        derived = island_monitoring(None, 1, 2)
        assert derived.seed != MonitoringConfig().seed


class TestWorkerObservability:
    def test_pool_island_spans_adopted_into_session_trace(self):
        """A forked worker inherits an enabled tracer copy; its spans
        must still come home via drain/adopt, not die with the child."""
        session = Session(WorkloadConfig(**SHARDED), workers=4)
        session.dataset()
        payload = session.tracer.drain_payload()
        by_id = {span["id"]: span for span in payload}
        runs = [span for span in payload if span["name"] == "slurm.run"]
        # one simulator run per island, visible in the *session* trace
        assert len(runs) == 4
        for span in runs:
            # re-parented somewhere under the schedule stage span
            ancestors = set()
            parent = span["parent"]
            while parent in by_id:
                ancestors.add(by_id[parent]["name"])
                parent = by_id[parent]["parent"]
            assert "schedule" in ancestors

    def test_serial_island_spans_flow_inline(self):
        session = Session(WorkloadConfig(**SHARDED), workers=1)
        session.dataset()
        names = [span["name"] for span in session.tracer.drain_payload()]
        assert names.count("slurm.run") == 4


def streaming_equals_materialized(stream, exact):
    """Chunk-for-chunk equality against a materialized ground truth."""
    assert stream.is_streaming and not exact.is_streaming
    for name in ("jobs", "gpu_jobs", "per_gpu"):
        stream_table = getattr(stream, name)
        serial_table = getattr(exact, name)
        offset = 0
        for chunk in stream_table.chunks():
            assert tuple(chunk.column_names) == tuple(serial_table.column_names)
            for column in chunk.column_names:
                expected = np.asarray(serial_table[column])[
                    offset : offset + chunk.num_rows
                ]
                assert np.array_equal(
                    np.asarray(chunk[column]), expected
                ), (name, column)
            offset += chunk.num_rows
        assert offset == serial_table.num_rows, name
    assert len(stream.timeseries) == len(exact.timeseries)
    for series in exact.timeseries:
        twin = stream.timeseries.get(series.job_id, series.gpu_index)
        assert np.array_equal(series.times_s, twin.times_s)
        for metric, values in series.metrics.items():
            assert np.array_equal(values, twin.metrics[metric]), metric


class TestStreamingBuild:
    def test_streaming_build_matches_materialized(self, serial_session):
        stream = Session(WorkloadConfig(**SHARDED), workers=1).streaming_dataset(
            chunk_rows=512
        )
        streaming_equals_materialized(stream, serial_session.dataset())

    def test_streaming_dataset_is_memoized(self):
        session = Session(WorkloadConfig(**SHARDED), workers=1)
        first = session.streaming_dataset(chunk_rows=512)
        assert session.streaming_dataset() is first
        assert session.instrumentation.count("build") == 1

    def test_streaming_records_stay_out_of_the_parent(self):
        stream = Session(WorkloadConfig(**SHARDED), workers=1).streaming_dataset(
            chunk_rows=512
        )
        assert stream.records == []

    def test_materialize_roundtrip(self, serial_session):
        stream = Session(WorkloadConfig(**SHARDED), workers=1).streaming_dataset(
            chunk_rows=512
        )
        exact = serial_session.dataset()
        datasets_equal(stream.materialize(), exact)

    def test_single_partition_streaming_is_a_chunked_view(self):
        """One island runs the same spill-and-merge build as many."""
        config = WorkloadConfig(**dict(SMALL_STREAM, partitions=1))
        stream = Session(config).streaming_dataset(chunk_rows=256)
        streaming_equals_materialized(stream, Session(config).dataset())
        assert stream.records == []


#: Two uncoupled islands at scale 0.01: the cheapest streaming build.
SMALL_STREAM = dict(scale=0.01, seed=13, num_nodes=3200, partitions=2)


class TestAssembledOnce:
    """The streaming build spills its joined tables once under
    ``assembled/`` and removes the island table spills."""

    def test_assembled_tables_replace_the_island_table_spills(self, tmp_path):
        from repro.obs import NULL_RECORDER, NULL_TRACER, MetricsRegistry, runtime

        session = Session(WorkloadConfig(**SMALL_STREAM), workers=1)
        stream = session.streaming_dataset(chunk_rows=256, spill_dir=tmp_path)
        assert sorted(p.name for p in (tmp_path / "assembled").iterdir()) == [
            "gpu_jobs", "jobs", "per_gpu",
        ]
        islands = sorted(tmp_path.glob("island_*"))
        assert len(islands) == 2
        for island in islands:
            assert [p.name for p in island.iterdir()] == ["series"]
        # Re-reading the assembled tables runs no join and no merge.
        metrics = MetricsRegistry()
        with runtime.use(NULL_TRACER, metrics, NULL_RECORDER):
            for table in (stream.jobs, stream.gpu_jobs, stream.per_gpu):
                table.materialize()
        assert metrics.counter_value("repro_frame_kernel_calls_total", kernel="join") == 0
        assert metrics.counter_value("repro_frame_stream_chunks_total", op="merge") == 0
        datasets_equal(stream.materialize(), session.dataset())

    def test_islands_write_their_per_gpu_rows_once(self, tmp_path, monkeypatch):
        """Each island writes its per-GPU summary rows once, as its
        ``per_gpu`` table's chunks; no island seals ``summary/run_*.npz``
        runs."""
        from pathlib import Path

        from repro.frame import codec

        written = []
        write = codec.write_spill_file

        def spy(path, members, *encode):
            members = list(members)
            written.append((Path(path).relative_to(tmp_path), members))
            return write(path, members, *encode)

        monkeypatch.setattr(codec, "write_spill_file", spy)
        stream = Session(WorkloadConfig(**SMALL_STREAM), workers=1).streaming_dataset(
            chunk_rows=256, spill_dir=tmp_path
        )
        assert not [path for path, _ in written if path.match("island_*/summary/run_*.npz")]
        summary_rows = {}
        table_rows = {}
        for path, members in written:
            island, table = path.parts[0], path.parts[1]
            if not island.startswith("island_") or table == "series":
                continue
            rows = sum(len(columns["gpu_index"]) for _, columns in members if "gpu_index" in columns)
            summary_rows[island] = summary_rows.get(island, 0) + rows
            if table == "per_gpu":
                table_rows[island] = table_rows.get(island, 0) + rows
        assert sorted(summary_rows) == ["island_000", "island_001"]
        assert summary_rows == table_rows
        assert sum(table_rows.values()) == stream.per_gpu.num_rows

    @staticmethod
    def _island(root, jobs, gpu_summary, per_gpu, spilled):
        """A hand-built island's finish-hook output: its tables held in
        memory, or spilled under ``root`` and handed back as
        directories."""
        tables = {"jobs": jobs, "gpu_summary": gpu_summary, "per_gpu": per_gpu}
        sources = dict(tables)
        if spilled:
            for name, table in tables.items():
                table.to_chunked(2).spill(root / name)
                sources[name] = str(root / name)
        return {
            "tables": {
                name: (sources[name], table.num_rows) for name, table in tables.items()
            }
        }

    @pytest.mark.parametrize(
        ("gpu_islands", "spilled"),
        [(1, True), (0, True), (1, False), (0, False)],
        ids=["1", "0", "1-in_memory", "0-in_memory"],
    )
    def test_island_without_gpu_jobs(self, tmp_path, gpu_islands, spilled):
        """An island with no GPU job hands back empty summary tables;
        the assembled outputs equal the lazy joins, and an empty one
        keeps its column names, whether the tables land on disk or in
        memory."""
        from repro.frame import ChunkedTable, Table
        from repro.pipeline.shard import _assemble, _keep_gpu_jobs, _merge_islands
        from repro.slurm.accounting import ACCOUNTING_COLUMNS

        def jobs(ids, gpus):
            return Table({
                "job_id": ids, "user": ["u"] * len(ids), "num_gpus": gpus,
                "run_time_s": [600.0] * len(ids), "gpu_hours": [0.5] * len(ids),
                "lifecycle_class": ["mature"] * len(ids), "interface": ["batch"] * len(ids),
            })

        empty = Table({"job_id": np.zeros(0, dtype=np.int64), "sm_mean": np.zeros(0)})
        empty_gpu = Table({
            "job_id": np.zeros(0, dtype=np.int64),
            "gpu_index": np.zeros(0, dtype=np.int64),
            "sm_mean": np.zeros(0),
        })
        islands = [
            self._island(
                tmp_path / "island_001", jobs([1, 3, 5], [0, 0, 0]), empty, empty_gpu,
                spilled,
            )
        ]
        if gpu_islands:
            islands.insert(0, self._island(
                tmp_path / "island_000",
                jobs([2, 4, 6], [1, 2, 1]),
                Table({"job_id": [2, 4, 6], "sm_mean": [10.0, 20.0, 30.0]}),
                Table({
                    "job_id": [2, 4, 4, 6],
                    "gpu_index": [0, 0, 1, 0],
                    "sm_mean": [10.0, 15.0, 25.0, 30.0],
                }),
                spilled,
            ))

        def merged():
            return (
                _merge_islands(islands, "jobs", ("job_id",), 2, ACCOUNTING_COLUMNS),
                _merge_islands(islands, "gpu_summary", ("job_id",), 2),
                _merge_islands(islands, "per_gpu", ("job_id", "gpu_index"), 2),
            )

        jobs_in, summary, per_gpu = merged()
        lazy_gpu_jobs = jobs_in.filter(_keep_gpu_jobs).join_sorted(summary, on="job_id")
        lazy_per_gpu = (
            per_gpu.join_sorted(jobs_in.select(CONTEXT_COLUMNS), on="job_id")
            if per_gpu.num_rows else per_gpu
        )
        out = _assemble(*merged(), tmp_path / "assembled" if spilled else None)
        # A materialized output is a Table; scan() opens it as a stream.
        out = tuple(ChunkedTable.scan(table) for table in out)
        for lazy, landed in zip((jobs_in, lazy_gpu_jobs, lazy_per_gpu), out):
            rows = list(landed.materialize().iter_rows())
            assert rows == list(lazy.materialize().iter_rows())
        assert out[0].num_rows == 3 + 3 * gpu_islands
        assert out[1].num_rows == 3 * gpu_islands
        job_columns = tuple(jobs([], []).column_names)
        gpu_columns = job_columns + (("sm_mean",) if gpu_islands else ())
        assert out[1].column_names == gpu_columns
        assert out[1].materialize().column_names == gpu_columns


def table_bytes(table):
    """Each column's name, dtype and exact values (object cells with
    their types): equal lists mean byte-identical tables."""
    out = []
    for name in table.column_names:
        values = np.asarray(table[name])
        if values.dtype == object:
            out.append((name, "O", [(type(value), value) for value in values.tolist()]))
        else:
            out.append((name, values.dtype.str, values.tobytes()))
    return out


def oracle_assemble(islands, records):
    """The in-memory assemble the build once ran beside the streaming
    one, kept as an oracle: concatenate the islands' tables, stable-sort
    them, and hash-join with ``Table.join``."""
    from repro.frame import concat_tables
    from repro.pipeline.shard import _keep_gpu_jobs
    from repro.slurm.accounting import accounting_table

    def merge(name, keys):
        tables = [island["tables"][name][0] for island in islands]
        filled = [table for table in tables if table.num_rows]
        if not filled:
            return tables[0]
        merged = concat_tables(filled) if len(filled) > 1 else filled[0]
        return merged.sort_by(*keys)

    jobs = accounting_table(records)
    assert table_bytes(merge("jobs", ("job_id",))) == table_bytes(jobs)
    gpu_summary = merge("gpu_summary", ("job_id",))
    per_gpu = merge("per_gpu", ("job_id", "gpu_index"))
    gpu_jobs = jobs.filter(_keep_gpu_jobs(jobs)).join(gpu_summary, on="job_id")
    if per_gpu.num_rows:
        per_gpu = per_gpu.join(jobs.select(list(CONTEXT_COLUMNS)), on="job_id")
    return {"jobs": jobs, "gpu_jobs": gpu_jobs, "per_gpu": per_gpu}


class TestAssembleOracle:
    """``dataset()`` merges and joins through the streaming verbs; the
    concat, stable sort and ``Table.join`` they replaced give the same
    bytes on the islands' own tables."""

    @pytest.mark.parametrize("coupled", [False, True], ids=["uncoupled", "coupled"])
    def test_two_island_build_equals_oracle(self, coupled, monkeypatch):
        from repro.pipeline import shard

        islands = []
        finish = shard._island_finish

        def keep(simulator, state, result):
            islands.append(finish(simulator, state, result))
            return islands[-1]

        monkeypatch.setattr(shard, "_island_finish", keep)
        interchange = TestCoupledBuild.INTERCHANGE if coupled else None
        dataset = Session(
            WorkloadConfig(**SMALL_STREAM), workers=1, interchange=interchange
        ).dataset()
        assert len(islands) == 2
        assert all(island["tables"]["per_gpu"][1] for island in islands)
        for name, table in oracle_assemble(islands, dataset.records).items():
            assert table_bytes(getattr(dataset, name)) == table_bytes(table), name


class TestFailureCleanup:
    """Any failure from ``schedule`` on removes the temp spill directory."""

    @pytest.mark.parametrize("stage", ["monitor", "assemble"])
    def test_failure_after_the_islands_leaves_no_temp_dir(
        self, stage, tmp_path, monkeypatch
    ):
        import errno
        import tempfile
        import zipfile
        from pathlib import Path

        from repro.errors import FrameError

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        if stage == "monitor":
            def merge_fails(*args, **kwargs):
                raise FrameError("injected merge failure")

            monkeypatch.setattr("repro.pipeline.shard._merge_islands", merge_fails)
            match = "injected merge failure"
        else:
            class DiskFullWhenAssembling(zipfile.ZipFile):
                def open(self, name, mode="r", **kwargs):
                    if mode == "w" and "assembled" in Path(self.filename).parts:
                        raise OSError(errno.ENOSPC, "No space left on device")
                    return super().open(name, mode, **kwargs)

            monkeypatch.setattr(zipfile, "ZipFile", DiskFullWhenAssembling)
            match = r"assembled/jobs/chunk_000000\.npz: .*No space left"
        session = Session(WorkloadConfig(**SMALL_STREAM), workers=1)
        with pytest.raises(FrameError, match=match):
            session.streaming_dataset(chunk_rows=256)
        assert not any((tmp_path / "tmp").iterdir())


class TestCoupledBuild:
    INTERCHANGE = InterchangeConfig(epoch_s=3600.0, migrate_after_s=900.0)

    @pytest.fixture(scope="class")
    def coupled_serial(self):
        session = Session(
            WorkloadConfig(**SHARDED), workers=1, interchange=self.INTERCHANGE
        )
        session.dataset()
        return session

    def test_coupling_changes_the_schedule(self, serial_session, coupled_serial):
        coupled = coupled_serial.dataset()
        uncoupled = serial_session.dataset()
        migrated = [
            r for r in coupled.records if r.request.tags.get("migrated")
        ]
        assert migrated, "interchange produced no migrations at this scale"
        assert coupled.jobs.to_dict() != uncoupled.jobs.to_dict()

    def test_workers_bound_the_island_hosts(self, coupled_serial):
        session = Session(
            WorkloadConfig(**SHARDED), workers=2, interchange=self.INTERCHANGE
        )
        datasets_equal(coupled_serial.dataset(), session.dataset())
        forked = {
            span["pid"]
            for span in session.tracer.drain_payload()
            if span["pid"] != os.getpid()
        }
        assert len(forked) == 2
        epochs = {
            event.island
            for event in session.recorder.events()
            if event.name == "island.epoch"
        }
        assert epochs == {0, 1, 2, 3}

    def test_parallel_coupled_matches_serial(self, coupled_serial):
        parallel = Session(
            WorkloadConfig(**SHARDED), workers=4, interchange=self.INTERCHANGE
        ).dataset()
        datasets_equal(coupled_serial.dataset(), parallel)

    def test_parallel_streaming_coupled_matches_serial(self, coupled_serial):
        stream = Session(
            WorkloadConfig(**SHARDED), workers=4, interchange=self.INTERCHANGE
        ).streaming_dataset(chunk_rows=512)
        streaming_equals_materialized(stream, coupled_serial.dataset())

    def test_interchange_extends_the_cache_key(self):
        from repro.pipeline.cache import dataset_key

        config = WorkloadConfig(**SHARDED)
        base = dataset_key(config, None)
        coupled = dataset_key(config, None, self.INTERCHANGE)
        assert base != coupled
        # None keeps the legacy payload: existing cache entries survive.
        assert base == dataset_key(config, None, None)


def _die_on_island_1(simulator, partition, context):
    """The build's setup hook, plus a hard exit of island 1's host at
    its fifth job completion."""
    state = _island_setup(simulator, partition, context)
    if partition.index == 1:
        finished = []

        def epilog(record):
            finished.append(record)
            if len(finished) == 5:
                os._exit(1)

        simulator.add_epilog(epilog)
    return state


class TestDeadHost:
    INTERCHANGE = InterchangeConfig(epoch_s=3600.0, migrate_after_s=900.0)

    @pytest.mark.parametrize("streaming", [False, True])
    def test_dead_host_leaves_no_cache_entry_or_temp_dir(
        self, streaming, tmp_path, monkeypatch
    ):
        import tempfile

        monkeypatch.setattr("repro.pipeline.shard._island_setup", _die_on_island_1)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        session = Session(
            WorkloadConfig(**SHARDED),
            workers=2,
            interchange=self.INTERCHANGE,
            cache_dir=tmp_path / "cache",
        )
        build = session.streaming_dataset if streaming else session.dataset
        with pytest.raises(ParallelTaskError, match=r"island 1 at epoch \d+"):
            build()
        assert multiprocessing.active_children() == []
        cache = tmp_path / "cache"
        assert not cache.exists() or not any(cache.iterdir())
        assert not any((tmp_path / "tmp").iterdir())


#: The coupled streaming build the e2e benchmark times: two forked
#: islands of 400 nodes at scale 0.02, migration-coupled.
E2E_STREAM = dict(scale=0.02, seed=20220214, num_nodes=800, partitions=2)
E2E_INTERCHANGE = InterchangeConfig(epoch_s=6 * 3600.0, migrate_after_s=3600.0)


class TestIslandDraw:
    """Island hosts draw their own cohorts: the parent holds no activity
    model, the drawn jobs are the serial draw, and a failure while
    drawing reaps every host."""

    def test_forked_build_holds_no_activity_model_in_the_parent(self, monkeypatch):
        """Counted when the first epoch starts: the activity models the
        parent holds beyond those alive before the build (other tests'
        datasets), and the models its own code constructed."""
        import gc

        from repro.slurm.interchange import PartitionedRunner
        from repro.workload.activity import JobActivityModel

        def models():
            gc.collect()
            return [o for o in gc.get_objects() if isinstance(o, JobActivityModel)]

        existing = models()
        known = set(map(id, existing))
        constructed = []
        init = JobActivityModel.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(os.getpid())
            init(self, *args, **kwargs)

        live_at_first_epoch = []
        epochs = PartitionedRunner._epochs

        def counting_epochs(self, *args):
            live_at_first_epoch.append(sum(id(m) not in known for m in models()))
            return epochs(self, *args)

        monkeypatch.setattr(JobActivityModel, "__init__", counting_init)
        monkeypatch.setattr(PartitionedRunner, "_epochs", counting_epochs)
        session = Session(
            WorkloadConfig(**E2E_STREAM), workers=2, interchange=E2E_INTERCHANGE
        )
        stream = session.streaming_dataset(chunk_rows=512)
        assert stream.gpu_jobs.num_rows > 900
        assert live_at_first_epoch == [0]
        assert constructed == []
        del existing

    @pytest.mark.parametrize("cohorts", [2, 3])
    def test_forked_records_are_the_serial_draw(self, cohorts):
        from repro.workload.cohorts import generate_sharded
        from tests.workload.test_trace_digests import trace_digest

        config = WorkloadConfig(**dict(SMALL_STREAM, cohorts=cohorts))
        session = Session(config, workers=2)
        records = session.dataset().records
        assert {span["pid"] for span in session.tracer.drain_payload()} - {os.getpid()}
        requests = [record.request for record in records]
        assert [r.job_id for r in requests] == list(range(len(requests)))
        assert trace_digest(requests) == trace_digest(generate_sharded(config))

    def test_host_dying_while_drawing_names_its_island(self, monkeypatch):
        from repro.workload import cohorts

        draw = cohorts.draw_cohort

        def die_on_cohort_1(config, cohort):
            if cohort == 1:
                os._exit(1)
            return draw(config, cohort)

        monkeypatch.setattr(cohorts, "draw_cohort", die_on_cohort_1)
        session = Session(WorkloadConfig(**SMALL_STREAM), workers=2)
        with pytest.raises(ParallelTaskError, match="island 1 at epoch 0") as raised:
            session.dataset()
        assert raised.value.index == 1
        assert multiprocessing.active_children() == []

    def test_undersized_island_fails_with_the_remedy_and_reaps_hosts(self):
        from repro.cluster.partition import PartitionError, PartitionLayout
        from repro.cluster.spec import supercloud_spec
        from repro.pipeline.shard import check_island_capacity
        from repro.slurm.interchange import route_requests
        from repro.workload.cohorts import generate_sharded

        config = WorkloadConfig(scale=0.05, seed=20220214, partitions=2)
        with pytest.raises(PartitionError) as expected:
            check_island_capacity(
                PartitionLayout.even(config.scaled_nodes, 2),
                route_requests(generate_sharded(config), 2),
                supercloud_spec(config.scaled_nodes),
            )
        with pytest.raises(PartitionError, match="fewer partitions") as raised:
            Session(config, workers=2).dataset()
        assert str(raised.value) == str(expected.value)
        assert multiprocessing.active_children() == []


class TestSummary:
    def test_summary_reports_partition_layout(self, serial_session):
        text = serial_session.summary()
        assert "partitions: 4 (cohorts: 4)" in text

    def test_operator_summary_shows_islands(self, serial_session):
        from repro.reporting import operator_summary

        text = operator_summary(serial_session.dataset())
        assert "partition layout" in text
        assert "4 cluster islands" in text
        assert "island 0: nodes 0.." in text
