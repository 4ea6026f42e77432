"""Tests for the partitioned (sharded) dataset build.

Every dataset build is K islands driven by one runner.  The contract,
pinned end to end at the session level:

* for a fixed partition count the build is **bit-for-bit identical**
  whether one in-process host runs the islands or ``min(workers, K)``
  forked hosts do;
* ``partitions=1`` is a one-island build that reproduces the
  pre-island monolithic build's content exactly (golden digests), in
  ascending ``job_id`` order;
* the merged dataset keeps the whole-machine shape (global node
  indices, one spec, job-id-ordered tables);
* the **streaming** build — islands spill to disk, the parent k-way
  merges chunk streams — yields the same tables chunk for chunk, for
  uncoupled islands and for interchange-coupled islands run serially
  or process-parallel.
"""

import hashlib
import multiprocessing
import os
import re

import numpy as np
import pytest

from repro.monitor.collector import MonitoringConfig
from repro.pipeline import Session
from repro.pipeline.parallel import ParallelTaskError
from repro.pipeline.shard import _island_setup, island_monitoring
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
        # The one island runs in the parent at any worker count; workers
        # only widens its sampling pool (TestGolden pins the content).
        roundtrip = Session(WorkloadConfig(**base), workers=2).dataset()
        datasets_equal(legacy, roundtrip)


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
    """Digests of the monolithic (pre-island) build at scale 0.01, seed 7."""

    GOLDEN = {
        "jobs": "3226757f9e6ef73e4c12838361599d5ae8ad9f4da27f4cf3cbc5402a9606f299",
        "gpu_jobs": "869abbffacce808f01416fb5a949325f06e67e2e257bd93825f5a256f4b49509",
        "per_gpu": "2d9e28c9ddc30060ed074567e4cf88a6177c256f2461a5145727c1e90ecdf3a7",
        "series": "0ba54266381b4d2d9cdd8e6080330e2dbf09c3d36aee9f3173822a797305f48c",
        "records": "38708501dd5b5e3fa4a7d9a0ced3dd13b9818349a230b7568fcd0668848f6ce5",
    }

    def test_single_partition_matches_pre_island_build(self):
        dataset = Session(WorkloadConfig(scale=0.01, seed=7)).dataset()
        assert len(dataset.timeseries) == 29
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
        # of a PlacementError from inside a pool worker
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
        base = dict(SHARDED, partitions=1)
        session = Session(WorkloadConfig(**base))
        stream = session.streaming_dataset(chunk_rows=256)
        assert stream.is_streaming
        # The chunked view presents jobs in ascending job_id, the order
        # every island build emits.
        assert (
            stream.jobs.materialize().to_dict()
            == session.dataset().jobs.sort_by("job_id").to_dict()
        )


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


class TestSummary:
    def test_summary_reports_partition_layout(self, serial_session):
        text = serial_session.summary()
        assert "partitions: 4 (cohorts: 4)" in text

    def test_operator_summary_shows_islands(self, serial_session):
        from repro.reporting import operator_summary

        text = operator_summary(serial_session)
        assert "partition layout" in text
        assert "4 cluster islands" in text
        assert "island 0: nodes 0.." in text
