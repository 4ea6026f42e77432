"""Tests for the monitoring collector wired into the scheduler."""

import numpy as np
import pytest

from repro.cluster.spec import supercloud_spec
from repro.errors import MonitoringError
from repro.monitor.collector import MonitoringCollector, MonitoringConfig
from repro.slurm.scheduler import SlurmSimulator
from tests.monitor.test_nvidia_smi import FlatModel
from tests.slurm.test_job import make_request


def run_with_collector(requests, config=None):
    simulator = SlurmSimulator(supercloud_spec(2))
    collector = MonitoringCollector(config).attach(simulator)
    simulator.run(requests)
    return collector


def gpu_request(job_id, num_gpus=1, runtime_s=120.0, **kw):
    request = make_request(job_id=job_id, num_gpus=num_gpus, runtime_s=runtime_s, **kw)
    request.tags["activity"] = FlatModel(num_gpus)
    return request


class TestCollection:
    def test_per_gpu_rows_one_per_device(self):
        collector = run_with_collector([gpu_request(1, num_gpus=2)])
        table = collector.per_gpu_table()
        assert table.num_rows == 2
        assert set(table["gpu_index"]) == {0, 1}

    def test_cpu_rows_for_every_job(self):
        collector = run_with_collector(
            [gpu_request(1), make_request(job_id=2, num_gpus=0, cores=4)]
        )
        assert collector.cpu_table().num_rows == 2

    def test_cpu_only_job_has_no_gpu_rows(self):
        collector = run_with_collector([make_request(job_id=1, num_gpus=0, cores=4)])
        assert collector.per_gpu_table().num_rows == 0

    def test_gpu_job_without_model_rejected(self):
        request = make_request(job_id=1, num_gpus=1)
        with pytest.raises(MonitoringError, match="no activity model"):
            run_with_collector([request])

    def test_summary_values_match_model(self):
        collector = run_with_collector([gpu_request(1)])
        row = collector.per_gpu_table().row(0)
        assert row["sm_mean"] == pytest.approx(40.0)
        assert row["power_w_max"] == pytest.approx(100.0)


class TestTimeSeriesSelection:
    def test_fraction_one_keeps_all(self):
        config = MonitoringConfig(timeseries_fraction=1.0)
        collector = run_with_collector([gpu_request(i) for i in range(4)], config)
        assert len(collector.store.job_ids()) == 4

    def test_fraction_zero_keeps_none(self):
        config = MonitoringConfig(timeseries_fraction=0.0)
        collector = run_with_collector([gpu_request(i) for i in range(4)], config)
        assert len(collector.store) == 0

    def test_invalid_fraction_rejected(self):
        with pytest.raises(MonitoringError):
            MonitoringCollector(MonitoringConfig(timeseries_fraction=1.5))

    def test_series_capped_at_max_samples(self):
        config = MonitoringConfig(timeseries_fraction=1.0, timeseries_max_samples=100)
        collector = run_with_collector([gpu_request(1, runtime_s=3600.0)], config)
        series = collector.store.get(1, 0)
        assert series.num_samples == 100


class TestJobAggregation:
    def test_multi_gpu_average(self):
        collector = run_with_collector([gpu_request(1, num_gpus=2)])
        table = collector.job_gpu_table()
        assert table.num_rows == 1
        assert table.row(0)["sm_mean"] == pytest.approx(40.0)

    def test_min_of_mins_max_of_maxes(self):
        collector = run_with_collector([gpu_request(1, num_gpus=2)])
        row = collector.job_gpu_table().row(0)
        assert row["sm_min"] <= row["sm_mean"] <= row["sm_max"]

    def test_empty_collector_gives_empty_table(self):
        collector = MonitoringCollector()
        assert collector.job_gpu_table().num_rows == 0


def spill_requests():
    return [gpu_request(i, num_gpus=2) for i in range(6)]


class TestSummarySpill:
    """Per-GPU summary rows spilled to disk instead of held in memory.

    Spilling is a runtime switch (``enable_spill``), deliberately not a
    ``MonitoringConfig`` field: the config hashes into dataset cache
    keys and where the rows live must not change what they are.
    """

    def test_spilled_run_matches_in_memory(self, tmp_path):
        baseline = run_with_collector(spill_requests())
        simulator = SlurmSimulator(supercloud_spec(2))
        collector = MonitoringCollector().attach(simulator)
        collector.enable_spill(tmp_path / "summary", chunk_rows=4)
        simulator.run(spill_requests())
        # sampling is deferred: runs hit disk at flush, not mid-run
        collector.flush()
        assert len(list((tmp_path / "summary").glob("run_*.npz"))) == 3
        assert (
            collector.per_gpu_table().to_dict()
            == baseline.per_gpu_table().to_dict()
        )
        assert (
            collector.job_gpu_table().to_dict()
            == baseline.job_gpu_table().to_dict()
        )

    def test_enable_spill_before_flush_seals_to_disk(self, tmp_path):
        baseline = run_with_collector(spill_requests())
        simulator = SlurmSimulator(supercloud_spec(2))
        collector = MonitoringCollector().attach(simulator)
        simulator.run(spill_requests())
        assert collector.pending_tasks
        collector.enable_spill(tmp_path / "late", chunk_rows=4)
        assert collector.per_gpu_table().to_dict() == baseline.per_gpu_table().to_dict()
        assert list((tmp_path / "late").glob("run_*.npz"))

    def test_sorted_summary_stream_is_global_sort(self, tmp_path):
        simulator = SlurmSimulator(supercloud_spec(2))
        collector = MonitoringCollector().attach(simulator)
        collector.enable_spill(tmp_path / "summary", chunk_rows=4)
        simulator.run(spill_requests())
        merged = collector.sorted_summary_stream(chunk_rows=3).materialize()
        expected = collector.per_gpu_table().sort_by("job_id", "gpu_index")
        assert merged.to_dict() == expected.to_dict()

    def test_uncreatable_spill_directory_names_it(self, tmp_path):
        """A spill directory under a regular file cannot be created,
        even by root; the error names the directory."""
        from repro.errors import FrameError

        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        with pytest.raises(FrameError, match=r"cannot create spill directory .*not_a_dir/summary"):
            MonitoringCollector().enable_spill(blocker / "summary")

    def test_failed_run_write_leaves_no_file(self, tmp_path, monkeypatch):
        import errno
        import importlib

        from repro.errors import FrameError

        codec = importlib.import_module("repro.frame.codec")
        pack = codec.pack
        calls = []

        def disk_full_on_second_run(parts, fh):
            calls.append(None)
            if len(calls) == 2:
                fh.write(b"partial member bytes")
                raise OSError(errno.ENOSPC, "No space left on device")
            return pack(parts, fh)

        monkeypatch.setattr(codec, "pack", disk_full_on_second_run)
        simulator = SlurmSimulator(supercloud_spec(2))
        collector = MonitoringCollector().attach(simulator)
        collector.enable_spill(tmp_path / "summary", chunk_rows=4)
        simulator.run(spill_requests())
        with pytest.raises(FrameError, match=r"run_000001\.npz: .*No space left"):
            collector.flush()
        assert [p.name for p in (tmp_path / "summary").iterdir()] == ["run_000000.npz"]
