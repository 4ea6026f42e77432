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


class TestEpilogDraws:
    def test_only_gpu_jobs_draw_keep_series_then_offsets(self):
        """A CPU-only job draws nothing; a GPU job draws its keep-series
        uniform, then one row of stratified offsets per GPU."""
        simulator = SlurmSimulator(supercloud_spec(2))
        collector = MonitoringCollector().attach(simulator)
        result = simulator.run(
            [make_request(job_id=1, num_gpus=0, cores=4), gpu_request(2, num_gpus=2)]
        )
        (gpu_record,) = result.gpu_records()
        count = collector._gpu_sampler.summary_sample_count(gpu_record.run_time_s)
        expected = np.random.default_rng(MonitoringConfig().seed)
        expected.random()
        expected.random((2, count))
        assert collector._rng.bit_generator.state == expected.bit_generator.state


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

    @pytest.mark.parametrize(
        "config",
        [MonitoringConfig(gpu_interval_s=float("nan")), MonitoringConfig(timeseries_max_samples=0)],
        ids=["nan_interval", "zero_cap"],
    )
    def test_invalid_sampler_config_rejected_at_construction(self, config):
        with pytest.raises(MonitoringError, match="got (nan|0)"):
            MonitoringCollector(config)

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
