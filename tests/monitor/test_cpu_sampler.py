"""Tests for the 10-second CPU sampler."""

import numpy as np
import pytest

from repro.errors import MonitoringError
from repro.monitor.cpu_sampler import CpuSampler


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestSample:
    def test_series_keys_and_lengths(self, rng):
        series = CpuSampler().sample(300.0, cores=8, memory_gb=64.0, rng=rng)
        assert set(series) == {"times_s", "cpu_load", "memory_gb", "io_mbps"}
        n = len(series["times_s"])
        assert all(len(series[k]) == n for k in series)
        assert n == 31

    def test_load_bounded_by_cores(self, rng):
        series = CpuSampler().sample(600.0, cores=8, memory_gb=64.0, rng=rng)
        assert series["cpu_load"].max() <= 8.0
        assert series["cpu_load"].min() >= 0.0

    def test_memory_ramps_to_working_set(self, rng):
        series = CpuSampler().sample(1000.0, cores=4, memory_gb=100.0, rng=rng)
        assert series["memory_gb"][0] <= series["memory_gb"][-1]
        assert series["memory_gb"].max() <= 100.0

    def test_io_bursts_at_edges(self, rng):
        series = CpuSampler().sample(10000.0, cores=4, memory_gb=10.0, rng=rng)
        progress = series["times_s"] / series["times_s"][-1]
        edges = series["io_mbps"][(progress < 0.05) | (progress > 0.95)]
        middle = series["io_mbps"][(progress >= 0.2) & (progress <= 0.8)]
        assert edges.mean() > 3 * middle.mean()

    def test_max_samples_cap(self, rng):
        series = CpuSampler().sample(1e6, cores=1, memory_gb=1.0, rng=rng, max_samples=100)
        assert len(series["times_s"]) == 100

    def test_negative_duration_rejected(self, rng):
        with pytest.raises(MonitoringError):
            CpuSampler().sample(-1.0, 1, 1.0, rng)

    def test_invalid_interval_rejected(self):
        with pytest.raises(MonitoringError):
            CpuSampler(interval_s=0.0)


class TestSummarize:
    def test_summary_keys(self, rng):
        summary = CpuSampler().summarize(120.0, 4, 32.0, rng)
        assert set(summary) == {
            "cpu_load_min", "cpu_load_mean", "cpu_load_max",
            "memory_gb_min", "memory_gb_mean", "memory_gb_max",
            "io_mbps_min", "io_mbps_mean", "io_mbps_max",
        }

    def test_summary_ordering(self, rng):
        summary = CpuSampler().summarize(600.0, 4, 32.0, rng)
        for metric in ("cpu_load", "memory_gb", "io_mbps"):
            assert summary[f"{metric}_min"] <= summary[f"{metric}_mean"] <= summary[f"{metric}_max"]

    @pytest.mark.parametrize("duration_s", [0.0, 5.0, 600.0, 1e5])
    def test_summary_reduces_the_sampled_series(self, duration_s):
        """Each statistic is the 1-D reduction of the series ``sample``
        draws from the same stream, bit for bit."""
        summary = CpuSampler().summarize(duration_s, 4, 32.0, np.random.default_rng(9))
        series = CpuSampler().sample(duration_s, 4, 32.0, np.random.default_rng(9))
        for name in ("cpu_load", "memory_gb", "io_mbps"):
            values = series[name].copy()
            for stat in ("min", "mean", "max"):
                value, expected = summary[f"{name}_{stat}"], getattr(values, stat)()
                assert type(value) is float
                assert np.float64(value).tobytes() == expected.tobytes()
