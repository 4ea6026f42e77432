"""Tests for the simulated nvidia-smi sampler."""

import math

import numpy as np
import pytest

from repro.errors import MonitoringError
from repro.monitor.nvidia_smi import NvidiaSmiSampler
from repro.monitor.sampling import SamplingTask, run_sampling
from repro.workload.activity import JobActivityModel, MetricProcess, PhaseSchedule, PowerModel


class FlatModel(JobActivityModel):
    """Constant ``level`` on every utilization metric (memory size once
    its ramp is done) and power 100 W, on an always-active schedule;
    ``sm`` jumps to 100 % inside ``sm_windows``."""

    def __init__(self, num_gpus=1, level=40.0, sm_windows=()):
        duration = 3600.0
        windows = np.asarray(sm_windows, dtype=float).reshape(-1, 2)
        processes = {
            name: MetricProcess(
                level=level,
                amplitudes=np.zeros(1),
                frequencies_hz=np.zeros(1),
                phases=np.zeros(1),
                burst_level=100.0,
                burst_windows=windows if name == "sm" else np.empty((0, 2)),
            )
            for name in ("sm", "mem_bw", "mem_size", "pcie_tx", "pcie_rx")
        }
        super().__init__(
            1, num_gpus, duration, PhaseSchedule.always(duration, True), processes,
            np.ones(num_gpus), PowerModel(100.0, 0.0, 0.0, 0.0, 0.0),
        )


class BurstyModel(FlatModel):
    """Flat 10 % with a 100 % ``sm`` burst in ``[50, 50.2)`` s."""

    def __init__(self, num_gpus=1):
        super().__init__(num_gpus, level=10.0, sm_windows=[(50.0, 50.2)])


def summarize(sampler, model, duration_s, rng):
    """GPU 0's min/mean/max as the collector computes it: offsets drawn
    by ``sampler``, then one deferred sampling pass."""
    offsets = sampler.draw_offsets(duration_s, model.num_gpus, rng)
    task = SamplingTask(1, model, duration_s, offsets, keep_series=False)
    [result] = run_sampling([task], sampler)
    return {name: float(values[0]) for name, values in result.summary.items()}


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestSampleSeries:
    def test_sample_count_matches_interval(self):
        sampler = NvidiaSmiSampler(interval_s=0.1)
        assert sampler.series_times(1.0).size == 11

    def test_max_samples_decimates(self):
        sampler = NvidiaSmiSampler(interval_s=0.1, max_series_samples=50)
        times = sampler.series_times(1000.0)
        assert times.size == 50
        assert times[-1] == pytest.approx(1000.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(MonitoringError):
            NvidiaSmiSampler().series_times(-1.0)

    def test_invalid_interval_rejected(self):
        with pytest.raises(MonitoringError):
            NvidiaSmiSampler(interval_s=0.0)


@pytest.mark.parametrize("interval", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("sampler", [NvidiaSmiSampler])
def test_interval_must_be_positive_and_finite(sampler, interval):
    with pytest.raises(MonitoringError, match=f"got {interval}"):
        sampler(interval_s=interval)


@pytest.mark.parametrize(
    "counts",
    [
        dict(max_series_samples=0),
        dict(max_series_samples=-1),
        dict(max_series_samples=math.nan),
        dict(summary_samples=math.nan),
    ],
)
def test_sample_counts_rejected_at_construction(counts):
    [value] = counts.values()
    with pytest.raises(MonitoringError, match=f"got {value}"):
        NvidiaSmiSampler(**counts)


class TestSummarize:
    def test_flat_model_summary(self, rng):
        sampler = NvidiaSmiSampler(summary_samples=64)
        summary = summarize(sampler, FlatModel(), 100.0, rng)
        assert summary["sm_mean"] == pytest.approx(40.0)
        assert summary["sm_min"] == pytest.approx(40.0)
        assert summary["sm_max"] == pytest.approx(40.0)
        assert summary["power_w_mean"] == pytest.approx(100.0)

    def test_analytic_max_catches_missed_burst(self, rng):
        # 64 stratified samples over 1000 s will usually miss a 0.2 s
        # burst, but the summary max must still report it.
        sampler = NvidiaSmiSampler(summary_samples=64)
        summary = summarize(sampler, BurstyModel(), 1000.0, rng)
        assert summary["sm_max"] == 100.0
        assert summary["sm_mean"] < 15.0

    def test_short_job_uses_few_samples(self, rng):
        sampler = NvidiaSmiSampler(interval_s=0.1, summary_samples=512)
        assert sampler.summary_sample_count(0.5) == 6
        summary = summarize(sampler, FlatModel(), 0.5, rng)
        assert summary["sm_mean"] == pytest.approx(40.0)

    def test_too_few_summary_samples_rejected(self):
        with pytest.raises(MonitoringError):
            NvidiaSmiSampler(summary_samples=1)

    def test_negative_duration_rejected(self, rng):
        with pytest.raises(MonitoringError):
            summarize(NvidiaSmiSampler(), FlatModel(), -5.0, rng)
