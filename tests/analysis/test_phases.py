"""Tests for active/idle phase segmentation."""

import numpy as np
import pytest

from repro.analysis.phases import (
    activity_mask,
    job_phase_table,
    phase_stats,
    within_active_cov,
)
from repro.errors import AnalysisError
from repro.monitor.timeseries import METRIC_NAMES, GpuTimeSeries, TimeSeriesStore


def series_from_sm(sm_values, job_id=1, gpu_index=0, step=1.0):
    sm = np.asarray(sm_values, dtype=float)
    times = np.arange(len(sm)) * step
    metrics = {name: np.zeros(len(sm)) for name in METRIC_NAMES}
    metrics["sm"] = sm
    metrics["power_w"] = 25.0 + 1.25 * sm
    return GpuTimeSeries(job_id, gpu_index, times, metrics)


class TestActivityMask:
    def test_sm_drives_activity(self):
        series = series_from_sm([0.0, 10.0, 0.0])
        assert activity_mask(series).tolist() == [False, True, False]

    def test_memory_alone_counts_as_active(self):
        metrics = {name: np.zeros(2) for name in METRIC_NAMES}
        metrics["mem_bw"][1] = 30.0
        series = GpuTimeSeries(1, 0, np.arange(2.0), metrics)
        assert activity_mask(series).tolist() == [False, True]

    def test_threshold_respected(self):
        series = series_from_sm([0.4, 0.6])
        assert activity_mask(series).tolist() == [False, True]


class TestPhaseStats:
    def test_all_active(self):
        stats = phase_stats(series_from_sm([10.0] * 20))
        assert stats.active_fraction == 1.0
        assert stats.num_active_intervals == 1
        assert stats.num_idle_intervals == 0

    def test_all_idle(self):
        stats = phase_stats(series_from_sm([0.0] * 20))
        assert stats.active_fraction == 0.0

    def test_alternation_counts_intervals(self):
        sm = [10.0] * 5 + [0.0] * 5 + [10.0] * 5 + [0.0] * 5
        stats = phase_stats(series_from_sm(sm))
        assert stats.num_active_intervals == 2
        assert stats.num_idle_intervals == 2
        assert stats.active_fraction == pytest.approx(0.5, abs=0.1)

    def test_regular_intervals_low_cov(self):
        sm = ([10.0] * 10 + [0.0] * 10) * 5
        stats = phase_stats(series_from_sm(sm))
        assert stats.active_interval_cov == pytest.approx(0.0, abs=0.05)

    def test_irregular_intervals_high_cov(self):
        sm = [10.0] * 2 + [0.0] * 3 + [10.0] * 50 + [0.0] * 3 + [10.0] * 2
        stats = phase_stats(series_from_sm(sm))
        assert stats.active_interval_cov > 0.5

    def test_empty_series_rejected(self):
        empty = GpuTimeSeries(
            1, 0, np.empty(0), {name: np.empty(0) for name in METRIC_NAMES}
        )
        with pytest.raises(AnalysisError):
            phase_stats(empty)

    def test_mean_interval_lengths(self):
        sm = [10.0] * 10 + [0.0] * 30
        stats = phase_stats(series_from_sm(sm))
        assert stats.mean_active_interval_s == pytest.approx(10.0, rel=0.2)
        assert stats.mean_idle_interval_s == pytest.approx(29.0, rel=0.2)


class TestWithinActiveCov:
    def test_constant_active_values_zero_cov(self):
        covs = within_active_cov(series_from_sm([20.0] * 10))
        assert covs["sm"] == pytest.approx(0.0)

    def test_idle_samples_excluded(self):
        # alternating 0/20: CoV over all samples would be 1.0, but the
        # active-only CoV is 0 because every active sample is 20.
        covs = within_active_cov(series_from_sm([0.0, 20.0] * 10))
        assert covs["sm"] == pytest.approx(0.0)

    def test_varying_active_values(self):
        covs = within_active_cov(series_from_sm([10.0, 30.0] * 10))
        assert covs["sm"] == pytest.approx(0.5)

    def test_all_idle_gives_nan(self):
        covs = within_active_cov(series_from_sm([0.0] * 5))
        assert np.isnan(covs["sm"])


class TestJobPhaseTable:
    def test_one_row_per_job_most_active_gpu(self):
        store = TimeSeriesStore()
        store.add(series_from_sm([0.0] * 10, job_id=1, gpu_index=0))
        store.add(series_from_sm([50.0] * 10, job_id=1, gpu_index=1))
        table = job_phase_table(store)
        assert table.num_rows == 1
        assert table.row(0)["active_fraction"] == 1.0  # uses the busy GPU

    def test_context_columns_joined(self):
        store = TimeSeriesStore()
        store.add(series_from_sm([10.0] * 10, job_id=7))
        table = job_phase_table(store, {7: {"lifecycle_class": "mature"}})
        assert table.row(0)["lifecycle_class"] == "mature"
