"""Tests for cluster-occupancy timeline analysis."""

import numpy as np
import pytest

from repro.analysis.timeline import (
    OccupancyTimeline,
    capacity_sweep,
    daily_gpu_hours_from_jobs,
    gpu_occupancy_from_jobs,
    surge_visibility,
)
from repro.errors import AnalysisError
from repro.frame import ChunkedTable, Table
from tests.slurm.test_job import make_request


def jobs(*rows):
    """A jobs table from ``(start_s, end_s, num_gpus)`` rows."""
    start, end, gpus = np.asarray(rows, dtype=float).reshape(-1, 3).T
    return Table(
        {
            "start_time_s": start,
            "end_time_s": end,
            "num_gpus": gpus.astype(np.int64),
            "gpu_hours": gpus * (end - start) / 3600.0,
        }
    )


class TestGpuOccupancy:
    def test_single_job_plateau(self):
        timeline = gpu_occupancy_from_jobs(jobs((0.0, 100.0, 2)), capacity=4, num_samples=50)
        assert timeline.peak == 2.0
        assert timeline.peak_utilization == 0.5

    def test_overlapping_jobs_stack(self):
        table = jobs((0.0, 100.0, 1), (50.0, 150.0, 3))
        timeline = gpu_occupancy_from_jobs(table, capacity=8, num_samples=400)
        assert timeline.peak == 4.0

    def test_disjoint_jobs_never_stack(self):
        table = jobs((0.0, 10.0, 1), (100.0, 110.0, 1))
        timeline = gpu_occupancy_from_jobs(table, capacity=2, num_samples=500)
        assert timeline.peak == 1.0

    def test_occupancy_never_negative(self):
        table = jobs(*[(float(i), float(i) + 5.0, 1) for i in range(20)])
        timeline = gpu_occupancy_from_jobs(table, capacity=4)
        assert (timeline.occupancy >= 0).all()

    def test_cpu_only_records_rejected(self):
        with pytest.raises(AnalysisError):
            gpu_occupancy_from_jobs(jobs((0.0, 10.0, 0)), capacity=2)

    def test_mean_utilization_requires_capacity(self):
        timeline = OccupancyTimeline(np.zeros(1), np.zeros(1), capacity=0.0)
        with pytest.raises(AnalysisError):
            timeline.mean_utilization


class TestDailyGpuHours:
    def test_attribution_by_start_day(self):
        table = daily_gpu_hours_from_jobs(
            jobs(
                (0.0, 3600.0, 1),  # day 0, 1 GPU-hour
                (86400.0 + 10.0, 86400.0 + 7210.0, 2),  # day 1, 4 GPU-hours
            )
        )
        by_day = {r["day"]: r["gpu_hours"] for r in table.iter_rows()}
        assert by_day[0] == pytest.approx(1.0)
        assert by_day[1] == pytest.approx(4.0)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            daily_gpu_hours_from_jobs(jobs())


class TestChunkedView:
    def test_chunked_view_matches_the_table(self, small_dataset):
        """256-row chunks give the same grid, occupancy and days; each
        day's hours are summed chunk by chunk, so only their last bits
        may move."""
        table = small_dataset.jobs
        view = ChunkedTable.scan(table, 256)
        capacity = small_dataset.spec.total_gpus
        whole = gpu_occupancy_from_jobs(table, capacity)
        chunked = gpu_occupancy_from_jobs(view, capacity)
        assert np.array_equal(whole.times_s, chunked.times_s)
        assert np.array_equal(whole.occupancy, chunked.occupancy)
        daily = daily_gpu_hours_from_jobs(table)
        daily_chunked = daily_gpu_hours_from_jobs(view)
        assert np.array_equal(daily["day"], daily_chunked["day"])
        np.testing.assert_allclose(daily_chunked["gpu_hours"], daily["gpu_hours"], rtol=1e-12)


class TestSurgeVisibility:
    def test_surge_detected_in_generated_data(self, medium_dataset):
        daily = daily_gpu_hours_from_jobs(medium_dataset.jobs)
        windows = medium_dataset.config.knobs.deadline_windows
        table = surge_visibility(daily, windows)
        assert table.num_rows >= 1
        # deadline weeks carry more load than the baseline
        assert all(r["observed_ratio"] > 1.0 for r in table.iter_rows())

    def test_no_overlap_rejected(self):
        daily = daily_gpu_hours_from_jobs(jobs((0.0, 3600.0, 1)))
        with pytest.raises(AnalysisError):
            surge_visibility(daily, [(500.0, 510.0, 2.0)])


class TestCapacitySweep:
    def test_waits_shrink_with_capacity(self):
        requests = [
            make_request(job_id=i, submit_time_s=float(i), num_gpus=2, runtime_s=120.0)
            for i in range(12)
        ]
        sweep = capacity_sweep(requests, node_counts=(1, 6))
        rows = sorted(sweep.iter_rows(), key=lambda r: r["nodes"])
        assert rows[0]["gpu_median_wait_s"] >= rows[1]["gpu_median_wait_s"]
        assert rows[1]["gpu_wait_under_1min"] >= rows[0]["gpu_wait_under_1min"]

    def test_provisioned_cluster_keeps_waits_low(self, medium_dataset):
        timeline = gpu_occupancy_from_jobs(
            medium_dataset.jobs, capacity=medium_dataset.spec.total_gpus
        )
        # the paper's claim: capacity comfortably exceeds demand
        assert timeline.peak_utilization <= 1.0
        assert timeline.mean_utilization < 0.6
