"""Cluster load timeline and capacity planning."""

from repro.analysis.timeline import (
    daily_gpu_hours_from_jobs,
    gpu_occupancy_from_jobs,
    surge_visibility,
)


def test_occupancy_timeline(benchmark, dataset):
    timeline = benchmark(gpu_occupancy_from_jobs, dataset.jobs, dataset.spec.total_gpus)
    # the paper's provisioning claim: capacity exceeds demand
    assert timeline.mean_utilization < 0.7


def test_surge_visibility(benchmark, dataset):
    daily = daily_gpu_hours_from_jobs(dataset.jobs)
    table = benchmark(
        surge_visibility, daily, dataset.config.knobs.deadline_windows
    )
    assert all(r["observed_ratio"] > 0.9 for r in table.iter_rows())
