"""Cluster occupancy over time.

The paper's queue-wait findings rest on a provisioning claim:
"Supercloud achieves low wait times by investing in provisioning
enough resources to meet the GPU demand" (Sec. III takeaway).  This
module reconstructs the load timeline from the dataset's jobs table,
materialized or as a chunk stream, so that claim can be inspected:
concurrent GPU occupancy, daily GPU hours, peak concurrency, and the
visibility of conference-deadline surges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.frame import Table

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class OccupancyTimeline:
    """Sampled concurrent occupancy of one resource."""

    times_s: np.ndarray
    occupancy: np.ndarray
    capacity: float

    @property
    def peak(self) -> float:
        return float(self.occupancy.max()) if self.occupancy.size else 0.0

    @property
    def mean(self) -> float:
        return float(self.occupancy.mean()) if self.occupancy.size else 0.0

    @property
    def mean_utilization(self) -> float:
        if self.capacity <= 0:
            raise AnalysisError("capacity must be positive")
        return self.mean / self.capacity

    @property
    def peak_utilization(self) -> float:
        return self.peak / self.capacity if self.capacity > 0 else 0.0


def gpu_occupancy_from_jobs(jobs, capacity: int, num_samples: int = 2000) -> OccupancyTimeline:
    """Concurrent GPUs in use, sampled on an even grid.

    Reads the ``start_time_s``/``end_time_s``/``num_gpus`` columns of
    the materialized ``dataset.jobs`` Table or a chunked stream of it
    (a streaming build carries no record list).  The +w at start / -w
    at end sweep is separable per job — occupancy(g) = sum of weights
    started at or before g minus weights ended at or before g — so the
    fold adds two sorted-prefix sums per chunk onto the grid (one extra
    pass first for the grid extent).  GPU counts are integer-valued
    floats, so the occupancy is exact on any chunking.
    """
    gpu_jobs = jobs.filter(lambda t: np.asarray(t["num_gpus"]) > 0)
    lo, hi, any_rows = math.inf, -math.inf, False
    for chunk in gpu_jobs.chunks():
        any_rows = True
        lo = min(lo, float(np.min(np.asarray(chunk["start_time_s"], dtype=float))))
        hi = max(hi, float(np.max(np.asarray(chunk["end_time_s"], dtype=float))))
    if not any_rows:
        raise AnalysisError("no GPU jobs in the jobs table")
    grid = np.linspace(lo, hi, num_samples)
    occupancy = np.zeros(num_samples)
    for chunk in gpu_jobs.chunks():
        weights = np.asarray(chunk["num_gpus"], dtype=float)
        for column, sign in (("start_time_s", 1.0), ("end_time_s", -1.0)):
            events = np.asarray(chunk[column], dtype=float)
            order = np.argsort(events, kind="stable")
            cumulative = np.cumsum(weights[order] * sign)
            idx = np.searchsorted(events[order], grid, side="right")
            occupancy += np.where(idx > 0, cumulative[np.clip(idx - 1, 0, None)], 0.0)
    occupancy = np.maximum(occupancy, 0.0)
    return OccupancyTimeline(times_s=grid, occupancy=occupancy, capacity=float(capacity))


def daily_gpu_hours_from_jobs(jobs) -> Table:
    """GPU hours consumed per study day (start-day attribution).

    Reads a jobs table or a chunk stream of it: the day column is
    computed per chunk and the grouped sum streams with O(days) state.
    A chunked view sums each day's hours chunk by chunk, so it may
    differ from the materialized table's sum in the last bits.
    """
    from repro.frame import ChunkedTable

    def day_table(table: Table) -> Table:
        return Table(
            {
                "day": (
                    np.asarray(table["start_time_s"], dtype=float) // SECONDS_PER_DAY
                ).astype(np.int64),
                "gpu_hours": np.asarray(table["gpu_hours"], dtype=float),
            }
        )

    gpu_jobs = jobs.filter(lambda t: np.asarray(t["num_gpus"]) > 0)
    per_job = ChunkedTable(gpu_jobs.chunks).map_chunks(day_table)
    daily = per_job.group_by("day").aggregate({"gpu_hours": "sum"})
    if daily.num_rows == 0:
        raise AnalysisError("no GPU jobs in the jobs table")
    return daily.rename({"gpu_hours_sum": "gpu_hours"}).sort_by("day")


def surge_visibility(daily: Table, windows) -> Table:
    """Compare daily GPU hours inside vs outside surge windows.

    ``windows`` are ``(start_day, end_day, multiplier)`` tuples (the
    generator's conference-deadline windows).
    """
    days = np.asarray(daily["day"], dtype=float)
    hours = np.asarray(daily["gpu_hours"], dtype=float)
    rows = []
    for start_day, end_day, multiplier in windows:
        inside = (days >= start_day) & (days < end_day)
        if not inside.any() or inside.all():
            continue
        rows.append(
            {
                "window_start_day": start_day,
                "window_end_day": end_day,
                "intended_multiplier": multiplier,
                "inside_mean_gpu_hours": float(hours[inside].mean()),
                "outside_mean_gpu_hours": float(hours[~inside].mean()),
                "observed_ratio": float(hours[inside].mean() / max(hours[~inside].mean(), 1e-9)),
            }
        )
    if not rows:
        raise AnalysisError("no surge window overlaps the study period")
    return Table.from_rows(rows)


def capacity_sweep(requests, node_counts, spec_factory=None) -> Table:
    """Re-run the same workload at several cluster sizes.

    Quantifies the paper's provisioning claim: as capacity shrinks,
    GPU queue waits depart from the seconds regime.  ``spec_factory``
    maps a node count to a ClusterSpec (defaults to
    :func:`repro.cluster.spec.supercloud_spec`).
    """
    from repro.cluster.spec import supercloud_spec
    from repro.slurm.scheduler import SlurmSimulator

    spec_factory = spec_factory or supercloud_spec
    rows = []
    for nodes in node_counts:
        result = SlurmSimulator(spec_factory(nodes)).run(list(requests))
        waits = np.asarray(
            [r.wait_time_s for r in result.records if r.request.num_gpus > 0]
        )
        rows.append(
            {
                "nodes": nodes,
                "gpu_median_wait_s": float(np.median(waits)),
                "gpu_p95_wait_s": float(np.percentile(waits, 95)),
                "gpu_wait_under_1min": float((waits < 60.0).mean()),
                "peak_queue": result.peak_queue_length,
            }
        )
    return Table.from_rows(rows)
