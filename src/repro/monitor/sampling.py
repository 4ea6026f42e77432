"""Deferred batched sampling — the expensive half of the monitor epilog.

The scheduler epilog stays cheap and strictly ordered: it consumes the
collector RNG in job-completion order (CPU summary, keep-series draw,
stratified offsets) and enqueues a :class:`SamplingTask` instead of
evaluating the activity model inline.  Everything a task needs is
frozen at enqueue time, and the evaluation is a deterministic function
of those inputs, so the task list can be evaluated *after* the
simulation and merged back in job order with bit-for-bit the dataset
the old inline epilog produced.

:func:`run_sampling` evaluates an island's whole task list at once.
Tasks whose model is a :class:`~repro.workload.activity.JobActivityModel`
are grouped by stratified sample count ``n`` and cut into blocks of
at most ``_BLOCK_SAMPLES`` samples and burst windows; each block is one
:class:`~repro.workload.activity.ActivityBatch` of its own models, so
the working set is bounded by the block however large the island.
min/mean/max reduce along each block's rows and the analytic maxima
are array expressions.  Any other
:class:`~repro.monitor.nvidia_smi.ActivityModel` keeps the sampler's
per-GPU path.  A kept dense series is one batch per job, its smooth
part computed once for all of the job's GPUs.  With ``workers > 1``
contiguous task slices go through the same code in a process pool.
Each row is computed elementwise and reduced along its own axis, so
neither grouping, blocking nor sharding changes a byte of the output.
``benchmarks/bench_dataset_build.py`` gates the island batch against
one call per task.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.errors import MonitoringError, WorkloadError
from repro.monitor.nvidia_smi import (
    ActivityModel,
    NvidiaSmiSampler,
    stratified_times,
    summary_stats,
)
from repro.monitor.timeseries import GpuTimeSeries

#: Samples plus burst windows per batch block: bounds the kernel's
#: working set (a few dozen arrays of this many entries) whatever the
#: island's size.
_BLOCK_SAMPLES = 1 << 14


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic evaluation parameters shared by every task."""

    #: Dense-series sampling cadence (100 ms in production).
    gpu_interval_s: float = 0.1
    #: Dense series are decimated beyond this many samples per GPU.
    timeseries_max_samples: int = 20000


@dataclass
class SamplingTask:
    """One job's deferred telemetry evaluation.

    ``offsets`` is the job's stratified ``(num_gpus, n)`` draw — the
    only random input — taken from the collector RNG in the epilog, so
    deferral leaves the generator stream untouched.
    """

    job_id: int
    model: ActivityModel
    run_time_s: float
    offsets: np.ndarray
    keep_series: bool

    @property
    def num_gpus(self) -> int:
        return int(self.offsets.shape[0])


@dataclass
class SamplingResult:
    """What one task produced, ready to merge into the collector."""

    job_id: int
    num_gpus: int
    #: ``{"<metric>_<stat>": (num_gpus,) array}`` column fragments.
    summary: dict[str, np.ndarray]
    #: Dense series (one per GPU) when the task kept them, else empty.
    series: list[GpuTimeSeries]


def run_sampling(
    tasks: list[SamplingTask],
    plan: SamplingPlan,
    workers: int | None = None,
) -> list[SamplingResult]:
    """Evaluate every task, in task (= job-completion) order.

    With ``workers > 1`` the list is cut into one contiguous slice per
    worker and the slices run in a process pool;
    :func:`~repro.pipeline.parallel.parallel_map` preserves their order
    and falls back to the serial path when a pool cannot start, so the
    merged results are identical either way.
    """
    from repro.pipeline.parallel import parallel_map, resolve_workers

    workers = resolve_workers(workers)
    if workers <= 1 or len(tasks) <= 1:
        return _sample_slice(plan, tasks)
    size = -(-len(tasks) // workers)
    slices = [tasks[start : start + size] for start in range(0, len(tasks), size)]
    parts = parallel_map(partial(_sample_slice, plan), slices, workers=workers)
    return [result for part in parts for result in part]


def _sample_slice(plan: SamplingPlan, tasks: list[SamplingTask]) -> list[SamplingResult]:
    """Evaluate ``tasks`` — a pure function of ``(plan, tasks)``."""
    sampler = NvidiaSmiSampler(plan.gpu_interval_s)
    for task in tasks:
        if task.run_time_s < 0:
            raise MonitoringError(f"negative duration {task.run_time_s}")
    summaries = _batched_summaries(tasks)
    results = []
    for index, task in enumerate(tasks):
        summary = summaries.get(index)
        if summary is None:
            summary = sampler.summarize_with_offsets(task.model, task.run_time_s, task.offsets)
        series: list[GpuTimeSeries] = []
        if task.keep_series:
            series = sampler.sample_series_job(
                task.job_id,
                task.model,
                task.run_time_s,
                max_samples=plan.timeseries_max_samples,
            )
        results.append(SamplingResult(task.job_id, task.num_gpus, summary, series))
    return results


def _batched_summaries(tasks: list[SamplingTask]) -> dict[int, dict[str, np.ndarray]]:
    """Summaries of the tasks with a ``JobActivityModel``, by task index.

    Tasks sharing a stratified sample count ``n`` stack their GPU rows
    into ``(rows, n)`` blocks, and each block is one
    :class:`~repro.workload.activity.ActivityBatch` of its tasks'
    models.  A block's rows hold at most ``_BLOCK_SAMPLES`` samples and
    burst windows together (a larger task is a block of its own), so
    the kernel's working set is bounded by the block, not the island.
    """
    from repro.workload.activity import ActivityBatch, JobActivityModel

    by_count: dict[int, list[int]] = {}
    for index, task in enumerate(tasks):
        if not isinstance(task.model, JobActivityModel):
            continue
        if task.offsets.ndim != 2 or task.offsets.shape[0] != task.model.num_gpus:
            raise WorkloadError(
                f"job {task.job_id}: batched times must have shape "
                f"({task.model.num_gpus}, n), got {task.offsets.shape}"
            )
        by_count.setdefault(task.offsets.shape[1], []).append(index)
    out: dict[int, dict[str, np.ndarray]] = {}
    for n, members in by_count.items():
        weights = [
            tasks[index].model.num_gpus
            * (n + sum(len(p.burst_windows) for p in tasks[index].model.processes.values()))
            for index in members
        ]
        for block in _blocks(members, weights, _BLOCK_SAMPLES):
            block_tasks = [tasks[index] for index in block]
            batch = ActivityBatch([task.model for task in block_tasks])
            sizes = [task.model.num_gpus for task in block_tasks]
            times = stratified_times(
                np.repeat([float(task.run_time_s) for task in block_tasks], sizes),
                np.concatenate([task.offsets for task in block_tasks]),
            )
            summary = summary_stats(batch.metrics(times), batch.analytic_max())
            start = 0
            for index, size in zip(block, sizes):
                out[index] = {
                    name: values[start : start + size] for name, values in summary.items()
                }
                start += size
    return out


def _blocks(members: list[int], weights: list[int], limit: int):
    """Consecutive runs of ``members`` whose ``weights`` sum to at most
    ``limit`` (a heavier member forms a block of its own)."""
    block: list[int] = []
    total = 0
    for member, weight in zip(members, weights):
        if block and total + weight > limit:
            yield block
            block, total = [], 0
        block.append(member)
        total += weight
    if block:
        yield block
