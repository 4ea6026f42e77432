"""Deferred batched sampling — the expensive half of the monitor epilog.

The scheduler epilog stays cheap and strictly ordered: it consumes the
collector RNG in job-completion order (CPU summary, keep-series draw,
stratified offsets) and enqueues a :class:`SamplingTask` instead of
evaluating the activity model inline.  Everything a task needs is
frozen at enqueue time, and the evaluation is a deterministic function
of those inputs and the :class:`~repro.monitor.nvidia_smi.NvidiaSmiSampler`
that drew the offsets, so the task list can be evaluated *after* the
simulation and merged back in job order with bit-for-bit the dataset
an inline epilog would produce.

:func:`run_sampling` evaluates an island's whole task list at once.
Tasks are grouped by stratified sample count ``n`` and cut into blocks
of at most ``_BLOCK_SAMPLES`` samples and burst windows; each block is
one :class:`~repro.workload.activity.ActivityBatch` of its own
:class:`~repro.workload.activity.JobActivityModel` s, so the working
set is bounded by the block however large the island.  min/mean/max
reduce along each block's rows and the analytic maxima are array
expressions.  A kept dense series is a one-model batch at
:meth:`~repro.monitor.nvidia_smi.NvidiaSmiSampler.series_times`, its
smooth part computed once for all of the job's GPUs.  Each row is
computed elementwise and reduced along its own axis, so neither
grouping nor blocking changes a byte of the output.  The island's
host process runs the whole list serially.
``benchmarks/bench_dataset_build.py`` gates the island batch against
one call per task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import MonitoringError
from repro.monitor.nvidia_smi import NvidiaSmiSampler, stratified_times, summary_stats
from repro.monitor.timeseries import GpuTimeSeries

if TYPE_CHECKING:
    from repro.workload.activity import JobActivityModel

#: Samples plus burst windows per batch block: bounds the kernel's
#: working set (a few dozen arrays of this many entries) whatever the
#: island's size.
_BLOCK_SAMPLES = 1 << 14


@dataclass
class SamplingTask:
    """One job's deferred telemetry evaluation.

    ``offsets`` is the job's stratified ``(num_gpus, n)`` draw — the
    only random input — taken from the collector RNG in the epilog, so
    deferral leaves the generator stream untouched.
    """

    job_id: int
    model: JobActivityModel
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


def run_sampling(tasks: list[SamplingTask], sampler: NvidiaSmiSampler) -> list[SamplingResult]:
    """Evaluate every task, in task (= job-completion) order.

    ``sampler`` is the one that drew the tasks' offsets; its cadence
    and cap place the kept dense series.  The results are a pure
    function of ``(tasks, sampler)``.
    """
    from repro.workload.activity import ActivityBatch, JobActivityModel

    for task in tasks:
        if not isinstance(task.model, JobActivityModel):
            raise MonitoringError(
                f"job {task.job_id}: activity model must be a JobActivityModel, "
                f"got {type(task.model).__name__}"
            )
        if task.run_time_s < 0:
            raise MonitoringError(f"job {task.job_id}: negative duration {task.run_time_s}")
        if task.offsets.ndim != 2 or task.offsets.shape[0] != task.model.num_gpus:
            raise MonitoringError(
                f"job {task.job_id}: offsets must have shape "
                f"({task.model.num_gpus}, n), got {task.offsets.shape}"
            )
    results = []
    for task, summary in zip(tasks, _batched_summaries(tasks)):
        series: list[GpuTimeSeries] = []
        if task.keep_series:
            times = sampler.series_times(task.run_time_s)
            metrics = ActivityBatch([task.model]).metrics(times)
            series = [
                GpuTimeSeries(
                    job_id=task.job_id,
                    gpu_index=gpu_index,
                    times_s=times,
                    metrics={name: values[gpu_index] for name, values in metrics.items()},
                )
                for gpu_index in range(task.num_gpus)
            ]
        results.append(SamplingResult(task.job_id, task.num_gpus, summary, series))
    return results


def _batched_summaries(tasks: list[SamplingTask]) -> list[dict[str, np.ndarray]]:
    """Each task's summary, in task order.

    Tasks sharing a stratified sample count ``n`` stack their GPU rows
    into ``(rows, n)`` blocks, and each block is one
    :class:`~repro.workload.activity.ActivityBatch` of its tasks'
    models.  A block's rows hold at most ``_BLOCK_SAMPLES`` samples and
    burst windows together (a larger task is a block of its own), so
    the kernel's working set is bounded by the block, not the island.
    """
    from repro.workload.activity import ActivityBatch

    by_count: dict[int, list[int]] = {}
    for index, task in enumerate(tasks):
        by_count.setdefault(task.offsets.shape[1], []).append(index)
    out: list[dict[str, np.ndarray]] = [{} for _ in tasks]
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
