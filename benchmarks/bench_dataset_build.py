"""Cold-dataset-build perf gates: deferred batched sampling.

The monitor epilog used to evaluate each job's activity model one GPU
at a time; the deferred sampling path evaluates a whole island's task
list as one batch (every GPU of a job in one ``metrics_at_all`` call
outside it) and can shard the task queue across a process pool.
These benchmarks hold the batched path to the speedup that justified
the refactor and pin the contract that makes deferral safe at all:
serial and parallel flushes produce bit-for-bit the same
dataset.

The ``>=1.5x`` gate is deliberately below the measured ratio (1.7-2.2x
on a 2-vCPU x86 machine, where both sides also pay one ``analytic_max``
per GPU, a one-model batch each) so it catches a silent fall-back to
the per-GPU loop — which measures ~1.0x — without flaking on the
slowest machines.

The island gate holds deferred sampling to its batch: one
``run_sampling`` call over a mostly single-GPU island (paper_cold's
island at seed 20220214 has 865 one-GPU jobs of 1,030) must beat one
call per task by ``>=2.5x`` with byte-identical summaries.  It
measured ~3.4x on a 2-vCPU x86 machine; a batch that silently fell
back to per-task evaluation measures ~1x.

The phase-schedule gate holds the generator's per-job schedule work
(``active_time_s`` plus burst placement for five metrics) to array
cost: 100x more phase boundaries may cost at most 20x the time.  The
array spans measure ~7-10x; expanding the schedule into a Python list
of intervals on every call measured ~50-60x.
"""

import time

import numpy as np

from repro.bench import record_bench_stat
from repro.monitor.nvidia_smi import NvidiaSmiSampler
from repro.monitor.sampling import SamplingPlan, SamplingTask, run_sampling
from repro.pipeline import Session
from repro.workload.activity import (
    JobActivityModel,
    PhaseSchedule,
    PowerModel,
    build_metric_process,
)
from repro.workload.generator import WorkloadConfig

NUM_JOBS = 48
NUM_GPUS = 16
SUMMARY_SAMPLES = 256
ISLAND_JOBS = 240
#: GPUs per job in the island gate, and how often each occurs.
ISLAND_GPUS = ([1, 2, 4, 8], [0.84, 0.14, 0.015, 0.005])


def _make_model(job_id: int, num_gpus: int, rng: np.random.Generator) -> JobActivityModel:
    duration = float(rng.uniform(600.0, 3600.0))
    schedule = PhaseSchedule.generate(rng, duration, 0.7, 60.0, 1.69, 1.26)
    processes = {
        name: build_metric_process(
            rng,
            level=float(rng.uniform(5, 95)),
            noise_cov=float(rng.uniform(0, 0.4)),
            burst_level=float(rng.uniform(50, 100)),
            schedule=schedule,
            num_bursts=int(rng.integers(0, 4)),
        )
        for name in ("sm", "mem_bw", "mem_size", "pcie_tx", "pcie_rx")
    }
    return JobActivityModel(
        job_id,
        num_gpus,
        duration,
        schedule,
        processes,
        rng.uniform(0.3, 1.0, num_gpus),
        PowerModel(25.0, 1.25, 0.4, 0.03, 0.2),
    )


class _PerGpuView:
    """The same model with ``metrics_at_all`` hidden — forces the
    sampler onto its per-GPU ``metrics_at`` reference loop."""

    def __init__(self, model: JobActivityModel) -> None:
        self._model = model

    @property
    def num_gpus(self) -> int:
        return self._model.num_gpus

    def metrics_at(self, times_s, gpu_index):
        return self._model.metrics_at(times_s, gpu_index)

    def analytic_max(self, gpu_index):
        return self._model.analytic_max(gpu_index)


def _best_of(fn, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_batched_summaries_faster():
    """Batched ``metrics_at_all`` summaries: >=1.5x over the per-GPU
    loop on a multi-GPU-heavy workload, with bit-identical output."""
    rng = np.random.default_rng(20220402)
    sampler = NvidiaSmiSampler(0.1, SUMMARY_SAMPLES)
    jobs = []
    for job_id in range(NUM_JOBS):
        model = _make_model(job_id, NUM_GPUS, rng)
        offsets = sampler.draw_offsets(model.duration_s, NUM_GPUS, rng)
        jobs.append((model, offsets))

    def batched():
        return [
            sampler.summarize_with_offsets(model, model.duration_s, offsets)
            for model, offsets in jobs
        ]

    def per_gpu():
        return [
            sampler.summarize_with_offsets(_PerGpuView(model), model.duration_s, offsets)
            for model, offsets in jobs
        ]

    fast_s, fast = _best_of(batched)
    naive_s, naive = _best_of(per_gpu)
    record_bench_stat(
        "batched_summaries",
        rows_per_s=NUM_JOBS * NUM_GPUS * SUMMARY_SAMPLES / fast_s,
        speedup_x=naive_s / fast_s,
    )
    for fast_job, naive_job in zip(fast, naive):
        assert fast_job.keys() == naive_job.keys()
        for name, values in fast_job.items():
            assert np.array_equal(values, naive_job[name]), name
    assert naive_s >= 1.5 * fast_s, (
        f"summaries[{NUM_JOBS} jobs x {NUM_GPUS} GPUs]: batched "
        f"{fast_s * 1e3:.1f}ms vs per-GPU {naive_s * 1e3:.1f}ms "
        f"({naive_s / fast_s:.1f}x < 1.5x)"
    )


def test_island_sampling_faster():
    """One ``run_sampling`` call over a mostly single-GPU island: >=2.5x
    over one call per task, with byte-identical summaries."""
    rng = np.random.default_rng(20220214)
    sampler = NvidiaSmiSampler(0.1, SUMMARY_SAMPLES)
    tasks = []
    for job_id in range(ISLAND_JOBS):
        num_gpus = int(rng.choice(ISLAND_GPUS[0], p=ISLAND_GPUS[1]))
        model = _make_model(job_id, num_gpus, rng)
        offsets = sampler.draw_offsets(model.duration_s, num_gpus, rng)
        tasks.append(SamplingTask(job_id, model, model.duration_s, offsets, keep_series=False))
    plan = SamplingPlan()

    def island():
        return run_sampling(tasks, plan)

    def per_task():
        return [result for task in tasks for result in run_sampling([task], plan)]

    fast_s, fast = _best_of(island)
    naive_s, naive = _best_of(per_task)
    rows = sum(task.num_gpus for task in tasks)
    record_bench_stat(
        "island_sampling", rows_per_s=rows / fast_s, speedup_x=naive_s / fast_s
    )
    for fast_job, naive_job in zip(fast, naive):
        assert fast_job.summary.keys() == naive_job.summary.keys()
        for name, values in fast_job.summary.items():
            assert values.tobytes() == naive_job.summary[name].tobytes(), name
    assert naive_s >= 2.5 * fast_s, (
        f"island[{ISLAND_JOBS} jobs, {rows} GPU rows]: one call "
        f"{fast_s * 1e3:.1f}ms vs per task {naive_s * 1e3:.1f}ms "
        f"({naive_s / fast_s:.1f}x < 2.5x)"
    )


def test_parallel_build_is_bit_identical():
    """Serial and parallel deferred sampling build the same dataset.

    This is the contract that lets ``--workers`` touch a cold build at
    all: the process pool only shards deterministic evaluation, so
    every table and every dense series must match the serial build
    exactly.
    """
    serial = Session(WorkloadConfig(scale=0.01, seed=7), workers=1).dataset()
    parallel = Session(WorkloadConfig(scale=0.01, seed=7), workers=2).dataset()
    assert serial.jobs.to_dict() == parallel.jobs.to_dict()
    assert serial.gpu_jobs.to_dict() == parallel.gpu_jobs.to_dict()
    assert serial.per_gpu.to_dict() == parallel.per_gpu.to_dict()
    assert len(serial.timeseries) == len(parallel.timeseries)
    for series in serial.timeseries:
        twin = parallel.timeseries.get(series.job_id, series.gpu_index)
        assert np.array_equal(series.times_s, twin.times_s)
        for name, values in series.metrics.items():
            assert np.array_equal(values, twin.metrics[name]), name


def _schedule_work_s(num_boundaries: int) -> float:
    """Best-of-5 seconds for ``active_time_s`` plus five
    ``build_metric_process`` calls on a ``num_boundaries`` schedule."""
    schedule = PhaseSchedule(
        np.arange(1.0, num_boundaries + 1.0), True, num_boundaries + 1.5
    )

    def work():
        schedule.active_time_s()
        rng = np.random.default_rng(20220214)
        for _ in range(5):
            build_metric_process(rng, 30.0, 0.1, 90.0, schedule, num_bursts=4)

    best, _ = _best_of(work, repeats=5)
    return best


def test_phase_schedule_work_is_array_cost():
    """Gate: 100x the phase boundaries costs at most 20x the time."""
    small_s = _schedule_work_s(200)
    large_s = _schedule_work_s(20_000)
    growth = large_s / small_s
    record_bench_stat(
        "phase_schedule",
        small_ms=round(small_s * 1e3, 3),
        large_ms=round(large_s * 1e3, 3),
        growth_x=round(growth, 2),
        rows_per_s=round(20_000 / large_s, 1),
    )
    assert growth <= 20.0, (
        f"schedule work grew {growth:.1f}x for 100x the boundaries "
        f"({small_s * 1e3:.2f} -> {large_s * 1e3:.2f} ms); expected <= 20x"
    )
