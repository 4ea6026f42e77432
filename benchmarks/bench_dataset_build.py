"""Cold-dataset-build perf gates: deferred batched sampling.

The deferred sampling path evaluates a whole island's task list as
one batch, in the process that hosts the island.

The island gate holds deferred sampling to its batch: one
``run_sampling`` call over a mostly single-GPU island the size of
paper_cold's (865 one-GPU jobs of 1,030 at seed 20220214) must beat
one call per task by ``>=2.5x`` with byte-identical summaries.  The
two sides run in alternating pairs, so both see the same machine, and
each keeps its best of five (~0.35 s against ~1.1 s on a 2-vCPU x86
machine).  A batch that silently fell back to per-task evaluation
measures ~1x.

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
from repro.monitor.sampling import SamplingTask, run_sampling
from repro.workload.activity import (
    JobActivityModel,
    PhaseSchedule,
    PowerModel,
    build_metric_process,
)

SUMMARY_SAMPLES = 256
ISLAND_JOBS = 1030
#: Alternating (batch, per-task) timing pairs; each side keeps its best.
ISLAND_PAIRS = 5
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


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _best_of(fn, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        seconds, result = _timed(fn)
        best = min(best, seconds)
    return best, result


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

    def island():
        return run_sampling(tasks, sampler)

    def per_task():
        return [result for task in tasks for result in run_sampling([task], sampler)]

    fast_s = naive_s = float("inf")
    for _ in range(ISLAND_PAIRS):
        seconds, fast = _timed(island)
        fast_s = min(fast_s, seconds)
        seconds, naive = _timed(per_task)
        naive_s = min(naive_s, seconds)
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
