"""End-to-end pipeline benchmarks: generation, scheduling, monitoring,
and the session artifact cache."""

import gc
import time

from repro.bench import record_bench_stat
from repro.dataset import generate_dataset
from repro.pipeline import Session
from repro.slurm.scheduler import SlurmSimulator
from repro.cluster.spec import supercloud_spec
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


def _best_seconds(benchmark) -> float | None:
    """Fastest measured round of a pytest-benchmark run, if available."""
    try:
        return float(benchmark.stats.stats.min)
    except AttributeError:
        return None


def _best_of(fn, repeats=3):
    """Fastest of ``repeats`` timed calls, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _generate(cohorts=1):
    return WorkloadGenerator(WorkloadConfig(scale=0.02, seed=1, cohorts=cohorts)).generate()


def test_workload_generation(benchmark):
    """Jobs generated per second on the single stream (``cohorts=1``)
    and on the spawn-keyed cohort streams a two-island build draws."""
    requests = benchmark(_generate)
    assert len(requests) > 500
    cohort_s, cohort_requests = _best_of(lambda: _generate(cohorts=2))
    assert len(cohort_requests) == len(requests)
    best_s = _best_seconds(benchmark)
    if best_s:
        record_bench_stat(
            "workload_generation",
            rows_per_s=len(requests) / best_s,
            cohort_rows_per_s=len(cohort_requests) / cohort_s,
        )


def test_scheduler_simulation(benchmark):
    config = WorkloadConfig(scale=0.02, seed=1)
    requests = WorkloadGenerator(config).generate()

    def simulate():
        # jobs carry no monitoring here: pure scheduler throughput
        return SlurmSimulator(supercloud_spec(config.scaled_nodes)).run(list(requests))

    result = benchmark(simulate)
    assert len(result.records) == len(requests)
    best_s = _best_seconds(benchmark)
    if best_s:
        record_bench_stat(
            "scheduler_simulation", rows_per_s=len(result.records) / best_s
        )


def test_full_dataset_pipeline(benchmark):
    def build():
        return generate_dataset(WorkloadConfig(scale=0.01, seed=2))

    dataset = benchmark(build)
    assert dataset.gpu_jobs.num_rows > 100
    best_s = _best_seconds(benchmark)
    if best_s:
        from repro.obs.runtime import peak_rss_bytes

        record_bench_stat(
            "full_dataset_pipeline",
            rows_per_s=dataset.jobs.num_rows / best_s,
            runner_peak_rss_bytes=peak_rss_bytes(),
        )


def _timed_from_frozen_heap(fn):
    """``(seconds, fn())``, timed from a collected, frozen heap.

    The cyclic GC then never walks what earlier code left on the heap
    (an earlier suite in the same pytest process, or a session released
    just before), so ``fn`` pays for its own objects only — as it does
    in a fresh ``repro report`` process.
    """
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        result = fn()
        return time.perf_counter() - start, result
    finally:
        gc.unfreeze()


def test_cached_report(tmp_path):
    """Perf gate on the cache path: a warm ``run_figures`` must be >=5x
    a cold one.

    A regression that silently stops hitting the dataset cache (key
    instability, broken load, eager rebuild) collapses the warm/cold
    ratio far below 5 and fails here visibly.  Each side runs in a
    session released before the other is timed, from a collected,
    frozen heap (:func:`_timed_from_frozen_heap`).
    """
    config = WorkloadConfig(scale=0.01, seed=3)
    cache_dir = tmp_path / "cache"

    def report():
        session = Session(config, cache_dir=cache_dir)
        ids = [r.figure_id for r in session.run_figures()]
        return ids, session.instrumentation.count("build"), session.executed("workload")

    cold_s, (cold_ids, cold_builds, _) = _timed_from_frozen_heap(report)
    warm_s, (warm_ids, warm_builds, warm_built) = _timed_from_frozen_heap(report)

    assert warm_ids == cold_ids
    assert cold_builds == 1
    assert warm_builds == 0
    assert not warm_built
    record_bench_stat("cached_report", speedup_x=round(cold_s / warm_s, 2))
    assert warm_s * 5 <= cold_s, (
        f"warm run_figures took {warm_s:.2f}s vs cold {cold_s:.2f}s (< 5x speedup)"
    )

    # The entry's cost per file, from the cache spans: bytes on disk and
    # the seconds a fresh session's load spends on each file.
    loader = Session(config, cache_dir=cache_dir)
    loader.dataset()
    spans = [span for span in loader.tracer.finished() if span.name == "cache.load"]
    assert len(spans) == 6
    stats = {}
    for span in spans:
        stem = span.attrs["file"].replace(".", "_")
        stats[f"{stem}_entry_bytes"] = span.attrs["bytes"]
        stats[f"{stem}_load_s"] = round(span.duration_us / 1e6, 4)
    record_bench_stat("cache_entry", **stats)
