"""End-to-end pipeline benchmarks: generation, scheduling, monitoring,
and the session artifact cache."""

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


def test_workload_generation(benchmark):
    def generate():
        return WorkloadGenerator(WorkloadConfig(scale=0.02, seed=1)).generate()

    requests = benchmark(generate)
    assert len(requests) > 500
    best_s = _best_seconds(benchmark)
    if best_s:
        record_bench_stat(
            "workload_generation", rows_per_s=len(requests) / best_s
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


def test_cached_report(tmp_path):
    """Perf gate on the cache path: a warm ``run_figures`` must be >=5x
    a cold one.

    A regression that silently stops hitting the dataset cache (key
    instability, broken load, eager rebuild) collapses the warm/cold
    ratio far below 5 and fails here visibly.
    """
    config = WorkloadConfig(scale=0.01, seed=3)
    cache_dir = tmp_path / "cache"

    start = time.perf_counter()
    cold_session = Session(config, cache_dir=cache_dir)
    cold_results = cold_session.run_figures()
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm_session = Session(config, cache_dir=cache_dir)
    warm_results = warm_session.run_figures()
    warm_s = time.perf_counter() - start

    assert [r.figure_id for r in warm_results] == [r.figure_id for r in cold_results]
    assert cold_session.instrumentation.count("build") == 1
    assert warm_session.instrumentation.count("build") == 0
    assert not warm_session.executed("workload")
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
