"""Sec. III follow-on: predicting idle GPU phases for co-location.

Besides the study on the benchmark dataset, a scaling gate holds the
replay in :func:`repro.analysis.features.evaluate_predictor` to its
O(n log n) cost: on synthetic 100 ms series of 50k and 200k samples the
best-of-5 time may grow at most 8x for the 4x longer series (~4x
measured, 1.5 -> 6.5 ms on a 2-vCPU x86 machine).  A replay that
rebuilds a full-length window mask per prediction grows ~16x and fails
it.
"""

import time

import numpy as np

from repro.analysis.features import evaluate_predictor, predictor_study
from repro.bench import record_bench_stat
from repro.monitor.timeseries import METRIC_NAMES, GpuTimeSeries

STEP_S = 0.1
SMALL, LARGE = 50_000, 200_000
MAX_GROWTH_X = 8.0


def test_idle_phase_prediction(benchmark, dataset):
    scores, accuracy, skill = benchmark(
        predictor_study, dataset.timeseries, 60.0, 100
    )
    # phases mostly outlast a one-minute horizon: prediction is viable
    assert accuracy > 0.75
    assert len(scores) > 5


def _phased_series(num_samples: int) -> GpuTimeSeries:
    """Alternating active/idle phases of 5 s to 5 min at 100 ms."""
    rng = np.random.default_rng(20220214)
    runs = rng.integers(50, 3000, size=num_samples // 50 + 1)
    states = np.arange(len(runs)) % 2 == 0
    mask = np.repeat(states, runs)[:num_samples]
    metrics = {name: np.zeros(num_samples) for name in METRIC_NAMES}
    metrics["sm"] = np.where(mask, 60.0, 0.0)
    return GpuTimeSeries(1, 0, np.arange(num_samples) * STEP_S, metrics)


def _best_of(fn, repeats=5):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_replay_scales_n_log_n():
    small, large = _phased_series(SMALL), _phased_series(LARGE)
    small_s, _ = _best_of(lambda: evaluate_predictor(small))
    large_s, score = _best_of(lambda: evaluate_predictor(large))
    record_bench_stat(
        "phase_prediction",
        small_ms=small_s * 1e3,
        large_ms=large_s * 1e3,
        growth_x=large_s / small_s,
        rows_per_s=LARGE / large_s,
    )
    horizon_samples = round(60.0 / STEP_S)  # evaluate_predictor's default horizon
    assert score.num_predictions == len(range(0, LARGE - horizon_samples, 5))
    assert large_s <= MAX_GROWTH_X * small_s, (
        f"evaluate_predictor: {SMALL} samples {small_s * 1e3:.2f}ms, {LARGE} "
        f"samples {large_s * 1e3:.2f}ms ({large_s / small_s:.1f}x > {MAX_GROWTH_X}x)"
    )
