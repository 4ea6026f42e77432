"""Tests for the user-behavior prediction study."""

import numpy as np
import pytest

from repro.analysis.prediction import (
    STRATEGIES,
    predict_user_behavior,
    predictability_gain,
    strategy_comparison,
)
from repro.errors import AnalysisError
from repro.frame import Table


def job_stream(spec):
    """spec: [(user, submit, runtime, sm), ...]"""
    return Table.from_rows(
        [
            {"user": user, "submit_time_s": submit, "run_time_s": runtime, "sm_mean": sm}
            for user, submit, runtime, sm in spec
        ]
    )


def constant_user(n=20, value=100.0, user="a"):
    return [(user, float(i), value, 50.0) for i in range(n)]


class TestPredictUserBehavior:
    def test_perfectly_regular_user_zero_error(self):
        jobs = job_stream(constant_user())
        report = predict_user_behavior(jobs, strategy="user_mean")
        assert report.median_relative_error == pytest.approx(0.0)
        assert report.within_2x_fraction == 1.0

    def test_warmup_respected(self):
        jobs = job_stream(constant_user(n=10))
        report = predict_user_behavior(jobs, warmup=5)
        # first prediction after 5 prior jobs AND a global history
        assert report.num_predictions == 5

    def test_erratic_user_high_error(self):
        rng = np.random.default_rng(0)
        spec = [("a", float(i), float(rng.lognormal(5, 2)), 10.0) for i in range(60)]
        report = predict_user_behavior(job_stream(spec), strategy="user_last")
        assert report.median_relative_error > 0.5

    def test_last_value_tracks_trend_better_than_mean(self):
        # runtime doubles every job: last-value is off 2x, mean much more
        spec = [("a", float(i), 2.0**i, 10.0) for i in range(12)]
        last = predict_user_behavior(job_stream(spec), strategy="user_last")
        mean = predict_user_behavior(job_stream(spec), strategy="user_mean")
        assert last.mean_log_error < mean.mean_log_error

    def test_all_strategies_run(self):
        jobs = job_stream(constant_user(n=15))
        for strategy in STRATEGIES:
            report = predict_user_behavior(jobs, strategy=strategy)
            assert report.num_predictions > 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(AnalysisError):
            predict_user_behavior(job_stream(constant_user()), strategy="oracle")

    def test_invalid_warmup_rejected(self):
        with pytest.raises(AnalysisError):
            predict_user_behavior(job_stream(constant_user()), warmup=0)

    def test_too_few_jobs_rejected(self):
        with pytest.raises(AnalysisError, match="no predictions"):
            predict_user_behavior(job_stream(constant_user(n=2)))

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            predict_user_behavior(job_stream([]))

    def test_zero_valued_actuals_skipped(self):
        spec = constant_user(n=10) + [("a", 100.0, 200.0, 0.0)]
        report = predict_user_behavior(job_stream(spec), metric="sm_mean")
        assert report.num_predictions == 7  # the zero-SM job is not scored


class TestComparison:
    def test_rows_cover_grid(self):
        jobs = job_stream(constant_user(n=15))
        table = strategy_comparison(jobs, metrics=("run_time_s",))
        assert table.num_rows == len(STRATEGIES)

    def test_gain_for_predictable_population(self):
        # two users with very different but internally constant runtimes:
        # per-user strategies crush the global baseline
        spec = constant_user(n=15, value=10.0, user="a") + constant_user(
            n=15, value=1000.0, user="b"
        )
        table = strategy_comparison(job_stream(spec), metrics=("run_time_s",))
        assert predictability_gain(table, "run_time_s") > 0.8

    def test_gain_missing_metric_rejected(self):
        jobs = job_stream(constant_user(n=15))
        table = strategy_comparison(jobs, metrics=("run_time_s",))
        with pytest.raises(AnalysisError):
            predictability_gain(table, "sm_mean")


class TestOnGeneratedData:
    @pytest.fixture(scope="class")
    def comparison(self, gpu_jobs):
        return strategy_comparison(gpu_jobs, metrics=("run_time_s", "sm_mean"))

    def test_runtime_hard_to_predict(self, comparison):
        """The paper's conclusion: user history barely helps runtime."""
        gain = predictability_gain(comparison, "run_time_s")
        assert gain < 0.5

    def test_runtime_errors_large(self, comparison):
        rows = [
            r
            for r in comparison.iter_rows()
            if r["metric"] == "run_time_s" and r["strategy"] == "user_mean"
        ]
        assert rows[0]["median_relative_error"] > 0.4

    def test_many_predictions_made(self, comparison):
        assert all(r["num_predictions"] > 500 for r in comparison.iter_rows())


def loop_predict(gpu_jobs, metric, strategy, warmup=3):
    """The one-strategy replay ``strategy_comparison`` used to run once
    per (metric, strategy) pair, kept verbatim as the oracle."""
    import bisect
    import math
    from collections import defaultdict

    from repro.analysis.prediction import PredictionReport, _History
    from repro.analysis.streaming import iter_key_sorted_chunks

    stream = (
        pair
        for chunk in iter_key_sorted_chunks(gpu_jobs, "submit_time_s")
        for pair in zip(list(chunk["user"]), np.asarray(chunk[metric], dtype=float))
    )
    histories = defaultdict(_History)
    seen_sorted = []
    rel_errors = []
    log_errors = []
    within_2x = 0

    def running_median():
        mid = len(seen_sorted) // 2
        if len(seen_sorted) % 2:
            return seen_sorted[mid]
        return 0.5 * (seen_sorted[mid - 1] + seen_sorted[mid])

    for user, actual in stream:
        history = histories[user]
        if actual > 0 and history.count >= warmup and seen_sorted:
            prediction = history.predict(strategy, running_median())
            if prediction > 0:
                rel_errors.append(abs(prediction - actual) / actual)
                ratio = prediction / actual
                log_errors.append(abs(math.log(ratio)))
                if 0.5 <= ratio <= 2.0:
                    within_2x += 1
        history.update(float(actual))
        bisect.insort(seen_sorted, float(actual))

    return PredictionReport(
        metric=metric,
        strategy=strategy,
        num_predictions=len(rel_errors),
        median_relative_error=float(np.median(rel_errors)),
        mean_log_error=float(np.mean(log_errors)),
        within_2x_fraction=within_2x / len(rel_errors),
    )


@pytest.mark.parametrize("chunks", [1, 3])
def test_one_replay_per_metric_matches_the_per_strategy_loop(chunks):
    """Every (metric, strategy) row of ``strategy_comparison`` — one
    replay per metric — equals its own single-strategy replay, on a
    materialized table and on a 3-chunk stream.  Zero-valued SM
    actuals make ``user_last`` skip predictions the others score, so
    the strategies' sample sets differ."""
    rng = np.random.default_rng(11)
    spec = [
        (
            f"u{rng.integers(5)}",
            float(i),
            float(rng.lognormal(6, 1.5)),
            float(rng.uniform(1, 100)) if rng.random() > 0.2 else 0.0,
        )
        for i in range(150)
    ]
    jobs = job_stream(spec)
    source = jobs if chunks == 1 else jobs.to_chunked(len(spec) // chunks)
    assert len(list(source.chunks())) == chunks

    rows = list(strategy_comparison(source).iter_rows())
    assert [(r["metric"], r["strategy"]) for r in rows] == [
        (metric, strategy)
        for metric in ("run_time_s", "sm_mean")
        for strategy in STRATEGIES
    ]
    counts = set()
    for row in rows:
        expected = loop_predict(source, row["metric"], row["strategy"])
        assert predict_user_behavior(source, row["metric"], row["strategy"]) == expected
        assert row == {
            "metric": expected.metric,
            "strategy": expected.strategy,
            "median_relative_error": expected.median_relative_error,
            "mean_log_error": expected.mean_log_error,
            "within_2x_fraction": expected.within_2x_fraction,
            "num_predictions": expected.num_predictions,
        }
        counts.add((row["metric"], row["num_predictions"]))
    assert len(counts) > 2, "every strategy scored the same sample set"
