"""Tests for series features and idle-phase prediction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.features import (
    IdlePhasePredictor,
    PredictorScore,
    evaluate_predictor,
    predictor_study,
    series_features,
)
from repro.analysis.phases import activity_mask
from repro.errors import AnalysisError
from repro.monitor.timeseries import METRIC_NAMES, GpuTimeSeries
from tests.analysis.test_phases import series_from_sm


class TestSeriesFeatures:
    def test_idle_fraction(self):
        features = series_features(series_from_sm([0.0] * 50 + [20.0] * 50))
        assert features.idle_fraction == pytest.approx(0.5)

    def test_transitions_counted(self):
        sm = ([20.0] * 10 + [0.0] * 10) * 3
        features = series_features(series_from_sm(sm))
        assert features.num_transitions == 5

    def test_periodic_signal_detected(self):
        t = np.arange(512)
        sm = 30.0 + 20.0 * np.sin(2 * np.pi * t / 64.0)
        features = series_features(series_from_sm(sm, step=1.0))
        assert features.dominant_period_s == pytest.approx(64.0, rel=0.1)

    def test_smooth_signal_high_autocorrelation(self):
        t = np.arange(200)
        sm = 30.0 + 20.0 * np.sin(2 * np.pi * t / 100.0)
        features = series_features(series_from_sm(sm))
        assert features.lag1_autocorrelation > 0.9

    def test_regular_runs_negative_burstiness(self):
        sm = ([20.0] * 10 + [0.0] * 10) * 5
        features = series_features(series_from_sm(sm))
        assert features.burstiness < 0.0  # equal-length runs: sigma ~ 0

    def test_too_short_rejected(self):
        with pytest.raises(AnalysisError):
            series_features(series_from_sm([1.0]))


class TestIdlePhasePredictor:
    def test_invalid_params(self):
        with pytest.raises(AnalysisError):
            IdlePhasePredictor(window_s=0.0)
        with pytest.raises(AnalysisError):
            IdlePhasePredictor(persistence_weight=1.5)

    def test_persistent_idle_predicts_idle(self):
        series = series_from_sm([0.0] * 100)
        mask = np.zeros(100, dtype=bool)
        predictor = IdlePhasePredictor()
        assert predictor.idle_probability(series.times_s, mask, 50) == 1.0

    def test_persistent_active_predicts_active(self):
        series = series_from_sm([50.0] * 100)
        mask = np.ones(100, dtype=bool)
        predictor = IdlePhasePredictor()
        assert predictor.idle_probability(series.times_s, mask, 50) == 0.0


class TestEvaluatePredictor:
    def test_constant_series_perfect(self):
        score = evaluate_predictor(series_from_sm([50.0] * 200), horizon_s=10.0)
        assert score.accuracy == 1.0
        assert score.skill == 0.0  # baseline is also perfect

    def test_long_phases_high_accuracy(self):
        sm = [50.0] * 300 + [0.0] * 300
        score = evaluate_predictor(series_from_sm(sm), horizon_s=5.0)
        assert score.accuracy > 0.9

    def test_fast_alternation_defeats_persistence(self):
        # phases shorter than the horizon: persistence mispredicts
        sm = ([50.0] * 3 + [0.0] * 3) * 60
        score = evaluate_predictor(series_from_sm(sm), horizon_s=3.0)
        assert score.accuracy < 0.6

    def test_short_series_rejected(self):
        with pytest.raises(AnalysisError):
            evaluate_predictor(series_from_sm([1.0, 2.0]), horizon_s=100.0)

    def test_invalid_horizon_rejected(self):
        with pytest.raises(AnalysisError):
            evaluate_predictor(series_from_sm([1.0] * 50), horizon_s=0.0)

    def test_zero_stride_rejected(self):
        with pytest.raises(AnalysisError, match="stride"):
            evaluate_predictor(series_from_sm([1.0] * 50), horizon_s=5.0, stride=0)

    def test_negative_stride_rejected(self):
        with pytest.raises(AnalysisError, match="stride"):
            evaluate_predictor(series_from_sm([1.0] * 50), horizon_s=5.0, stride=-1)

    def test_descending_times_rejected(self):
        times = np.arange(50, dtype=float)
        times[[20, 21]] = times[[21, 20]]
        with pytest.raises(AnalysisError, match="job 42"):
            evaluate_predictor(_series(times, np.ones(50, dtype=bool), 42), horizon_s=5.0)


class TestPredictorStudy:
    def test_on_generated_data(self, medium_dataset):
        scores, accuracy, skill = predictor_study(
            medium_dataset.timeseries, horizon_s=60.0, max_jobs=60
        )
        assert len(scores) > 10
        # phases mostly outlast a 60 s horizon, so prediction works --
        # the quantitative basis for the paper's co-location claim
        assert accuracy > 0.8

    def test_empty_store_rejected(self):
        from repro.monitor.timeseries import TimeSeriesStore

        with pytest.raises(AnalysisError):
            predictor_study(TimeSeriesStore())


# ----------------------------------------------------------------------
# Oracle: the per-index replay the vectorized one replaced
# ----------------------------------------------------------------------
def _series(times, mask, job_id=1):
    metrics = {name: np.zeros(len(times)) for name in METRIC_NAMES}
    metrics["sm"] = np.where(mask, 50.0, 0.0)
    return GpuTimeSeries(job_id, 0, np.asarray(times), metrics)


def reference_probability(predictor, times, mask, index):
    """One full-length window mask per prediction."""
    now = times[index]
    window = (times >= now - predictor.window_s) & (times <= now)
    duty_idle = 1.0 - float(mask[window].mean())
    current_idle = 1.0 if not mask[index] else 0.0
    return (
        predictor.persistence_weight * current_idle
        + (1.0 - predictor.persistence_weight) * duty_idle
    )


def reference_score(series, predictor, horizon_s, stride):
    """The per-index replay loop; ``None`` when the series is too short."""
    mask = activity_mask(series)
    times = series.times_s
    step = float(np.median(np.diff(times)))
    offset = max(int(round(horizon_s / step)), 1)
    last = len(times) - offset
    if last < 2:
        return None
    correct = total = idle_truth = 0
    for index in range(0, last, stride):
        predicted_idle = reference_probability(predictor, times, mask, index) >= 0.5
        actual_idle = not mask[index + offset]
        correct += int(predicted_idle == actual_idle)
        idle_truth += int(actual_idle)
        total += 1
    base_rate = idle_truth / total
    return PredictorScore(
        job_id=series.job_id,
        num_predictions=total,
        accuracy=correct / total,
        idle_base_rate=base_rate,
        baseline_accuracy=max(base_rate, 1.0 - base_rate),
    )


@st.composite
def replay_cases(draw):
    n = draw(st.integers(3, 400))
    if draw(st.booleans()):
        step = draw(st.sampled_from([0.1, 0.5, 1.0, 10.0]))
        times = np.arange(n) * step
    else:
        # the sampler's capped grid: a long job squeezed into n samples
        times = np.linspace(0.0, draw(st.floats(n * 0.1, n * 30.0)), n)
        step = float(np.median(np.diff(times)))
    runs = draw(st.lists(st.integers(1, 60), min_size=1, max_size=40))
    states = np.arange(len(runs)) % 2 == int(draw(st.booleans()))
    mask = np.resize(np.repeat(states, runs), n)
    window_s = draw(
        st.one_of(
            st.integers(1, 80).map(lambda k: k * step),
            st.floats(1e-3, 50.0 * step),
        )
    )
    weight = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    horizon_s = draw(st.floats(1e-3, 40.0 * step))
    stride = draw(st.integers(1, 12))
    return times, mask, IdlePhasePredictor(window_s, weight), horizon_s, stride


@given(replay_cases())
@settings(max_examples=300, deadline=None)
def test_vectorized_replay_matches_per_index_loop(case):
    times, mask, predictor, horizon_s, stride = case
    series = _series(times, mask)
    expected = reference_score(series, predictor, horizon_s, stride)
    if expected is None:
        with pytest.raises(AnalysisError):
            evaluate_predictor(series, predictor, horizon_s, stride)
    else:
        assert evaluate_predictor(series, predictor, horizon_s, stride) == expected
    for index in range(len(times)):
        assert predictor.idle_probability(times, mask, index) == reference_probability(
            predictor, times, mask, index
        )
