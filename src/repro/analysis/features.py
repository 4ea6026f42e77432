"""Time-series features and idle-phase prediction.

The paper's Sec. III takeaway asks for "online architectural tools
that can predict future idle GPU phases ... for more effective
co-location".  This module implements the building blocks and an
evaluation harness on the dense time-series subset:

* :func:`series_features` — per-job features of the sampled telemetry
  (burstiness, dominant period via FFT, lag-1 autocorrelation, idle
  ratio);
* :class:`IdlePhasePredictor` — an online predictor of "will the GPU
  be idle ``horizon`` seconds from now", using the recent activity
  duty cycle and the current phase's age vs the job's own interval
  history;
* :func:`evaluate_predictor` — replay a series and score the
  predictions against the ground truth that unfolds.

The replay is one vectorized pass over the series' ascending times:
``np.searchsorted`` bounds every prediction's look-back window and one
prefix sum of the activity mask counts its active samples, so scoring
a series of ``n`` samples costs O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.phases import activity_mask
from repro.errors import AnalysisError
from repro.monitor.timeseries import GpuTimeSeries


@dataclass(frozen=True)
class SeriesFeatures:
    """Summary features of one job's telemetry."""

    job_id: int
    idle_fraction: float
    lag1_autocorrelation: float
    dominant_period_s: float
    burstiness: float  # (sigma - mu) / (sigma + mu) of active-run lengths
    num_transitions: int


def _autocorrelation(values: np.ndarray, lag: int = 1) -> float:
    if len(values) <= lag + 1:
        return float("nan")
    a = values[:-lag] - values[:-lag].mean()
    b = values[lag:] - values[lag:].mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0:
        return 0.0
    return float((a * b).sum() / denom)


def _dominant_period(values: np.ndarray, step_s: float) -> float:
    """Period of the strongest non-DC spectral component."""
    if len(values) < 8:
        return float("nan")
    centered = values - values.mean()
    spectrum = np.abs(np.fft.rfft(centered))
    if len(spectrum) < 3:
        return float("nan")
    peak = 1 + int(np.argmax(spectrum[1:]))
    frequency = peak / (len(values) * step_s)
    return 1.0 / frequency if frequency > 0 else float("nan")


def _run_lengths(mask: np.ndarray) -> np.ndarray:
    if len(mask) == 0:
        return np.empty(0)
    change = np.nonzero(np.diff(mask.astype(np.int8)))[0]
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change, [len(mask) - 1]))
    lengths = ends - starts + 1
    return lengths[mask[starts]]


def series_features(series: GpuTimeSeries) -> SeriesFeatures:
    """Extract the feature vector of one series."""
    if series.num_samples < 2:
        raise AnalysisError(f"series for job {series.job_id} too short")
    mask = activity_mask(series)
    sm = series.metric("sm")
    step = float(np.median(np.diff(series.times_s)))
    active_runs = _run_lengths(mask).astype(float)
    if active_runs.size:
        mu, sigma = active_runs.mean(), active_runs.std()
        burstiness = float((sigma - mu) / (sigma + mu)) if (sigma + mu) > 0 else -1.0
    else:
        burstiness = float("nan")
    return SeriesFeatures(
        job_id=series.job_id,
        idle_fraction=float(1.0 - mask.mean()),
        lag1_autocorrelation=_autocorrelation(sm),
        dominant_period_s=_dominant_period(sm, step),
        burstiness=burstiness,
        num_transitions=int(np.abs(np.diff(mask.astype(np.int8))).sum()),
    )


class IdlePhasePredictor:
    """Online prediction of near-future GPU idleness.

    At each sample the predictor sees only the past and answers: will
    the GPU be idle ``horizon_s`` from now?  The estimate combines the
    recent duty cycle (activity fraction over a sliding window) with a
    persistence prior: phases outlast the horizon far more often than
    not, so the current state carries most of the signal — exactly why
    the paper judges co-location feasible despite irregular phases.
    """

    def __init__(self, window_s: float = 300.0, persistence_weight: float = 0.7) -> None:
        if window_s <= 0:
            raise AnalysisError("window must be positive")
        if not 0.0 <= persistence_weight <= 1.0:
            raise AnalysisError("persistence weight must be in [0, 1]")
        self.window_s = window_s
        self.persistence_weight = persistence_weight

    def idle_probabilities(
        self, times_s: np.ndarray, mask: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """P(idle at times[i] + horizon) from samples [0..i], for every
        ``i`` in ``indices``; ``times_s`` must be ascending.

        The window of ``i`` is every sample in ``[times[i] - window,
        times[i]]``: a binary search finds its start, its end is ``i``
        unless times tie (then a second search finds it), and a prefix
        sum of ``mask`` counts its active samples.
        """
        indices = np.asarray(indices)
        now = times_s[indices]
        lo = np.searchsorted(times_s, now - self.window_s, side="left")
        if np.all(times_s[1:] > times_s[:-1]):
            # no tied times: the window ends at sample i itself
            hi = indices % len(times_s) + 1
        else:
            hi = np.searchsorted(times_s, now, side="right")
        active = np.zeros(len(mask) + 1, dtype=np.int64)
        np.cumsum(mask, dtype=np.int64, out=active[1:])
        duty_idle = 1.0 - (active[hi] - active[lo]) / (hi - lo)
        current_idle = np.where(mask[indices], 0.0, 1.0)
        return (
            self.persistence_weight * current_idle
            + (1.0 - self.persistence_weight) * duty_idle
        )

    def idle_probability(
        self, times_s: np.ndarray, mask: np.ndarray, index: int
    ) -> float:
        """P(idle at times[index] + horizon) from samples [0..index]."""
        return float(self.idle_probabilities(times_s, mask, [index])[0])


@dataclass(frozen=True)
class PredictorScore:
    """Accuracy of idle-phase prediction on one series."""

    job_id: int
    num_predictions: int
    accuracy: float
    idle_base_rate: float
    #: accuracy of always predicting the majority state
    baseline_accuracy: float

    @property
    def skill(self) -> float:
        """Improvement over the majority-state baseline (can be <= 0)."""
        if self.baseline_accuracy >= 1.0:
            return 0.0
        return (self.accuracy - self.baseline_accuracy) / (1.0 - self.baseline_accuracy)


def evaluate_predictor(
    series: GpuTimeSeries,
    predictor: IdlePhasePredictor | None = None,
    horizon_s: float = 60.0,
    stride: int = 5,
) -> PredictorScore:
    """Replay one series and score the predictor causally."""
    predictor = predictor or IdlePhasePredictor()
    if horizon_s <= 0:
        raise AnalysisError("horizon must be positive")
    if stride < 1:
        raise AnalysisError(f"stride must be >= 1, got {stride}")
    mask = activity_mask(series)
    times = series.times_s
    steps = np.diff(times)
    if (steps < 0).any():
        raise AnalysisError(f"series for job {series.job_id} has descending times")
    step = float(np.median(steps)) if len(times) > 1 else 1.0
    offset = max(int(round(horizon_s / step)), 1)
    last = len(times) - offset
    if last < 2:
        raise AnalysisError(
            f"series for job {series.job_id} shorter than the prediction horizon"
        )
    indices = np.arange(0, last, stride)
    predicted_idle = predictor.idle_probabilities(times, mask, indices) >= 0.5
    actual_idle = ~mask[indices + offset]
    total = len(indices)
    correct = int(np.count_nonzero(predicted_idle == actual_idle))
    base_rate = int(np.count_nonzero(actual_idle)) / total
    return PredictorScore(
        job_id=series.job_id,
        num_predictions=total,
        accuracy=correct / total,
        idle_base_rate=base_rate,
        baseline_accuracy=max(base_rate, 1.0 - base_rate),
    )


def predictor_study(store, horizon_s: float = 60.0, max_jobs: int = 200):
    """Score the predictor across a time-series store.

    Returns ``(scores, mean_accuracy, mean_skill)``; jobs shorter than
    the horizon are skipped.
    """
    scores = []
    for job_id in store.job_ids()[:max_jobs]:
        best = max(
            store.series_for_job(job_id), key=lambda s: float(s.metric("sm").mean())
        )
        try:
            scores.append(evaluate_predictor(best, horizon_s=horizon_s))
        except AnalysisError:
            continue
    if not scores:
        raise AnalysisError("no scorable series in the store")
    accuracy = float(np.mean([s.accuracy for s in scores]))
    skill = float(np.mean([s.skill for s in scores]))
    return scores, accuracy, skill
