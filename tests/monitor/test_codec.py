"""Tests for the time-series codec."""

import numpy as np
import pytest

from repro.errors import MonitoringError
from repro.monitor.codec import (
    QUANT_STEP,
    compression_ratio,
    decode_series,
    encode_series,
    load_store,
    save_store,
)
from repro.monitor.timeseries import METRIC_NAMES, GpuTimeSeries, TimeSeriesStore


def make_series(job_id=1, gpu_index=0, n=500, seed=0):
    rng = np.random.default_rng(seed)
    times = np.arange(n) * 0.1
    level = rng.uniform(5, 60)
    metrics = {}
    for name in METRIC_NAMES:
        # piecewise-constant with occasional jumps: nvidia-smi-like
        jumps = rng.random(n) < 0.02
        values = level + np.cumsum(np.where(jumps, rng.normal(0, 5, n), 0.0))
        metrics[name] = np.clip(values, 0.0, 100.0)
    return GpuTimeSeries(job_id, gpu_index, times, metrics)


class TestRoundTrip:
    def test_values_within_quantisation(self):
        series = make_series()
        decoded = decode_series(encode_series(series))
        for name in METRIC_NAMES:
            np.testing.assert_allclose(
                decoded.metrics[name], series.metrics[name], atol=QUANT_STEP / 2 + 1e-9
            )

    def test_times_preserved(self):
        series = make_series()
        decoded = decode_series(encode_series(series))
        np.testing.assert_allclose(decoded.times_s, series.times_s, atol=1e-5)

    def test_identity_metadata(self):
        series = make_series(job_id=42, gpu_index=1)
        decoded = decode_series(encode_series(series))
        assert decoded.job_id == 42
        assert decoded.gpu_index == 1

    def test_empty_series(self):
        empty = GpuTimeSeries(1, 0, np.empty(0), {m: np.empty(0) for m in METRIC_NAMES})
        decoded = decode_series(encode_series(empty))
        assert decoded.num_samples == 0

    def test_version_check(self):
        payload = encode_series(make_series())
        payload["format_version"] = np.asarray([99])
        with pytest.raises(MonitoringError, match="version"):
            decode_series(payload)

    def test_corrupt_lengths_detected(self):
        payload = encode_series(make_series())
        payload["sm_lengths"] = payload["sm_lengths"][:-1]
        with pytest.raises(MonitoringError):
            decode_series(payload)


class TestStoreIO:
    def test_store_round_trip(self, tmp_path):
        store = TimeSeriesStore()
        store.add(make_series(job_id=1, gpu_index=0))
        store.add(make_series(job_id=1, gpu_index=1, seed=1))
        store.add(make_series(job_id=7, seed=2))
        path = save_store(store, tmp_path / "series.npz")
        again = load_store(path)
        assert len(again) == 3
        assert again.job_ids() == [1, 7]
        original = store.get(7, 0)
        decoded = again.get(7, 0)
        np.testing.assert_allclose(
            decoded.metrics["power_w"], original.metrics["power_w"], atol=QUANT_STEP
        )

    def test_many_series_round_trip(self, tmp_path):
        # A few hundred series whose member prefixes nest ("s1_1" is a
        # string prefix of "s1_10" and of "s11_1"), so grouping members by
        # series must split on the separator, not on string prefixes.
        store = TimeSeriesStore()
        for job_id in range(1, 121):
            for gpu_index in (0, 1, 10):
                store.add(
                    make_series(job_id, gpu_index, n=20, seed=job_id * 16 + gpu_index)
                )
        path = save_store(store, tmp_path / "many.npz")
        again = load_store(path)
        assert [(s.job_id, s.gpu_index) for s in again] == [
            (s.job_id, s.gpu_index) for s in store
        ]
        for original in store:
            decoded = again.get(original.job_id, original.gpu_index)
            assert decoded.num_samples == original.num_samples
            for name in METRIC_NAMES:
                np.testing.assert_allclose(
                    decoded.metrics[name], original.metrics[name], atol=QUANT_STEP / 2 + 1e-9
                )

    def test_compression_beats_raw(self, tmp_path):
        store = TimeSeriesStore()
        for i in range(5):
            store.add(make_series(job_id=i, n=2000, seed=i))
        path = save_store(store, tmp_path / "series.npz")
        assert compression_ratio(store, path) > 5.0

    def test_generated_store_round_trips(self, small_dataset, tmp_path):
        path = save_store(small_dataset.timeseries, tmp_path / "ts.npz")
        again = load_store(path)
        assert len(again) == len(small_dataset.timeseries)
        assert compression_ratio(small_dataset.timeseries, path) > 3.0
