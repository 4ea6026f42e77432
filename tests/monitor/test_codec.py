"""Tests for the cache's time-series file (``save_store``/``load_store``).

The store is one frame-codec spill file.  The encoder it replaced (a
per-series quantise+delta+RLE payload under ``<prefix>/<field>`` npz
members, format 1) is kept below as the oracle: every store decodes
bit-identically through both, in values, dtypes and order.
"""

import zipfile

import numpy as np
import pytest

from repro.errors import MonitoringError
from repro.frame.codec import rle_decode, rle_encode, write_spill_file
from repro.monitor.codec import QUANT_STEP, compression_ratio, load_store, save_store
from repro.monitor.timeseries import METRIC_NAMES, GpuTimeSeries, TimeSeriesStore


def oracle_encode_series(series):
    """The format-1 encoder, verbatim."""
    payload = {
        "format_version": np.asarray([1]),
        "job_id": np.asarray([series.job_id]),
        "gpu_index": np.asarray([series.gpu_index]),
        "num_samples": np.asarray([series.num_samples]),
    }
    if series.num_samples:
        payload["t0"] = np.asarray([series.times_s[0]])
        steps = np.diff(series.times_s)
        payload["steps_us"] = np.round(steps * 1e6).astype(np.int64)
    else:
        payload["t0"] = np.asarray([0.0])
        payload["steps_us"] = np.empty(0, dtype=np.int64)
    for name in METRIC_NAMES:
        quantised = np.round(series.metrics[name] / QUANT_STEP).astype(np.int32)
        deltas = np.diff(quantised, prepend=np.int32(0)) if quantised.size else quantised
        run_values, run_lengths = rle_encode(deltas)
        payload[f"{name}_values"] = run_values
        payload[f"{name}_lengths"] = run_lengths
    return payload


def oracle_decode_series(payload):
    """The format-1 decoder, without its corruption checks."""
    n = int(payload["num_samples"][0])
    if n:
        steps = payload["steps_us"].astype(float) / 1e6
        times = float(payload["t0"][0]) + np.concatenate(([0.0], np.cumsum(steps)))
    else:
        times = np.empty(0)
    metrics = {}
    for name in METRIC_NAMES:
        deltas = rle_decode(payload[f"{name}_values"], payload[f"{name}_lengths"])
        metrics[name] = np.cumsum(deltas).astype(float) * QUANT_STEP
    return GpuTimeSeries(
        job_id=int(payload["job_id"][0]),
        gpu_index=int(payload["gpu_index"][0]),
        times_s=times,
        metrics=metrics,
    )


def oracle_save_store(store, path):
    """The format-1 store writer, verbatim."""
    bundle, keys = {}, []
    for series in store:
        prefix = f"s{series.job_id}_{series.gpu_index}"
        keys.append(prefix)
        for name, array in oracle_encode_series(series).items():
            bundle[f"{prefix}/{name}"] = array
    bundle["__keys__"] = np.asarray(keys)
    np.savez_compressed(path, **bundle)
    return path


def oracle_load_store(path):
    """The format-1 store reader, without its error wrapping."""
    store = TimeSeriesStore()
    with np.load(path, allow_pickle=False) as data:
        members = {}
        for name in data.files:
            prefix, slash, _ = name.partition("/")
            if slash:
                members.setdefault(prefix, []).append(name)
        for prefix in (str(k) for k in data["__keys__"]):
            payload = {name[len(prefix) + 1 :]: data[name] for name in members[prefix]}
            store.add(oracle_decode_series(payload))
    return store


def assert_stores_identical(ours, theirs):
    """Equal values, dtypes and iteration order."""
    ours, theirs = list(ours), list(theirs)
    assert [(s.job_id, s.gpu_index) for s in ours] == [
        (s.job_id, s.gpu_index) for s in theirs
    ]
    for mine, other in zip(ours, theirs):
        assert mine.times_s.dtype == other.times_s.dtype
        assert np.array_equal(mine.times_s, other.times_s)
        assert list(mine.metrics) == list(other.metrics)
        for name, values in mine.metrics.items():
            assert values.dtype == other.metrics[name].dtype, name
            assert np.array_equal(values, other.metrics[name]), name


def round_trip(store, tmp_path):
    """``(ours, oracle)`` decodes of ``store``."""
    ours = load_store(save_store(store, tmp_path / "new.npz"))
    return ours, oracle_load_store(oracle_save_store(store, tmp_path / "old.npz"))


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


def one_series_store(series):
    store = TimeSeriesStore()
    store.add(series)
    return store


class TestRoundTrip:
    def test_values_within_quantisation(self, tmp_path):
        series = make_series()
        decoded = load_store(save_store(one_series_store(series), tmp_path / "s.npz"))
        for name in METRIC_NAMES:
            np.testing.assert_allclose(
                decoded.get(1, 0).metrics[name],
                series.metrics[name],
                atol=QUANT_STEP / 2 + 1e-9,
            )

    def test_times_preserved(self, tmp_path):
        series = make_series()
        decoded = load_store(save_store(one_series_store(series), tmp_path / "s.npz"))
        np.testing.assert_allclose(decoded.get(1, 0).times_s, series.times_s, atol=1e-5)

    def test_identity_metadata(self, tmp_path):
        series = make_series(job_id=42, gpu_index=1)
        decoded = load_store(save_store(one_series_store(series), tmp_path / "s.npz"))
        (only,) = list(decoded)
        assert (only.job_id, only.gpu_index) == (42, 1)

    def test_empty_series(self, tmp_path):
        empty = GpuTimeSeries(1, 0, np.empty(0), {m: np.empty(0) for m in METRIC_NAMES})
        decoded = load_store(save_store(one_series_store(empty), tmp_path / "s.npz"))
        assert decoded.get(1, 0).num_samples == 0

    def test_version_check(self, tmp_path):
        """A file in the format-1 layout is rejected, naming the file."""
        path = oracle_save_store(one_series_store(make_series()), tmp_path / "old.npz")
        with pytest.raises(MonitoringError, match="old.npz"):
            load_store(path)

    def test_metrics_decode_on_first_read(self, tmp_path):
        """A loaded series expands a metric's runs when the metric is
        first read, and keeps the array."""
        decoded = load_store(save_store(one_series_store(make_series()), tmp_path / "s.npz"))
        metrics = decoded.get(1, 0).metrics
        assert list(metrics) == list(METRIC_NAMES) and vars(metrics)["_decoded"] == {}
        assert "power_w" in metrics and "cpu" not in metrics
        first = decoded.get(1, 0).metric("sm")
        assert metrics["sm"] is first and list(vars(metrics)["_decoded"]) == ["sm"]

    def test_corrupt_lengths_detected(self, tmp_path):
        # three samples, but one metric is a sample short
        columns = {"t0": np.zeros(1), "steps_us": np.full(2, 100_000)}
        columns.update({name: np.zeros(3) for name in METRIC_NAMES})
        columns["sm"] = np.zeros(2)
        path = tmp_path / "bad.npz"
        write_spill_file(path, [("s1_0", columns)], None)
        with pytest.raises(MonitoringError, match="bad.npz"):
            load_store(path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(MonitoringError, match="bad.npz"):
            load_store(path)


class TestOracleIdentity:
    """Decodes are bit-identical to the format-1 codec's."""

    def test_generated_store(self, small_dataset, tmp_path):
        assert_stores_identical(*round_trip(small_dataset.timeseries, tmp_path))

    def test_empty_and_one_sample_series(self, tmp_path):
        store = TimeSeriesStore()
        store.add(GpuTimeSeries(3, 0, np.empty(0), {m: np.empty(0) for m in METRIC_NAMES}))
        store.add(make_series(job_id=2, n=1))
        store.add(make_series(job_id=1, n=2))
        ours, oracle = round_trip(store, tmp_path)
        assert [s.num_samples for s in ours] == [0, 1, 2]
        assert_stores_identical(ours, oracle)

    def test_linspace_decimated_series(self, tmp_path):
        # Decimated series (timeseries_max_samples) sit on a linspace
        # grid, so their steps are not a whole number of microseconds.
        series = make_series(n=997)
        series.times_s = np.linspace(0.0, 3601.7, 997)
        ours, oracle = round_trip(one_series_store(series), tmp_path)
        assert_stores_identical(ours, oracle)

    def test_nested_member_prefixes(self, tmp_path):
        # "s1_1" is a string prefix of "s1_10" and of "s11_1".
        store = TimeSeriesStore()
        for job_id in (11, 1, 110):
            for gpu_index in (10, 1, 0):
                store.add(make_series(job_id, gpu_index, n=20, seed=job_id + gpu_index))
        assert_stores_identical(*round_trip(store, tmp_path))


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
        # A few hundred series whose member names nest ("s1_1" is a
        # string prefix of "s1_10" and of "s11_1").
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

    def test_one_member_per_series(self, tmp_path):
        store = TimeSeriesStore()
        store.add(make_series(job_id=7))
        store.add(make_series(job_id=1, gpu_index=1))
        path = save_store(store, tmp_path / "series.npz")
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == ["s7_0", "s1_1"]

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
