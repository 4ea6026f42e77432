"""Tests for the cache's time-series file (``save_store``/``load_store``).

The store is one frame-codec spill file whose members are packed as
spill batches pack them (:func:`~repro.monitor.timeseries.pack_series`).
Every store round-trips exactly: times bit for bit, each metric's
sensor-resolution samples, dtypes and iteration order.
"""

import zipfile

import numpy as np
import pytest

from repro.errors import MonitoringError
from repro.frame.codec import read_spill_parts, write_spill_file
from repro.monitor.codec import compression_ratio, load_store, save_store
from repro.monitor.timeseries import (
    METRIC_NAMES,
    METRIC_RESOLUTION,
    GpuTimeSeries,
    TimeSeriesStore,
)


def assert_stores_identical(ours, theirs):
    """Equal values, dtypes and iteration order."""
    ours, theirs = list(ours), list(theirs)
    assert [(s.job_id, s.gpu_index) for s in ours] == [
        (s.job_id, s.gpu_index) for s in theirs
    ]
    for mine, other in zip(ours, theirs):
        assert mine.times_s.dtype == other.times_s.dtype
        assert mine.times_s.tobytes() == other.times_s.tobytes()
        assert list(mine.metrics) == list(other.metrics)
        for name, values in mine.metrics.items():
            assert values.dtype == other.metrics[name].dtype == np.float64, name
            assert values.tobytes() == other.metrics[name].tobytes(), name


def round_trip(store, tmp_path):
    """``(loaded, original)`` for one save/load of ``store``."""
    return load_store(save_store(store, tmp_path / "series.npz")), store


def make_series(job_id=1, gpu_index=0, n=500, seed=0, raw=None):
    """A series built from nvidia-smi-like float samples (piecewise
    constant with occasional jumps); ``raw`` receives the floats."""
    rng = np.random.default_rng(seed)
    times = np.arange(n) * 0.1
    level = rng.uniform(5, 60)
    metrics = {}
    for name in METRIC_NAMES:
        jumps = rng.random(n) < 0.02
        values = level + np.cumsum(np.where(jumps, rng.normal(0, 5, n), 0.0))
        metrics[name] = np.clip(values, 0.0, 100.0)
    if raw is not None:
        raw.update(metrics)
    return GpuTimeSeries(job_id, gpu_index, times, metrics)


def one_series_store(series):
    store = TimeSeriesStore()
    store.add(series)
    return store


class TestRoundTrip:
    def test_values_within_quantisation(self, tmp_path):
        """The only rounding is the sensor's, at construction: a loaded
        series equals the stored one, within half a resolution step of
        the float samples it was built from."""
        raw = {}
        series = make_series(raw=raw)
        decoded = load_store(save_store(one_series_store(series), tmp_path / "s.npz"))
        for name in METRIC_NAMES:
            values = decoded.get(1, 0).metrics[name]
            assert values.tobytes() == series.metrics[name].tobytes()
            half_step = 0.5 / METRIC_RESOLUTION[name][1]
            assert np.abs(values - raw[name]).max() <= half_step + 1e-12

    def test_times_preserved(self, tmp_path):
        series = make_series()
        decoded = load_store(save_store(one_series_store(series), tmp_path / "s.npz"))
        assert decoded.get(1, 0).times_s.tobytes() == series.times_s.tobytes()

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
        """Older layouts are rejected, naming the file: the format-1
        ``np.savez`` bundle and the lossy frame-codec layout, which
        stored ``t0`` and microsecond ``steps_us`` for the time axis."""
        old = tmp_path / "old.npz"
        np.savez_compressed(old, **{"s1_0/t0": np.zeros(1), "__keys__": np.asarray(["s1_0"])})
        with pytest.raises(MonitoringError, match="old.npz"):
            load_store(old)
        lossy = tmp_path / "lossy.npz"
        columns = {"t0": np.zeros(1), "steps_us": np.full(2, 100_000)}
        columns.update({name: np.zeros(3) for name in METRIC_NAMES})
        write_spill_file(lossy, [("s1_0", columns)])
        with pytest.raises(MonitoringError, match="lossy.npz.*no time axis"):
            load_store(lossy)

    def test_metrics_decode_on_first_read(self, tmp_path):
        """A loaded series holds each metric's encoded parts until the
        metric is first read, then its integer counts; every read
        returns a new float64 array."""
        decoded = load_store(save_store(one_series_store(make_series()), tmp_path / "s.npz"))
        metrics = decoded.get(1, 0).metrics
        held = vars(metrics)["_counts"]
        assert list(metrics) == list(METRIC_NAMES)
        assert all(isinstance(parts, tuple) for parts in held.values())
        assert "power_w" in metrics and "cpu" not in metrics
        first = decoded.get(1, 0).metric("sm")
        assert first.dtype == np.float64 and metrics["sm"] is not first
        assert held["sm"].dtype == np.uint8
        assert [name for name, parts in held.items() if not isinstance(parts, tuple)] == ["sm"]

    def test_corrupt_lengths_detected(self, tmp_path):
        # three samples, but one metric is a sample short
        columns = {"times_s": np.arange(3.0)}
        columns.update({name: np.zeros(3, np.uint8) for name in METRIC_NAMES})
        columns["sm"] = np.zeros(2, np.uint8)
        path = tmp_path / "bad.npz"
        write_spill_file(path, [("s1_0", columns)], None)
        with pytest.raises(MonitoringError, match="bad.npz"):
            load_store(path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(MonitoringError, match="bad.npz"):
            load_store(path)


class TestOracleIdentity:
    """Loads are bit-identical to the stores that were saved."""

    def test_generated_store(self, small_dataset, tmp_path):
        assert_stores_identical(*round_trip(small_dataset.timeseries, tmp_path))

    def test_empty_and_one_sample_series(self, tmp_path):
        store = TimeSeriesStore()
        store.add(GpuTimeSeries(3, 0, np.empty(0), {m: np.empty(0) for m in METRIC_NAMES}))
        store.add(make_series(job_id=2, n=1))
        store.add(make_series(job_id=1, n=2))
        ours, original = round_trip(store, tmp_path)
        assert [s.num_samples for s in ours] == [0, 1, 2]
        assert_stores_identical(ours, original)

    def test_linspace_decimated_series(self, tmp_path):
        # Decimated series (timeseries_max_samples) sit on a linspace
        # grid, so their steps are not a whole number of microseconds.
        series = make_series(n=997)
        series.times_s = np.linspace(0.0, 4000.3, 997)
        ours, original = round_trip(one_series_store(series), tmp_path)
        assert_stores_identical(ours, original)

    def test_nested_member_prefixes(self, tmp_path):
        # "s1_1" is a string prefix of "s1_10" and of "s11_1".
        store = TimeSeriesStore()
        for job_id in (11, 1, 110):
            for gpu_index in (10, 1, 0):
                store.add(make_series(job_id, gpu_index, n=20, seed=job_id + gpu_index))
        assert_stores_identical(*round_trip(store, tmp_path))

    def test_time_axes_are_stored_as_their_calls(self, tmp_path):
        """An ``np.arange(n) * step`` axis stores its step, an
        ``np.linspace(0.0, end, n)`` axis its end, any other axis its
        float64 samples; each rebuilds bit for bit."""
        store = TimeSeriesStore()
        axes = {
            1: np.arange(997) * 0.1,
            # linspace's last sample is `end`, here not 996 steps
            2: np.linspace(0.0, 4000.3, 997),
            3: np.cumsum(np.random.default_rng(2).uniform(0.05, 0.15, 997)),
        }
        for job_id, times in axes.items():
            series = make_series(job_id, n=997)
            series.times_s = times
            store.add(series)
        path = save_store(store, tmp_path / "series.npz")
        with zipfile.ZipFile(path) as archive:
            stored = [
                next(iter(read_spill_parts(archive, name))) for name in archive.namelist()
            ]
        assert stored == ["times_step", "times_end", "times_s"]
        assert_stores_identical(load_store(path), store)


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
        assert decoded.metrics["power_w"].tobytes() == original.metrics["power_w"].tobytes()

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
        assert_stores_identical(load_store(path), store)

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
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
