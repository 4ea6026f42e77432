"""Tests for GPU time-series containers, their sensor resolution and
the lossless disk spill."""

import json
import re
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.phases import ACTIVITY_THRESHOLD, activity_mask
from repro.errors import MonitoringError
from repro.monitor.timeseries import (
    METRIC_NAMES,
    METRIC_RESOLUTION,
    SPILL_BATCH_SERIES,
    GpuTimeSeries,
    SpilledTimeSeriesStore,
    TimeSeriesStore,
)
from tests.frame.test_chunked import stored_part_byte


def make_series(job_id=1, gpu_index=0, n=10):
    times = np.arange(n) * 0.1
    metrics = {name: np.linspace(0.0, 50.0, n) for name in METRIC_NAMES}
    return GpuTimeSeries(job_id, gpu_index, times, metrics)


class TestGpuTimeSeries:
    def test_properties(self):
        series = make_series(n=11)
        assert series.num_samples == 11
        assert series.duration_s == pytest.approx(1.0)

    def test_missing_metric_rejected(self):
        with pytest.raises(MonitoringError, match="missing metric"):
            GpuTimeSeries(1, 0, np.arange(3.0), {"sm": np.zeros(3)})

    def test_length_mismatch_rejected(self):
        metrics = {name: np.zeros(3) for name in METRIC_NAMES}
        metrics["power_w"] = np.zeros(4)
        with pytest.raises(MonitoringError, match="samples"):
            GpuTimeSeries(1, 0, np.arange(3.0), metrics)

    def test_metric_accessor(self):
        series = make_series()
        assert series.metric("sm")[0] == 0.0
        with pytest.raises(MonitoringError, match="unknown metric"):
            series.metric("temperature")

    def test_summary_has_min_mean_max(self):
        series = make_series()
        summary = series.summary()
        assert summary["sm_min"] == 0.0
        assert summary["sm_max"] == 50.0
        assert summary["sm_mean"] == pytest.approx(25.0)
        assert len(summary) == 3 * len(METRIC_NAMES)

    def test_empty_series_summary_is_nan(self):
        metrics = {name: np.empty(0) for name in METRIC_NAMES}
        series = GpuTimeSeries(1, 0, np.empty(0), metrics)
        assert np.isnan(series.summary()["sm_mean"])
        assert series.duration_s == 0.0


#: Finite samples a percentage metric can hold: 0 up to the largest
#: value that rounds into uint8.
_PERCENTS = st.floats(0.0, 255.49, allow_nan=False, allow_infinity=False)


class TestSensorResolution:
    """Samples are rounded half to even to the metric's resolution,
    stored as narrow integers and read back as new float64 arrays."""

    def test_storage_dtypes_and_reads(self):
        series = make_series(n=11)
        for name in METRIC_NAMES:
            dtype, _ = METRIC_RESOLUTION[name]
            assert series.metrics.counts(name).dtype == dtype
            values = series.metrics[name]
            assert values.dtype == np.float64 and values is not series.metrics[name]
        assert [METRIC_RESOLUTION[name][0] for name in METRIC_NAMES].count(np.uint8) == 5

    def test_rounding_is_half_to_even(self):
        metrics = {name: np.array([0.5, 1.5, 2.5, 99.49]) for name in METRIC_NAMES}
        metrics["power_w"] = np.array([0.125, 0.135, 250.004, 655.35])
        series = GpuTimeSeries(1, 0, np.arange(4.0), metrics)
        assert series.metric("sm").tolist() == [0.0, 2.0, 2.0, 99.0]
        assert series.metrics.counts("power_w").tolist() == [12, 14, 25000, 65535]
        assert series.metric("power_w").tolist() == [0.12, 0.14, 250.0, 655.35]

    @given(st.lists(st.tuples(_PERCENTS, _PERCENTS), min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_rounding_keeps_every_activity_mask(self, samples):
        """For finite x >= 0, rint(x) > ACTIVITY_THRESHOLD exactly when
        x > ACTIVITY_THRESHOLD: a series' activity mask is the mask of
        the float samples it was built from."""
        sm, mem_bw = (np.array(column) for column in zip(*samples))
        metrics = {name: np.zeros(sm.size) for name in METRIC_NAMES}
        metrics.update(sm=sm, mem_bw=mem_bw)
        series = GpuTimeSeries(1, 0, np.arange(float(sm.size)), metrics)
        assert np.array_equal(np.rint(sm) > ACTIVITY_THRESHOLD, sm > ACTIVITY_THRESHOLD)
        expected = (sm > ACTIVITY_THRESHOLD) | (mem_bw > ACTIVITY_THRESHOLD)
        assert activity_mask(series).tolist() == expected.tolist()

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("sm", np.nan), ("mem_bw", np.inf), ("mem_size", -np.inf), ("pcie_tx", -0.1),
            ("pcie_rx", 255.5), ("power_w", 655.356), ("power_w", np.nan),
        ],
    )
    def test_bad_values_raise_naming_job_and_metric(self, name, bad):
        """A negative, non-finite or too large sample raises; it never
        wraps into the narrow type."""
        metrics = {metric: np.ones(3) for metric in METRIC_NAMES}
        metrics[name] = np.array([1.0, bad, 2.0])
        with pytest.raises(MonitoringError, match=rf"job 7 GPU 2: metric '{name}' sample"):
            GpuTimeSeries(7, 2, np.arange(3.0), metrics)


class TestTimeSeriesStore:
    def test_add_and_get(self):
        store = TimeSeriesStore()
        store.add(make_series(job_id=5, gpu_index=1))
        assert store.get(5, 1).job_id == 5
        assert len(store) == 1

    def test_duplicate_rejected(self):
        store = TimeSeriesStore()
        store.add(make_series())
        with pytest.raises(MonitoringError, match="duplicate"):
            store.add(make_series())

    def test_job_ids_distinct_sorted(self):
        store = TimeSeriesStore()
        store.add(make_series(job_id=9, gpu_index=0))
        store.add(make_series(job_id=2, gpu_index=0))
        store.add(make_series(job_id=9, gpu_index=1))
        assert store.job_ids() == [2, 9]

    def test_series_for_job(self):
        store = TimeSeriesStore()
        store.add(make_series(job_id=9, gpu_index=1))
        store.add(make_series(job_id=9, gpu_index=0))
        series = store.series_for_job(9)
        assert [s.gpu_index for s in series] == [0, 1]

    def test_get_missing_rejected(self):
        with pytest.raises(MonitoringError, match="no series"):
            TimeSeriesStore().get(1, 0)

    def test_total_samples(self):
        store = TimeSeriesStore()
        store.add(make_series(n=10))
        store.add(make_series(job_id=2, n=5))
        assert store.total_samples() == 15

    def test_iteration(self):
        store = TimeSeriesStore()
        store.add(make_series())
        assert sum(1 for _ in store) == 1


def filled_store(num_jobs=3, gpus=2, start=0):
    store = TimeSeriesStore()
    for job in range(start, start + num_jobs):
        for gpu in range(gpus):
            store.add(make_series(job_id=job, gpu_index=gpu, n=5 + job + gpu))
    return store


class TestSpilledStore:
    """The spill is **lossless**, so figure-grade statistics off the
    spill are bit-identical to the in-memory store."""

    def test_roundtrip_is_bit_exact(self, tmp_path):
        store = filled_store()
        spilled = store.spill(tmp_path / "series")
        assert len(spilled) == len(store)
        assert spilled.job_ids() == store.job_ids()
        for series in store:
            twin = spilled.get(series.job_id, series.gpu_index)
            assert np.array_equal(series.times_s, twin.times_s)
            for name, values in series.metrics.items():
                assert np.array_equal(values, twin.metrics[name]), name

    def test_generated_store_spills_exactly(self, small_dataset, tmp_path):
        """Every series of a built dataset comes back from its spill
        with the same time axis and metrics, bit for bit."""
        store = small_dataset.timeseries
        spilled = store.spill(tmp_path / "series")
        assert len(spilled) == len(store) > 0
        for series, twin in zip(store.iter_sorted(), spilled):
            assert (series.job_id, series.gpu_index) == (twin.job_id, twin.gpu_index)
            assert series.times_s.tobytes() == twin.times_s.tobytes()
            for name in METRIC_NAMES:
                assert series.metrics[name].tobytes() == twin.metrics[name].tobytes(), name

    def test_total_samples_needs_no_loads(self, tmp_path):
        store = filled_store()
        spilled = store.spill(tmp_path / "series")
        assert spilled.total_samples() == store.total_samples()

    def test_iteration_in_sorted_key_order(self, tmp_path):
        spilled = filled_store().spill(tmp_path / "series")
        keys = [(s.job_id, s.gpu_index) for s in spilled]
        assert keys == sorted(keys)

    def test_series_for_job(self, tmp_path):
        spilled = filled_store().spill(tmp_path / "series")
        assert [s.gpu_index for s in spilled.series_for_job(1)] == [0, 1]

    def test_get_missing_rejected(self, tmp_path):
        spilled = filled_store().spill(tmp_path / "series")
        with pytest.raises(MonitoringError, match="no series"):
            spilled.get(99, 0)

    def test_materialize_roundtrip(self, tmp_path):
        store = filled_store()
        back = store.spill(tmp_path / "series").materialize()
        assert back.job_ids() == store.job_ids()
        for series in store:
            twin = back.get(series.job_id, series.gpu_index)
            assert np.array_equal(series.times_s, twin.times_s)

    def test_scan_table_matches_in_memory_scan(self, tmp_path):
        store = filled_store()
        spilled = store.spill(tmp_path / "series")
        expected = store.scan_table(chunk_rows=16).materialize()
        streamed = spilled.scan_table(chunk_rows=16).materialize()
        assert streamed.to_dict() == expected.to_dict()

    def test_union_of_disjoint_islands(self, tmp_path):
        first = filled_store(num_jobs=2, start=0)
        second = filled_store(num_jobs=2, start=10)
        union = SpilledTimeSeriesStore.union(
            [
                first.spill(tmp_path / "island0"),
                second.spill(tmp_path / "island1"),
            ]
        )
        assert len(union) == len(first) + len(second)
        assert union.job_ids() == first.job_ids() + second.job_ids()

    def test_union_rejects_duplicate_keys(self, tmp_path):
        first = filled_store().spill(tmp_path / "a")
        second = filled_store().spill(tmp_path / "b")
        with pytest.raises(MonitoringError, match="duplicate"):
            SpilledTimeSeriesStore.union([first, second])

    def test_missing_manifest_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(MonitoringError, match="manifest"):
            SpilledTimeSeriesStore([tmp_path / "empty"])


def interleaved_islands(tmp_path, jobs_per_island):
    """Two spilled islands holding the even and the odd job ids."""
    islands = []
    for parity in (0, 1):
        store = TimeSeriesStore()
        for job in range(parity, 2 * jobs_per_island, 2):
            store.add(make_series(job_id=job, gpu_index=0, n=4 + job % 5))
        islands.append(store.spill(tmp_path / f"island{parity}"))
    return islands


class TestSpillLayout:
    def test_one_member_per_series(self, tmp_path):
        store = filled_store(num_jobs=40, gpus=2)
        store.spill(tmp_path / "series")
        batches = sorted((tmp_path / "series").glob("batch_*.npz"))
        assert len(batches) == 2
        members = []
        for batch in batches:
            with zipfile.ZipFile(batch) as archive:
                members += archive.namelist()
        assert members == [f"s{s.job_id}_{s.gpu_index}" for s in store.iter_sorted()]
        back = SpilledTimeSeriesStore([tmp_path / "series"])
        for series in store:
            twin = back.get(series.job_id, series.gpu_index)
            assert np.array_equal(series.times_s, twin.times_s)

    def test_lossless_members_are_stored(self, tmp_path):
        """Lossless series batches are stored, not deflated: after the
        codec, deflate saves little on telemetry and costs every read."""
        store = filled_store(num_jobs=40, gpus=2)
        store.spill(tmp_path / "series")
        batches = sorted((tmp_path / "series").glob("batch_*.npz"))
        assert len(batches) == 2
        for batch in batches:
            with zipfile.ZipFile(batch) as archive:
                types = {info.compress_type for info in archive.infolist()}
            assert types == {zipfile.ZIP_STORED}

    def test_interleaved_walk_opens_each_batch_once(self, tmp_path, monkeypatch):
        """One handle per directory: a (job, GPU) walk alternating
        between two islands never re-opens a batch."""
        union = SpilledTimeSeriesStore.union(
            interleaved_islands(tmp_path, jobs_per_island=SPILL_BATCH_SERIES + 10)
        )
        batches = sorted(tmp_path.glob("island*/batch_*.npz"))
        assert len(batches) == 4
        opened = []

        class CountingZipFile(zipfile.ZipFile):
            def __init__(self, file, *args, **kwargs):
                super().__init__(file, *args, **kwargs)
                opened.append((file, self))

        monkeypatch.setattr(zipfile, "ZipFile", CountingZipFile)
        keys = [(s.job_id, s.gpu_index) for s in union]
        assert keys == sorted(keys) and len(keys) == len(union)
        assert sorted(path for path, _ in opened) == batches
        union.close()
        assert all(archive.fp is None for _, archive in opened)
        assert union.get(1, 0).num_samples == 5  # reopens after close()

    def test_truncated_batch_names_batch_job_and_gpu(self, tmp_path):
        filled_store().spill(tmp_path / "series")
        batch = tmp_path / "series" / "batch_000000.npz"
        data = batch.read_bytes()
        batch.write_bytes(data[: len(data) // 2])
        spilled = SpilledTimeSeriesStore([tmp_path / "series"])
        with pytest.raises(MonitoringError, match=r"batch_000000\.npz.*job 1 GPU 0"):
            spilled.get(1, 0)

    def test_corrupt_member_names_batch_job_and_gpu(self, tmp_path):
        store = filled_store(num_jobs=1, gpus=1)
        store.add(make_series(job_id=5, gpu_index=0, n=5000))
        store.spill(tmp_path / "series")
        batch = tmp_path / "series" / "batch_000000.npz"
        data = bytearray(batch.read_bytes())
        data[stored_part_byte(batch, "s5_0", "sm")] ^= 0xFF  # caught by CRC-32 only
        batch.write_bytes(bytes(data))
        spilled = SpilledTimeSeriesStore([tmp_path / "series"])
        with pytest.raises(MonitoringError, match=r"batch_000000\.npz.*job 5 GPU 0"):
            spilled.get(5, 0)

    def test_older_layout_rejected(self, tmp_path):
        filled_store().spill(tmp_path / "series")
        manifest = tmp_path / "series" / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["format_version"] = 1
        manifest.write_text(json.dumps(payload))
        with pytest.raises(MonitoringError, match="version 1"):
            SpilledTimeSeriesStore([tmp_path / "series"])

    def test_older_batch_names_the_batch(self, tmp_path):
        filled_store(num_jobs=1, gpus=1).spill(tmp_path / "series")
        batch = tmp_path / "series" / "batch_000000.npz"
        np.savez_compressed(batch, **{"s0_0/times_s": np.arange(3.0)})
        spilled = SpilledTimeSeriesStore([tmp_path / "series"])
        with pytest.raises(MonitoringError, match=r"batch_000000\.npz.*job 0 GPU 0"):
            spilled.get(0, 0)

    def test_failed_batch_write_leaves_no_file(self, tmp_path, monkeypatch):
        import errno
        import importlib

        from repro.errors import FrameError

        codec = importlib.import_module("repro.frame.codec")
        pack = codec.pack
        calls = []

        def disk_full_on_fourth_series(parts, fh):
            calls.append(None)
            if len(calls) == 4:
                fh.write(b"partial member bytes")
                raise OSError(errno.ENOSPC, "No space left on device")
            return pack(parts, fh)

        monkeypatch.setattr(codec, "pack", disk_full_on_fourth_series)
        with pytest.raises(FrameError, match=r"batch_000000\.npz: .*No space left"):
            filled_store().spill(tmp_path / "series")
        assert list((tmp_path / "series").iterdir()) == []

    def test_uncreatable_directory_names_it(self, tmp_path):
        """A spill directory under a regular file cannot be created,
        even by root; the error names the directory."""
        from repro.errors import FrameError

        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        with pytest.raises(FrameError, match=r"cannot create spill directory .*not_a_dir/series"):
            filled_store().spill(blocker / "series")

    def test_failed_manifest_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        """A disk that fills up mid-manifest leaves no (partial)
        manifest, and the error names the manifest file."""
        import errno
        from pathlib import Path

        from repro.errors import FrameError

        write_text = Path.write_text

        def disk_full_in_manifest(self, data, *args, **kwargs):
            if self.name.startswith("manifest.json"):
                write_text(self, data[: len(data) // 2], *args, **kwargs)
                raise OSError(errno.ENOSPC, "No space left on device")
            return write_text(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", disk_full_in_manifest)
        directory = tmp_path / "series"
        with pytest.raises(FrameError, match=r"manifest\.json: .*No space left"):
            filled_store().spill(directory)
        assert [p.name for p in directory.iterdir()] == ["batch_000000.npz"]
        with pytest.raises(MonitoringError, match="no spill manifest"):
            SpilledTimeSeriesStore([directory])

    @pytest.mark.parametrize(
        "payload",
        [
            '{"format_version": 3, "files": [{"name": "batch_0',
            "[]",
            '{"format_version": 3, "files": [{"name": "batch_000000.npz"}]}',
            b"\xff\xfe\x00",
        ],
        ids=["truncated", "not_an_object", "entry_without_series", "not_text"],
    )
    def test_malformed_manifest_names_the_directory(self, tmp_path, payload):
        directory = tmp_path / "series"
        filled_store().spill(directory)
        manifest = directory / "manifest.json"
        if isinstance(payload, bytes):
            manifest.write_bytes(payload)
        else:
            manifest.write_text(payload)
        match = "unreadable spill manifest in " + re.escape(str(directory))
        with pytest.raises(MonitoringError, match=match):
            SpilledTimeSeriesStore([directory])
