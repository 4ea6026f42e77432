"""Tests for the on-disk pipeline artifact cache."""

import subprocess
import sys
import zipfile

import numpy as np
import pytest

from repro.dataset import generate_dataset
from repro.monitor.collector import MonitoringConfig
from repro.pipeline import DatasetCache, Session, dataset_key
from repro.workload.generator import WorkloadConfig

CONFIG = WorkloadConfig(scale=0.01, seed=101)

#: Everything a cache entry holds: what a session cannot rebuild.
ENTRY_FILES = [
    "gpu_jobs.csv", "jobs.csv", "manifest.json", "per_gpu.csv", "records.pkl", "timeseries.npz",
]


@pytest.fixture(scope="module")
def cached_pair(tmp_path_factory):
    """(fresh dataset, cache-loaded dataset) for one tiny config."""
    cache_dir = tmp_path_factory.mktemp("cache")
    builder = Session(CONFIG, cache_dir=cache_dir)
    fresh = builder.dataset()
    loader = Session(CONFIG, cache_dir=cache_dir)
    return fresh, loader.dataset(), loader


class TestKey:
    def test_stable_within_process(self):
        assert dataset_key(CONFIG, None) == dataset_key(CONFIG, None)

    def test_none_matches_defaults(self):
        assert dataset_key(None, None) == dataset_key(WorkloadConfig(), MonitoringConfig())

    def test_sensitive_to_workload_config(self):
        assert dataset_key(CONFIG, None) != dataset_key(
            WorkloadConfig(scale=0.01, seed=102), None
        )

    def test_sensitive_to_monitoring_config(self):
        assert dataset_key(CONFIG, None) != dataset_key(
            CONFIG, MonitoringConfig(timeseries_fraction=0.5)
        )

    def test_stable_across_processes(self):
        code = (
            "from repro.pipeline import dataset_key\n"
            "from repro.workload.generator import WorkloadConfig\n"
            "print(dataset_key(WorkloadConfig(scale=0.01, seed=101), None))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == dataset_key(CONFIG, None)


class TestRoundTrip:
    def test_hit_skips_generation(self, cached_pair):
        _, _, loader = cached_pair
        assert loader.instrumentation.count("cache_hit") == 1
        assert loader.instrumentation.count("build") == 0
        assert not loader.executed("workload")
        assert not loader.executed("schedule")

    def test_tables_equal_fresh_build(self, cached_pair):
        fresh, loaded, _ = cached_pair
        for attr in ("jobs", "gpu_jobs", "per_gpu"):
            a, b = getattr(fresh, attr), getattr(loaded, attr)
            assert a.column_names == b.column_names
            assert a.num_rows == b.num_rows
            for name in a.column_names:
                assert list(a[name]) == list(b[name]), (attr, name)

    def test_timeseries_within_codec_quantisation(self, cached_pair):
        """The codec no longer quantises: every series comes back bit
        for bit, its time axis and each metric at sensor resolution."""
        fresh, loaded, _ = cached_pair
        assert fresh.timeseries.job_ids() == loaded.timeseries.job_ids()
        for series in fresh.timeseries:
            twin = loaded.timeseries.get(series.job_id, series.gpu_index)
            assert twin.times_s.tobytes() == series.times_s.tobytes()
            for name, values in series.metrics.items():
                assert twin.metrics[name].tobytes() == values.tobytes(), name

    def test_series_file_members_are_stored(self, cached_pair):
        """The series file stores its members, like every spill file:
        sensor counts need no deflate, and a warm load inflates nothing."""
        _, _, loader = cached_pair
        path = loader.cache.entry_dir(loader.key) / "timeseries.npz"
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert infos and {info.compress_type for info in infos} == {zipfile.ZIP_STORED}

    def test_records_and_config_survive(self, cached_pair):
        fresh, loaded, _ = cached_pair
        assert len(loaded.records) == len(fresh.records)
        assert loaded.records[0].request.job_id == fresh.records[0].request.job_id
        assert loaded.config == fresh.config
        assert loaded.spec.num_nodes == fresh.spec.num_nodes

    def test_matches_generate_dataset(self, cached_pair):
        fresh, _, _ = cached_pair
        reference = generate_dataset(CONFIG)
        assert list(fresh.gpu_jobs["sm_mean"]) == list(reference.gpu_jobs["sm_mean"])


class TestWarmEqualsCold:
    """A warm session answers what the cold build it cached answers."""

    @pytest.mark.parametrize("seed", [11, 31])
    def test_figures_and_validation_equal_the_cold_build(self, tmp_path, seed):
        from repro.figures.registry import all_figures
        from repro.validation import validate_dataset

        def answers(session):
            """``(figure comparisons, validation rows)``, the measured
            value last in each row."""
            figures = [
                (result.figure_id, c.name, c.measured)
                for result in session.run_figures()
                for c in result.comparisons
            ]
            rows = [
                (r.check.figure_id, r.check.name, r.passed, r.measured)
                for r in validate_dataset(session.dataset())
            ]
            return figures, rows

        config = WorkloadConfig(scale=0.02, seed=seed)
        cold = answers(Session(config, cache_dir=tmp_path))
        warm_session = Session(config, cache_dir=tmp_path)
        warm = answers(warm_session)
        assert warm_session.instrumentation.count("cache_hit") == 1
        assert len({row[0] for row in warm[0]}) == len(all_figures()) == 21
        assert len(warm[1]) > 50
        for cold_rows, warm_rows in zip(cold, warm):
            assert [row[:-1] for row in warm_rows] == [row[:-1] for row in cold_rows]
            # bit for bit, NaNs included
            measured = [np.array([row[-1] for row in rows]) for rows in (cold_rows, warm_rows)]
            assert measured[1].tobytes() == measured[0].tobytes()


class TestCorruption:
    @pytest.mark.parametrize(
        "victim", ["timeseries.npz", "jobs.csv", "manifest.json", "records.pkl"]
    )
    def test_corrupt_file_falls_back_to_regeneration(self, tmp_path, victim):
        cache_dir = tmp_path / "cache"
        first = Session(CONFIG, cache_dir=cache_dir)
        fresh = first.dataset()
        (DatasetCache(cache_dir).entry_dir(first.key) / victim).write_bytes(b"not the artifact")

        second = Session(CONFIG, cache_dir=cache_dir)
        rebuilt = second.dataset()
        assert second.instrumentation.count("cache_hit") == 0
        assert second.instrumentation.count("build") == 1
        assert list(rebuilt.gpu_jobs["sm_mean"]) == list(fresh.gpu_jobs["sm_mean"])

    def test_corrupt_entry_is_evicted_and_rewritten(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = Session(CONFIG, cache_dir=cache_dir)
        first.dataset()
        cache = DatasetCache(cache_dir)
        (cache.entry_dir(first.key) / "manifest.json").write_text("{broken")

        second = Session(CONFIG, cache_dir=cache_dir)
        second.dataset()
        third = Session(CONFIG, cache_dir=cache_dir)
        third.dataset()
        assert third.instrumentation.count("cache_hit") == 1

    def test_missing_entry_loads_none(self, tmp_path):
        assert DatasetCache(tmp_path).load("no-such-key", CONFIG) is None

    def test_recorder_names_the_corrupt_file(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = Session(CONFIG, cache_dir=cache_dir)
        first.dataset()
        (DatasetCache(cache_dir).entry_dir(first.key) / "records.pkl").write_bytes(b"garbage")

        second = Session(CONFIG, cache_dir=cache_dir)
        second.dataset()
        failed = [
            event.attrs
            for event in second.recorder.events()
            if event.name == "cache" and event.attrs.get("kind") == "dataset_load_failed"
        ]
        assert [attrs["file"] for attrs in failed] == ["records.pkl"]
        assert "UnpicklingError" in failed[0]["reason"]

    @pytest.mark.parametrize("error", [TypeError, AttributeError, NameError])
    def test_loader_bug_raises_and_evicts_nothing(self, tmp_path, monkeypatch, error):
        """An exception that is not corrupt input is a bug in a loader:
        it leaves the session, and the entry stays on disk."""
        import repro.pipeline.cache as cache_module

        cache_dir = tmp_path / "cache"
        first = Session(CONFIG, cache_dir=cache_dir)
        first.dataset()

        def broken_loader(path):
            raise error("a bug in the series decoder")

        monkeypatch.setattr(cache_module, "load_store", broken_loader)
        second = Session(CONFIG, cache_dir=cache_dir)
        with pytest.raises(error, match="a bug in the series decoder"):
            second.dataset()
        assert second.instrumentation.count("cache_corrupt") == 0
        assert DatasetCache(cache_dir).has(first.key)
        entry = DatasetCache(cache_dir).entry_dir(first.key)
        assert sorted(p.name for p in entry.iterdir()) == ENTRY_FILES


class TestFigures:
    """Figure results come from the dataset a session holds, never from disk."""

    SEED31 = WorkloadConfig(scale=0.01, seed=31)

    def test_one_warm_entry_one_answer(self, tmp_path):
        """A warm session's figures equal what ``validate_dataset``
        grades on its dataset (on a copy, which runs its own figures)."""
        import dataclasses

        from repro.validation import validate_dataset

        Session(self.SEED31, cache_dir=tmp_path).run_figures(["fig06", "fig07"])
        warm = Session(self.SEED31, cache_dir=tmp_path)
        results = {r.figure_id: r for r in warm.run_figures(["fig06", "fig07"])}
        graded = [
            (r.check.figure_id, r.check.name, r.measured)
            for r in validate_dataset(dataclasses.replace(warm.dataset()))
            if r.check.figure_id in results
        ]
        assert [(fid, name, results[fid].get(name).measured) for fid, name, _ in graded] == graded
        assert graded and warm.instrumentation.count("cache_hit") == 1

    def test_cache_never_hides_a_figures_code(self, tmp_path, monkeypatch):
        from repro.figures import registry
        from repro.figures.base import FigureResult

        Session(CONFIG, cache_dir=tmp_path).run_figures(["fig15"])
        patched = FigureResult(figure_id="fig15", title="patched fig15")
        monkeypatch.setitem(registry._REGISTRY, "fig15", lambda dataset: patched)
        (result,) = Session(CONFIG, cache_dir=tmp_path).run_figures(["fig15"])
        assert result is patched

    def test_one_pickle_per_report_and_six_entry_files(self, tmp_path, monkeypatch):
        """A cold report with a cache writes one pickle (``records.pkl``)
        and a warm one reads one; the cache root holds the entry alone."""
        import pickle

        calls = []
        dump, load = pickle.dump, pickle.load

        def counted_dump(*args, **kwargs):
            calls.append("dump")
            return dump(*args, **kwargs)

        def counted_load(*args, **kwargs):
            calls.append("load")
            return load(*args, **kwargs)

        monkeypatch.setattr(pickle, "dump", counted_dump)
        monkeypatch.setattr(pickle, "load", counted_load)
        cold = Session(self.SEED31, cache_dir=tmp_path)
        cold.run_figures()
        assert calls == ["dump"]
        calls.clear()
        warm = Session(self.SEED31, cache_dir=tmp_path)
        warm.run_figures()
        assert calls == ["load"]

        assert [p.name for p in tmp_path.iterdir()] == [cold.key]
        assert sorted(p.name for p in (tmp_path / cold.key).iterdir()) == ENTRY_FILES
        built, loaded = cold.dataset(), warm.dataset()
        assert loaded.config == built.config
        assert loaded.spec == built.spec


class TestWriteFailure:
    def test_failed_series_write_leaves_no_entry(self, small_dataset, tmp_path, monkeypatch):
        """A full disk under the series file raises FrameError naming it
        and leaves neither an entry nor a temp directory."""
        import errno
        import importlib

        from repro.errors import FrameError

        codec = importlib.import_module("repro.frame.codec")
        pack = codec.pack
        calls = []

        def disk_full_on_third_series(parts, fh):
            calls.append(None)
            if len(calls) == 3:
                fh.write(b"partial member bytes")
                raise OSError(errno.ENOSPC, "No space left on device")
            return pack(parts, fh)

        monkeypatch.setattr(codec, "pack", disk_full_on_third_series)
        cache = DatasetCache(tmp_path / "cache")
        assert len(small_dataset.timeseries) >= 3
        with pytest.raises(FrameError, match=r"timeseries\.npz: .*No space left"):
            cache.store("key", small_dataset)
        assert not cache.has("key")
        assert list((tmp_path / "cache").iterdir()) == []
