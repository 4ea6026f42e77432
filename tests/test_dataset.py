"""Tests for the end-to-end dataset pipeline."""

import numpy as np
import pytest

from repro.dataset import generate_dataset
from repro.pipeline import Session
from repro.workload.calibration import PAPER_TARGETS
from repro.workload.generator import WorkloadConfig


class TestPipeline:
    def test_tables_linked_by_job_id(self, small_dataset):
        gpu_ids = set(small_dataset.gpu_jobs["job_id"])
        all_ids = set(small_dataset.jobs["job_id"])
        assert gpu_ids <= all_ids

    def test_gpu_jobs_have_metrics(self, small_dataset):
        for column in ("sm_mean", "power_w_max", "pcie_rx_mean"):
            assert column in small_dataset.gpu_jobs

    def test_short_jobs_filtered(self, small_dataset):
        runtimes = np.asarray(small_dataset.gpu_jobs["run_time_s"], dtype=float)
        assert runtimes.min() >= PAPER_TARGETS.short_job_filter_s

    def test_jobs_table_keeps_short_and_cpu_jobs(self, small_dataset):
        assert len(small_dataset.jobs) > len(small_dataset.gpu_jobs)

    def test_per_gpu_row_counts_match_gpu_requests(self, small_dataset):
        per_gpu = small_dataset.per_gpu
        counts = {}
        for row in per_gpu.iter_rows():
            counts[row["job_id"]] = counts.get(row["job_id"], 0) + 1
        for row in small_dataset.gpu_jobs.iter_rows():
            assert counts[row["job_id"]] == row["num_gpus"]

    def test_timeseries_jobs_are_gpu_jobs(self, small_dataset):
        all_gpu_ids = {
            row["job_id"]
            for row in small_dataset.jobs.iter_rows()
            if row["num_gpus"] > 0
        }
        for job_id in small_dataset.timeseries.job_ids():
            assert job_id in all_gpu_ids

    def test_describe_mentions_counts(self, small_dataset):
        text = small_dataset.describe()
        assert "total jobs" in text
        assert "users" in text

    def test_num_users_bounded_by_config(self, small_dataset):
        assert small_dataset.num_users <= small_dataset.config.scaled_users

    def test_spec_scaled(self, small_dataset):
        assert small_dataset.spec.num_nodes == small_dataset.config.scaled_nodes


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        a = generate_dataset(WorkloadConfig(scale=0.01, seed=77))
        b = generate_dataset(WorkloadConfig(scale=0.01, seed=77))
        assert a.jobs.num_rows == b.jobs.num_rows
        assert list(a.gpu_jobs["sm_mean"]) == list(b.gpu_jobs["sm_mean"])
        assert list(a.jobs["wait_time_s"]) == list(b.jobs["wait_time_s"])

    def test_session_memoizes_dataset(self):
        session = Session(WorkloadConfig(scale=0.01, seed=55))
        assert session.dataset() is session.dataset()

    def test_session_matches_generate_dataset(self):
        config = WorkloadConfig(scale=0.01, seed=55)
        from_session = Session(config).dataset()
        direct = generate_dataset(config)
        assert list(from_session.gpu_jobs["sm_mean"]) == list(direct.gpu_jobs["sm_mean"])


class TestPhaseTable:
    """The per-job phase table is folded once per dataset."""

    @pytest.fixture
    def folds(self, monkeypatch):
        from repro.analysis import phases

        calls = []
        fold = phases.job_phase_table

        def counting(store, *args):
            calls.append(store)
            return fold(store, *args)

        monkeypatch.setattr(phases, "job_phase_table", counting)
        return calls

    def test_fig06_fig07_and_validation_fold_the_series_once(self, small_dataset, folds):
        import dataclasses

        from repro.figures.registry import run_figure
        from repro.validation import validate_dataset

        dataset = dataclasses.replace(small_dataset)
        fig06 = run_figure("fig06", dataset)
        run_figure("fig07", dataset)
        results = validate_dataset(dataset)
        assert len(folds) == 1
        assert fig06.series["phase_table"] is dataset.phase_table
        assert {r.check.figure_id for r in results} >= {"fig06", "fig07"}

    def test_copies_fold_their_own(self, small_dataset, folds):
        import dataclasses

        dataset = dataclasses.replace(small_dataset)
        view = dataset.streaming_view(chunk_rows=256)
        ours, theirs = dataset.phase_table, view.phase_table
        assert len(folds) == 2 and ours is not theirs
        for name in ours.column_names:
            np.testing.assert_array_equal(np.asarray(ours[name]), np.asarray(theirs[name]))


class TestFigureResults:
    """A dataset keeps each figure result the first time it is computed."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        from repro.figures import registry

        calls = []
        for figure_id, runner in list(registry._REGISTRY.items()):
            monkeypatch.setitem(
                registry._REGISTRY,
                figure_id,
                lambda dataset, fid=figure_id, run=runner: calls.append(fid) or run(dataset),
            )
        return calls

    def test_a_report_evaluates_each_figure_once(self, small_dataset, evaluations):
        """All figures, then validation: 21 evaluations, and the grades
        equal those of a copy whose validation runs its own figures."""
        import dataclasses

        from repro.figures.registry import all_figures, run_figure
        from repro.validation import validate_dataset

        dataset = dataclasses.replace(small_dataset)
        results = [run_figure(fid, dataset) for fid in all_figures()]
        graded = validate_dataset(dataset)
        assert sorted(evaluations) == sorted(all_figures())
        assert [run_figure(fid, dataset) for fid in all_figures()] == results
        assert len(evaluations) == 21

        fresh = validate_dataset(dataclasses.replace(small_dataset))
        assert [(r.check, r.measured, r.passed) for r in graded] == [
            (r.check, r.measured, r.passed) for r in fresh
        ]

    def test_copies_compute_their_own(self, small_dataset, evaluations):
        import dataclasses

        from repro.figures.registry import run_figure

        dataset = dataclasses.replace(small_dataset)
        ours = run_figure("fig13", dataset)
        theirs = run_figure("fig13", dataset.streaming_view(chunk_rows=256))
        assert evaluations == ["fig13", "fig13"] and ours is not theirs
