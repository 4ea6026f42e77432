"""Tests for the pipeline Session API."""

import math

import pytest

from repro.pipeline import BUILD_STAGES, Session
from repro.workload.generator import WorkloadConfig

CONFIG = WorkloadConfig(scale=0.01, seed=31)


@pytest.fixture(scope="module")
def session():
    s = Session(CONFIG)
    s.dataset()
    return s


class TestStagedExecution:
    def test_build_runs_stages_in_order(self, session):
        assert tuple(session.instrumentation.stage_names()) == BUILD_STAGES

    def test_stage_rows_populated(self, session):
        for record in session.stages:
            assert record.rows > 0, record.name
            assert record.seconds >= 0.0

    def test_build_counted_once(self, session):
        session.dataset()
        session.dataset()
        assert session.instrumentation.count("build") == 1
        assert session.instrumentation.count("memory_hit") == 2

    def test_dataset_memoized(self, session):
        assert session.dataset() is session.dataset()

    def test_summary_surfaces_stages_and_counters(self, session):
        text = session.summary()
        for stage in BUILD_STAGES:
            assert f"stage {stage}:" in text
        assert "builds: 1" in text
        assert session.key in text


class TestScenarios:
    def test_from_scenario_days_override(self):
        s = Session.from_scenario("paper", scale=0.01, seed=5, days=30.0)
        assert s.config.days == 30.0
        assert s.config.scale == 0.01

    def test_unknown_scenario_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            Session.from_scenario("moonbase", scale=0.01)

    def test_key_distinguishes_scenarios(self):
        paper = Session.from_scenario("paper", scale=0.01, seed=5)
        surge = Session.from_scenario("exploration_surge", scale=0.01, seed=5)
        assert paper.key != surge.key


class TestFigures:
    def test_run_figures_subset(self, session):
        results = session.run_figures(["fig15", "fig04"])
        assert [r.figure_id for r in results] == ["fig15", "fig04"]

    def test_unknown_figure_rejected(self, session):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            session.run_figures(["fig99"])


class TestParallelFigures:
    def test_parallel_matches_serial(self, tmp_path):
        """``workers`` widens only cold builds: a ``workers=2`` session
        runs its figures in its own process, on the dataset it built,
        so even the series figures equal the serial session's exactly."""
        ids = ["table1", "fig06", "fig09", "queue_waits"]
        parallel = Session(CONFIG, cache_dir=tmp_path, workers=2)
        parallel_results = parallel.run_figures(ids)
        assert [(st.name, st.rows) for st in parallel.stages][-1] == ("figures", len(ids))

        serial_results = Session(CONFIG).run_figures(ids)
        for a, b in zip(parallel_results, serial_results):
            assert a.figure_id == b.figure_id
            for ca, cb in zip(a.comparisons, b.comparisons):
                assert ca.name == cb.name
                assert ca.measured == cb.measured or (
                    math.isnan(ca.measured) and math.isnan(cb.measured)
                )
