"""Instrumentation coverage: the observability surface must keep up
with the pipeline surface.

These tests pin the contract that every build stage and every
registered figure producer runs under a span (and therefore shows up
in Chrome traces, the run report, and the flight recorder's span
mirror).  Adding a stage to ``BUILD_STAGES`` or a figure to the
registry without instrumentation fails here, not in a silent gap in
the next trace someone reads.
"""

from __future__ import annotations

import os

import pytest

from repro.figures.registry import all_figures
from repro.pipeline import BUILD_STAGES, Session
from repro.workload.generator import WorkloadConfig

CONFIG = WorkloadConfig(scale=0.01, seed=31)


@pytest.fixture(scope="module")
def traced_session():
    session = Session(CONFIG)
    session.dataset()
    session.run_figures()
    return session


def test_every_build_stage_opens_a_span(traced_session):
    spans = {
        record.name
        for record in traced_session.tracer.finished()
        if record.category == "pipeline"
    }
    missing = [stage for stage in BUILD_STAGES if stage not in spans]
    assert not missing, f"stages built without a span: {missing}"


def test_every_registered_figure_opens_a_span(traced_session):
    spans = {record.name for record in traced_session.tracer.finished()}
    missing = [
        figure_id
        for figure_id in all_figures()
        if f"figure:{figure_id}" not in spans
    ]
    assert not missing, f"figures ran without a span: {missing}"


def test_every_figure_span_is_categorised(traced_session):
    for record in traced_session.tracer.finished():
        if record.name.startswith("figure:"):
            assert record.category == "figure", record.name


def test_every_build_stage_lands_in_the_flight_recorder(traced_session):
    stages = {
        event.attrs.get("stage")
        for event in traced_session.recorder.events()
        if event.name == "stage"
    }
    missing = [stage for stage in BUILD_STAGES if stage not in stages]
    assert not missing, f"stages missing from the flight recorder: {missing}"


def _sampling_spans_under_schedule(session):
    """The ``monitor.sampling`` spans, each checked to sit under ``schedule``."""
    spans = session.tracer.finished()
    by_id = {span.span_id: span for span in spans}
    sampling = [span for span in spans if span.name == "monitor.sampling"]
    for span in sampling:
        ancestors = set()
        parent = span.parent_id
        while parent in by_id:
            ancestors.add(by_id[parent].name)
            parent = by_id[parent].parent_id
        assert "schedule" in ancestors, ancestors
        assert span.attrs["tasks"] > 0 and span.attrs["rows"] > 0
    return sampling


def test_single_island_sampling_is_attributed(traced_session):
    (span,) = _sampling_spans_under_schedule(traced_session)
    # The one island is hosted, and sampled, in the parent process.
    assert span.pid == os.getpid()


def test_forked_island_sampling_is_attributed():
    session = Session(
        WorkloadConfig(scale=0.02, seed=31, num_nodes=1600, partitions=2), workers=2
    )
    session.dataset()
    spans = _sampling_spans_under_schedule(session)
    assert sorted(span.track for span in spans) == ["repro-island-0", "repro-island-1"]
    assert all(span.pid != os.getpid() for span in spans)
    assert {span.attrs["mode"] for span in spans} == {"serial"}


def test_every_figure_run_is_timed(traced_session):
    timed = {
        dict(labels).get("figure")
        for name, labels, _ in traced_session.metrics.samples("histogram")
        if name == "repro_figure_seconds"
    }
    missing = [fig for fig in all_figures() if fig not in timed]
    assert not missing, f"figures without a timing histogram: {missing}"
