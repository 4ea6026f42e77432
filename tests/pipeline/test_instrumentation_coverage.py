"""Instrumentation coverage: the observability surface must keep up
with the pipeline surface.

These tests pin the contract that every build stage and every
registered figure producer runs under a span (and therefore shows up
in Chrome traces, the run report, and the exported event timeline).
Adding a stage to ``BUILD_STAGES`` or a figure to the registry without
instrumentation fails here, not in a silent gap in the next trace
someone reads.  They also pin that each record is kept once: span
closes live only in the tracer, the flight recorder holds only the
moments no span covers, and the progress sink folds the recorder's own
``island.epoch`` events.
"""

from __future__ import annotations

import os

import pytest

from repro.figures.registry import all_figures
from repro.obs import ProgressAggregator, timeline_events
from repro.obs.progress import use_sink
from repro.pipeline import BUILD_STAGES, Session
from repro.slurm.interchange import InterchangeConfig
from repro.workload.generator import WorkloadConfig

CONFIG = WorkloadConfig(scale=0.01, seed=31)
FORKED_CONFIG = WorkloadConfig(scale=0.02, seed=31, num_nodes=1600, partitions=2)


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
    """Each build stage is a ``span:<stage>`` row of the exported timeline."""
    rows = {
        event.name
        for event in timeline_events(traced_session.recorder, traced_session.tracer)
        if event.category == "pipeline"
    }
    missing = [stage for stage in BUILD_STAGES if f"span:{stage}" not in rows]
    assert not missing, f"stages missing from the exported timeline: {missing}"


def test_each_cache_entry_file_opens_one_span(tmp_path):
    """A traced cold build stores, and a traced warm load reads, every
    entry file under one span naming it and its size."""
    cold = Session(CONFIG, cache_dir=tmp_path)
    cold.dataset()
    warm = Session(CONFIG, cache_dir=tmp_path)
    warm.dataset()
    entry = cold.cache.entry_dir(cold.key)
    sizes = {path.name: path.stat().st_size for path in entry.iterdir()}
    assert len(sizes) == 6
    for session, name in ((cold, "cache.store"), (warm, "cache.load")):
        spans = [s for s in session.tracer.finished() if s.name == name]
        assert all(s.category == "cache" for s in spans)
        assert sorted((s.attrs["file"], s.attrs["bytes"]) for s in spans) == sorted(sizes.items())


@pytest.fixture(scope="module")
def watched_forked_build(tmp_path_factory):
    """A forked two-island coupled streaming build under a progress sink."""
    session = Session(
        FORKED_CONFIG,
        workers=2,
        interchange=InterchangeConfig(epoch_s=3600.0, migrate_after_s=900.0),
    )
    progress = ProgressAggregator()
    with use_sink(progress):
        session.streaming_dataset(chunk_rows=512, spill_dir=tmp_path_factory.mktemp("spill"))
    return session, progress


@pytest.fixture(scope="module")
def forked_stream_session(watched_forked_build):
    return watched_forked_build[0]


@pytest.mark.parametrize(
    "build, islands",
    [("traced_session", {0}), ("forked_stream_session", {0, 1})],
)
def test_each_record_is_kept_once(build, islands, request):
    session = request.getfixturevalue(build)
    events = session.recorder.events()
    repeats = [
        event.name
        for event in events
        if event.name.startswith("span:")
        or event.name in ("stage", "frame.spill", "frame.spill.codec")
    ]
    assert not repeats, f"recorder events that repeat a span: {sorted(set(repeats))}"
    spans = session.tracer.finished()
    rows = [
        (event.name, event.wall_us, event.pid)
        for event in timeline_events(session.recorder, session.tracer)
        if event.name.startswith("span:")
    ]
    assert sorted(rows) == sorted((f"span:{s.name}", s.end_us, s.pid) for s in spans)
    assert {event.island for event in events if event.name == "island.epoch"} == islands


def test_each_island_epoch_is_one_event(watched_forked_build):
    """The recorder keeps one ``island.epoch`` event per island epoch,
    and the progress sink folds those same events, one update each."""
    session, progress = watched_forked_build
    by_island: dict[int, list] = {}
    for event in session.recorder.events():
        if event.name == "island.epoch":
            by_island.setdefault(event.island, []).append(event)
    assert sorted(by_island) == [0, 1]
    for events in by_island.values():
        events.sort(key=lambda event: event.attrs["epoch"])
        assert [event.attrs["epoch"] for event in events] == list(range(1, len(events) + 1))
    assert sum(len(events) for events in by_island.values()) == progress.updates
    assert progress.islands() == [by_island[island][-1] for island in (0, 1)]


def test_untraced_forked_hosts_ship_no_records(tmp_path, monkeypatch):
    """An untraced session's forked hosts record nothing, so the parent
    adopts empty span, counter and event payloads."""
    from repro.obs import NULL_METRICS, NULL_RECORDER, NULL_TRACER
    from repro.slurm import parallel

    adopted = []
    adopt = parallel._adopt
    monkeypatch.setattr(parallel, "_adopt", lambda obs: (adopted.append(obs), adopt(obs)))
    session = Session(
        FORKED_CONFIG,
        workers=2,
        interchange=InterchangeConfig(epoch_s=3600.0, migrate_after_s=900.0),
        tracer=NULL_TRACER,
        metrics=NULL_METRICS,
        recorder=NULL_RECORDER,
    )
    session.streaming_dataset(chunk_rows=512, spill_dir=tmp_path / "spill")
    assert len(adopted) == 2  # one finalize payload per host
    for spans, snapshot, events in adopted:
        assert spans == []
        assert snapshot["counters"] == [] and snapshot["gauges"] == []
        assert events == []


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


def test_every_figure_run_is_timed(traced_session):
    """Each figure runs once, timed by one ``figure:<id>`` span inside
    the ``figures`` stage."""
    spans = traced_session.tracer.finished()
    (stage,) = [span for span in spans if span.name == "figures"]
    timed = [span for span in spans if span.category == "figure"]
    assert sorted(span.name for span in timed) == sorted(
        f"figure:{figure_id}" for figure_id in all_figures()
    )
    assert all(span.parent_id == stage.span_id for span in timed)
    assert sum(span.duration_us for span in timed) <= stage.duration_us
