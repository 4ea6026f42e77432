"""Flight recorder: ring bounding, cross-process merge, the exported
timeline, JSONL."""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.obs import runtime
from repro.obs.events import (
    DEFAULT_CAPACITY,
    EventRecord,
    FlightRecorder,
    NULL_RECORDER,
    read_jsonl,
    summarize_events,
    write_jsonl,
)
from repro.obs.export import timeline_events
from repro.obs.trace import NULL_TRACER, Tracer


def test_emit_stamps_time_pid_and_island():
    import os

    recorder = FlightRecorder(island=3)
    recorder.emit("cache", category="cache", kind="hit")
    (event,) = recorder.events()
    assert event.name == "cache"
    assert event.category == "cache"
    assert event.island == 3
    assert event.pid == os.getpid()
    assert event.wall_us > 0
    assert event.mono_ns > 0
    assert event.attrs == {"kind": "hit"}


def test_emit_island_attr_overrides_recorder_island():
    recorder = FlightRecorder(island=0)
    recorder.emit("island.epoch", island=7, epoch=2)
    (event,) = recorder.events()
    assert event.island == 7
    assert event.attrs == {"epoch": 2}  # island is a stamp, not an attr


def test_ring_stays_bounded_and_counts_drops():
    recorder = FlightRecorder(capacity=4)
    for index in range(10):
        recorder.emit("e", index=index)
    assert len(recorder) == 4
    assert recorder.dropped == 6
    assert [e.attrs["index"] for e in recorder.events()] == [6, 7, 8, 9]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_payload_round_trip():
    recorder = FlightRecorder(island=1)
    recorder.emit("stage", category="pipeline", stage="workload", rows=10)
    (payload,) = recorder.drain_payload()
    assert len(recorder) == 0  # drain clears the ring
    twin = EventRecord.from_payload(payload)
    assert twin.name == "stage"
    assert twin.category == "pipeline"
    assert twin.island == 1
    assert twin.attrs == {"stage": "workload", "rows": 10}


def test_adopt_merges_sorted_on_wall_clock():
    parent = FlightRecorder()
    worker = FlightRecorder(island=2)
    parent.emit("first")
    worker.emit("second")
    parent.emit("third")
    adopted = parent.adopt(worker.drain_payload())
    assert adopted == 1
    names = [e.name for e in parent.events()]
    assert names == ["first", "second", "third"]
    assert parent.events()[1].island == 2


def test_adopt_rebounds_to_capacity():
    parent = FlightRecorder(capacity=3)
    worker = FlightRecorder(island=0)
    for index in range(3):
        parent.emit("p", index=index)
    for index in range(3):
        worker.emit("w", index=index)
    parent.adopt(worker.drain_payload())
    assert len(parent) == 3
    assert parent.dropped == 3
    assert [e.name for e in parent.events()] == ["w"] * 3

    # An overflow hundreds of times the capacity, arriving out of order:
    # the newest events stay, in wall-clock order, and every other one
    # is counted as dropped.
    newest = parent.events()[-1].wall_us
    stamps = [newest + 1 + step for step in range(1000)]
    random.Random(7).shuffle(stamps)
    payload = [
        {"name": "late", "wall_us": stamp, "island": 1, "attrs": {"stamp": stamp}}
        for stamp in stamps
    ]
    assert parent.adopt(payload) == 1000
    assert len(parent) == 3
    assert parent.dropped == 3 + 3 + 1000 - 3
    assert [e.wall_us for e in parent.events()] == [newest + 998, newest + 999, newest + 1000]
    assert [e.attrs["stamp"] for e in parent.events()] == [e.wall_us for e in parent.events()]


def test_adopt_empty_payload_is_a_noop():
    parent = FlightRecorder()
    parent.emit("only")
    assert parent.adopt([]) == 0
    assert len(parent) == 1


def test_span_closed_mirrors_span_into_ring():
    """A closed span stays in the tracer only; the exported timeline
    derives its ``span:<name>`` row, stamped at the span's end."""
    tracer = Tracer(process_name="repro-island-1")
    recorder = FlightRecorder()
    recorder.emit("cache", category="cache", kind="miss")
    with tracer.span("workload", category="pipeline", rows=42):
        pass
    assert [e.name for e in recorder.events()] == ["cache"]
    (record,) = tracer.finished()
    rows = timeline_events(recorder, tracer)
    assert [e.name for e in rows] == ["cache", "span:workload"]
    assert [e.wall_us for e in rows] == sorted(e.wall_us for e in rows)
    row = rows[1]
    assert row.category == "pipeline"
    assert row.wall_us == record.end_us
    assert row.pid == record.pid
    assert row.attrs == {
        "rows": 42,
        "duration_us": record.duration_us,
        "track": "repro-island-1",
    }
    assert "span:workload" in summarize_events(rows)
    assert len(recorder) == 1  # exporting records nothing
    assert timeline_events(NULL_RECORDER, NULL_TRACER) == []


def test_timeline_interleaves_spans_on_the_wall_clock():
    tracer = Tracer()
    recorder = FlightRecorder()
    with tracer.span("outer"):
        recorder.emit("island.epoch", epoch=0)
        with tracer.span("inner"):
            pass
    rows = timeline_events(recorder, tracer)
    assert [e.name for e in rows] == ["island.epoch", "span:inner", "span:outer"]
    assert "track" not in rows[1].attrs  # an unnamed tracer has no lane


def test_write_jsonl_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    recorder = FlightRecorder(island=4)
    recorder.emit("a", category="x", value=1)
    recorder.emit("b", category="y", value=2)
    write_jsonl(path, recorder.events())
    assert len(recorder) == 2  # writing leaves the ring as it was
    loaded = list(read_jsonl(path))
    assert [(e.name, e.category, e.island) for e in loaded] == [
        ("a", "x", 4),
        ("b", "y", 4),
    ]
    write_jsonl(path, recorder.events()[:1])
    assert [e.name for e in read_jsonl(path)] == ["a"]  # overwrites


def test_null_recorder_is_inert():
    assert NULL_RECORDER.enabled is False
    NULL_RECORDER.emit("anything", category="x", a=1)
    assert NULL_RECORDER.events() == []
    assert NULL_RECORDER.drain_payload() == []
    assert NULL_RECORDER.adopt([{"name": "x", "wall_us": 1}]) == 0
    assert len(NULL_RECORDER) == 0


def test_record_event_routes_through_ambient_runtime():
    recorder = FlightRecorder()
    with runtime.use(None, None, recorder):
        runtime.record_event("hello", category="test", n=1)
    runtime.record_event("dropped-after-scope", category="test")
    (event,) = recorder.events()
    assert event.name == "hello"
    assert runtime.get_recorder() is NULL_RECORDER


def test_default_capacity_is_sane():
    recorder = FlightRecorder()
    assert recorder.capacity == DEFAULT_CAPACITY


def _fork_worker(island: int, conn) -> None:
    recorder = FlightRecorder(island=island)
    for epoch in range(3):
        recorder.emit("island.epoch", category="interchange", epoch=epoch)
    conn.send(recorder.drain_payload())
    conn.close()


def test_drain_and_merge_across_fork_workers():
    """Worker rings merge into one parent timeline, stamps intact."""
    ctx = multiprocessing.get_context("fork")
    parent = FlightRecorder()
    parent.emit("parent.start")
    conns = []
    procs = []
    for island in range(2):
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_fork_worker, args=(island, send))
        proc.start()
        send.close()
        conns.append(recv)
        procs.append(proc)
    for conn in conns:
        parent.adopt(conn.recv())
        conn.close()
    for proc in procs:
        proc.join()
        assert proc.exitcode == 0
    events = parent.events()
    assert len(events) == 1 + 2 * 3
    assert {e.island for e in events if e.island is not None} == {0, 1}
    pids = {e.pid for e in events}
    assert len(pids) == 3  # parent + two workers
    assert [e.wall_us for e in events] == sorted(e.wall_us for e in events)
    summary = summarize_events(events)
    assert "2 island(s)" in summary
    assert "3 process(es)" in summary


def test_summarize_events_empty():
    assert "no events" in summarize_events([])
