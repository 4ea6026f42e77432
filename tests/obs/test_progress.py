"""Live telemetry: the ambient sink folding ``island.epoch`` events,
and the rendered island table."""

from __future__ import annotations

import io

from repro.obs.events import EventRecord
from repro.obs.progress import (
    ProgressAggregator,
    ProgressPrinter,
    get_sink,
    use_sink,
)


def _epoch(island: int = 0, epoch: int = 1, **overrides) -> EventRecord:
    attrs = dict(
        epoch=epoch,
        sim_time_s=3600.0 * epoch,
        queue_depth=5,
        running=2,
        events=100,
        dispatched=40,
        peak_rss_bytes=256 * 1024 * 1024,
        spill_bytes=0.0,
    )
    attrs.update(overrides)
    return EventRecord.now("island.epoch", "interchange", island, **attrs)


def test_ambient_sink_scoping():
    assert get_sink() is None
    agg = ProgressAggregator()
    with use_sink(agg):
        assert get_sink() is agg
        get_sink().update(_epoch(island=1))
        get_sink().update(_epoch(island=2))
    assert get_sink() is None
    assert agg.updates == 2
    assert {event.island for event in agg.islands()} == {1, 2}


def test_use_sink_restores_previous_sink():
    outer = ProgressAggregator()
    inner = ProgressAggregator()
    with use_sink(outer):
        with use_sink(inner):
            get_sink().update(_epoch())
        assert get_sink() is outer
    assert get_sink() is None
    assert inner.updates == 1
    assert outer.updates == 0


def test_aggregator_keeps_latest_per_island():
    agg = ProgressAggregator()
    agg.update(_epoch(island=0, epoch=1))
    agg.update(_epoch(island=0, epoch=5))
    agg.update(_epoch(island=1, epoch=2))
    assert agg.updates == 3
    latest = {event.island: event.attrs["epoch"] for event in agg.islands()}
    assert latest == {0: 5, 1: 2}


def test_aggregator_on_update_callback():
    seen = []
    agg = ProgressAggregator(on_update=lambda a: seen.append(a.updates))
    agg.update(_epoch())
    agg.update(_epoch(epoch=2))
    assert seen == [1, 2]


def test_render_contains_island_rows():
    agg = ProgressAggregator()
    agg.update(_epoch(island=0, epoch=12, queue_depth=99))
    text = agg.render()
    assert "1 island(s)" in text
    assert "sim-clock" in text
    assert "99" in text
    assert "256.0MiB" in text


def test_render_without_heartbeats():
    assert "no island epochs yet" in ProgressAggregator().render()


def test_printer_plain_mode_emits_lines():
    stream = io.StringIO()
    printer = ProgressPrinter(stream, interval_s=0.0, live=False)
    printer.update(_epoch(island=0, epoch=3, queue_depth=7))
    printer.finish()
    out = stream.getvalue()
    assert "progress: i0:e3/q7" in out
    assert "sharded build: 1 island(s)" in out  # the final table


def test_printer_live_mode_redraws_in_place():
    stream = io.StringIO()
    printer = ProgressPrinter(stream, interval_s=0.0, live=True)
    printer.update(_epoch(island=0, epoch=1))
    printer.update(_epoch(island=0, epoch=2))
    out = stream.getvalue()
    assert "\x1b[" in out  # cursor-up + clear between frames
    printer.finish()  # live mode leaves the last frame on screen
    assert stream.getvalue() == out


def test_printer_throttles_redraws():
    stream = io.StringIO()
    printer = ProgressPrinter(stream, interval_s=60.0, live=False)
    printer.update(_epoch(epoch=1))
    printer.update(_epoch(epoch=2))  # within the interval: suppressed
    assert stream.getvalue().count("progress:") == 1
