"""Live telemetry: heartbeats, the ambient sink, rendering, sampler."""

from __future__ import annotations

import io
import time

from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import (
    Heartbeat,
    ProgressAggregator,
    ProgressPrinter,
    ResourceSampler,
    get_sink,
    use_sink,
)


def _beat(island: int = 0, epoch: int = 1, **overrides) -> Heartbeat:
    fields = dict(
        island=island,
        epoch=epoch,
        sim_time_s=3600.0 * epoch,
        queue_depth=5,
        running=2,
        events=100,
        dispatched=40,
        peak_rss_bytes=256 * 1024 * 1024,
        spill_bytes=0.0,
    )
    fields.update(overrides)
    return Heartbeat(**fields)


def test_heartbeat_payload_round_trip():
    beat = _beat(island=3, epoch=7)
    twin = Heartbeat.from_payload(beat.to_payload())
    assert twin == beat


def test_ambient_sink_scoping():
    assert get_sink() is None
    agg = ProgressAggregator()
    with use_sink(agg):
        assert get_sink() is agg
        get_sink().update(_beat(island=1))
        get_sink().update(_beat(island=2).to_payload())  # plain dicts work too
    assert get_sink() is None
    assert agg.heartbeats == 2
    assert {hb.island for hb in agg.islands()} == {1, 2}


def test_use_sink_restores_previous_sink():
    outer = ProgressAggregator()
    inner = ProgressAggregator()
    with use_sink(outer):
        with use_sink(inner):
            get_sink().update(_beat())
        assert get_sink() is outer
    assert get_sink() is None
    assert inner.heartbeats == 1
    assert outer.heartbeats == 0


def test_aggregator_keeps_latest_per_island():
    agg = ProgressAggregator()
    agg.update(_beat(island=0, epoch=1))
    agg.update(_beat(island=0, epoch=5))
    agg.update(_beat(island=1, epoch=2))
    assert agg.heartbeats == 3
    latest = {hb.island: hb.epoch for hb in agg.islands()}
    assert latest == {0: 5, 1: 2}


def test_aggregator_on_update_callback():
    seen = []
    agg = ProgressAggregator(on_update=lambda a: seen.append(a.heartbeats))
    agg.update(_beat())
    agg.update(_beat(epoch=2))
    assert seen == [1, 2]


def test_render_contains_island_rows():
    agg = ProgressAggregator()
    agg.update(_beat(island=0, epoch=12, queue_depth=99))
    text = agg.render()
    assert "1 island(s)" in text
    assert "sim-clock" in text
    assert "99" in text
    assert "256.0MiB" in text


def test_render_without_heartbeats():
    assert "no heartbeats yet" in ProgressAggregator().render()


def test_printer_plain_mode_emits_lines():
    stream = io.StringIO()
    printer = ProgressPrinter(stream, interval_s=0.0, live=False)
    printer.update(_beat(island=0, epoch=3, queue_depth=7))
    printer.finish()
    out = stream.getvalue()
    assert "progress: i0:e3/q7" in out
    assert "sharded build: 1 island(s)" in out  # the final table


def test_printer_live_mode_redraws_in_place():
    stream = io.StringIO()
    printer = ProgressPrinter(stream, interval_s=0.0, live=True)
    printer.update(_beat(island=0, epoch=1))
    printer.update(_beat(island=0, epoch=2))
    out = stream.getvalue()
    assert "\x1b[" in out  # cursor-up + clear between frames
    printer.finish()  # live mode leaves the last frame on screen
    assert stream.getvalue() == out


def test_printer_throttles_redraws():
    stream = io.StringIO()
    printer = ProgressPrinter(stream, interval_s=60.0, live=False)
    printer.update(_beat(epoch=1))
    printer.update(_beat(epoch=2))  # within the interval: suppressed
    assert stream.getvalue().count("progress:") == 1


def test_resource_sampler_records_gauges():
    metrics = MetricsRegistry()
    metrics.counter("repro_frame_stream_rows_total", op="spill").inc(1000)
    sampler = ResourceSampler(metrics, interval_s=0.01)
    with sampler:
        metrics.counter("repro_frame_stream_rows_total", op="spill").inc(500)
        time.sleep(0.05)
    assert sampler.samples >= 1
    assert metrics.gauge("repro_process_peak_rss_bytes").value > 0
    # 500 rows arrived during the sampling window: throughput is positive.
    assert metrics.gauge("repro_stream_rows_per_s").value >= 0


def test_resource_sampler_uses_ambient_registry_when_unbound():
    from repro.obs import runtime

    metrics = MetricsRegistry()
    sampler = ResourceSampler()  # no registry bound at construction
    with runtime.use(None, metrics, None):
        sampler.sample()
    assert metrics.gauge("repro_process_peak_rss_bytes").value > 0


def test_resource_sampler_disabled_registry_is_inert():
    from repro.obs.metrics import NULL_METRICS

    sampler = ResourceSampler(NULL_METRICS)
    sampler.sample()
    assert sampler.samples == 0  # nothing to record against
