"""`repro.obs` — end-to-end tracing and metrics for the reproduction.

The paper's contribution is a monitoring pipeline turned into
analysis; this package is the reproduction watching *itself* the same
way.  One instrumentation spine threads through the dataset engine,
the scheduler, the monitoring collector, the frame kernels, and the
figure harness:

* :class:`~repro.obs.trace.Tracer` — nested, attribute-carrying spans
  (thread-safe, context-manager API, a true no-op fast path via
  :data:`~repro.obs.trace.NULL_TRACER`);
* :class:`~repro.obs.metrics.MetricsRegistry` — labelled counters,
  gauges, and fixed-bucket histograms, with snapshot/merge for
  forked-host propagation;
* :class:`~repro.obs.events.FlightRecorder` — a bounded ring of
  structured events for the moments no span covers (cache probes,
  island epoch boundaries, k-way merges), with the same no-op fast
  path via :data:`~repro.obs.events.NULL_RECORDER`;
* :mod:`~repro.obs.progress` — live island telemetry: the ambient
  progress sink that folds each island's ``island.epoch`` events, and
  the ``--progress`` / ``repro obs top`` renderers;
* :mod:`~repro.obs.runtime` — the ambient (tracer, metrics, recorder)
  triple library code reads, scoped by sessions and island hosts;
* :mod:`~repro.obs.export` — Chrome trace-event JSON, Prometheus text
  exposition, the human-readable run report, and the event timeline
  (:func:`~repro.obs.export.timeline_events`: the recorder's events
  plus one ``span:<name>`` row per finished span, written as JSONL by
  :func:`~repro.obs.events.write_jsonl`).

Each record is kept once: span closes live only in the tracer, and the
timeline derives their rows at export; an island epoch is one
``island.epoch`` event, which the recorder keeps and the progress sink
folds.

See ``docs/observability.md`` for the span model, the metric catalog,
and the overhead contract.
"""

from repro.obs.events import (
    EventRecord,
    FlightRecorder,
    NULL_RECORDER,
    NullRecorder,
    read_jsonl,
    summarize_events,
    write_jsonl,
)
from repro.obs.export import (
    chrome_trace_events,
    parse_prometheus_text,
    prometheus_text,
    run_report,
    summarize_chrome_trace,
    timeline_events,
    write_chrome_trace,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
)
from repro.obs.progress import ProgressAggregator, ProgressPrinter
from repro.obs.trace import NULL_TRACER, NullTracer, SpanRecord, Tracer

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "DEFAULT_BUCKETS",
    "EventRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_RECORDER",
    "NULL_TRACER",
    "NullMetrics",
    "NullRecorder",
    "NullTracer",
    "ProgressAggregator",
    "ProgressPrinter",
    "SpanRecord",
    "Tracer",
    "chrome_trace_events",
    "parse_prometheus_text",
    "prometheus_text",
    "read_jsonl",
    "run_report",
    "summarize_chrome_trace",
    "summarize_events",
    "timeline_events",
    "write_chrome_trace",
    "write_jsonl",
]
