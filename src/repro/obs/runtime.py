"""Ambient observability state — how instrumented layers find the
active tracer and metrics registry.

The frame kernels, the scheduler event loop, and the monitoring
collector are library code with no session reference; they read the
process-wide *current* tracer/metrics from here.  The defaults are the
null implementations, so a bare ``Table.join`` or ``SlurmSimulator``
pays only an attribute load and a branch.

:class:`~repro.pipeline.session.Session` scopes its observability with
:func:`use` around dataset builds and figure runs, and each forked
island host scopes its own triple the same way.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.events import NULL_RECORDER, FlightRecorder, NullRecorder
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

_tracer: Tracer | NullTracer = NULL_TRACER
_metrics: MetricsRegistry | NullMetrics = NULL_METRICS
_recorder: FlightRecorder | NullRecorder = NULL_RECORDER


def get_tracer() -> Tracer | NullTracer:
    """The currently active tracer (the null tracer when disabled)."""
    return _tracer


def get_metrics() -> MetricsRegistry | NullMetrics:
    """The currently active registry (the null registry when disabled)."""
    return _metrics


def get_recorder() -> FlightRecorder | NullRecorder:
    """The currently active flight recorder (null when disabled)."""
    return _recorder


@contextmanager
def use(
    tracer: Tracer | None,
    metrics: MetricsRegistry | None,
    recorder: FlightRecorder | None = None,
) -> Iterator[None]:
    """Scoped activation: restores the previous state on exit."""
    global _tracer, _metrics, _recorder
    prev = (_tracer, _metrics, _recorder)
    _tracer = tracer if tracer is not None else NULL_TRACER
    _metrics = metrics if metrics is not None else NULL_METRICS
    _recorder = recorder if recorder is not None else NULL_RECORDER
    try:
        yield
    finally:
        _tracer, _metrics, _recorder = prev


def record_event(name: str, category: str = "repro", **attrs: Any) -> None:
    """Emit one event into the active flight recorder.

    This is the single call sites make for the moments no span covers
    (cache probes, island epoch boundaries, k-way merges); when
    recording is disabled it is one function call, one attribute load,
    and one branch.
    """
    r = _recorder
    if r.enabled:
        r.emit(name, category, **attrs)


def record_peak_rss() -> None:
    """Record the process's peak RSS (bytes) into the active registry.

    Gauges merge by max across snapshots, so forked island hosts and
    the parent session roll up to the single highest high-water mark.
    With metrics disabled this returns before the ``getrusage`` call.
    """
    m = _metrics
    if m.enabled:
        value = peak_rss_bytes()
        if value:
            m.gauge(
                "repro_process_peak_rss_bytes",
                help="peak resident set size of the process (ru_maxrss)",
            ).set_max(value)


def peak_rss_bytes() -> float:
    """The process's lifetime peak RSS in bytes (``ru_maxrss``)."""
    try:
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return float(peak) * (1.0 if sys.platform == "darwin" else 1024.0)
    except Exception:
        return 0.0


def record_kernel(kernel: str, rows: int) -> None:
    """Count one frame-kernel invocation over ``rows`` input rows.

    This is the single call sites in :mod:`repro.frame` make; when
    observability is disabled it is one function call, one attribute
    load, and one branch.
    """
    m = _metrics
    if m.enabled:
        m.counter(
            "repro_frame_kernel_calls_total",
            help="frame kernel entry-point invocations",
            kernel=kernel,
        ).inc()
        m.counter(
            "repro_frame_kernel_rows_total",
            help="input rows processed by frame kernels",
            kernel=kernel,
        ).inc(rows)
