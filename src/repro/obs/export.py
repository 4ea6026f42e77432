"""Exporters: Chrome trace-event JSON, Prometheus text exposition, and
the human-readable run report.

* :func:`chrome_trace_events` / :func:`write_chrome_trace` — the
  Trace Event Format consumed by ``chrome://tracing`` and Perfetto:
  one ``"X"`` (complete) event per span with ``pid/tid/ts/dur``, plus
  ``"M"`` metadata events naming each process lane.  Span ids travel
  in ``args`` so the tree survives a round trip exactly.
* :func:`prometheus_text` / :func:`parse_prometheus_text` — the text
  exposition format (``# HELP`` / ``# TYPE`` / samples, histograms as
  cumulative ``_bucket{le=...}`` + ``_sum`` + ``_count``).
* :func:`run_report` — an indented span tree and a metric digest for
  terminals; :func:`summarize_chrome_trace` re-reads an exported
  trace file and condenses it (the ``repro obs --trace`` path).
* :func:`timeline_events` — the flight recorder's events plus one
  ``span:<name>`` row per finished span, on one wall clock (the
  ``--events-out`` file and the ``repro obs`` event digests).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.events import EventRecord, FlightRecorder, NullRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTracer, SpanRecord, Tracer

# ----------------------------------------------------------------------
# Chrome trace events
# ----------------------------------------------------------------------


def _as_records(source: "Tracer | Iterable[SpanRecord]") -> list[SpanRecord]:
    if isinstance(source, Tracer):
        return source.finished()
    return list(source)


def _track_tids(
    records: Sequence[SpanRecord],
) -> dict[tuple[int, str], int]:
    """Synthetic tid per (pid, track) for spans recorded on a track.

    Worker-adopted island spans carry a ``track`` name (e.g.
    ``repro-island-2``); giving each (pid, track) pair its own tid
    renders islands as separate lanes instead of interleaving on one
    row when a single host process ran several islands.  Untracked
    spans keep their real OS thread id.  Synthetic tids start above
    every real tid in the trace so they can never collide.
    """
    tracked = sorted(
        {(r.pid, r.track) for r in records if r.track},
        key=lambda key: (key[1], key[0]),
    )
    if not tracked:
        return {}
    base = max((r.tid for r in records), default=0) + 1
    return {key: base + index for index, key in enumerate(tracked)}


def chrome_trace_events(source: "Tracer | Iterable[SpanRecord]") -> list[dict[str, Any]]:
    """Spans as Trace Event Format event dicts, sorted by timestamp."""
    records = _as_records(source)
    events: list[dict[str, Any]] = []
    pids = sorted({record.pid for record in records})
    for pid in pids:
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"repro pid {pid}"},
            }
        )
    track_tids = _track_tids(records)
    for (pid, track), tid in sorted(track_tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": track},
            }
        )
    spans = [
        {
            "ph": "X",
            "pid": record.pid,
            "tid": track_tids.get((record.pid, record.track), record.tid),
            "ts": record.start_us,
            "dur": record.duration_us,
            "name": record.name,
            "cat": record.category,
            "args": {
                "span_id": record.span_id,
                "parent_id": record.parent_id,
                **record.attrs,
            },
        }
        for record in records
    ]
    spans.sort(key=lambda e: (e["ts"], -e["dur"]))
    return events + spans


def write_chrome_trace(
    path: str | Path,
    source: "Tracer | Iterable[SpanRecord]",
    metadata: Mapping[str, Any] | None = None,
) -> Path:
    """Write a ``chrome://tracing``-loadable JSON file."""
    document = {
        "traceEvents": chrome_trace_events(source),
        "displayTimeUnit": "ms",
    }
    if metadata:
        document["otherData"] = dict(metadata)
    path = Path(path)
    path.write_text(json.dumps(document, default=str), encoding="utf-8")
    return path


def summarize_chrome_trace(path: str | Path) -> str:
    """Condense an exported trace file back into terminal text."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    events = [e for e in document.get("traceEvents", []) if e.get("ph") == "X"]
    if not events:
        return "empty trace (no complete events)"
    by_name: dict[tuple[str, str], tuple[int, float]] = {}
    for event in events:
        key = (event.get("cat", ""), event["name"])
        count, total = by_name.get(key, (0, 0.0))
        by_name[key] = (count + 1, total + event.get("dur", 0) / 1e6)
    first = min(e["ts"] for e in events)
    last = max(e["ts"] + e.get("dur", 0) for e in events)
    pids = {e["pid"] for e in events}
    lines = [
        f"{len(events)} spans across {len(pids)} process(es), "
        f"{(last - first) / 1e6:.3f} s of timeline",
    ]
    ranked = sorted(by_name.items(), key=lambda kv: kv[1][1], reverse=True)
    for (category, name), (count, total) in ranked[:20]:
        lines.append(f"  {category:>10s}  {name:<28s} x{count:<4d} {total:8.3f} s")
    if len(ranked) > 20:
        lines.append(f"  ... {len(ranked) - 20} more span names")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Event timeline
# ----------------------------------------------------------------------


def timeline_events(
    recorder: FlightRecorder | NullRecorder, tracer: Tracer | NullTracer
) -> list[EventRecord]:
    """The recorder's events plus one ``span:<name>`` row per finished span.

    Span closes are kept only by the tracer; this derives their rows at
    export.  Each row carries the span's attributes, ``duration_us``
    and (for a worker lane) ``track``, and is stamped with the span's
    pid at its end.  Rows are sorted on the wall clock, recorder events
    first on a tie.
    """
    rows = recorder.events()
    for record in tracer.finished():
        attrs = {**record.attrs, "duration_us": record.duration_us}
        if record.track:
            attrs["track"] = record.track
        rows.append(
            EventRecord(
                name=f"span:{record.name}",
                category=record.category,
                wall_us=record.end_us,
                mono_ns=0,
                pid=record.pid,
                attrs=attrs,
            )
        )
    rows.sort(key=lambda event: event.wall_us)
    return rows


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(labels: Sequence[tuple[str, str]]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(metrics: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    for kind in ("counter", "gauge", "histogram"):
        seen: set[str] = set()
        for name, labels, instrument in metrics.samples(kind):
            if name not in seen:
                seen.add(name)
                help_text = metrics.help_text(name)
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
            if kind == "histogram":
                for bound, cumulative in instrument.cumulative():
                    le = _format_labels(tuple(labels) + (("le", _format_value(bound)),))
                    lines.append(f"{name}_bucket{le} {cumulative}")
                lines.append(f"{name}_sum{_format_labels(labels)} {_format_value(instrument.sum)}")
                lines.append(f"{name}_count{_format_labels(labels)} {instrument.count}")
            else:
                lines.append(f"{name}{_format_labels(labels)} {_format_value(instrument.value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse exposition text back into ``{(name, labels): value}``.

    Supports exactly the subset :func:`prometheus_text` emits — enough
    for round-trip tests and for ``repro obs`` to re-read a metrics
    file.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        value = float(value_part.replace("+Inf", "inf"))
        if "{" in name_part:
            name, _, label_body = name_part.partition("{")
            label_body = label_body.rstrip("}")
            labels = []
            for chunk in _split_labels(label_body):
                key, _, raw = chunk.partition("=")
                raw = raw.strip().strip('"')
                labels.append(
                    (key.strip(), raw.replace(r"\n", "\n").replace(r"\"", '"').replace(r"\\", "\\"))
                )
            samples[(name, tuple(labels))] = value
        else:
            samples[(name_part, ())] = value
    return samples


def _split_labels(body: str) -> list[str]:
    """Split ``k1="v1",k2="v2"`` on commas outside quoted values."""
    chunks, current, in_quotes, escaped = [], [], False, False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
        elif char == "\\":
            current.append(char)
            escaped = True
        elif char == '"':
            current.append(char)
            in_quotes = not in_quotes
        elif char == "," and not in_quotes:
            chunks.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        chunks.append("".join(current))
    return chunks


# ----------------------------------------------------------------------
# Human-readable run report
# ----------------------------------------------------------------------


def _render_span(
    record: SpanRecord,
    children: Mapping[int | None, list[SpanRecord]],
    depth: int,
    lines: list[str],
) -> None:
    attrs = " ".join(f"{k}={v}" for k, v in record.attrs.items())
    suffix = f"  [{attrs}]" if attrs else ""
    lines.append(
        f"  {'  ' * depth}{record.name:<{max(30 - 2 * depth, 8)}s} "
        f"{record.duration_us / 1e6:9.3f} s{suffix}"
    )
    for child in children.get(record.span_id, []):
        _render_span(child, children, depth + 1, lines)


def run_report(tracer: Tracer, metrics: MetricsRegistry) -> str:
    """An operator-facing digest: span tree plus metric summary."""
    lines: list[str] = []
    records = tracer.finished() if isinstance(tracer, Tracer) else []
    if records:
        ids = {record.span_id for record in records}
        children: dict[int | None, list[SpanRecord]] = {}
        roots: list[SpanRecord] = []
        for record in records:
            if record.parent_id is None or record.parent_id not in ids:
                roots.append(record)
            else:
                children.setdefault(record.parent_id, []).append(record)
        for bucket in children.values():
            bucket.sort(key=lambda r: r.start_us)
        roots.sort(key=lambda r: r.start_us)
        lines.append(f"== trace ({len(records)} spans) ==")
        for root in roots:
            _render_span(root, children, 0, lines)
    else:
        lines.append("== trace (empty) ==")
    lines.append("")
    lines.append("== metrics ==")
    counters = metrics.samples("counter") if metrics.enabled else []
    gauges = metrics.samples("gauge") if metrics.enabled else []
    histograms = metrics.samples("histogram") if metrics.enabled else []
    if not (counters or gauges or histograms):
        lines.append("  (none recorded)")
    for name, labels, counter in counters:
        lines.append(f"  {name}{_format_labels(labels)} = {_format_value(counter.value)}")
    for name, labels, gauge in gauges:
        lines.append(f"  {name}{_format_labels(labels)} = {_format_value(gauge.value)}")
    for name, labels, hist in histograms:
        mean = hist.sum / hist.count if hist.count else 0.0
        lines.append(
            f"  {name}{_format_labels(labels)}: n={hist.count} "
            f"sum={hist.sum:.3f} mean={mean:.4f}"
        )
    return "\n".join(lines)
