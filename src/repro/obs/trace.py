"""Nested, attribute-carrying spans — the tracing half of `repro.obs`.

A :class:`Tracer` records a tree of timed spans.  Every span has a
stable integer id, a parent (the span that was open on the same thread
when it started), a wall-clock timestamp in microseconds, a duration,
and a free-form attribute dict.  The API is a context manager::

    tracer = Tracer()
    with tracer.span("assemble", category="pipeline") as span:
        ...
        span.set(rows=table.num_rows)

Three properties the rest of the system depends on:

* **thread safety** — each thread keeps its own open-span stack
  (``threading.local``), so concurrent spans nest per thread and land
  in one shared finished list under a lock;
* **a true no-op fast path** — :data:`NULL_TRACER` returns one shared
  inert span object and allocates nothing, so instrumented code can
  unconditionally write ``with tracer.span(...)`` (the enabled check
  is a single attribute load for callers that want to skip even the
  attribute plumbing);
* **cross-process merging** — a worker tracer serialises its finished
  spans to a list of plain dicts (:meth:`Tracer.drain_payload`) and
  the parent re-parents them into its own tree
  (:meth:`Tracer.adopt`), remapping ids so they can never collide.

Timestamps are wall-clock anchored (``time.time`` at import, advanced
by ``time.perf_counter``), so spans recorded in different processes of
one run share a timeline to within clock skew — good enough for a
Chrome trace where workers render as separate process lanes.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

#: perf_counter -> unix epoch seconds, fixed at import time.
_EPOCH_OFFSET_S = time.time() - time.perf_counter()


def _now_us() -> int:
    """Current wall-clock time in integer microseconds."""
    return int((time.perf_counter() + _EPOCH_OFFSET_S) * 1e6)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    start_us: int
    duration_us: int
    pid: int
    tid: int
    attrs: dict[str, Any] = field(default_factory=dict)
    #: Display track: non-empty for spans recorded by a named worker
    #: tracer (e.g. ``repro-island-2``); exporters use it to render
    #: islands as separate lanes even when one pid ran several.
    track: str = ""

    @property
    def end_us(self) -> int:
        return self.start_us + self.duration_us

    def to_payload(self) -> dict[str, Any]:
        """A plain-dict form that pickles/JSONs across processes."""
        payload = {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.category,
            "ts": self.start_us,
            "dur": self.duration_us,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }
        if self.track:
            payload["track"] = self.track
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SpanRecord":
        return cls(
            span_id=int(payload["id"]),
            parent_id=None if payload.get("parent") is None else int(payload["parent"]),
            name=str(payload["name"]),
            category=str(payload.get("cat", "repro")),
            start_us=int(payload["ts"]),
            duration_us=int(payload["dur"]),
            pid=int(payload.get("pid", 0)),
            tid=int(payload.get("tid", 0)),
            attrs=dict(payload.get("attrs", {})),
            track=str(payload.get("track", "")),
        )


class _ActiveSpan:
    """The open span yielded by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "category", "attrs", "_start_us")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        category: str,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.attrs = attrs
        self._start_us = 0

    def set(self, **attrs: Any) -> "_ActiveSpan":
        """Attach attributes to the span (merged at any point)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._push(self)
        self._start_us = _now_us()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = _now_us() - self._start_us
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self, duration)
        return False


class _NullSpan:
    """Shared inert span: zero allocation, every operation a no-op."""

    __slots__ = ()
    span_id = 0
    parent_id = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every call is a cheap no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, category: str = "repro", **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def current_span_id(self) -> None:
        return None

    def depth(self) -> int:
        return 0

    def finished(self) -> list[SpanRecord]:
        return []

    def export_payload(self) -> list[dict[str, Any]]:
        return []

    def drain_payload(self) -> list[dict[str, Any]]:
        return []

    def adopt(self, payload: Iterable[Mapping[str, Any]], parent: int | None = None) -> int:
        return 0


NULL_TRACER = NullTracer()


class Tracer:
    """Collects a thread-safe tree of finished spans.

    The tracer is the one store of span closes; the exported event
    timeline (:func:`repro.obs.export.timeline_events`) derives its
    ``span:<name>`` rows from :meth:`finished`.
    """

    enabled = True

    def __init__(self, process_name: str = "repro") -> None:
        self.process_name = process_name
        #: Track stamped on every span this tracer records; named
        #: worker tracers get their process name so exporters can
        #: render them as distinct lanes.
        self.track = process_name if process_name != "repro" else ""
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._finished: list[SpanRecord] = []
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "repro", **attrs: Any) -> _ActiveSpan:
        """Open a span; use as a context manager."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        return _ActiveSpan(self, next(self._ids), parent_id, name, category, attrs)

    def _stack(self) -> list[_ActiveSpan]:
        try:
            return self._local.stack
        except AttributeError:
            stack: list[_ActiveSpan] = []
            self._local.stack = stack
            return stack

    def _push(self, span: _ActiveSpan) -> None:
        stack = self._stack()
        # re-resolve the parent at entry: span() and __enter__ may be
        # separated by other spans opening on this thread
        span.parent_id = stack[-1].span_id if stack else span.parent_id
        stack.append(span)

    def _pop(self, span: _ActiveSpan, duration_us: int) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # tolerate mismatched exits rather than corrupting the stack
            try:
                stack.remove(span)
            except ValueError:
                pass
        record = SpanRecord(
            span_id=span.span_id,
            parent_id=span.parent_id,
            name=span.name,
            category=span.category,
            start_us=span._start_us,
            duration_us=max(duration_us, 0),
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=span.attrs,
            track=self.track,
        )
        with self._lock:
            self._finished.append(record)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def current_span_id(self) -> int | None:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def depth(self) -> int:
        """How many spans are open on the calling thread."""
        return len(self._stack())

    def finished(self) -> list[SpanRecord]:
        """Finished spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def roots(self) -> list[SpanRecord]:
        """Finished spans with no parent, in start order."""
        finished = self.finished()
        ids = {record.span_id for record in finished}
        return sorted(
            (r for r in finished if r.parent_id is None or r.parent_id not in ids),
            key=lambda r: r.start_us,
        )

    # ------------------------------------------------------------------
    # Cross-process propagation
    # ------------------------------------------------------------------
    def export_payload(self) -> list[dict[str, Any]]:
        """Finished spans as plain dicts (picklable, JSON-able)."""
        return [record.to_payload() for record in self.finished()]

    def drain_payload(self) -> list[dict[str, Any]]:
        """Export finished spans and clear them (worker hand-off)."""
        with self._lock:
            finished, self._finished = self._finished, []
        return [record.to_payload() for record in finished]

    def adopt(
        self, payload: Iterable[Mapping[str, Any]], parent: int | None = None
    ) -> int:
        """Merge spans exported by another tracer into this one.

        Span ids are remapped onto this tracer's id space (collisions
        are impossible) and the payload's root spans — those whose
        parent is ``None`` or absent from the payload — are re-parented
        under ``parent``.  Worker pid/tid are preserved so the merged
        trace still shows which process did the work.  Returns the
        number of spans adopted.
        """
        records = [SpanRecord.from_payload(p) for p in payload]
        known = {record.span_id for record in records}
        remap = {record.span_id: next(self._ids) for record in records}
        adopted = []
        for record in records:
            if record.parent_id is not None and record.parent_id in known:
                new_parent = remap[record.parent_id]
            else:
                new_parent = parent
            adopted.append(
                SpanRecord(
                    span_id=remap[record.span_id],
                    parent_id=new_parent,
                    name=record.name,
                    category=record.category,
                    start_us=record.start_us,
                    duration_us=record.duration_us,
                    pid=record.pid,
                    tid=record.tid,
                    attrs=record.attrs,
                    track=record.track,
                )
            )
        with self._lock:
            self._finished.extend(adopted)
        return len(adopted)
