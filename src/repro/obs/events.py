"""The flight recorder — a bounded structured event log for live runs.

Spans and metrics answer *how long* and *how much*; the flight
recorder answers *what just happened* at the moments no span covers:
cache probes, island epoch boundaries, and k-way merges.  It is a
bounded ring of structured :class:`EventRecord` entries, each stamped
with wall-clock **and** monotonic time, the recording pid, and the
island that produced it.  Because the ring is bounded, leaving the
recorder enabled for a multi-hour sharded build costs a fixed amount
of memory: old events fall off the back (counted in
:attr:`FlightRecorder.dropped`), recent history is always queryable.

Span closes live only in the tracer.  The exported timeline
(:func:`repro.obs.export.timeline_events`) adds one ``span:<name>``
row per finished span to the recorder's events, so "what happened"
reads as one stream without recording any moment twice.

The recorder follows the same three contracts as the tracer and the
metrics registry (:mod:`repro.obs.trace` / :mod:`repro.obs.metrics`):

* **a true no-op fast path** — :data:`NULL_RECORDER` makes ``emit``
  one method call with no allocation, so instrumented code calls
  :func:`repro.obs.runtime.record_event` unconditionally;
* **thread safety** — emission appends under a lock; the ring is
  shared across threads;
* **cross-process merging** — a worker recorder serialises its events
  to plain dicts (:meth:`FlightRecorder.drain_payload`) and the parent
  folds them in (:meth:`FlightRecorder.adopt`), preserving the worker
  pid and island id and re-sorting on the wall clock so the merged log
  reads as one timeline.

JSONL is the durable form: :func:`write_jsonl` writes a timeline to
one JSON object per line (the ``--events-out`` CLI flag) and
:func:`read_jsonl` loads it back.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

#: Default ring capacity, a few MB of memory.  A sharded build emits
#: one ``island.epoch`` event per island per epoch, so the ring keeps
#: every epoch while ``islands x epochs`` plus the cache and merge
#: events stays within it: two islands at six-hour epochs cover ~2.8
#: simulated years, four at hourly epochs ~85 days.  Past that the
#: oldest events fall off (counted in ``dropped``).
DEFAULT_CAPACITY = 8192


@dataclass(frozen=True)
class EventRecord:
    """One recorded event."""

    name: str
    category: str
    #: Wall-clock microseconds (same epoch anchor as span timestamps).
    wall_us: int
    #: Monotonic nanoseconds (``time.monotonic_ns``): orders events
    #: within one process even if the wall clock steps.  0 on the
    #: ``span:<name>`` rows of an exported timeline.
    mono_ns: int
    pid: int
    #: Island that produced the event; ``None`` outside sharded runs.
    island: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_payload(self) -> dict[str, Any]:
        """A plain-dict form that pickles/JSONs across processes."""
        return {
            "name": self.name,
            "cat": self.category,
            "wall_us": self.wall_us,
            "mono_ns": self.mono_ns,
            "pid": self.pid,
            "island": self.island,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def now(
        cls, name: str, category: str = "repro", island: int | None = None, **attrs: Any
    ) -> "EventRecord":
        """An event stamped with the current clocks and this process's pid."""
        return cls(
            name=name,
            category=category,
            wall_us=_now_us(),
            mono_ns=time.monotonic_ns(),
            pid=os.getpid(),
            island=island,
            attrs=attrs,
        )

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "EventRecord":
        island = payload.get("island")
        return cls(
            name=str(payload["name"]),
            category=str(payload.get("cat", "repro")),
            wall_us=int(payload["wall_us"]),
            mono_ns=int(payload.get("mono_ns", 0)),
            pid=int(payload.get("pid", 0)),
            island=None if island is None else int(island),
            attrs=dict(payload.get("attrs", {})),
        )


class NullRecorder:
    """The disabled recorder: every call is a cheap no-op."""

    __slots__ = ()
    enabled = False
    island = None

    def emit(self, name: str, category: str = "repro", **attrs: Any) -> None:
        pass

    def keep(self, record: EventRecord) -> None:
        pass

    def events(self) -> list[EventRecord]:
        return []

    def drain_payload(self) -> list[dict[str, Any]]:
        return []

    def adopt(self, payload: Iterable[Mapping[str, Any]]) -> int:
        return 0

    def __len__(self) -> int:
        return 0


NULL_RECORDER = NullRecorder()

# Wall-clock anchor shared with span timestamps (see repro.obs.trace).
from repro.obs.trace import _now_us  # noqa: E402  (intentional late import)


class FlightRecorder:
    """A bounded, thread-safe ring of structured events.

    Parameters
    ----------
    capacity:
        Maximum events held in memory.  The ring never grows past it.
    island:
        Island id stamped on every event this recorder emits (worker
        recorders in sharded builds set it; the parent leaves it
        ``None``).
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *, island: int | None = None) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.island = island
        #: Events that fell off the back of the full ring.
        self.dropped = 0
        self._ring: deque[EventRecord] = deque()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, name: str, category: str = "repro", **attrs: Any) -> None:
        """Record one event, stamped now, on this recorder's island."""
        island = attrs.pop("island", self.island)
        self.keep(EventRecord.now(name, category, island, **attrs))

    def keep(self, record: EventRecord) -> None:
        """Append one already-stamped event to the ring."""
        with self._lock:
            if len(self._ring) >= self.capacity:
                self._ring.popleft()
                self.dropped += 1
            self._ring.append(record)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def events(self) -> list[EventRecord]:
        """The in-memory events, oldest first."""
        with self._lock:
            return list(self._ring)

    # ------------------------------------------------------------------
    # Cross-process propagation
    # ------------------------------------------------------------------
    def drain_payload(self) -> list[dict[str, Any]]:
        """Export the ring as plain dicts and clear it (worker hand-off)."""
        with self._lock:
            drained, self._ring = self._ring, deque()
        return [record.to_payload() for record in drained]

    def adopt(self, payload: Iterable[Mapping[str, Any]]) -> int:
        """Fold events exported by another recorder into this ring.

        Worker pid and island stamps are preserved; the merged ring is
        re-sorted on the wall clock (stable, so same-timestamp events
        keep arrival order) and re-bounded to ``capacity``.  Returns
        the number of events adopted.
        """
        records = [EventRecord.from_payload(p) for p in payload]
        if not records:
            return 0
        with self._lock:
            merged = sorted(
                list(self._ring) + records, key=lambda record: record.wall_us
            )
            overflow = max(len(merged) - self.capacity, 0)
            self.dropped += overflow
            self._ring = deque(merged[overflow:])
        return len(records)


def write_jsonl(path: str | Path, events: Iterable[EventRecord]) -> Path:
    """Write ``events`` to ``path``, one JSON object per line.

    Overwrites ``path``: the file holds one run's timeline.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_payload(), default=str) + "\n")
    return path


def read_jsonl(path: str | Path) -> Iterator[EventRecord]:
    """Load events back from a JSONL file written by :func:`write_jsonl`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield EventRecord.from_payload(json.loads(line))


def summarize_events(events: Iterable[EventRecord]) -> str:
    """Condense an event stream into terminal text (counts by name)."""
    events = list(events)
    if not events:
        return "flight recorder: no events"
    by_name: dict[tuple[str, str], int] = {}
    islands: set[int] = set()
    for event in events:
        key = (event.category, event.name)
        by_name[key] = by_name.get(key, 0) + 1
        if event.island is not None:
            islands.add(event.island)
    first = min(event.wall_us for event in events)
    last = max(event.wall_us for event in events)
    lines = [
        f"{len(events)} events across {len({e.pid for e in events})} "
        f"process(es)"
        + (f", {len(islands)} island(s)" if islands else "")
        + f", {(last - first) / 1e6:.3f} s of timeline"
    ]
    ranked = sorted(by_name.items(), key=lambda kv: kv[1], reverse=True)
    for (category, name), count in ranked[:20]:
        lines.append(f"  {category:>10s}  {name:<36s} x{count}")
    if len(ranked) > 20:
        lines.append(f"  ... {len(ranked) - 20} more event names")
    return "\n".join(lines)
