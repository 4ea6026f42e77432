"""Counters, gauges, and fixed-bucket histograms — the metrics half of
`repro.obs`.

A :class:`MetricsRegistry` is a flat namespace of labelled
instruments::

    metrics = MetricsRegistry()
    metrics.counter("repro_scheduler_events_total", kind="submit").inc()
    metrics.histogram("repro_scheduler_queue_depth").observe(12)

Instruments are get-or-create: the first call for a ``(name, labels)``
pair creates it, later calls return the same object, so hot paths can
cache the handle outside their loop.  Label values are stringified
(Prometheus semantics).  A registry snapshots to a plain picklable
dict (:meth:`snapshot` / :meth:`drain`) and merges snapshots from
worker processes (:meth:`merge`): counters and histograms add,
gauges keep the maximum — the only gauge-merge that makes sense for
the peak-style gauges used here.

:data:`NULL_METRICS` is the disabled registry: every accessor returns
one shared inert instrument, so the disabled path costs one method
call and no allocation.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

#: Default histogram upper bounds, in seconds (latency-shaped).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)

#: Bounds suited to count-valued histograms (queue depths, row counts).
COUNT_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 5000.0,
)

LabelItems = tuple[tuple[str, str], ...]


def _label_items(labels: Mapping[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, by: float = 1.0) -> None:
        self.value += by


class Gauge:
    """A point-in-time value (merged across processes by maximum)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with Prometheus cumulative semantics."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        #: per-bucket (non-cumulative) counts; the extra slot is +Inf
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at +Inf."""
        out, running = [], 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for the disabled registry."""

    __slots__ = ()
    value = 0.0
    sum = 0.0
    count = 0

    def inc(self, by: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The disabled registry: every accessor is a no-op."""

    __slots__ = ()
    enabled = False

    def counter(self, name: str, help: str = "", **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        help: str = "", **labels: Any,
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict[str, Any]:
        return {"counters": [], "gauges": [], "histograms": []}

    def drain(self) -> dict[str, Any]:
        return self.snapshot()

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        pass


NULL_METRICS = NullMetrics()


class MetricsRegistry:
    """A namespace of labelled counters, gauges, and histograms."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelItems], Counter] = {}
        self._gauges: dict[tuple[str, LabelItems], Gauge] = {}
        self._histograms: dict[tuple[str, LabelItems], Histogram] = {}
        self._help: dict[str, str] = {}
        self._kind: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Instrument access (get-or-create)
    # ------------------------------------------------------------------
    def _register(self, name: str, kind: str, help: str) -> None:
        seen = self._kind.get(name)
        if seen is None:
            self._kind[name] = kind
        elif seen != kind:
            raise ValueError(f"metric {name!r} already registered as a {seen}")
        # first non-empty help wins (it may have arrived via merge()
        # before the first local registration)
        if help and not self._help.get(name):
            self._help[name] = help

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        key = (name, _label_items(labels))
        try:
            return self._counters[key]
        except KeyError:
            with self._lock:
                self._register(name, "counter", help)
                return self._counters.setdefault(key, Counter())

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        key = (name, _label_items(labels))
        try:
            return self._gauges[key]
        except KeyError:
            with self._lock:
                self._register(name, "gauge", help)
                return self._gauges.setdefault(key, Gauge())

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        help: str = "", **labels: Any,
    ) -> Histogram:
        key = (name, _label_items(labels))
        try:
            return self._histograms[key]
        except KeyError:
            with self._lock:
                self._register(name, "histogram", help)
                return self._histograms.setdefault(key, Histogram(buckets))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self._kind)

    def kind(self, name: str) -> str | None:
        return self._kind.get(name)

    def help_text(self, name: str) -> str:
        return self._help.get(name, "")

    def counter_value(self, name: str, **labels: Any) -> float:
        entry = self._counters.get((name, _label_items(labels)))
        return entry.value if entry is not None else 0.0

    def samples(self, kind: str) -> list[tuple[str, LabelItems, Any]]:
        """``(name, label_items, instrument)`` rows sorted by name."""
        store = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }[kind]
        return sorted(
            ((name, labels, inst) for (name, labels), inst in store.items()),
            key=lambda row: (row[0], row[1]),
        )

    # ------------------------------------------------------------------
    # Cross-process propagation
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The registry as a plain picklable dict."""
        with self._lock:
            return {
                "counters": [
                    (name, labels, c.value) for (name, labels), c in self._counters.items()
                ],
                "gauges": [
                    (name, labels, g.value) for (name, labels), g in self._gauges.items()
                ],
                "histograms": [
                    (name, labels, h.buckets, list(h.counts), h.sum, h.count)
                    for (name, labels), h in self._histograms.items()
                ],
                "help": dict(self._help),
                "kind": dict(self._kind),
            }

    def drain(self) -> dict[str, Any]:
        """Snapshot, then reset every instrument (worker hand-off)."""
        snap = self.snapshot()
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
        return snap

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a worker snapshot into this registry."""
        for name, help in snapshot.get("help", {}).items():
            self._help.setdefault(name, help)
        for name, labels, value in snapshot.get("counters", []):
            self.counter(name, **dict(labels)).inc(value)
        for name, labels, value in snapshot.get("gauges", []):
            self.gauge(name, **dict(labels)).set_max(value)
        for name, labels, buckets, counts, total, count in snapshot.get("histograms", []):
            hist = self.histogram(name, buckets=tuple(buckets), **dict(labels))
            if hist.buckets != tuple(buckets):  # pragma: no cover - defensive
                raise ValueError(f"histogram {name!r} bucket mismatch on merge")
            for i, c in enumerate(counts):
                hist.counts[i] += c
            hist.sum += total
            hist.count += count
