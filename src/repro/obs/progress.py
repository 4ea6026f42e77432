"""Live island telemetry: the ambient progress sink and its views.

Sharded builds run for minutes inside worker processes; until now they
were opaque while running — every metric and span arrived only at the
end.  This module is the live side channel:

* an **ambient sink** (:func:`use_sink` / :func:`get_sink`) mirroring
  :mod:`repro.obs.runtime`: when a build starts its island hosts it
  reads the sink once.  Each island epoch is one ``island.epoch``
  :class:`~repro.obs.events.EventRecord` (epoch, simulation clock,
  queue depth, running and dispatched jobs, scheduler events, peak
  RSS, spill bytes), built once by
  :meth:`~repro.slurm.interchange.IslandHost._report`: the flight
  recorder keeps it, an in-process host hands the same event to the
  sink's ``update``, and a forked host sends it over a heartbeat pipe
  the parent drains into the sink.  With nobody watching and no
  recorder, no event is built;
* :class:`ProgressAggregator` — folds those events into a per-island
  table and renders it for terminals (the ``--progress`` flag and the
  ``repro obs top`` live view).

The heartbeat pipe is observation-only: it is dedicated to one island
host (never the interchange payload), consumes no RNG, and the
bit-identity gates in ``benchmarks/bench_scale.py`` run with a sink
installed.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs.events import EventRecord

# ----------------------------------------------------------------------
# Ambient sink
# ----------------------------------------------------------------------

#: The currently-watching sink; ``None`` means nobody is watching.
_sink: "ProgressAggregator | None" = None


def get_sink() -> "ProgressAggregator | None":
    """The active progress sink, or ``None`` when nobody watches."""
    return _sink


@contextmanager
def use_sink(sink: "ProgressAggregator | None") -> Iterator[None]:
    """Scoped sink installation: restores the previous sink on exit."""
    global _sink
    prev = _sink
    _sink = sink
    try:
        yield
    finally:
        _sink = prev


# ----------------------------------------------------------------------
# Aggregation + rendering
# ----------------------------------------------------------------------


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}TiB"


def _fmt_sim_clock(seconds: float) -> str:
    days, rem = divmod(max(seconds, 0.0), 86400.0)
    hours = rem / 3600.0
    return f"{int(days)}d{hours:04.1f}h"


class ProgressAggregator:
    """Folds ``island.epoch`` events into a renderable per-island table.

    ``on_update`` (optional) is called with the aggregator after every
    event — the CLI's ``--progress`` renderer hooks it to redraw.
    Thread-safe: events may arrive from the parent drain loop and the
    serial in-process runner alike.
    """

    def __init__(
        self, on_update: "Callable[[ProgressAggregator], None] | None" = None
    ) -> None:
        self.started_s = time.time()
        self.updates = 0
        self.latest: dict[int, EventRecord] = {}
        self.on_update = on_update
        self._lock = threading.Lock()

    def update(self, event: EventRecord) -> None:
        with self._lock:
            self.updates += 1
            self.latest[event.island] = event
        if self.on_update is not None:
            self.on_update(self)

    def islands(self) -> list[EventRecord]:
        """Latest event per island, island order."""
        with self._lock:
            return [self.latest[key] for key in sorted(self.latest)]

    def render(self) -> str:
        """The per-island status table, one line per island."""
        rows = self.islands()
        elapsed = time.time() - self.started_s
        header = (
            f"{'island':>6} {'epoch':>6} {'sim-clock':>9} {'queue':>6} "
            f"{'running':>7} {'dispatched':>10} {'peak RSS':>9} {'spill':>9}"
        )
        lines = [
            f"sharded build: {len(rows)} island(s), "
            f"{self.updates} epoch(s) reported, {elapsed:.1f}s elapsed",
            header,
        ]
        for event in rows:
            attrs = event.attrs
            lines.append(
                f"{event.island:>6d} {attrs['epoch']:>6d} "
                f"{_fmt_sim_clock(attrs['sim_time_s']):>9} {attrs['queue_depth']:>6d} "
                f"{attrs['running']:>7d} {attrs['dispatched']:>10d} "
                f"{_fmt_bytes(attrs['peak_rss_bytes']):>9} "
                f"{_fmt_bytes(attrs['spill_bytes']):>9}"
            )
        if not rows:
            lines.append("  (no island epochs yet)")
        return "\n".join(lines)


class ProgressPrinter(ProgressAggregator):
    """A :class:`ProgressAggregator` that prints as island epochs arrive.

    On a TTY it redraws the island table in place with ANSI cursor
    moves (the ``repro obs top`` experience); otherwise it prints a
    throttled status line per update window, so piped output stays
    line-oriented.  Rendering goes to ``stream`` (stderr by default,
    keeping stdout clean for command output).
    """

    def __init__(
        self, stream=None, *, interval_s: float = 0.2, live: bool | None = None
    ) -> None:
        super().__init__(on_update=self._draw)
        import sys

        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = interval_s
        self.live = (
            live
            if live is not None
            else bool(getattr(self.stream, "isatty", lambda: False)())
        )
        self._last_draw = 0.0
        self._drawn_lines = 0

    def _draw(self, aggregator: "ProgressAggregator") -> None:
        now = time.monotonic()
        if now - self._last_draw < self.interval_s:
            return
        self._last_draw = now
        text = self.render()
        if self.live:
            if self._drawn_lines:
                # move up and clear the previous frame
                self.stream.write(f"\x1b[{self._drawn_lines}F\x1b[J")
            self.stream.write(text + "\n")
            self._drawn_lines = text.count("\n") + 1
        else:
            brief = " ".join(
                f"i{event.island}:e{event.attrs['epoch']}/q{event.attrs['queue_depth']}"
                for event in self.islands()
            )
            self.stream.write(f"progress: {brief}\n")
        self.stream.flush()

    def finish(self) -> None:
        """Print the final table (plain mode prints it once, in full)."""
        if not self.live:
            self.stream.write(self.render() + "\n")
            self.stream.flush()
