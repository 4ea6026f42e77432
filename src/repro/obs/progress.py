"""Live island telemetry: heartbeats, the progress view, and the
background resource sampler.

Sharded builds run for minutes inside worker processes; until now they
were opaque while running — every metric and span arrived only at the
end.  This module is the live side channel:

* :class:`Heartbeat` — one worker's periodic status (epoch, simulation
  clock, queue depth, dispatched jobs, peak RSS, spill bytes), a plain
  picklable dict on the wire;
* an **ambient sink** (:func:`use_sink` / :func:`get_sink`) mirroring
  :mod:`repro.obs.runtime`: when a build starts its island hosts it
  reads the sink once; with nobody watching no heartbeat is built.  An
  in-process host hands its heartbeats to the sink's ``update``, and
  forked hosts send theirs over a pipe the parent drains into it;
* :class:`ProgressAggregator` — folds heartbeats into a per-island
  table and renders it for terminals (the ``--progress`` flag and the
  ``repro obs top`` live view);
* :class:`ResourceSampler` — a daemon thread sampling the parent
  process (peak RSS, streamed-row throughput) into the existing
  :class:`~repro.obs.metrics.MetricsRegistry` while a build runs.

The heartbeat path is observation-only: it rides a dedicated pipe per
island worker (never the interchange payload), consumes no RNG, and
the bit-identity gates in ``benchmarks/bench_scale.py`` run with it
enabled.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from contextlib import contextmanager


@dataclass
class Heartbeat:
    """One island worker's periodic status report."""

    island: int
    epoch: int
    #: Simulation clock at the epoch boundary, in seconds.
    sim_time_s: float
    queue_depth: int
    running: int
    #: Scheduler events processed so far.
    events: int
    dispatched: int
    peak_rss_bytes: float
    spill_bytes: float
    #: Wall-clock seconds when the worker sent the heartbeat.
    wall_s: float = field(default_factory=time.time)

    def to_payload(self) -> dict[str, Any]:
        return {
            "island": self.island,
            "epoch": self.epoch,
            "sim_time_s": self.sim_time_s,
            "queue_depth": self.queue_depth,
            "running": self.running,
            "events": self.events,
            "dispatched": self.dispatched,
            "peak_rss_bytes": self.peak_rss_bytes,
            "spill_bytes": self.spill_bytes,
            "wall_s": self.wall_s,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Heartbeat":
        return cls(**dict(payload))


# ----------------------------------------------------------------------
# Ambient sink
# ----------------------------------------------------------------------

#: The currently-watching sink; ``None`` means nobody is watching.
_sink: "ProgressAggregator | None" = None


def get_sink() -> "ProgressAggregator | None":
    """The active heartbeat sink, or ``None`` when nobody watches."""
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
    """Folds island heartbeats into a renderable per-island table.

    ``on_update`` (optional) is called with the aggregator after every
    heartbeat — the CLI's ``--progress`` renderer hooks it to redraw.
    Thread-safe: heartbeats may arrive from the parent drain loop and
    the serial in-process runner alike.
    """

    def __init__(
        self, on_update: "Callable[[ProgressAggregator], None] | None" = None
    ) -> None:
        self.started_s = time.time()
        self.heartbeats = 0
        self.latest: dict[int, Heartbeat] = {}
        self.on_update = on_update
        self._lock = threading.Lock()

    def update(self, heartbeat: "Heartbeat | Mapping[str, Any]") -> None:
        if not isinstance(heartbeat, Heartbeat):
            heartbeat = Heartbeat.from_payload(heartbeat)
        with self._lock:
            self.heartbeats += 1
            self.latest[heartbeat.island] = heartbeat
        if self.on_update is not None:
            self.on_update(self)

    def islands(self) -> list[Heartbeat]:
        """Latest heartbeat per island, island order."""
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
            f"{self.heartbeats} heartbeat(s), {elapsed:.1f}s elapsed",
            header,
        ]
        for hb in rows:
            lines.append(
                f"{hb.island:>6d} {hb.epoch:>6d} "
                f"{_fmt_sim_clock(hb.sim_time_s):>9} {hb.queue_depth:>6d} "
                f"{hb.running:>7d} {hb.dispatched:>10d} "
                f"{_fmt_bytes(hb.peak_rss_bytes):>9} "
                f"{_fmt_bytes(hb.spill_bytes):>9}"
            )
        if not rows:
            lines.append("  (no heartbeats yet)")
        return "\n".join(lines)


class ProgressPrinter(ProgressAggregator):
    """A :class:`ProgressAggregator` that prints as heartbeats arrive.

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
            rows = self.islands()
            brief = " ".join(
                f"i{hb.island}:e{hb.epoch}/q{hb.queue_depth}" for hb in rows
            )
            self.stream.write(f"progress: {brief}\n")
        self.stream.flush()

    def finish(self) -> None:
        """Print the final table (plain mode prints it once, in full)."""
        if not self.live:
            self.stream.write(self.render() + "\n")
            self.stream.flush()


# ----------------------------------------------------------------------
# Background resource sampler
# ----------------------------------------------------------------------


class ResourceSampler:
    """Daemon thread sampling parent-process resources into metrics.

    Every ``interval_s`` it records:

    * ``repro_process_peak_rss_bytes`` — the parent's RSS high-water
      mark (same gauge the worker roll-up uses, merged by max);
    * ``repro_stream_rows_per_s`` — chunk throughput, the windowed
      delta of the ``repro_frame_stream_rows_total`` counters.

    Observation-only: it reads counters, never the build state.
    ``stop()`` joins the thread; use as a context manager around a
    build.
    """

    def __init__(self, metrics=None, *, interval_s: float = 0.5) -> None:
        #: ``None`` means "whatever registry is ambient at sample
        #: time" — the CLI installs the sampler before any session
        #: (and its registry) exists.
        self.metrics = metrics
        self.interval_s = interval_s
        self.samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_rows = 0.0
        self._last_time = 0.0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ResourceSampler":
        if self._thread is not None:
            return self
        self._last_time = time.monotonic()
        self._last_rows = self._stream_rows()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.sample()  # one final reading so short builds record data

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- sampling ------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def _registry(self):
        if self.metrics is not None:
            return self.metrics
        from repro.obs.runtime import get_metrics

        return get_metrics()

    def _stream_rows(self) -> float:
        """Sum of the streamed-rows counters across all ``op`` labels."""
        metrics = self._registry()
        if not metrics.enabled:
            return 0.0
        total = 0.0
        for name, _labels, counter in metrics.samples("counter"):
            if name == "repro_frame_stream_rows_total":
                total += counter.value
        return total

    def sample(self) -> None:
        """Take one reading (also called once from :meth:`stop`)."""
        from repro.obs.runtime import peak_rss_bytes

        metrics = self._registry()
        if not metrics.enabled:
            return
        self.samples += 1
        rss = peak_rss_bytes()
        if rss:
            metrics.gauge(
                "repro_process_peak_rss_bytes",
                help="peak resident set size of the process (ru_maxrss)",
            ).set_max(rss)
        now = time.monotonic()
        rows = self._stream_rows()
        window = now - self._last_time
        if window > 0:
            metrics.gauge(
                "repro_stream_rows_per_s",
                help="streamed rows per second over the last sampling window",
            ).set((rows - self._last_rows) / window)
        self._last_rows = rows
        self._last_time = now
