"""Per-stage timing and row-count instrumentation for pipeline sessions.

A :class:`~repro.pipeline.session.Session` executes the dataset
pipeline as named stages (``workload → schedule → assemble``) plus
the cache interactions (``cache_load`` / ``cache_store``) and figure
execution (``figures``).  Every stage run
is recorded here with wall time and the number of rows (or items) it
produced, and named counters track how often the expensive paths ran —
``build`` vs ``cache_hit`` is how callers verify that a dataset was
constructed exactly once.

Since the `repro.obs` subsystem landed, this module is a thin
back-compat adapter over it: :meth:`PipelineInstrumentation.stage`
opens a real :class:`~repro.obs.trace.Tracer` span (category
``pipeline``) carrying the stage's rows.  The flat
:class:`StageRecord` list and counter dict keep their original shapes
for existing consumers, and they answer
:meth:`~PipelineInstrumentation.executed` and print the stage lines of
an untraced session, whose tracer records nothing.  Stages may nest
(a figure span inside the ``figures`` stage, a cache probe inside a
build); records carry their nesting ``depth`` and :meth:`total_seconds`
sums only top-level stages so nested time is never double-counted.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.metrics import MetricsRegistry, NULL_METRICS, NullMetrics
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


@dataclass(frozen=True)
class StageRecord:
    """One executed pipeline stage."""

    name: str
    seconds: float
    rows: int
    from_cache: bool = False
    #: Nesting depth: 0 for top-level stages, 1 for a stage opened
    #: inside another stage, and so on.
    depth: int = 0

    def formatted(self) -> str:
        source = " [cache]" if self.from_cache else ""
        return f"{self.name}: {self.seconds:.3f} s, {self.rows} rows{source}"


class StageProbe:
    """Mutable handle a running stage uses to report its row count."""

    def __init__(self) -> None:
        self.rows = 0


class PipelineInstrumentation:
    """Stage records and counters for one session.

    Parameters
    ----------
    tracer, metrics:
        The session's observability pair.  Omitted (the default) the
        adapter records stages and counters exactly as before against
        the no-op implementations — construction stays cheap and the
        class keeps working standalone.
    """

    def __init__(
        self,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | NullMetrics | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.stages: list[StageRecord] = []
        self.counters: dict[str, int] = {}
        self._depth = 0

    @contextmanager
    def stage(self, name: str, from_cache: bool = False) -> Iterator[StageProbe]:
        """Time a stage; the yielded probe collects the row count."""
        probe = StageProbe()
        depth = self._depth
        self._depth = depth + 1
        start = time.perf_counter()
        try:
            with self.tracer.span(name, category="pipeline", from_cache=from_cache) as span:
                yield probe
                span.set(rows=int(probe.rows))
        finally:
            self._depth = depth
            seconds = time.perf_counter() - start
            self.stages.append(
                StageRecord(name, seconds, int(probe.rows), from_cache, depth)
            )

    def bump(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def executed(self, name: str) -> bool:
        """Whether a stage with this name ran at least once."""
        return any(record.name == name for record in self.stages)

    def stage_names(self) -> list[str]:
        return [record.name for record in self.stages]

    def total_seconds(self) -> float:
        """Wall time across top-level stages only.

        Nested stages run inside their parent's interval, so summing
        every record would double-count them.
        """
        return sum(record.seconds for record in self.stages if record.depth == 0)

    def to_text(self) -> str:
        lines = []
        for record in self.stages:
            lines.append("  " + "  " * record.depth + "stage " + record.formatted())
        if self.counters:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
            lines.append(f"  counters: {pairs}")
        return "\n".join(lines)
