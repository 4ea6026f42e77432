"""Mergeable one-pass summaries: quantile sketches and moments.

The paper presents nearly every result as an empirical CDF or a
percentile.  At full scale (448 GPUs x 125 days of 10 s samples) the
underlying series no longer fit in memory, so the streaming layer
(:mod:`repro.frame.chunked`) funnels them through the two summaries
here instead of materializing a sorted column:

* :class:`QuantileSketch` — a deterministic KLL-style compactor sketch
  answering rank/quantile/CDF queries with a *tracked* worst-case rank
  error.  It deliberately mirrors the query surface of
  :class:`repro.analysis.stats.Ecdf` (``values``/``probabilities``/
  ``evaluate``/``quantile``/``median``/``fraction_above``), so figure
  code written against an exact ECDF runs unchanged on a sketch.
* :class:`StreamingMoments` — count/sum/min/max/mean/std of one column
  in O(1) state.

Error contract
--------------
Every compaction of a weight-``w`` buffer shifts any rank query by at
most ``w``; the sketch sums those shifts as it goes, so
:meth:`QuantileSketch.rank_error_bound` is an *a-posteriori* guarantee,
not an asymptotic estimate: for every x,

    |true_rank(x) - sketch_rank(x)| <= rank_error_bound().

With capacity ``k`` the bound grows like ``n * log2(n / k) / k``
(about 1.3% of n for k=512 at n=1e6); while fewer than ``k`` samples
have been seen, or while the sketch holds a single batch of any size
(the first batch's compaction is deferred until a second one arrives),
no compaction has happened and every query is **exact** (bit-for-bit
equal to the :class:`~repro.analysis.stats.Ecdf` built from the same
values).  A one-chunk stream, such as a materialized
:class:`~repro.frame.Table`, therefore gets exact answers; the cost
over eager compaction is that one batch, held only until the next
arrives.  Determinism: compaction keeps every other element of the
sorted buffer with an alternating start offset — no RNG — so the same
updates in the same order always produce the same sketch, and
``merge`` of per-chunk sketches is associative in the sense that any
merge tree sees the same total weight and honors the same tracked
bound.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np

from repro.errors import FrameError

__all__ = ["QuantileSketch", "StreamingMoments"]

#: Default compactor capacity: ~0.5%% worst-case rank error at 1e6
#: samples, ~100 KiB of state.
DEFAULT_SKETCH_K = 512


class QuantileSketch:
    """A mergeable, deterministic quantile/ECDF sketch.

    Values live in per-level buffers; level ``h`` items carry weight
    ``2**h``.  When a level outgrows ``k`` it is sorted and every other
    element (alternating offset, odd leftover stays behind) is promoted
    to the next level.  Non-finite updates are dropped, matching
    :func:`repro.analysis.stats.ecdf`.
    """

    __slots__ = (
        "_k",
        "_levels",
        "_sizes",
        "_flip",
        "_compactions",
        "_count",
        "_min",
        "_max",
        "_summary",
    )

    def __init__(self, k: int = DEFAULT_SKETCH_K) -> None:
        if k < 8:
            raise FrameError(f"sketch capacity k must be >= 8, got {k}")
        self._k = int(k)
        self._levels: list[list[np.ndarray]] = [[]]
        self._sizes: list[int] = [0]
        self._flip: list[bool] = [False]
        self._compactions: list[int] = [0]
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._summary: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def update(self, values: Iterable[Any]) -> "QuantileSketch":
        """Absorb a batch of values (non-finite entries are dropped).

        The first non-empty batch is kept uncompacted, so a sketch fed
        one batch (a one-chunk stream) answers exactly; the compaction
        it deferred runs when the next batch arrives, which leaves every
        multi-batch sketch exactly as eager compaction would.
        """
        settled = self._count > 0
        if settled:
            self._compress()
        arr = np.asarray(values, dtype=float).ravel()
        arr = arr[np.isfinite(arr)]
        if arr.size == 0:
            return self
        self._count += int(arr.size)
        self._min = min(self._min, float(arr.min()))
        self._max = max(self._max, float(arr.max()))
        self._levels[0].append(arr)
        self._sizes[0] += int(arr.size)
        self._summary = None
        if settled:
            self._compress()
        return self

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold another sketch into this one (per-chunk partials).

        Both sides first run any compaction a lone first batch
        deferred (``other`` included), so merging sees the same state
        as eager compaction would.
        """
        if other._count == 0:
            return self
        self._compress()
        other._compress()
        self._count += other._count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        for level in range(len(other._levels)):
            if not other._sizes[level]:
                continue
            self._ensure_level(level)
            self._levels[level].extend(other._levels[level])
            self._sizes[level] += other._sizes[level]
        for level, events in enumerate(other._compactions):
            self._ensure_level(level)
            self._compactions[level] += events
        self._summary = None
        self._compress()
        return self

    def _ensure_level(self, level: int) -> None:
        while len(self._levels) <= level:
            self._levels.append([])
            self._sizes.append(0)
            self._flip.append(False)
            self._compactions.append(0)

    def _compress(self) -> None:
        level = 0
        while level < len(self._levels):
            if self._sizes[level] > self._k:
                self._compact(level)
            level += 1

    def _compact(self, level: int) -> None:
        buf = (
            self._levels[level][0]
            if len(self._levels[level]) == 1
            else np.concatenate(self._levels[level])
        )
        buf = np.sort(buf)
        leftover: np.ndarray | None = None
        if buf.size % 2:
            # Odd count: the largest element stays behind at this level
            # so total weight is conserved exactly.
            leftover = buf[-1:]
            buf = buf[:-1]
        offset = 1 if self._flip[level] else 0
        self._flip[level] = not self._flip[level]
        survivors = buf[offset::2]
        self._levels[level] = [] if leftover is None else [leftover]
        self._sizes[level] = 0 if leftover is None else 1
        self._compactions[level] += 1
        self._summary = None
        self._ensure_level(level + 1)
        self._levels[level + 1].append(survivors)
        self._sizes[level + 1] += int(survivors.size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self._k

    @property
    def num_samples(self) -> int:
        """Total (finite) samples absorbed."""
        return self._count

    def rank_error_bound(self) -> int:
        """Worst-case absolute rank error of any query, in samples.

        Tracked exactly: every compaction of a weight-``w`` level adds
        ``w``.  Zero while the sketch has never compacted (queries are
        then exact).
        """
        bound = sum(events << level for level, events in enumerate(self._compactions))
        return min(bound, self._count)

    def relative_rank_error(self) -> float:
        """``rank_error_bound`` as a fraction of the sample count."""
        if self._count == 0:
            return 0.0
        return self.rank_error_bound() / self._count

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(n={self._count}, k={self._k}, "
            f"levels={len(self._levels)}, err<={self.relative_rank_error():.3%})"
        )

    # ------------------------------------------------------------------
    # Queries (Ecdf-compatible surface)
    # ------------------------------------------------------------------
    def _materialized(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted summary values and their cumulative weights."""
        if self._summary is None:
            parts: list[np.ndarray] = []
            weights: list[np.ndarray] = []
            for level, bufs in enumerate(self._levels):
                if not self._sizes[level]:
                    continue
                v = bufs[0] if len(bufs) == 1 else np.concatenate(bufs)
                parts.append(v)
                weights.append(np.full(v.size, float(1 << level)))
            if not parts:
                empty = np.empty(0, dtype=float)
                self._summary = (empty, empty.copy())
            else:
                v = np.concatenate(parts)
                w = np.concatenate(weights)
                order = np.argsort(v, kind="stable")
                self._summary = (v[order], np.cumsum(w[order]))
        return self._summary

    @property
    def values(self) -> np.ndarray:
        """Summary values, sorted ascending (the CDF's x axis)."""
        return self._materialized()[0]

    @property
    def probabilities(self) -> np.ndarray:
        """Estimated P(sample <= value) at each summary value."""
        values, cumw = self._materialized()
        if values.size == 0:
            return values
        return cumw / float(self._count)

    def evaluate(self, x: float | np.ndarray) -> float | np.ndarray:
        """Estimated P(sample <= x)."""
        if self._count == 0:
            raise FrameError("cannot query an empty sketch")
        values, cumw = self._materialized()
        idx = np.searchsorted(values, np.asarray(x, dtype=float), side="right")
        padded = np.concatenate(([0.0], cumw))
        out = padded[idx] / float(self._count)
        if np.ndim(x) == 0:
            return float(out)
        return out

    def quantile(self, p: float) -> float:
        """Estimated inverse CDF at probability ``p``.

        Exact (``np.quantile`` bit-for-bit) while the sketch has never
        compacted; afterwards a weighted inverted-CDF lookup within the
        tracked rank-error bound.
        """
        if not 0.0 <= p <= 1.0:
            raise FrameError(f"probability {p} outside [0, 1]")
        if self._count == 0:
            raise FrameError("cannot query an empty sketch")
        values, cumw = self._materialized()
        if self.rank_error_bound() == 0:
            # All weight-1 samples present: defer to the exact kernel.
            return float(np.quantile(values, p))
        target = p * float(self._count)
        idx = int(np.searchsorted(cumw, target, side="left"))
        return float(values[min(idx, values.size - 1)])

    def median(self) -> float:
        """Estimated median.

        While exact this is ``np.median`` bit-for-bit, which can differ
        from :meth:`quantile` ``(0.5)`` (``np.quantile``'s
        interpolation) in the last digit for an even sample count.
        """
        if self._count and self.rank_error_bound() == 0:
            return float(np.median(self._materialized()[0]))
        return self.quantile(0.5)

    def fraction_above(self, threshold: float) -> float:
        """Estimated P(sample > threshold)."""
        return 1.0 - float(self.evaluate(threshold))

    def minimum(self) -> float:
        if self._count == 0:
            raise FrameError("cannot query an empty sketch")
        return self._min

    def maximum(self) -> float:
        if self._count == 0:
            raise FrameError("cannot query an empty sketch")
        return self._max


class StreamingMoments:
    """Constant-state count/sum/min/max/mean/std of one value stream.

    ``sum`` accumulates chunk partials (each partial computed with the
    same sequential ``add.reduceat`` kernel the group-by uses), so the
    result is deterministic for a fixed chunking but — like any
    out-of-core sum — not bit-identical to a single-pass materialized
    sum.  ``std`` uses the sum-of-squares identity with a clamp at
    zero; NaN inputs poison every statistic except ``count``.
    """

    __slots__ = ("count", "total", "total_sq", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def update(self, values: Iterable[Any]) -> "StreamingMoments":
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return self
        start = np.zeros(1, dtype=np.intp)
        self.count += int(arr.size)
        self.total += float(np.add.reduceat(arr, start)[0])
        self.total_sq += float(np.add.reduceat(arr * arr, start)[0])
        self.minimum = float(np.minimum(self.minimum, np.min(arr)))
        self.maximum = float(np.maximum(self.maximum, np.max(arr)))
        return self

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        if other.count == 0:
            return self
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq
        self.minimum = float(np.minimum(self.minimum, other.minimum))
        self.maximum = float(np.maximum(self.maximum, other.maximum))
        return self

    def mean(self) -> float:
        if self.count == 0:
            raise FrameError("no samples accumulated")
        return self.total / self.count

    def std(self) -> float:
        """Population standard deviation via the sum-of-squares identity."""
        mean = self.mean()
        variance = self.total_sq / self.count - mean * mean
        if math.isnan(variance):
            return variance
        return math.sqrt(max(variance, 0.0))
