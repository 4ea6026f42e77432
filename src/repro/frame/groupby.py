"""Group-by for :class:`repro.frame.Table` and
:class:`~repro.frame.ChunkedTable`.

The paper's pipeline aggregates jobs by user, by GPU count, by
interface type, and by life-cycle class.  :class:`GroupBy` is the one
group-by engine: ``aggregate``/``sizes``/``mean``/``sum`` (and
``value_counts`` on either representation) are one fold over
``source.chunks()``, where a :class:`Table` is the one-chunk stream of
itself.  On a table it also hands out the groups themselves
(``keys``, iteration, ``group``, ``apply``).

Execution model
---------------
Each chunk's keys are factorized once (:mod:`repro.frame.factorize`):
every row gets an integer group code in first-seen order, and one
stable sort of the codes turns the chunk into contiguous per-group
segments.  :func:`_reduce_segments` then reduces every segment at once:

* ``count`` is segment-length differences;
* ``min``/``max``/``sum`` run as ``np.{minimum,maximum,add}.reduceat``
  over the sorted value column; ``m2``, the centred sum of squares,
  subtracts each segment's mean before squaring; ``mean``/``std``
  derive from those;
* ``first``/``last`` fancy-index the segment boundaries;
* ``median`` sorts values within segments via one ``lexsort`` and
  averages the two middle elements per segment.

The first chunk's partials are kept as they are, so a table's
aggregate is the kernel output unchanged.  Later chunks merge by key:
counts and sums add, ``min``/``max`` combine, ``first`` keeps the
earlier value and ``last`` takes the later one, and ``m2`` merges by
Chan et al.'s pairwise update.  ``median`` has no mergeable partial, so
a chunk stream refuses it up front.  Group order is first-seen order
across the stream, which is the order on the concatenated input.

So that the vectorized kernels stay **bit-for-bit identical** to the
row-at-a-time reference path (:mod:`repro.frame.reference`), the
builtin accumulation reducers are defined with *sequential* left-to-
right summation (a single-segment ``np.add.reduceat``) rather than
``np.sum``'s pairwise summation — ``reduceat`` reduces each segment
sequentially, so defining the scalar reducer the same way makes "one
group at a time" and "all groups at once" agree to the last ULP.  The
property tests assert exactly that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import FrameError
from repro.frame.chunked import _count_stream_op
from repro.frame.factorize import Factorization, factorize_columns
from repro.frame.table import Table, _concat_columns, _unwrap
from repro.obs.runtime import get_tracer, record_kernel, record_peak_rss

if TYPE_CHECKING:
    from repro.frame.chunked import ChunkedTable

Reducer = Callable[[np.ndarray], Any]

_SEGMENT_START = np.zeros(1, dtype=np.intp)


def _seq_sum(values: np.ndarray) -> float:
    """Sequential left-to-right sum — the scalar twin of ``add.reduceat``."""
    if len(values) == 0:
        return 0.0
    return float(np.add.reduceat(values, _SEGMENT_START)[0])


def _seq_mean(a: np.ndarray) -> float:
    floats = a.astype(float)
    return _seq_sum(floats) / len(floats)


def _seq_std(a: np.ndarray) -> float:
    floats = a.astype(float)
    mean = _seq_sum(floats) / len(floats)
    centered = floats - mean
    return float(np.sqrt(_seq_sum(centered * centered) / len(floats)))


_BUILTIN_REDUCERS: dict[str, Reducer] = {
    "mean": _seq_mean,
    "sum": lambda a: _seq_sum(a.astype(float)),
    "min": lambda a: float(np.min(a.astype(float))),
    "max": lambda a: float(np.max(a.astype(float))),
    "median": lambda a: float(np.median(a.astype(float))),
    "std": _seq_std,
    "count": lambda a: int(len(a)),
    "first": lambda a: _unwrap(a[0]),
    "last": lambda a: _unwrap(a[-1]),
}

#: Reducers with a mergeable partial state.  ``median`` is the one
#: builtin without one — it needs the whole group (materialize, or use
#: a :class:`repro.frame.sketch.QuantileSketch`).
STREAMABLE_REDUCERS = ("sum", "count", "mean", "min", "max", "std", "first", "last")

#: Streamable reducers whose chunked result is bit-for-bit identical to
#: the materialized kernel regardless of chunking.  ``sum``/``mean``/
#: ``std`` merge float partials instead (bit-for-bit on one chunk,
#: deterministic for a fixed chunking; see docs/performance.md).
EXACT_STREAMING_REDUCERS = ("count", "min", "max", "first", "last")

#: The per-group partials a reducer reads besides the group sizes.
_PARTIALS = {"count": (), "mean": ("sum",), "std": ("sum", "m2")}

#: ``sizes``/``value_counts``: one ``count`` output column, no values.
_SIZES = (("count", "", "count"),)


class GroupBy:
    """Grouping of a table or chunk stream by one or more key columns.

    Group order is first-seen order of the key; row order within a
    group is the table's row order (the factorization sort is stable).
    Iterating groups (``num_groups``, ``keys``, iteration, ``group``,
    ``apply``) needs a :class:`Table`: a stream cannot hand out
    per-group rows without buffering them.
    """

    def __init__(self, source: "Table | ChunkedTable", keys: Sequence[str]) -> None:
        if not keys:
            raise FrameError("group_by requires at least one key column")
        self._source = source
        self._keys = tuple(keys)
        # A table is factorized once, here; a stream per chunk, in the fold.
        self._fact: Factorization | None = (
            factorize_columns([source.column(k) for k in self._keys])
            if isinstance(source, Table)
            else None
        )
        self._key_tuples: list[tuple[Any, ...]] | None = None
        self._lookup: dict[tuple[Any, ...], int] | None = None

    # ------------------------------------------------------------------
    # Groups of a materialized table
    # ------------------------------------------------------------------
    def _table_fact(self, verb: str) -> Factorization:
        if self._fact is None:
            raise FrameError(
                f"GroupBy.{verb} needs a materialized table: a chunk stream "
                "cannot hand out per-group rows without buffering them; call "
                ".materialize() on the chunked table first"
            )
        return self._fact

    @property
    def num_groups(self) -> int:
        return self._table_fact("num_groups").num_groups

    def keys(self) -> list[tuple[Any, ...]]:
        """Group keys in first-seen order."""
        fact = self._table_fact("keys")
        if self._key_tuples is None:
            reps = [self._source.column(k)[fact.first_rows] for k in self._keys]
            self._key_tuples = [
                tuple(_unwrap(col[g]) for col in reps)
                for g in range(fact.num_groups)
            ]
        return list(self._key_tuples)

    def _group_rows(self, group: int) -> np.ndarray:
        f = self._fact
        return f.order[f.starts[group] : f.starts[group + 1]]

    def __iter__(self) -> Iterator[tuple[tuple[Any, ...], Table]]:
        self._table_fact("__iter__")
        for group, key in enumerate(self.keys()):
            yield key, self._source.take(self._group_rows(group))

    def group(self, *key: Any) -> Table:
        """Return the sub-table for one group key."""
        self._table_fact("group")
        if self._lookup is None:
            self._lookup = {k: g for g, k in enumerate(self.keys())}
        k = tuple(key)
        group = self._lookup.get(k)
        if group is None:
            raise FrameError(f"no group with key {k!r}")
        return self._source.take(self._group_rows(group))

    def apply(self, fn: Callable[[Table], Mapping[str, Any]]) -> Table:
        """Apply ``fn`` to each group's sub-table; collect dict results."""
        from repro.frame.builder import TableBuilder

        if self._table_fact("apply").num_groups == 0:
            return Table.from_rows([])
        builder = TableBuilder(columns=self._keys)
        for key, sub in self:
            row: dict[str, Any] = dict(zip(self._keys, key))
            row.update(fn(sub))
            builder.append_row(row)
        return builder.finish()

    # ------------------------------------------------------------------
    # The fold
    # ------------------------------------------------------------------
    def sizes(self) -> Table:
        """Return a table of group keys and their row counts."""
        return self._fold(_SIZES, "aggregate")

    def aggregate(self, spec: Mapping[str, Sequence[str] | str]) -> Table:
        """Aggregate columns per group.

        ``spec`` maps a column name to one reducer name or a list of
        reducer names (``mean``/``sum``/``min``/``max``/``median``/
        ``std``/``count``/``first``/``last``).  The result has one row
        per group with columns ``{column}_{reducer}``.  A chunk stream
        supports the :data:`STREAMABLE_REDUCERS`; ``median`` requires
        ``materialize()`` or a quantile sketch.
        """
        outputs: list[tuple[str, str, str]] = []
        for column, reducers in spec.items():
            if isinstance(reducers, str):
                reducers = [reducers]
            for name in reducers:
                if name not in _BUILTIN_REDUCERS:
                    raise FrameError(
                        f"unknown reducer {name!r}; choose from {sorted(_BUILTIN_REDUCERS)}"
                    )
                if self._fact is None and name not in STREAMABLE_REDUCERS:
                    raise FrameError(
                        f"reducer {name!r} on column {column!r} cannot run "
                        "streaming: it has no mergeable partial state (it "
                        "needs every group value at once). Either call "
                        ".materialize() on the chunked table and aggregate "
                        "in memory, or feed the column into a "
                        "repro.frame.QuantileSketch (quantile(0.5) is a "
                        "rank-bounded median over one streaming pass); "
                        f"streamable reducers: {', '.join(STREAMABLE_REDUCERS)}"
                    )
                outputs.append((f"{column}_{name}", column, name))
        return self._fold(outputs, "aggregate")

    def mean(self, column: str) -> Table:
        """Shorthand for ``aggregate({column: "mean"})``."""
        return self.aggregate({column: "mean"})

    def sum(self, column: str) -> Table:
        """Shorthand for ``aggregate({column: "sum"})``."""
        return self.aggregate({column: "sum"})

    def _fold(self, outputs: Sequence[tuple[str, str, str]], op: str) -> Table:
        """Fold ``source.chunks()`` into the ``(output, column, reducer)``
        columns, counting each chunk as one ``op`` kernel call."""
        need: dict[str, dict[str, None]] = {}
        for _, column, name in outputs:
            for partial in _PARTIALS.get(name, (name,)):
                need.setdefault(column, {})[partial] = None
        keys: list[np.ndarray] = []
        counts: np.ndarray | None = None
        parts: dict[tuple[str, str], np.ndarray] = {}
        lookup: dict[tuple[Any, ...], int] | None = None
        chunks = rows = 0
        with get_tracer().span(
            f"frame.stream.{op}", category="frame", keys=",".join(self._keys)
        ) as span:
            for chunk in self._source.chunks():
                chunks += 1
                rows += chunk.num_rows
                record_kernel(op, chunk.num_rows)
                fact = (
                    self._fact
                    if chunk is self._source
                    else factorize_columns([chunk.column(k) for k in self._keys])
                )
                chunk_keys = [chunk.column(k)[fact.first_rows] for k in self._keys]
                chunk_counts = fact.sizes.astype(np.int64, copy=False)
                chunk_parts = {}
                for column, partials in need.items():
                    values = chunk.column(column)[fact.order]
                    for partial in partials:
                        chunk_parts[column, partial] = _reduce_segments(
                            values, fact, partial
                        )
                if counts is None:
                    keys, counts, parts = chunk_keys, chunk_counts, chunk_parts
                    continue
                if lookup is None:
                    lookup = {key: g for g, key in enumerate(_key_rows(keys))}
                # A key seen before maps to its group; a new one takes the
                # next group id, so new groups append in first-seen order.
                gids = np.fromiter(
                    (lookup.setdefault(key, len(lookup)) for key in _key_rows(chunk_keys)),
                    dtype=np.intp,
                    count=fact.num_groups,
                )
                new = gids >= len(counts)
                keys = [_concat_columns(k, c[new]) for k, c in zip(keys, chunk_keys)]
                counts, parts = _merge(counts, parts, chunk_counts, chunk_parts, gids, new)
            span.set(chunks=chunks, rows=rows, groups=0 if counts is None else len(counts))
        _count_stream_op(op, chunks, rows)
        record_peak_rss()
        if counts is None:
            return Table.from_rows([])
        data = dict(zip(self._keys, keys))
        for out, column, name in outputs:
            if name == "count":
                data[out] = counts
            elif name == "mean":
                data[out] = parts[column, "sum"] / counts
            elif name == "std":
                data[out] = np.sqrt(parts[column, "m2"] / counts)
            else:
                data[out] = parts[column, name]
        return Table(data)


def value_counts(source: "Table | ChunkedTable", name: str) -> Table:
    """Count occurrences of each value of ``name``, most frequent first
    (ties broken by the value's string form).

    The group sizes of one fold, so the value column keeps the column's
    dtype on either representation.
    """
    counts = GroupBy(source, (name,))._fold(_SIZES, "value_counts")
    if counts.num_rows == 0:
        return counts
    labels = np.asarray([str(_unwrap(v)) for v in counts.column(name)])
    return counts.take(np.lexsort((labels, -counts.column("count"))))


def _key_rows(keys: Sequence[np.ndarray]) -> Iterator[tuple[Any, ...]]:
    """One hashable key tuple per group (numpy scalars unwrapped)."""
    return zip(*(column.tolist() for column in keys))


def _merge(
    counts: np.ndarray,
    parts: dict[tuple[str, str], np.ndarray],
    chunk_counts: np.ndarray,
    chunk_parts: dict[tuple[str, str], np.ndarray],
    gids: np.ndarray,
    new: np.ndarray,
) -> tuple[np.ndarray, dict[tuple[str, str], np.ndarray]]:
    """Merge one chunk's per-group partials into the fold's state.

    ``gids`` maps each chunk group to its state group and ``new`` flags
    the chunk groups the state has not seen; those append in chunk
    order.  ``m2`` merges by Chan et al.'s pairwise update,
    ``M2 = M2_a + M2_b + delta**2 * n_a * n_b / n``, reading the
    pre-merge sums and counts of both sides.
    """
    seen = ~new
    at = gids[seen]
    n_a = counts[at]
    n_b = chunk_counts[seen]
    merged = {}
    for (column, partial), ours in parts.items():
        theirs = chunk_parts[column, partial]
        out = _concat_columns(ours, theirs[new])
        if partial == "sum":
            out[at] += theirs[seen]
        elif partial == "min":
            out[at] = np.minimum(ours[at], theirs[seen])
        elif partial == "max":
            out[at] = np.maximum(ours[at], theirs[seen])
        elif partial == "last":
            out[at] = theirs[seen]
        elif partial == "m2":
            delta = chunk_parts[column, "sum"][seen] / n_b - parts[column, "sum"][at] / n_a
            out[at] += theirs[seen] + delta * delta * (n_a * (n_b / (n_a + n_b)))
        merged[column, partial] = out
    merged_counts = np.concatenate([counts, chunk_counts[new]])
    merged_counts[at] += n_b
    return merged_counts, merged


def _reduce_segments(values: np.ndarray, fact: Factorization, name: str) -> np.ndarray:
    """Reduce a code-sorted value column into one value per group.

    Every kernel is whole-column vectorized and bit-identical to
    applying the matching ``_BUILTIN_REDUCERS`` entry per group.
    """
    starts = fact.starts[:-1]
    if name == "count":
        return fact.sizes.astype(np.int64, copy=False)
    if name == "first":
        return values[starts]
    if name == "last":
        return values[fact.starts[1:] - 1]
    floats = values.astype(float)
    if name in ("min", "max"):
        ufunc = np.minimum if name == "min" else np.maximum
        return ufunc.reduceat(floats, starts)
    counts = fact.sizes
    if name == "sum":
        return np.add.reduceat(floats, starts)
    if name == "mean":
        return np.add.reduceat(floats, starts) / counts
    if name in ("m2", "std"):
        # m2: the centred sum of squares, the mergeable partial of std.
        means = np.add.reduceat(floats, starts) / counts
        centered = floats - np.repeat(means, counts)
        m2 = np.add.reduceat(centered * centered, starts)
        return m2 if name == "m2" else np.sqrt(m2 / counts)
    if name == "median":
        return _segment_median(floats, fact)
    raise FrameError(f"no vectorized kernel for reducer {name!r}")


def _segment_median(floats: np.ndarray, fact: Factorization) -> np.ndarray:
    """Per-segment median: value-sort within segments, average middles.

    Matches ``np.median`` bit-for-bit: the even-count cell is the same
    ``(a + b) / 2`` of the two middle elements, and any NaN in a
    segment yields NaN (NaNs sort last, so ``np.median`` sees one at
    the top and poisons the result).
    """
    counts = fact.sizes
    starts = fact.starts[:-1]
    seg_dtype = np.uint16 if fact.num_groups <= np.iinfo(np.uint16).max else np.intp
    segment_ids = np.repeat(np.arange(fact.num_groups, dtype=seg_dtype), counts)
    # Sort by (segment, value) in two passes: an unstable value sort
    # (ties between equal floats cannot change a median) followed by a
    # stable radix sort of the small segment ids — much cheaper than
    # one lexsort with a float key.
    by_value_order = np.argsort(floats)
    regroup = np.argsort(segment_ids[by_value_order], kind="stable")
    by_value = floats[by_value_order[regroup]]
    lo = by_value[starts + (counts - 1) // 2]
    hi = by_value[starts + counts // 2]
    medians = np.where(counts % 2 == 1, lo, (lo + hi) / 2.0)
    has_nan = np.add.reduceat(np.isnan(floats), starts) > 0
    if has_nan.any():
        medians = np.where(has_nan, np.nan, medians)
    return medians
