"""Out-of-core execution: :class:`ChunkedTable` and its streaming verbs.

A :class:`ChunkedTable` is a re-iterable stream of bounded-size
:class:`~repro.frame.table.Table` batches behind (a subset of) the same
verbs.  Transformations (``select``/``drop``/``rename``/``filter``/
``with_column``/``join`` against a broadcast table) stay lazy — each
builds a new chunked view whose chunks are produced on demand, running
the :class:`Table` verb per chunk — while terminal operations
(``group_by(...).aggregate``, ``value_counts``, ``sketch``,
``moments``, ``materialize``, ``spill``) run one bounded-memory pass.

Memory contract (the full verb-by-verb table lives in
docs/performance.md):

* lazy verbs hold at most one chunk at a time plus O(1) state;
* ``group_by`` and ``value_counts`` hold O(groups) state: they return
  the one :class:`~repro.frame.groupby.GroupBy` fold, the same one a
  :class:`Table` runs as its own one-chunk stream;
* ``sketch`` holds O(k log(n/k)) state;
* ``spill`` streams chunks to ``.npz`` files and returns a file-backed
  view (re-iterable without re-running the producing pipeline);
* ``materialize``/``head``/``sort_by``-style whole-table operations are
  the explicit escape hatch back to :class:`Table`.

Exactness: chunked ``filter``/``join``/``value_counts``/``head`` and
the ``count``/``min``/``max``/``first``/``last`` reducers are
bit-for-bit identical to running the materialized kernel on
``materialize()``; ``sum``/``mean``/``std`` merge float partials
(bit-for-bit on one chunk, deterministic for a fixed chunking); sketch
quantiles carry a tracked rank-error bound.  The streaming property
suite pins all of this against :mod:`repro.frame.reference`.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import FrameError
from repro.frame.sketch import DEFAULT_SKETCH_K, QuantileSketch, StreamingMoments
from repro.frame.table import Table, concat_tables
from repro.obs.runtime import get_metrics, get_tracer, record_event, record_peak_rss

__all__ = [
    "ChunkedTable",
    "concat_chunked",
    "merge_sorted_chunked",
    "adaptive_chunk_rows",
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_CHUNK_BYTES",
]

#: Default rows per chunk: ~0.5 MiB per float64 column.
DEFAULT_CHUNK_ROWS = 65536

#: Adaptive chunk sizing target: bytes one resident chunk may occupy.
#: 8 MiB = ``DEFAULT_CHUNK_ROWS`` rows of a 16-float64-column table, so
#: tables of that shape chunk exactly as before; wider tables get
#: proportionally fewer rows per chunk and narrow ones more, keeping
#: the memory high-water mark shape-independent.
DEFAULT_CHUNK_BYTES = 8 * 1024 * 1024

#: Bounds for the adaptive row count: never slice finer than 1024 rows
#: (per-chunk overhead would dominate) or coarser than 2**20 rows.
_MIN_ADAPTIVE_ROWS = 1024
_MAX_ADAPTIVE_ROWS = 1 << 20


def adaptive_chunk_rows(
    row_bytes: float, target_bytes: int = DEFAULT_CHUNK_BYTES
) -> int:
    """Rows per chunk so one chunk occupies ~``target_bytes``.

    ``row_bytes`` is the estimated width of one row (see
    :meth:`Table.row_nbytes`); the result is clamped to
    ``[1024, 2**20]`` so degenerate widths cannot produce pathological
    chunking.
    """
    if row_bytes <= 0:
        return DEFAULT_CHUNK_ROWS
    rows = int(target_bytes / row_bytes)
    return max(_MIN_ADAPTIVE_ROWS, min(rows, _MAX_ADAPTIVE_ROWS))

ChunkSource = Callable[[], Iterator[Table]]


class ChunkedTable:
    """A re-iterable stream of table chunks behind the ``Table`` verbs.

    Construct via :meth:`Table.to_chunked`, :meth:`ChunkedTable.scan`,
    :func:`concat_chunked`, or directly from a sequence of tables / a
    zero-argument factory returning a fresh chunk iterator.  Factories
    make the view re-iterable without buffering: every pass calls the
    factory again (e.g. re-reads the spill files).
    """

    def __init__(
        self,
        chunks: Sequence[Table] | ChunkSource,
        *,
        column_names: Sequence[str] | None = None,
        num_rows: int | None = None,
    ) -> None:
        if callable(chunks):
            self._source: ChunkSource | None = chunks
            self._chunks: tuple[Table, ...] | None = None
        else:
            self._source = None
            self._chunks = tuple(chunks)
        self._column_names = None if column_names is None else tuple(column_names)
        self._num_rows = num_rows

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_table(cls, table: Table, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> "ChunkedTable":
        """Split a materialized table into a chunked view (zero-copy rows
        are not possible with fancy indexing, but chunks are produced
        lazily so only one slice is alive at a time)."""
        if chunk_rows < 1:
            raise FrameError(f"chunk_rows must be >= 1, got {chunk_rows}")

        def produce() -> Iterator[Table]:
            for start in range(0, table.num_rows, chunk_rows):
                yield table.take(np.arange(start, min(start + chunk_rows, table.num_rows)))

        return cls(produce, column_names=table.column_names, num_rows=table.num_rows)

    @classmethod
    def scan(cls, source: Any, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> "ChunkedTable":
        """Open ``source`` as a chunked view.

        Accepts a :class:`Table` (split into chunks), a ``.csv`` or
        ``.jsonl`` path (streamed off disk), a directory of spill
        ``.npz`` files, or an iterable of tables.
        """
        from repro.frame.io import read_table_npz, scan_csv, scan_jsonl

        if isinstance(source, Table):
            return cls.from_table(source, chunk_rows)
        if isinstance(source, ChunkedTable):
            return source
        if isinstance(source, (str, Path)):
            path = Path(source)
            if path.is_dir():
                files = sorted(path.glob("*.npz"))
                if not files:
                    raise FrameError(f"no .npz spill files under {path}")
                return cls(lambda: (read_table_npz(f) for f in files))
            if path.suffix == ".csv":
                return cls(lambda: scan_csv(path, chunk_rows))
            if path.suffix == ".jsonl":
                return cls(lambda: scan_jsonl(path, chunk_rows))
            raise FrameError(
                f"cannot scan {path}: expected a .csv/.jsonl file or a directory of .npz chunks"
            )
        try:
            chunks = tuple(source)
        except TypeError:
            raise FrameError(f"cannot scan source of type {type(source).__name__}") from None
        return cls(chunks)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def chunks(self) -> Iterator[Table]:
        """Iterate the non-empty chunks (a fresh pass every call)."""
        produced = self._chunks if self._source is None else self._source()
        names = self._column_names
        for chunk in produced:
            if chunk.num_rows == 0:
                continue
            if names is None:
                names = self._column_names = chunk.column_names
            elif chunk.column_names != names:
                raise FrameError(
                    f"chunk columns {chunk.column_names} differ from {names}"
                )
            yield chunk

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names (peeks the first chunk when not yet known)."""
        if self._column_names is None:
            for _ in self.chunks():
                break
            if self._column_names is None:
                self._column_names = ()
        return self._column_names

    @property
    def num_rows(self) -> int:
        """Total rows; counted with one streaming pass when unknown."""
        if self._num_rows is None:
            self._num_rows = sum(chunk.num_rows for chunk in self.chunks())
        return self._num_rows

    def __contains__(self, name: object) -> bool:
        return name in self.column_names

    def __repr__(self) -> str:
        rows = "?" if self._num_rows is None else str(self._num_rows)
        names = ", ".join(self.column_names[:8])
        return f"ChunkedTable({rows} rows: {names})"

    def column(self, name: str) -> np.ndarray:
        raise FrameError(
            f"a ChunkedTable has no materialized column {name!r}; call "
            "materialize() for the full array, or stream it via sketch()/moments()"
        )

    __getitem__ = column

    # ------------------------------------------------------------------
    # Lazy transformations
    # ------------------------------------------------------------------
    def map_chunks(self, fn: Callable[[Table], Table], *, preserves_rows: bool = False) -> "ChunkedTable":
        """A lazy chunked view applying ``fn`` to every chunk."""
        out = ChunkedTable(lambda: (fn(chunk) for chunk in self.chunks()))
        if preserves_rows:
            out._num_rows = self._num_rows
        return out

    def select(self, names: Sequence[str]) -> "ChunkedTable":
        names = tuple(names)
        out = self.map_chunks(lambda c: c.select(names), preserves_rows=True)
        out._column_names = names
        return out

    def drop(self, names: Sequence[str]) -> "ChunkedTable":
        dropped = set(names)
        keep = tuple(n for n in self.column_names if n not in dropped)
        missing = dropped - set(self.column_names)
        if missing:
            raise FrameError(f"cannot drop missing column(s) {sorted(missing)}")
        return self.select(keep)

    def rename(self, mapping: Mapping[str, str]) -> "ChunkedTable":
        mapping = dict(mapping)
        out = self.map_chunks(lambda c: c.rename(mapping), preserves_rows=True)
        if self._column_names is not None:
            out._column_names = tuple(mapping.get(n, n) for n in self._column_names)
        return out

    def with_column(self, name: str, fn: Callable[[Table], Any]) -> "ChunkedTable":
        """Add/replace a column computed per chunk (``fn`` must be a
        callable of the chunk — broadcast scalars cannot know chunk
        lengths up front)."""
        if not callable(fn):
            raise FrameError("ChunkedTable.with_column requires a callable of the chunk")
        out = self.map_chunks(lambda c: c.with_computed(name, fn), preserves_rows=True)
        if self._column_names is not None:
            names = self._column_names
            out._column_names = names if name in names else names + (name,)
        return out

    def filter(self, mask: Callable[[Table], Any]) -> "ChunkedTable":
        """Keep rows where the per-chunk predicate is True.

        Only callables are accepted: a whole-table boolean mask would
        require knowing global row positions, which a stream does not
        have.
        """
        if not callable(mask):
            raise FrameError(
                "ChunkedTable.filter requires a callable predicate; whole-table "
                "masks need materialize()"
            )
        out = self.map_chunks(lambda c: c.filter(mask))
        # Filtering never changes the schema, so an all-filtered-out
        # stream still materializes with its columns intact.
        out._column_names = self._column_names
        return out

    def join(self, other: Table, on: str, how: str = "inner", suffix: str = "_right") -> "ChunkedTable":
        """Broadcast-join a *materialized* table onto every chunk.

        The right side must be a small :class:`Table` (it is held in
        memory and probed once per chunk); joining two chunked tables
        would need a shuffle, which this engine does not do.
        """
        if isinstance(other, ChunkedTable):
            raise FrameError(
                "ChunkedTable.join requires a materialized right side; "
                "materialize() the smaller table first"
            )
        return self.map_chunks(lambda c: c.join(other, on=on, how=how, suffix=suffix))

    def join_sorted(
        self,
        right: "Table | ChunkedTable",
        on: str,
        how: str = "inner",
        suffix: str = "_right",
    ) -> "ChunkedTable":
        """Merge-join a key-sorted right stream onto this key-sorted stream.

        Both sides must be non-decreasing on ``on`` (the key columns
        the sharded build merges by already are) and the right key must
        be unique, as in :meth:`Table.join`.  Unlike :meth:`join`, the
        right side is consumed as a stream: only the right rows that
        can still match the current left chunk are buffered, so joining
        two spilled island streams holds O(chunk) memory instead of
        materializing either side.  Row content is bit-identical to
        ``materialize().join(right.materialize(), ...)``.
        """
        if how not in ("inner", "left"):
            raise FrameError(f"unsupported join type {how!r}")
        right_view = right if isinstance(right, ChunkedTable) else ChunkedTable((right,))

        def produce() -> Iterator[Table]:
            from repro.frame.table import _sortable

            right_iter = right_view.chunks()
            buffer: Table | None = None
            exhausted = False
            chunks_in = 0
            rows_in = 0
            for chunk in self.chunks():
                chunks_in += 1
                rows_in += chunk.num_rows
                left_keys = _sortable(chunk.column(on))
                left_max = left_keys[-1]
                while not exhausted and (
                    buffer is None
                    or buffer.num_rows == 0
                    or not _sortable(buffer.column(on))[-1] > left_max
                ):
                    incoming = next(right_iter, None)
                    if incoming is None:
                        exhausted = True
                        break
                    buffer = (
                        incoming
                        if buffer is None or buffer.num_rows == 0
                        else concat_tables([buffer, incoming])
                    )
                if buffer is None or buffer.num_rows == 0:
                    matchable = Table(
                        {name: [] for name in (right_view.column_names or (on,))}
                    )
                else:
                    buffer_keys = _sortable(buffer.column(on))
                    matchable = buffer.filter(~(buffer_keys > left_max))
                    # Rows below this chunk's max key can never match a
                    # later chunk (left is non-decreasing); the boundary
                    # key itself may repeat in the next left chunk.
                    buffer = buffer.filter(~(buffer_keys < left_max))
                joined = chunk.join(matchable, on=on, how=how, suffix=suffix)
                if joined.num_rows:
                    yield joined
            _count_stream_op("join_sorted", chunks_in, rows_in)

        out = ChunkedTable(produce)
        left_names = self.column_names
        right_names = right_view.column_names
        out._column_names = left_names + tuple(
            name if name not in left_names else name + suffix
            for name in right_names
            if name != on
        )
        if how == "left":
            out._num_rows = self._num_rows
        return out

    def head(self, n: int = 5) -> Table:
        """The first ``n`` rows, materialized (stops the scan early)."""
        taken: list[Table] = []
        remaining = n
        for chunk in self.chunks():
            if remaining <= 0:
                break
            taken.append(chunk.head(remaining))
            remaining -= taken[-1].num_rows
        return concat_tables(taken)

    # ------------------------------------------------------------------
    # Terminal operations
    # ------------------------------------------------------------------
    def group_by(self, *names: str) -> "GroupBy":
        """Group by the key columns; see :class:`~repro.frame.GroupBy`.

        ``aggregate``/``sizes``/``mean``/``sum`` fold the chunks in
        O(groups) state; iterating groups needs ``materialize()``.
        """
        from repro.frame.groupby import GroupBy

        return GroupBy(self, names)

    def value_counts(self, name: str) -> Table:
        """Count occurrences of each value; see :meth:`Table.value_counts`."""
        from repro.frame.groupby import value_counts

        return value_counts(self, name)

    def sketch(self, name: str, k: int = DEFAULT_SKETCH_K) -> QuantileSketch:
        """One-pass mergeable quantile/ECDF sketch of a column."""
        sketch = QuantileSketch(k=k)
        chunks = 0
        tracer = get_tracer()
        with tracer.span("frame.stream.sketch", category="frame", column=name, k=k) as span:
            for chunk in self.chunks():
                chunks += 1
                sketch.update(chunk.column(name))
            span.set(chunks=chunks, rows=sketch.num_samples)
        _count_stream_op("sketch", chunks, sketch.num_samples)
        return sketch

    def moments(self, name: str) -> StreamingMoments:
        """One-pass count/sum/min/max/mean/std of a column."""
        moments = StreamingMoments()
        chunks = 0
        tracer = get_tracer()
        with tracer.span("frame.stream.moments", category="frame", column=name) as span:
            for chunk in self.chunks():
                chunks += 1
                moments.update(chunk.column(name))
            span.set(chunks=chunks, rows=moments.count)
        _count_stream_op("moments", chunks, moments.count)
        return moments

    def materialize(self) -> Table:
        """Concatenate every chunk back into one :class:`Table`."""
        tracer = get_tracer()
        with tracer.span("frame.stream.materialize", category="frame") as span:
            parts = list(self.chunks())
            if parts:
                table = concat_tables(parts)
            else:
                table = Table({name: [] for name in (self._column_names or ())})
            span.set(chunks=len(parts), rows=table.num_rows)
        _count_stream_op("materialize", len(parts), table.num_rows)
        self._num_rows = table.num_rows
        record_peak_rss()
        return table

    def spill(
        self,
        directory: str | Path | None = None,
        codec: "SpillCodec | None | str" = "default",
    ) -> "ChunkedTable":
        """Stream every chunk to ``.npz`` files; return the file-backed view.

        Re-iterating the result re-reads the files instead of re-running
        the producing pipeline, so a spilled view can be scanned many
        times for the cost of one upstream pass.

        Chunks are written through the spill codec
        (:class:`~repro.frame.codec.SpillCodec`): by default the
        lossless policy, whose decoded chunks are bit-identical to the
        originals; pass a codec with ``quantise=...`` to opt named
        float columns into lossy quantisation, or ``codec=None`` to
        store every column raw.  Each chunk file is one packed zip
        member (:func:`~repro.frame.io.write_table_npz`); a failed write
        leaves no file, and an ``OSError`` raises :class:`FrameError`
        naming it (:func:`~repro.frame.codec.write_spill_file`), as does
        a ``directory`` that cannot be created
        (:func:`~repro.frame.codec.make_spill_dir`).  Emits
        the ``repro_frame_spill_*`` counters
        (:func:`~repro.frame.codec.count_spill`) and a
        ``frame.stream.spill`` span carrying the chunk, row, encoded
        byte and raw byte counts.
        """
        from repro.frame.codec import LOSSLESS, count_spill, make_spill_dir
        from repro.frame.io import read_table_npz, table_raw_bytes, write_table_npz

        if codec == "default":
            codec = LOSSLESS
        target = make_spill_dir(
            tempfile.mkdtemp(prefix="repro-spill-") if directory is None else directory
        )
        paths: list[Path] = []
        rows = 0
        raw_bytes = 0
        spilled_bytes = 0
        tracer = get_tracer()
        with tracer.span("frame.stream.spill", category="frame", directory=str(target)) as span:
            for chunk in self.chunks():
                path = write_table_npz(
                    chunk, target / f"chunk_{len(paths):06d}.npz", codec=codec
                )
                paths.append(path)
                rows += chunk.num_rows
                raw_bytes += table_raw_bytes(chunk)
                spilled_bytes += path.stat().st_size
            span.set(chunks=len(paths), rows=rows, bytes=spilled_bytes, raw_bytes=raw_bytes)
        count_spill(len(paths), spilled_bytes, raw_bytes)
        _count_stream_op("spill", len(paths), rows)
        record_peak_rss()
        self._num_rows = rows
        return ChunkedTable(
            lambda: (read_table_npz(p) for p in paths),
            column_names=self._column_names,
            num_rows=rows,
        )


def concat_chunked(sources: Iterable[Table | ChunkedTable]) -> ChunkedTable:
    """Chain tables and chunked tables into one lazy chunked view.

    The inputs are *not* materialized together: chunks stream through
    in order, so the result's memory high-water mark is one chunk.
    """
    parts = list(sources)
    for part in parts:
        if not isinstance(part, (Table, ChunkedTable)):
            raise FrameError(
                f"concat_chunked accepts Table or ChunkedTable, got {type(part).__name__}"
            )

    def produce() -> Iterator[Table]:
        for part in parts:
            if isinstance(part, Table):
                if part.num_rows:
                    yield part
            else:
                yield from part.chunks()

    known: int | None = 0
    for part in parts:
        part_rows = part.num_rows if isinstance(part, Table) else part._num_rows
        if part_rows is None:
            known = None
            break
        known += part_rows
    return ChunkedTable(produce, num_rows=known)


def merge_sorted_chunked(
    sources: Sequence[ChunkedTable],
    keys: Sequence[str],
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> ChunkedTable:
    """K-way merge per-source key-sorted chunk streams into one
    globally key-sorted :class:`ChunkedTable`.

    Each source must already be non-decreasing on ``keys`` (lexico-
    graphic, the :meth:`Table.sort_by` order); the result is then
    **bit-identical** to ``concat_tables(materialized sources)
    .sort_by(*keys)`` — ties across sources resolve in source order,
    matching the stable concat+sort — while only ever holding one in-
    flight chunk per source plus the current output segment.  This is
    the verb the sharded build's parent uses to merge island spill
    directories without materializing the trace.
    """
    from repro.frame.table import _sortable

    keys = tuple(keys)
    if not keys:
        raise FrameError("merge_sorted_chunked requires at least one key column")
    parts = list(sources)
    if not parts:
        raise FrameError("merge_sorted_chunked requires at least one source")

    def row_count_le(chunk: Table, start: int, bounds: tuple) -> int:
        """Rows (from ``start``) whose key tuple is <= ``bounds``; the
        chunk is key-sorted, so the mask is a prefix and its sum is the
        slice length."""
        size = chunk.num_rows - start
        le = np.zeros(size, dtype=bool)
        eq = np.ones(size, dtype=bool)
        for name, bound in zip(keys, bounds):
            values = _sortable(chunk.column(name))[start:]
            le |= eq & (values < bound)
            eq &= values == bound
        le |= eq
        return int(le.sum())

    def last_key(chunk: Table) -> tuple:
        return tuple(_sortable(chunk.column(name))[-1] for name in keys)

    def first_key(chunk: Table, start: int) -> tuple:
        return tuple(_sortable(chunk.column(name))[start] for name in keys)

    def produce() -> Iterator[Table]:
        iters = [part.chunks() for part in parts]
        heads: list[Table | None] = [next(it, None) for it in iters]
        offsets = [0] * len(parts)
        chunks_out = 0
        rows_out = 0
        while True:
            live = [i for i, head in enumerate(heads) if head is not None]
            if not live:
                break
            boundary = min(last_key(heads[i]) for i in live)
            segment: list[Table] = []
            for i in live:
                while heads[i] is not None and not first_key(heads[i], offsets[i]) > boundary:
                    count = row_count_le(heads[i], offsets[i], boundary)
                    stop = offsets[i] + count
                    taken = heads[i].take(np.arange(offsets[i], stop))
                    if taken.num_rows:
                        segment.append(taken)
                    if stop == heads[i].num_rows:
                        heads[i] = next(iters[i], None)
                        offsets[i] = 0
                    else:
                        offsets[i] = stop
                        break
            merged = segment[0] if len(segment) == 1 else concat_tables(segment)
            merged = merged.sort_by(*keys)
            for start in range(0, merged.num_rows, chunk_rows):
                piece = merged.take(
                    np.arange(start, min(start + chunk_rows, merged.num_rows))
                )
                chunks_out += 1
                rows_out += piece.num_rows
                yield piece
        _count_stream_op("merge", chunks_out, rows_out)
        record_event(
            "frame.merge",
            category="frame",
            sources=len(parts),
            chunks=chunks_out,
            rows=rows_out,
        )

    known: int | None = 0
    names: tuple[str, ...] | None = None
    for part in parts:
        if part._num_rows is None:
            known = None
            break
        known += part._num_rows
    for part in parts:
        if part._column_names is not None:
            names = part._column_names
            break
    return ChunkedTable(produce, column_names=names, num_rows=known)


def _count_stream_op(op: str, chunks: int, rows: int) -> None:
    """Per-terminal-op chunk/row counters for the metric catalog."""
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter(
            "repro_frame_stream_chunks_total",
            help="chunks consumed by streaming frame operations",
            op=op,
        ).inc(chunks)
        metrics.counter(
            "repro_frame_stream_rows_total",
            help="rows consumed by streaming frame operations",
            op=op,
        ).inc(rows)
