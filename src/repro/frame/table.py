"""The :class:`Table` columnar container.

A table is an ordered mapping of column names to equal-length numpy
arrays.  All operations return new tables; columns are shared (not
copied) wherever the operation permits, so tables are cheap to slice.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ColumnMissingError, FrameError, LengthMismatchError
from repro.frame.column import _all_numeric, as_column, column_dtype
from repro.obs.runtime import record_kernel


class Table:
    """An immutable-by-convention columnar table.

    Parameters
    ----------
    columns:
        Mapping of column name to column values.  Values are coerced via
        :func:`repro.frame.column.as_column` and must share one length.
    """

    def __init__(self, columns: Mapping[str, Any] | None = None) -> None:
        self._columns: dict[str, np.ndarray] = {}
        length: int | None = None
        for name, values in (columns or {}).items():
            array = as_column(values)
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise LengthMismatchError(
                    f"column {name!r} has length {len(array)}, expected {length}"
                )
            self._columns[str(name)] = array
        self._length = length or 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None = None) -> "Table":
        """Build a table from an iterable of row dictionaries.

        When ``columns`` is omitted the union of keys (in first-seen
        order) is used; missing values become ``None``.
        """
        rows = list(rows)
        if columns is None:
            seen: dict[str, None] = {}
            for row in rows:
                for key in row:
                    seen.setdefault(key, None)
            columns = list(seen)
        data = {name: [row.get(name) for row in rows] for name in columns}
        return cls(data)

    @classmethod
    def empty(cls, columns: Sequence[str]) -> "Table":
        """Return a zero-row table with the given column names."""
        return cls({name: np.empty(0, dtype=object) for name in columns})

    @classmethod
    def scan(cls, source: Any, chunk_rows: int | None = None) -> "ChunkedTable":
        """Open ``source`` as an out-of-core :class:`ChunkedTable`.

        Accepts a :class:`Table`, a ``.csv``/``.jsonl`` path, a
        directory of spill ``.npz`` chunks, or an iterable of tables —
        see :meth:`repro.frame.chunked.ChunkedTable.scan`.
        """
        from repro.frame.chunked import DEFAULT_CHUNK_ROWS, ChunkedTable

        return ChunkedTable.scan(
            source, DEFAULT_CHUNK_ROWS if chunk_rows is None else chunk_rows
        )

    def to_chunked(self, chunk_rows: int | None = None) -> "ChunkedTable":
        """Split this table into a :class:`ChunkedTable` view.

        With ``chunk_rows=None`` the row count is sized adaptively from
        the table's row width so one chunk occupies roughly
        :data:`~repro.frame.chunked.DEFAULT_CHUNK_BYTES` regardless of
        how wide the table is (see :func:`adaptive_chunk_rows`).
        """
        from repro.frame.chunked import ChunkedTable, adaptive_chunk_rows

        return ChunkedTable.from_table(
            self,
            adaptive_chunk_rows(self.row_nbytes) if chunk_rows is None else chunk_rows,
        )

    def chunks(self) -> Iterator["Table"]:
        """The one-chunk stream: this table, or nothing when it is empty.

        Gives a materialized table the
        :meth:`~repro.frame.ChunkedTable.chunks` protocol (which skips
        empty chunks as well), so a chunk fold written once serves both
        representations.
        """
        if self._length:
            yield self

    @property
    def row_nbytes(self) -> float:
        """Estimated bytes one row occupies across all columns.

        Numeric columns count their itemsize; object columns are
        estimated at a flat per-cell cost (the exact payload depends on
        the pickled strings).  Drives adaptive chunk sizing.
        """
        width = 0.0
        for name in self._columns:
            column = self._columns[name]
            if column.dtype == object:
                width += 24.0
            else:
                width += column.dtype.itemsize
        return width

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    @property
    def num_rows(self) -> int:
        return self._length

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __repr__(self) -> str:
        cols = ", ".join(self.column_names[:8])
        suffix = ", ..." if self.num_columns > 8 else ""
        return f"Table({self.num_rows} rows x {self.num_columns} cols: {cols}{suffix})"

    def column(self, name: str) -> np.ndarray:
        """Return the column array (a view, never a copy)."""
        try:
            return self._columns[name]
        except KeyError:
            raise ColumnMissingError(name, self.column_names) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def row(self, index: int) -> dict[str, Any]:
        """Return one row as a plain dictionary (numpy scalars unwrapped)."""
        if not -self._length <= index < self._length:
            raise IndexError(f"row {index} out of range for {self._length} rows")
        return {name: _unwrap(col[index]) for name, col in self._columns.items()}

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Iterate over rows as dictionaries (slow path, for IO/tests)."""
        for i in range(self._length):
            yield self.row(i)

    def to_dict(self) -> dict[str, list[Any]]:
        """Return a plain ``dict`` of lists (deep copy)."""
        return {name: [_unwrap(v) for v in col] for name, col in self._columns.items()}

    def dtypes(self) -> dict[str, str]:
        """Map each column to ``"numeric"``/``"string"``/``"object"``."""
        return {name: column_dtype(col) for name, col in self._columns.items()}

    # ------------------------------------------------------------------
    # Column-level transformation
    # ------------------------------------------------------------------
    def select(self, names: Sequence[str]) -> "Table":
        """Return a table containing only ``names`` (order preserved)."""
        return Table({name: self.column(name) for name in names})

    def drop(self, names: Sequence[str]) -> "Table":
        """Return a table without the given columns."""
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise ColumnMissingError(missing[0], self.column_names)
        keep = [n for n in self.column_names if n not in set(names)]
        return self.select(keep)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Return a table with columns renamed per ``mapping``."""
        for old in mapping:
            if old not in self._columns:
                raise ColumnMissingError(old, self.column_names)
        return Table({mapping.get(name, name): col for name, col in self._columns.items()})

    def with_column(self, name: str, values: Any) -> "Table":
        """Return a table with ``name`` added or replaced."""
        array = as_column(values)
        if self._columns and len(array) != self._length:
            raise LengthMismatchError(
                f"new column {name!r} has length {len(array)}, table has {self._length} rows"
            )
        merged = dict(self._columns)
        merged[name] = array
        return Table(merged)

    def with_computed(self, name: str, fn: Callable[["Table"], Any]) -> "Table":
        """Return a table with ``name`` set to ``fn(self)`` (vectorised)."""
        return self.with_column(name, fn(self))

    # ------------------------------------------------------------------
    # Row-level transformation
    # ------------------------------------------------------------------
    def take(self, indices: Any) -> "Table":
        """Return the rows at ``indices`` (fancy indexing)."""
        idx = np.asarray(indices)
        return Table({name: col[idx] for name, col in self._columns.items()})

    def filter(self, mask: Any) -> "Table":
        """Return rows where the boolean ``mask`` is True.

        ``mask`` may be a boolean array or a callable applied to the
        table that returns one.
        """
        if callable(mask):
            mask = mask(self)
        mask = np.asarray(mask)
        if mask.dtype != bool:
            raise FrameError(f"filter mask must be boolean, got dtype {mask.dtype}")
        if len(mask) != self._length:
            raise LengthMismatchError(
                f"mask length {len(mask)} != table length {self._length}"
            )
        return self.take(np.nonzero(mask)[0])

    def head(self, n: int = 5) -> "Table":
        """Return the first ``n`` rows."""
        return self.take(np.arange(min(n, self._length)))

    def sort_by(self, *names: str, descending: bool = False) -> "Table":
        """Return the table sorted by the given columns (stable).

        ``descending=True`` inverts the key order (dense ranks are
        negated) rather than reversing the sorted rows, so rows that
        tie on every key keep their first-seen order.
        """
        if not names:
            raise FrameError("sort_by requires at least one column name")
        keys = [self.column(name) for name in reversed(names)]
        order = np.lexsort([_sort_key(k, descending) for k in keys])
        return self.take(order)

    def unique(self, name: str) -> np.ndarray:
        """Return the sorted unique values of a column."""
        return np.unique(_sortable(self.column(name)))

    def value_counts(self, name: str) -> "Table":
        """Count occurrences of each value, most frequent first (ties
        broken by the value's string form); the value column keeps the
        column's dtype.  The same fold serves a
        :class:`~repro.frame.ChunkedTable`."""
        from repro.frame.groupby import value_counts

        return value_counts(self, name)

    def pivot(
        self,
        index: str,
        columns: str,
        values: str,
        reducer: str = "sum",
    ) -> "Table":
        """Cross-tabulate: one row per ``index`` value, one column per
        ``columns`` value, cells reduced from ``values``.

        Missing combinations yield 0 for ``sum``/``count`` and None
        otherwise.  Column order follows first appearance.
        """
        from repro.frame.factorize import factorize_columns
        from repro.frame.groupby import _BUILTIN_REDUCERS, _reduce_segments

        if reducer not in _BUILTIN_REDUCERS:
            raise FrameError(f"unknown reducer {reducer!r}")
        record_kernel("pivot", self._length)
        idx_col = self.column(index)
        col_col = self.column(columns)
        val_col = self.column(values)
        if self._length == 0:
            return Table.from_rows([])

        row_fact = factorize_columns([idx_col])
        col_fact = factorize_columns([col_col])
        n_rows, n_cols = row_fact.num_groups, col_fact.num_groups
        # One factorized code per (index, columns) cell, then one pass
        # of segment reduction over the cell-sorted value column.
        cell_codes = row_fact.codes * np.intp(n_cols) + col_fact.codes
        cell_fact = factorize_columns([cell_codes])
        reduced = _reduce_segments(val_col[cell_fact.order], cell_fact, reducer)
        # Map each present cell back to its (row group, column group).
        cell_rows, cell_cols = np.divmod(cell_codes[cell_fact.first_rows], n_cols)

        numeric_fill = reducer in ("sum", "count")
        data: dict[str, Any] = {index: idx_col[row_fact.first_rows]}
        col_labels = [str(_unwrap(v)) for v in col_col[col_fact.first_rows]]
        for c, label in enumerate(col_labels):
            mask = cell_cols == c
            if numeric_fill:
                cells = np.zeros(n_rows, dtype=reduced.dtype)
                cells[cell_rows[mask]] = reduced[mask]
            else:
                cells = np.empty(n_rows, dtype=object)
                cells[:] = None
                cells[cell_rows[mask]] = reduced[mask].tolist()
            data[label] = cells
        return Table(data)

    # ------------------------------------------------------------------
    # Group-by and join
    # ------------------------------------------------------------------
    def group_by(self, *names: str) -> "GroupBy":
        """Group rows by the given key columns; see :class:`GroupBy`."""
        from repro.frame.groupby import GroupBy

        return GroupBy(self, names)

    def join(self, other: "Table", on: str, how: str = "inner", suffix: str = "_right") -> "Table":
        """Join two tables on an equality key.

        Supports ``how="inner"`` and ``how="left"``.  The right table's
        key must be unique (this mirrors the paper's pipeline, which
        joins per-job GPU summaries onto Slurm accounting rows by job
        id).  Overlapping non-key columns from ``other`` get ``suffix``.
        """
        if how not in ("inner", "left"):
            raise FrameError(f"unsupported join type {how!r}")
        record_kernel("join", self._length + other._length)
        left_keys = self.column(on)
        right_keys = other.column(on)
        # Factorize left and right keys over one shared code space so
        # matching is pure integer indexing.  Only codes are needed —
        # not the grouped view — so the cheap factorization suffices.
        from repro.frame.factorize import factorize_codes

        codes, num_groups = factorize_codes(_concat_columns(left_keys, right_keys))
        left_codes = codes[: len(left_keys)]
        right_codes = codes[len(left_keys) :]
        counts = np.bincount(right_codes, minlength=num_groups)
        if (counts > 1).any():
            dup = _unwrap(right_keys[np.flatnonzero(counts[right_codes] > 1)[0]])
            raise FrameError(f"join key {on!r} is not unique in right table ({dup!r})")
        lookup = np.full(num_groups, -1, dtype=np.intp)
        lookup[right_codes] = np.arange(len(right_keys), dtype=np.intp)

        right_rows = lookup[left_codes]
        if how == "inner":
            left_idx = np.flatnonzero(right_rows >= 0)
            if len(left_idx) == self._length:
                left_idx = None
            else:
                right_rows = right_rows[left_idx]
        else:
            left_idx = None

        # When every left row survives, share the left columns instead
        # of copying them — tables are immutable-by-convention, so the
        # identity gather is pure waste.
        result = self if left_idx is None else self.take(left_idx)
        matched = right_rows >= 0
        for name in other.column_names:
            if name == on:
                continue
            out_name = name if name not in self._columns else name + suffix
            source = other.column(name)
            if matched.all():
                values = source[right_rows]
            else:
                values = np.empty(len(right_rows), dtype=object)
                values[matched] = source[right_rows[matched]]
                values[~matched] = None
            result = result.with_column(out_name, values)
        return result

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def describe(self, percentiles: Sequence[float] = (25, 50, 75)) -> "Table":
        """Summarise numeric columns (count/mean/std/min/percentiles/max)."""
        rows = []
        for name, col in self._columns.items():
            if column_dtype(col) != "numeric":
                continue
            values = col.astype(float)
            values = values[np.isfinite(values)]
            row: dict[str, Any] = {"column": name, "count": int(values.size)}
            if values.size:
                row.update(
                    mean=float(values.mean()),
                    std=float(values.std(ddof=0)),
                    min=float(values.min()),
                    max=float(values.max()),
                )
                for p in percentiles:
                    row[f"p{p:g}"] = float(np.percentile(values, p))
            rows.append(row)
        return Table.from_rows(rows)

    def to_string(self, max_rows: int = 20) -> str:
        """Render the table as aligned text for terminals/logs."""
        names = list(self.column_names)
        if not names:
            return "(empty table)"
        shown = min(self._length, max_rows)
        cells = [[_format_cell(self._columns[n][i]) for n in names] for i in range(shown)]
        widths = [
            max(len(names[j]), *(len(r[j]) for r in cells)) if cells else len(names[j])
            for j in range(len(names))
        ]
        header = "  ".join(n.ljust(w) for n, w in zip(names, widths))
        lines = [header, "  ".join("-" * w for w in widths)]
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if shown < self._length:
            lines.append(f"... ({self._length - shown} more rows)")
        return "\n".join(lines)


def concat_tables(tables: Iterable[Table]) -> Table:
    """Stack tables with identical column sets vertically."""
    tables = [t for t in tables if t.num_rows or t.num_columns]
    if not tables:
        return Table()
    names = tables[0].column_names
    for t in tables[1:]:
        if t.column_names != names:
            raise FrameError(
                f"cannot concat tables with differing columns: {names} vs {t.column_names}"
            )
    data = {}
    for name in names:
        parts = [t.column(name) for t in tables]
        if all(np.issubdtype(p.dtype, np.number) or p.dtype == bool for p in parts):
            data[name] = np.concatenate(parts)
        else:
            merged = np.empty(sum(len(p) for p in parts), dtype=object)
            offset = 0
            for p in parts:
                merged[offset : offset + len(p)] = p
                offset += len(p)
            data[name] = merged
    return Table(data)


def _concat_columns(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Stack two columns; objects win when dtypes disagree."""
    if (
        left.dtype != object
        and right.dtype != object
        and (np.issubdtype(left.dtype, np.number) or left.dtype == bool)
        and (np.issubdtype(right.dtype, np.number) or right.dtype == bool)
    ):
        return np.concatenate([left, right])
    merged = np.empty(len(left) + len(right), dtype=object)
    merged[: len(left)] = left
    merged[len(left) :] = right
    return merged


def _sortable(column: np.ndarray) -> np.ndarray:
    """Return an array usable as a lexsort key.

    Object columns of pure numbers compare numerically (an object
    column of ints must not sort "10" before "9"); any other object
    column falls back to string form.
    """
    if column.dtype == object:
        material = column.tolist()
        if _all_numeric(material):
            return np.asarray(material, dtype=float)
        return np.asarray([str(v) for v in column])
    return column


def _sort_key(column: np.ndarray, descending: bool) -> np.ndarray:
    """Lexsort key for one column; descending via negated dense ranks.

    Negating ranks (rather than reversing the final order) flips the
    key comparison while leaving tied rows in first-seen order, which
    keeps ``sort_by`` stable in both directions.
    """
    key = _sortable(column)
    if not descending:
        return key
    _, inverse = np.unique(key, return_inverse=True)
    return -inverse.astype(np.intp, copy=False)


def _unwrap(value: Any) -> Any:
    """Convert numpy scalars into native Python values."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _format_cell(value: Any) -> str:
    value = _unwrap(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
