"""Typed columnar accumulators: build a :class:`Table` without row dicts.

Hot producers (the monitoring epilog, the accounting export, group-by
outputs) used to stage ``list[dict]`` and pay for a dict per row plus a
per-column comprehension in ``Table.from_rows``.  A
:class:`TableBuilder` holds one Python list per column and appends
values directly; :meth:`finish` coerces each list through the normal
column rules exactly once.

Rows may be ragged: a value for a column the builder has not seen yet
backfills ``None`` for all earlier rows, and rows missing a known
column append ``None`` — the same union-of-keys semantics as
``Table.from_rows``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.frame.table import Table


class TableBuilder:
    """Accumulates columns and finishes into a :class:`Table`.

    Parameters
    ----------
    columns:
        Optional column names to declare up front.  Declared columns
        appear in the finished table (empty if never filled) and fix
        the leading column order.
    """

    def __init__(self, columns: Sequence[str] | None = None) -> None:
        self._data: dict[str, list[Any]] = {str(name): [] for name in (columns or [])}
        self._length = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    @property
    def num_rows(self) -> int:
        return self._length

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._data)

    # ------------------------------------------------------------------
    def append_row(self, row: Mapping[str, Any] | None = None, **values: Any) -> None:
        """Append one row given as a mapping and/or keyword arguments."""
        merged = dict(row) if row else {}
        if values:
            merged.update(values)
        for name, value in merged.items():
            column = self._data.get(name)
            if column is None:
                column = self._data[name] = [None] * self._length
            column.append(value)
        if len(merged) < len(self._data):
            for name, column in self._data.items():
                if len(column) == self._length:
                    column.append(None)
        self._length += 1

    def accumulator(self, name: str) -> list[Any]:
        """Direct handle on one column's list for hot append loops.

        Callers appending through accumulators must keep every column
        the same length themselves (``finish`` still validates) and
        must not mix accumulator appends with :meth:`append_row`, whose
        ``None`` backfill relies on the builder's own row count.
        """
        column = self._data.get(name)
        if column is None:
            column = self._data[str(name)] = [None] * self._length
        return column

    # ------------------------------------------------------------------
    def finish(self) -> Table:
        """Build the table (non-destructive: the builder stays usable)."""
        return Table(self._data)
