"""Naive row-at-a-time reference implementations of the grouped ops and CSV IO.

These are the original (pre-vectorization) engine bodies, kept verbatim
as executable specifications: the property tests assert that the
vectorized kernels in :mod:`repro.frame.groupby` / :class:`Table` and
the column-wise CSV reader and writer in :mod:`repro.frame.io`
produce identical results, and ``benchmarks/bench_frame.py`` measures
the speedup against them.  They are not exported through the package
namespace and should never be called from production paths.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import FrameError
from repro.frame.io import _parse
from repro.frame.table import Table, _unwrap


def naive_group_index(table: Table, keys: Sequence[str]) -> dict[tuple[Any, ...], np.ndarray]:
    """Per-row dict bucketing: group key tuple -> row indices."""
    columns = [table.column(k) for k in keys]
    buckets: dict[tuple[Any, ...], list[int]] = {}
    for i in range(table.num_rows):
        key = tuple(_unwrap(col[i]) for col in columns)
        buckets.setdefault(key, []).append(i)
    return {k: np.asarray(v, dtype=np.intp) for k, v in buckets.items()}


def naive_aggregate(
    table: Table, keys: Sequence[str], spec: Mapping[str, Sequence[str] | str]
) -> Table:
    """Row-loop group-by + per-bucket reduction via ``Table.from_rows``."""
    from repro.frame.groupby import _BUILTIN_REDUCERS

    normalized = []
    for column, reducers in spec.items():
        if isinstance(reducers, str):
            reducers = [reducers]
        for name in reducers:
            if name not in _BUILTIN_REDUCERS:
                raise FrameError(
                    f"unknown reducer {name!r}; choose from {sorted(_BUILTIN_REDUCERS)}"
                )
            normalized.append((column, name, _BUILTIN_REDUCERS[name]))

    rows = []
    for key, idx in naive_group_index(table, keys).items():
        row: dict[str, Any] = dict(zip(keys, key))
        for column, name, fn in normalized:
            row[f"{column}_{name}"] = fn(table.column(column)[idx])
        rows.append(row)
    return Table.from_rows(rows)


def naive_sizes(table: Table, keys: Sequence[str]) -> Table:
    rows = [
        dict(zip(keys, k), count=len(idx))
        for k, idx in naive_group_index(table, keys).items()
    ]
    return Table.from_rows(rows)


def naive_value_counts(table: Table, name: str) -> Table:
    counts: dict[Any, int] = {}
    for value in table.column(name):
        key = _unwrap(value)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
    return Table.from_rows([{name: value, "count": count} for value, count in ordered])


def naive_pivot(
    table: Table, index: str, columns: str, values: str, reducer: str = "sum"
) -> Table:
    from repro.frame.groupby import _BUILTIN_REDUCERS

    if reducer not in _BUILTIN_REDUCERS:
        raise FrameError(f"unknown reducer {reducer!r}")
    fn = _BUILTIN_REDUCERS[reducer]
    buckets: dict[Any, dict[Any, list]] = {}
    column_order: dict[Any, None] = {}
    idx_col = table.column(index)
    col_col = table.column(columns)
    val_col = table.column(values)
    for i in range(table.num_rows):
        row_key = _unwrap(idx_col[i])
        col_key = _unwrap(col_col[i])
        column_order.setdefault(col_key, None)
        buckets.setdefault(row_key, {}).setdefault(col_key, []).append(val_col[i])
    fill = 0 if reducer in ("sum", "count") else None
    rows = []
    for row_key, cells in buckets.items():
        row: dict[str, Any] = {index: row_key}
        for col_key in column_order:
            bucket = cells.get(col_key)
            row[str(col_key)] = fn(np.asarray(bucket)) if bucket else fill
        rows.append(row)
    return Table.from_rows(rows)


def naive_join(
    left: Table, other: Table, on: str, how: str = "inner", suffix: str = "_right"
) -> Table:
    """Python hash-loop equality join (unique right key)."""
    if how not in ("inner", "left"):
        raise FrameError(f"unsupported join type {how!r}")
    right_keys = other.column(on)
    lookup: dict[Any, int] = {}
    for i, key in enumerate(right_keys):
        key = _unwrap(key)
        if key in lookup:
            raise FrameError(f"join key {on!r} is not unique in right table ({key!r})")
        lookup[key] = i

    left_idx: list[int] = []
    right_idx: list[int] = []
    for i, key in enumerate(left.column(on)):
        j = lookup.get(_unwrap(key))
        if j is not None:
            left_idx.append(i)
            right_idx.append(j)
        elif how == "left":
            left_idx.append(i)
            right_idx.append(-1)

    result = left.take(np.asarray(left_idx, dtype=np.intp))
    right_rows = np.asarray(right_idx, dtype=np.intp)
    matched = right_rows >= 0
    for name in other.column_names:
        if name == on:
            continue
        out_name = name if name not in left.column_names else name + suffix
        source = other.column(name)
        if matched.all():
            values = source[right_rows]
        else:
            values = np.empty(len(right_rows), dtype=object)
            values[matched] = source[right_rows[matched]]
            values[~matched] = None
        result = result.with_column(out_name, values)
    return result


def naive_write_csv(table: Table, path: str | Path) -> Path:
    """One ``writerow`` per row dict, ``None`` written as ``""``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.column_names)
        for row in table.iter_rows():
            writer.writerow(["" if v is None else v for v in row.values()])
    return path


def naive_read_csv(path: str | Path) -> Table:
    """Per-cell :func:`~repro.frame.io._parse` into per-column lists."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FrameError(f"CSV file {path} is empty") from None
        raw_rows = list(reader)
    columns: dict[str, list[Any]] = {name: [] for name in header}
    for raw in raw_rows:
        if len(raw) != len(header):
            raise FrameError(f"CSV row has {len(raw)} cells, header has {len(header)}")
        for name, cell in zip(header, raw):
            columns[name].append(_parse(cell))
    return Table(columns)
