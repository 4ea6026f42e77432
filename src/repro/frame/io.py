"""CSV, JSONL, and NPZ persistence for :class:`repro.frame.Table`.

The epilog of the monitoring substrate writes per-node files back to a
central location (mirroring the paper's data collection); these helpers
are the serialization layer.  CSV readers infer numeric columns.

Two access patterns are supported: the classic whole-table
``read_*``/``write_*`` pair, and the *streaming* ``scan_csv``/
``scan_jsonl`` generators that yield bounded-size :class:`Table`
chunks for :class:`repro.frame.chunked.ChunkedTable`.  The NPZ pair
(``write_table_npz``/``read_table_npz``) is the spill format of the
chunked engine: each chunk is one ``.npz``-named zip holding a single
packed member (:func:`repro.frame.codec.pack`), so reading a chunk back
is one member read and one header parse.  Numeric columns round-trip
bit-for-bit, object columns via pickle; a damaged or older-layout file
raises :class:`~repro.errors.FrameError` naming it.
"""

from __future__ import annotations

import csv
import json
import zipfile
from itertools import islice
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.errors import FrameError
from repro.frame.column import as_column
from repro.frame.table import Table, _unwrap

#: The one member of a spilled table chunk.
_CHUNK_MEMBER = "chunk"


def write_csv(table: Table, path: str | Path) -> Path:
    """Write the table to ``path`` as UTF-8 CSV and return the path.

    One ``writerows`` call over the transposed columns; ``None`` lands
    as an empty cell, which is how ``csv`` writes it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [_cells(table.column(name)) for name in table.column_names]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.column_names)
        writer.writerows(zip(*columns))
    return path


def read_csv(path: str | Path) -> Table:
    """Read a CSV written by :func:`write_csv`, inferring numeric columns."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        return _parse_rows(header, list(reader))


def write_jsonl(table: Table, path: str | Path) -> Path:
    """Write one JSON object per row and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for row in table.iter_rows():
            fh.write(json.dumps({k: _unwrap(v) for k, v in row.items()}) + "\n")
    return path


def read_jsonl(path: str | Path) -> Table:
    """Read a JSONL file into a table (union of keys across rows)."""
    rows = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return Table.from_rows(rows)


def scan_csv(path: str | Path, chunk_rows: int = 65536) -> Iterator[Table]:
    """Stream a CSV written by :func:`write_csv` as bounded-size tables.

    Each yielded chunk holds at most ``chunk_rows`` rows and shares the
    header's column set.  Cell typing is per-chunk (the same
    int/float/bool/str inference as :func:`read_csv`), so a column may
    surface as numeric in one chunk and object in another; the chunked
    verbs are dtype-tolerant by design.
    """
    if chunk_rows < 1:
        raise FrameError(f"chunk_rows must be >= 1, got {chunk_rows}")
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        while rows := list(islice(reader, chunk_rows)):
            yield _parse_rows(header, rows)


def scan_jsonl(path: str | Path, chunk_rows: int = 65536) -> Iterator[Table]:
    """Stream a JSONL file as bounded-size tables.

    The column set is fixed by the first row (later rows may omit keys,
    which become ``None``; extra keys raise), so every chunk is
    concat-compatible.
    """
    if chunk_rows < 1:
        raise FrameError(f"chunk_rows must be >= 1, got {chunk_rows}")
    path = Path(path)
    columns: list[str] | None = None
    rows: list[dict[str, Any]] = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if columns is None:
                columns = list(row)
            else:
                extra = [k for k in row if k not in columns]
                if extra:
                    raise FrameError(
                        f"JSONL row introduces new column(s) {extra} after the "
                        f"first row fixed {columns}"
                    )
            rows.append(row)
            if len(rows) == chunk_rows:
                yield Table.from_rows(rows, columns=columns)
                rows = []
    if rows and columns is not None:
        yield Table.from_rows(rows, columns=columns)


def write_table_npz(
    table: Table, path: str | Path, codec: "SpillCodec | None" = None
) -> Path:
    """Write one table as a spill file (a one-member ``.npz`` zip).

    The member packs every column encoded by ``codec``: a
    :class:`~repro.frame.codec.SpillCodec` picks delta/RLE for
    integers, exact RLE for run-heavy floats, dictionary coding for
    object columns and opt-in quantisation for the columns it names;
    ``codec=None`` stores every column ``raw``.  Column order is kept.
    A failed write leaves no file; an ``OSError`` raises
    :class:`FrameError` naming it.
    """
    from repro.frame.codec import write_spill_file

    path = Path(path)
    if path.suffix != ".npz":
        raise FrameError(f"spill files must end in .npz, got {path.name}")
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = {name: table.column(name) for name in table.column_names}
    write_spill_file(path, [(_CHUNK_MEMBER, columns)], codec)
    return path


def read_table_npz(path: str | Path) -> Table:
    """Read a table written by :func:`write_table_npz`.

    Any read failure — a missing, truncated or corrupt file, or one in
    an older spill layout — raises :class:`FrameError` naming ``path``.
    """
    from repro.frame.codec import SPILL_READ_ERRORS, read_spill_member

    path = Path(path)
    try:
        with zipfile.ZipFile(path) as archive:
            return Table(read_spill_member(archive, _CHUNK_MEMBER))
    except SPILL_READ_ERRORS as error:
        raise FrameError(f"cannot read spill chunk {path}: {error}") from error


def table_raw_bytes(table: Table) -> int:
    """Bytes ``table``'s columns take unencoded.

    The raw side of the spill compression ratio: numeric columns count
    their buffer size, object columns their pickled size.
    """
    from repro.frame.codec import column_raw_bytes

    return sum(
        column_raw_bytes(np.asarray(table.column(name)))
        for name in table.column_names
    )


def _cells(column: np.ndarray) -> list[Any]:
    """A column's cells as native Python values, as ``Table.row`` gives them."""
    if column.dtype == object:
        return [_unwrap(value) for value in column]
    return column.tolist()


def _read_header(reader: Iterator[list[str]], path: Path) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise FrameError(f"CSV file {path} is empty") from None
    if len(set(header)) != len(header):
        raise FrameError(f"CSV file {path} repeats a column name: {header}")
    return header


def _parse_rows(header: list[str], rows: list[list[str]]) -> Table:
    """Type ``rows`` column by column into a table."""
    for raw in rows:
        if len(raw) != len(header):
            raise FrameError(f"CSV row has {len(raw)} cells, header has {len(header)}")
    columns = zip(*rows) if rows else [()] * len(header)
    return Table(dict(zip(header, map(_parse_column, columns))))


def _parse_column(cells: tuple[str, ...]) -> np.ndarray:
    """One column, typed exactly as ``as_column`` types ``map(_parse, cells)``.

    All-int and all-float columns parse in one C loop.  Everything else
    takes :func:`_parse` once per distinct cell: bool and empty cells,
    and the two float columns whose per-cell typing ``float`` cannot
    reproduce — one holding an int cell of magnitude 2**63 or more
    (numpy then infers float64 or object) or a ``-0`` int cell (+0.0
    per cell, -0.0 by ``float``).
    """
    if cells:
        try:
            return np.fromiter(map(int, cells), np.int64, len(cells))
        except (ValueError, OverflowError):
            pass
        try:
            values = np.fromiter(map(float, cells), np.float64, len(cells))
        except ValueError:
            pass
        else:
            suspect = (np.abs(values) >= 2.0**63) | (np.signbit(values) & (values == 0))
            if not suspect.any():
                return values
    parsed = {cell: _parse(cell) for cell in set(cells)}
    return as_column([parsed[cell] for cell in cells])


def _parse(cell: str) -> Any:
    """Best-effort scalar parse: int, then float, then string."""
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        pass
    if cell == "True":
        return True
    if cell == "False":
        return False
    return cell
