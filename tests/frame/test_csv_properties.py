"""Column-wise CSV IO against the row-at-a-time reference.

:func:`~repro.frame.read_csv` and :func:`~repro.frame.scan_csv` type
each column in one pass (all-int, all-float, else ``_parse`` per
distinct cell) and :func:`~repro.frame.write_csv` writes the transposed
columns in one call; :mod:`repro.frame.reference` keeps the per-cell
reader and the per-row writer.  Written files must be byte-identical.
Read tables must agree in names and dtypes, numeric columns byte for
byte and object cells in value and type.  The cell pool holds every
cell whose per-cell typing the column parser cannot take on trust.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import Table, read_csv, scan_csv, write_csv
from repro.frame.reference import naive_read_csv, naive_write_csv

CELLS = (
    "", "-0", "0", " 1", "1_0", "1.5", "nan", "inf", "1e400", "True", "False",
    str(2**63), str(10**20), "١", "x",
)

text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=5,
)
floats = st.one_of(st.floats(), st.sampled_from([-0.0, float("nan"), float("inf"), 1e300]))
scalars = st.one_of(
    st.none(), text, st.booleans(), st.integers(-(2**63), 2**63 - 1), floats,
    st.floats(width=32).map(np.float32), st.integers(-5, 5).map(np.int64),
)
COLUMN_KINDS = {
    "int": st.integers(-(2**63), 2**63 - 1),
    "float": floats,
    "bool": st.booleans(),
    "str": text,
    "str_none": st.one_of(text, st.none()),
    "mixed": scalars,
}


@st.composite
def tables(draw, max_rows=12, max_cols=4):
    n = draw(st.integers(0, max_rows))
    columns = {}
    for i in range(draw(st.integers(1, max_cols))):
        kind = draw(st.sampled_from(sorted(COLUMN_KINDS)))
        columns[f"{kind}{i}"] = draw(st.lists(COLUMN_KINDS[kind], min_size=n, max_size=n))
    return Table(columns)


@st.composite
def grids(draw, max_rows=12, max_cols=4):
    """A header and rows of cells; each column draws from a small subset
    of :data:`CELLS`, so all-int and all-float columns come up often."""
    n = draw(st.integers(0, max_rows))
    columns = []
    for _ in range(draw(st.integers(1, max_cols))):
        pool = draw(st.lists(st.sampled_from(CELLS), min_size=1, max_size=3, unique=True))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    header = [f"c{i}" for i in range(len(columns))]
    return header, [list(row) for row in zip(*columns)]


def write_grid(path: Path, header: list[str], rows: list[list[str]]) -> Path:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def assert_same_table(got: Table, want: Table) -> None:
    assert got.column_names == want.column_names
    for name in want.column_names:
        g, w = got.column(name), want.column(name)
        assert g.dtype == w.dtype, name
        if w.dtype == object:
            assert [(type(v), repr(v)) for v in g] == [(type(v), repr(v)) for v in w], name
        else:
            assert g.tobytes() == w.tobytes(), name


@given(tables())
@settings(max_examples=200, deadline=None)
def test_write_csv_matches_reference_bytes(table):
    with tempfile.TemporaryDirectory() as tmp:
        got = write_csv(table, Path(tmp) / "got.csv").read_bytes()
        want = naive_write_csv(table, Path(tmp) / "want.csv").read_bytes()
    assert got == want


@given(grids())
@settings(max_examples=300, deadline=None)
def test_read_csv_matches_reference(grid):
    header, rows = grid
    with tempfile.TemporaryDirectory() as tmp:
        path = write_grid(Path(tmp) / "t.csv", header, rows)
        assert_same_table(read_csv(path), naive_read_csv(path))


@given(grids(), st.sampled_from(["1", "3", "n"]))
@settings(max_examples=150, deadline=None)
def test_scan_csv_matches_reference_chunk_by_chunk(grid, chunk_rows):
    header, rows = grid
    chunk_rows = max(len(rows), 1) if chunk_rows == "n" else int(chunk_rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_grid(Path(tmp) / "t.csv", header, rows)
        got = list(scan_csv(path, chunk_rows))
        want = [
            naive_read_csv(write_grid(Path(tmp) / f"{start}.csv", header, rows[start : start + chunk_rows]))
            for start in range(0, len(rows), chunk_rows)
        ]
    assert len(got) == len(want)
    for got_chunk, want_chunk in zip(got, want):
        assert_same_table(got_chunk, want_chunk)
