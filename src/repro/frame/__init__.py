"""A small columnar table library built on numpy.

The paper's analysis pipeline was written against pandas (accelerated
with Modin).  pandas is not available in this environment, so
:mod:`repro.frame` provides the subset of columnar operations the
characterization actually needs: typed columns, boolean filtering,
sorting, group-by with aggregation, joins, CSV/JSONL/NPZ persistence —
and, for inputs larger than memory, *chunked* execution behind the
same verbs (:class:`ChunkedTable`, :class:`QuantileSketch`; see
``docs/frame.md``).

This package is the single public surface: import every name from
``repro.frame`` itself.  The submodules (``repro.frame.table``,
``repro.frame.io``, ...) are implementation detail.
:mod:`repro.frame.reference` is the intentionally-naive oracle the
property tests and benchmarks compare against, which is not part of
the API and never will be.

Example
-------
>>> from repro.frame import Table
>>> t = Table({"user": ["a", "b", "a"], "runtime_s": [60.0, 120.0, 30.0]})
>>> t.group_by("user").mean("runtime_s").sort_by("user").column("runtime_s_mean")
array([ 45., 120.])

Streaming the same aggregate chunk-by-chunk:

>>> t.to_chunked(chunk_rows=2).group_by("user").mean("runtime_s").sort_by(
...     "user").column("runtime_s_mean")
array([ 45., 120.])
"""

from repro.frame.builder import TableBuilder
from repro.frame.chunked import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_CHUNK_ROWS,
    ChunkedTable,
    adaptive_chunk_rows,
    concat_chunked,
    merge_sorted_chunked,
)
from repro.frame.codec import LOSSLESS, QUANT_STEP, SpillCodec
from repro.frame.column import as_column, column_dtype, is_string_column
from repro.frame.factorize import Factorization, factorize_columns
from repro.frame.groupby import EXACT_STREAMING_REDUCERS, STREAMABLE_REDUCERS, GroupBy
from repro.frame.io import (
    read_csv,
    read_jsonl,
    read_table_npz,
    scan_csv,
    scan_jsonl,
    table_raw_bytes,
    write_csv,
    write_jsonl,
    write_table_npz,
)
from repro.frame.sketch import DEFAULT_SKETCH_K, QuantileSketch, StreamingMoments
from repro.frame.table import Table, concat_tables

__all__ = [
    "Table",
    "TableBuilder",
    "ChunkedTable",
    "QuantileSketch",
    "StreamingMoments",
    "GroupBy",
    "Factorization",
    "factorize_columns",
    "concat_tables",
    "concat_chunked",
    "merge_sorted_chunked",
    "as_column",
    "column_dtype",
    "is_string_column",
    "read_csv",
    "read_jsonl",
    "write_csv",
    "write_jsonl",
    "read_table_npz",
    "write_table_npz",
    "table_raw_bytes",
    "scan_csv",
    "scan_jsonl",
    "SpillCodec",
    "LOSSLESS",
    "QUANT_STEP",
    "adaptive_chunk_rows",
    "DEFAULT_CHUNK_BYTES",
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_SKETCH_K",
    "STREAMABLE_REDUCERS",
    "EXACT_STREAMING_REDUCERS",
]
