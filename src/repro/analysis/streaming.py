"""Shared primitives for the chunk-fold analysis kernels.

Every heavy kernel in :mod:`repro.analysis` is one chunk fold over
``source.chunks()``: a :class:`~repro.frame.ChunkedTable` yields its
chunks and a materialized :class:`~repro.frame.Table` is the one-chunk
stream of itself.  The fold keeps the exact-or-sketch contract that
:func:`repro.analysis.stats.column_ecdf` established: integer counts
(and the shares derived from them) are exact on any chunking; float
accumulations are deterministic for a fixed chunking but may differ in
the last ULP from a single-pass sum; quantiles come from a
:class:`~repro.frame.QuantileSketch`, exact while the input is one
chunk and within the tracked ``rank_error_bound()`` after.  This module
holds the pieces those folds share so each kernel only contributes its
own arithmetic.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.errors import AnalysisError
from repro.frame import Table, concat_tables


def iter_key_sorted_chunks(source: Any, key: str) -> Iterator[Table]:
    """Yield ``source``'s chunks, each stable-sorted by ``key``.

    Within a chunk any row order is accepted (a materialized table in
    completion order sorts exactly like ``sort_by(key)``); across
    chunks the stream must already be ordered, so a chunk whose first
    key falls below the previous chunk's last key raises
    :class:`~repro.errors.AnalysisError` naming ``key`` instead of
    silently folding out of order.
    """
    last: Any = None
    for chunk in source.chunks():
        keys = np.asarray(chunk.column(key))
        if np.any(keys[1:] < keys[:-1]):
            chunk = chunk.sort_by(key)
            keys = np.asarray(chunk.column(key))
        if last is not None and keys[0] < last:
            raise AnalysisError(
                f"chunk stream is not sorted by {key!r}: a chunk starts at "
                f"{keys[0]} after the previous chunk ended at {last}"
            )
        last = keys[-1]
        yield chunk


def iter_sorted_groups(
    source: Any, key: str, min_rows: int = 1
) -> Iterator[tuple[Any, Table]]:
    """Yield ``(key_value, group)`` from a ``key``-ordered chunk stream.

    Chunks pass through :func:`iter_key_sorted_chunks`, so rows within
    a chunk may arrive in any order but the chunks themselves must be
    ordered by ``key`` (e.g. the pipeline's ``per_gpu`` stream, sorted
    by ``(job_id, gpu_index)``); consecutive equal keys form one group.
    Exactly one group is resident at a time beyond the chunk being
    read, so a per-group fold costs O(largest group) memory rather
    than O(rows).  Groups straddling chunk boundaries are stitched back
    together with ``concat_tables``, which keeps each group's row order
    — and therefore any per-group arithmetic — bit-identical to the
    materialized ``group_by(key)``.

    Groups of fewer than ``min_rows`` rows are skipped; one that lies
    wholly inside a chunk is never materialized.
    """
    pending_key: Any = None
    parts: list[Table] = []

    def finished() -> Iterator[tuple[Any, Table]]:
        if sum(part.num_rows for part in parts) >= min_rows:
            yield pending_key, parts[0] if len(parts) == 1 else concat_tables(parts)

    for chunk in iter_key_sorted_chunks(source, key):
        keys = np.asarray(chunk.column(key))
        change = np.nonzero(keys[1:] != keys[:-1])[0]
        starts = np.concatenate(([0], change + 1))
        ends = np.concatenate((change + 1, [len(keys)]))
        keep = ends - starts >= min_rows
        keep[-1] = True  # it may continue into the next chunk
        keep[0] |= bool(parts) and keys[0] == pending_key
        for start, end in zip(starts[keep].tolist(), ends[keep].tolist()):
            sub = chunk.take(np.arange(start, end))
            value = keys[start]
            if parts and value == pending_key:
                parts.append(sub)
                continue
            yield from finished()
            pending_key, parts = value, [sub]
    yield from finished()
