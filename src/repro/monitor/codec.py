"""The cache's series file: a whole store in one spill file.

The paper's operators worried about telemetry volume (42 GB for 2,149
jobs) and file-system load.  nvidia-smi output is compact: utilization
percentages are small integers that dwell on a level for many samples.
A store is saved as one spill file of :mod:`repro.frame.codec` holding
one member per series, named ``s<job>_<gpu>`` and packed by
:func:`~repro.monitor.timeseries.pack_series` as in spill batches: the
time axis as the ``np.arange``/``np.linspace`` call that rebuilds it,
and each metric's sensor counts through the codec's lossless integer
path.  Every series round-trips exactly, so a dataset loaded from the
cache equals the build that stored it.

:func:`load_store` reads and checks every member (its CRC, and each
column's length) but decodes only the time axes; a metric's counts are
decoded when the metric is first read.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

from repro.errors import MonitoringError
from repro.frame.codec import SPILL_READ_ERRORS, read_spill_parts, write_spill_file
from repro.monitor.timeseries import (
    METRIC_NAMES,
    TimeSeriesStore,
    _series_member,
    pack_series,
    unpack_series,
)

__all__ = ["save_store", "load_store", "compression_ratio"]


def save_store(store: TimeSeriesStore, path: str | Path) -> Path:
    """Write a whole store to one spill file, series in store order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_spill_file(
        path, ((_series_member(s.job_id, s.gpu_index), pack_series(s)) for s in store)
    )
    return path


def load_store(path: str | Path) -> TimeSeriesStore:
    """Read a store written by :func:`save_store`.

    Raises :class:`MonitoringError` naming ``path`` for anything
    unreadable — a truncated or overwritten file, a foreign zip, an
    older layout, a corrupt member: whatever raises
    :data:`~repro.frame.codec.SPILL_READ_ERRORS` or fails a series' own
    checks — so callers (notably the pipeline artifact cache) can treat
    every corruption uniformly instead of leaking zipfile/numpy
    internals.  Any other exception is a decoder bug and propagates.
    """
    path = Path(path)
    store = TimeSeriesStore()
    try:
        with zipfile.ZipFile(path) as archive:
            for name in archive.namelist():
                job_id, _, gpu_index = name[1:].partition("_")
                parts = read_spill_parts(archive, name)
                store.add(unpack_series(int(job_id), int(gpu_index), parts))
    except (*SPILL_READ_ERRORS, MonitoringError) as exc:
        raise MonitoringError(f"unreadable time-series store {path}: {exc}") from exc
    return store


def compression_ratio(store: TimeSeriesStore, path: str | Path) -> float:
    """Raw float64 bytes divided by the encoded file size."""
    raw_bytes = store.total_samples() * (1 + len(METRIC_NAMES)) * 8
    encoded = Path(path).stat().st_size
    if encoded == 0:
        raise MonitoringError("encoded file is empty")
    return raw_bytes / encoded
