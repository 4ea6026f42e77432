"""Compact on-disk encoding for GPU time series: the cache's series file.

The paper's operators worried about telemetry volume (42 GB for 2,149
jobs) and file-system load.  nvidia-smi output is highly compressible:
utilization percentages are small integers that dwell on a level for
many samples.  A store is saved as one spill file of
:mod:`repro.frame.codec` holding one packed member per series, named
``s<job>_<gpu>`` as in spill batches.  A member holds the series' start
time ``t0`` (empty for an empty series), its sampling steps as int64
microseconds ``steps_us`` (which the integer delta+RLE scheme stores
losslessly), and every metric in :data:`METRIC_NAMES` under
``SpillCodec(quantise=METRIC_NAMES)``, the
:data:`~repro.frame.codec.QUANT_SCHEME` scheme: quantised to 0.5 %
steps and stored as integer levels in the narrowest dtype that holds
them (uint8 for utilization, uint16 for power), run-length encoded
where runs are smaller; the file's members are deflated at level 1.

The encoding is lossy only through quantisation (max error 0.25 %,
below nvidia-smi's own integer resolution for utilization metrics;
power is quantised to 0.5 W) and the microsecond time steps.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np

from repro.errors import MonitoringError
from repro.frame.codec import (
    QUANT_STEP,
    SPILL_READ_ERRORS,
    SpillCodec,
    read_spill_member,
    write_spill_file,
)
from repro.monitor.timeseries import (
    METRIC_NAMES,
    GpuTimeSeries,
    TimeSeriesStore,
    _series_member,
)

__all__ = ["QUANT_STEP", "save_store", "load_store", "compression_ratio"]

#: Metrics are quantised; ``t0`` and ``steps_us`` round-trip exactly.
_CODEC = SpillCodec(quantise=METRIC_NAMES)


def _member_columns(series: GpuTimeSeries) -> dict[str, np.ndarray]:
    """The arrays one series member packs."""
    times = np.asarray(series.times_s, dtype=float)
    columns = {
        "t0": times[:1],
        "steps_us": np.round(np.diff(times) * 1e6).astype(np.int64),
    }
    for name in METRIC_NAMES:
        columns[name] = np.asarray(series.metrics[name], dtype=float)
    return columns


def _decode_member(name: str, columns: dict[str, np.ndarray]) -> GpuTimeSeries:
    """Invert :func:`_member_columns` for member ``name``."""
    job_id, _, gpu_index = name[1:].partition("_")
    t0 = columns.pop("t0")
    steps = columns.pop("steps_us").astype(float) / 1e6
    times = (
        float(t0[0]) + np.concatenate(([0.0], np.cumsum(steps))) if t0.size else np.empty(0)
    )
    return GpuTimeSeries(
        job_id=int(job_id), gpu_index=int(gpu_index), times_s=times, metrics=columns
    )


def save_store(store: TimeSeriesStore, path: str | Path) -> Path:
    """Write a whole store to one spill file, series in store order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_spill_file(
        path,
        ((_series_member(s.job_id, s.gpu_index), _member_columns(s)) for s in store),
        _CODEC,
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
                store.add(_decode_member(name, read_spill_member(archive, name)))
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
