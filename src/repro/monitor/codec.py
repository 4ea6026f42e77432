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

:func:`load_store` reads and checks every member (its CRC, and each
column's length) but decodes only the time axes; a metric's runs are
expanded when the metric is first read.
"""

from __future__ import annotations

import zipfile
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from repro.errors import MonitoringError
from repro.frame.codec import (
    QUANT_STEP,
    SPILL_READ_ERRORS,
    SpillCodec,
    decode_column,
    decoded_size,
    read_spill_parts,
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


class _DeferredMetrics(Mapping):
    """A loaded series' metrics, each decoded on its first read.

    The figures and the validation read ``sm``, ``mem_bw`` and
    ``mem_size`` only, so a warm report never expands the other
    metrics' runs into float arrays.
    """

    def __init__(self, parts: dict[str, tuple[str, dict]]) -> None:
        self._parts = parts
        self._decoded: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        values = self._decoded.get(name)
        if values is None:
            values = self._decoded[name] = decode_column(*self._parts[name])
        return values

    def __contains__(self, name) -> bool:
        return name in self._parts

    def __iter__(self):
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)


def _decode_member(name: str, parts: dict[str, tuple[str, dict]]) -> GpuTimeSeries:
    """Invert :func:`_member_columns` for member ``name``: the time axis
    now, each metric on first read (:class:`_DeferredMetrics`)."""
    job_id, _, gpu_index = name[1:].partition("_")
    t0, steps_us = decode_column(*parts.pop("t0")), decode_column(*parts.pop("steps_us"))
    # t0 + [0, cumsum(steps_us / 1e6)], built in place in one array
    times = np.empty(steps_us.size + 1 if t0.size else 0)
    if t0.size:
        times[0] = 0.0
        np.divide(steps_us, 1e6, out=times[1:])
        np.cumsum(times[1:], out=times[1:])
        times += float(t0[0])
    # GpuTimeSeries's own checks, made on the parts so nothing decodes
    for metric in METRIC_NAMES:
        if metric not in parts:
            raise MonitoringError(f"series for job {job_id} missing metric {metric!r}")
        size = decoded_size(*parts[metric])
        if size != times.size:
            raise MonitoringError(
                f"metric {metric!r} has {size} samples, expected {times.size}"
            )
    series = GpuTimeSeries.__new__(GpuTimeSeries)
    series.__dict__.update(
        job_id=int(job_id), gpu_index=int(gpu_index), times_s=times,
        metrics=_DeferredMetrics(parts),
    )
    return series


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
                store.add(_decode_member(name, read_spill_parts(archive, name)))
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
