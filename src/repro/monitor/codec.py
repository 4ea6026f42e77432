"""Compact on-disk encoding for GPU time series.

The paper's operators worried about telemetry volume (42 GB for 2,149
jobs) and file-system load.  nvidia-smi output is highly compressible:
utilization percentages are small integers that dwell on a level for
many samples.  This codec quantises each metric to 0.5 % steps,
delta-encodes, and run-length-encodes the (mostly zero) deltas before
handing the arrays to numpy's compressed container.

The encoding is lossy only through quantisation (max error 0.25 %,
below nvidia-smi's own integer resolution for utilization metrics;
power is quantised to 0.5 W).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import MonitoringError
from repro.frame.codec import QUANT_STEP, rle_decode as _rle_decode, rle_encode as _rle_encode
from repro.monitor.timeseries import METRIC_NAMES, GpuTimeSeries, TimeSeriesStore

__all__ = [
    "QUANT_STEP",
    "encode_series",
    "decode_series",
    "save_store",
    "load_store",
    "compression_ratio",
]

_FORMAT_VERSION = 1


def encode_series(series: GpuTimeSeries) -> dict[str, np.ndarray]:
    """Encode one series into named integer arrays (npz-ready)."""
    payload: dict[str, np.ndarray] = {
        "format_version": np.asarray([_FORMAT_VERSION]),
        "job_id": np.asarray([series.job_id]),
        "gpu_index": np.asarray([series.gpu_index]),
        "num_samples": np.asarray([series.num_samples]),
    }
    if series.num_samples:
        payload["t0"] = np.asarray([series.times_s[0]])
        # sampling steps are near-constant: store as quantised deltas
        steps = np.diff(series.times_s)
        payload["steps_us"] = np.round(steps * 1e6).astype(np.int64)
    else:
        payload["t0"] = np.asarray([0.0])
        payload["steps_us"] = np.empty(0, dtype=np.int64)
    for name in METRIC_NAMES:
        quantised = np.round(series.metrics[name] / QUANT_STEP).astype(np.int32)
        # first delta carries the initial level so cumsum reconstructs
        deltas = np.diff(quantised, prepend=np.int32(0)) if quantised.size else quantised
        run_values, run_lengths = _rle_encode(deltas)
        payload[f"{name}_values"] = run_values
        payload[f"{name}_lengths"] = run_lengths
    return payload


def decode_series(payload: dict[str, np.ndarray]) -> GpuTimeSeries:
    """Invert :func:`encode_series`."""
    version = int(payload["format_version"][0])
    if version != _FORMAT_VERSION:
        raise MonitoringError(f"unsupported series format version {version}")
    n = int(payload["num_samples"][0])
    if n:
        steps = payload["steps_us"].astype(float) / 1e6
        times = float(payload["t0"][0]) + np.concatenate(([0.0], np.cumsum(steps)))
    else:
        times = np.empty(0)
    metrics = {}
    for name in METRIC_NAMES:
        run_values = payload[f"{name}_values"]
        run_lengths = payload[f"{name}_lengths"]
        if run_values.shape != run_lengths.shape:
            raise MonitoringError(f"metric {name!r}: corrupt run-length payload")
        deltas = _rle_decode(run_values, run_lengths)
        if deltas.size != n:
            raise MonitoringError(
                f"metric {name!r}: decoded {deltas.size} samples, expected {n}"
            )
        metrics[name] = np.cumsum(deltas).astype(float) * QUANT_STEP
    return GpuTimeSeries(
        job_id=int(payload["job_id"][0]),
        gpu_index=int(payload["gpu_index"][0]),
        times_s=times,
        metrics=metrics,
    )


def save_store(store: TimeSeriesStore, path: str | Path) -> Path:
    """Write a whole store to one compressed ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    bundle: dict[str, np.ndarray] = {}
    keys = []
    for series in store:
        prefix = f"s{series.job_id}_{series.gpu_index}"
        keys.append(prefix)
        for name, array in encode_series(series).items():
            bundle[f"{prefix}/{name}"] = array
    bundle["__keys__"] = np.asarray(keys)
    np.savez_compressed(path, **bundle)
    return path


def load_store(path: str | Path) -> TimeSeriesStore:
    """Read a store written by :func:`save_store`.

    Raises :class:`MonitoringError` for anything unreadable — a
    truncated or overwritten file, a foreign zip, missing members —
    so callers (notably the pipeline artifact cache) can treat every
    corruption uniformly instead of leaking zipfile/numpy internals.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            keys = [str(k) for k in data["__keys__"]]
            # One pass groups the ``<prefix>/<field>`` members by series.
            members: dict[str, list[str]] = {}
            for name in data.files:
                prefix, slash, _ = name.partition("/")
                if slash:
                    members.setdefault(prefix, []).append(name)
            store = TimeSeriesStore()
            for prefix in keys:
                payload = {
                    name[len(prefix) + 1 :]: data[name]
                    for name in members.get(prefix, ())
                }
                store.add(decode_series(payload))
    except MonitoringError:
        raise
    except Exception as exc:  # BadZipFile, KeyError, OSError, ValueError, ...
        raise MonitoringError(f"unreadable time-series store {path}: {exc}") from exc
    return store


def compression_ratio(store: TimeSeriesStore, path: str | Path) -> float:
    """Raw float64 bytes divided by the encoded file size."""
    raw_bytes = store.total_samples() * (1 + len(METRIC_NAMES)) * 8
    encoded = Path(path).stat().st_size
    if encoded == 0:
        raise MonitoringError("encoded file is empty")
    return raw_bytes / encoded
