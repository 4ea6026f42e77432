"""Time-series containers for sampled GPU telemetry.

A :class:`GpuTimeSeries` holds its samples at nvidia-smi's resolution
(:data:`METRIC_RESOLUTION`): each metric is an array of unsigned
integer counts, and reading it returns a new float64 array in the
metric's unit.  :class:`TimeSeriesStore` holds series in memory;
:meth:`TimeSeriesStore.spill` writes them to batch files of
:data:`SPILL_BATCH_SERIES` series, one packed zip member per series
(spill format 3, :mod:`repro.frame.codec`), and
:class:`SpilledTimeSeriesStore` reads them back one member at a time,
holding one open batch per spill directory.  Spill batches and the
cache's series file (:mod:`repro.monitor.codec`) pack a series one way
(:func:`pack_series`, :func:`unpack_series`), and both round-trip it
exactly.
"""

from __future__ import annotations

import json
import os
import zipfile
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.errors import FrameError, MonitoringError
from repro.frame.codec import decode_column, decoded_size

#: Series per spill batch file: small enough that loading one batch
#: stays bounded, large enough to amortize the zip overhead.
SPILL_BATCH_SERIES = 64
_SPILL_MANIFEST = "manifest.json"
_SPILL_FORMAT_VERSION = 3

#: Metrics reported per GPU sample, in nvidia-smi naming order:
#: SM utilization (%), memory-bandwidth utilization (%), memory-size
#: utilization (%), PCIe Tx/Rx bandwidth utilization (%), power (W).
METRIC_NAMES = ("sm", "mem_bw", "mem_size", "pcie_tx", "pcie_rx", "power_w")

#: Each metric's resolution as nvidia-smi reports it: the integer type
#: a sample is stored in and the counts per unit.  Utilizations are
#: whole percents and power is hundredths of a watt (up to 655.35 W).
#: A fixed table, not a setting: the dataset's series are sensor data.
METRIC_RESOLUTION = {
    "sm": (np.uint8, 1),
    "mem_bw": (np.uint8, 1),
    "mem_size": (np.uint8, 1),
    "pcie_tx": (np.uint8, 1),
    "pcie_rx": (np.uint8, 1),
    "power_w": (np.uint16, 100),
}


def sensor_counts(values: np.ndarray, name: str, where: str) -> np.ndarray:
    """``values`` of metric ``name`` as whole counts of its resolution,
    rounded half to even (``np.rint``).

    A negative, non-finite or too large sample raises
    :class:`MonitoringError` naming ``where`` and the metric; nothing
    wraps.
    """
    dtype, per_unit = METRIC_RESOLUTION[name]
    values = np.asarray(values, dtype=float)
    counts = np.rint(values * per_unit)
    # NaN fails both comparisons
    valid = (values >= 0) & (counts <= np.iinfo(dtype).max)
    if not valid.all():
        raise MonitoringError(
            f"{where}: metric {name!r} sample {float(values[~valid][0])} is outside "
            f"[0, {np.iinfo(dtype).max / per_unit:g}]"
        )
    return counts.astype(dtype)


class SensorMetrics(Mapping):
    """One series' metrics as sensor counts (:data:`METRIC_RESOLUTION`).

    Reading a metric returns a new float64 array in the metric's unit,
    so analysis code never sees integer arithmetic and no float copy
    stays behind.  A loaded series holds each metric's encoded parts
    until the metric is first read, then its counts.
    """

    def __init__(self, counts: dict) -> None:
        #: metric name -> counts, or ``(scheme, parts)`` not yet decoded
        self._counts = counts

    def counts(self, name: str) -> np.ndarray:
        """The metric's integer counts."""
        held = self._counts[name]
        if isinstance(held, tuple):
            held = self._counts[name] = decode_column(*held)
        return held

    def num_samples(self, name: str) -> int:
        held = self._counts[name]
        return decoded_size(*held) if isinstance(held, tuple) else held.size

    def __getitem__(self, name: str) -> np.ndarray:
        return self.counts(name) / METRIC_RESOLUTION[name][1]

    def __contains__(self, name) -> bool:
        return name in self._counts

    def __iter__(self):
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)


@dataclass
class GpuTimeSeries:
    """Sampled telemetry for one GPU of one job.

    ``times_s`` are offsets from job start; ``metrics`` maps metric
    name to an equal-length array.  Float samples are rounded to the
    metric's sensor resolution on construction
    (:func:`sensor_counts`), and ``metrics`` becomes their
    :class:`SensorMetrics`.
    """

    job_id: int
    gpu_index: int
    times_s: np.ndarray
    metrics: SensorMetrics

    def __post_init__(self) -> None:
        n = len(self.times_s)
        for name in METRIC_NAMES:
            if name not in self.metrics:
                raise MonitoringError(f"series for job {self.job_id} missing metric {name!r}")
        if not isinstance(self.metrics, SensorMetrics):
            where = f"job {self.job_id} GPU {self.gpu_index}"
            self.metrics = SensorMetrics(
                {name: sensor_counts(self.metrics[name], name, where) for name in METRIC_NAMES}
            )
        for name in METRIC_NAMES:
            size = self.metrics.num_samples(name)
            if size != n:
                raise MonitoringError(f"metric {name!r} has {size} samples, expected {n}")

    @property
    def num_samples(self) -> int:
        return len(self.times_s)

    @property
    def duration_s(self) -> float:
        if self.num_samples == 0:
            return 0.0
        return float(self.times_s[-1] - self.times_s[0])

    def metric(self, name: str) -> np.ndarray:
        if name not in self.metrics:
            raise MonitoringError(f"unknown metric {name!r}")
        return self.metrics[name]

    def summary(self) -> dict[str, float]:
        """min/mean/max per metric — the paper's production summary."""
        out: dict[str, float] = {}
        for name in METRIC_NAMES:
            values = self.metrics[name]
            if values.size == 0:
                out[f"{name}_min"] = out[f"{name}_mean"] = out[f"{name}_max"] = float("nan")
            else:
                out[f"{name}_min"] = float(values.min())
                out[f"{name}_mean"] = float(values.mean())
                out[f"{name}_max"] = float(values.max())
        return out


class TimeSeriesStore:
    """Central store of full-resolution series, keyed by (job, gpu)."""

    def __init__(self) -> None:
        self._series: dict[tuple[int, int], GpuTimeSeries] = {}

    def add(self, series: GpuTimeSeries) -> None:
        key = (series.job_id, series.gpu_index)
        if key in self._series:
            raise MonitoringError(f"duplicate series for job {key[0]} GPU {key[1]}")
        self._series[key] = series

    def __len__(self) -> int:
        return len(self._series)

    def merge_from(self, other: "TimeSeriesStore") -> None:
        """Absorb another store's series (duplicate keys are an error).

        The partitioned build keeps one store per cluster island; job
        ids are globally unique, so island stores are disjoint and the
        merge is a plain union.
        """
        for series in other:
            self.add(series)

    @classmethod
    def merged(cls, stores: "Iterable[TimeSeriesStore]") -> "TimeSeriesStore":
        """Union of several disjoint stores (island merge)."""
        out = cls()
        for store in stores:
            out.merge_from(store)
        return out

    def job_ids(self) -> list[int]:
        """Distinct job ids with at least one stored series."""
        return sorted({job_id for job_id, _ in self._series})

    def series_for_job(self, job_id: int) -> list[GpuTimeSeries]:
        return [s for (jid, _), s in sorted(self._series.items()) if jid == job_id]

    def get(self, job_id: int, gpu_index: int) -> GpuTimeSeries:
        key = (job_id, gpu_index)
        if key not in self._series:
            raise MonitoringError(f"no series for job {job_id} GPU {gpu_index}")
        return self._series[key]

    def __iter__(self) -> Iterator[GpuTimeSeries]:
        return iter(self._series.values())

    def iter_sorted(self) -> Iterator[GpuTimeSeries]:
        """Series in global ``(job_id, gpu_index)`` order.

        The one-pass analysis folds (:mod:`repro.analysis.phases`)
        rely on this grouping so they can hold one job's candidates at
        a time.
        """
        for key in sorted(self._series):
            yield self._series[key]

    def total_samples(self) -> int:
        return sum(s.num_samples for s in self._series.values())

    def scan_table(self, chunk_rows: int = 65536) -> "ChunkedTable":
        """Stream every stored sample as one long chunked table.

        Columns: ``job_id``, ``gpu_index``, ``time_s`` plus every
        metric in :data:`METRIC_NAMES`, one row per sample, series in
        ``(job_id, gpu_index)`` order.  Series are batched until a
        chunk reaches ``chunk_rows`` rows, so the percentile/CDF
        figures can digest arbitrarily long telemetry with one chunk
        resident at a time.
        """
        keys = [key for key in sorted(self._series) if self._series[key].num_samples]
        return _scan_series(
            lambda: (self._series[key] for key in keys), self.total_samples(), chunk_rows
        )

    def spill(self, directory: str | Path) -> "SpilledTimeSeriesStore":
        """Write every series to batched ``.npz`` files; return the view.

        Each series is one zip member packed by :func:`pack_series`, so
        the streaming build hands figure code bit-identical samples to
        what the in-memory store holds.  Batches of
        :data:`SPILL_BATCH_SERIES` series land in ``batch_%06d.npz``
        with a JSON manifest, and the
        returned :class:`SpilledTimeSeriesStore` loads one member at a
        time on access.  A batch or manifest that fails to write leaves
        no file (the manifest lands through a temp file), and an
        ``OSError`` raises :class:`~repro.errors.FrameError` naming it,
        as does a ``directory`` that cannot be created.  Spill traffic
        counts into the ``repro_frame_spill_*`` byte counters, and a
        ``monitor.series.spill`` span carries the raw bytes (the float64
        layout of times and metrics), encoded bytes and compression
        ratio.
        """
        from repro.frame.codec import count_spill, make_spill_dir, write_spill_file
        from repro.obs.runtime import get_tracer

        target = make_spill_dir(directory)
        keys = sorted(self._series)
        files: list[dict] = []
        raw_bytes = 0
        encoded_bytes = 0
        with get_tracer().span(
            "monitor.series.spill", category="monitor", directory=str(target)
        ) as span:
            for start in range(0, len(keys), SPILL_BATCH_SERIES):
                batch = [self._series[key] for key in keys[start : start + SPILL_BATCH_SERIES]]
                name = f"batch_{len(files):06d}.npz"
                path = target / name
                write_spill_file(
                    path, ((_series_member(s.job_id, s.gpu_index), pack_series(s)) for s in batch)
                )
                raw_bytes += sum(s.num_samples for s in batch) * 8 * (1 + len(METRIC_NAMES))
                encoded_bytes += path.stat().st_size
                files.append(
                    {
                        "name": name,
                        "series": [[s.job_id, s.gpu_index, s.num_samples] for s in batch],
                    }
                )
            _write_manifest(target, {"format_version": _SPILL_FORMAT_VERSION, "files": files})
            span.set(
                raw_bytes=raw_bytes,
                encoded_bytes=encoded_bytes,
                ratio=round(raw_bytes / encoded_bytes, 3) if encoded_bytes else 0.0,
            )
        count_spill(len(files), encoded_bytes, raw_bytes)
        return SpilledTimeSeriesStore([target])


class SpilledTimeSeriesStore:
    """Disk-backed union of spilled series directories.

    Duck-types the read side of :class:`TimeSeriesStore` (``job_ids``,
    ``series_for_job``, ``get``, iteration, ``total_samples``,
    ``scan_table``) while keeping at most one batch file open per
    directory, so a ``(job_id, gpu_index)`` walk over interleaved
    islands opens each batch once; :meth:`close` releases them.  Figure
    code runs unchanged against either store.  The partitioned build
    spills one directory per island and unions them here — job ids are
    globally unique, so duplicate keys mean a bug and raise.  A
    manifest that cannot be read raises :class:`MonitoringError` naming
    its directory; a batch that cannot be read (truncated, corrupt, or
    an older layout) raises it naming the batch, job and GPU.
    """

    def __init__(self, directories: "Iterable[str | Path]") -> None:
        #: (job_id, gpu_index) -> (batch file path, num_samples)
        self._index: dict[tuple[int, int], tuple[Path, int]] = {}
        self.directories = tuple(Path(d) for d in directories)
        for directory in self.directories:
            for path, key, num_samples in _read_manifest(directory):
                if key in self._index:
                    raise MonitoringError(
                        f"duplicate spilled series for job {key[0]} GPU {key[1]}"
                    )
                self._index[key] = (path, num_samples)
        #: spill directory -> (batch path, its open zip)
        self._open: dict[Path, tuple[Path, zipfile.ZipFile]] = {}

    @classmethod
    def union(cls, stores: "Iterable[SpilledTimeSeriesStore]") -> "SpilledTimeSeriesStore":
        """One view over several spilled stores (the island merge)."""
        return cls(
            directory for store in stores for directory in store.directories
        )

    def close(self) -> None:
        """Close the open batch files; a later access reopens them."""
        for _, archive in self._open.values():
            archive.close()
        self._open.clear()

    def _batch(self, path: Path) -> zipfile.ZipFile:
        held = self._open.pop(path.parent, None)
        if held is not None and held[0] != path:
            held[1].close()
            held = None
        if held is None:
            held = (path, zipfile.ZipFile(path))
        self._open[path.parent] = held
        return held[1]

    def _load(self, key: tuple[int, int]) -> GpuTimeSeries:
        from repro.frame.codec import SPILL_READ_ERRORS, read_spill_parts

        path, _ = self._index[key]
        try:
            return unpack_series(*key, read_spill_parts(self._batch(path), _series_member(*key)))
        except SPILL_READ_ERRORS + (MonitoringError,) as error:
            raise MonitoringError(
                f"cannot read spill batch {path} for job {key[0]} GPU {key[1]}: {error}"
            ) from error

    def __len__(self) -> int:
        return len(self._index)

    def job_ids(self) -> list[int]:
        """Distinct job ids with at least one spilled series."""
        return sorted({job_id for job_id, _ in self._index})

    def series_for_job(self, job_id: int) -> list[GpuTimeSeries]:
        return [
            self._load(key) for key in sorted(self._index) if key[0] == job_id
        ]

    def get(self, job_id: int, gpu_index: int) -> GpuTimeSeries:
        key = (job_id, gpu_index)
        if key not in self._index:
            raise MonitoringError(f"no series for job {job_id} GPU {gpu_index}")
        return self._load(key)

    def __iter__(self) -> Iterator[GpuTimeSeries]:
        for key in sorted(self._index):
            yield self._load(key)

    def iter_sorted(self) -> Iterator[GpuTimeSeries]:
        """Series in ``(job_id, gpu_index)`` order, one batch resident."""
        return iter(self)

    def total_samples(self) -> int:
        return sum(count for _, count in self._index.values())

    def materialize(self) -> TimeSeriesStore:
        """Load every spilled series back into an in-memory store."""
        store = TimeSeriesStore()
        for series in self:
            store.add(series)
        return store

    def scan_table(self, chunk_rows: int = 65536) -> "ChunkedTable":
        """Stream every spilled sample as one long chunked table.

        Same contract as :meth:`TimeSeriesStore.scan_table` — series in
        ``(job_id, gpu_index)`` order, batched to ``chunk_rows`` — but
        each series is loaded from disk only while its batch is being
        staged, so the resident set stays bounded by the chunk size
        plus one series.
        """
        keys = [key for key in sorted(self._index) if self._index[key][1]]
        return _scan_series(lambda: map(self._load, keys), self.total_samples(), chunk_rows)


def _series_member(job_id: int, gpu_index: int) -> str:
    """Zip member name of one spilled series."""
    return f"s{job_id}_{gpu_index}"


def pack_series(series: GpuTimeSeries) -> dict[str, np.ndarray]:
    """The columns of one series member, spill batch or cache file.

    The time axis is stored as the call that rebuilds it bit for bit:
    ``times_step`` for ``np.arange(n) * step`` (the sampler's cadence)
    or ``times_end`` for ``np.linspace(0.0, end, n)`` (a decimated
    series), and as raw float64 ``times_s`` otherwise.  Each metric is
    its sensor counts, which the codec's integer path stores exactly.
    """
    times = np.asarray(series.times_s, dtype=float)
    columns = {"times_s": times}
    if times.size >= 2:
        step, end = times[1:2] - times[:1], times[-1:]
        if (np.arange(times.size) * step[0]).tobytes() == times.tobytes():
            columns = {"times_step": step}
        elif np.linspace(0.0, end[0], times.size).tobytes() == times.tobytes():
            columns = {"times_end": end}
    for name in METRIC_NAMES:
        columns[name] = series.metrics.counts(name)
    return columns


def unpack_series(
    job_id: int, gpu_index: int, parts: dict[str, tuple[str, dict]]
) -> GpuTimeSeries:
    """Invert :func:`pack_series` from a member's undecoded ``parts``
    (:func:`~repro.frame.codec.read_spill_parts`): the time axis now,
    each metric on its first read.  A member that lacks a time axis or
    a metric, or whose lengths disagree, raises :class:`MonitoringError`.
    """
    if "sm" not in parts:
        raise MonitoringError(f"series for job {job_id} missing metric 'sm'")
    n = decoded_size(*parts["sm"])
    if "times_step" in parts:
        times = np.arange(n) * decode_column(*parts["times_step"])[0]
    elif "times_end" in parts:
        times = np.linspace(0.0, decode_column(*parts["times_end"])[0], n)
    elif "times_s" in parts:
        times = decode_column(*parts["times_s"])
    else:
        raise MonitoringError(f"series for job {job_id} has no time axis")
    metrics = {name: parts[name] for name in METRIC_NAMES if name in parts}
    return GpuTimeSeries(job_id, gpu_index, times, SensorMetrics(metrics))


def _write_manifest(directory: Path, manifest: dict) -> None:
    """Write a spill directory's manifest through a temp file, so a
    failed write leaves no partial manifest; an ``OSError`` raises
    :class:`~repro.errors.FrameError` naming it."""
    path = directory / _SPILL_MANIFEST
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(manifest))
        os.replace(tmp, path)
    except BaseException as error:
        tmp.unlink(missing_ok=True)
        if isinstance(error, OSError):
            raise FrameError(f"cannot write spill manifest {path}: {error}") from error
        raise


def _read_manifest(directory: Path) -> list[tuple[Path, tuple[int, int], int]]:
    """``(batch path, (job_id, gpu_index), num_samples)`` for every
    series a spill directory's manifest lists.  A missing, unreadable,
    malformed or older-version manifest raises
    :class:`~repro.errors.MonitoringError` naming the directory."""
    path = directory / _SPILL_MANIFEST
    if not path.is_file():
        raise MonitoringError(f"no spill manifest in {directory}")
    try:
        manifest = json.loads(path.read_text())
        version = int(manifest.get("format_version", -1))
        if version != _SPILL_FORMAT_VERSION:
            raise MonitoringError(
                f"unsupported spill format version {version} in {directory}"
            )
        return [
            (directory / entry["name"], (int(job_id), int(gpu_index)), int(num_samples))
            for entry in manifest["files"]
            for job_id, gpu_index, num_samples in entry["series"]
        ]
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as error:
        raise MonitoringError(
            f"unreadable spill manifest in {directory}: {error!r}"
        ) from error


def _scan_series(
    series: "Callable[[], Iterable[GpuTimeSeries]]", num_rows: int, chunk_rows: int
) -> "ChunkedTable":
    """Chunk ``series()`` (non-empty series in ``(job_id, gpu_index)``
    order, called once per pass) into sample-per-row tables of at least
    ``chunk_rows`` rows; the last may be short."""
    from repro.frame import ChunkedTable

    def produce() -> "Iterator[Table]":
        batch: list[GpuTimeSeries] = []
        staged = 0
        for one in series():
            batch.append(one)
            staged += one.num_samples
            if staged >= chunk_rows:
                yield _series_table(batch)
                batch, staged = [], 0
        if batch:
            yield _series_table(batch)

    return ChunkedTable(produce, num_rows=num_rows)


def _series_table(batch: "list[GpuTimeSeries]") -> "Table":
    """Concatenate a batch of series into one sample-per-row table."""
    from repro.frame import Table

    data: dict[str, np.ndarray] = {
        "job_id": np.concatenate(
            [np.full(s.num_samples, s.job_id, dtype=np.int64) for s in batch]
        ),
        "gpu_index": np.concatenate(
            [np.full(s.num_samples, s.gpu_index, dtype=np.int64) for s in batch]
        ),
        "time_s": np.concatenate([np.asarray(s.times_s, dtype=float) for s in batch]),
    }
    for name, (_, per_unit) in METRIC_RESOLUTION.items():
        data[name] = np.concatenate([s.metrics.counts(name) for s in batch]) / per_unit
    return Table(data)
