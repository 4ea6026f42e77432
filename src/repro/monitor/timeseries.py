"""Time-series containers for sampled GPU telemetry.

:class:`TimeSeriesStore` holds series in memory; :meth:`TimeSeriesStore.spill`
writes them to batch files of :data:`SPILL_BATCH_SERIES` series, one packed
zip member per series (spill format 2, :mod:`repro.frame.codec`), and
:class:`SpilledTimeSeriesStore` reads them back one member at a time,
holding one open batch per spill directory.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.errors import FrameError, MonitoringError

#: Series per spill batch file: small enough that loading one batch
#: stays bounded, large enough to amortize the zip overhead.
SPILL_BATCH_SERIES = 64
_SPILL_MANIFEST = "manifest.json"
_SPILL_FORMAT_VERSION = 2

#: Metrics reported per GPU sample, in nvidia-smi naming order:
#: SM utilization (%), memory-bandwidth utilization (%), memory-size
#: utilization (%), PCIe Tx/Rx bandwidth utilization (%), power (W).
METRIC_NAMES = ("sm", "mem_bw", "mem_size", "pcie_tx", "pcie_rx", "power_w")


@dataclass
class GpuTimeSeries:
    """Sampled telemetry for one GPU of one job.

    ``times_s`` are offsets from job start; ``metrics`` maps metric
    name to an equal-length float array.
    """

    job_id: int
    gpu_index: int
    times_s: np.ndarray
    metrics: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        n = len(self.times_s)
        for name in METRIC_NAMES:
            if name not in self.metrics:
                raise MonitoringError(f"series for job {self.job_id} missing metric {name!r}")
            if len(self.metrics[name]) != n:
                raise MonitoringError(
                    f"metric {name!r} has {len(self.metrics[name])} samples, expected {n}"
                )

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

    def spill(
        self, directory: str | Path, codec: "object | None | str" = "default"
    ) -> "SpilledTimeSeriesStore":
        """Write every series to batched ``.npz`` files; return the view.

        Each series is one zip member packing ``times_s`` and every
        metric.  By default the arrays go through the lossless spill
        codec — exact run-length encoding where idle dwells make it
        win, raw arrays otherwise — so the streaming build hands figure
        code bit-identical samples to what the in-memory store holds.
        A :class:`~repro.frame.SpillCodec` with ``quantise=`` metric
        names opts those arrays into the lossy quantise+delta+RLE
        transform (max error ``QUANT_STEP/2``); ``codec=None`` stores
        every array raw.  Batches of :data:`SPILL_BATCH_SERIES` series
        land in ``batch_%06d.npz`` with a JSON manifest, and the
        returned :class:`SpilledTimeSeriesStore` loads one member at a
        time on access.  A batch or manifest that fails to write leaves
        no file (the manifest lands through a temp file), and an
        ``OSError`` raises :class:`~repro.errors.FrameError` naming it,
        as does a ``directory`` that cannot be created.  Spill traffic
        counts into the ``repro_frame_spill_*`` byte counters, and a
        ``monitor.series.spill`` span carries the raw bytes, encoded
        bytes and compression ratio.
        """
        from repro.frame.codec import LOSSLESS, count_spill, make_spill_dir, write_spill_file
        from repro.obs.runtime import get_tracer

        if codec == "default":
            codec = LOSSLESS
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
                    path,
                    ((_series_member(s.job_id, s.gpu_index), _series_columns(s)) for s in batch),
                    codec,
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
        from repro.frame.codec import SPILL_READ_ERRORS, read_spill_member

        path, _ = self._index[key]
        try:
            columns = read_spill_member(self._batch(path), _series_member(*key))
            times = columns.pop("times_s")
            return GpuTimeSeries(
                job_id=key[0], gpu_index=key[1], times_s=times, metrics=columns
            )
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


def _series_columns(series: GpuTimeSeries) -> dict[str, np.ndarray]:
    """The arrays one spilled series member packs."""
    columns = {"times_s": np.asarray(series.times_s, dtype=float)}
    for name in METRIC_NAMES:
        columns[name] = np.asarray(series.metrics[name], dtype=float)
    return columns


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
    for name in METRIC_NAMES:
        data[name] = np.concatenate(
            [np.asarray(s.metrics[name], dtype=float) for s in batch]
        )
    return Table(data)
