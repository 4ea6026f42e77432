"""On-disk artifact cache for pipeline sessions.

The paper's own operators materialize the combined dataset *once* and
run every analysis against that artifact; this module gives the
reproduction the same property.  A cache entry is keyed by a stable
content hash of ``(WorkloadConfig, MonitoringConfig, schema
version)`` and holds what a session cannot rebuild from its own
configuration:

``manifest.json``
    schema version, key, and row counts used as an integrity check;
``jobs.csv`` / ``gpu_jobs.csv`` / ``per_gpu.csv``
    the frame tables, via :mod:`repro.frame.io`;
``timeseries.npz``
    the dense series store (:func:`repro.monitor.codec.save_store`):
    one spill file of the frame codec, one member per series, each
    metric's sensor counts and the time axis stored exactly, so a
    loaded dataset equals the build that stored it;
``records.pkl``
    the raw :class:`~repro.slurm.job.JobRecord` list (timeline and
    co-location analyses need the full records); each job's activity
    model pickles as one float64 array
    (:meth:`~repro.workload.activity.JobActivityModel.__reduce__`) and
    loads packed, so a report that never evaluates a model never
    unpacks one.

A loaded dataset takes the loading session's ``WorkloadConfig`` (the
key hashes it) and rebuilds its ``ClusterSpec`` from it, as a build
does.  Figure results are not cached: a session recomputes them from
the loaded dataset, which keeps each one
(:attr:`~repro.dataset.SupercloudDataset.figure_results`).

Entries are written to a temp directory and atomically renamed into
place, so concurrent writers (parallel seed sweeps, two commands
sharing a cache directory) cannot publish a half-written entry.  Each
file is written and read under one ``cache.store`` / ``cache.load``
span carrying its ``file`` name and ``bytes``.  A missing, stale or
corrupt file — anything that raises
:data:`~repro.frame.codec.SPILL_READ_ERRORS` (JSON and CSV parse errors
among them) or :class:`~repro.errors.MonitoringError`, or disagrees
with the manifest — makes :meth:`DatasetCache.load` return ``None``,
and the caller regenerates; a ``cache`` flight-recorder event
(``kind=dataset_load_failed``) names the file and the reason.  Any
other exception is a loader bug and raises.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Any

from repro.cluster.spec import supercloud_spec
from repro.errors import MonitoringError
from repro.frame import read_csv, write_csv
from repro.frame.codec import SPILL_READ_ERRORS
from repro.monitor.codec import load_store, save_store
from repro.monitor.collector import MonitoringConfig
from repro.obs import runtime as _obs_runtime
from repro.workload.generator import WorkloadConfig


#: Bump when the dataset schema or the cache layout changes; every
#: existing entry is invalidated (its key no longer matches).
#: 2: WorkloadConfig grew ``partitions``/``cohorts`` (sharded builds).
#: 3: every build runs as islands, so ``partitions=1`` entries now hold
#:    ``job_id``-ordered tables and records (same content as before).
#: 4: ``timeseries.npz`` is a frame-codec spill file (same decoded
#:    series as before).
#: 5: narrow quantised levels in ``timeseries.npz`` and one array per
#:    activity model in ``records.pkl`` (same decoded content).
#: 6: no ``config.pkl`` and no ``<key>.figures/`` figure results.
#: 7: the monitor draws no CPU telemetry, so each GPU job's keep-series
#:    and sample-offset draws come from another point of its stream
#:    (new ``gpu_jobs``, ``per_gpu`` and series; same ``jobs``).
#: 8: series samples at nvidia-smi resolution, stored exactly in
#:    ``timeseries.npz`` (new series; same tables and records).
SCHEMA_VERSION = 8

_TABLE_FILES = {"jobs": "jobs.csv", "gpu_jobs": "gpu_jobs.csv", "per_gpu": "per_gpu.csv"}

#: What unreadable or corrupt entry files raise: a miss, not a bug.
_CORRUPT = (*SPILL_READ_ERRORS, MonitoringError)


class _Miss(Exception):
    """An entry file that cannot be used: ``(file name, reason)``."""


def _dump(value, path: Path) -> None:
    with path.open("wb") as fh:
        pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _undump(path: Path):
    with path.open("rb") as fh:
        return pickle.load(fh)


def _read_manifest(path: Path) -> dict:
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict) or not isinstance(manifest.get("rows"), dict):
        raise ValueError("not a cache manifest")
    return manifest


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else the XDG cache home."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "supercloud-repro"


def _jsonable(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def dataset_key(
    config: WorkloadConfig | None,
    monitoring: MonitoringConfig | None,
    interchange=None,
) -> str:
    """Stable content hash of the full pipeline configuration.

    ``None`` hashes like the corresponding default config, matching
    :func:`repro.dataset.generate_dataset` semantics; an ``interchange``
    of ``None`` (uncoupled islands, the historical behavior) keeps the
    legacy payload so existing cache entries stay valid.  The digest is
    identical across processes and interpreter restarts (no reliance
    on Python's salted ``hash``).
    """
    config = config or WorkloadConfig()
    monitoring = monitoring or MonitoringConfig()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "workload": _jsonable(dataclasses.asdict(config)),
        "monitoring": _jsonable(dataclasses.asdict(monitoring)),
    }
    if interchange is not None:
        payload["interchange"] = _jsonable(dataclasses.asdict(interchange))
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


class DatasetCache:
    """A directory of immutable dataset artifacts."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def entry_dir(self, key: str) -> Path:
        return self.root / key

    def has(self, key: str) -> bool:
        return (self.entry_dir(key) / "manifest.json").is_file()

    # ------------------------------------------------------------------
    # Dataset artifacts
    # ------------------------------------------------------------------
    def store(self, key: str, dataset) -> Path:
        """Persist a dataset; returns the entry directory.

        Publication is atomic: a temp directory is fully written, then
        renamed onto the key.  Losing the race to another writer is
        fine — entries for one key are interchangeable.  A failed write
        removes the temp directory; a full or unwritable disk under the
        series file raises :class:`~repro.errors.FrameError` naming it.
        """
        entry = self.entry_dir(key)
        if self.has(key):
            return entry
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".{key}-", dir=self.root))
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "rows": {attr: getattr(dataset, attr).num_rows for attr in _TABLE_FILES},
            "num_series": len(dataset.timeseries),
            "num_records": len(dataset.records),
        }
        writers = {
            **{
                filename: functools.partial(write_csv, getattr(dataset, attr))
                for attr, filename in _TABLE_FILES.items()
            },
            "timeseries.npz": functools.partial(save_store, dataset.timeseries),
            "records.pkl": functools.partial(_dump, dataset.records),
            "manifest.json": lambda path: path.write_text(
                json.dumps(manifest, indent=1), encoding="utf-8"
            ),
        }
        tracer = _obs_runtime.get_tracer()
        try:
            for filename, write in writers.items():
                with tracer.span("cache.store", category="cache", file=filename) as span:
                    write(tmp / filename)
                    span.set(bytes=(tmp / filename).stat().st_size)
            try:
                os.replace(tmp, entry)
            except OSError:
                # entry appeared concurrently (or non-empty dir on this
                # platform): keep the existing one.
                shutil.rmtree(tmp, ignore_errors=True)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return entry

    def load(self, key: str, config: WorkloadConfig):
        """Reconstruct the dataset ``config`` builds, or ``None`` when
        the entry is missing, stale or corrupt (see the module
        docstring).  ``key`` is the loading session's
        :func:`dataset_key`, which hashes ``config``."""
        from repro.dataset import SupercloudDataset

        entry = self.entry_dir(key)
        tracer = _obs_runtime.get_tracer()

        def read(filename: str, loader, expected=None):
            path = entry / filename
            try:
                with tracer.span("cache.load", category="cache", file=filename) as span:
                    span.set(bytes=path.stat().st_size)
                    value = loader(path)
            except _CORRUPT as error:
                raise _Miss(filename, f"{type(error).__name__}: {error}") from None
            if expected is not None and len(value) != expected:
                raise _Miss(filename, f"holds {len(value)} items, the manifest {expected}")
            return value

        try:
            manifest = read("manifest.json", _read_manifest)
            if manifest.get("schema_version") != SCHEMA_VERSION or manifest.get("key") != key:
                raise _Miss("manifest.json", "another schema version or key")
            rows = manifest["rows"]
            tables = {
                attr: read(filename, read_csv, rows.get(attr, -1))
                for attr, filename in _TABLE_FILES.items()
            }
            store = read("timeseries.npz", load_store, manifest.get("num_series", -1))
            records = read("records.pkl", _undump, manifest.get("num_records", -1))
        except _Miss as miss:
            filename, reason = miss.args
            _obs_runtime.record_event(
                "cache",
                category="cache",
                kind="dataset_load_failed",
                file=filename,
                reason=reason,
            )
            return None
        return SupercloudDataset(
            jobs=tables["jobs"],
            gpu_jobs=tables["gpu_jobs"],
            per_gpu=tables["per_gpu"],
            timeseries=store,
            records=records,
            spec=supercloud_spec(config.scaled_nodes),
            config=config,
        )

    def evict(self, key: str) -> None:
        """Drop one entry (no error if absent)."""
        shutil.rmtree(self.entry_dir(key), ignore_errors=True)
