"""On-disk artifact cache for pipeline sessions.

The paper's own operators materialize the combined dataset *once* and
run every analysis against that artifact; this module gives the
reproduction the same property.  A cache entry is keyed by a stable
content hash of ``(WorkloadConfig, MonitoringConfig, schema
version)`` and holds:

``manifest.json``
    schema version, key, and row counts used as an integrity check;
``jobs.csv`` / ``gpu_jobs.csv`` / ``per_gpu.csv``
    the frame tables, via :mod:`repro.frame.io`;
``timeseries.npz``
    the dense series store through the :mod:`repro.monitor.codec`
    compressed encoding (lossy only through its 0.25 % quantisation);
``records.pkl``
    the raw :class:`~repro.slurm.job.JobRecord` list (timeline and
    co-location analyses need the full records);
``config.pkl``
    the exact ``(WorkloadConfig, ClusterSpec)`` pair.

Figure results computed against an entry are cached next to it under
``<key>.figures/<figure_id>.pkl``.

Entries are written to a temp directory and atomically renamed into
place, so concurrent writers (``--workers N``) cannot publish a
half-written entry.  Any load failure — missing file, corrupt npz,
truncated pickle, schema mismatch — returns ``None`` and the caller
regenerates; a broken cache can never make a run fail.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Any

from repro.frame import read_csv, write_csv
from repro.monitor.codec import load_store, save_store
from repro.monitor.collector import MonitoringConfig
from repro.obs import runtime as _obs_runtime
from repro.workload.generator import WorkloadConfig


def _count_cache_event(kind: str) -> None:
    """Mirror one cache operation into the ambient metrics registry
    and the flight recorder."""
    metrics = _obs_runtime.get_metrics()
    if metrics.enabled:
        metrics.counter(
            "repro_cache_events_total",
            help="artifact cache operations by kind",
            kind=kind,
        ).inc()
    _obs_runtime.record_event("cache", category="cache", kind=kind)

#: Bump when the dataset schema or the cache layout changes; every
#: existing entry is invalidated (its key no longer matches).
#: 2: WorkloadConfig grew ``partitions``/``cohorts`` (sharded builds).
#: 3: every build runs as islands, so ``partitions=1`` entries now hold
#:    ``job_id``-ordered tables and records (same content as before).
SCHEMA_VERSION = 3

_TABLE_FILES = {"jobs": "jobs.csv", "gpu_jobs": "gpu_jobs.csv", "per_gpu": "per_gpu.csv"}


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
    """A directory of immutable dataset (and figure-result) artifacts."""

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
        fine — entries for one key are interchangeable.
        """
        entry = self.entry_dir(key)
        if self.has(key):
            return entry
        _count_cache_event("dataset_store")
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".{key}-", dir=self.root))
        try:
            for attr, filename in _TABLE_FILES.items():
                write_csv(getattr(dataset, attr), tmp / filename)
            save_store(dataset.timeseries, tmp / "timeseries.npz")
            with (tmp / "records.pkl").open("wb") as fh:
                pickle.dump(dataset.records, fh, protocol=pickle.HIGHEST_PROTOCOL)
            with (tmp / "config.pkl").open("wb") as fh:
                pickle.dump((dataset.config, dataset.spec), fh, protocol=pickle.HIGHEST_PROTOCOL)
            manifest = {
                "schema_version": SCHEMA_VERSION,
                "key": key,
                "rows": {attr: getattr(dataset, attr).num_rows for attr in _TABLE_FILES},
                "num_series": len(dataset.timeseries),
                "num_records": len(dataset.records),
            }
            (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
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

    def load(self, key: str):
        """Reconstruct a dataset, or ``None`` on any kind of failure."""
        from repro.dataset import SupercloudDataset

        entry = self.entry_dir(key)
        try:
            manifest = json.loads((entry / "manifest.json").read_text(encoding="utf-8"))
            if manifest.get("schema_version") != SCHEMA_VERSION or manifest.get("key") != key:
                return None
            tables = {attr: read_csv(entry / filename) for attr, filename in _TABLE_FILES.items()}
            for attr, table in tables.items():
                if table.num_rows != manifest["rows"][attr]:
                    return None
            store = load_store(entry / "timeseries.npz")
            if len(store) != manifest["num_series"]:
                return None
            with (entry / "records.pkl").open("rb") as fh:
                records = pickle.load(fh)
            if len(records) != manifest["num_records"]:
                return None
            with (entry / "config.pkl").open("rb") as fh:
                config, spec = pickle.load(fh)
        except Exception:
            _count_cache_event("dataset_load_failed")
            return None
        _count_cache_event("dataset_load")
        return SupercloudDataset(
            jobs=tables["jobs"],
            gpu_jobs=tables["gpu_jobs"],
            per_gpu=tables["per_gpu"],
            timeseries=store,
            records=records,
            spec=spec,
            config=config,
        )

    def evict(self, key: str) -> None:
        """Drop one entry and its figure results (no error if absent)."""
        shutil.rmtree(self.entry_dir(key), ignore_errors=True)
        shutil.rmtree(self.root / f"{key}.figures", ignore_errors=True)

    # ------------------------------------------------------------------
    # Figure-result artifacts
    # ------------------------------------------------------------------
    def _figure_path(self, key: str, figure_id: str) -> Path:
        # kept outside the dataset entry so figure writes can never
        # collide with the atomic publication of the entry itself
        return self.root / f"{key}.figures" / f"{figure_id}.pkl"

    def store_figure(self, key: str, figure_id: str, result) -> None:
        """Cache one figure result next to its dataset entry."""
        _count_cache_event("figure_store")
        path = self._figure_path(key, figure_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema_version": SCHEMA_VERSION, "result": result}
        fd, tmp = tempfile.mkstemp(prefix=f".{figure_id}-", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def load_figure(self, key: str, figure_id: str):
        """A cached figure result, or ``None``."""
        path = self._figure_path(key, figure_id)
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
            if payload.get("schema_version") != SCHEMA_VERSION:
                _count_cache_event("figure_miss")
                return None
            _count_cache_event("figure_hit")
            return payload["result"]
        except Exception:
            _count_cache_event("figure_miss")
            return None
