"""Pipeline sessions: the shared, cached, parallel dataset engine.

Public surface:

* :class:`~repro.pipeline.session.Session` — owns dataset
  construction; the single entry point consumers talk to;
* :class:`~repro.pipeline.cache.DatasetCache` /
  :func:`~repro.pipeline.cache.dataset_key` — the on-disk artifact
  cache and its stable content-hash keys;
* :func:`~repro.pipeline.parallel.parallel_map` — process-parallel
  fan-out with a serial fallback;
* :class:`~repro.pipeline.instrument.PipelineInstrumentation` —
  per-stage timing/row-count records.
"""

from repro.pipeline.cache import (
    SCHEMA_VERSION,
    DatasetCache,
    dataset_key,
    default_cache_dir,
)
from repro.pipeline.instrument import PipelineInstrumentation, StageRecord
from repro.pipeline.parallel import parallel_map, resolve_workers
from repro.pipeline.session import BUILD_STAGES, Session

__all__ = [
    "BUILD_STAGES",
    "DatasetCache",
    "PipelineInstrumentation",
    "SCHEMA_VERSION",
    "Session",
    "StageRecord",
    "dataset_key",
    "default_cache_dir",
    "parallel_map",
    "resolve_workers",
]
