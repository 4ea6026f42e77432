"""Monitoring substrate: the simulated nvidia-smi / Slurm telemetry path.

Mirrors the paper's data-collection design (Sec. II):

* a prolog starts per-node samplers when a job starts;
* GPU metrics are sampled at 100 ms, CPU metrics at 10 s;
* samples land in per-node local buffers (never the shared FS);
* an epilog stops sampling and copies data to the central store;
* production jobs keep only min/mean/max summaries; a subset keeps
  the full time series (the paper's 2,149-job / 42 GB dataset).

The sampler consumes any object implementing the
:class:`~repro.monitor.nvidia_smi.ActivityModel` protocol — the
calibrated models live in :mod:`repro.workload.activity`.

Sampling is *deferred*: epilogs record the cheap ordered facts (RNG
draws, CPU summary) and enqueue
:class:`~repro.monitor.sampling.SamplingTask` objects; the expensive
activity-model evaluation runs after the simulation — optionally
across a process pool — with bit-for-bit identical output
(:mod:`repro.monitor.sampling`).
"""

from repro.monitor.codec import compression_ratio, load_store, save_store
from repro.monitor.collector import MonitoringCollector, MonitoringConfig
from repro.monitor.cpu_sampler import CpuSampler
from repro.monitor.nvidia_smi import ActivityModel, NvidiaSmiSampler
from repro.monitor.overhead import interval_tradeoff, monitoring_volume
from repro.monitor.sampling import (
    SamplingPlan,
    SamplingResult,
    SamplingTask,
    run_sampling,
)
from repro.monitor.timeseries import (
    METRIC_NAMES,
    GpuTimeSeries,
    SpilledTimeSeriesStore,
    TimeSeriesStore,
)

__all__ = [
    "METRIC_NAMES",
    "ActivityModel",
    "CpuSampler",
    "GpuTimeSeries",
    "MonitoringCollector",
    "MonitoringConfig",
    "NvidiaSmiSampler",
    "SamplingPlan",
    "SamplingResult",
    "SamplingTask",
    "SpilledTimeSeriesStore",
    "TimeSeriesStore",
    "compression_ratio",
    "interval_tradeoff",
    "load_store",
    "monitoring_volume",
    "run_sampling",
    "save_store",
]
