"""Monitoring substrate: the simulated nvidia-smi telemetry path.

Mirrors the part of the paper's data-collection design (Sec. II) that
its dataset holds:

* GPU metrics are sampled by nvidia-smi at 100 ms;
* the scheduler's epilog hands each finished job to the collector;
* production jobs keep only min/mean/max summaries; a subset keeps
  the full time series (the paper's 2,149-job / 42 GB dataset).

The paper's 10 s CPU telemetry feeds no table, figure or export here,
so it is not sampled; :mod:`repro.monitor.overhead` still counts its
volume.

Each GPU job carries a
:class:`~repro.workload.activity.JobActivityModel`, the calibrated
ground truth of its activity; the
:class:`~repro.monitor.nvidia_smi.NvidiaSmiSampler` decides when it
is sampled.

Sampling is *deferred*: epilogs record the cheap ordered facts (the
keep-series and sample-offset draws) and enqueue
:class:`~repro.monitor.sampling.SamplingTask` objects; the expensive
activity-model evaluation runs after the simulation, a whole island
of jobs as one batch, with bit-for-bit the output of an inline
epilog (:mod:`repro.monitor.sampling`).
"""

from repro.monitor.codec import compression_ratio, load_store, save_store
from repro.monitor.collector import MonitoringCollector, MonitoringConfig
from repro.monitor.nvidia_smi import NvidiaSmiSampler
from repro.monitor.overhead import interval_tradeoff, monitoring_volume
from repro.monitor.sampling import SamplingResult, SamplingTask, run_sampling
from repro.monitor.timeseries import (
    METRIC_NAMES,
    GpuTimeSeries,
    SpilledTimeSeriesStore,
    TimeSeriesStore,
)

__all__ = [
    "METRIC_NAMES",
    "GpuTimeSeries",
    "MonitoringCollector",
    "MonitoringConfig",
    "NvidiaSmiSampler",
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
