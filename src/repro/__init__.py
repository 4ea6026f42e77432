"""Reproduction of "AI-Enabling Workloads on Large-Scale GPU-Accelerated
System: Characterization, Opportunities, and Implications" (HPCA 2022).

The package rebuilds the paper's entire measurement pipeline on a
calibrated synthetic substrate (the production traces are not
redistributable):

* :mod:`repro.frame` — columnar table library (pandas substitute);
* :mod:`repro.cluster` — the 224-node / 448-V100 hardware model;
* :mod:`repro.slurm` — event-driven scheduler simulator;
* :mod:`repro.monitor` — nvidia-smi telemetry substrate;
* :mod:`repro.workload` — calibrated workload generator;
* :mod:`repro.pipeline` — the dataset engine: staged sessions, an
  on-disk artifact cache, process-parallel cohort and seed fan-out;
* :mod:`repro.analysis` — the characterization toolkit;
* :mod:`repro.figures` — per-figure reproduction harness;
* :mod:`repro.opportunities` — Sec. VI/VIII what-if models.

Quickstart
----------
A :class:`~repro.pipeline.Session` owns dataset construction: it runs
the ``workload → schedule → assemble`` stages at most once,
memoizes the result, and (with ``cache_dir``) persists its tables,
series and job records so later runs — even in other processes — skip
generation entirely.  Figures are computed from the dataset a session
holds; it keeps each result.

>>> from repro import Session
>>> session = Session.from_scenario(scale=0.02, seed=7)
>>> dataset = session.dataset()
>>> dataset.gpu_jobs.num_rows > 0
True
>>> dataset is session.dataset()   # shared, not rebuilt
True

Compatibility
-------------
The original one-call entry point still works — it is now a thin
wrapper that builds a fresh, uncached session per call:

>>> from repro import generate_dataset, WorkloadConfig
>>> generate_dataset(WorkloadConfig(scale=0.02, seed=7)).gpu_jobs.num_rows > 0
True
"""

from repro.dataset import SupercloudDataset, generate_dataset
from repro.pipeline import Session
from repro.workload.calibration import PAPER_TARGETS, PaperTargets
from repro.workload.generator import WorkloadConfig

__version__ = "14.0.0"

__all__ = [
    "PAPER_TARGETS",
    "PaperTargets",
    "Session",
    "SupercloudDataset",
    "WorkloadConfig",
    "generate_dataset",
    "__version__",
]
