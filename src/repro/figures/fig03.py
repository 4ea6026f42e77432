"""Fig 3: run times and queue waits of GPU vs CPU jobs.

The job tables are read only through
:func:`~repro.analysis.stats.column_ecdf` and
:func:`~repro.analysis.stats.column_fraction`, so the same code serves
the materialized dataset and ``dataset.streaming_view()``: threshold
fractions are exact on any chunking, and the CDFs are exact while the
input is one chunk and carry a tracked rank-error bound after.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import column_ecdf, column_fraction
from repro.dataset import SupercloudDataset
from repro.figures.base import Comparison, FigureResult


def run(dataset: SupercloudDataset) -> FigureResult:
    """Fig 3(a): runtime CDFs; Fig 3(b): wait time as % of service time."""
    gpu = dataset.gpu_jobs
    cpu = dataset.jobs.filter(lambda t: np.asarray(t["num_gpus"]) == 0)

    to_minutes = lambda seconds: seconds / 60.0  # noqa: E731
    gpu_runtime = column_ecdf(gpu, "run_time_s", transform=to_minutes)
    cpu_runtime = column_ecdf(cpu, "run_time_s", transform=to_minutes)
    gpu_wait_frac = column_ecdf(gpu, "wait_fraction")
    cpu_wait_frac = column_ecdf(cpu, "wait_fraction")

    comparisons = [
        Comparison("GPU runtime p25", 4.0, gpu_runtime.quantile(0.25), " min"),
        Comparison("GPU runtime median", 30.0, gpu_runtime.median(), " min"),
        Comparison("GPU runtime p75", 300.0, gpu_runtime.quantile(0.75), " min"),
        Comparison("CPU runtime median", 8.0, cpu_runtime.median(), " min"),
        Comparison(
            "GPU jobs waiting <2% of service", 0.50, float(gpu_wait_frac.evaluate(0.02))
        ),
        Comparison(
            "CPU jobs waiting <2% of service", 0.20, float(cpu_wait_frac.evaluate(0.02))
        ),
        Comparison(
            "GPU jobs waiting <1 min",
            0.70,
            column_fraction(gpu, "wait_time_s", lambda w: w < 60.0),
        ),
        Comparison(
            "CPU jobs waiting >1 min",
            0.70,
            column_fraction(cpu, "wait_time_s", lambda w: w > 60.0),
        ),
    ]
    return FigureResult(
        figure_id="fig03",
        title="Run times and queue waits, GPU vs CPU jobs",
        series={
            "gpu_runtime_cdf": gpu_runtime,
            "cpu_runtime_cdf": cpu_runtime,
            "gpu_wait_fraction_cdf": gpu_wait_frac,
            "cpu_wait_fraction_cdf": cpu_wait_frac,
        },
        comparisons=comparisons,
        notes="waits emerge from the scheduler simulation, not from anchors",
    )
