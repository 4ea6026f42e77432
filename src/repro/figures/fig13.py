"""Fig 13: job-size mix and GPU-hour footprint of multi-GPU jobs.

Every statistic is a chunk fold: the size-mix fractions go through
:func:`~repro.analysis.stats.column_fraction` (exact integer counts),
the breakdown and breadth kernels fold their own state, and the
multi-GPU hour share is one sum fold.  The same code therefore serves
a materialized dataset (one chunk) and ``dataset.streaming_view()``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.multigpu import gpu_count_breakdown, user_gpu_breadth
from repro.analysis.stats import column_fraction
from repro.dataset import SupercloudDataset
from repro.figures.base import Comparison, FigureResult


def _multi_gpu_hour_share(gpu) -> float:
    """GPU-hour share of multi-GPU jobs, one sum fold."""
    multi = total = 0.0
    for chunk in gpu.chunks():
        counts = np.asarray(chunk["num_gpus"], dtype=float)
        hours = np.asarray(chunk["gpu_hours"], dtype=float)
        multi += float(hours[counts > 1].sum())
        total += float(hours.sum())
    return multi / total


def run(dataset: SupercloudDataset) -> FigureResult:
    """Fig 13(a): fraction of jobs per GPU count; Fig 13(b): GPU-hour
    share; plus Sec. V per-user breadth."""
    gpu = dataset.gpu_jobs
    breakdown = gpu_count_breakdown(gpu)
    breadth = user_gpu_breadth(gpu)

    comparisons = [
        Comparison(
            "single-GPU job fraction",
            0.84,
            column_fraction(gpu, "num_gpus", lambda g: g == 1),
        ),
        Comparison(
            "jobs with >2 GPUs", 0.024, column_fraction(gpu, "num_gpus", lambda g: g > 2)
        ),
        Comparison(
            "jobs with >=9 GPUs (<1%)",
            0.01,
            column_fraction(gpu, "num_gpus", lambda g: g >= 9),
        ),
        Comparison("multi-GPU share of GPU hours", 0.50, _multi_gpu_hour_share(gpu)),
        Comparison("users with any multi-GPU job", 0.60, breadth["any_multi_gpu"]),
        Comparison("users with >=3-GPU jobs", 0.13, breadth["three_plus"]),
        Comparison("users with >=9-GPU jobs", 0.052, breadth["nine_plus"]),
    ]
    return FigureResult(
        figure_id="fig13",
        title="Multi-GPU job mix and GPU-hour footprint",
        series={"breakdown": breakdown, "breadth": breadth},
        comparisons=comparisons,
    )
