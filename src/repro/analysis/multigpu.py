"""Multi-GPU job analysis (Fig 13, Fig 14; Sec. V).

Covers the job-size mix, GPU-hour footprint by size, per-user job-size
breadth, and the cross-GPU utilization variability of multi-GPU jobs
— with and without each job's idle GPUs, which is how the paper shows
that *active* GPUs behave uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import coefficient_of_variation
from repro.analysis.streaming import iter_sorted_groups
from repro.errors import AnalysisError
from repro.frame import QuantileSketch, Table

#: Size buckets used by Fig 13 and the Sec. V wait-time comparison.
SIZE_BUCKETS = ((1, 1), (2, 2), (3, 8), (9, 10_000))
SIZE_LABELS = ("1", "2", "3-8", ">=9")

#: A GPU with mean SM and memory utilization below this is idle.
IDLE_GPU_THRESHOLD = 0.5


def gpu_count_breakdown(gpu_jobs: Table) -> Table:
    """Job share and GPU-hour share per size bucket (Fig 13).

    One chunk fold of integer job counts (shares exact on any
    chunking) and per-bucket hour sums.
    """
    total = 0
    total_hours = 0.0
    bucket_jobs = [0] * len(SIZE_BUCKETS)
    bucket_hours = [0.0] * len(SIZE_BUCKETS)
    for chunk in gpu_jobs.chunks():
        counts = np.asarray(chunk["num_gpus"], dtype=float)
        hours = np.asarray(chunk["gpu_hours"], dtype=float)
        total += counts.size
        total_hours += float(hours.sum())
        for i, (lo, hi) in enumerate(SIZE_BUCKETS):
            mask = (counts >= lo) & (counts <= hi)
            bucket_jobs[i] += int(mask.sum())
            bucket_hours[i] += float(hours[mask].sum())
    if total == 0:
        raise AnalysisError("no jobs")
    return Table.from_rows(
        [
            {
                "gpus": label,
                "job_fraction": bucket_jobs[i] / total,
                "gpu_hour_fraction": bucket_hours[i] / total_hours if total_hours else 0.0,
                "num_jobs": bucket_jobs[i],
            }
            for i, label in enumerate(SIZE_LABELS)
        ]
    )


def user_gpu_breadth(gpu_jobs: Table) -> dict[str, float]:
    """Fraction of users who ever ran multi-GPU / 3+ / 9+ GPU jobs.

    ``max`` is an exact reducer on both the materialized and the
    streaming group-by, so the fractions do not depend on chunking.
    """
    breadth = gpu_jobs.group_by("user").aggregate({"num_gpus": "max"})
    if breadth.num_rows == 0:
        raise AnalysisError("no jobs")
    max_gpus = np.asarray(breadth["num_gpus_max"], dtype=float)
    return {
        "any_multi_gpu": float((max_gpus >= 2).mean()),
        "three_plus": float((max_gpus >= 3).mean()),
        "nine_plus": float((max_gpus >= 9).mean()),
    }


def wait_by_size(gpu_jobs: Table) -> Table:
    """Median queue wait per size bucket (Sec. V text).

    Each bucket's median comes from a one-pass
    :class:`~repro.frame.QuantileSketch` (exact on a one-chunk input,
    rank-bounded after); job counts stay exact.
    """
    sketches = [QuantileSketch() for _ in SIZE_BUCKETS]
    bucket_jobs = [0] * len(SIZE_BUCKETS)
    for chunk in gpu_jobs.chunks():
        counts = np.asarray(chunk["num_gpus"], dtype=float)
        waits = np.asarray(chunk["wait_time_s"], dtype=float)
        for i, (lo, hi) in enumerate(SIZE_BUCKETS):
            mask = (counts >= lo) & (counts <= hi)
            bucket_jobs[i] += int(mask.sum())
            sketches[i].update(waits[mask])
    return Table.from_rows(
        [
            {
                "gpus": label,
                "median_wait_s": sketches[i].median() if bucket_jobs[i] else float("nan"),
                "num_jobs": bucket_jobs[i],
            }
            for i, label in enumerate(SIZE_LABELS)
        ]
    )


@dataclass(frozen=True)
class MultiGpuCovResult:
    """Cross-GPU CoV per multi-GPU job, all GPUs vs active-only."""

    job_id: int
    num_gpus: int
    num_idle_gpus: int
    cov_all: dict[str, float]
    cov_active: dict[str, float]


def multi_gpu_cov(
    per_gpu: Table,
    metrics: tuple[str, ...] = ("sm_mean", "mem_bw_mean", "mem_size_mean"),
    idle_threshold: float = IDLE_GPU_THRESHOLD,
) -> list[MultiGpuCovResult]:
    """Cross-GPU CoV for every multi-GPU job (Fig 14).

    ``cov_all`` includes idle GPUs; ``cov_active`` drops GPUs whose
    mean SM *and* memory utilization sit below ``idle_threshold``.

    Folds one multi-GPU job's rows at a time via
    :func:`~repro.analysis.streaming.iter_sorted_groups`, which skips
    one-GPU jobs before it materializes them, so results come in
    ascending ``job_id`` order; each group keeps its rows' stream
    order, so every CoV is bit-identical to a materialized
    ``group_by("job_id")``.  A materialized ``per_gpu`` may be in any
    row order; a chunked one must arrive job-id ordered across chunks,
    as the pipeline emits it.
    """
    results = []
    # Group only the columns read here, not every per-GPU column.
    read = {"job_id", "sm_mean", "mem_bw_mean", *metrics}
    source = per_gpu.select([name for name in per_gpu.column_names if name in read])
    for job_key, group in iter_sorted_groups(source, "job_id", min_rows=2):
        sm = np.asarray(group["sm_mean"], dtype=float)
        mem = np.asarray(group["mem_bw_mean"], dtype=float)
        active = (sm > idle_threshold) | (mem > idle_threshold)
        values = {m: np.asarray(group[m], dtype=float) for m in metrics}
        cov_all = {m: coefficient_of_variation(v) for m, v in values.items()}
        if active.sum() >= 2:
            cov_active = {m: coefficient_of_variation(v[active]) for m, v in values.items()}
        else:
            cov_active = {m: float("nan") for m in metrics}
        results.append(
            MultiGpuCovResult(
                job_id=int(job_key),
                num_gpus=group.num_rows,
                num_idle_gpus=int((~active).sum()),
                cov_all=cov_all,
                cov_active=cov_active,
            )
        )
    if not results and per_gpu.num_rows == 0:
        raise AnalysisError("no per-GPU rows")
    return results


def idle_gpu_fraction(results: list[MultiGpuCovResult]) -> float:
    """Fraction of multi-GPU jobs with at least half their GPUs idle."""
    if not results:
        raise AnalysisError("no multi-GPU jobs")
    flags = [r.num_idle_gpus * 2 >= r.num_gpus and r.num_idle_gpus > 0 for r in results]
    return float(np.mean(flags))
