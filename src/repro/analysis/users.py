"""Per-user aggregation (Fig 10, Fig 11) and the Pareto statistics (Sec. IV).

The paper aggregates every job statistic twice: pooled over jobs, and
per user (mean and CoV across a user's jobs).  :func:`user_table`
builds the per-user view once; figure modules read columns off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import gini
from repro.errors import AnalysisError
from repro.frame import Table

#: Job columns averaged per user, with short output names.
USER_METRICS = {
    "run_time_s": "runtime",
    "sm_mean": "sm",
    "mem_bw_mean": "mem_bw",
    "mem_size_mean": "mem_size",
}


def user_table(gpu_jobs: Table) -> Table:
    """One row per user: job count, GPU hours, mean and CoV of each metric.

    Runs entirely on the vectorized ``aggregate`` kernels (one grouped
    pass computing count/sum/mean/std for every metric) instead of a
    per-user Python ``apply``; the CoV is then ``std / |mean|`` across
    all users at once, NaN where the mean is zero (same convention as
    :func:`repro.analysis.stats.coefficient_of_variation` — pipeline
    metrics are finite by construction, so no filtering is needed).

    A chunked ``gpu_jobs`` runs the same group-by fold — the same spec
    and output naming, O(users) state — so the per-user view never
    materializes the job stream.  Job counts stay exact; mean/std merge
    chunk partials (deterministic for a fixed chunking).
    """
    spec: dict[str, list[str]] = {"gpu_hours": ["count", "sum"]}
    for column in USER_METRICS:
        spec[column] = ["mean", "std"]
    aggregated = gpu_jobs.group_by("user").aggregate(spec)
    if aggregated.num_rows == 0:
        raise AnalysisError("no jobs to aggregate")

    data: dict[str, np.ndarray] = {
        "user": aggregated["user"],
        "num_jobs": aggregated["gpu_hours_count"],
        "gpu_hours": aggregated["gpu_hours_sum"],
    }
    for column, name in USER_METRICS.items():
        means = np.asarray(aggregated[f"{column}_mean"], dtype=float)
        stds = np.asarray(aggregated[f"{column}_std"], dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            cov = np.where(means == 0.0, np.nan, stds / np.abs(means))
        data[f"avg_{name}"] = means
        data[f"cov_{name}"] = cov
    return Table(data)


@dataclass(frozen=True)
class ParetoStats:
    """Concentration of job submissions across users (Sec. IV)."""

    num_users: int
    median_jobs_per_user: float
    top5pct_job_share: float
    top20pct_job_share: float
    gini_coefficient: float


def pareto_stats(users: Table) -> ParetoStats:
    """The "top few users submit most jobs" statistics."""
    counts = np.sort(np.asarray(users["num_jobs"], dtype=float))[::-1]
    if counts.size == 0:
        raise AnalysisError("no users")
    total = counts.sum()
    k5 = max(1, int(round(0.05 * counts.size)))
    k20 = max(1, int(round(0.20 * counts.size)))
    return ParetoStats(
        num_users=int(counts.size),
        median_jobs_per_user=float(np.median(counts)),
        top5pct_job_share=float(counts[:k5].sum() / total),
        top20pct_job_share=float(counts[:k20].sum() / total),
        gini_coefficient=gini(counts),
    )
