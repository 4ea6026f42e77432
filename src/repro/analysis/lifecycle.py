"""Development life-cycle classification (Fig 15-17; Sec. VI).

The paper's novel contribution: classify every job by where it sits in
the algorithm-development cycle, *derived purely from how it ended*:

* ``mature`` — completed with exit code 0;
* ``exploratory`` — cancelled by the user (suboptimal hyper-parameters);
* ``development`` — crashed with a non-zero exit (debugging);
* ``ide`` — interactive session that hit its timeout limit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError
from repro.frame import QuantileSketch, Table
from repro.slurm.job import LIFECYCLE_CLASSES


def classify_exit(exit_code: int, cancelled_by_user: bool, timed_out: bool) -> str:
    """Classify one job from its raw scheduler exit facts.

    Mirrors the paper's rules; precedence follows how Slurm reports
    states (TIMEOUT and CANCELLED are states, not exit codes).
    """
    if timed_out:
        return "ide"
    if cancelled_by_user:
        return "exploratory"
    if exit_code == 0:
        return "mature"
    return "development"


def lifecycle_breakdown(gpu_jobs: Table) -> Table:
    """Job share, GPU-hour share, and median runtime per class (Fig 15).

    One chunk fold: job shares from integer counts (exact), hour
    shares from chunk partial sums, and each class's median runtime
    from a :class:`~repro.frame.QuantileSketch` (exact on a one-chunk
    input).
    """
    counts = {cls: 0 for cls in LIFECYCLE_CLASSES}
    hours_by_class = {cls: 0.0 for cls in LIFECYCLE_CLASSES}
    runtime_sketches = {cls: QuantileSketch() for cls in LIFECYCLE_CLASSES}
    total = 0
    total_hours = 0.0
    for chunk in gpu_jobs.chunks():
        classes = np.asarray(list(chunk["lifecycle_class"]))
        hours = np.asarray(chunk["gpu_hours"], dtype=float)
        runtimes = np.asarray(chunk["run_time_s"], dtype=float)
        total += classes.size
        total_hours += float(hours.sum())
        for cls in LIFECYCLE_CLASSES:
            mask = classes == cls
            counts[cls] += int(mask.sum())
            hours_by_class[cls] += float(hours[mask].sum())
            runtime_sketches[cls].update(runtimes[mask])
    if total == 0:
        raise AnalysisError("no jobs")
    return Table.from_rows(
        [
            {
                "lifecycle_class": cls,
                "job_fraction": counts[cls] / total,
                "gpu_hour_fraction": hours_by_class[cls] / total_hours if total_hours else 0.0,
                "median_runtime_min": (
                    runtime_sketches[cls].median() / 60.0 if counts[cls] else float("nan")
                ),
                "num_jobs": counts[cls],
            }
            for cls in LIFECYCLE_CLASSES
        ]
    )


def class_utilization_boxes(
    gpu_jobs: Table,
    metrics: tuple[str, ...] = ("sm_mean", "mem_bw_mean", "mem_size_mean"),
) -> Table:
    """Box-plot statistics of utilization per class (Fig 16).

    One quantile sketch per ``(class, metric)`` cell, read for
    p25/median/p75 (exact on a one-chunk input, rank-bounded after).
    """
    sketches = {
        (cls, metric): QuantileSketch() for cls in LIFECYCLE_CLASSES for metric in metrics
    }
    counts = {cls: 0 for cls in LIFECYCLE_CLASSES}
    total = 0
    for chunk in gpu_jobs.chunks():
        classes = np.asarray(list(chunk["lifecycle_class"]))
        total += classes.size
        for cls in LIFECYCLE_CLASSES:
            mask = classes == cls
            count = int(mask.sum())
            counts[cls] += count
            if not count:
                continue
            for metric in metrics:
                values = np.asarray(chunk[metric], dtype=float)[mask]
                sketches[(cls, metric)].update(values)
    if total == 0:
        raise AnalysisError("no jobs")
    return Table.from_rows(
        [
            {
                "lifecycle_class": cls,
                "metric": metric,
                "p25": sketches[(cls, metric)].quantile(0.25),
                "median": sketches[(cls, metric)].median(),
                "p75": sketches[(cls, metric)].quantile(0.75),
            }
            for cls in LIFECYCLE_CLASSES
            if counts[cls]
            for metric in metrics
        ]
    )


def user_lifecycle_composition(gpu_jobs: Table, by: str = "jobs") -> Table:
    """Per-user composition of the four classes (Fig 17).

    ``by`` selects the quantity being decomposed: ``"jobs"`` (Fig 17a)
    or ``"gpu_hours"`` (Fig 17b).  The result is sorted by the user's
    mature fraction descending, with a ``user_percentile`` column for
    the x-axis of the paper's stacked plot.
    """
    if by not in ("jobs", "gpu_hours"):
        raise AnalysisError(f"by must be 'jobs' or 'gpu_hours', got {by!r}")
    reducer = "count" if by == "jobs" else "sum"

    # The cross-tabulation runs as a (user, class) group-by — O(users
    # x 4) state on a chunk stream — and pivots the small aggregate in
    # memory.  Job-count cells are exact integers on any chunking.
    cells = gpu_jobs.group_by("user", "lifecycle_class").aggregate({"gpu_hours": reducer})
    if cells.num_rows == 0:
        raise AnalysisError("no jobs")
    users: list = []
    index: dict = {}
    for user in cells["user"]:
        if user not in index:
            index[user] = len(users)
            users.append(user)
    per_class = {cls: np.zeros(len(users)) for cls in LIFECYCLE_CLASSES}
    values = np.asarray(cells[f"gpu_hours_{reducer}"], dtype=float)
    for user, cls, value in zip(cells["user"], cells["lifecycle_class"], values):
        per_class[str(cls)][index[user]] = value
    user_column = np.asarray(users, dtype=object)

    total = np.sum(list(per_class.values()), axis=0)
    data: dict[str, np.ndarray] = {"user": user_column}
    with np.errstate(divide="ignore", invalid="ignore"):
        for cls, weights in per_class.items():
            data[f"{cls}_fraction"] = np.where(total > 0, weights / total, 0.0)
    table = Table(data)
    table = table.sort_by("mature_fraction", descending=True)
    n = table.num_rows
    percentiles = (np.arange(n) + 0.5) / n * 100.0
    return table.with_column("user_percentile", percentiles)
