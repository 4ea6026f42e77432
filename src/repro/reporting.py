"""Operator-facing summary report.

Condenses a dataset into the kind of weekly report a system operator
would read: capacity, queue health, utilization, the life-cycle
footprint, power headroom, and the opportunity studies — rendered as
aligned text with small ASCII charts.  Exposed as
``python -m repro summary``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.lifecycle import lifecycle_breakdown
from repro.analysis.power import power_cap_impact, power_headroom
from repro.analysis.users import pareto_stats, user_table
from repro.dataset import SupercloudDataset
from repro.monitor.overhead import monitoring_volume
from repro.plot import ascii_cdf, ascii_histogram


def _section(title: str) -> str:
    return f"\n== {title} " + "=" * max(50 - len(title), 3)


def operator_summary(dataset: SupercloudDataset) -> str:
    """Render the full text report for one dataset."""
    gpu = dataset.gpu_jobs
    lines: list[str] = [f"Supercloud operations summary — {dataset.describe()}"]

    # --- partition layout (sharded simulations only)
    if getattr(dataset.config, "partitions", 1) > 1:
        from repro.cluster.partition import PartitionLayout

        layout = PartitionLayout.even(
            dataset.spec.num_nodes, dataset.config.partitions
        )
        lines.append(_section("partition layout"))
        lines.append(
            f"{dataset.config.partitions} cluster islands, "
            f"{dataset.config.resolved_cohorts} user cohorts "
            "(cohort c runs on island c % partitions; see docs/scaling.md)"
        )
        lines.extend(layout.describe())

    # --- capacity & queue health
    lines.append(_section("queue health"))
    waits = np.asarray(gpu["wait_time_s"], dtype=float)
    lines.append(
        f"GPU jobs: median wait {np.median(waits):.0f} s, "
        f"{(waits < 60).mean():.0%} start within a minute"
    )
    cpu = dataset.jobs.filter(lambda t: np.asarray(t["num_gpus"]) == 0)
    if cpu.num_rows:
        cpu_waits = np.asarray(cpu["wait_time_s"], dtype=float)
        lines.append(
            f"CPU jobs: median wait {np.median(cpu_waits):.0f} s "
            f"({(cpu_waits > 60).mean():.0%} wait over a minute — whole-node requests)"
        )

    # --- utilization
    lines.append(_section("GPU utilization"))
    lines.append(
        ascii_cdf(gpu["sm_mean"], width=50, height=8, title="SM utilization CDF (%)")
    )
    sm = np.asarray(gpu["sm_mean"], dtype=float)
    lines.append(
        f"median SM {np.median(sm):.0f}%, {(sm > 50).mean():.0%} of jobs above 50% — "
        "plenty of co-location headroom"
    )

    # --- life-cycle footprint
    lines.append(_section("development life-cycle footprint"))
    breakdown = lifecycle_breakdown(gpu)
    rows = list(breakdown.iter_rows())
    lines.append(
        ascii_histogram(
            [r["lifecycle_class"] for r in rows],
            [r["gpu_hour_fraction"] for r in rows],
            width=32,
            title="share of GPU hours by class",
        )
    )
    nonmature = sum(r["gpu_hour_fraction"] for r in rows if r["lifecycle_class"] != "mature")
    lines.append(f"{nonmature:.0%} of GPU hours go to non-mature (pre-production) work")

    # --- power
    lines.append(_section("power headroom"))
    headroom = power_headroom(gpu)
    lines.append(
        f"median job: {headroom.median_avg_power_w:.0f} W avg / "
        f"{headroom.median_max_power_w:.0f} W peak of {headroom.board_power_w:.0f} W boards"
    )
    for impact in power_cap_impact(gpu, caps_w=(150.0,)):
        lines.append(
            f"a {impact.cap_w:.0f} W cap leaves {impact.unimpacted_fraction:.0%} of jobs "
            f"untouched and would fund {headroom.board_power_w / impact.cap_w:.1f}x the GPUs"
        )

    # --- users
    lines.append(_section("user population"))
    users = user_table(gpu)
    stats = pareto_stats(users)
    lines.append(
        f"{stats.num_users} active users; top 5% submit {stats.top5pct_job_share:.0%} "
        f"of jobs (Gini {stats.gini_coefficient:.2f})"
    )

    # --- monitoring cost
    lines.append(_section("monitoring data volume"))
    volume = monitoring_volume(dataset.jobs)
    lines.append(
        f"dense GPU series {volume.gpu_series_gb:.1f} GB, CPU series "
        f"{volume.cpu_series_gb:.1f} GB, {volume.epilog_file_count} epilog copy-backs"
    )
    return "\n".join(lines)
