"""Fig 9: GPU power consumption and power-cap impact.

The CDFs go through :func:`~repro.analysis.stats.column_ecdf` (exact
on a one-chunk input, rank-bounded after) and the cap-impact fractions
are exact integer counts on any chunking, so one code path serves a
materialized dataset and ``dataset.streaming_view()``.
"""

from __future__ import annotations

from repro.analysis.power import power_cap_impact, power_headroom
from repro.analysis.stats import column_ecdf
from repro.dataset import SupercloudDataset
from repro.figures.base import Comparison, FigureResult


def run(dataset: SupercloudDataset) -> FigureResult:
    """Fig 9(a): avg/max power CDFs; Fig 9(b): impact of 150/200/250 W caps."""
    gpu = dataset.gpu_jobs
    avg = column_ecdf(gpu, "power_w_mean")
    peak = column_ecdf(gpu, "power_w_max")
    impacts = power_cap_impact(gpu)
    headroom = power_headroom(gpu)

    comparisons = [
        Comparison("average power median", 45.0, avg.median(), " W"),
        Comparison("maximum power median", 87.0, peak.median(), " W"),
    ]
    for impact in impacts:
        if impact.cap_w == 150.0:
            comparisons.append(
                Comparison("unimpacted at 150 W cap", 0.60, impact.unimpacted_fraction)
            )
            comparisons.append(
                Comparison("avg-impacted at 150 W cap", 0.10, impact.avg_impacted_fraction)
            )
    return FigureResult(
        figure_id="fig09",
        title="GPU power consumption and power capping",
        series={"avg_cdf": avg, "max_cdf": peak, "cap_impacts": impacts, "headroom": headroom},
        comparisons=comparisons,
        notes=(
            "paper: >60% of jobs unimpacted and <10% avg-impacted even at a "
            "150 W cap (half of V100 board power)"
        ),
    )
