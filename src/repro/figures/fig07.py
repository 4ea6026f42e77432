"""Fig 7: within-run utilization variability and the bottleneck radar."""

from __future__ import annotations

import numpy as np

from repro.analysis.bottleneck import single_bottlenecks
from repro.analysis.stats import ecdf
from repro.dataset import SupercloudDataset
from repro.errors import AnalysisError
from repro.figures.base import Comparison, FigureResult


def run(dataset: SupercloudDataset) -> FigureResult:
    """Fig 7(a): CoV of SM/memory/size during active phases;
    Fig 7(b): fraction of jobs bottlenecked per resource."""
    if len(dataset.timeseries) == 0:
        raise AnalysisError("dataset has no time-series subset")
    phases = dataset.phase_table

    covs = {}
    for metric, paper in (("sm", 0.14), ("mem_bw", 0.146), ("mem_size", 0.082)):
        values = np.asarray(phases[f"{metric}_active_cov"], dtype=float)
        values = values[np.isfinite(values)]
        covs[metric] = ecdf(values) if values.size else None

    comparisons = []
    for metric, paper in (("sm", 0.14), ("mem_bw", 0.146), ("mem_size", 0.082)):
        if covs[metric] is not None:
            comparisons.append(
                Comparison(f"{metric} CoV median", paper, covs[metric].median())
            )
    if covs["sm"] is not None:
        comparisons.append(
            Comparison("jobs with SM CoV >= 23%", 0.25, covs["sm"].fraction_above(0.23))
        )

    bottlenecks = single_bottlenecks(dataset.gpu_jobs)
    paper_bottlenecks = {
        "sm": 0.22,
        "mem_bw": 0.002,
        "mem_size": 0.08,
        "pcie_rx": 0.14,
        "pcie_tx": 0.10,
    }
    for name, paper in paper_bottlenecks.items():
        comparisons.append(
            Comparison(f"{name} bottleneck fraction", paper, bottlenecks[name])
        )
    return FigureResult(
        figure_id="fig07",
        title="Within-run variability and resource bottlenecks",
        series={"covs": covs, "bottlenecks": bottlenecks},
        comparisons=comparisons,
    )
