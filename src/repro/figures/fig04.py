"""Fig 4: distribution of average GPU resource utilization.

Like fig03, every distribution is read through
:func:`~repro.analysis.stats.column_ecdf`: a one-pass quantile sketch,
exact on a one-chunk input such as the materialized ``gpu_jobs`` and
rank-bounded on a longer ``dataset.streaming_view()``, with the
``values``/``probabilities`` surface the KS-against-uniform deviation
below reads.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import column_ecdf
from repro.dataset import SupercloudDataset
from repro.figures.base import Comparison, FigureResult


def run(dataset: SupercloudDataset) -> FigureResult:
    """Fig 4(a): SM / memory-BW / memory-size CDFs; Fig 4(b): PCIe."""
    gpu = dataset.gpu_jobs
    sm = column_ecdf(gpu, "sm_mean")
    mem = column_ecdf(gpu, "mem_bw_mean")
    size = column_ecdf(gpu, "mem_size_mean")
    tx = column_ecdf(gpu, "pcie_tx_mean")
    rx = column_ecdf(gpu, "pcie_rx_mean")

    comparisons = [
        Comparison("SM util median", 16.0, sm.median(), "%"),
        Comparison("memory util median", 2.0, mem.median(), "%"),
        Comparison("memory size median", 9.0, size.median(), "%"),
        Comparison("jobs with SM util >50%", 0.20, sm.fraction_above(50.0)),
        Comparison("jobs with memory util >50%", 0.04, mem.fraction_above(50.0)),
        Comparison("jobs with memory size >50%", 0.15, size.fraction_above(50.0)),
    ]
    # PCIe uniformity: the paper reads the linear CDF as a uniform
    # bandwidth distribution.  Quantify with the max CDF deviation from
    # a straight line over the occupied support (a KS-against-uniform).
    # On the streaming path the sketch's summary points play the role
    # of the sample points.
    for name, dist in (("Tx", tx), ("Rx", rx)):
        support = dist.values[-1] - dist.values[0]
        if support > 0:
            uniform = (dist.values - dist.values[0]) / support
            deviation = float(np.abs(dist.probabilities - uniform).max())
        else:
            deviation = 1.0
        comparisons.append(
            Comparison(f"PCIe {name} CDF deviation from uniform", 0.0, deviation)
        )
    return FigureResult(
        figure_id="fig04",
        title="Average GPU resource and PCIe utilization",
        series={"sm": sm, "mem_bw": mem, "mem_size": size, "pcie_tx": tx, "pcie_rx": rx},
        comparisons=comparisons,
    )
