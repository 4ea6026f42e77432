"""Fig 5: SM and memory utilization by job interface type.

Like fig03/fig04, this producer reads the job tables only through
streaming-safe verbs — ``value_counts`` for the interface shares,
``filter`` + :func:`~repro.analysis.stats.column_ecdf` for the
per-interface distributions — so it accepts either the materialized
dataset or ``dataset.streaming_view()``.  Shares are integer-count
ratios and therefore exact on any chunking; the CDFs are one-pass
quantile sketches, exact while the input is one chunk (a materialized
:class:`~repro.frame.Table`) and rank-bounded after.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import column_ecdf
from repro.dataset import SupercloudDataset
from repro.figures.base import Comparison, FigureResult
from repro.slurm.job import INTERFACE_TYPES

#: Job shares per interface reported by the paper.
PAPER_SHARES = {"map-reduce": 0.01, "batch": 0.30, "interactive": 0.04, "other": 0.65}


def run(dataset: SupercloudDataset) -> FigureResult:
    """Utilization CDFs conditioned on submission interface."""
    gpu = dataset.gpu_jobs

    # One pass for the shares: integer counts divide exactly like the
    # materialized ``(interfaces == x).mean()``, so streaming and
    # in-memory runs report bit-identical share comparisons.
    counts = {interface: 0 for interface in INTERFACE_TYPES}
    interface_counts = gpu.value_counts("interface")
    for value, count in zip(
        interface_counts["interface"], interface_counts["count"]
    ):
        counts[str(value)] = int(count)
    total = sum(counts.values())

    series: dict[str, object] = {}
    medians: dict[str, float] = {}
    comparisons = []
    for interface in INTERFACE_TYPES:
        share = counts[interface] / total if total else 0.0
        comparisons.append(
            Comparison(f"{interface} job share", PAPER_SHARES[interface], share)
        )
        if counts[interface]:
            sub = gpu.filter(
                lambda t, i=interface: np.asarray(t["interface"]) == i
            )
            sm = column_ecdf(sub, "sm_mean")
            mem = column_ecdf(sub, "mem_bw_mean")
            series[f"sm_{interface}"] = sm
            series[f"mem_{interface}"] = mem
            medians[interface] = sm.median()

    # Ordering claim: "other" jobs have the highest SM utilization,
    # followed by batch; map-reduce and interactive are lowest.
    ordered = all(
        medians.get("other", 0.0) >= medians.get(k, 0.0)
        for k in ("batch", "interactive", "map-reduce")
    ) and medians.get("batch", 0.0) >= max(
        medians.get("interactive", 0.0), medians.get("map-reduce", 0.0)
    )
    comparisons.append(
        Comparison("SM ordering other>batch>interactive/map-reduce holds", 1.0, float(ordered))
    )
    return FigureResult(
        figure_id="fig05",
        title="Utilization by interface type",
        series=series,
        comparisons=comparisons,
        notes=f"per-interface SM medians: { {k: round(v, 1) for k, v in medians.items()} }",
    )
