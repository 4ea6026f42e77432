"""Fig 6: active/idle phase structure from the time-series subset.

Streams: reads ``dataset.phase_table``, which
:func:`~repro.analysis.phases.job_phase_table` folds once per dataset
(shared with fig07 and validation), one series at a time
(``iter_sorted`` keeps a single spill batch resident on a sharded
build).  The table is O(sampled jobs), so this producer accepts a
materialized dataset or ``dataset.streaming_view()`` unchanged.
Interval-CoV samples are filtered to finite values *explicitly* — the
same drop :func:`~repro.analysis.stats.ecdf` applies internally — so
the sample counts reported by both paths agree.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import ecdf
from repro.dataset import SupercloudDataset
from repro.errors import AnalysisError
from repro.figures.base import Comparison, FigureResult


def run(dataset: SupercloudDataset) -> FigureResult:
    """Fig 6(a): active-time share CDF; Fig 6(b): interval-length CoVs."""
    if len(dataset.timeseries) == 0:
        raise AnalysisError("dataset has no time-series subset")
    phases = dataset.phase_table

    active = ecdf(phases["active_fraction"])
    # Interval CoV is defined only for jobs with >= 2 intervals of the
    # given kind; a single-interval job reports NaN.  Drop non-finite
    # values here with the same mask ecdf() applies, so the retained
    # sample set is identical however the phase table was folded.
    active_cov = np.asarray(phases["active_interval_cov"], dtype=float)
    idle_cov = np.asarray(phases["idle_interval_cov"], dtype=float)
    multi_active = active_cov[
        (np.asarray(phases["num_active_intervals"]) >= 2) & np.isfinite(active_cov)
    ]
    multi_idle = idle_cov[
        (np.asarray(phases["num_idle_intervals"]) >= 2) & np.isfinite(idle_cov)
    ]

    comparisons = [
        Comparison("active-time share p25", 0.14, active.quantile(0.25)),
        Comparison("active-time share median", 0.84, active.median()),
        Comparison("active-time share p75", 0.95, active.quantile(0.75)),
    ]
    series: dict[str, object] = {"active_fraction_cdf": active, "phase_table": phases}
    if multi_idle.size:
        idle_ecdf = ecdf(multi_idle)
        series["idle_cov_cdf"] = idle_ecdf
        comparisons.append(Comparison("idle interval CoV median", 1.26, idle_ecdf.median()))
    if multi_active.size:
        active_ecdf = ecdf(multi_active)
        series["active_cov_cdf"] = active_ecdf
        comparisons.append(
            Comparison("active interval CoV median", 1.69, active_ecdf.median())
        )
    return FigureResult(
        figure_id="fig06",
        title="Active/idle phases of GPU jobs",
        series=series,
        comparisons=comparisons,
        notes=f"computed over {phases.num_rows} dense-sampled jobs",
    )
