"""The characterization toolkit — the paper's primary contribution.

Each module implements one family of analyses from the paper:

* :mod:`repro.analysis.stats` — ECDFs, CoV, quantiles, Spearman.
* :mod:`repro.analysis.phases` — active/idle phase segmentation of GPU
  time series and phase-interval statistics (Fig 6, Fig 7a).
* :mod:`repro.analysis.bottleneck` — resource-bottleneck detection,
  single and pairwise (Fig 7b, Fig 8).
* :mod:`repro.analysis.power` — power-cap impact and over-provisioning
  headroom (Fig 9).
* :mod:`repro.analysis.users` — per-user aggregation and the Pareto
  activity statistics (Fig 10, 11; Sec. IV).
* :mod:`repro.analysis.correlation` — user-behavior correlations (Fig 12).
* :mod:`repro.analysis.multigpu` — cross-GPU utilization variability of
  multi-GPU jobs (Fig 13, 14; Sec. V).
* :mod:`repro.analysis.lifecycle` — the development life-cycle
  classification and its resource footprint (Fig 15-17; Sec. VI).
"""

from repro.analysis.bottleneck import BottleneckAnalysis, pairwise_bottlenecks, single_bottlenecks
from repro.analysis.correlation import user_behavior_correlations
from repro.analysis.lifecycle import (
    classify_exit,
    lifecycle_breakdown,
    user_lifecycle_composition,
)
from repro.analysis.multigpu import gpu_count_breakdown, multi_gpu_cov, user_gpu_breadth
from repro.analysis.phases import PhaseStats, phase_stats, within_active_cov
from repro.analysis.power import power_cap_impact, power_headroom
from repro.analysis.prediction import (
    predict_user_behavior,
    predictability_gain,
    strategy_comparison,
)
from repro.analysis.stats import Ecdf, coefficient_of_variation, ecdf, spearman
from repro.analysis.timeline import capacity_sweep, surge_visibility
from repro.analysis.users import pareto_stats, user_table

__all__ = [
    "BottleneckAnalysis",
    "Ecdf",
    "PhaseStats",
    "capacity_sweep",
    "classify_exit",
    "coefficient_of_variation",
    "surge_visibility",
    "ecdf",
    "gpu_count_breakdown",
    "lifecycle_breakdown",
    "multi_gpu_cov",
    "pairwise_bottlenecks",
    "pareto_stats",
    "phase_stats",
    "power_cap_impact",
    "power_headroom",
    "predict_user_behavior",
    "predictability_gain",
    "strategy_comparison",
    "single_bottlenecks",
    "spearman",
    "user_behavior_correlations",
    "user_gpu_breadth",
    "user_lifecycle_composition",
    "user_table",
    "within_active_cov",
]
