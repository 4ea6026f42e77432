"""Resource-bottleneck analysis (Fig 7b, Fig 8).

A job is bottlenecked on a resource when its *maximum* recorded
utilization of that resource reaches the device limit at any point in
the run — even if the average is low.  Pairwise bottlenecks count jobs
that saturate two resources during the same run (not necessarily at
the same instant).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.frame import Table

#: Resources examined, mapping display name -> max-column in the
#: job summary table.
BOTTLENECK_COLUMNS = {
    "sm": "sm_max",
    "mem_bw": "mem_bw_max",
    "mem_size": "mem_size_max",
    "pcie_tx": "pcie_tx_max",
    "pcie_rx": "pcie_rx_max",
}

#: Utilization (%) counting as "reached the limit".  nvidia-smi
#: reports integers and transient saturation rarely samples exactly at
#: 100, so the paper's methodology tolerates a small margin.
SATURATION_THRESHOLD = 99.0


@dataclass(frozen=True)
class BottleneckAnalysis:
    """Single and pairwise bottleneck fractions over a job population."""

    num_jobs: int
    single: dict[str, float]
    pairs: dict[tuple[str, str], float]

    def fraction(self, resource: str) -> float:
        if resource not in self.single:
            raise AnalysisError(f"unknown resource {resource!r}")
        return self.single[resource]

    def pair_fraction(self, a: str, b: str) -> float:
        key = tuple(sorted((a, b)))
        if key not in self.pairs:
            raise AnalysisError(f"unknown resource pair {key!r}")
        return self.pairs[key]

    @property
    def max_pair_fraction(self) -> float:
        return max(self.pairs.values()) if self.pairs else 0.0


def _flags(jobs: Table, threshold: float) -> dict[str, np.ndarray]:
    flags = {}
    for name, column in BOTTLENECK_COLUMNS.items():
        flags[name] = np.asarray(jobs[column], dtype=float) >= threshold
    return flags


def _flag_counts(jobs, threshold: float):
    """One chunk fold: total rows, per-resource and per-pair counts.

    Fractions are integer counts over the total, so they are exact on
    any chunking.
    """
    total = 0
    singles = {name: 0 for name in BOTTLENECK_COLUMNS}
    pairs = {key: 0 for key in itertools.combinations(sorted(BOTTLENECK_COLUMNS), 2)}
    for chunk in jobs.chunks():
        total += chunk.num_rows
        flags = _flags(chunk, threshold)
        for name, mask in flags.items():
            singles[name] += int(mask.sum())
        for a, b in pairs:
            pairs[(a, b)] += int((flags[a] & flags[b]).sum())
    if total == 0:
        raise AnalysisError("no jobs to analyse")
    return total, singles, pairs


def single_bottlenecks(jobs: Table, threshold: float = SATURATION_THRESHOLD) -> dict[str, float]:
    """Fraction of jobs saturating each resource (Fig 7b / 8a)."""
    return analyse(jobs, threshold).single


def pairwise_bottlenecks(
    jobs: Table, threshold: float = SATURATION_THRESHOLD
) -> dict[tuple[str, str], float]:
    """Fraction of jobs saturating both resources of each pair (Fig 8b)."""
    return analyse(jobs, threshold).pairs


def analyse(jobs: Table, threshold: float = SATURATION_THRESHOLD) -> BottleneckAnalysis:
    """Full bottleneck analysis of a job summary table (one pass)."""
    total, singles, pairs = _flag_counts(jobs, threshold)
    return BottleneckAnalysis(
        num_jobs=total,
        single={name: count / total for name, count in singles.items()},
        pairs={key: count / total for key, count in pairs.items()},
    )
