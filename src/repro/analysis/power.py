"""Power-consumption analysis and power-cap what-ifs (Fig 9).

Fig 9(b) asks: if every GPU were capped at ``L`` watts (to fund
over-provisioning at iso-power), which jobs would notice?

* **unimpacted** — the job's maximum draw never reaches the cap;
* **impacted (max)** — the max draw reaches the cap at some point
  (performance *might* suffer during peaks);
* **impacted (avg)** — even the average draw is at/above the cap
  (performance definitely suffers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.frame import QuantileSketch, StreamingMoments, Table

#: Cap levels studied by the paper (W).
DEFAULT_CAPS_W = (150.0, 200.0, 250.0)


@dataclass(frozen=True)
class PowerCapImpact:
    """Impact of one cap level on the job population."""

    cap_w: float
    unimpacted_fraction: float
    max_impacted_fraction: float
    avg_impacted_fraction: float

    def __post_init__(self) -> None:
        total = self.unimpacted_fraction + self.max_impacted_fraction
        if not 0.99 <= total <= 1.01:
            raise AnalysisError("unimpacted + max-impacted must cover all jobs")


def power_cap_impact(jobs: Table, caps_w=DEFAULT_CAPS_W) -> list[PowerCapImpact]:
    """Evaluate each cap level against the jobs' avg/max power draw.

    One chunk fold of integer counts per cap level, so every fraction
    is exact on any chunking.
    """
    for cap in caps_w:
        if cap <= 0:
            raise AnalysisError(f"cap must be positive, got {cap}")
    total = 0
    below = [0] * len(caps_w)
    avg_above = [0] * len(caps_w)
    for chunk in jobs.chunks():
        avg = np.asarray(chunk["power_w_mean"], dtype=float)
        peak = np.asarray(chunk["power_w_max"], dtype=float)
        total += peak.size
        for i, cap in enumerate(caps_w):
            below[i] += int((peak < cap).sum())
            avg_above[i] += int((avg >= cap).sum())
    if total == 0:
        raise AnalysisError("no jobs to analyse")
    return [
        PowerCapImpact(
            cap_w=float(cap),
            unimpacted_fraction=below[i] / total,
            max_impacted_fraction=(total - below[i]) / total,
            avg_impacted_fraction=avg_above[i] / total,
        )
        for i, cap in enumerate(caps_w)
    ]


@dataclass(frozen=True)
class PowerHeadroom:
    """How much provisioned GPU power goes unused (Sec. III takeaway)."""

    board_power_w: float
    median_avg_power_w: float
    median_max_power_w: float
    mean_avg_power_w: float
    #: GPUs supportable at iso-power if capped at half board power.
    overprovision_factor_at_half_cap: float


def power_headroom(jobs: Table, board_power_w: float = 300.0) -> PowerHeadroom:
    """Summarise the population's power headroom.

    One chunk fold: the two medians come from quantile sketches (exact
    on a one-chunk input) and the mean from
    :class:`~repro.frame.StreamingMoments`.
    """
    avg_sketch, peak_sketch = QuantileSketch(), QuantileSketch()
    avg_moments = StreamingMoments()
    for chunk in jobs.chunks():
        avg = np.asarray(chunk["power_w_mean"], dtype=float)
        avg_sketch.update(avg)
        avg_moments.update(avg)
        peak_sketch.update(np.asarray(chunk["power_w_max"], dtype=float))
    if avg_moments.count == 0:
        raise AnalysisError("no jobs to analyse")
    return PowerHeadroom(
        board_power_w=board_power_w,
        median_avg_power_w=avg_sketch.median(),
        median_max_power_w=peak_sketch.median(),
        mean_avg_power_w=avg_moments.mean(),
        overprovision_factor_at_half_cap=board_power_w / (board_power_w / 2.0),
    )
