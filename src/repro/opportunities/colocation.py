"""GPU co-location study (paper Sec. III takeaways).

The paper observes that most jobs underutilize the GPU and alternate
between active and idle phases at irregular intervals, and concludes
that "non-contending GPU resources [can be shared] among concurrent
jobs ... without having a large impact on job performance".  This
module quantifies that claim on ground-truth activity models:

* two jobs placed on one GPU contend only when both are active at the
  same instant *and* their combined demand exceeds the device;
* per-job slowdown is the time-average excess demand during the job's
  own active instants (work-conservation model);
* a greedy packer pairs jobs whose **mean** combined demand stays
  under a headroom threshold, and reports GPUs saved vs. slowdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError


@dataclass(frozen=True)
class PairEvaluation:
    """Outcome of co-locating two jobs on one GPU."""

    slowdown_a: float
    slowdown_b: float
    combined_mean_demand: float
    contention_fraction: float

    @property
    def worst_slowdown(self) -> float:
        return max(self.slowdown_a, self.slowdown_b)


@dataclass(frozen=True)
class ColocationReport:
    """Fleet-level outcome of a packing policy."""

    num_jobs: int
    num_pairs: int
    gpus_before: int
    gpus_after: int
    mean_slowdown: float
    p95_slowdown: float

    @property
    def gpu_savings_fraction(self) -> float:
        if self.gpus_before == 0:
            return 0.0
        return 1.0 - self.gpus_after / self.gpus_before


class ColocationSimulator:
    """Evaluates co-location of single-GPU jobs on shared devices."""

    def __init__(
        self,
        resolution_s: float = 5.0,
        max_samples: int = 4000,
        demand_metric: str = "sm",
    ) -> None:
        if not 0 < resolution_s < math.inf:
            raise AnalysisError(
                f"resolution must be positive and finite, got {resolution_s}"
            )
        self.resolution_s = resolution_s
        self.max_samples = max_samples
        self.demand_metric = demand_metric

    def _demand(self, model, duration_s: float) -> np.ndarray:
        count = min(int(duration_s / self.resolution_s) + 2, self.max_samples)
        times = np.linspace(0.0, max(duration_s, 1e-9), count)
        metrics = model.metrics_at(times, 0)
        return metrics[self.demand_metric]

    def evaluate_pair(self, model_a, model_b, duration_s: float) -> PairEvaluation:
        """Co-locate two jobs for ``duration_s`` and measure slowdowns.

        Demands are overlaid on a common grid; when the summed demand
        exceeds 100 % the device is oversubscribed and both active
        jobs slow proportionally (work conservation).
        """
        demand_a = self._demand(model_a, duration_s)
        demand_b = self._demand(model_b, duration_s)
        n = min(len(demand_a), len(demand_b))
        demand_a, demand_b = demand_a[:n], demand_b[:n]
        combined = demand_a + demand_b
        excess = np.maximum(combined / 100.0, 1.0)

        def slowdown(own: np.ndarray) -> float:
            active = own > 0.5
            if not active.any():
                return 1.0
            return float(excess[active].mean())

        return PairEvaluation(
            slowdown_a=slowdown(demand_a),
            slowdown_b=slowdown(demand_b),
            combined_mean_demand=float(combined.mean()),
            contention_fraction=float((combined > 100.0).mean()),
        )

    # ------------------------------------------------------------------
    def pack(
        self,
        jobs: list[tuple[object, float]],
        headroom: float = 60.0,
    ) -> ColocationReport:
        """Greedy first-fit pairing by mean demand.

        ``jobs`` is a list of ``(activity_model, duration_s)``.  Jobs
        are sorted by mean demand; the packer pairs the lowest-demand
        job with the highest-demand job that keeps the *combined* mean
        demand below ``headroom`` (%).  Unpaired jobs keep a dedicated
        GPU.
        """
        if not jobs:
            raise AnalysisError("no jobs to pack")
        demands = []
        for model, duration in jobs:
            demand = self._demand(model, duration)
            demands.append(float(demand.mean()))
        order = np.argsort(demands)

        paired: dict[int, int] = {}
        used = set()
        lo, hi = 0, len(order) - 1
        while lo < hi:
            a, b = int(order[lo]), int(order[hi])
            if demands[a] + demands[b] <= headroom:
                paired[a] = b
                used.update((a, b))
                lo += 1
                hi -= 1
            else:
                hi -= 1  # the high job is too hot to pair with anyone

        slowdowns = []
        for a, b in paired.items():
            result = self.evaluate_pair(jobs[a][0], jobs[b][0], min(jobs[a][1], jobs[b][1]))
            slowdowns.extend((result.slowdown_a, result.slowdown_b))
        for i in range(len(jobs)):
            if i not in used:
                slowdowns.append(1.0)

        slowdown_arr = np.asarray(slowdowns)
        return ColocationReport(
            num_jobs=len(jobs),
            num_pairs=len(paired),
            gpus_before=len(jobs),
            gpus_after=len(jobs) - len(paired),
            mean_slowdown=float(slowdown_arr.mean()),
            p95_slowdown=float(np.percentile(slowdown_arr, 95)),
        )


def colocation_study(dataset, max_jobs: int = 400, headroom: float = 60.0) -> ColocationReport:
    """Run the packing study on a dataset's single-GPU jobs."""
    jobs = []
    for record in dataset.records:
        if record.request.num_gpus != 1:
            continue
        model = record.request.tags.get("activity")
        if model is None:
            continue
        jobs.append((model, record.run_time_s))
        if len(jobs) >= max_jobs:
            break
    if not jobs:
        raise AnalysisError("dataset has no single-GPU jobs with activity models")
    return ColocationSimulator().pack(jobs, headroom=headroom)
