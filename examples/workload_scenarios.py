"""Compare operator metrics across alternative workload futures.

The paper predicts that AI workloads will keep shifting toward
exploration and interactivity.  This example re-runs the headline
analyses under four scenarios (the calibrated paper workload, a
training farm, an exploration surge, and a notebook-heavy campus) and
prints a side-by-side operator view.

Run with ``python examples/workload_scenarios.py``.
"""

from repro.analysis.lifecycle import lifecycle_breakdown
from repro.analysis.timeline import gpu_occupancy_from_jobs
from repro.dataset import generate_dataset
from repro.opportunities.checkpoint import checkpoint_study
from repro.opportunities.tiering import tiering_study
from repro.workload.scenarios import SCENARIOS, make_scenario


def main() -> None:
    print(f"{'scenario':>20} {'mature%':>8} {'non-mature GPU-h':>17} "
          f"{'mean util':>10} {'tier saving':>12} {'ckpt saves':>11}")
    for name in SCENARIOS:
        dataset = generate_dataset(make_scenario(name, scale=0.04, seed=11))
        gpu = dataset.gpu_jobs

        breakdown = {r["lifecycle_class"]: r for r in lifecycle_breakdown(gpu).iter_rows()}
        mature_jobs = breakdown["mature"]["job_fraction"]
        nonmature_hours = 1.0 - breakdown["mature"]["gpu_hour_fraction"]
        timeline = gpu_occupancy_from_jobs(dataset.jobs, capacity=dataset.spec.total_gpus)
        tier = tiering_study(gpu)
        ckpt = checkpoint_study(gpu)
        print(
            f"{name:>20} {mature_jobs:>7.0%} {nonmature_hours:>16.0%} "
            f"{timeline.mean_utilization:>9.0%} {tier.cost_saving_fraction:>11.0%} "
            f"{ckpt.net_saving_gpu_hours:>10.0f}h"
        )
    print()
    print(
        "The exploration surge and interactive campus push non-mature GPU hours\n"
        "past the paper's 61% — exactly the futures its recommendations (tiering,\n"
        "checkpointing, co-location) are designed for."
    )


if __name__ == "__main__":
    main()
