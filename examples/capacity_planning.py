"""Capacity planning: how small could the fleet be?

The paper attributes Supercloud's second-scale GPU waits to deliberate
over-provisioning (Sec. III takeaway).  This example reconstructs the
load timeline, then replays the same workload on progressively smaller
clusters to find where the seconds-scale queue breaks down — and
finally checks how much GPU sharing moves that breaking point.

Run with ``python examples/capacity_planning.py``.
"""

from repro import WorkloadConfig, generate_dataset
from repro.analysis.timeline import (
    capacity_sweep,
    daily_gpu_hours_from_jobs,
    gpu_occupancy_from_jobs,
    surge_visibility,
)
from repro.opportunities.sharing_sim import GpuSharingSimulator, jobs_from_dataset
from repro.workload.generator import WorkloadGenerator


def main() -> None:
    config = WorkloadConfig(scale=0.04, seed=37)
    dataset = generate_dataset(config)
    print(dataset.describe())
    print()

    timeline = gpu_occupancy_from_jobs(dataset.jobs, capacity=dataset.spec.total_gpus)
    print(
        f"GPU occupancy: mean {timeline.mean:.1f} / peak {timeline.peak:.0f} "
        f"of {dataset.spec.total_gpus} GPUs "
        f"({timeline.mean_utilization:.0%} mean utilization)"
    )

    surges = surge_visibility(
        daily_gpu_hours_from_jobs(dataset.jobs), config.knobs.deadline_windows
    )
    for row in surges.iter_rows():
        print(
            f"conference-deadline window day {row['window_start_day']:.0f}-"
            f"{row['window_end_day']:.0f}: load x{row['observed_ratio']:.2f} vs baseline"
        )
    print()

    print("replaying the workload at smaller cluster sizes:")
    requests = WorkloadGenerator(config).generate()
    nodes = dataset.spec.num_nodes
    # the largest multi-GPU job bounds how small the cluster can get
    min_nodes = -(-max(r.num_gpus for r in requests) // dataset.spec.node.gpus_per_node)
    candidates = sorted(
        {max(nodes // shrink, min_nodes) for shrink in (1, 2, 3, 4)}, reverse=True
    )
    sweep = capacity_sweep(requests, node_counts=candidates)
    print(sweep.to_string())
    print()

    print("how much does GPU sharing move the breaking point?")
    jobs = jobs_from_dataset(dataset, max_jobs=1500)
    sizes = GpuSharingSimulator().right_size(
        jobs, target_median_wait_s=5.0, max_gpus=dataset.spec.total_gpus
    )
    saving = 1.0 - sizes["shared"] / sizes["exclusive"]
    print(
        f"GPUs needed for a 5 s median wait: {sizes['exclusive']} exclusive "
        f"vs {sizes['shared']} shared ({saving:.0%} fewer)"
    )


if __name__ == "__main__":
    main()
