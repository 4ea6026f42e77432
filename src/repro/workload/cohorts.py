"""Per-user-cohort workload sharding with spawn-keyed RNG streams.

The legacy :meth:`WorkloadGenerator.generate` draws every job from one
seed-rooted stream, which forces serial generation.  This module splits
the draw into independent streams derived from the same seed via
``numpy``'s :class:`~numpy.random.SeedSequence` spawn keys, so any
process can reconstruct any shard's stream without coordination:

========================  =====================================================
spawn key                 stream
========================  =====================================================
``(0,)``                  user population + per-user job allocation
``(1,)``                  the CPU-job shard (campaign bursts + singles)
``(2 + c,)``              GPU jobs of cohort ``c`` (users with
                          ``user_index % cohorts == c``)
========================  =====================================================

Because each shard's draws depend only on its own stream, a shard
drawn in any process is **bit-for-bit** the shard
:func:`generate_sharded` draws serially.  A dataset build uses that:
each island host draws the cohorts routed to its islands
(:func:`draw_cohort`, cohort ``c`` to island ``c % partitions``) while
the parent draws the CPU shard (:func:`draw_cpu`), and the parent
numbers the jobs with :func:`assign_job_ids` — shards concatenated in
task order, stably sorted by submit time, ids assigned in that final
order — the one numbering :func:`generate_sharded` uses.  The contract
is pinned by ``tests/workload/test_cohorts.py`` and
``tests/workload/test_trace_digests.py``.

``cohorts == 1`` is intentionally *not* routed through this module's
streams: it keeps the legacy single-stream draw so existing datasets,
caches, and tests stay bit-identical (see ``docs/scaling.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.slurm.job import JobRequest
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.users import UserPopulation

#: Spawn-key indices reserved by the stream table above.
POPULATION_STREAM = 0
CPU_STREAM = 1
FIRST_COHORT_STREAM = 2


def cohort_stream(seed: int, index: int) -> np.random.Generator:
    """The ``index``-th spawn-keyed stream rooted at ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def build_population(config: WorkloadConfig) -> tuple[UserPopulation, np.ndarray]:
    """The shared population + job allocation from stream ``(0,)``.

    Every shard worker rebuilds this identically (it is cheap relative
    to job generation), so no pickled population needs to travel.
    """
    rng = cohort_stream(config.seed, POPULATION_STREAM)
    population = UserPopulation(config.scaled_users, config.knobs, rng)
    counts = population.job_allocation(config.scaled_gpu_jobs, rng)
    return population, counts


def cohort_members(config: WorkloadConfig, cohort: int) -> list[int]:
    """User indices belonging to ``cohort`` (strided assignment)."""
    cohorts = config.resolved_cohorts
    if not 0 <= cohort < cohorts:
        raise WorkloadError(f"cohort {cohort} out of range [0, {cohorts})")
    return list(range(cohort, config.scaled_users, cohorts))


@dataclass(frozen=True)
class GenerationTask:
    """One independent shard of the workload draw (picklable)."""

    kind: str  # "cohort" | "cpu"
    cohort: int = -1


def generation_tasks(config: WorkloadConfig) -> list[GenerationTask]:
    """The full task list: one per cohort, plus the CPU shard."""
    tasks = [GenerationTask("cohort", c) for c in range(config.resolved_cohorts)]
    if config.include_cpu_jobs:
        tasks.append(GenerationTask("cpu"))
    return tasks


def run_generation_task(config: WorkloadConfig, task: GenerationTask) -> list[JobRequest]:
    """Draw one shard's jobs from its own stream (ids still unassigned)."""
    population, counts = build_population(config)
    if task.kind == "cpu":
        generator = WorkloadGenerator(
            config, rng=cohort_stream(config.seed, CPU_STREAM), population=population
        )
        return generator._generate_cpu_jobs()
    if task.kind != "cohort":
        raise WorkloadError(f"unknown generation task kind {task.kind!r}")
    generator = WorkloadGenerator(
        config,
        rng=cohort_stream(config.seed, FIRST_COHORT_STREAM + task.cohort),
        population=population,
    )
    members = cohort_members(config, task.cohort)
    return generator.jobs_for_users(
        (index, population.profiles[index], int(counts[index])) for index in members
    )


def draw_cohort(config: WorkloadConfig, cohort: int) -> list[JobRequest]:
    """The GPU jobs of ``cohort``, as the island host that owns it draws them.

    With ``resolved_cohorts == 1`` the one cohort is the legacy
    single-stream workload, CPU jobs included and ids already assigned
    (:func:`draw_cpu` is then empty); otherwise it is the cohort's
    :func:`run_generation_task` draw, ids unassigned.
    """
    if config.resolved_cohorts <= 1:
        return WorkloadGenerator(config).generate()
    return run_generation_task(config, GenerationTask("cohort", cohort))


def draw_cpu(config: WorkloadConfig) -> list[JobRequest]:
    """The CPU shard from stream ``(1,)`` (ids unassigned), or nothing
    when there is none or the legacy stream draws the CPU jobs."""
    if config.resolved_cohorts <= 1 or not config.include_cpu_jobs:
        return []
    return run_generation_task(config, GenerationTask("cpu"))


def assign_job_ids(submit_times) -> list[np.ndarray]:
    """Global job ids for shards given in task order, as int64 arrays.

    ``submit_times[s]`` holds shard ``s``'s submit times in draw order.
    The shards are concatenated in task order and stably sorted by
    submit time; a job's id is its position in that order, so
    ``ids[s][k]`` numbers shard ``s``'s ``k``-th job.
    """
    times = [np.asarray(shard, dtype=float) for shard in submit_times]
    order = np.argsort(np.concatenate(times), kind="stable")
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.arange(len(order))
    return np.split(ids, np.cumsum([len(shard) for shard in times])[:-1])


def generate_sharded(config: WorkloadConfig) -> list[JobRequest]:
    """The full workload via cohort shards, drawn serially, in job-id order.

    With ``resolved_cohorts <= 1`` this delegates to the legacy
    single-stream generator so the pre-sharding output is preserved
    bit-for-bit.
    """
    if config.resolved_cohorts <= 1:
        return WorkloadGenerator(config).generate()
    shards = [run_generation_task(config, task) for task in generation_tasks(config)]
    ids = assign_job_ids([[request.submit_time_s for request in shard] for shard in shards])
    requests: list = [None] * sum(map(len, shards))
    for shard, shard_ids in zip(shards, ids):
        for request, job_id in zip(shard, shard_ids.tolist()):
            request.job_id = job_id
            requests[job_id] = request
    return requests
