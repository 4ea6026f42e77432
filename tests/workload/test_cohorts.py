"""Cohort-sharded workload generation must match the serial oracle.

The contract pinned here is the foundation of the partitioned build:
cohort shards drawn on their own (independent spawn-keyed RNG streams,
in any order, as island hosts draw them) and numbered by
``assign_job_ids`` are **bit-for-bit identical jobs** to the serial
``generate_sharded`` draw, and ``cohorts=1`` preserves the legacy
single-stream output.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.cohorts import (
    CPU_STREAM,
    FIRST_COHORT_STREAM,
    assign_job_ids,
    build_population,
    cohort_members,
    cohort_stream,
    draw_cohort,
    draw_cpu,
    generate_sharded,
    generation_tasks,
    run_generation_task,
)
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


def small_config(**overrides):
    defaults = dict(scale=0.01, seed=11)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


def job_fingerprint(request):
    """Everything that identifies a drawn job (activity model included)."""
    activity = request.tags.get("activity")
    return (
        request.job_id,
        request.user,
        round(request.submit_time_s, 9),
        round(request.runtime_s, 9),
        request.num_gpus,
        request.cores,
        request.memory_gb,
        request.tags.get("cohort"),
        None if activity is None else round(float(np.sum(activity.gpu_scale)), 9),
    )


class TestConfig:
    def test_defaults_stay_serial(self):
        config = small_config()
        assert config.partitions == 1
        assert config.resolved_cohorts == 1

    def test_cohorts_default_to_partitions(self):
        assert small_config(partitions=4).resolved_cohorts == 4
        assert small_config(partitions=2, cohorts=6).resolved_cohorts == 6

    def test_fewer_cohorts_than_partitions_rejected(self):
        with pytest.raises(WorkloadError, match="every island"):
            small_config(partitions=4, cohorts=2)

    def test_invalid_counts_rejected(self):
        with pytest.raises(WorkloadError):
            small_config(partitions=0)
        with pytest.raises(WorkloadError):
            small_config(cohorts=0)


class TestStreams:
    def test_streams_are_independent_of_each_other(self):
        # drawing from one stream must not perturb another
        a_alone = cohort_stream(7, FIRST_COHORT_STREAM).random(4)
        cohort_stream(7, CPU_STREAM).random(1000)
        a_again = cohort_stream(7, FIRST_COHORT_STREAM).random(4)
        assert np.array_equal(a_alone, a_again)

    def test_population_rebuild_is_deterministic(self):
        config = small_config(cohorts=3)
        pop_a, counts_a = build_population(config)
        pop_b, counts_b = build_population(config)
        assert np.array_equal(counts_a, counts_b)
        assert len(pop_a) == len(pop_b) == config.scaled_users

    def test_cohort_members_partition_users(self):
        config = small_config(cohorts=3)
        seen = sorted(
            index for c in range(3) for index in cohort_members(config, c)
        )
        assert seen == list(range(config.scaled_users))
        with pytest.raises(WorkloadError):
            cohort_members(config, 3)

    def test_tasks_cover_cohorts_and_cpu(self):
        tasks = generation_tasks(small_config(cohorts=3))
        assert [t.kind for t in tasks] == ["cohort", "cohort", "cohort", "cpu"]
        no_cpu = generation_tasks(small_config(cohorts=2, include_cpu_jobs=False))
        assert [t.kind for t in no_cpu] == ["cohort", "cohort"]

    def test_unknown_task_kind_rejected(self):
        from repro.workload.cohorts import GenerationTask

        with pytest.raises(WorkloadError, match="unknown"):
            run_generation_task(small_config(cohorts=2), GenerationTask("bogus"))


class TestShardedEqualsSerial:
    def test_cohorts_one_matches_legacy_bit_for_bit(self):
        config = small_config()
        legacy = WorkloadGenerator(config).generate()
        sharded = generate_sharded(config)
        assert list(map(job_fingerprint, legacy)) == list(
            map(job_fingerprint, sharded)
        )
        island = draw_cohort(config, 0)
        assert draw_cpu(config) == []
        assert list(map(job_fingerprint, legacy)) == list(
            map(job_fingerprint, island)
        )

    @settings(max_examples=4, deadline=None)
    @given(
        cohorts=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_island_draws_number_to_the_serial_draw(self, cohorts, seed):
        """Cohorts drawn one by one, last first (as hosts that own
        them draw them), plus the parent's CPU shard, numbered by
        ``assign_job_ids`` in task order, are the serial draw."""
        config = small_config(seed=seed, cohorts=cohorts)
        shards = {c: draw_cohort(config, c) for c in reversed(range(cohorts))}
        shards[cohorts] = draw_cpu(config)
        ids = assign_job_ids(
            [[r.submit_time_s for r in shards[i]] for i in range(cohorts + 1)]
        )
        for i, shard_ids in enumerate(ids):
            for request, job_id in zip(shards[i], shard_ids.tolist()):
                request.job_id = job_id
        drawn = sorted(
            (r for shard in shards.values() for r in shard), key=lambda r: r.job_id
        )
        serial = generate_sharded(config)
        assert [r.job_id for r in drawn] == list(range(len(serial)))
        assert list(map(job_fingerprint, serial)) == list(map(job_fingerprint, drawn))

    def test_job_ids_follow_a_stable_sort_in_task_order(self):
        ids = assign_job_ids([[5.0, 1.0], [], [1.0, 0.5, 5.0]])
        assert [a.tolist() for a in ids] == [[3, 1], [], [2, 0, 4]]
        assert all(a.dtype == np.int64 for a in ids)

    def test_every_job_tagged_with_valid_cohort(self):
        config = small_config(cohorts=3)
        for request in generate_sharded(config):
            assert 0 <= int(request.tags["cohort"]) < 3

    def test_output_shape_contract(self):
        requests = generate_sharded(small_config(cohorts=4))
        assert [r.job_id for r in requests] == list(range(len(requests)))
        times = [r.submit_time_s for r in requests]
        assert times == sorted(times)

    def test_cohort_count_preserves_totals(self):
        # sharding repartitions the same per-user allocation, so the
        # GPU-job count is invariant in the cohort count
        base = generate_sharded(small_config(cohorts=2))
        more = generate_sharded(small_config(cohorts=5))
        gpu = lambda reqs: sum(1 for r in reqs if r.num_gpus > 0)
        assert gpu(base) == gpu(more)
