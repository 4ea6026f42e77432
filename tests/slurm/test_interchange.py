"""Tests for cross-partition interchange (lockstep island coupling).

Pins the central contract: a single-partition run through
:class:`PartitionedRunner` is bit-for-bit the plain
:meth:`SlurmSimulator.run`, and for any partition count plain
simulators stepped in lockstep epochs (``advance(until=...)``) produce
exactly the records of the runner's one-round uncoupled run.
"""

import pytest

from repro.cluster.partition import PartitionLayout
from repro.cluster.spec import supercloud_spec
from repro.errors import SchedulerError
from repro.slurm.interchange import (
    InterchangeConfig,
    PartitionedRunner,
    route_requests,
    run_partitioned,
)
from repro.slurm.policies import FairSharePolicy
from repro.slurm.scheduler import SchedulerConfig, SlurmSimulator
from repro.workload.generator import WorkloadConfig
from repro.workload.cohorts import generate_sharded
from tests.slurm.test_job import make_request


def workload(cohorts=4, scale=0.01, seed=5):
    return generate_sharded(
        WorkloadConfig(scale=scale, seed=seed, cohorts=cohorts)
    )


def record_fingerprint(record):
    return (
        record.request.job_id,
        round(record.start_time_s, 9),
        round(record.end_time_s, 9),
        record.nodes,
        record.exit_condition,
    )


def fingerprints(records):
    return [record_fingerprint(r) for r in records]


def _check_invariants(simulator, state, result):
    simulator.cluster.check_invariants()
    return True


def _consumed_usage(simulator, state, result):
    return dict(simulator._policy._consumed)


class TestRouting:
    def test_routes_by_cohort_tag(self):
        requests = [
            make_request(job_id=i, tags={"cohort": i % 3}) for i in range(9)
        ]
        buckets = route_requests(requests, 3)
        assert [len(b) for b in buckets] == [3, 3, 3]
        for island, bucket in enumerate(buckets):
            assert all(r.tags["cohort"] % 3 == island for r in bucket)

    def test_untagged_requests_fall_back_to_job_id(self):
        requests = [make_request(job_id=i) for i in range(5)]
        buckets = route_requests(requests, 2)
        assert [r.job_id for r in buckets[0]] == [0, 2, 4]
        assert [r.job_id for r in buckets[1]] == [1, 3]


class TestConfigValidation:
    def test_epoch_must_be_positive(self):
        with pytest.raises(SchedulerError):
            InterchangeConfig(epoch_s=0.0)

    def test_migrate_threshold_must_be_nonnegative(self):
        with pytest.raises(SchedulerError):
            InterchangeConfig(migrate_after_s=-1.0)

    def test_coupled_property(self):
        assert not InterchangeConfig().coupled
        assert InterchangeConfig(migrate_after_s=60.0).coupled
        assert InterchangeConfig(fair_share_sync=True).coupled

    def test_failure_model_rejected_in_partitioned_runs(self):
        layout = PartitionLayout.even(16, 2)
        with pytest.raises(SchedulerError, match="failure"):
            PartitionedRunner(
                layout, config=SchedulerConfig(failure_model="weibull")
            )

    def test_policy_objects_rejected_in_partitioned_runs(self):
        layout = PartitionLayout.even(16, 2)
        with pytest.raises(SchedulerError, match="registry name"):
            PartitionedRunner(
                layout, config=SchedulerConfig(policy=FairSharePolicy())
            )

    def test_fair_share_sync_requires_fair_share_policy(self):
        layout = PartitionLayout.even(16, 2)
        with pytest.raises(SchedulerError, match="fair_share"):
            PartitionedRunner(
                layout,
                interchange=InterchangeConfig(fair_share_sync=True),
            )

    def test_run_partitioned_needs_a_size(self):
        with pytest.raises(SchedulerError, match="total_nodes"):
            run_partitioned([], 2)


class TestSinglePartitionOracle:
    def test_one_partition_is_plain_simulator_bit_for_bit(self):
        requests = workload(cohorts=1)
        plain = SlurmSimulator(supercloud_spec(8)).run(requests)
        part = run_partitioned(requests, 1, total_nodes=8)
        assert fingerprints(part.merged_records()) == fingerprints(
            sorted(plain.records, key=lambda r: r.request.job_id)
        )
        merged = part.merged()
        assert merged.events_processed == plain.events_processed
        assert merged.makespan_s == plain.makespan_s
        assert merged.peak_queue_length == plain.peak_queue_length


class TestLockstepOracle:
    @pytest.mark.parametrize("num_partitions", [1, 2, 4])
    def test_lockstep_equals_run_to_completion(self, num_partitions):
        """Epoch stepping with no state exchange must change nothing."""
        requests = workload(cohorts=max(num_partitions, 2))
        free = run_partitioned(requests, num_partitions, total_nodes=64)

        # Same islands as plain simulators, driven in small lockstep epochs.
        layout = PartitionLayout.even(64, num_partitions)
        spec = supercloud_spec(64)
        simulators = [SlurmSimulator(part.spec(spec)) for part in layout]
        buckets = route_requests(requests, num_partitions)
        for simulator, bucket in zip(simulators, buckets):
            simulator.begin(bucket)
        boundary = 3600.0
        while any(bool(s.loop) for s in simulators):
            for simulator in simulators:
                simulator.advance(until=boundary)
            boundary += 3600.0
        results = [s.finalize() for s in simulators]
        lockstep = [
            record
            for part, result in zip(layout, results)
            for record in result.records
        ]
        from repro.slurm.interchange import _remap_nodes

        for part, result in zip(layout, results):
            _remap_nodes(result.records, part.node_start)
        lockstep.sort(key=lambda r: r.request.job_id)
        assert fingerprints(free.merged_records()) == fingerprints(lockstep)

    def test_all_jobs_complete_and_nodes_stay_in_island(self):
        requests = workload(cohorts=4)
        result = run_partitioned(requests, 4, total_nodes=64)
        records = result.merged_records()
        assert len(records) == len(requests)
        layout = result.layout
        for record in records:
            if not record.nodes:
                continue
            island = layout.island_for_cohort(int(record.request.tags["cohort"]))
            for node in record.nodes:
                assert island.node_start <= node < island.node_stop

    def test_invariants_hold_after_partitioned_run(self):
        requests = workload(cohorts=2)
        layout = PartitionLayout.even(16, 2)
        runner = PartitionedRunner(layout, island_finish=_check_invariants)
        assert runner.run(requests).extras == [True, True]


class TestMigration:
    def make_hot_island_requests(self):
        """Cohort 0 floods island 0; island 1 sits idle."""
        return [
            make_request(
                job_id=i,
                user=f"u{i % 3}",
                submit_time_s=0.0,
                runtime_s=7200.0,
                num_gpus=2,
                tags={"cohort": 0},
            )
            for i in range(24)
        ]

    def test_spillover_moves_jobs_and_tags_them(self):
        requests = self.make_hot_island_requests()
        result = run_partitioned(
            requests,
            2,
            total_nodes=4,
            interchange=InterchangeConfig(epoch_s=1800.0, migrate_after_s=600.0),
        )
        assert result.migrations > 0
        migrated = [
            r for r in result.merged_records() if r.request.tags.get("migrated")
        ]
        assert len(migrated) == result.migrations
        layout = result.layout
        for record in migrated:
            target = layout[record.request.tags["migrated_to"]]
            assert target.index == 1
            for node in record.nodes:
                assert target.node_start <= node < target.node_stop
        assert len(result.merged_records()) == len(requests)

    def test_migration_is_deterministic(self):
        def run_once():
            return run_partitioned(
                self.make_hot_island_requests(),
                2,
                total_nodes=4,
                interchange=InterchangeConfig(
                    epoch_s=1800.0, migrate_after_s=600.0
                ),
            )

        first, second = run_once(), run_once()
        assert first.migrations == second.migrations
        assert fingerprints(first.merged_records()) == fingerprints(
            second.merged_records()
        )

    def test_no_migration_without_less_loaded_target(self):
        # both islands equally flooded: no strictly-less-loaded target
        requests = [
            make_request(
                job_id=i,
                submit_time_s=0.0,
                runtime_s=7200.0,
                num_gpus=2,
                tags={"cohort": i % 2},
            )
            for i in range(24)
        ]
        result = run_partitioned(
            requests,
            2,
            total_nodes=4,
            interchange=InterchangeConfig(epoch_s=1800.0, migrate_after_s=600.0),
        )
        assert result.migrations == 0


class TestFairShareSync:
    def test_global_ledger_reaches_every_island(self):
        requests = workload(cohorts=2)
        layout = PartitionLayout.even(16, 2)
        runner = PartitionedRunner(
            layout,
            config=SchedulerConfig(policy="fair_share"),
            interchange=InterchangeConfig(epoch_s=3600.0, fair_share_sync=True),
            island_finish=_consumed_usage,
        )
        result = runner.run(requests)
        assert len(result.merged_records()) == len(requests)
        assert runner._global_usage  # epochs actually drained usage
        # after the run every island holds the same global view
        for consumed in result.extras:
            for user, hours in runner._global_usage.items():
                assert consumed[user] == pytest.approx(hours)

    def test_drain_and_set_usage_roundtrip(self):
        policy = FairSharePolicy()
        policy.observe_completion(make_request(job_id=1, num_gpus=2), 2.0)
        drained = policy.drain_usage()
        assert drained == {"u": pytest.approx(2.0)}
        assert policy.drain_usage() == {}  # deltas cleared
        policy.set_usage({"u": 5.0, "v": 1.0})
        assert policy._consumed["u"] == 5.0
        assert policy._consumed["v"] == 1.0


class TestExchangeRounds:
    """An epoch that plans no move and syncs no ledger sends the hosts
    no exchange round: the advance replies say whether events remain."""

    @staticmethod
    def count_rounds(monkeypatch):
        from repro.slurm import interchange

        commands, plans = [], []
        handle, plan = interchange.IslandHost.handle, interchange.plan_migrations

        def counting(self, command, *args):
            commands.append(command)
            return handle(self, command, *args)

        def recording(*args):
            plans.append(plan(*args))
            return plans[-1]

        monkeypatch.setattr(interchange.IslandHost, "handle", counting)
        monkeypatch.setattr(interchange, "plan_migrations", recording)
        return commands, plans

    def test_only_epochs_that_move_jobs_exchange(self, monkeypatch):
        commands, plans = self.count_rounds(monkeypatch)
        result = run_partitioned(
            workload(cohorts=2),
            2,
            total_nodes=16,
            interchange=InterchangeConfig(epoch_s=3600.0, migrate_after_s=900.0),
        )
        epochs = commands.count("advance")
        moving = sum(1 for plan in plans if plan)
        assert result.migrations > 0
        assert len(plans) == epochs > 2 * moving > 0
        assert commands.count("exchange") == moving
        assert commands.count("finalize") == 1

    def test_a_synced_ledger_exchanges_every_epoch(self, monkeypatch):
        commands, plans = self.count_rounds(monkeypatch)
        runner = PartitionedRunner(
            PartitionLayout.even(16, 2),
            config=SchedulerConfig(policy="fair_share"),
            interchange=InterchangeConfig(epoch_s=3600.0, fair_share_sync=True),
        )
        runner.run(workload(cohorts=2))
        assert plans == []
        assert commands.count("exchange") == commands.count("advance") > 1
