"""Island hosts vs a hand-stepped lockstep oracle.

:class:`~repro.slurm.interchange.PartitionedRunner` runs its islands in
one in-process host or in ``min(workers, K)`` forked hosts
(:mod:`repro.slurm.parallel`), all driven by one epoch loop.  These
tests pin that every host layout reproduces plain simulators stepped
through the epoch protocol by hand — event for event (fingerprints over
every job record), for migration coupling, fair-share coupling and
uncoupled islands — plus the in-process fallback, the per-island
setup/finish hooks the dataset build relies on, and the failure path
of a host that dies mid-run.

Workloads are rebuilt fresh for every run: migration mutates request
``tags`` in place, so sharing one request list across runs would leak
state between the candidates.
"""

import multiprocessing
import os
import re

import pytest

from repro.cluster.partition import PartitionLayout
from repro.cluster.spec import supercloud_spec
from repro.errors import SchedulerError
from repro.pipeline.parallel import ParallelTaskError
from repro.slurm.interchange import (
    InterchangeConfig,
    PartitionedResult,
    PartitionedRunner,
    _remap_nodes,
    migration_candidates,
    plan_migrations,
    route_requests,
)
from repro.slurm.policies import FairSharePolicy
from repro.slurm.scheduler import SchedulerConfig, SlurmSimulator
from tests.slurm.test_interchange import fingerprints, workload
from tests.slurm.test_job import make_request

MIGRATION = InterchangeConfig(epoch_s=1800.0, migrate_after_s=600.0)
FAIR_SHARE = SchedulerConfig(policy="fair_share")
SYNC = InterchangeConfig(epoch_s=3600.0, fair_share_sync=True)


def hot_island_requests():
    """Cohort 0 floods island 0; the rest sit idle (fresh every call)."""
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


def lockstep_oracle(requests, num_partitions, total_nodes, *, config=None,
                    interchange=None):
    """Plain simulators stepped through the epoch protocol by hand.

    Returns the result and the global fair-share ledger it built.
    """
    interchange = interchange if interchange is not None else InterchangeConfig()
    layout = PartitionLayout.even(total_nodes, num_partitions)
    spec = supercloud_spec(total_nodes)
    simulators = [SlurmSimulator(part.spec(spec), config) for part in layout]
    for simulator, bucket in zip(simulators, route_requests(requests, num_partitions)):
        simulator.begin(bucket)
    ledger: dict[str, float] = {}
    migrations = 0
    boundary = interchange.epoch_s if interchange.coupled else None
    while True:
        for simulator in simulators:
            simulator.advance(until=boundary)
        if boundary is None:
            break
        if interchange.fair_share_sync:
            for simulator in simulators:
                for user, hours in simulator._policy.drain_usage().items():
                    ledger[user] = ledger.get(user, 0.0) + hours
            for simulator in simulators:
                simulator._policy.set_usage(ledger)
        if interchange.migrate_after_s is not None:
            threshold = interchange.migrate_after_s
            moves = plan_migrations(
                [migration_candidates(s.queue.scan(), boundary, threshold) for s in simulators],
                [len(s.queue) for s in simulators],
                [s.cluster.spec for s in simulators],
            )
            for source, request, target in moves:
                simulators[source].queue.remove(request.job_id)
                request.tags["migrated"] = True
                request.tags["migrated_to"] = target
                simulators[target].loop.schedule(boundary, "submit", request)
            migrations += len(moves)
        if not any(bool(s.loop) for s in simulators):
            break
        boundary += interchange.epoch_s
    results = [simulator.finalize() for simulator in simulators]
    for part, result in zip(layout, results):
        _remap_nodes(result.records, part.node_start)
    return PartitionedResult(layout, results, interchange, migrations), ledger


def run(requests, num_partitions, total_nodes, *, workers, config=None,
        interchange=None, **kwargs):
    runner = PartitionedRunner(
        PartitionLayout.even(total_nodes, num_partitions),
        config=config,
        interchange=interchange,
        workers=workers,
        **kwargs,
    )
    return runner.run(requests)


#: coupling -> (fresh workload, islands, nodes, runner kwargs); four
#: islands so hosts 1, 2 and K = 4 are three distinct layouts.
COUPLINGS = {
    "migration": (hot_island_requests, 4, 8, dict(interchange=MIGRATION)),
    "fair_share": (
        lambda: workload(cohorts=4), 4, 64, dict(config=FAIR_SHARE, interchange=SYNC)
    ),
    "uncoupled": (lambda: workload(cohorts=4), 4, 64, {}),
}


class TestOracle:
    @pytest.mark.parametrize(
        "coupling,hosts", [(c, h) for c in COUPLINGS for h in (1, 2, 4)]
    )
    def test_hosts_match(self, coupling, hosts):
        make, islands, nodes, kwargs = COUPLINGS[coupling]
        oracle, ledger = lockstep_oracle(make(), islands, nodes, **kwargs)
        runner = PartitionedRunner(
            PartitionLayout.even(nodes, islands), workers=hosts, **kwargs
        )
        result = runner.run(make())
        assert result.mode == ("serial" if hosts == 1 else "parallel")
        assert fingerprints(result.merged_records()) == fingerprints(
            oracle.merged_records()
        )
        assert result.migrations == oracle.migrations
        if coupling == "migration":
            assert oracle.migrations > 0
        merged, expected = result.merged(), oracle.merged()
        assert merged.events_processed == expected.events_processed
        assert merged.makespan_s == expected.makespan_s
        assert merged.peak_queue_length == expected.peak_queue_length
        assert runner._global_usage == ledger


class TestMigrationCoupling:
    def test_parallel_matches_serial_event_for_event(self):
        serial = run(hot_island_requests(), 2, 4, workers=1, interchange=MIGRATION)
        parallel = run(hot_island_requests(), 2, 4, workers=2, interchange=MIGRATION)
        assert serial.mode == "serial"
        assert parallel.mode == "parallel"
        assert serial.migrations > 0
        assert parallel.migrations == serial.migrations
        assert fingerprints(parallel.merged_records()) == fingerprints(
            serial.merged_records()
        )

    def test_merged_result_counters_match(self):
        serial = run(hot_island_requests(), 2, 4, workers=1, interchange=MIGRATION)
        parallel = run(hot_island_requests(), 2, 4, workers=2, interchange=MIGRATION)
        assert parallel.merged().events_processed == serial.merged().events_processed
        assert parallel.merged().makespan_s == serial.merged().makespan_s

    def test_migrated_tags_cross_the_process_boundary(self):
        parallel = run(hot_island_requests(), 2, 4, workers=2, interchange=MIGRATION)
        migrated = [
            r for r in parallel.merged_records() if r.request.tags.get("migrated")
        ]
        assert len(migrated) == parallel.migrations > 0
        for record in migrated:
            target = parallel.layout[record.request.tags["migrated_to"]]
            for node in record.nodes:
                assert target.node_start <= node < target.node_stop


class TestFairShareCoupling:
    def test_parent_ledger_matches_serial_global_usage(self):
        _, ledger = lockstep_oracle(
            workload(cohorts=2), 2, 16, config=FAIR_SHARE, interchange=SYNC
        )
        runner = PartitionedRunner(
            PartitionLayout.even(16, 2), config=FAIR_SHARE, interchange=SYNC, workers=2
        )
        runner.run(workload(cohorts=2))
        assert ledger
        assert runner._global_usage == ledger


class TestUncoupledAndFallback:
    def test_workers_1_falls_back_to_serial_lockstep(self):
        fallback = run(hot_island_requests(), 2, 4, workers=1, interchange=MIGRATION)
        assert fallback.mode == "serial"
        # The one host is the parent: its peak RSS is the island peak.
        assert fallback.island_peak_rss_bytes > 0
        assert fallback.migrations > 0
        assert len(fallback.merged_records()) == 24

    def test_single_island_falls_back_to_serial(self):
        result = run(workload(cohorts=1), 1, 8, workers=4)
        assert result.mode == "serial"
        assert len(result.merged_records()) == len(workload(cohorts=1))

    def test_workers_bound_the_host_processes(self):
        result = run(
            workload(cohorts=4), 4, 64, workers=2, island_finish=_host_pid
        )
        assert result.mode == "parallel"
        pids = result.extras
        assert len(set(pids)) == 2 and os.getpid() not in pids
        # host h owns the islands i with i % hosts == h
        assert pids[0] == pids[2] and pids[1] == pids[3]


class TestValidation:
    def test_failure_model_rejected(self):
        with pytest.raises(SchedulerError, match="failure"):
            PartitionedRunner(
                PartitionLayout.even(16, 2),
                config=SchedulerConfig(failure_model="weibull"),
            )

    def test_policy_objects_rejected(self):
        with pytest.raises(SchedulerError, match="registry name"):
            PartitionedRunner(
                PartitionLayout.even(16, 2),
                config=SchedulerConfig(policy=FairSharePolicy()),
            )

    def test_fair_share_sync_requires_fair_share_policy(self):
        with pytest.raises(SchedulerError, match="fair_share"):
            PartitionedRunner(
                PartitionLayout.even(16, 2),
                interchange=InterchangeConfig(fair_share_sync=True),
            )


# Module-level hooks, shared by in-process and forked hosts.
def _setup_hook(simulator, partition, context):
    return {"island": partition.index, "salt": context.get("salt")}


def _finish_hook(simulator, state, result):
    return {
        "island": state["island"],
        "salt": state["salt"],
        "records": len(result.records),
    }


def _host_pid(simulator, state, result):
    return os.getpid()


def _die_on_island_1(simulator, partition, context):
    """Make island 1's host exit hard at its first job completion."""
    if partition.index == 1:
        simulator.add_epilog(lambda record: os._exit(1))


class TestIslandHooks:
    @pytest.mark.parametrize("workers,mode", [(2, "parallel"), (1, "serial")])
    def test_hooks_run_on_both_paths(self, workers, mode):
        result = run(
            hot_island_requests(), 2, 4,
            workers=workers,
            interchange=MIGRATION,
            island_setup=_setup_hook,
            island_finish=_finish_hook,
            island_context={"salt": 42},
        )
        assert result.mode == mode
        assert [extra["island"] for extra in result.extras] == [0, 1]
        assert all(extra["salt"] == 42 for extra in result.extras)
        assert sum(extra["records"] for extra in result.extras) == 24

    @pytest.mark.parametrize("workers", [2, 1])
    def test_return_records_false_keeps_records_out_of_parent(self, workers):
        result = run(
            hot_island_requests(), 2, 4,
            workers=workers,
            interchange=MIGRATION,
            island_finish=_finish_hook,
            island_setup=_setup_hook,
            return_records=False,
        )
        assert result.merged_records() == []
        # ... but the islands saw every record before the drop.
        assert sum(extra["records"] for extra in result.extras) == 24


class TestDeadHost:
    def test_dead_host_fails_fast_naming_island_and_epoch(self):
        with pytest.raises(ParallelTaskError) as raised:
            run(
                hot_island_requests(), 2, 4,
                workers=2,
                interchange=MIGRATION,
                island_setup=_die_on_island_1,
            )
        message = str(raised.value)
        assert "parallel_map" not in message
        match = re.search(r"island 1 at epoch (\d+)", message)
        assert match, message
        # Island 1 only runs jobs migrated to it, so it dies epochs in.
        assert int(match.group(1)) > 1
        assert raised.value.index == 1
        assert multiprocessing.active_children() == []
