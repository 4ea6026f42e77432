"""Tests for the end-to-end scheduler simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import supercloud_spec
from repro.errors import SchedulerError
from repro.slurm.accounting import accounting_table
from repro.slurm.job import ExitCondition
from repro.slurm.scheduler import SchedulerConfig, SlurmSimulator
from tests.slurm.test_job import make_request


def simulate(requests, nodes=4, config=None):
    simulator = SlurmSimulator(supercloud_spec(nodes), config)
    result = simulator.run(requests)
    simulator.cluster.check_invariants()
    return result


class TestBasicRuns:
    def test_single_job_runs(self):
        result = simulate([make_request(job_id=1)])
        record = result.records[0]
        assert record.exit_condition is ExitCondition.COMPLETED
        assert record.run_time_s == pytest.approx(600.0)
        assert record.wait_time_s == pytest.approx(3.0)  # dispatch overhead

    def test_multi_gpu_uses_fast_path(self):
        result = simulate([make_request(job_id=1, num_gpus=2)])
        assert result.records[0].wait_time_s == pytest.approx(1.0)

    def test_all_jobs_finish(self):
        requests = [
            make_request(job_id=i, submit_time_s=i * 10.0, num_gpus=1 + i % 2)
            for i in range(20)
        ]
        result = simulate(requests)
        assert len(result.records) == 20

    def test_cluster_empty_after_drain(self):
        simulator = SlurmSimulator(supercloud_spec(2))
        simulator.run([make_request(job_id=i, submit_time_s=0.0) for i in range(6)])
        assert simulator.cluster.used_gpus == 0
        assert simulator.cluster.free_cores == simulator.spec.total_cores

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(SchedulerError, match="duplicate"):
            simulate([make_request(job_id=1), make_request(job_id=1)])

    def test_makespan_covers_last_job(self):
        result = simulate([make_request(job_id=1, submit_time_s=100.0, runtime_s=50.0)])
        assert result.makespan_s >= 153.0


class TestContention:
    def test_queueing_when_gpus_exhausted(self):
        # one node: 2 GPUs; three 2-GPU jobs arriving together must serialise
        requests = [
            make_request(job_id=i, submit_time_s=0.0, num_gpus=2, runtime_s=100.0)
            for i in range(3)
        ]
        result = simulate(requests, nodes=1)
        starts = sorted(r.start_time_s for r in result.records)
        assert starts[1] >= starts[0] + 100.0
        assert starts[2] >= starts[1] + 100.0

    def test_backfill_small_job_around_stuck_large(self):
        requests = [
            make_request(job_id=0, submit_time_s=0.0, num_gpus=2, runtime_s=500.0),
            make_request(job_id=1, submit_time_s=1.0, num_gpus=2, runtime_s=500.0),
            make_request(job_id=2, submit_time_s=2.0, num_gpus=0, cores=4, runtime_s=50.0),
        ]
        result = simulate(requests, nodes=1)
        by_id = {r.request.job_id: r for r in result.records}
        # the CPU job backfills around the queued second GPU job
        assert by_id[2].start_time_s < by_id[1].start_time_s

    def test_peak_queue_tracked(self):
        requests = [
            make_request(job_id=i, submit_time_s=0.0, num_gpus=2, runtime_s=100.0)
            for i in range(5)
        ]
        result = simulate(requests, nodes=1)
        assert result.peak_queue_length >= 3


class TestTimeout:
    def test_job_truncated_at_limit(self):
        request = make_request(job_id=1, runtime_s=5000.0, time_limit_s=1000.0)
        result = simulate([request])
        record = result.records[0]
        assert record.run_time_s == pytest.approx(1000.0)
        assert record.exit_condition is ExitCondition.TIMEOUT
        assert record.lifecycle_class == "ide"

    def test_intended_class_realised(self):
        request = make_request(job_id=1, intended_class="exploratory")
        result = simulate([request])
        assert result.records[0].exit_condition is ExitCondition.CANCELLED_BY_USER


class TestHooks:
    def test_epilog_record_lists_the_nodes(self):
        records = []
        simulator = SlurmSimulator(supercloud_spec(2))
        simulator.add_epilog(records.append)
        simulator.run([make_request(job_id=1, num_gpus=4, cores=8)])
        (record,) = records
        assert len(record.nodes) == 2  # a 4-GPU job spans two 2-GPU nodes


class TestAccounting:
    def test_table_columns(self):
        result = simulate([make_request(job_id=1)])
        table = accounting_table(result.records)
        assert table.num_rows == 1
        row = table.row(0)
        assert row["lifecycle_class"] == "mature"
        assert row["gpu_hours"] == pytest.approx(600.0 / 3600.0)
        assert row["num_nodes"] == 1

    def test_result_partitions(self):
        result = simulate(
            [make_request(job_id=1), make_request(job_id=2, num_gpus=0, cores=4)]
        )
        assert len(result.gpu_records()) == 1
        assert len(result.cpu_records()) == 1


@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 1000.0),   # submit time
            st.floats(1.0, 500.0),    # runtime
            st.integers(0, 4),        # gpus
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=30, deadline=None)
def test_simulation_invariants(job_specs):
    """Property: every job finishes exactly once, never starts before
    submission, and the cluster returns to pristine state."""
    requests = [
        make_request(
            job_id=i,
            submit_time_s=submit,
            runtime_s=runtime,
            num_gpus=gpus,
            cores=max(4, gpus),
        )
        for i, (submit, runtime, gpus) in enumerate(job_specs)
    ]
    simulator = SlurmSimulator(supercloud_spec(3))
    result = simulator.run(requests)
    assert len(result.records) == len(requests)
    assert {r.request.job_id for r in result.records} == set(range(len(requests)))
    for record in result.records:
        assert record.start_time_s >= record.request.submit_time_s
        assert record.run_time_s <= record.request.runtime_s + 1e-6
    assert simulator.cluster.used_gpus == 0
    simulator.cluster.check_invariants()
