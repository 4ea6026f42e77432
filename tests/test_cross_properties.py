"""Cross-module property-based invariants (hypothesis).

These tie subsystems together: packing never loses jobs, queueing
formulas stay in bounds, the sharing simulator conserves work, and
activity models respect their envelopes for arbitrary parameters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.queueing import erlang_c, mgc_mean_wait
from repro.opportunities.mig import VALID_PARTITIONS, pack_jobs
from repro.opportunities.sharing_sim import GpuSharingSimulator, SharingConfig, SharingJob

fractions = st.floats(0.0, 1.0, allow_nan=False)


@given(
    st.lists(fractions, min_size=1, max_size=60),
    st.sampled_from(VALID_PARTITIONS),
)
@settings(max_examples=80, deadline=None)
def test_mig_packing_conserves_jobs(requirements, partition):
    reqs = np.asarray(requirements)
    gpus, spilled, headroom = pack_jobs(reqs, partition)
    largest = max({"1g": 1/7, "2g": 2/7, "3g": 3/7, "4g": 4/7, "7g": 1.0}[p] for p in partition)
    placeable = int((reqs <= largest + 1e-9).sum())
    assert spilled == len(reqs) - placeable
    assert 0 <= gpus <= len(reqs)
    assert headroom >= 0.0


@given(
    st.integers(1, 64),
    st.floats(0.0, 100.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_erlang_c_is_probability(servers, offered):
    value = erlang_c(servers, offered)
    assert 0.0 <= value <= 1.0


@given(
    st.floats(0.001, 1.0),
    st.floats(0.1, 1000.0),
    st.floats(0.0, 20.0),
    st.integers(1, 32),
)
@settings(max_examples=80, deadline=None)
def test_mgc_wait_nonnegative(arrival, service, scv, servers):
    wait = mgc_mean_wait(arrival, service, scv, servers)
    assert wait >= 0.0 or np.isinf(wait)


@st.composite
def sharing_jobs(draw):
    n = draw(st.integers(1, 40))
    jobs = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(0.0, 50.0))
        jobs.append(
            SharingJob(
                arrival_s=t,
                duration_s=draw(st.floats(0.1, 500.0)),
                demand=draw(st.floats(0.0, 100.0)),
            )
        )
    return jobs


@given(sharing_jobs(), st.integers(1, 8), st.booleans())
@settings(max_examples=60, deadline=None)
def test_sharing_sim_serves_everyone(jobs, num_gpus, sharing):
    outcome = GpuSharingSimulator(SharingConfig()).run(jobs, num_gpus, sharing)
    assert outcome.mean_wait_s >= 0.0
    assert outcome.p95_wait_s >= outcome.median_wait_s >= 0.0
    assert outcome.max_queue_length <= len(jobs)


@given(sharing_jobs(), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_sharing_never_increases_mean_wait(jobs, num_gpus):
    sim = GpuSharingSimulator(SharingConfig())
    exclusive = sim.run(jobs, num_gpus, sharing=False)
    shared = sim.run(jobs, num_gpus, sharing=True)
    assert shared.mean_wait_s <= exclusive.mean_wait_s + 1e-6


@given(
    st.floats(1.0, 5000.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_activity_model_envelope(duration, fraction, seed):
    """Any generated activity model stays inside [0, 100] on every
    metric and its analytic max dominates dense samples."""
    from repro.workload.activity import (
        ActivityBatch,
        JobActivityModel,
        PhaseSchedule,
        PowerModel,
        build_metric_process,
    )

    rng = np.random.default_rng(seed)
    schedule = PhaseSchedule.generate(rng, duration, fraction, 60.0, 1.69, 1.26)
    processes = {
        name: build_metric_process(
            rng,
            level=float(rng.uniform(0, 100)),
            noise_cov=float(rng.uniform(0, 0.5)),
            burst_level=float(rng.uniform(0, 100)),
            schedule=schedule,
            num_bursts=int(rng.integers(0, 4)),
        )
        for name in ("sm", "mem_bw", "mem_size", "pcie_tx", "pcie_rx")
    }
    model = JobActivityModel(
        1, 1, duration, schedule, processes, np.ones(1),
        PowerModel(25.0, 1.25, 0.4, 0.03, 0.2),
    )
    times = np.linspace(0.0, duration, 300)
    metrics = model.metrics_at(times, 0)
    peaks = ActivityBatch([model]).analytic_max()
    for name in ("sm", "mem_bw", "mem_size", "pcie_tx", "pcie_rx"):
        assert metrics[name].min() >= 0.0
        assert metrics[name].max() <= 100.0
        assert metrics[name].max() <= peaks[name][0] + 1e-6
    assert metrics["power_w"].max() <= 300.0 + 1e-6
