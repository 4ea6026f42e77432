"""Tests for phase schedules and activity models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.activity import (
    JobActivityModel,
    MetricProcess,
    PhaseSchedule,
    PowerModel,
    build_metric_process,
)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


POWER = PowerModel(25.0, 1.25, 0.4, 0.03, 0.2)


def one_process_model(process, duration_s, scale=1.0):
    """A one-GPU, always-active model running ``process`` for every
    metric: its ``sm`` is the process's value at ``scale`` (the
    schedule gate is 1 throughout)."""
    return JobActivityModel(
        1, 1, duration_s, PhaseSchedule.always(duration_s, True),
        {name: process for name in ("sm", "mem_bw", "mem_size", "pcie_tx", "pcie_rx")},
        np.asarray([scale]), POWER,
    )


def process_values(process, times, scale=1.0):
    """``process`` evaluated at ``times`` on a GPU of ``scale``."""
    return one_process_model(process, float(times.max()), scale).metrics_at(times, 0)["sm"]


class TestPhaseSchedule:
    def test_always_active(self):
        schedule = PhaseSchedule.always(100.0, active=True)
        assert schedule.active_fraction() == 1.0
        assert schedule.active_at(np.asarray([0.0, 50.0])).all()

    def test_always_idle(self):
        schedule = PhaseSchedule.always(100.0, active=False)
        assert schedule.active_fraction() == 0.0

    def test_generate_zero_fraction(self, rng):
        schedule = PhaseSchedule.generate(rng, 1000.0, 0.0, 60.0, 1.0, 1.0)
        assert schedule.active_time_s() == 0.0

    def test_generate_full_fraction(self, rng):
        schedule = PhaseSchedule.generate(rng, 1000.0, 1.0, 60.0, 1.0, 1.0)
        assert schedule.active_fraction() == 1.0

    def test_generate_hits_target_fraction_on_long_runs(self, rng):
        fractions = [
            PhaseSchedule.generate(rng, 2e5, 0.7, 60.0, 1.0, 1.0).active_fraction()
            for _ in range(10)
        ]
        assert np.mean(fractions) == pytest.approx(0.7, abs=0.08)

    def test_intervals_cover_duration(self, rng):
        schedule = PhaseSchedule.generate(rng, 5000.0, 0.5, 120.0, 1.5, 1.5)
        starts, ends, active = schedule.spans()
        assert starts[0] == 0.0
        assert ends[-1] == pytest.approx(5000.0)
        assert np.array_equal(ends[:-1], starts[1:])
        assert (active[1:] != active[:-1]).all()  # strictly alternating

    def test_active_at_matches_intervals(self, rng):
        schedule = PhaseSchedule.generate(rng, 5000.0, 0.5, 120.0, 1.5, 1.5)
        starts, ends, active = schedule.spans()
        mids = (starts + ends) / 2.0
        assert np.array_equal(schedule.active_at(mids), active)

    def test_interval_cap_stretches_not_explodes(self, rng):
        schedule = PhaseSchedule.generate(
            rng, 1e7, 0.5, 1.0, 1.0, 1.0, max_intervals=1000
        )
        assert len(schedule.boundaries) <= 1200

    def test_invalid_boundaries_rejected(self):
        with pytest.raises(WorkloadError):
            PhaseSchedule(np.asarray([5.0, 3.0]), True, 10.0)
        with pytest.raises(WorkloadError):
            PhaseSchedule(np.asarray([15.0]), True, 10.0)

    def test_negative_duration_rejected(self, rng):
        with pytest.raises(WorkloadError):
            PhaseSchedule.generate(rng, -1.0, 0.5, 60.0, 1.0, 1.0)


class TestMetricProcess:
    def test_smooth_values_near_level(self, rng):
        process = build_metric_process(
            rng, level=50.0, noise_cov=0.1, burst_level=50.0,
            schedule=PhaseSchedule.always(1000.0, True), num_bursts=0,
        )
        values = process_values(process, np.linspace(0, 1000, 500))
        assert values.mean() == pytest.approx(50.0, rel=0.15)
        assert values.std() == pytest.approx(5.0, rel=0.5)

    def test_burst_reaches_burst_level(self, rng):
        schedule = PhaseSchedule.always(1000.0, True)
        process = build_metric_process(
            rng, level=10.0, noise_cov=0.05, burst_level=100.0,
            schedule=schedule, num_bursts=3,
        )
        assert len(process.burst_windows) == 3
        dense = process_values(process, np.linspace(0, 1000, 20000))
        assert dense.max() == pytest.approx(100.0)

    def test_bursts_only_in_active_intervals(self, rng):
        schedule = PhaseSchedule.generate(rng, 10000.0, 0.3, 120.0, 1.0, 1.0)
        process = build_metric_process(
            rng, level=10.0, noise_cov=0.05, burst_level=100.0,
            schedule=schedule, num_bursts=5,
        )
        for t0, t1 in process.burst_windows:
            assert schedule.active_at(np.asarray([t0]))[0]

    def test_no_bursts_when_idle_schedule(self, rng):
        process = build_metric_process(
            rng, level=10.0, noise_cov=0.05, burst_level=100.0,
            schedule=PhaseSchedule.always(100.0, False), num_bursts=5,
        )
        assert len(process.burst_windows) == 0

    def test_smooth_cap_blocks_saturation(self, rng):
        process = build_metric_process(
            rng, level=97.0, noise_cov=0.3, burst_level=97.0,
            schedule=PhaseSchedule.always(1000.0, True), num_bursts=0,
        )
        values = process_values(process, np.linspace(0, 1000, 5000), scale=1.2)
        assert values.max() <= MetricProcess.SMOOTH_CAP

    def test_analytic_peak_bounds_values(self, rng):
        process = build_metric_process(
            rng, level=40.0, noise_cov=0.2, burst_level=80.0,
            schedule=PhaseSchedule.always(1000.0, True), num_bursts=2,
        )
        dense = process_values(process, np.linspace(0, 1000, 50000))
        peak = one_process_model(process, 1000.0).analytic_max(0)["sm"]
        assert dense.max() <= peak + 1e-9


class TestJobActivityModel:
    def make_model(self, rng, num_gpus=1, gpu_scale=None, duration=600.0, frac=0.8):
        schedule = PhaseSchedule.generate(rng, duration, frac, 60.0, 1.0, 1.0)
        processes = {
            name: build_metric_process(
                rng, level=30.0, noise_cov=0.1, burst_level=60.0,
                schedule=schedule, num_bursts=1,
            )
            for name in ("sm", "mem_bw", "mem_size", "pcie_tx", "pcie_rx")
        }
        if gpu_scale is None:
            gpu_scale = np.ones(num_gpus)
        return JobActivityModel(
            job_id=1, num_gpus=num_gpus, duration_s=duration,
            schedule=schedule, processes=processes,
            gpu_scale=np.asarray(gpu_scale),
            power_model=PowerModel(25.0, 1.25, 0.4, 0.03, 0.2),
        )

    def test_metrics_gated_by_schedule(self, rng):
        model = self.make_model(rng, frac=0.5)
        times = np.linspace(0, 600, 2000)
        sm = model.metrics_at(times, 0)["sm"]
        active = model.schedule.active_at(times)
        assert (sm[~active] == 0.0).all()
        assert sm[active].mean() > 10.0

    def test_memory_persists_through_idle(self, rng):
        model = self.make_model(rng, frac=0.5)
        times = np.linspace(300, 600, 500)  # past the ramp
        size = model.metrics_at(times, 0)["mem_size"]
        assert (size > 0).all()

    def test_memory_ramps_from_zero(self, rng):
        model = self.make_model(rng)
        out = model.metrics_at(np.asarray([0.0]), 0)
        assert out["mem_size"][0] == pytest.approx(0.0, abs=1.0)

    def test_idle_gpu_all_zero(self, rng):
        model = self.make_model(rng, num_gpus=2, gpu_scale=[1.0, 0.0])
        out = model.metrics_at(np.linspace(0, 600, 100), 1)
        for name in ("sm", "mem_bw", "mem_size", "pcie_tx", "pcie_rx"):
            assert (out[name] == 0.0).all()
        assert (out["power_w"] == 25.0).all()
        assert model.idle_gpu_count == 1

    def test_power_derived_from_metrics(self, rng):
        model = self.make_model(rng)
        times = np.linspace(0, 600, 200)
        out = model.metrics_at(times, 0)
        expected = 25.0 + 1.25 * out["sm"] + 0.4 * out["mem_bw"] + 0.03 * (
            out["pcie_tx"] + out["pcie_rx"]
        ) + 0.2 * out["mem_size"]
        assert out["power_w"] == pytest.approx(np.clip(expected, 0, 300))

    def test_analytic_max_dominates_dense_samples(self, rng):
        model = self.make_model(rng)
        times = np.linspace(0, 600, 30000)
        out = model.metrics_at(times, 0)
        peaks = model.analytic_max(0)
        for name in ("sm", "mem_bw", "mem_size", "pcie_tx", "pcie_rx"):
            assert out[name].max() <= peaks[name] + 1e-6

    def test_gpu_index_out_of_range(self, rng):
        model = self.make_model(rng)
        with pytest.raises(WorkloadError):
            model.metrics_at(np.zeros(1), 1)

    def test_missing_process_rejected(self, rng):
        schedule = PhaseSchedule.always(10.0, True)
        with pytest.raises(WorkloadError, match="missing metric"):
            JobActivityModel(
                1, 1, 10.0, schedule, {}, np.ones(1),
                PowerModel(25.0, 1.25, 0.4, 0.03, 0.2),
            )

    def test_determinism_across_calls(self, rng):
        model = self.make_model(rng)
        times = np.linspace(0, 600, 100)
        first = model.metrics_at(times, 0)
        second = model.metrics_at(times, 0)
        for name in first:
            assert (first[name] == second[name]).all()

    def test_metrics_at_all_matches_per_gpu(self, rng):
        model = self.make_model(rng, num_gpus=3, gpu_scale=np.array([1.0, 0.5, 0.0]))
        times = rng.uniform(0, 600, (3, 50))
        batched = model.metrics_at_all(times)
        for gpu_index in range(3):
            single = model.metrics_at(times[gpu_index], gpu_index)
            for name in single:
                assert batched[name].shape == (3, 50)
                assert (batched[name][gpu_index] == single[name]).all()

    def test_metrics_at_all_rejects_bad_shape(self, rng):
        model = self.make_model(rng, num_gpus=2, gpu_scale=np.ones(2))
        with pytest.raises(WorkloadError, match="shape"):
            model.metrics_at_all(np.zeros(5))
        with pytest.raises(WorkloadError, match="shape"):
            model.metrics_at_all(np.zeros((3, 5)))


# ----------------------------------------------------------------------
# Exactness oracles: the per-interval loop and list-based burst placement
# that PhaseSchedule.spans and build_metric_process replaced.
# ----------------------------------------------------------------------


def loop_intervals(schedule):
    """``(start, end, is_active)`` tuples, one loop step per interval."""
    edges = np.concatenate(([0.0], schedule.boundaries, [schedule.duration_s]))
    out = []
    active = schedule.starts_active
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            out.append((float(a), float(b), active))
        active = not active
    return out


def loop_metric_process(rng, level, noise_cov, burst_level, schedule, num_bursts,
                        num_harmonics=4, burst_width_median_s=3.0):
    """``build_metric_process`` placing bursts from a list of intervals."""
    level = float(np.clip(level, 0.0, 100.0))
    amplitude = noise_cov * level * np.sqrt(2.0 / max(num_harmonics, 1))
    amplitudes = np.full(num_harmonics, amplitude)
    frequencies = np.exp(rng.uniform(np.log(1.0 / 600.0), np.log(1.0 / 5.0), num_harmonics))
    phases = rng.uniform(0.0, 2.0 * np.pi, num_harmonics)
    active_intervals = [(a, b) for a, b, act in loop_intervals(schedule) if act]
    windows = []
    if active_intervals and burst_level > level and num_bursts > 0:
        lengths = np.asarray([b - a for a, b in active_intervals])
        probs = lengths / lengths.sum()
        for _ in range(num_bursts):
            idx = int(rng.choice(len(active_intervals), p=probs))
            a, b = active_intervals[idx]
            width = min(rng.lognormal(np.log(burst_width_median_s), 0.8), b - a)
            start = rng.uniform(a, max(b - width, a))
            windows.append((start, start + width))
    return MetricProcess(
        level=level,
        amplitudes=amplitudes,
        frequencies_hz=frequencies,
        phases=phases,
        burst_level=float(np.clip(burst_level, 0.0, 100.0)),
        burst_windows=np.asarray(windows).reshape(-1, 2),
    )


@st.composite
def schedules(draw):
    """Generated schedules plus the edge shapes: always active, always
    idle, zero duration, and runs long enough to hit the 20,000-interval
    stretch cap."""
    kind = draw(st.sampled_from(["generated", "active", "idle", "zero", "capped"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("active", "idle"):
        return PhaseSchedule.always(draw(st.floats(0.0, 1e6)), kind == "active")
    if kind == "zero":
        return PhaseSchedule.generate(
            rng, 0.0, draw(st.floats(0.0, 1.0)), 60.0, 1.0, 1.0
        ) if draw(st.booleans()) else PhaseSchedule.always(0.0, True)
    if kind == "capped":
        duration, mean_active = draw(st.floats(1e7, 1e8)), draw(st.floats(1.0, 10.0))
    else:
        duration, mean_active = draw(st.floats(1.0, 1e6)), draw(st.floats(1.0, 600.0))
    return PhaseSchedule.generate(
        rng,
        duration,
        draw(st.floats(0.0, 1.0)),
        mean_active,
        draw(st.floats(0.1, 3.0)),
        draw(st.floats(0.1, 3.0)),
    )


@given(
    schedules(),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 100.0),
    st.floats(0.0, 0.5),
    st.floats(0.0, 100.0),
    st.integers(0, 8),
)
@settings(max_examples=150, deadline=None)
def test_spans_and_bursts_match_the_loop(schedule, seed, level, noise_cov,
                                         burst_level, num_bursts):
    intervals = loop_intervals(schedule)
    starts, ends, active = schedule.spans()
    assert list(zip(starts.tolist(), ends.tolist(), active.tolist())) == intervals
    assert schedule.active_time_s() == sum(b - a for a, b, act in intervals if act)

    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = build_metric_process(rng_new, level, noise_cov, burst_level, schedule, num_bursts)
    old = loop_metric_process(rng_old, level, noise_cov, burst_level, schedule, num_bursts)
    for name in ("amplitudes", "frequencies_hz", "phases", "burst_windows"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert (new.level, new.burst_level) == (old.level, old.burst_level)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


@given(
    st.floats(10.0, 1e5),
    st.floats(0.0, 1.0),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_schedule_fraction_in_bounds(duration, fraction, seed):
    rng = np.random.default_rng(seed)
    schedule = PhaseSchedule.generate(rng, duration, fraction, 60.0, 1.69, 1.26)
    assert 0.0 <= schedule.active_fraction() <= 1.0
    assert schedule.duration_s == duration


def choice_metric_process(rng, level, noise_cov, burst_level, schedule, num_bursts,
                          num_harmonics=4, burst_width_median_s=3.0):
    """``build_metric_process`` drawing each burst's interval with its
    own ``rng.choice(starts.size, p=probs)`` call."""
    level = float(np.clip(level, 0.0, 100.0))
    amplitude = noise_cov * level * np.sqrt(2.0 / max(num_harmonics, 1))
    amplitudes = np.full(num_harmonics, amplitude)
    frequencies = np.exp(rng.uniform(np.log(1.0 / 600.0), np.log(1.0 / 5.0), num_harmonics))
    phases = rng.uniform(0.0, 2.0 * np.pi, num_harmonics)
    starts, ends, active = schedule.spans()
    starts, ends = starts[active], ends[active]
    windows = []
    if starts.size and burst_level > level and num_bursts > 0:
        lengths = ends - starts
        probs = lengths / lengths.sum()
        for _ in range(num_bursts):
            idx = int(rng.choice(starts.size, p=probs))
            a, b = float(starts[idx]), float(ends[idx])
            width = min(rng.lognormal(np.log(burst_width_median_s), 0.8), b - a)
            start = rng.uniform(a, max(b - width, a))
            windows.append((start, start + width))
    return MetricProcess(
        level=level,
        amplitudes=amplitudes,
        frequencies_hz=frequencies,
        phases=phases,
        burst_level=float(np.clip(burst_level, 0.0, 100.0)),
        burst_windows=np.asarray(windows).reshape(-1, 2),
    )


@given(
    st.sampled_from(["single", "no_active", "renewal", "no_draw"]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 20),
    st.floats(1.0, 4e5),
    st.floats(0.0, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_burst_placement_matches_per_burst_choice(kind, seed, num_bursts, duration, level):
    """One CDF per schedule draws the same windows, from the same RNG
    stream, as one ``rng.choice(p=...)`` per burst."""
    rng = np.random.default_rng(seed)
    if kind == "single":
        schedule = PhaseSchedule.always(duration, True)
    elif kind == "no_active":
        schedule = PhaseSchedule.always(duration, False)
    else:
        schedule = PhaseSchedule.generate(rng, duration, 0.5, 60.0, 1.69, 1.26)
    # "no_draw": a burst level at or below the level places no bursts.
    burst_level = level / 2 if kind == "no_draw" else level + (100.0 - level) / 2
    state = rng.bit_generator.state
    rng_new, rng_old = np.random.default_rng(), np.random.default_rng()
    rng_new.bit_generator.state = rng_old.bit_generator.state = state
    new = build_metric_process(rng_new, level, 0.2, burst_level, schedule, num_bursts)
    old = choice_metric_process(rng_old, level, 0.2, burst_level, schedule, num_bursts)
    assert new.burst_windows.shape == old.burst_windows.shape
    assert new.burst_windows.tobytes() == old.burst_windows.tobytes()
    for name in ("amplitudes", "frequencies_hz", "phases"):
        assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    places = schedule.spans()[2].any() and burst_level > level
    assert len(new.burst_windows) == (num_bursts if places else 0)
