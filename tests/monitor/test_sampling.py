"""Property tests for deferred batched sampling.

Deferred sampling rests on three bit-for-bit contracts:

* batching changes nothing — a job's rows of an
  :class:`~repro.workload.activity.ActivityBatch` match the per-GPU
  ``metrics_at`` evaluation exactly;
* deferring changes nothing — a collector that flushes after every
  epilog (the old inline behavior) and one that flushes once at the
  end build identical tables and series stores;
* the island batch changes nothing — :func:`run_sampling` over a whole
  mixed island is byte-for-byte the per-job evaluation it replaced,
  kept below as the oracle (``oracle_task``), whose kept series are
  rounded to sensor resolution as the sampler's are.

Hypothesis drives arbitrary activity models and job mixes through
all three.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import supercloud_spec
from repro.errors import MonitoringError
from repro.monitor.collector import MonitoringCollector, MonitoringConfig
from repro.monitor.nvidia_smi import NvidiaSmiSampler, stratified_times
from repro.monitor.sampling import SamplingTask, run_sampling
from repro.monitor.timeseries import METRIC_NAMES, METRIC_RESOLUTION
from repro.slurm.scheduler import SlurmSimulator
from repro.workload.activity import (
    GATED_METRICS,
    ActivityBatch,
    JobActivityModel,
    MetricProcess,
    PhaseSchedule,
    PowerModel,
    build_metric_process,
)
from tests.monitor.test_nvidia_smi import FlatModel
from tests.slurm.test_job import make_request


def make_model(seed, num_gpus, duration_s, fraction):
    """A calibrated-shape :class:`JobActivityModel` from one seed."""
    rng = np.random.default_rng(seed)
    schedule = PhaseSchedule.generate(rng, duration_s, fraction, 60.0, 1.69, 1.26)
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
    # include an idle GPU (scale 0) whenever there is room for one
    gpu_scale = rng.uniform(0.2, 1.0, num_gpus)
    if num_gpus > 1:
        gpu_scale[-1] = 0.0
    return JobActivityModel(
        1, num_gpus, duration_s, schedule, processes, gpu_scale,
        PowerModel(25.0, 1.25, 0.4, 0.03, 0.2),
    )


class TestBatchedMatchesPerGpu:
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 4),
        st.floats(1.0, 5000.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_metrics_at_all_bit_identical(self, seed, num_gpus, duration, fraction):
        """A job's batch rows are each GPU's own ``metrics_at``."""
        model = make_model(seed, num_gpus, duration, fraction)
        times = np.random.default_rng(seed + 1).uniform(
            0.0, duration, (num_gpus, 64)
        )
        batched = ActivityBatch([model]).metrics(times)
        for gpu_index in range(num_gpus):
            single = model.metrics_at(times[gpu_index], gpu_index)
            for name in METRIC_NAMES:
                assert np.array_equal(batched[name][gpu_index], single[name]), name


def _evaluated(task):
    [result] = run_sampling([task], NvidiaSmiSampler(0.1, max_series_samples=100))
    return result


class TestEvaluateTask:
    def test_deterministic(self):
        model = make_model(5, 2, 300.0, 0.7)
        offsets = np.random.default_rng(5).random((2, 32))
        task = SamplingTask(3, model, 300.0, offsets, keep_series=True)
        first, second = _evaluated(task), _evaluated(task)
        assert first.job_id == second.job_id == 3
        for name, values in first.summary.items():
            assert np.array_equal(values, second.summary[name]), name
        assert len(first.series) == len(second.series) == 2

    def test_no_series_when_not_kept(self):
        model = make_model(5, 2, 300.0, 0.7)
        offsets = np.random.default_rng(5).random((2, 32))
        task = SamplingTask(3, model, 300.0, offsets, keep_series=False)
        assert _evaluated(task).series == []

    @pytest.mark.parametrize("model", [make_model(5, 2, 300.0, 0.7)], ids=["batched"])
    def test_negative_duration_rejected(self, model):
        offsets = np.random.default_rng(5).random((2, 32))
        with pytest.raises(MonitoringError, match="negative duration"):
            _evaluated(SamplingTask(3, model, -1.0, offsets, keep_series=False))

    def test_offsets_must_cover_every_gpu(self):
        offsets = np.random.default_rng(5).random((3, 32))
        task = SamplingTask(3, make_model(5, 2, 300.0, 0.7), 300.0, offsets, keep_series=False)
        with pytest.raises(MonitoringError, match=r"job 3: offsets must have shape \(2, n\)"):
            _evaluated(task)

    def test_model_must_be_a_job_activity_model(self):
        class Duck:
            num_gpus = 1

        offsets = np.random.default_rng(5).random((1, 32))
        task = SamplingTask(4, Duck(), 300.0, offsets, keep_series=False)
        with pytest.raises(MonitoringError, match="job 4: .*JobActivityModel, got Duck"):
            _evaluated(task)


def _gpu_request(job_id, num_gpus, runtime_s):
    request = make_request(job_id=job_id, num_gpus=num_gpus, runtime_s=runtime_s)
    request.tags["activity"] = FlatModel(num_gpus)
    return request


def _run_collector(shape, collector):
    """Simulate a job mix described by ``shape`` on a fresh cluster."""
    requests = [
        _gpu_request(job_id, num_gpus, runtime)
        if num_gpus
        else make_request(job_id=job_id, num_gpus=0, cores=2, runtime_s=runtime)
        for job_id, (num_gpus, runtime) in enumerate(shape, start=1)
    ]
    simulator = SlurmSimulator(supercloud_spec(2))
    collector.attach(simulator)
    simulator.run(requests)
    return collector


def _snapshot(collector):
    per_gpu = collector.per_gpu_table().to_dict()
    series = {
        (s.job_id, s.gpu_index): (s.times_s, s.metrics) for s in collector.store
    }
    return per_gpu, series


def _assert_same(left, right):
    assert left[0] == right[0]  # per-GPU summary table
    assert left[1].keys() == right[1].keys()
    for key, (times, metrics) in left[1].items():
        other_times, other_metrics = right[1][key]
        assert np.array_equal(times, other_times)
        for name in METRIC_NAMES:
            assert np.array_equal(metrics[name], other_metrics[name]), name


class _InlineCollector(MonitoringCollector):
    """The pre-deferral behavior: evaluate inside every epilog."""

    def epilog(self, record):
        super().epilog(record)
        self.flush()


job_shapes = st.lists(
    st.tuples(st.integers(0, 3), st.floats(1.0, 500.0)),
    min_size=1,
    max_size=6,
)


class TestDeferralIsInvisible:
    @given(job_shapes)
    @settings(max_examples=15, deadline=None)
    def test_inline_and_deferred_identical(self, shape):
        config = MonitoringConfig(timeseries_fraction=0.5, timeseries_max_samples=50)
        inline = _run_collector(shape, _InlineCollector(config))
        deferred = _run_collector(shape, MonitoringCollector(config))
        assert inline.pending_tasks == 0
        _assert_same(_snapshot(inline), _snapshot(deferred))

    def test_accessors_flush_pending(self):
        collector = _run_collector([(2, 100.0)], MonitoringCollector())
        assert collector.pending_tasks == 1
        assert collector.per_gpu_table().num_rows == 2
        assert collector.pending_tasks == 0

    def test_flush_reports_row_count_and_is_idempotent(self):
        collector = _run_collector([(2, 100.0), (1, 50.0)], MonitoringCollector())
        assert collector.flush() == 3
        assert collector.flush() == 0


# ----------------------------------------------------------------------
# The island batch against the per-job evaluation it replaced.
# ----------------------------------------------------------------------


def oracle_values(process, times, scale):
    """The per-process metric evaluation the batch kernel replaced."""
    values = np.full(times.shape, process.level, dtype=float)
    for a, f, p in zip(process.amplitudes, process.frequencies_hz, process.phases):
        values += a * np.sin(2.0 * np.pi * f * times + p)
    scale = np.asarray(scale, dtype=float)
    values = np.minimum(np.clip(values, 0.0, None) * scale, MetricProcess.SMOOTH_CAP)
    if len(process.burst_windows) and np.any(scale > 0):
        mask = np.zeros(times.shape, dtype=bool)
        for t0, t1 in process.burst_windows:
            mask |= (times >= t0) & (times < t1)
        values[mask & (scale > 0)] = process.burst_level
    return values


def oracle_metrics(model, times):
    """One job's metrics at ``(num_gpus, n)`` times, per process."""
    active = model.schedule.active_at(times).astype(float)
    out = {
        name: oracle_values(model.processes[name], times, model.gpu_scale[:, None]) * active
        for name in GATED_METRICS
    }
    ramp = np.clip(times / model.mem_ramp_s, 0.0, 1.0)
    size_scale = (model.gpu_scale > 0).astype(float)[:, None]
    out["mem_size"] = oracle_values(model.processes["mem_size"], times, size_scale) * ramp
    out["power_w"] = model.power_model.power(
        out["sm"], out["mem_bw"], out["pcie_tx"], out["pcie_rx"], out["mem_size"]
    )
    return out


def oracle_peak(process, scale):
    peak = min(
        max(process.level + float(process.amplitudes.sum()), 0.0) * scale,
        MetricProcess.SMOOTH_CAP,
    )
    if len(process.burst_windows) and scale > 0:
        return max(peak, process.burst_level)
    return peak


def oracle_analytic_max(model, gpu_index):
    """One GPU's analytic maxima, one Python float at a time."""
    scale = float(model.gpu_scale[gpu_index])
    any_active = model.schedule.active_time_s() > 0
    out, levels = {}, {}
    for name in GATED_METRICS:
        process = model.processes[name]
        out[name] = float(oracle_peak(process, scale) if any_active else 0.0)
        levels[name] = float(
            min(max(process.level, 0.0) * scale, 100.0) if any_active else 0.0
        )
    size_scale = 1.0 if scale > 0 else 0.0
    out["mem_size"] = float(oracle_peak(model.processes["mem_size"], size_scale))
    levels["mem_size"] = float(
        min(max(model.processes["mem_size"].level, 0.0), 100.0) * size_scale
    )
    power_peak = 0.0
    for name in ("sm", "mem_bw", "pcie_tx", "pcie_rx", "mem_size"):
        snapshot = {**levels, name: out[name]}
        power_peak = max(
            power_peak,
            float(
                model.power_model.power(
                    snapshot["sm"], snapshot["mem_bw"], snapshot["pcie_tx"],
                    snapshot["pcie_rx"], snapshot["mem_size"],
                )
            ),
        )
    out["power_w"] = power_peak
    return out


def oracle_sensor(name, values):
    """Float samples as a kept series reads them back: rounded half to
    even to whole counts of the metric's resolution."""
    dtype, per_unit = METRIC_RESOLUTION[name]
    return np.rint(values * per_unit).astype(dtype) / per_unit


def oracle_task(sampler, task):
    """One task's ``(summary, [(times, metrics) per GPU])``, per job."""
    model, duration, offsets = task.model, task.run_time_s, task.offsets
    edges = np.linspace(0.0, duration, offsets.shape[1] + 1)
    metrics = oracle_metrics(model, edges[:-1] + offsets * np.diff(edges))
    analytic = [oracle_analytic_max(model, g) for g in range(model.num_gpus)]
    summary = {}
    for name in METRIC_NAMES:
        values = metrics[name]
        summary[f"{name}_min"] = values.min(axis=1)
        summary[f"{name}_mean"] = values.mean(axis=1)
        summary[f"{name}_max"] = np.maximum(
            values.max(axis=1), np.asarray([a[name] for a in analytic])
        )
    series = []
    if task.keep_series:
        count = int(duration / sampler.interval_s) + 1
        if count > sampler.max_series_samples:
            times = np.linspace(0.0, duration, sampler.max_series_samples)
        else:
            times = np.arange(count) * sampler.interval_s
        dense = oracle_metrics(model, np.broadcast_to(times, (model.num_gpus, times.size)))
        series = [
            (times, {name: oracle_sensor(name, values[g]) for name, values in dense.items()})
            for g in range(model.num_gpus)
        ]
    return summary, series


@st.composite
def island_tasks(draw):
    """One island's mixed task list: 1-16 GPUs with idle ones, runs
    from 0 s to past 96 h (so several sample counts ``n`` occur),
    always-idle / always-active / renewal schedules, 0-20 bursts per
    metric, and kept series, some decimated."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sampler = NvidiaSmiSampler(0.1, 256, draw(st.integers(2, 400)))
    tasks = []
    shapes = st.tuples(
        st.integers(1, 16),
        st.one_of(st.just(0.0), st.floats(0.0, 30.0), st.floats(30.0, 4e5)),
        st.sampled_from(["renewal", "active", "idle"]),
        st.integers(0, 20),
        st.booleans(),
        st.sampled_from([1.0, 0.5, 1.3]),
    )
    for job_id, (num_gpus, duration, kind, bursts, keep, stretch) in enumerate(
        draw(st.lists(shapes, min_size=1, max_size=8))
    ):
        if kind == "renewal":
            schedule = PhaseSchedule.generate(
                rng, duration, float(rng.uniform(0.05, 0.95)),
                float(rng.uniform(5.0, 600.0)), 1.69, 1.26,
            )
        else:
            schedule = PhaseSchedule.always(duration, kind == "active")
        processes = {}
        for name in ("sm", "mem_bw", "mem_size", "pcie_tx", "pcie_rx"):
            level = float(rng.uniform(0.0, 100.0))
            processes[name] = build_metric_process(
                rng, level, float(rng.uniform(0.0, 0.5)),
                float(rng.uniform(level, 100.0)) if rng.random() < 0.8 else level / 2,
                schedule, bursts,
            )
        scale = rng.uniform(0.2, 1.2, num_gpus)
        scale[rng.random(num_gpus) < 0.3] = 0.0
        model = JobActivityModel(
            job_id, num_gpus, duration, schedule, processes, scale,
            PowerModel(25.0, 1.25, 0.4, 0.03, 0.2),
        )
        run_time = duration * stretch
        offsets = sampler.draw_offsets(run_time, num_gpus, rng)
        tasks.append(SamplingTask(job_id, model, run_time, offsets, keep))
    return sampler, tasks


class TestIslandBatchMatchesPerJob:
    @given(island_tasks())
    @settings(max_examples=40, deadline=None)
    def test_bytes_match_the_per_job_oracle(self, island):
        sampler, tasks = island
        pickled = [pickle.dumps(task.model) for task in tasks]
        results = run_sampling(tasks, sampler)
        assert [r.job_id for r in results] == [t.job_id for t in tasks]
        for task, result in zip(tasks, results):
            summary, series = oracle_task(sampler, task)
            assert list(result.summary) == list(summary)
            for name, values in summary.items():
                assert result.summary[name].tobytes() == values.tobytes(), name
            assert len(result.series) == len(series)
            for gpu_index, (got, (times, metrics)) in enumerate(zip(result.series, series)):
                assert (got.job_id, got.gpu_index) == (task.job_id, gpu_index)
                assert got.times_s.tobytes() == times.tobytes()
                # a series lists its metrics in nvidia-smi naming order
                assert list(got.metrics) == sorted(metrics, key=METRIC_NAMES.index)
                for name, values in metrics.items():
                    assert got.metrics[name].tobytes() == values.tobytes(), name
        assert [pickle.dumps(task.model) for task in tasks] == pickled

    def test_flush_leaves_models_unpickled_as_before(self):
        """A collector flush stores nothing on the models it samples."""
        models = [make_model(seed, num_gpus, 900.0, 0.6) for seed, num_gpus in
                  [(1, 1), (2, 4), (3, 2), (4, 1)]]
        requests = []
        for job_id, model in enumerate(models, start=1):
            request = make_request(job_id=job_id, num_gpus=model.num_gpus, runtime_s=900.0)
            request.tags["activity"] = model
            requests.append(request)
        collector = MonitoringCollector(MonitoringConfig(timeseries_fraction=0.5))
        simulator = SlurmSimulator(supercloud_spec(2))
        collector.attach(simulator)
        simulator.run(requests)
        pickled = [pickle.dumps(model) for model in models]
        assert collector.flush() == sum(model.num_gpus for model in models)
        assert [pickle.dumps(model) for model in models] == pickled

    def test_blocks_do_not_change_bytes(self, monkeypatch):
        """Tiny blocks give the same bytes as one block."""
        import repro.monitor.sampling as sampling

        sampler = NvidiaSmiSampler(0.1, 64, max_series_samples=50)
        rng = np.random.default_rng(9)
        tasks = []
        for job_id, num_gpus in enumerate([1, 3, 1, 2, 1, 4]):
            model = make_model(job_id, num_gpus, 300.0 + 40 * job_id, 0.7)
            offsets = sampler.draw_offsets(model.duration_s, num_gpus, rng)
            tasks.append(SamplingTask(job_id, model, model.duration_s, offsets, job_id % 2 == 0))

        def snapshot(results):
            return [
                ({k: v.tobytes() for k, v in r.summary.items()},
                 [{k: v.tobytes() for k, v in s.metrics.items()} for s in r.series])
                for r in results
            ]

        whole = snapshot(run_sampling(tasks, sampler))
        monkeypatch.setattr(sampling, "_BLOCK_SAMPLES", 64)
        assert snapshot(run_sampling(tasks, sampler)) == whole


def test_working_set_does_not_grow_with_the_island():
    """Blocks bound the kernel's memory: three times the jobs, each
    with a 5,000-boundary schedule, need the same transient memory
    (traced peak less the results held), a few dozen block-sized
    arrays."""
    import tracemalloc

    import repro.monitor.sampling as sampling

    duration = 50_010.0
    schedule = PhaseSchedule(np.arange(1, 5001) * 10.0, True, duration)
    rng = np.random.default_rng(1)
    processes = {
        name: build_metric_process(rng, 50.0, 0.2, 90.0, schedule, 3)
        for name in ("sm", "mem_bw", "mem_size", "pcie_tx", "pcie_rx")
    }
    sampler = NvidiaSmiSampler(0.1, 256, max_series_samples=100)

    def transient_bytes(num_jobs):
        tasks = [
            SamplingTask(
                job_id,
                JobActivityModel(job_id, 1, duration, schedule, processes, np.ones(1),
                                 PowerModel(25.0, 1.25, 0.4, 0.03, 0.2)),
                duration,
                sampler.draw_offsets(duration, 1, rng),
                False,
            )
            for job_id in range(num_jobs)
        ]
        tracemalloc.start()
        try:
            results = run_sampling(tasks, sampler)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == num_jobs
        return peak - held

    small, large = transient_bytes(256), transient_bytes(768)
    assert large < 1.2 * small, (small, large)
    assert large < 64 * sampling._BLOCK_SAMPLES * 8, large


def _odd_model(rng, job_id, num_harmonics=4, level=None, burst_level=None, windows=None,
               scale=None, power=None):
    """A three-GPU model whose processes can be pushed off the
    generator's ranges: a negative or negative-zero level, a burst
    level below zero, burst windows over idle time or inverted,
    non-finite or negative GPU scales, its own power model."""
    schedule = PhaseSchedule.generate(rng, 2000.0, 0.5, 60.0, 1.69, 1.26)
    processes = {}
    for name in ("sm", "mem_bw", "mem_size", "pcie_tx", "pcie_rx"):
        process = build_metric_process(
            rng, float(rng.uniform(0, 100)), 0.3, 100.0, schedule, 5,
            num_harmonics=num_harmonics,
        )
        if level is not None:
            process.level = level
            process.amplitudes = -process.amplitudes * (0.0 if level == 0 else 1.0)
        if burst_level is not None:
            process.burst_level = burst_level
        if windows is not None:
            process.burst_windows = np.asarray(windows, dtype=float)
        processes[name] = process
    gpu_scale = rng.uniform(0.2, 1.2, 3) if scale is None else np.asarray(scale, dtype=float)
    power = PowerModel(25.0, 1.25, 0.4, 0.03, 0.2) if power is None else power
    return JobActivityModel(job_id, 3, 2000.0, schedule, processes, gpu_scale, power)


@pytest.mark.parametrize(
    "shapes, kept_series_raise",
    [
        pytest.param([dict(num_harmonics=h) for h in (2, 4, 0, 7)], False,
                     id="mixed_harmonics"),
        pytest.param([dict(level=-0.0), dict()], False, id="negative_zero_level"),
        pytest.param([dict(level=-20.0)], False, id="negative_level"),
        pytest.param([dict(level=np.inf, scale=[1.0, 0.0, 0.5])], True, id="infinite_level"),
        pytest.param(
            [dict(burst_level=-5.0, windows=[[0.0, 2000.0]]), dict(burst_level=-0.0)], True,
            id="negative_burst",
        ),
        pytest.param([dict(windows=[[300.0, 200.0], [100.0, 400.0]])], False,
                     id="inverted_window"),
        pytest.param(
            [dict(scale=[np.nan, 1.0, 0.0]), dict(scale=[-1.0, np.inf, -0.0])], True,
            id="odd_scales",
        ),
        pytest.param(
            [dict(power=PowerModel(30, 1, 0.5, 0.02, 0.25, 250)), dict(),
             dict(power=PowerModel(60.0, 2.5, 0.1, 0.3, 0.0, 180.0))], False,
            id="mixed_power_models",
        ),
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_odd_models_match_the_oracle(shapes, kept_series_raise):
    """Batches mixing harmonic counts, and processes whose gated-off
    samples are not +0.0, still match the per-job evaluation byte for
    byte — in the island batch and in a one-model batch at unsorted
    times.  A model whose kept series holds a negative or non-finite
    sample fails naming its job and metric; its summaries still match."""
    rng = np.random.default_rng(5)
    sampler = NvidiaSmiSampler(0.1, 256, max_series_samples=300)
    tasks = []
    for job_id, shape in enumerate(shapes):
        model = _odd_model(rng, job_id, **shape)
        offsets = sampler.draw_offsets(1900.0, 3, rng)
        tasks.append(SamplingTask(job_id, model, 1900.0, offsets, True))
    if kept_series_raise:
        with pytest.raises(MonitoringError, match=r"job 0 GPU \d: metric '\w+' sample"):
            run_sampling(tasks, sampler)
        tasks = [dataclasses.replace(task, keep_series=False) for task in tasks]
    for task, result in zip(tasks, run_sampling(tasks, sampler)):
        summary, series = oracle_task(sampler, task)
        for name, values in summary.items():
            assert result.summary[name].tobytes() == values.tobytes(), name
        for got, (_, metrics) in zip(result.series, series):
            for name, values in metrics.items():
                assert got.metrics[name].tobytes() == values.tobytes(), name
        times = rng.uniform(0.0, 2000.0, (3, 40))
        batched = ActivityBatch([task.model]).metrics(times)
        oracle = oracle_metrics(task.model, times)
        for name, values in oracle.items():
            assert batched[name].tobytes() == values.tobytes(), name


@pytest.mark.parametrize("duration", [0.0, 5e-324, 1e-320, 0.1, 123.456, 4e5])
def test_stratified_times_match_linspace(duration):
    """Each row is ``np.linspace``'s strata, byte for byte — including
    the zero-step branch it takes for subnormal durations."""
    offsets = np.random.default_rng(3).random((2, 256))
    edges = np.linspace(0.0, duration, 257)
    expected = edges[:-1] + offsets * np.diff(edges)
    got = stratified_times(np.full(2, duration), offsets)
    assert got.tobytes() == expected.tobytes()
