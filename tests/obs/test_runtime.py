"""Ambient runtime scoping, the frame-kernel hook, and the
`PipelineInstrumentation` adapter (nested stages must not double-count
in ``total_seconds``)."""

import time

from repro.obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer
from repro.obs import runtime
from repro.pipeline.instrument import PipelineInstrumentation


class TestRuntimeScoping:
    def test_defaults_are_null(self):
        assert runtime.get_tracer() is NULL_TRACER
        assert runtime.get_metrics() is NULL_METRICS

    def test_use_scopes_and_restores(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        with runtime.use(tracer, metrics):
            assert runtime.get_tracer() is tracer
            assert runtime.get_metrics() is metrics
            inner_t = Tracer()
            with runtime.use(inner_t, None):
                assert runtime.get_tracer() is inner_t
                assert runtime.get_metrics() is NULL_METRICS
            assert runtime.get_tracer() is tracer
        assert runtime.get_tracer() is NULL_TRACER

    def test_use_restores_on_exception(self):
        try:
            with runtime.use(Tracer(), MetricsRegistry()):
                raise RuntimeError
        except RuntimeError:
            pass
        assert runtime.get_tracer() is NULL_TRACER


class TestRecordKernel:
    def test_disabled_is_silent(self):
        runtime.record_kernel("aggregate", 100)  # must not raise or allocate

    def test_enabled_counts_calls_and_rows(self):
        metrics = MetricsRegistry()
        with runtime.use(None, metrics):
            runtime.record_kernel("aggregate", 100)
            runtime.record_kernel("aggregate", 50)
            runtime.record_kernel("join", 10)
        assert metrics.counter_value(
            "repro_frame_kernel_calls_total", kernel="aggregate") == 2
        assert metrics.counter_value(
            "repro_frame_kernel_rows_total", kernel="aggregate") == 150
        assert metrics.counter_value(
            "repro_frame_kernel_calls_total", kernel="join") == 1

    def test_frame_kernels_report_through_ambient_metrics(self):
        from repro.frame import Table

        table = Table({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        metrics = MetricsRegistry()
        with runtime.use(None, metrics):
            table.group_by("k").aggregate({"v": "sum"})
            table.value_counts("k")
        assert metrics.counter_value(
            "repro_frame_kernel_calls_total", kernel="aggregate") == 1
        assert metrics.counter_value(
            "repro_frame_kernel_rows_total", kernel="value_counts") == 3


class TestInstrumentationAdapter:
    def test_total_seconds_ignores_nested_stages(self):
        inst = PipelineInstrumentation(Tracer(), MetricsRegistry())
        with inst.stage("outer"):
            time.sleep(0.02)
            with inst.stage("inner"):
                time.sleep(0.02)
        outer = next(r for r in inst.stages if r.name == "outer")
        inner = next(r for r in inst.stages if r.name == "inner")
        assert outer.depth == 0
        assert inner.depth == 1
        # the satellite fix: only top-level stages are summed, so the
        # total can never exceed wall time
        assert inst.total_seconds() == outer.seconds
        assert inst.total_seconds() < outer.seconds + inner.seconds

    def test_stage_record_agrees_with_its_span(self):
        inst = PipelineInstrumentation(Tracer(), MetricsRegistry())
        with inst.stage("workload") as probe:
            probe.rows = 10
        (record,) = inst.stages
        (span,) = inst.tracer.finished()
        assert (span.name, span.category, span.attrs["rows"]) == ("workload", "pipeline", 10)
        assert (record.name, record.rows) == ("workload", 10)
        # The record's interval encloses the span's.  A span rounds its
        # ends to whole microseconds of an epoch-offset clock, so allow
        # two microseconds.
        assert span.duration_us / 1e6 <= record.seconds + 2e-6

    def test_default_instrumentation_is_null_backed(self):
        inst = PipelineInstrumentation()
        with inst.stage("workload"):
            pass
        assert inst.stage_names() == ["workload"]
        assert inst.tracer.finished() == []
