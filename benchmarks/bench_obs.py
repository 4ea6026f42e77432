"""Observability overhead gates.

`repro.obs` promises that *disabled* observability — the default for
every bare library call — costs effectively nothing.  The frame
kernels pay one ``record_kernel`` call per entry point or folded chunk
(a module-level read, an ``enabled`` attribute load, and a branch) and
instrumented blocks pay one shared null span.  These benchmarks hold
that promise to numbers:

* the disabled hook cost of the :data:`HOOK_CALLS_PER_AGGREGATE` hooks
  one ``aggregate`` call makes must stay under 3% of the aggregate
  hot-loop time on the ``bench_frame`` workload;
* the null span enter/exit must stay in the same no-op cost class as
  the hook, so wrapping more call sites cannot change the contract.

The hook cost is measured directly (a tight loop over the no-op calls)
rather than by differencing two timings of the full kernel — the
difference of two ~ms measurements is noise-dominated, while the
per-call cost of the no-op path is stable to nanoseconds.
"""

import time

import numpy as np

from repro.bench import record_bench_stat
from repro.frame import Table
from repro.obs import NULL_TRACER
from repro.obs.runtime import get_metrics, record_kernel

NUM_ROWS = 50_000
AGG_SPEC = {
    "m00": ["mean", "sum", "max"],
    "m01": ["mean", "std"],
    "job_id": ["count"],
}

#: Disabled-observability overhead budget on the aggregate hot loop.
MAX_DISABLED_OVERHEAD = 0.03

#: obs calls one table ``aggregate`` (a one-chunk fold) makes: one
#: ``record_kernel`` per chunk, the ``frame.stream.aggregate`` span, the
#: ``repro_frame_stream_*`` counters and ``record_peak_rss``.
HOOK_CALLS_PER_AGGREGATE = 4


def _bench_table() -> Table:
    rng = np.random.default_rng(20220214)
    return Table(
        {
            "job_id": np.arange(NUM_ROWS, dtype=np.int64),
            "num_gpus": rng.choice(np.array([1, 2, 4, 8, 16]), NUM_ROWS),
            "m00": rng.random(NUM_ROWS) * 100.0,
            "m01": rng.random(NUM_ROWS) * 100.0,
        }
    )


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_observability_is_disabled_by_default():
    assert get_metrics().enabled is False
    assert NULL_TRACER.enabled is False


def test_disabled_hook_overhead_on_aggregate_under_3pct():
    """The null ``record_kernel`` path costs <3% of one aggregate."""
    table = _bench_table()
    grouped = table.group_by("num_gpus")
    aggregate_s = _best_of(lambda: grouped.aggregate(AGG_SPEC))

    calls = 20_000

    def hook_loop():
        for _ in range(calls):
            record_kernel("aggregate", NUM_ROWS)

    hook_per_call_s = _best_of(hook_loop) / calls

    overhead = hook_per_call_s * HOOK_CALLS_PER_AGGREGATE / aggregate_s
    record_bench_stat(
        "disabled_hook",
        ns_per_call=hook_per_call_s * 1e9,
        overhead_frac=overhead,
        aggregate_rows_per_s=NUM_ROWS / aggregate_s,
    )
    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled obs hook: {hook_per_call_s * 1e9:.0f} ns/call on a "
        f"{aggregate_s * 1e3:.2f} ms aggregate = {overhead:.2%} "
        f"(budget {MAX_DISABLED_OVERHEAD:.0%})"
    )


def test_null_span_stays_in_the_noop_cost_class():
    """Entering/exiting the shared null span is a no-op, not a span.

    Gate it against the same 3% budget on the aggregate loop so adding
    a ``with tracer.span(...)`` to a kernel-sized block can never
    break the overhead contract.
    """
    table = _bench_table()
    grouped = table.group_by("num_gpus")
    aggregate_s = _best_of(lambda: grouped.aggregate(AGG_SPEC))

    calls = 20_000

    def span_loop():
        for _ in range(calls):
            with NULL_TRACER.span("x", category="bench", rows=1):
                pass

    span_per_call_s = _best_of(span_loop) / calls
    overhead = span_per_call_s / aggregate_s
    record_bench_stat(
        "null_span",
        ns_per_call=span_per_call_s * 1e9,
        overhead_frac=overhead,
    )
    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"null span: {span_per_call_s * 1e9:.0f} ns/enter-exit on a "
        f"{aggregate_s * 1e3:.2f} ms aggregate = {overhead:.2%} "
        f"(budget {MAX_DISABLED_OVERHEAD:.0%})"
    )


def test_disabled_event_emission_stays_in_the_noop_cost_class():
    """``record_event`` against the null recorder is a no-op.

    The flight recorder rides the same ambient-runtime pattern as the
    metrics hook: one module-global read, one ``enabled`` attribute
    load, one branch.  Gate it against the same 3% budget so wiring
    event emission into cache/epoch/merge paths cannot change the
    disabled-path contract.
    """
    from repro.obs.runtime import record_event

    table = _bench_table()
    grouped = table.group_by("num_gpus")
    aggregate_s = _best_of(lambda: grouped.aggregate(AGG_SPEC))

    calls = 20_000

    def event_loop():
        for _ in range(calls):
            record_event("bench", category="bench", rows=1)

    event_per_call_s = _best_of(event_loop) / calls
    overhead = event_per_call_s / aggregate_s
    record_bench_stat(
        "disabled_event",
        ns_per_call=event_per_call_s * 1e9,
        overhead_frac=overhead,
    )
    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled record_event: {event_per_call_s * 1e9:.0f} ns/call on a "
        f"{aggregate_s * 1e3:.2f} ms aggregate = {overhead:.2%} "
        f"(budget {MAX_DISABLED_OVERHEAD:.0%})"
    )


def test_enabled_aggregate_records_without_distorting_results():
    """Sanity: enabling metrics changes counters, not results."""
    from repro.obs import MetricsRegistry
    from repro.obs import runtime

    table = _bench_table()
    baseline = table.group_by("num_gpus").aggregate(AGG_SPEC)
    metrics = MetricsRegistry()
    with runtime.use(None, metrics):
        traced = table.group_by("num_gpus").aggregate(AGG_SPEC)
    assert traced.to_dict() == baseline.to_dict()
    assert metrics.counter_value(
        "repro_frame_kernel_calls_total", kernel="aggregate") == 1
    assert metrics.counter_value(
        "repro_frame_kernel_rows_total", kernel="aggregate") == NUM_ROWS
