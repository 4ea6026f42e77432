"""Perf-smoke gates for the partitioned (sharded) build.

It builds the dataset at ``REPRO_BENCH_SCALE_FULL`` (a quarter of the
paper's size by default, ``1.0`` for the paper-sized dataset) as four
cluster islands, twice — once across four forked island hosts, once
serially in-process — and gates on the refactor's two load-bearing
promises:

* **bit identity** — the parallel and serial sharded builds produce
  the same dataset, table for table and series for series (this is
  the contract that makes ``--workers`` safe at any scale);
* **scaling** — on a machine with >= 4 cores the 4-worker build must
  be at least 2x faster than the serial one, and routing must keep
  the per-island job buckets balanced so no island serialises the
  pool.

A second module half gates the *streaming coupled* build that makes
10x-scale traces tractable: the same four islands, coupled through
migration interchange, built process-parallel with every island
spilling its tables to disk.  The parent k-way merges and joins the
chunk streams once, into assembled spills, without ever
materializing the dataset, and the gates pin (a) figure-grade
statistics bit-identical to the serial materialized coupled build,
(b) parent working memory, in the assemble pass and in a scan of its
output, bounded by a chunk-size constant (independent of scale),
(c) the same >= 2x speedup at 4 workers on real parallel hardware,
(d) the *entire* figure registry running off the chunk streams with
integer-count stats bit identical and the parent peak at
O(islands x chunk), (e) the spill codec: lossless round trips bit
identical, and opt-in telemetry quantisation cuts encoded spill
bytes >= 3x below the raw layout (both recorded as checked stats for
``--check``), and (f) a whole report — every figure plus
``validate_dataset`` — running no join and one phase-table fold.

``REPRO_BENCH_SCALE_FULL`` shrinks or grows the build (default
``0.25``, the scale every stored run since ``BENCH_8`` used; the
equality, balance, and memory gates hold at any scale).  It accepts
either a plain scale (``1.0`` is the paper's size) or an ``Nx``
multiple of the paper's size — ``REPRO_BENCH_SCALE_FULL=10x`` opts
into the 10x-scale streaming build that motivated the sharded spill
path.  Wall times, speedup,
migrations, and peak memory are reported via
:func:`repro.bench.record_bench_stat` so ``python -m repro bench``
records the trajectory and ``--check`` can flag regressions.

Monitoring is configured light (sparse time series): the gate targets
the workload + simulation spine, not sampling volume, and a full-scale
dense-series build would push the suite past ten minutes per run.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np
import pytest

from repro.bench import record_bench_stat
from repro.monitor.collector import MonitoringConfig
from repro.pipeline import Session
from repro.slurm.interchange import InterchangeConfig, route_requests
from repro.workload.generator import WorkloadConfig


def _parse_scale(raw: str) -> float:
    """``"0.25"`` is a scale; ``"10x"`` is ten times the paper's size
    (scale 1.0), whatever the default."""
    raw = raw.strip().lower()
    if raw.endswith("x"):
        return float(raw[:-1])
    return float(raw)


FULL_SCALE = _parse_scale(os.environ.get("REPRO_BENCH_SCALE_FULL", "0.25"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "20220214"))
PARTITIONS = 4

#: The streaming coupled gate follows REPRO_BENCH_SCALE_FULL, except
#: that at the paper's scale 1.0 it runs at 2.0 — large enough that
#: materializing in the parent would visibly dominate RSS.  ``10x``
#: opts into the 10x-scale streaming build; the 0.25 default keeps
#: the smoke affordable (every gate but the speedup is scale-free).
STREAM_SCALE = FULL_SCALE if FULL_SCALE != 1.0 else 2.0
STREAM_CHUNK_ROWS = 8192

LIGHT_MONITORING = MonitoringConfig(
    summary_samples=64, timeseries_fraction=0.004, timeseries_max_samples=500
)


def _num_nodes(scale: float = FULL_SCALE) -> int:
    # At scale 1.0 this is exactly the paper's 224-node machine.  At the
    # reduced REPRO_BENCH_SCALE_FULL values CI boxes use, grow the
    # configured machine so every island still has the 8 nodes the
    # largest (16-GPU) jobs need to place at all.
    import math

    return max(224, math.ceil(8 * PARTITIONS / scale))


def _build(workers: int) -> tuple[Session, float]:
    config = WorkloadConfig(
        scale=FULL_SCALE,
        seed=BENCH_SEED,
        num_nodes=_num_nodes(),
        partitions=PARTITIONS,
    )
    session = Session(config, LIGHT_MONITORING, workers=workers)
    start = time.perf_counter()
    session.dataset()
    return session, time.perf_counter() - start


@pytest.fixture(scope="module")
def builds():
    # Parallel first: the pool forks from a parent that has not yet
    # built anything, so each island's peak-RSS reading reflects the
    # island's own footprint instead of inherited parent pages.
    parallel_session, parallel_s = _build(workers=PARTITIONS)
    serial_session, serial_s = _build(workers=1)
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    island_rss = parallel_session.metrics.gauge(
        "repro_shard_island_peak_rss_bytes"
    ).value
    record_bench_stat(
        "scale_equivalence",
        scale=FULL_SCALE,
        partitions=PARTITIONS,
        workers=PARTITIONS,
        serial_s=round(serial_s, 3),
        parallel_s=round(parallel_s, 3),
        speedup=round(speedup, 3),
        island_peak_rss_bytes=island_rss,
        cpu_count=os.cpu_count(),
        jobs=serial_session.dataset().jobs.num_rows,
    )
    return parallel_session, serial_session, parallel_s, serial_s


def test_parallel_build_is_bit_identical(builds):
    """Gate: unconditional, at any scale and on any core count."""
    parallel_session, serial_session, _, _ = builds
    serial = serial_session.dataset()
    parallel = parallel_session.dataset()
    assert serial.jobs.to_dict() == parallel.jobs.to_dict()
    assert serial.gpu_jobs.to_dict() == parallel.gpu_jobs.to_dict()
    assert serial.per_gpu.to_dict() == parallel.per_gpu.to_dict()
    assert len(serial.timeseries) == len(parallel.timeseries)
    for series in serial.timeseries:
        twin = parallel.timeseries.get(series.job_id, series.gpu_index)
        assert np.array_equal(series.times_s, twin.times_s)
        for name, values in series.metrics.items():
            assert np.array_equal(values, twin.metrics[name]), name


def test_island_rss_stays_bounded(builds):
    """Gate: a worker holds its own island, not the merged dataset."""
    from repro.obs.runtime import peak_rss_bytes

    parallel_session, _, _, _ = builds
    island_rss = parallel_session.metrics.gauge(
        "repro_shard_island_peak_rss_bytes"
    ).value
    assert island_rss > 0
    runner_rss = peak_rss_bytes()
    assert island_rss <= max(runner_rss, 1.0), (
        f"island RSS {island_rss:.0f} exceeds the merged-build runner "
        f"peak {runner_rss:.0f}"
    )


def test_four_workers_scale(builds):
    """Gate: >= 2x at 4 workers — needs real parallel hardware."""
    _, _, parallel_s, serial_s = builds
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"speedup gate needs >= 4 cores, machine has {cores}")
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    assert speedup >= 2.0, (
        f"4-worker sharded build only {speedup:.2f}x faster than serial "
        f"({parallel_s:.1f}s vs {serial_s:.1f}s) on {cores} cores"
    )


def test_island_buckets_stay_balanced(builds):
    """Cohort routing must not let one island serialise the pool."""
    _, serial_session, _, _ = builds
    requests = [record.request for record in serial_session.dataset().records]
    buckets = route_requests(requests, PARTITIONS)
    sizes = [len(bucket) for bucket in buckets]
    mean = sum(sizes) / len(sizes)
    record_bench_stat(
        "island_balance",
        bucket_sizes=sizes,
        max_over_mean=round(max(sizes) / mean, 3),
    )
    assert min(sizes) > 0, f"empty island bucket: {sizes}"
    # GPU-hour-heavy users skew buckets; 2.5x mean still keeps the
    # pool's critical path well under serial.
    assert max(sizes) <= 2.5 * mean, f"island buckets unbalanced: {sizes}"


# ----------------------------------------------------------------------
# Streaming coupled islands: the 10x-scale build path
# ----------------------------------------------------------------------

#: Coupling for the streaming gate: migration interchange forces the
#: islands into lockstep epochs, so the build exercises the
#: process-parallel epoch protocol, not just the embarrassing fan-out.
STREAM_INTERCHANGE = InterchangeConfig(epoch_s=6 * 3600.0, migrate_after_s=3600.0)


def _traced_assemble(assemble, peak: dict):
    """Run the build's assemble pass inside a tracemalloc window and
    store its peak under ``peak["bytes"]``."""

    def traced(*args, **kwargs):
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            return assemble(*args, **kwargs)
        finally:
            _, peak["bytes"] = tracemalloc.get_traced_memory()
            tracemalloc.stop()

    return traced


@pytest.fixture(scope="module")
def assemble_peak():
    """tracemalloc peak of the streaming build's assemble pass in the
    parent — the k-way merge of the island spills, both merge-joins and
    the assembled spill — filled in by ``coupled_builds``."""
    return {}


def _stream_config() -> WorkloadConfig:
    return WorkloadConfig(
        scale=STREAM_SCALE,
        seed=BENCH_SEED,
        num_nodes=_num_nodes(STREAM_SCALE),
        partitions=PARTITIONS,
    )


@pytest.fixture(scope="module")
def coupled_builds(assemble_peak):
    """Streaming process-parallel coupled build vs serial materialized.

    The parallel build spills every island table to disk and hands the
    parent only chunk-stream handles; the serial build runs the same
    coupled lockstep in-process and materializes, providing the ground
    truth the bit-identity gate compares against.

    The parallel build runs with a live progress sink installed — the
    heartbeat pipe carrying each ``island.epoch`` event promises to be
    observation-only, so the bit-identity gate downstream is also the
    proof that watching a build never changes it.  Its assemble pass
    runs under tracemalloc (``assemble_peak``) for the parent-memory
    gate.
    """
    from repro.obs.progress import ProgressAggregator, use_sink
    from repro.pipeline import shard

    config = _stream_config()
    stream_session = Session(
        config, LIGHT_MONITORING, workers=PARTITIONS, interchange=STREAM_INTERCHANGE
    )
    progress = ProgressAggregator()
    start = time.perf_counter()
    with use_sink(progress), pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            shard,
            "_assemble",
            _traced_assemble(shard._assemble, assemble_peak),
        )
        stream = stream_session.streaming_dataset(chunk_rows=STREAM_CHUNK_ROWS)
    parallel_s = time.perf_counter() - start

    serial_session = Session(
        config, LIGHT_MONITORING, workers=1, interchange=STREAM_INTERCHANGE
    )
    start = time.perf_counter()
    serial = serial_session.dataset()
    serial_s = time.perf_counter() - start

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    record_bench_stat(
        "stream_coupled",
        scale=STREAM_SCALE,
        partitions=PARTITIONS,
        workers=PARTITIONS,
        chunk_rows=STREAM_CHUNK_ROWS,
        serial_s=round(serial_s, 3),
        parallel_s=round(parallel_s, 3),
        speedup=round(speedup, 3),
        rows_per_s=round(serial.jobs.num_rows / max(parallel_s, 1e-9), 1),
        migrations=stream_session.metrics.counter_value(
            "repro_shard_migrations_total"
        ),
        island_peak_rss_bytes=stream_session.metrics.gauge(
            "repro_shard_island_peak_rss_bytes"
        ).value,
        heartbeats=progress.updates,
        cpu_count=os.cpu_count(),
        jobs=serial.jobs.num_rows,
    )
    return stream_session, serial_session, stream, serial, parallel_s, serial_s, progress


def _assert_stream_matches_table(stream_table, serial_table) -> None:
    """Chunk-wise bit-identity without materializing the stream."""
    columns = {
        name: np.asarray(serial_table[name]) for name in serial_table.column_names
    }
    offset = 0
    for chunk in stream_table.chunks():
        assert tuple(chunk.column_names) == tuple(serial_table.column_names)
        for name in chunk.column_names:
            expected = columns[name][offset : offset + chunk.num_rows]
            assert np.array_equal(np.asarray(chunk[name]), expected), name
        offset += chunk.num_rows
    assert offset == serial_table.num_rows


def test_coupled_stream_is_bit_identical(coupled_builds):
    """Gate: the streaming build is the serial build, chunk for chunk.

    Compares every table row-for-row against the serial materialized
    coupled build (same interchange, same epochs) while only ever
    holding one chunk of the stream, plus the figure-grade statistics
    the streaming view exists to serve.
    """
    _, _, stream, serial, _, _, _ = coupled_builds
    assert stream.is_streaming and not serial.is_streaming
    _assert_stream_matches_table(stream.jobs, serial.jobs)
    _assert_stream_matches_table(stream.gpu_jobs, serial.gpu_jobs)
    _assert_stream_matches_table(stream.per_gpu, serial.per_gpu)
    assert stream.num_users == serial.num_users
    assert len(stream.timeseries) == len(serial.timeseries)
    for series in serial.timeseries:
        twin = stream.timeseries.get(series.job_id, series.gpu_index)
        assert np.array_equal(series.times_s, twin.times_s)
        for name, values in series.metrics.items():
            assert np.array_equal(values, twin.metrics[name]), name

    from repro.figures import fig05

    exact = fig05.run(serial)
    streamed = fig05.run(stream)
    for ours, theirs in zip(exact.comparisons, streamed.comparisons):
        assert ours.name == theirs.name
        if "job share" in ours.name:
            assert ours.measured == theirs.measured, ours.name


def test_coupled_stream_parent_memory_bounded(coupled_builds, assemble_peak):
    """Gate: merging and consuming the streams costs O(chunk), not O(scale).

    tracemalloc sees every numpy buffer the parent touches in two
    windows: the build's assemble pass, which k-way merges the island
    spills, merge-joins the assemble verbs and spills the assembled
    tables; and a scan of those tables that sketches a figure-grade
    CDF.  The budget is a constant multiple of the chunk footprint for
    each — it does not grow with ``STREAM_SCALE``, which is the whole
    point of the spill path.
    """
    from repro.analysis.stats import column_ecdf, column_fraction

    _, _, stream, _, _, _, _ = coupled_builds
    # ~50 columns of float64 per row is a generous upper bound on the
    # widest assembled table (per_gpu + job context).
    chunk_bytes = STREAM_CHUNK_ROWS * 50 * 8

    tracemalloc.start()
    tracemalloc.reset_peak()
    sketch = column_ecdf(stream.gpu_jobs, "sm_mean")
    short_share = column_fraction(
        stream.jobs, "run_time_s", lambda r: r < 3600.0
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    record_bench_stat(
        "stream_coupled_memory",
        parent_peak_tracemalloc_bytes=int(peak),
        assemble_peak_tracemalloc_bytes=int(assemble_peak["bytes"]),
        chunk_bytes=chunk_bytes,
        sketch_samples=sketch.num_samples,
    )
    assert 0.0 < short_share < 1.0
    for what, used in (("assemble", assemble_peak["bytes"]), ("consumption", peak)):
        assert used < 48 * chunk_bytes, (
            f"parent {what} peaked at {used / 1e6:.1f} MB; budget "
            f"{48 * chunk_bytes / 1e6:.1f} MB (48x one "
            f"{STREAM_CHUNK_ROWS}-row chunk)"
        )


def test_stream_report_folds_once_and_joins_nothing(coupled_builds, monkeypatch):
    """Gate: a report reads the assembled tables and one phase fold.

    Every registered figure plus ``validate_dataset`` on one streaming
    dataset makes no ``join`` kernel call — the merge-joins ran once,
    in the build's assemble pass — and folds the series store into the
    per-job phase table exactly once (fig06, fig07 and validation
    share it).
    """
    import dataclasses

    from repro.analysis import phases
    from repro.figures.registry import all_figures, run_figure
    from repro.obs import NULL_RECORDER, NULL_TRACER, MetricsRegistry
    from repro.obs import runtime as obs_runtime
    from repro.validation import validate_dataset

    _, _, stream, _, _, _, _ = coupled_builds
    folds = []
    fold = phases.job_phase_table
    monkeypatch.setattr(
        phases, "job_phase_table", lambda store: folds.append(store) or fold(store)
    )
    dataset = dataclasses.replace(stream)  # a copy: no phase table yet
    metrics = MetricsRegistry()
    start = time.perf_counter()
    with obs_runtime.use(NULL_TRACER, metrics, NULL_RECORDER):
        for figure_id in all_figures():
            run_figure(figure_id, dataset)
        results = validate_dataset(dataset)
    elapsed = time.perf_counter() - start
    joins = metrics.counter_value("repro_frame_kernel_calls_total", kernel="join")
    record_bench_stat(
        "stream_report",
        seconds=round(elapsed, 3),
        join_calls=joins,
        phase_folds=len(folds),
        checks=len(results),
    )
    assert joins == 0, f"the report ran {joins:.0f} join kernel calls"
    assert len(folds) == 1, f"the report folded the phase table {len(folds)} times"


def test_coupled_build_emits_live_heartbeats(coupled_builds):
    """Gate: every island reported live telemetry during the build.

    The ``island.epoch`` events must carry a moving epoch counter and
    the worker's peak RSS — the fields ``--progress`` renders — and
    their arrival must not have perturbed the build (the bit-identity
    gate above ran against this same watched build).
    """
    _, _, _, _, _, _, progress = coupled_builds
    islands = progress.islands()
    assert {event.island for event in islands} == set(range(PARTITIONS))
    assert progress.updates >= PARTITIONS
    for event in islands:
        assert event.attrs["epoch"] > 0
        assert event.attrs["peak_rss_bytes"] > 0
    assert "island" in progress.render()


def test_coupled_parallel_speedup(coupled_builds):
    """Gate: >= 2x at 4 workers — needs real parallel hardware."""
    _, _, _, _, parallel_s, serial_s, _ = coupled_builds
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"speedup gate needs >= 4 cores, machine has {cores}")
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    assert speedup >= 2.0, (
        f"4-worker coupled streaming build only {speedup:.2f}x faster "
        f"than serial ({parallel_s:.1f}s vs {serial_s:.1f}s) on {cores} cores"
    )


# ----------------------------------------------------------------------
# Full figure registry on the streaming build
# ----------------------------------------------------------------------

#: Comparison names whose measured value is a ratio of integer counts.
#: These accumulate exactly on the chunk stream, so the streaming build
#: must reproduce them bit for bit (float-sum shares and sketched
#: quantiles are checked to tolerance instead).
_EXACT_STAT_MARKERS = (
    "waiting <1 min",
    "waiting >1 min",
    "job share",
    "job fraction",
    "jobs with >",
    "users with",
    "unimpacted",
    "avg-impacted",
)


def test_stream_runs_full_figure_registry(coupled_builds):
    """Gate: every registered figure runs off the streaming build.

    No figure may materialize the dataset: the whole registry runs
    against the k-way merged chunk streams under one tracemalloc
    window, and the parent's peak must stay a constant multiple of
    ``islands x chunk`` — independent of ``STREAM_SCALE``.  Against the
    serial materialized ground truth, integer-count statistics are bit
    identical, everything else agrees to figure-grade tolerance, and a
    representative sketched median sits within the sketch's tracked
    rank-error bound of the exact sample ranks.
    """
    from repro.analysis.stats import column_ecdf
    from repro.figures.registry import all_figures, get_figure

    _, _, stream, serial, _, _, _ = coupled_builds
    chunk_bytes = STREAM_CHUNK_ROWS * 50 * 8

    serial_results = {fid: get_figure(fid)(serial) for fid in all_figures()}

    tracemalloc.start()
    tracemalloc.reset_peak()
    start = time.perf_counter()
    stream_results = {fid: get_figure(fid)(stream) for fid in all_figures()}
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert stream.is_streaming, "a figure producer materialized the view"
    budget = 16 * PARTITIONS * chunk_bytes
    assert peak < budget, (
        f"figure registry over the stream peaked at {peak / 1e6:.1f} MB; "
        f"budget {budget / 1e6:.1f} MB (16 x {PARTITIONS} islands x one "
        f"{STREAM_CHUNK_ROWS}-row chunk)"
    )

    exact_checked = 0
    for fid, exact in serial_results.items():
        streamed = stream_results[fid]
        assert [c.name for c in exact.comparisons] == [
            c.name for c in streamed.comparisons
        ], fid
        for ours, theirs in zip(exact.comparisons, streamed.comparisons):
            if any(marker in ours.name for marker in _EXACT_STAT_MARKERS):
                assert ours.measured == theirs.measured, f"{fid}: {ours.name}"
                exact_checked += 1
            elif np.isnan(ours.measured):
                assert np.isnan(theirs.measured), f"{fid}: {ours.name}"
            else:
                assert theirs.measured == pytest.approx(
                    ours.measured, rel=0.05, abs=0.75
                ), f"{fid}: {ours.name}"
    assert exact_checked >= 8, "exact-stat marker list matched too few stats"

    sketch = column_ecdf(stream.per_gpu, "power_w_mean")
    exact_values = np.asarray(serial.per_gpu["power_w_mean"], dtype=float)
    exact_values = np.sort(exact_values[np.isfinite(exact_values)])
    bound = sketch.rank_error_bound()
    true_rank = np.searchsorted(exact_values, sketch.median(), side="right")
    assert abs(true_rank - 0.5 * exact_values.size) <= bound + 1, (
        f"sketched median at rank {true_rank}, target "
        f"{0.5 * exact_values.size:.0f}, bound {bound}"
    )

    record_bench_stat(
        "stream_figure_registry",
        figures=len(stream_results),
        exact_stats=exact_checked,
        parent_peak_tracemalloc_bytes=int(peak),
        chunk_bytes=chunk_bytes,
        seconds=round(elapsed, 3),
        rank_error_bound=int(bound),
    )


# ----------------------------------------------------------------------
# Spill codec: lossless bit identity, opt-in quantisation ratio
# ----------------------------------------------------------------------


def test_spill_codec_compresses_telemetry(coupled_builds, tmp_path_factory):
    """Gate: the codec pays for the spill path on the streaming build.

    Re-spilling the streaming build's widest table through the default
    lossless codec must round-trip bit identically, chunk for chunk.
    Opting the telemetry summary columns (``*_min/_mean/_max``) into
    quantisation must cut the encoded spill bytes at least 3x below
    the raw layout while staying within ``QUANT_STEP / 2`` of every
    original sample.  Both ratios and the encoded byte volumes are
    recorded as checked stats, so ``repro bench --check`` flags a
    codec or schema change that silently bloats the spill.
    """
    from pathlib import Path

    from repro.frame.codec import QUANT_STEP, SpillCodec
    from repro.frame.io import table_raw_bytes

    _, _, stream, _, _, _, _ = coupled_builds
    base = tmp_path_factory.mktemp("spill-codec")
    source = stream.per_gpu

    lossless_dir = base / "lossless"
    lossless = source.spill(lossless_dir)
    raw_bytes = 0
    for original, decoded in zip(source.chunks(), lossless.chunks()):
        raw_bytes += table_raw_bytes(original)
        assert tuple(original.column_names) == tuple(decoded.column_names)
        for name in original.column_names:
            np.testing.assert_array_equal(
                np.asarray(decoded[name]), np.asarray(original[name]), name
            )
    lossless_bytes = sum(p.stat().st_size for p in Path(lossless_dir).glob("*.npz"))

    telemetry = tuple(
        name
        for name in source.column_names
        if name.rsplit("_", 1)[-1] in ("min", "mean", "max")
    )
    assert telemetry, "per_gpu lost its telemetry summary columns"
    quant_dir = base / "quantised"
    quantised = source.spill(quant_dir, codec=SpillCodec(quantise=telemetry))
    for original, decoded in zip(source.chunks(), quantised.chunks()):
        for name in original.column_names:
            expected = np.asarray(original[name])
            got = np.asarray(decoded[name])
            if name in telemetry:
                finite = np.isfinite(expected.astype(float))
                assert np.all(
                    np.abs(got[finite].astype(float) - expected[finite].astype(float))
                    <= QUANT_STEP / 2 + 1e-9
                ), name
            else:
                np.testing.assert_array_equal(got, expected, name)
    quantised_bytes = sum(p.stat().st_size for p in Path(quant_dir).glob("*.npz"))

    lossless_ratio = raw_bytes / lossless_bytes if lossless_bytes else 0.0
    quantised_ratio = raw_bytes / quantised_bytes if quantised_bytes else 0.0
    record_bench_stat(
        "spill_codec",
        raw_bytes=raw_bytes,
        lossless_spill_bytes=lossless_bytes,
        quantised_spill_bytes=quantised_bytes,
        lossless_compression_ratio=round(lossless_ratio, 3),
        compression_ratio=round(quantised_ratio, 3),
    )
    assert lossless_ratio > 1.0, "lossless codec failed to beat the raw layout"
    assert quantised_ratio >= 3.0, (
        f"opt-in quantisation only reached {quantised_ratio:.2f}x over raw "
        f"({quantised_bytes} vs {raw_bytes} bytes); the spill codec no "
        "longer pays for the streaming build"
    )
