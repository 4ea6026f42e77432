"""Streaming frame-engine gates: bounded memory, matching answers.

The out-of-core path exists so that figure-grade statistics can be
computed over series larger than what we are willing to materialize.
These gates pin both halves of that contract:

* **bounded memory** — a one-pass quantile sketch over a synthetic
  series ~25x larger than one chunk must peak (tracemalloc, which sees
  every numpy buffer) at a small multiple of the chunk size, nowhere
  near the materialized footprint;
* **matching answers** — streaming group-by aggregates on the bench
  dataset must agree with the materialized kernels: bit-for-bit for
  the exact verbs (count/min/max), within float tolerance for
  sum/mean/std (per-chunk partials legitimately re-associate the
  reduction), and within the sketch's *tracked* rank-error bound for
  quantiles;
* **figure grade** — fig03–05 comparisons match across
  representations, and fig06+fig09 run over a ~25-chunk
  ``streaming_view()`` with bit-identical counts/retained samples,
  rank-bounded medians, and a peak under eight chunk footprints.

* **spill layout** — the bench dataset's ``per_gpu`` chunks and series
  spill as one stored (not deflated) zip member per chunk and per
  series, so a re-read is one member read each; both re-read rates and
  the series write rate are recorded.

``REPRO_BENCH_FULL=1`` adds a scale-0.5 end-to-end smoke: build, spill
``per_gpu`` to disk, and stream fig04's five CDFs off the spill under
a tracemalloc budget.

Under ``python -m repro bench`` the suite reports throughput and peak
memory via :func:`repro.bench.record_bench_stat` into BENCH_<n>.json.
"""

import json
import os
import time
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.bench import record_bench_stat
from repro.frame import ChunkedTable, QuantileSketch, Table

CHUNK_ROWS = 65536
NUM_CHUNKS = 48
CHUNK_BYTES = CHUNK_ROWS * 8  # one float64 column per chunk


def _synthetic_chunks():
    """Deterministic lognormal chunks, produced lazily per iteration."""
    rng = np.random.default_rng(20220214)
    for _ in range(NUM_CHUNKS):
        yield Table({"v": rng.lognormal(mean=3.0, sigma=1.2, size=CHUNK_ROWS)})


def test_sketch_one_pass_bounded_memory():
    """One-pass percentiles over ~3.1M samples peak far below the
    materialized footprint, and land within the tracked rank bound."""
    chunked = ChunkedTable(_synthetic_chunks, num_rows=NUM_CHUNKS * CHUNK_ROWS)

    tracemalloc.start()
    tracemalloc.reset_peak()
    start = time.perf_counter()
    sketch = chunked.sketch("v")
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    total_rows = NUM_CHUNKS * CHUNK_ROWS
    materialized_bytes = total_rows * 8
    budget = 8 * CHUNK_BYTES  # a handful of in-flight chunk-sized buffers
    assert peak < budget, (
        f"one-pass sketch peaked at {peak / 1e6:.1f} MB; budget "
        f"{budget / 1e6:.1f} MB (materialized would be "
        f"{materialized_bytes / 1e6:.1f} MB)"
    )
    assert sketch.num_samples == total_rows

    # Accuracy against the true ranks (materialized only *after* the
    # memory gate): the sketch's own error bound must hold.
    values = np.sort(np.concatenate([np.asarray(c["v"]) for c in chunked.chunks()]))
    bound = sketch.rank_error_bound()
    assert bound < 0.02 * total_rows, f"rank bound {bound} too loose"
    for p in (0.25, 0.5, 0.75, 0.95, 0.99):
        estimate = sketch.quantile(p)
        true_rank = np.searchsorted(values, estimate, side="right")
        assert abs(true_rank - p * total_rows) <= bound + 1, (
            f"q{p}: estimate {estimate} at rank {true_rank}, "
            f"target {p * total_rows:.0f}, bound {bound}"
        )

    record_bench_stat(
        "stream_sketch",
        rows=total_rows,
        rows_per_s=round(total_rows / elapsed, 1),
        peak_tracemalloc_bytes=int(peak),
        materialized_bytes=materialized_bytes,
        rank_error_bound=int(bound),
    )


def test_streaming_aggregate_matches_materialized(dataset):
    """Chunked group-by on the bench dataset vs the vectorized kernel:
    exact verbs bit-for-bit, accumulated verbs within tolerance."""
    spec = {"run_time_s": ("sum", "count", "mean", "min", "max", "std")}
    materialized = dataset.gpu_jobs.group_by("user").aggregate(spec)

    start = time.perf_counter()
    streamed = (
        dataset.gpu_jobs.to_chunked(chunk_rows=512).group_by("user").aggregate(spec)
    )
    elapsed = time.perf_counter() - start

    assert list(streamed["user"]) == list(materialized["user"])
    for exact in ("run_time_s_count", "run_time_s_min", "run_time_s_max"):
        assert np.array_equal(
            np.asarray(streamed[exact]), np.asarray(materialized[exact])
        ), exact
    for accumulated in ("run_time_s_sum", "run_time_s_mean", "run_time_s_std"):
        np.testing.assert_allclose(
            np.asarray(streamed[accumulated], dtype=float),
            np.asarray(materialized[accumulated], dtype=float),
            rtol=1e-9,
            err_msg=accumulated,
        )

    counts = dataset.gpu_jobs.to_chunked(chunk_rows=512).value_counts(
        "lifecycle_class"
    )
    naive = {}
    for label in dataset.gpu_jobs["lifecycle_class"]:
        naive[label] = naive.get(label, 0) + 1
    assert dict(zip(counts["lifecycle_class"], counts["count"])) == naive

    record_bench_stat(
        "stream_aggregate",
        rows=dataset.gpu_jobs.num_rows,
        groups=streamed.num_rows,
        rows_per_s=round(dataset.gpu_jobs.num_rows / max(elapsed, 1e-9), 1),
    )


def test_streaming_figures_match_materialized(dataset):
    """fig03/fig04/fig05 on ``streaming_view()``: threshold fractions
    and interface shares are bit-identical, sketched quantiles within
    the paper-grade tolerance."""
    from repro.figures import fig03, fig04, fig05

    exact03 = fig03.run(dataset)
    exact04 = fig04.run(dataset)
    exact05 = fig05.run(dataset)
    view = dataset.streaming_view(chunk_rows=1024)
    stream03 = fig03.run(view)
    stream04 = fig04.run(view)
    stream05 = fig05.run(view)

    for exact, streamed in (
        (exact03, stream03),
        (exact04, stream04),
        (exact05, stream05),
    ):
        for ours, theirs in zip(exact.comparisons, streamed.comparisons):
            assert ours.name == theirs.name
            exact_kinds = ("waiting <1 min", "waiting >1 min", "job share")
            if any(kind in ours.name for kind in exact_kinds):
                # Integer-count ratios accumulate exactly: bit-exact.
                assert ours.measured == theirs.measured, ours.name
            else:
                assert theirs.measured == pytest.approx(
                    ours.measured, rel=0.05, abs=0.75
                ), ours.name


def test_streaming_fig06_fig09_figure_grade(dataset):
    """fig06/fig09 over a ~25-chunk streaming view, figure grade.

    fig06 folds the series store (shared by both representations), so
    its phase table and every comparison must be *bit-identical* on the
    streaming path.  fig09's cap-impact fractions are integer-count
    ratios (bit-identical); its power medians come from the quantile
    sketch and must sit within the sketch's tracked rank-error bound
    of the exact distribution.  The whole streaming run must peak
    (tracemalloc) under eight chunk footprints, where one footprint is
    an in-flight chunk from each of the three chunked job tables.
    """
    from repro.figures import fig06, fig09

    chunk_rows = max(256, dataset.gpu_jobs.num_rows // 25)
    view = dataset.streaming_view(chunk_rows=chunk_rows)
    width = sum(
        len(table.column_names)
        for table in (dataset.jobs, dataset.gpu_jobs, dataset.per_gpu)
    )
    chunk_bytes = chunk_rows * width * 8

    exact06 = fig06.run(dataset)
    exact09 = fig09.run(dataset)

    tracemalloc.start()
    tracemalloc.reset_peak()
    start = time.perf_counter()
    stream06 = fig06.run(view)
    stream09 = fig09.run(view)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert peak < 8 * chunk_bytes, (
        f"fig06+fig09 streaming peaked at {peak / 1e6:.2f} MB; budget "
        f"{8 * chunk_bytes / 1e6:.2f} MB (8x one {chunk_rows}-row "
        "chunk of all three tables)"
    )

    # fig06: same store, same fold — identical retained sample set.
    exact_phases = exact06.series["phase_table"]
    stream_phases = stream06.series["phase_table"]
    assert stream_phases.num_rows == exact_phases.num_rows
    for name in exact_phases.column_names:
        np.testing.assert_array_equal(
            np.asarray(stream_phases[name]), np.asarray(exact_phases[name]), name
        )
    for ours, theirs in zip(exact06.comparisons, stream06.comparisons):
        assert ours.name == theirs.name
        assert ours.measured == theirs.measured or (
            np.isnan(ours.measured) and np.isnan(theirs.measured)
        ), ours.name

    # fig09: integer-count fractions bit-identical, sketched medians
    # within the tracked rank bound of the exact sample ranks.
    for ours, theirs in zip(exact09.comparisons, stream09.comparisons):
        assert ours.name == theirs.name
        if "cap" in ours.name:
            assert ours.measured == theirs.measured, ours.name
    for column, cdf in (
        ("power_w_mean", stream09.series["avg_cdf"]),
        ("power_w_max", stream09.series["max_cdf"]),
    ):
        exact_values = np.asarray(dataset.gpu_jobs[column], dtype=float)
        exact_values = np.sort(exact_values[np.isfinite(exact_values)])
        bound = cdf.rank_error_bound()
        estimate = cdf.median()
        true_rank = np.searchsorted(exact_values, estimate, side="right")
        assert abs(true_rank - 0.5 * exact_values.size) <= bound + 1, (
            f"{column} median {estimate} at rank {true_rank}, target "
            f"{0.5 * exact_values.size:.0f}, bound {bound}"
        )

    record_bench_stat(
        "stream_figures",
        rows=int(dataset.gpu_jobs.num_rows),
        chunk_rows=chunk_rows,
        peak_tracemalloc_bytes=int(peak),
        seconds=round(elapsed, 3),
    )


def _best_seconds(fn, repeats=3):
    """Best wall time of ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_spill_is_one_member_per_chunk_and_series(dataset, tmp_path):
    """Spilled table chunks hold one stored zip member each, series
    batches one stored member per series; record both re-read rates and
    the series write rate (best of 3 passes)."""
    table = dataset.per_gpu.to_chunked(chunk_rows=4096).spill(tmp_path / "per_gpu")
    for path in sorted((tmp_path / "per_gpu").glob("*.npz")):
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == ["chunk"], path.name
            assert archive.getinfo("chunk").compress_type == zipfile.ZIP_STORED, path.name
    rows = sum(chunk.num_rows for chunk in table.chunks())
    assert rows == dataset.per_gpu.num_rows
    table_s = _best_seconds(lambda: list(table.chunks()))

    targets = iter([tmp_path / f"series_write_{i}" for i in range(3)])
    write_s = _best_seconds(lambda: dataset.timeseries.spill(next(targets)))
    store = dataset.timeseries.spill(tmp_path / "series")
    manifest = json.loads((tmp_path / "series" / "manifest.json").read_text())
    members = []
    for entry in manifest["files"]:
        with zipfile.ZipFile(tmp_path / "series" / entry["name"]) as archive:
            names = archive.namelist()
            stored = all(info.compress_type == zipfile.ZIP_STORED for info in archive.infolist())
        assert names == [f"s{job}_{gpu}" for job, gpu, _ in entry["series"]], entry["name"]
        assert stored, f"{entry['name']} deflates lossless series members"
        members += names
    assert len(members) == len(dataset.timeseries)
    samples = sum(series.num_samples for series in store)
    assert samples == dataset.timeseries.total_samples()
    series_s = _best_seconds(lambda: sum(series.num_samples for series in store))
    store.close()

    record_bench_stat(
        "spill_read",
        table_rows=rows,
        table_rows_per_s=round(rows / max(table_s, 1e-9), 1),
        series=len(members),
        series_rows=samples,
        series_rows_per_s=round(samples / max(series_s, 1e-9), 1),
    )
    record_bench_stat(
        "spill_write",
        series=len(members),
        series_rows=samples,
        series_rows_per_s=round(samples / max(write_s, 1e-9), 1),
    )


@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_FULL"),
    reason="set REPRO_BENCH_FULL=1 for the scale-0.5 out-of-core smoke",
)
def test_full_scale_spill_and_stream(tmp_path):
    """Scale-0.5 build: spill per_gpu to disk, stream fig04 off the
    spill with bounded working memory."""
    from repro.analysis.stats import column_ecdf
    from repro.pipeline import Session
    from repro.workload.generator import WorkloadConfig

    dataset = Session(WorkloadConfig(scale=0.5, seed=20220214)).dataset()
    spilled = dataset.per_gpu.to_chunked(chunk_rows=4096).spill(tmp_path / "per_gpu")
    chunk_budget_bytes = 4096 * len(dataset.per_gpu.column_names) * 8

    tracemalloc.start()
    tracemalloc.reset_peak()
    sketch = column_ecdf(spilled, "sm_mean")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert sketch.num_samples == dataset.per_gpu.num_rows
    assert peak < 16 * chunk_budget_bytes, (
        f"streaming off the spill peaked at {peak / 1e6:.1f} MB "
        f"(chunk ~{chunk_budget_bytes / 1e6:.2f} MB)"
    )
    exact = np.asarray(dataset.per_gpu["sm_mean"], dtype=float)
    exact = exact[np.isfinite(exact)]
    assert sketch.median() == pytest.approx(float(np.median(exact)), rel=0.05, abs=1.0)
    record_bench_stat(
        "stream_full_scale",
        rows=int(dataset.per_gpu.num_rows),
        peak_tracemalloc_bytes=int(peak),
    )
