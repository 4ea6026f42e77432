"""End-to-end streaming integration: producers and consumers agree
with the materialized pipeline.

Each chunked emission path (the one-island spill build, the
time-series store) must stay bit-identical to its materialized
output, and *every* figure producer in the registry must
accept ``dataset.streaming_view()`` and reproduce the materialized
comparisons — bit-for-bit for integer-count fractions, within the
sketch's documented rank error for quantiles.  fig06 additionally gets
an oracle-parity gate: its NaN filtering must retain identical sample
sets on both representations.
"""

import numpy as np
import pytest

from repro.frame import ChunkedTable


class TestCollectorChunking:
    def test_chunked_collector_is_bit_identical(self):
        """The one-island streaming build spills the island's tables in
        64-row chunks and k-way merges them back; its tables equal the
        materialized build's."""
        from repro.pipeline import Session
        from repro.workload.generator import WorkloadConfig

        config = WorkloadConfig(scale=0.01, seed=303)
        baseline = Session(config).dataset()
        chunked = Session(config).streaming_dataset(chunk_rows=64)
        for name in ("per_gpu", "gpu_jobs", "jobs"):
            assert (
                getattr(chunked, name).materialize().to_dict()
                == getattr(baseline, name).to_dict()
            ), name


class TestTimeSeriesScan:
    def test_scan_table_matches_series(self, small_dataset):
        store = small_dataset.timeseries
        chunked = store.scan_table(chunk_rows=512)
        assert chunked.num_rows == store.total_samples()
        table = chunked.materialize()
        assert table.num_rows == store.total_samples()
        # Spot-check one series round-trips exactly.
        series = next(iter(store))
        rows = table.filter(
            lambda t: (np.asarray(t["job_id"]) == series.job_id)
            & (np.asarray(t["gpu_index"]) == series.gpu_index)
        )
        np.testing.assert_array_equal(np.asarray(rows["time_s"]), series.times_s)
        np.testing.assert_array_equal(np.asarray(rows["sm"]), series.metric("sm"))

    def test_streaming_moments_over_samples(self, small_dataset):
        store = small_dataset.timeseries
        if store.total_samples() == 0:
            pytest.skip("no dense series at this scale")
        moments = store.scan_table(chunk_rows=256).moments("sm")
        materialized = np.concatenate([s.metric("sm") for s in store])
        assert moments.count == materialized.size
        assert moments.mean() == pytest.approx(materialized.mean(), rel=1e-9)


class TestStreamingFigures:
    def test_fig03_streaming_view(self, small_dataset):
        from repro.figures import fig03

        exact = fig03.run(small_dataset)
        streamed = fig03.run(small_dataset.streaming_view(chunk_rows=256))
        for ours, theirs in zip(exact.comparisons, streamed.comparisons):
            assert ours.name == theirs.name
            if "<1 min" in ours.name or ">1 min" in ours.name:
                assert ours.measured == theirs.measured, ours.name
            else:
                assert theirs.measured == pytest.approx(
                    ours.measured, rel=0.05, abs=0.75
                ), ours.name

    def test_fig04_streaming_view(self, small_dataset):
        from repro.figures import fig04

        exact = fig04.run(small_dataset)
        streamed = fig04.run(small_dataset.streaming_view(chunk_rows=256))
        for ours, theirs in zip(exact.comparisons, streamed.comparisons):
            assert theirs.measured == pytest.approx(
                ours.measured, rel=0.05, abs=0.75
            ), ours.name

    def test_streaming_view_shares_backing_data(self, small_dataset):
        view = small_dataset.streaming_view(chunk_rows=128)
        assert isinstance(view.jobs, ChunkedTable)
        assert isinstance(view.gpu_jobs, ChunkedTable)
        assert view.timeseries is small_dataset.timeseries
        # The view presents the same rows in ascending job_id (the
        # sharded builds' merge order), not the completion order the
        # materialized table happens to carry.
        assert (
            view.gpu_jobs.materialize().to_dict()
            == small_dataset.gpu_jobs.sort_by("job_id").to_dict()
        )

    def test_figure_plots_accept_sketches(self, small_dataset):
        """The SVG renderer only needs values/probabilities, which the
        sketch duck-types."""
        from repro.figures import fig04
        from repro.figures.plots import figure_charts

        result = fig04.run(small_dataset.streaming_view(chunk_rows=256))
        charts = figure_charts(result)
        assert charts


class TestColumnHelpersDispatch:
    def test_column_ecdf_exact_vs_sketch(self, small_dataset):
        from repro.analysis.stats import column_ecdf

        exact = column_ecdf(small_dataset.gpu_jobs, "sm_mean")
        sketched = column_ecdf(
            small_dataset.gpu_jobs.to_chunked(chunk_rows=64), "sm_mean"
        )
        assert sketched.num_samples == exact.num_samples
        assert sketched.median() == pytest.approx(exact.median(), rel=0.05, abs=0.75)

    def test_column_fraction_bit_exact(self, small_dataset):
        from repro.analysis.stats import column_fraction

        exact = column_fraction(
            small_dataset.gpu_jobs, "run_time_s", lambda v: v > 300.0
        )
        streamed = column_fraction(
            small_dataset.gpu_jobs.to_chunked(chunk_rows=31),
            "run_time_s",
            lambda v: v > 300.0,
        )
        assert exact == streamed


class TestFig06OracleParity:
    """fig06 on ``streaming_view()`` vs the materialized oracle.

    fig06's interval-CoV sample sets are filtered with the same
    finite-mask :func:`repro.analysis.stats.ecdf` applies internally,
    so both representations must *retain identical sample sets* — not
    just agree to tolerance.  The phase table itself is folded from the
    shared series store, so it must be bit identical too.
    """

    def test_retained_samples_identical(self, medium_dataset):
        from repro.figures import fig06

        exact = fig06.run(medium_dataset)
        streamed = fig06.run(medium_dataset.streaming_view(chunk_rows=512))

        exact_phases = exact.series["phase_table"]
        stream_phases = streamed.series["phase_table"]
        assert stream_phases.num_rows == exact_phases.num_rows
        for name in exact_phases.column_names:
            np.testing.assert_array_equal(
                np.asarray(stream_phases[name]),
                np.asarray(exact_phases[name]),
                err_msg=name,
            )

        assert [c.name for c in exact.comparisons] == [
            c.name for c in streamed.comparisons
        ]
        for ours, theirs in zip(exact.comparisons, streamed.comparisons):
            if np.isnan(ours.measured):
                assert np.isnan(theirs.measured), ours.name
            else:
                assert ours.measured == theirs.measured, ours.name

    def test_cov_gates_match_ecdf_drop(self, medium_dataset):
        """Among multi-interval jobs, fig06's explicit finite mask
        retains exactly the samples ``ecdf`` would keep internally."""
        from repro.analysis.phases import job_phase_table
        from repro.analysis.stats import ecdf

        phases = job_phase_table(medium_dataset.timeseries)
        cov = np.asarray(phases["active_interval_cov"], dtype=float)
        multi = cov[np.asarray(phases["num_active_intervals"]) >= 2]
        explicit = np.sort(multi[np.isfinite(multi)])
        assert explicit.size, "medium dataset lost its multi-interval jobs"
        np.testing.assert_array_equal(np.asarray(ecdf(multi).values), explicit)


class TestFullRegistryStreaming:
    """Every registered figure must accept ``dataset.streaming_view()``
    and agree with the materialized run: bit identical for
    integer-count ratios, figure-grade tolerance elsewhere."""

    #: Comparison-name substrings whose values are ratios of integer
    #: counts (exact on the chunk stream by construction).
    EXACT_MARKERS = (
        "waiting <1 min",
        "waiting >1 min",
        "job share",
        "job fraction",
        "jobs with >",
        "users with",
        "unimpacted",
        "avg-impacted",
    )

    def test_registry_parity(self, medium_dataset):
        from repro.figures.registry import all_figures, get_figure

        view = medium_dataset.streaming_view(chunk_rows=1024)
        for fid in all_figures():
            exact = get_figure(fid)(medium_dataset)
            streamed = get_figure(fid)(view)
            assert [c.name for c in exact.comparisons] == [
                c.name for c in streamed.comparisons
            ], fid
            for ours, theirs in zip(exact.comparisons, streamed.comparisons):
                label = f"{fid}: {ours.name}"
                if any(marker in ours.name for marker in self.EXACT_MARKERS):
                    assert ours.measured == theirs.measured, label
                elif np.isnan(ours.measured):
                    assert np.isnan(theirs.measured), label
                else:
                    assert theirs.measured == pytest.approx(
                        ours.measured, rel=0.15, abs=0.05
                    ), label
        assert view.is_streaming, "a figure producer materialized the view"

    def test_registry_parity_one_chunk(self, medium_dataset):
        """A view of one chunk per table runs the same folds on the same
        rows as the materialized dataset, so every comparison agrees up
        to float summation order (the view is job-id sorted)."""
        from repro.figures.registry import all_figures, get_figure

        rows = max(
            medium_dataset.jobs.num_rows,
            medium_dataset.gpu_jobs.num_rows,
            medium_dataset.per_gpu.num_rows,
        )
        view = medium_dataset.streaming_view(chunk_rows=rows)
        for fid in all_figures():
            exact = get_figure(fid)(medium_dataset)
            streamed = get_figure(fid)(view)
            assert [c.name for c in exact.comparisons] == [
                c.name for c in streamed.comparisons
            ], fid
            for ours, theirs in zip(exact.comparisons, streamed.comparisons):
                assert theirs.measured == pytest.approx(
                    ours.measured, rel=1e-12, nan_ok=True
                ), f"{fid}: {ours.name}"
        assert view.is_streaming, "a figure producer materialized the view"
