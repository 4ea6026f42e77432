"""Unit tests for the machine-readable bench runner plumbing."""

import json

import pytest

from repro.bench import (
    FIRST_BENCH_ID,
    SuiteResult,
    check_regressions,
    load_bench_history,
    next_bench_path,
    record_bench_stat,
    write_bench_json,
)


class TestNextBenchPath:
    def test_starts_at_first_id(self, tmp_path):
        assert next_bench_path(tmp_path).name == f"BENCH_{FIRST_BENCH_ID}.json"

    def test_never_overwrites_history(self, tmp_path):
        (tmp_path / "BENCH_6.json").write_text("{}")
        (tmp_path / "BENCH_11.json").write_text("{}")
        (tmp_path / "BENCH_notes.json").write_text("{}")  # ignored: not BENCH_<n>
        assert next_bench_path(tmp_path).name == "BENCH_12.json"


class TestRecordBenchStat:
    def test_noop_without_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_BENCH_STATS_DIR", raising=False)
        record_bench_stat("x", rows=1)  # must not raise or write anywhere
        assert list(tmp_path.iterdir()) == []

    def test_writes_sidecar_under_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_STATS_DIR", str(tmp_path))
        record_bench_stat("stream_sketch", rows=100, rows_per_s=5.5)
        payload = json.loads((tmp_path / "stream_sketch.json").read_text())
        assert payload == {"rows": 100, "rows_per_s": 5.5}

    def test_last_write_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_STATS_DIR", str(tmp_path))
        record_bench_stat("s", attempt=1)
        record_bench_stat("s", attempt=2)
        assert json.loads((tmp_path / "s.json").read_text()) == {"attempt": 2}


class TestWriteBenchJson:
    def test_payload_schema(self, tmp_path):
        results = [
            SuiteResult("frame", "benchmarks/bench_frame.py", True, 1.25),
            SuiteResult(
                "stream",
                "benchmarks/bench_stream.py",
                False,
                2.5,
                stats={"stream_sketch": {"rows_per_s": 1e6}},
            ),
        ]
        path = tmp_path / "BENCH_6.json"
        payload = write_bench_json(results, path)
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert payload["schema"] == 1
        assert payload["passed"] is False
        assert payload["total_seconds"] == pytest.approx(3.75)
        assert payload["runner_peak_rss_bytes"] > 0
        suites = {s["name"]: s for s in payload["suites"]}
        assert suites["frame"]["passed"] is True
        assert suites["stream"]["stats"]["stream_sketch"]["rows_per_s"] == 1e6


def write_run(root, bench_id, seconds_by_suite, scale="0.05", stats=None, scale_full=None):
    payload = {
        "schema": 1,
        "bench_scale": scale,
        **({} if scale_full is None else {"bench_scale_full": scale_full}),
        "suites": [
            {"name": name, "seconds": seconds, "stats": (stats or {}).get(name, {})}
            for name, seconds in seconds_by_suite.items()
        ],
    }
    (root / f"BENCH_{bench_id}.json").write_text(json.dumps(payload))


class TestScaleKnobs:
    """Runs compare only when both scale knobs match; a run without the
    ``bench_scale_full`` stamp ran the scale suite at the then default
    1.0, and a run that sets no knob now stamps the 0.25 default."""

    def test_both_knobs_stamped(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE_FULL", "0.25")
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        payload = write_bench_json([], tmp_path / "BENCH_6.json")
        assert (payload["bench_scale"], payload["bench_scale_full"]) == ("0.05", "0.25")
        monkeypatch.delenv("REPRO_BENCH_SCALE_FULL")
        assert write_bench_json([], tmp_path / "BENCH_7.json")["bench_scale_full"] == "0.25"

    def history(self, root):
        """Full-scale history (unstamped and stamped), then reduced runs."""
        write_run(root, 6, {"scale": 950.0})
        write_run(root, 7, {"scale": 940.0}, scale_full="1.0")
        write_run(root, 8, {"scale": 60.0}, scale_full="0.25")
        write_run(root, 9, {"scale": 61.0}, scale_full="0.25")

    def test_check_compares_only_matching_knobs(self, tmp_path):
        self.history(tmp_path)
        check = check_regressions(tmp_path)
        assert check.baseline_runs == 1
        assert check.checked[0]["baseline_s"] == 60.0
        # a full-scale run after the reduced ones compares with 6 and 7
        write_run(tmp_path, 10, {"scale": 2000.0})
        check = check_regressions(tmp_path)
        assert check.baseline_runs == 2
        assert check.checked[0]["baseline_s"] == 945.0
        assert not check.ok

    def test_first_reduced_run_has_no_baseline(self, tmp_path):
        write_run(tmp_path, 6, {"scale": 950.0})
        write_run(tmp_path, 7, {"scale": 60.0}, scale_full="0.25")
        check = check_regressions(tmp_path)
        assert check.ok and check.baseline_runs == 0

    def test_trend_uses_only_matching_knobs(self, tmp_path):
        from repro.bench import bench_trend

        self.history(tmp_path)
        trend = bench_trend(tmp_path)
        assert trend["run_ids"] == [8, 9]
        assert trend["skipped_runs"] == 2
        write_run(tmp_path, 10, {"scale": 930.0}, scale_full="1.0")
        assert bench_trend(tmp_path)["run_ids"] == [6, 7, 10]


class TestLoadBenchHistory:
    def test_sorted_by_id_and_skips_garbage(self, tmp_path):
        write_run(tmp_path, 8, {"frame": 1.0})
        write_run(tmp_path, 6, {"frame": 1.0})
        (tmp_path / "BENCH_7.json").write_text("{not json")
        (tmp_path / "BENCH_9.json").write_text('{"no": "suites"}')
        ids = [bench_id for bench_id, _ in load_bench_history(tmp_path)]
        assert ids == [6, 8]

    def test_empty_root(self, tmp_path):
        assert load_bench_history(tmp_path) == []


class TestCheckRegressions:
    def test_no_history(self, tmp_path):
        check = check_regressions(tmp_path)
        assert check.ok
        assert "no BENCH" in check.to_text()

    def test_first_run_has_no_baseline(self, tmp_path):
        write_run(tmp_path, 6, {"frame": 1.0})
        check = check_regressions(tmp_path)
        assert check.ok
        assert check.baseline_runs == 0
        assert "no comparable" in check.to_text()

    def test_flags_large_absolute_slowdown(self, tmp_path):
        for i, seconds in enumerate([10.0, 10.5, 9.8]):
            write_run(tmp_path, 6 + i, {"frame": seconds})
        write_run(tmp_path, 9, {"frame": 20.0})
        check = check_regressions(tmp_path)
        assert not check.ok
        assert check.regressions[0]["suite"] == "frame"
        assert "REGRESSION" in check.to_text()

    def test_small_suites_never_trip_on_noise(self, tmp_path):
        # 3x slower but under the absolute min_seconds floor
        write_run(tmp_path, 6, {"tiny": 0.4})
        write_run(tmp_path, 7, {"tiny": 1.2})
        assert check_regressions(tmp_path).ok

    def test_within_threshold_passes(self, tmp_path):
        write_run(tmp_path, 6, {"frame": 10.0})
        write_run(tmp_path, 7, {"frame": 12.0})  # 1.2x < 1.35x
        check = check_regressions(tmp_path)
        assert check.ok
        assert check.checked  # still compared, just not flagged

    def test_different_scales_are_incomparable(self, tmp_path):
        write_run(tmp_path, 6, {"frame": 1.0}, scale="0.05")
        write_run(tmp_path, 7, {"frame": 50.0}, scale="1.0")
        check = check_regressions(tmp_path)
        assert check.ok
        assert check.baseline_runs == 0

    def test_new_suite_exempt_until_baselined(self, tmp_path):
        write_run(tmp_path, 6, {"frame": 1.0})
        write_run(tmp_path, 7, {"frame": 1.0, "scale": 300.0})
        assert check_regressions(tmp_path).ok

    def test_median_baseline_resists_one_outlier(self, tmp_path):
        for i, seconds in enumerate([10.0, 10.2, 90.0, 10.1, 10.3]):
            write_run(tmp_path, 6 + i, {"frame": seconds})
        write_run(tmp_path, 11, {"frame": 11.0})
        assert check_regressions(tmp_path).ok

    def test_window_limits_baseline(self, tmp_path):
        write_run(tmp_path, 6, {"frame": 100.0})  # ancient, outside window
        for i in range(5):
            write_run(tmp_path, 7 + i, {"frame": 10.0})
        write_run(tmp_path, 12, {"frame": 20.0})
        check = check_regressions(tmp_path, window=5)
        assert check.baseline_runs == 5
        assert not check.ok


def stat_run(root, bench_id, stats):
    """One 'scale' suite run with the given stat block."""
    write_run(root, bench_id, {"scale": 10.0}, stats={"scale": stats})


class TestStatDetectors:
    """Throughput / peak-memory stat gates alongside wall time."""

    def test_throughput_drop_flagged(self, tmp_path):
        for i in range(3):
            stat_run(tmp_path, 6 + i, {"merge": {"rows_per_s": 1_000_000.0}})
        stat_run(tmp_path, 9, {"merge": {"rows_per_s": 400_000.0}})
        check = check_regressions(tmp_path)
        assert not check.ok
        row = check.stat_regressions[0]
        assert row["metric"] == "merge.rows_per_s"
        assert row["kind"] == "throughput"
        assert "REGRESSION" in check.to_text()

    def test_memory_growth_flagged(self, tmp_path):
        for i in range(3):
            stat_run(tmp_path, 6 + i, {"build": {"island_peak_rss_bytes": 2e8}})
        stat_run(tmp_path, 9, {"build": {"island_peak_rss_bytes": 5e8}})
        check = check_regressions(tmp_path)
        assert not check.ok
        assert check.stat_regressions[0]["kind"] == "memory"

    def test_absolute_floor_protects_small_throughput(self, tmp_path):
        # Halved, but only 5k rows/s lost — under MIN_ROWS_PER_S_DROP.
        stat_run(tmp_path, 6, {"merge": {"rows_per_s": 10_000.0}})
        stat_run(tmp_path, 7, {"merge": {"rows_per_s": 5_000.0}})
        check = check_regressions(tmp_path)
        assert check.ok
        assert check.stat_checked  # compared, just not flagged

    def test_absolute_floor_protects_small_memory(self, tmp_path):
        # Doubled, but only 2 MiB grown — under MIN_PEAK_BYTES_GROWTH.
        stat_run(tmp_path, 6, {"build": {"parent_peak_bytes": 2 * 2**20}})
        stat_run(tmp_path, 7, {"build": {"parent_peak_bytes": 4 * 2**20}})
        assert check_regressions(tmp_path).ok

    def test_new_stat_exempt_until_baselined(self, tmp_path):
        stat_run(tmp_path, 6, {})
        stat_run(tmp_path, 7, {"merge": {"rows_per_s": 1.0}})
        check = check_regressions(tmp_path)
        assert check.ok
        assert check.stat_checked == []

    def test_non_gateable_keys_ignored(self, tmp_path):
        # Context keys (counts, seeds, speedups) never gate.
        stat_run(tmp_path, 6, {"merge": {"jobs": 100.0, "speedup_x": 4.0}})
        stat_run(tmp_path, 7, {"merge": {"jobs": 1.0, "speedup_x": 0.1}})
        check = check_regressions(tmp_path)
        assert check.ok
        assert check.stat_checked == []

    def test_within_threshold_passes(self, tmp_path):
        stat_run(tmp_path, 6, {"merge": {"rows_per_s": 1_000_000.0}})
        stat_run(tmp_path, 7, {"merge": {"rows_per_s": 900_000.0}})
        check = check_regressions(tmp_path)
        assert check.ok
        assert check.stat_checked[0]["ratio"] == pytest.approx(0.9)

    def test_to_text_renders_stat_rows(self, tmp_path):
        stat_run(tmp_path, 6, {"merge": {"rows_per_s": 1_000_000.0}})
        stat_run(tmp_path, 7, {"merge": {"rows_per_s": 950_000.0}})
        text = check_regressions(tmp_path).to_text()
        assert "merge.rows_per_s" in text
        assert "ok" in text


class TestSpillCodecStatDetectors:
    """Spill-volume and compression-ratio stats gate like memory and
    throughput, with their own absolute floors."""

    def test_spill_bytes_growth_flagged(self, tmp_path):
        for i in range(3):
            stat_run(tmp_path, 6 + i, {"codec": {"lossless_spill_bytes": 50e6}})
        stat_run(tmp_path, 9, {"codec": {"lossless_spill_bytes": 120e6}})
        check = check_regressions(tmp_path)
        assert not check.ok
        row = check.stat_regressions[0]
        assert row["metric"] == "codec.lossless_spill_bytes"
        assert row["kind"] == "spill"

    def test_compression_ratio_drop_flagged(self, tmp_path):
        for i in range(3):
            stat_run(tmp_path, 6 + i, {"codec": {"compression_ratio": 4.7}})
        stat_run(tmp_path, 9, {"codec": {"compression_ratio": 1.5}})
        check = check_regressions(tmp_path)
        assert not check.ok
        assert check.stat_regressions[0]["kind"] == "ratio"

    def test_spill_floor_protects_small_volumes(self, tmp_path):
        # Doubled, but only 2 MiB grown — under MIN_SPILL_BYTES_GROWTH.
        stat_run(tmp_path, 6, {"codec": {"spill_bytes": 2 * 2**20}})
        stat_run(tmp_path, 7, {"codec": {"spill_bytes": 4 * 2**20}})
        assert check_regressions(tmp_path).ok

    def test_ratio_floor_protects_small_drops(self, tmp_path):
        # A 0.2x loss is under MIN_COMPRESSION_RATIO_DROP even though
        # the relative threshold would trip at these magnitudes.
        stat_run(tmp_path, 6, {"codec": {"compression_ratio": 0.5}})
        stat_run(tmp_path, 7, {"codec": {"compression_ratio": 0.3}})
        check = check_regressions(tmp_path)
        assert check.ok
        assert check.stat_checked

    def test_cache_entry_stats_are_gated_and_trended(self, tmp_path):
        """Per-file entry bytes gate like spill volume, per-file load
        seconds like wall time (floor included), and both are trended."""
        from repro.bench import bench_trend

        for i in range(3):
            stat_run(tmp_path, 6 + i, {"cache_entry": {
                "records_pkl_entry_bytes": 4e6, "records_pkl_load_s": 0.1,
            }})
        stat_run(tmp_path, 9, {"cache_entry": {
            "records_pkl_entry_bytes": 20e6, "records_pkl_load_s": 1.0,
        }})
        check = check_regressions(tmp_path)
        assert [(row["metric"], row["kind"]) for row in check.stat_regressions] == [
            ("cache_entry.records_pkl_entry_bytes", "spill")
        ]
        kinds = {row["metric"]: row["kind"] for row in bench_trend(tmp_path)["series"]}
        assert kinds["cache_entry.records_pkl_entry_bytes"] == "spill"
        assert kinds["cache_entry.records_pkl_load_s"] == "seconds"

    def test_trend_report_notes_spill_drift(self, tmp_path):
        from repro.bench import trend_report

        for i, ratio in enumerate((5.0, 4.0, 3.0, 2.0, 1.2)):
            stat_run(tmp_path, 6 + i, {"codec": {"compression_ratio": ratio}})
        report = trend_report(tmp_path)
        assert "DRIFT" in report
        assert "spill-path drift" in report
        assert "codec.compression_ratio" in report


class TestGitSha:
    def test_payload_stamped_inside_checkout(self, tmp_path):
        import subprocess

        payload = write_bench_json([], tmp_path / "BENCH_6.json")
        # tmp_path is outside any repo -> None; write one inside ours.
        assert payload["git_sha"] is None
        here = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if here.returncode == 0:
            import pathlib

            target = pathlib.Path("BENCH_sha_probe.json")
            try:
                stamped = write_bench_json([], target)
                assert stamped["git_sha"] == here.stdout.strip()
            finally:
                target.unlink(missing_ok=True)


class TestBenchTrend:
    def test_no_history(self, tmp_path):
        from repro.bench import bench_trend, trend_report

        trend = bench_trend(tmp_path)
        assert trend["run_ids"] == []
        assert "no BENCH_<n>.json history" in trend_report(tmp_path)

    def test_series_aligned_with_gaps(self, tmp_path):
        from repro.bench import bench_trend

        write_run(tmp_path, 6, {"frame": 1.0})
        write_run(tmp_path, 7, {"frame": 1.1, "stream": 4.0})
        trend = bench_trend(tmp_path)
        assert trend["run_ids"] == [6, 7]
        by_metric = {(s["suite"], s["metric"]): s for s in trend["series"]}
        assert by_metric[("frame", "wall_s")]["values"] == [1.0, 1.1]
        # stream only exists in run 7: a None gap keeps runs aligned
        assert by_metric[("stream", "wall_s")]["values"] == [None, 4.0]

    def test_series_the_latest_run_lacks_are_dropped(self, tmp_path):
        """A stat the newest run no longer records leaves the trend,
        although it fell (a DRIFT) over the runs that recorded it."""
        from repro.bench import bench_trend, trend_report

        def run(bench_id, **blocks):
            write_run(tmp_path, bench_id, {"dataset-build": 1.0}, stats={"dataset-build": blocks})

        run(6, island={"rows_per_s": 1e5}, batched={"rows_per_s": 1e5})
        run(7, island={"rows_per_s": 1e5}, batched={"rows_per_s": 5e4})
        run(8, island={"rows_per_s": 1e5})
        trend = bench_trend(tmp_path)
        assert trend["run_ids"] == [6, 7, 8]
        metrics = {s["metric"]: s for s in trend["series"]}
        assert sorted(metrics) == ["island.rows_per_s", "wall_s"]
        assert metrics["island.rows_per_s"]["values"] == [1e5, 1e5, 1e5]
        text = trend_report(tmp_path)
        assert "batched" not in text and "DRIFT" not in text

    def test_other_scales_skipped(self, tmp_path):
        from repro.bench import bench_trend

        write_run(tmp_path, 6, {"frame": 1.0}, scale="1.0")
        write_run(tmp_path, 7, {"frame": 2.0}, scale="0.05")
        write_run(tmp_path, 8, {"frame": 2.1}, scale="0.05")
        trend = bench_trend(tmp_path)
        assert trend["scale"] == "0.05"
        assert trend["run_ids"] == [7, 8]
        assert trend["skipped_runs"] == 1

    def test_rising_wall_time_flagged_as_worsening(self, tmp_path):
        from repro.bench import bench_trend

        for offset, seconds in enumerate([1.0, 1.3, 1.6, 2.0]):
            write_run(tmp_path, 6 + offset, {"frame": seconds})
        (row,) = bench_trend(tmp_path)["series"]
        assert row["kind"] == "seconds"
        assert row["slope"] > 0
        assert row["worsening"] is True

    def test_falling_throughput_flagged_rising_is_fine(self, tmp_path):
        from repro.bench import bench_trend

        stats = lambda v: {"frame": {"agg": {"rows_per_s": v}}}
        write_run(tmp_path, 6, {"frame": 1.0}, stats=stats(1e6))
        write_run(tmp_path, 7, {"frame": 1.0}, stats=stats(5e5))
        by_metric = {s["metric"]: s for s in bench_trend(tmp_path)["series"]}
        assert by_metric["agg.rows_per_s"]["kind"] == "throughput"
        assert by_metric["agg.rows_per_s"]["worsening"] is True
        assert by_metric["wall_s"]["worsening"] is False

    def test_single_run_never_flags(self, tmp_path):
        from repro.bench import bench_trend

        write_run(tmp_path, 6, {"frame": 99.0})
        (row,) = bench_trend(tmp_path)["series"]
        assert row["slope"] == 0.0
        assert row["worsening"] is False

    def test_window_limits_runs(self, tmp_path):
        from repro.bench import bench_trend

        for offset in range(6):
            write_run(tmp_path, 6 + offset, {"frame": 1.0 + offset})
        trend = bench_trend(tmp_path, window=3)
        assert trend["run_ids"] == [9, 10, 11]


class TestSparkline:
    def test_scales_min_to_max(self):
        from repro.bench import _sparkline

        spark = _sparkline([1.0, 2.0, 3.0])
        assert spark[0] == "▁"
        assert spark[-1] == "█"

    def test_flat_series(self):
        from repro.bench import _sparkline

        assert _sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_gaps_render_as_dots(self):
        from repro.bench import _sparkline

        assert _sparkline([None, 1.0, None, 2.0]) == "·▁·█"
        assert _sparkline([None, None]) == "··"


class TestTrendReport:
    def test_renders_two_run_trend_table(self, tmp_path):
        from repro.bench import trend_report

        write_run(tmp_path, 6, {"frame": 1.0, "stream": 3.0})
        write_run(tmp_path, 7, {"frame": 1.05, "stream": 2.9})
        text = trend_report(tmp_path)
        assert "bench report: 2 run(s) at scale 0.05 (BENCH_6..BENCH_7)" in text
        assert "frame" in text and "wall_s" in text
        assert "1.00s" in text and "1.05s" in text
        assert "▁" in text or "█" in text

    def test_drift_flag_and_footer(self, tmp_path):
        from repro.bench import trend_report

        write_run(tmp_path, 6, {"frame": 1.0})
        write_run(tmp_path, 7, {"frame": 2.0})
        text = trend_report(tmp_path)
        assert "DRIFT" in text
        assert "investigate" in text

    def test_sha_span_in_header(self, tmp_path):
        payload = {
            "schema": 1,
            "bench_scale": "0.05",
            "git_sha": "abcdef0123456789",
            "suites": [{"name": "frame", "seconds": 1.0, "stats": {}}],
        }
        (tmp_path / "BENCH_6.json").write_text(json.dumps(payload))
        payload = dict(payload, git_sha="1234567aaaaaaaaa")
        (tmp_path / "BENCH_7.json").write_text(json.dumps(payload))
        from repro.bench import trend_report

        assert "abcdef0..1234567" in trend_report(tmp_path)

    def test_markdown_table(self, tmp_path):
        from repro.bench import trend_report

        write_run(tmp_path, 6, {"frame": 1.0})
        write_run(tmp_path, 7, {"frame": 2.0})
        text = trend_report(tmp_path, markdown=True)
        assert "| suite | metric | first | last | slope/run | trend | flag |" in text
        assert "| frame | wall_s |" in text
        assert "DRIFT" in text
        # sparkline fenced in backticks so the bars survive markdown
        assert "`" in text

    def test_memory_stat_formatting(self, tmp_path):
        from repro.bench import trend_report

        stats = {"scale": {"build": {"island_peak_rss_bytes": 512 * 1024 * 1024}}}
        write_run(tmp_path, 6, {"scale": 10.0}, stats=stats)
        write_run(tmp_path, 7, {"scale": 10.0}, stats=stats)
        text = trend_report(tmp_path)
        assert "build.island_peak_rss_bytes" in text
        assert "512MiB" in text
