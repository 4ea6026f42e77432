"""Tests for the command-line interface."""

import pytest

from repro.cli import DatasetOptions, build_parser, main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep CLI runs from touching the user-level artifact cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.scale == 0.1
        assert args.output == "dataset"

    def test_figure_args(self):
        args = build_parser().parse_args(["figure", "fig04", "--scale", "0.05"])
        assert args.figure_id == "fig04"
        assert args.scale == 0.05

    def test_session_flag_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.workers is None  # defers to $REPRO_WORKERS, else serial
        assert args.cache_dir is None
        assert args.no_cache is False

    def test_workers_default_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        args = build_parser().parse_args(["report"])
        session = DatasetOptions.from_args(args).session()
        assert session.workers == 3

    def test_bench_list(self, capsys):
        rc = main(["bench", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "benchmarks/bench_frame.py" in out
        assert "benchmarks/bench_dataset_build.py" in out

    def test_bench_unknown_target(self, capsys):
        rc = main(["bench", "no-such-bench"])
        assert rc == 2
        assert "unknown bench target" in capsys.readouterr().out

    def test_session_flags_parsed(self, tmp_path):
        args = build_parser().parse_args(
            ["report", "--workers", "4", "--cache-dir", str(tmp_path)]
        )
        options = DatasetOptions.from_args(args)
        assert options.workers == 4
        session = options.session()
        assert session.workers == 4
        assert session.cache.root == tmp_path

    def test_no_cache_disables_cache(self):
        args = build_parser().parse_args(["validate", "--no-cache"])
        assert DatasetOptions.from_args(args).session().cache is None

    def test_every_dataset_command_shares_options(self):
        for command in ("generate", "figure", "report", "plot", "opportunities", "summary", "validate"):
            argv = [command, "--scale", "0.02", "--seed", "9", "--days", "10", "--scenario", "paper"]
            if command in ("figure", "plot"):
                argv.append("fig04")
            options = DatasetOptions.from_args(build_parser().parse_args(argv))
            assert options.scale == 0.02
            assert options.seed == 9
            assert options.days == 10.0

    def test_partitions_default_to_serial(self):
        args = build_parser().parse_args(["report"])
        options = DatasetOptions.from_args(args)
        assert options.partitions == 1
        assert options.cohorts is None

    def test_partitions_flow_into_session_config(self):
        args = build_parser().parse_args(
            ["summary", "--scale", "0.02", "--partitions", "2", "--cohorts", "6"]
        )
        session = DatasetOptions.from_args(args).session()
        assert session.config.partitions == 2
        assert session.config.resolved_cohorts == 6

    def test_invalid_partition_split_rejected_at_session_build(self):
        args = build_parser().parse_args(
            ["summary", "--partitions", "4", "--cohorts", "2"]
        )
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError, match="every island"):
            DatasetOptions.from_args(args).session()

    def test_bench_check_flags_parse(self):
        args = build_parser().parse_args(
            ["bench", "--check", "--check-threshold", "0.5", "--check-window", "3"]
        )
        assert args.check is True
        assert args.check_threshold == 0.5
        assert args.check_window == 3

    def test_bench_check_comparator_exit_codes(self, capsys, monkeypatch):
        from repro.bench import BenchCheck

        def fake_check(root, *, threshold, window):
            check = BenchCheck(12, 3, threshold, 2.0)
            if fake_check.regress:
                row = {"suite": "frame", "latest_s": 9.0, "baseline_s": 3.0, "ratio": 3.0}
                check.checked.append(row)
                check.regressions.append(row)
            return check

        monkeypatch.setattr("repro.bench.check_regressions", fake_check)
        fake_check.regress = False
        assert main(["bench", "--check", "--no-json"]) == 0
        fake_check.regress = True
        assert main(["bench", "--check", "--no-json"]) == 3
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_report_flags_parse(self):
        args = build_parser().parse_args(["bench", "--report", "--markdown"])
        assert args.report is True
        assert args.markdown is True
        args = build_parser().parse_args(["bench"])
        assert args.report is False

    def test_bench_report_renders_and_exits_clean(self, capsys, monkeypatch):
        def fake_report(root, *, markdown=False):
            return "bench report: rendered markdown=" + str(markdown)

        monkeypatch.setattr("repro.bench.trend_report", fake_report)
        assert main(["bench", "--report"]) == 0
        assert "markdown=False" in capsys.readouterr().out
        assert main(["bench", "--report", "--markdown"]) == 0
        assert "markdown=True" in capsys.readouterr().out

    def test_obs_mode_defaults_to_report(self):
        args = build_parser().parse_args(["obs"])
        assert args.mode == "report"
        args = build_parser().parse_args(["obs", "top"])
        assert args.mode == "top"

    def test_obs_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "bottom"])

    def test_interchange_flags_parse_and_couple(self):
        args = build_parser().parse_args(
            ["summary", "--epoch-hours", "2", "--migrate-after-hours", "0.5"]
        )
        config = DatasetOptions.from_args(args).interchange()
        assert config.epoch_s == 2 * 3600.0
        assert config.migrate_after_s == 0.5 * 3600.0
        assert config.coupled

    def test_epoch_hours_alone_still_couples(self):
        args = build_parser().parse_args(["summary", "--epoch-hours", "6"])
        config = DatasetOptions.from_args(args).interchange()
        assert config.epoch_s == 6 * 3600.0
        assert config.migrate_after_s == 3600.0  # 1/6 of the epoch
        assert config.coupled

    def test_no_interchange_flags_means_uncoupled(self):
        args = build_parser().parse_args(["summary"])
        assert DatasetOptions.from_args(args).interchange() is None

    def test_events_out_and_progress_flags_parse(self, tmp_path):
        args = build_parser().parse_args(
            ["generate", "--events-out", str(tmp_path / "ev.jsonl"), "--progress"]
        )
        assert args.events_out == str(tmp_path / "ev.jsonl")
        assert args.progress is True
        args = build_parser().parse_args(["generate"])
        assert args.events_out is None
        assert args.progress is False


class TestCommands:
    def test_generate_writes_csvs(self, tmp_path, capsys):
        rc = main(
            ["generate", "--scale", "0.01", "--seed", "5", "--output", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "jobs.csv").exists()
        assert (tmp_path / "gpu_jobs.csv").exists()
        assert (tmp_path / "per_gpu.csv").exists()
        assert "GPU jobs" in capsys.readouterr().out

    def test_figure_prints_comparisons(self, capsys):
        rc = main(["figure", "fig15", "--scale", "0.01", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mature job share" in out

    def test_report_writes_markdown(self, tmp_path, capsys):
        out_file = tmp_path / "EXP.md"
        rc = main(
            ["report", "--scale", "0.01", "--seed", "5", "--output", str(out_file)]
        )
        assert rc == 0
        assert out_file.exists()

    def test_opportunities_prints_studies(self, capsys):
        rc = main(["opportunities", "--scale", "0.01", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "co-location" in out
        assert "power capping" in out
        assert "checkpointing" in out

    def test_unknown_figure_raises(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            main(["figure", "fig99", "--scale", "0.01"])

    def test_plot_writes_svgs(self, tmp_path, capsys):
        rc = main(
            ["plot", "fig04", "--scale", "0.01", "--seed", "5", "--output", str(tmp_path)]
        )
        assert rc == 0
        written = list(tmp_path.glob("fig04_*.svg"))
        assert len(written) == 2

    def test_summary_prints_sections(self, capsys):
        rc = main(["summary", "--scale", "0.01", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "queue health" in out
        assert "GPU utilization" in out

    def test_validate_reports_fraction(self, capsys):
        rc = main(["validate", "--scale", "0.01", "--seed", "5", "--min-pass", "0.0"])
        assert rc == 0
        assert "checks passed" in capsys.readouterr().out

    def test_validate_traces_its_figures(self, tmp_path, capsys):
        """Each graded figure runs once, as a ``figure:<id>`` span in the
        session's ``figures`` stage, as a report's figures do."""
        import json

        from repro.validation import CHECKS

        trace = tmp_path / "trace.json"
        argv = ["validate", "--scale", "0.01", "--seed", "5", "--min-pass", "0.0"]
        assert main([*argv, "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "stage figures:" in out
        spans = [e["name"] for e in json.loads(trace.read_text())["traceEvents"]]
        figures = sorted(name for name in spans if name.startswith("figure:"))
        assert figures == sorted({f"figure:{check.figure_id}" for check in CHECKS})

    def test_validate_threshold_gate(self, capsys):
        rc = main(["validate", "--scale", "0.01", "--seed", "5", "--min-pass", "1.01"])
        assert rc == 1

    def test_scenario_flag(self, capsys):
        rc = main(
            ["figure", "fig15", "--scale", "0.01", "--seed", "5",
             "--scenario", "exploration_surge"]
        )
        assert rc == 0
        assert "exploratory job share" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            main(["figure", "fig15", "--scale", "0.01", "--scenario", "moonbase"])

    def test_obs_report_includes_flight_recorder_digest(self, capsys):
        rc = main(["obs", "--scale", "0.01", "--seed", "5", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== trace" in out
        assert "events across" in out  # flight-recorder summary
        assert "span:workload" in out

    def test_obs_top_runs_build_and_summarizes(self, capsys):
        rc = main(["obs", "top", "--scale", "0.01", "--seed", "5", "--no-cache"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "stage workload" in captured.out
        assert "events across" in captured.out
        # serial single-partition build: the final table renders on
        # stderr even with no island heartbeats
        assert "sharded build:" in captured.err

    def test_events_out_writes_jsonl(self, tmp_path, capsys):
        events_file = tmp_path / "events.jsonl"
        rc = main(
            ["generate", "--scale", "0.01", "--seed", "5", "--no-cache",
             "--output", str(tmp_path / "ds"), "--events-out", str(events_file)]
        )
        assert rc == 0
        assert f"wrote {events_file}" in capsys.readouterr().out
        from repro.obs import read_jsonl

        events = list(read_jsonl(events_file))
        assert any(e.name == "span:workload" for e in events)

    def test_events_out_overwrites_with_one_run(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        events_file = tmp_path / "events.jsonl"
        argv = [
            "generate", "--scale", "0.01", "--seed", "5", "--no-cache",
            "--output", str(tmp_path / "ds"), "--events-out", str(events_file),
        ]
        for _ in range(2):
            assert main(argv) == 0
        out = capsys.readouterr().out
        written = [line for line in out.splitlines() if line.startswith(f"wrote {events_file}")]
        assert len(written) == 2
        events = list(read_jsonl(events_file))
        assert written[-1] == f"wrote {events_file} ({len(events)} events)"
        assert [e.name for e in events].count("span:workload") == 1

    def test_progress_flag_renders_final_table(self, tmp_path, capsys):
        rc = main(
            ["generate", "--scale", "0.01", "--seed", "5", "--no-cache",
             "--progress", "--output", str(tmp_path / "ds")]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "jobs.csv" in captured.out  # command output intact, on stdout
        assert "sharded build:" in captured.err  # telemetry stays on stderr

    @pytest.mark.parametrize("command", [["generate", "--progress"], ["obs", "top"]])
    def test_live_telemetry_starts_no_thread(self, command, tmp_path, capsys, monkeypatch):
        import threading

        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda thread: (started.append(thread.name), start(thread))
        )
        argv = [*command, "--scale", "0.01", "--seed", "5", "--no-cache", "--workers", "1"]
        if command[0] == "generate":
            argv += ["--output", str(tmp_path / "ds")]
        assert main(argv) == 0
        assert "sharded build:" in capsys.readouterr().err
        assert started == []

    def test_report_second_run_hits_cache(self, tmp_path, capsys):
        argv = [
            "report", "--scale", "0.01", "--seed", "5",
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(tmp_path / "EXP.md"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "builds: 1" in cold
        assert "stage workload:" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "builds: 0" in warm
        assert "stage workload:" not in warm
        assert "cache hits: 1" in warm
