"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``  — generate the dataset and write it to CSV files.
``figure``    — reproduce one figure and print paper-vs-measured rows.
``report``    — run every figure and write EXPERIMENTS-style markdown.
``plot``      — render figures as SVG charts.
``opportunities`` — run the Sec. VI/VIII what-if studies.
``summary``   — operator-facing text report with ASCII charts.
``validate``  — grade the dataset against the paper's statistics.
``obs``       — observability: traced run report (``obs``), live island
telemetry (``obs top``), or summarize a trace (``--trace FILE``).
``bench``     — run the performance-smoke benchmark gates; ``--report``
renders the stored trajectory as a trend table.

Every command accepts ``--scale`` (1.0 = paper size), ``--seed``,
``--days``, and ``--scenario`` (paper, training_heavy,
exploration_surge, interactive_campus).  The dataset-building commands
(``generate``, ``report``, ``plot``, ``validate``, ``obs``)
additionally take ``--workers`` (forked island hosts and
cohort-generation processes; defaults to ``$REPRO_WORKERS`` or
serial),
``--cache-dir`` (pipeline artifact cache location; defaults to
``$REPRO_CACHE_DIR`` or the XDG cache home), ``--no-cache``, and the
observability exports ``--trace-out FILE`` (Chrome trace-event JSON,
loadable in ``chrome://tracing``/Perfetto), ``--metrics-out FILE``
(Prometheus text exposition), and ``--events-out FILE`` (the
flight recorder's events and one row per span, as JSONL), plus
``--progress`` for live per-island build telemetry on stderr — see
``docs/observability.md``.  All of
them share one :class:`repro.pipeline.Session`, so the dataset is
built at most once per configuration — and at most once *ever* while
the cache holds it.  Figures are computed from that dataset on every
run; ``generate``, ``report``, ``validate``, ``summary`` and ``obs top``
end with the session's stage and cache summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as _np

from repro.frame import write_csv
from repro.pipeline import Session, default_cache_dir


@dataclasses.dataclass
class DatasetOptions:
    """The dataset/session flags shared by every subcommand."""

    scale: float = 0.1
    seed: int = 20220214
    days: float = 125.0
    scenario: str = "paper"
    partitions: int = 1
    cohorts: int | None = None
    epoch_hours: float | None = None
    migrate_after_hours: float | None = None
    workers: int | None = None
    cache_dir: str | None = None
    no_cache: bool = False

    @staticmethod
    def add_arguments(parser: argparse.ArgumentParser, *, session_flags: bool = False) -> None:
        """Install the shared flags on one subcommand parser."""
        parser.add_argument("--scale", type=float, default=0.1, help="dataset scale (1.0 = paper size)")
        parser.add_argument("--seed", type=int, default=20220214, help="generation seed")
        parser.add_argument("--days", type=float, default=125.0, help="study duration in days")
        parser.add_argument(
            "--scenario",
            default="paper",
            help="workload scenario (paper, training_heavy, exploration_surge, interactive_campus)",
        )
        parser.add_argument(
            "--partitions", type=int, default=1,
            help="cluster islands for the sharded simulation (1 = the "
                 "whole machine as one island; see docs/scaling.md)",
        )
        parser.add_argument(
            "--cohorts", type=int, default=None,
            help="user cohorts for sharded workload generation "
                 "(default: follow --partitions)",
        )
        parser.add_argument(
            "--epoch-hours", type=float, default=None,
            help="couple the islands: interchange epoch length in "
                 "simulated hours (with --partitions > 1; default "
                 "uncoupled)",
        )
        parser.add_argument(
            "--migrate-after-hours", type=float, default=None,
            help="migrate jobs queued longer than this many simulated "
                 "hours at each interchange epoch (implies coupling)",
        )
        if session_flags:
            parser.add_argument(
                "--workers", type=int, default=None,
                help="worker processes for island hosts and cohort generation "
                     "(default: $REPRO_WORKERS, else serial)",
            )
            parser.add_argument(
                "--cache-dir", default=None,
                help="pipeline artifact cache directory (default: $REPRO_CACHE_DIR or the XDG cache home)",
            )
            parser.add_argument(
                "--no-cache", action="store_true",
                help="disable the on-disk artifact cache for this run",
            )
            parser.add_argument(
                "--trace-out", default=None, metavar="FILE",
                help="write a Chrome trace-event JSON of the run (chrome://tracing / Perfetto)",
            )
            parser.add_argument(
                "--metrics-out", default=None, metavar="FILE",
                help="write run metrics in Prometheus text exposition format",
            )
            parser.add_argument(
                "--events-out", default=None, metavar="FILE",
                help="write the run's event timeline (flight-recorder events "
                     "plus one row per span) as JSONL",
            )
            parser.add_argument(
                "--progress", action="store_true",
                help="render live per-island build telemetry (one row per "
                     "island, updated every island epoch) to stderr while "
                     "the command runs",
            )

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "DatasetOptions":
        """Collect the shared flags back out of a parsed namespace."""
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in vars(args).items() if k in fields and v is not None})

    def interchange(self):
        """The island-coupling config these options describe (or None)."""
        if self.epoch_hours is None and self.migrate_after_hours is None:
            return None
        from repro.slurm.interchange import InterchangeConfig

        epoch_s = (self.epoch_hours if self.epoch_hours is not None else 6.0) * 3600.0
        # --epoch-hours alone still couples the islands: coupling needs
        # an exchange, so migration defaults on (1/6 of the epoch, the
        # bench_scale coupling) unless explicitly configured.
        migrate_after_s = (
            self.migrate_after_hours * 3600.0
            if self.migrate_after_hours is not None
            else epoch_s / 6.0
        )
        return InterchangeConfig(epoch_s=epoch_s, migrate_after_s=migrate_after_s)

    def session(self) -> Session:
        """Build the pipeline session these options describe."""
        cache_dir: str | Path | None = None
        if not self.no_cache:
            cache_dir = self.cache_dir if self.cache_dir is not None else default_cache_dir()
        return Session.from_scenario(
            self.scenario,
            scale=self.scale,
            seed=self.seed,
            days=self.days,
            partitions=self.partitions,
            cohorts=self.cohorts,
            interchange=self.interchange(),
            cache_dir=cache_dir,
            workers=self.workers,
        )


def _session(args: argparse.Namespace) -> Session:
    return DatasetOptions.from_args(args).session()


def _write_obs(session: Session, args: argparse.Namespace) -> None:
    """Honour ``--trace-out``/``--metrics-out``/``--events-out``.

    Each flag overwrites its file with this run's output; the events
    file is the exported timeline (:func:`repro.obs.timeline_events`).
    """
    from repro.obs import prometheus_text, timeline_events, write_chrome_trace, write_jsonl

    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    events_out = getattr(args, "events_out", None)
    if trace_out:
        path = write_chrome_trace(
            trace_out, session.tracer, metadata={"session_key": session.key}
        )
        print(f"wrote {path} ({len(session.tracer.finished())} spans)")
    if metrics_out:
        Path(metrics_out).write_text(prometheus_text(session.metrics), encoding="utf-8")
        print(f"wrote {metrics_out}")
    if events_out:
        events = timeline_events(session.recorder, session.tracer)
        path = write_jsonl(events_out, events)
        print(f"wrote {path} ({len(events)} events)")


def _cmd_generate(args: argparse.Namespace) -> int:
    session = _session(args)
    dataset = session.dataset()
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(dataset.jobs, out / "jobs.csv")
    write_csv(dataset.gpu_jobs, out / "gpu_jobs.csv")
    write_csv(dataset.per_gpu, out / "per_gpu.csv")
    print(dataset.describe())
    print(f"wrote jobs.csv, gpu_jobs.csv, per_gpu.csv to {out}")
    print(session.summary())
    _write_obs(session, args)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    (result,) = _session(args).run_figures([args.figure_id])
    print(result.to_text())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.figures.report import write_report

    session = _session(args)
    session.run_figures()
    dataset = session.dataset()
    path = write_report(dataset, args.output)
    print(f"wrote {path} ({dataset.describe()})")
    print(session.summary())
    _write_obs(session, args)
    return 0


def _cmd_opportunities(args: argparse.Namespace) -> int:
    from repro.opportunities.checkpoint import checkpoint_study
    from repro.opportunities.colocation import colocation_study
    from repro.opportunities.powercap import powercap_study
    from repro.opportunities.tiering import tiering_study

    dataset = _session(args).dataset()
    colo = colocation_study(dataset)
    print(
        f"co-location: {colo.num_pairs} pairs of {colo.num_jobs} jobs, "
        f"{colo.gpu_savings_fraction:.0%} GPUs saved, mean slowdown {colo.mean_slowdown:.3f}"
    )
    tier = tiering_study(dataset.gpu_jobs)
    print(
        f"two-tier fleet: {tier.cost_saving_fraction:.0%} cost saving routing "
        f"{tier.routed_job_fraction:.0%} of jobs (slowdown {tier.mean_slowdown_routed:.2f}x)"
    )
    power = powercap_study(dataset.gpu_jobs)
    print("power capping:")
    print(power.to_string())
    ckpt = checkpoint_study(dataset.gpu_jobs)
    print(
        f"checkpointing: {ckpt.lossy_job_fraction:.0%} of jobs lose state; "
        f"net saving {ckpt.net_saving_gpu_hours:.0f} GPU-hours at "
        f"{ckpt.model.interval_s:.0f}s intervals"
    )
    from repro.opportunities.mig import best_partition

    mig = best_partition(dataset.gpu_jobs, sizing="mean")
    print(
        f"MIG: best static partition {'+'.join(mig.partition)} packs "
        f"{mig.capacity_multiplier:.1f} jobs per GPU "
        f"({mig.fraction_fitting:.0%} of jobs fit a slice)"
    )
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    from repro.figures.plots import plottable_figures, save_figure_plots

    session = _session(args)
    figure_ids = plottable_figures() if args.figure_id == "all" else [args.figure_id]
    written = []
    for result in session.run_figures(figure_ids):
        written.extend(save_figure_plots(result, args.output))
    for path in written:
        print(f"wrote {path}")
    _write_obs(session, args)
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro.reporting import operator_summary

    session = _session(args)
    print(operator_summary(session.dataset()))
    print(session.summary())
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Observability entry point.

    With ``--trace FILE`` it summarizes an existing Chrome trace
    export.  ``repro obs top`` runs the build under the live island
    telemetry view (island table redrawn in place on a TTY) and
    finishes with the event-timeline digest.  The default ``report``
    mode runs the dataset build (and, with ``--figures``, every
    figure) under tracing and prints the run report — the span tree
    plus the metric digest — honouring ``--trace-out`` /
    ``--metrics-out`` / ``--events-out`` like the other commands.
    """
    from repro.obs import run_report, summarize_chrome_trace, summarize_events, timeline_events

    if args.trace:
        print(summarize_chrome_trace(args.trace))
        return 0
    if args.mode == "top":
        return _cmd_obs_top(args)
    session = _session(args)
    session.dataset()
    if args.figures:
        session.run_figures()
    print(run_report(session.tracer, session.metrics))
    events = timeline_events(session.recorder, session.tracer)
    if events:
        print(summarize_events(events))
    _write_obs(session, args)
    return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    """``repro obs top``: live per-island telemetry around a build."""
    from repro.obs import ProgressPrinter, summarize_events, timeline_events
    from repro.obs.progress import use_sink

    session = _session(args)
    printer = ProgressPrinter()
    with use_sink(printer):
        session.dataset()
    printer.finish()
    print(session.summary())
    print(summarize_events(timeline_events(session.recorder, session.tracer)))
    _write_obs(session, args)
    return 0


#: The performance-smoke suite: every benchmark file that gates a perf
#: contract (see docs/performance.md), keyed by a short target name.
PERF_SMOKE = (
    ("frame", "benchmarks/bench_frame.py"),
    ("pipeline", "benchmarks/bench_pipeline.py"),
    ("obs", "benchmarks/bench_obs.py"),
    ("dataset-build", "benchmarks/bench_dataset_build.py"),
    ("stream", "benchmarks/bench_stream.py"),
    ("scale", "benchmarks/bench_scale.py"),
    ("prediction", "benchmarks/bench_phase_prediction.py"),
)


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the perf-smoke benchmark gates and print a pass/fail table.

    Each benchmark file runs in its own pytest subprocess (the gates
    time real work; sharing an interpreter would let one benchmark's
    warm caches skew another's baseline).  Unless ``--no-json``, the
    run is also serialized to ``BENCH_<n>.json`` at the repo root
    (``--json-out`` overrides the path) with per-suite wall times and
    the throughput/memory stats the suites report — see
    ``repro.bench``.
    """
    import os

    import repro
    from repro.bench import (
        check_regressions,
        next_bench_path,
        run_suite,
        trend_report,
        write_bench_json,
    )

    root = Path(repro.__file__).resolve().parents[2]
    if args.report:
        # Pure reporting mode: render the stored trajectory as-is.
        print(trend_report(root, markdown=args.markdown))
        return 0
    if args.check and not args.targets and args.no_json:
        # Pure comparator mode: judge the stored trajectory as-is.
        check = check_regressions(
            root, threshold=args.check_threshold, window=args.check_window
        )
        print(check.to_text())
        return 0 if check.ok else 3
    selected = list(PERF_SMOKE)
    if args.targets:
        by_name = dict(PERF_SMOKE)
        unknown = [t for t in args.targets if t not in by_name]
        if unknown:
            names = ", ".join(name for name, _ in PERF_SMOKE)
            print(f"unknown bench target(s) {unknown}; choose from: {names}")
            return 2
        selected = [(t, by_name[t]) for t in args.targets]
    if args.list:
        for name, rel_path in selected:
            print(f"{name:<14} {rel_path}")
        return 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    results = []
    for name, rel_path in selected:
        result = run_suite(name, rel_path, root, env)
        results.append(result)
        if not result.passed:
            print(f"--- {name}: {rel_path} failed ---")
            print(result.stdout_tail)
            print(result.stderr_tail)
    print(f"{'target':<14} {'result':<6} {'seconds':>8}")
    for result in results:
        status = "pass" if result.passed else "FAIL"
        print(f"{result.name:<14} {status:<6} {result.seconds:>8.1f}")
    if not args.no_json:
        json_path = Path(args.json_out) if args.json_out else next_bench_path(root)
        write_bench_json(results, json_path)
        print(f"wrote {json_path}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(
            f"{len(failed)}/{len(results)} benchmark gates failed: {', '.join(failed)}"
        )
        return 1
    print(f"{len(results)}/{len(results)} benchmark gates passed")
    if args.check:
        check = check_regressions(
            root, threshold=args.check_threshold, window=args.check_window
        )
        print(check.to_text())
        if not check.ok:
            return 3
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation import CHECKS, pass_fraction, scorecard, validate_dataset

    session = _session(args)
    # The graded figures run as the session's ``figures`` stage, traced
    # like a report's; grading then reads the results the dataset kept.
    session.run_figures(list(dict.fromkeys(check.figure_id for check in CHECKS)))
    results = validate_dataset(session.dataset())
    table = scorecard(results)
    failed = table.filter(lambda t: ~_np.asarray(t["passed"], dtype=bool))
    if failed.num_rows:
        print("failed checks:")
        print(failed.to_string(max_rows=60))
    fraction = pass_fraction(results)
    print(f"\n{sum(r.passed for r in results)}/{len(results)} checks passed "
          f"({fraction:.0%}; threshold {args.min_pass:.0%})")
    print(session.summary())
    _write_obs(session, args)
    return 0 if fraction >= args.min_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercloud-repro",
        description="Reproduction of the HPCA'22 MIT Supercloud characterization study",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate the dataset as CSV files")
    DatasetOptions.add_arguments(generate, session_flags=True)
    generate.add_argument("--output", default="dataset", help="output directory")
    generate.set_defaults(fn=_cmd_generate)

    figure = sub.add_parser("figure", help="reproduce one figure")
    DatasetOptions.add_arguments(figure)
    figure.add_argument("figure_id", help="e.g. fig04, table1, pareto")
    figure.set_defaults(fn=_cmd_figure)

    report = sub.add_parser("report", help="run every figure, write markdown")
    DatasetOptions.add_arguments(report, session_flags=True)
    report.add_argument("--output", default="EXPERIMENTS.md", help="output file")
    report.set_defaults(fn=_cmd_report)

    opportunities = sub.add_parser("opportunities", help="run the Sec. VI/VIII studies")
    DatasetOptions.add_arguments(opportunities)
    opportunities.set_defaults(fn=_cmd_opportunities)

    plot = sub.add_parser("plot", help="render figures as SVG charts")
    DatasetOptions.add_arguments(plot, session_flags=True)
    plot.add_argument("figure_id", help="figure id or 'all'")
    plot.add_argument("--output", default="plots", help="output directory")
    plot.set_defaults(fn=_cmd_plot)

    summary = sub.add_parser("summary", help="operator-facing text summary")
    DatasetOptions.add_arguments(summary)
    summary.set_defaults(fn=_cmd_summary)

    validate = sub.add_parser("validate", help="grade the dataset against the paper")
    DatasetOptions.add_arguments(validate, session_flags=True)
    validate.add_argument("--min-pass", type=float, default=0.85,
                          help="exit non-zero below this pass fraction")
    validate.set_defaults(fn=_cmd_validate)

    obs = sub.add_parser(
        "obs", help="observability: traced run report, live telemetry, trace exports"
    )
    obs.add_argument(
        "mode", nargs="?", default="report", choices=("report", "top"),
        help="report: traced run report (default); top: live per-island "
             "telemetry view while the dataset builds",
    )
    DatasetOptions.add_arguments(obs, session_flags=True)
    obs.add_argument(
        "--figures", action="store_true",
        help="also run every figure under the trace",
    )
    obs.add_argument(
        "--trace", default=None, metavar="FILE",
        help="summarize an existing Chrome trace JSON instead of running the pipeline",
    )
    obs.set_defaults(fn=_cmd_obs)

    bench = sub.add_parser(
        "bench", help="run the performance-smoke benchmark gates"
    )
    bench.add_argument(
        "targets", nargs="*",
        help="bench targets to run (default: all; see --list)",
    )
    bench.add_argument(
        "--list", action="store_true",
        help="list the bench targets instead of running them",
    )
    bench.add_argument(
        "--json-out", metavar="FILE",
        help="write the machine-readable results here instead of the "
             "next free BENCH_<n>.json at the repo root",
    )
    bench.add_argument(
        "--no-json", action="store_true",
        help="skip writing the machine-readable BENCH_<n>.json",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="after the run (or alone with --no-json), compare the newest "
             "BENCH_<n>.json against the stored trajectory and exit 3 on a "
             "wall-time regression",
    )
    bench.add_argument(
        "--check-threshold", type=float, default=0.35, metavar="FRAC",
        help="relative slowdown vs the baseline median that counts as a "
             "regression (default: 0.35 = 35%%)",
    )
    bench.add_argument(
        "--check-window", type=int, default=5, metavar="N",
        help="number of prior comparable runs forming the baseline median "
             "(default: 5)",
    )
    bench.add_argument(
        "--report", action="store_true",
        help="render the stored BENCH_<n>.json trajectory as a per-suite "
             "trend table (sparklines + slope flags) and exit",
    )
    bench.add_argument(
        "--markdown", action="store_true",
        help="with --report, emit a GitHub-flavoured markdown table "
             "(for CI artifacts)",
    )
    bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "progress", False) and getattr(args, "mode", None) != "top":
        # --progress: render live island telemetry while the command
        # runs (``obs top`` installs its own printer, so skip it there).
        from repro.obs import ProgressPrinter
        from repro.obs.progress import use_sink

        printer = ProgressPrinter()
        with use_sink(printer):
            code = args.fn(args)
        printer.finish()
        return code
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
