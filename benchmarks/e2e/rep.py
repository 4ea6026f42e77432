"""One repetition of an end-to-end benchmark workload, in a fresh process.

``run.py`` launches this file once per repetition and reads the JSON
object it prints as its last stdout line.  A repetition drives the
public surface a user of ``repro report`` / ``repro validate`` drives:

    Session -> dataset -> every registered figure -> validate_dataset

and times each step from the outside.  ``setup_s`` runs from the
moment the parent spawned this process (``--spawned``, a wall-clock
stamp) to the start of the timed section, so it covers the
interpreter, ``import repro``, the figure registry and ``Session``
construction.

Untraced repetitions hand the ``Session`` the null observability
triple.  ``--traced`` repetitions keep the session's default enabled
tracer/metrics/recorder, install it as the ambient triple for the
figures and validation too, and derive the per-layer metrics
(:func:`derive_layers`) from the session's stage records, its metrics
registry, and the benchmark's own timers.

``--prime`` is the untimed cache fill for ``warm_cache``: it builds the
dataset into the cache and records digests of the built tables, which
the timed repetition compares against the tables it loads back.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path

#: The three workloads, in the order ``run.py`` runs them.
WORKLOADS = ("paper_cold", "coupled_stream", "warm_cache")

SCENARIO = "paper"
#: ``coupled_stream``: two interchange-coupled islands, one fork
#: worker each, so the build stays within a 2-core machine.
PARTITIONS = 2
CHUNK_ROWS = 8192
#: The coupling ``benchmarks/bench_scale.py`` uses for its streaming
#: gate: migration forces the islands into lockstep epochs.
EPOCH_S = 6 * 3600.0
MIGRATE_AFTER_S = 3600.0
#: The largest job spans 8 nodes, so every island needs 8.
MIN_ISLAND_NODES = 8

MIB = 1024.0 * 1024.0

#: Stages that make up a build (cold) or stand in for one (warm).
BUILD_STAGES = ("workload", "schedule", "sampling", "monitor", "assemble", "cache_store", "cache_load")


def workload_config(name: str, seed: int, scale: float):
    """The ``WorkloadConfig`` a workload builds: scenario ``paper``."""
    from repro.workload.scenarios import make_scenario

    config = make_scenario(SCENARIO, scale=scale, seed=seed)
    if name == "coupled_stream":
        # At small scales grow the machine so each island still has the
        # nodes the largest jobs need (the same rule bench_scale uses);
        # from scale 0.0715 up this keeps the paper's 224 nodes.
        nodes = max(config.num_nodes, math.ceil(MIN_ISLAND_NODES * PARTITIONS / scale))
        config = dataclasses.replace(config, partitions=PARTITIONS, num_nodes=nodes)
    return config


def table_digest(table) -> str:
    """Content hash of a frame table: column names and exact values."""
    import numpy as np

    digest = hashlib.sha256()
    for name in table.column_names:
        digest.update(name.encode("utf-8"))
        digest.update(repr(np.asarray(table[name]).tolist()).encode("utf-8"))
    return digest.hexdigest()


def dataset_digests(dataset) -> dict:
    """What the warm-cache round trip must reproduce exactly."""
    return {
        "jobs": table_digest(dataset.jobs),
        "gpu_jobs": table_digest(dataset.gpu_jobs),
        "per_gpu": table_digest(dataset.per_gpu),
        "num_series": len(dataset.timeseries),
        "num_records": len(dataset.records),
    }


def _session(name: str, config, work: Path, traced: bool):
    from repro.obs import NULL_METRICS, NULL_RECORDER, NULL_TRACER
    from repro.pipeline import Session
    from repro.slurm.interchange import InterchangeConfig

    obs = {} if traced else dict(tracer=NULL_TRACER, metrics=NULL_METRICS, recorder=NULL_RECORDER)
    if name == "coupled_stream":
        interchange = InterchangeConfig(epoch_s=EPOCH_S, migrate_after_s=MIGRATE_AFTER_S)
        return Session(config, workers=PARTITIONS, interchange=interchange, **obs)
    return Session(config, cache_dir=work / "cache", workers=1, **obs)


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss * 1024.0 / MIB


def prime(name: str, seed: int, scale: float, work: Path) -> None:
    """Fill the cache for ``warm_cache`` and record the built digests."""
    session = _session(name, workload_config(name, seed, scale), work, traced=False)
    dataset = session.dataset()
    (work / f"prime-{seed}.json").write_text(json.dumps(dataset_digests(dataset)))


class Operations:
    """Attempted/failed bookkeeping for one repetition."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []

    def run(self, label: str, fn):
        """Call ``fn``; a raised exception counts as one failed operation."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a benchmark boundary: record and go on
            traceback.print_exc(file=sys.stderr)
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        """One correctness check, counted as an operation."""
        self.attempted += 1
        if not ok:
            self.errors.append(f"{label}: check failed {detail}".rstrip())


def _run_figure(figure_id: str, dataset):
    from repro.figures.base import FigureResult
    from repro.figures.registry import run_figure

    result = run_figure(figure_id, dataset)
    if not isinstance(result, FigureResult) or not result.comparisons:
        raise ValueError(f"{figure_id} returned no comparisons")
    return result


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _entry_load_timings(session) -> dict:
    """Time each cache-entry file's loader, outside the timed section."""
    from repro.frame import read_csv
    from repro.monitor.codec import load_store

    out = {"tables_load_s": 0.0, "series_load_s": 0.0, "records_load_s": 0.0, "entry_bytes": 0}
    if session.cache is None or not session.cache.has(session.key):
        return out
    entry = session.cache.entry_dir(session.key)
    for filename in ("jobs.csv", "gpu_jobs.csv", "per_gpu.csv"):
        out["tables_load_s"] += _timed(lambda: read_csv(entry / filename))[1]
    out["series_load_s"] = _timed(lambda: load_store(entry / "timeseries.npz"))[1]
    with (entry / "records.pkl").open("rb") as fh:
        out["records_load_s"] = _timed(lambda: pickle.load(fh))[1]
    out["entry_bytes"] = sum(path.stat().st_size for path in entry.iterdir() if path.is_file())
    return out


def _metric_sum(snapshot: dict, kind: str, name: str, **labels) -> float:
    """Sum of every ``kind`` sample named ``name`` matching ``labels``."""
    want = {(key, str(value)) for key, value in labels.items()}
    total = 0.0
    for entry in snapshot.get(kind, []):
        sample_name, sample_labels, value = entry[0], entry[1], entry[2]
        if sample_name == name and want <= set(map(tuple, sample_labels)):
            total += value
    return total


def derive_layers(
    stages,
    snapshot: dict,
    figure_seconds: dict,
    validation: dict,
    build_s: float,
    spans: int,
    entry: dict,
    worker_peak_rss_mb: float,
) -> dict:
    """Per-layer metrics from one traced repetition.

    ``stages`` are ``(name, seconds, rows)`` triples (the session's
    stage records), ``snapshot`` a :meth:`MetricsRegistry.snapshot`,
    ``figure_seconds``/``validation``/``build_s`` the benchmark's own
    timers, and ``entry`` the cache-entry load timings.  Layers the
    workload bypasses read 0.
    """
    seconds: dict[str, float] = {}
    rows: dict[str, int] = {}
    for name, secs, nrows in stages:
        seconds[name] = seconds.get(name, 0.0) + secs
        rows[name] = rows.get(name, 0) + nrows

    def rate(stage: str) -> float:
        # A sharded build's sampling stage only tallies rows the islands
        # already sampled; a rate over a sub-millisecond span measures
        # nothing, so it reads 0 like a bypassed layer.
        secs = seconds.get(stage, 0.0)
        return rows.get(stage, 0) / secs if secs >= 1e-3 else 0.0

    def counter(name: str, **labels) -> float:
        return _metric_sum(snapshot, "counters", name, **labels)

    def gauge(name: str) -> float:
        return max((e[2] for e in snapshot.get("gauges", []) if e[0] == name), default=0.0)

    dispatched = counter("repro_scheduler_dispatch_total")
    spill_bytes = counter("repro_frame_spill_bytes_total")
    out = {
        "workload.generate_s": seconds.get("workload", 0.0),
        "workload.jobs_per_s": rate("workload"),
        "slurm.schedule_s": seconds.get("schedule", 0.0),
        "slurm.events": counter("repro_scheduler_events_total"),
        "slurm.backfill_frac": (
            counter("repro_scheduler_dispatch_total", backfill="true") / dispatched
            if dispatched
            else 0.0
        ),
        "slurm.peak_queue": gauge("repro_scheduler_peak_queue"),
        "slurm.migrations": counter("repro_shard_migrations_total"),
        "slurm.island_peak_rss_mb": gauge("repro_shard_island_peak_rss_bytes") / MIB,
        "slurm.worker_peak_rss_mb": worker_peak_rss_mb,
        "monitor.sampling_s": seconds.get("sampling", 0.0),
        "monitor.sampling_rows_per_s": rate("sampling"),
        "monitor.sampling_tasks": counter("repro_sampling_tasks_total"),
        "monitor.series_kept": counter("repro_monitor_series_kept_total"),
        "monitor.merge_s": seconds.get("monitor", 0.0),
        "pipeline.build_s": build_s,
        "pipeline.assemble_s": seconds.get("assemble", 0.0),
        "pipeline.cache_store_s": seconds.get("cache_store", 0.0),
        "pipeline.cache_load_s": seconds.get("cache_load", 0.0),
        "pipeline.cache.tables_load_s": entry["tables_load_s"],
        "pipeline.cache.series_load_s": entry["series_load_s"],
        "pipeline.cache.records_load_s": entry["records_load_s"],
        "pipeline.cache.entry_bytes": entry["entry_bytes"],
        "pipeline.stage_coverage": (
            sum(seconds.get(stage, 0.0) for stage in BUILD_STAGES) / build_s if build_s else 0.0
        ),
        "frame.stream.chunks": counter("repro_frame_stream_chunks_total"),
        "frame.stream.rows": counter("repro_frame_stream_rows_total"),
        "frame.spill.chunks": counter("repro_frame_spill_chunks_total"),
        "frame.spill.bytes": spill_bytes,
        "frame.spill.raw_bytes": counter("repro_frame_spill_raw_bytes_total"),
        "frame.spill.compression_ratio": (
            counter("repro_frame_spill_raw_bytes_total") / spill_bytes if spill_bytes else 0.0
        ),
        "validation.checks": validation["checks"],
        "validation.passed": validation["passed"],
        "validation.pass_frac": validation["pass_frac"],
        "validation.run_s": validation["run_s"],
        "obs.spans": spans,
    }
    for kernel in ("aggregate", "join", "pivot", "value_counts", "stream_aggregate"):
        out[f"frame.kernel.{kernel}.calls"] = counter("repro_frame_kernel_calls_total", kernel=kernel)
        out[f"frame.kernel.{kernel}.rows"] = counter("repro_frame_kernel_rows_total", kernel=kernel)
    out["figures.all_s"] = sum(figure_seconds.values())
    for figure_id, secs in figure_seconds.items():
        out[f"figures.{figure_id}_s"] = secs
    return {name: float(value) for name, value in out.items()}


def repetition(
    name: str, seed: int, scale: float, work: Path, spawned: float, traced: bool,
    trace_file: Path | None = None,
) -> dict:
    """Run one timed repetition and return its JSON-ready result."""
    from repro.figures.registry import all_figures
    from repro.obs import runtime as obs_runtime
    from repro.validation import pass_fraction, validate_dataset

    ops = Operations()
    session = _session(name, workload_config(name, seed, scale), work, traced)
    tracer = session.tracer
    setup_s = time.time() - spawned

    figure_seconds: dict[str, float] = {}
    results = None
    with obs_runtime.use(session.tracer, session.metrics, session.recorder):
        start = time.perf_counter()
        with tracer.span("bench.build", category="bench"):
            if name == "coupled_stream":
                dataset = ops.run("build", lambda: session.streaming_dataset(
                    chunk_rows=CHUNK_ROWS, spill_dir=work / "spill"
                ).streaming_view())
            else:
                dataset = ops.run("build", session.dataset)
        built = time.perf_counter()
        with tracer.span("bench.figures", category="bench"):
            for figure_id in all_figures():
                if dataset is None:
                    ops.check(figure_id, False, "(no dataset)")
                    figure_seconds[figure_id] = 0.0
                    continue
                figure_start = time.perf_counter()
                ops.run(figure_id, lambda fid=figure_id: _run_figure(fid, dataset))
                figure_seconds[figure_id] = time.perf_counter() - figure_start
        figured = time.perf_counter()
        with tracer.span("bench.validate", category="bench"):
            if dataset is None:
                ops.check("validate", False, "(no dataset)")
            else:
                results = ops.run("validate", lambda: validate_dataset(dataset))
        validated = time.perf_counter()

    pass_frac = pass_fraction(results) if results else 0.0
    if dataset is not None:
        _workload_checks(name, session, dataset, seed, work, ops)

    build_s, figures_s, validate_s = built - start, figured - built, validated - figured
    out = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "attempted": ops.attempted,
        "failed": len(ops.errors),
        "errors": ops.errors,
        "metrics": {
            "setup_s": setup_s,
            "build_s": build_s,
            "figures_s": figures_s,
            "validate_s": validate_s,
            "total_s": build_s + figures_s + validate_s,
            "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
            "scorecard_pass_frac": pass_frac,
        },
    }
    if traced:
        out["layers"] = derive_layers(
            [(s.name, s.seconds, s.rows) for s in session.stages],
            session.metrics.snapshot(),
            figure_seconds,
            {
                "checks": len(results or ()),
                "passed": sum(r.passed for r in results or ()),
                "pass_frac": pass_frac,
                "run_s": validate_s,
            },
            build_s,
            len(tracer.finished()),
            _entry_load_timings(session),
            _peak_rss_mb(resource.RUSAGE_CHILDREN),
        )
        if trace_file is not None:
            from repro.obs import write_chrome_trace

            write_chrome_trace(trace_file, tracer, metadata={"workload": name, "seed": seed})
    return out


def _workload_checks(name: str, session, dataset, seed: int, work: Path, ops: Operations) -> None:
    if name == "paper_cold":
        ops.check("cold_build", session.instrumentation.count("build") == 1 and session.cache.has(session.key))
    elif name == "coupled_stream":
        from repro.monitor.timeseries import SpilledTimeSeriesStore

        ops.check(
            "streaming",
            dataset.is_streaming
            and not dataset.records
            and isinstance(dataset.timeseries, SpilledTimeSeriesStore),
        )
    else:
        loaded_only = session.instrumentation.count("cache_hit") == 1 and not any(
            session.executed(stage) for stage in ("workload", "schedule", "sampling")
        )
        ops.check("cache_hit", loaded_only)
        primed = json.loads((work / f"prime-{seed}.json").read_text())
        loaded = dataset_digests(dataset)
        for key, value in primed.items():
            ops.check(f"digest_{key}", loaded[key] == value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="wall-clock spawn time (time.time())")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-file", type=Path, default=None)
    parser.add_argument("--prime", action="store_true")
    args = parser.parse_args(argv)
    if args.prime:
        prime(args.workload, args.seed, args.scale, args.work)
        return 0
    out = repetition(
        args.workload, args.seed, args.scale, args.work,
        args.spawned, args.traced, args.trace_file,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
