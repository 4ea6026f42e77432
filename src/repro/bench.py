"""Machine-readable results for the performance-smoke suite.

``python -m repro bench`` has always printed a human pass/fail table;
this module adds the durable artifact: every run also writes a
``BENCH_<n>.json`` at the repo root recording, per benchmark suite,
the wall time, pass/fail, and whatever throughput/memory statistics
the suite chose to report.  The JSON is append-only history — each run
picks the next free ``<n>`` — so regressions can be diffed across
commits without re-running old code.

Suites report statistics through :func:`record_bench_stat`: while a
suite runs, the runner exports ``REPRO_BENCH_STATS_DIR`` and each call
drops a small JSON sidecar there (one file per stat name, last write
wins); the runner sweeps the directory afterwards and merges the
sidecars into that suite's entry.  Outside the runner the helper is a
no-op, so benchmark files behave identically under plain pytest.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Environment variable the runner sets while a suite's subprocess runs.
STATS_DIR_ENV = "REPRO_BENCH_STATS_DIR"

#: Written BENCH files match this (``BENCH_6.json``, ``BENCH_12.json``, …).
_BENCH_FILE_RE = re.compile(r"^BENCH_(\d+)\.json$")

#: The first id ever used, so history starts where the repo's numbered
#: growth issues left off.
FIRST_BENCH_ID = 6


def record_bench_stat(name: str, **stats) -> None:
    """Report a named statistic block from inside a benchmark suite.

    ``stats`` values must be JSON-serializable (numbers, strings,
    flat dicts).  Typical use from a benchmark body::

        record_bench_stat("stream_sketch", rows_per_s=2.1e7,
                          peak_tracemalloc_bytes=3_400_000)

    No-op unless ``REPRO_BENCH_STATS_DIR`` is set (i.e. unless running
    under ``python -m repro bench``), so suites stay plain pytest
    files.
    """
    stats_dir = os.environ.get(STATS_DIR_ENV)
    if not stats_dir:
        return
    path = Path(stats_dir) / f"{name}.json"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(stats, sort_keys=True))
    except OSError:
        # A broken stats dir must never fail the benchmark itself.
        return


@dataclass
class SuiteResult:
    """Outcome of one benchmark file run in its own pytest subprocess."""

    name: str
    path: str
    passed: bool
    seconds: float
    stats: dict = field(default_factory=dict)
    stdout_tail: str = ""
    stderr_tail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
            "stats": self.stats,
        }


def run_suite(name: str, rel_path: str, root: Path, env: dict) -> SuiteResult:
    """Run one benchmark file in a pytest subprocess, collecting stats.

    The subprocess gets a fresh ``REPRO_BENCH_STATS_DIR``; sidecar JSON
    files written there by :func:`record_bench_stat` are merged into
    the result keyed by stat name.
    """
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-bench-stats-") as stats_dir:
        sub_env = dict(env)
        sub_env[STATS_DIR_ENV] = stats_dir
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", rel_path],
            cwd=root,
            env=sub_env,
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - start
        stats = _sweep_stats(Path(stats_dir))
    return SuiteResult(
        name=name,
        path=rel_path,
        passed=proc.returncode == 0,
        seconds=elapsed,
        stats=stats,
        stdout_tail=proc.stdout[-4000:],
        stderr_tail=proc.stderr[-2000:],
    )


def _sweep_stats(stats_dir: Path) -> dict:
    stats: dict = {}
    try:
        sidecars = sorted(stats_dir.glob("*.json"))
    except OSError:
        return stats
    for sidecar in sidecars:
        try:
            stats[sidecar.stem] = json.loads(sidecar.read_text())
        except (OSError, ValueError):
            stats[sidecar.stem] = {"error": "unreadable stats sidecar"}
    return stats


def next_bench_path(root: Path) -> Path:
    """The next free ``BENCH_<n>.json`` at the repo root.

    Existing history is never overwritten: the id is one past the
    largest already present (starting at :data:`FIRST_BENCH_ID`).
    """
    highest = FIRST_BENCH_ID - 1
    try:
        entries = list(root.iterdir())
    except OSError:
        entries = []
    for entry in entries:
        match = _BENCH_FILE_RE.match(entry.name)
        if match:
            highest = max(highest, int(match.group(1)))
    return root / f"BENCH_{highest + 1}.json"


def load_bench_history(root: Path) -> list[tuple[int, dict]]:
    """All readable ``BENCH_<n>.json`` payloads at ``root``, id-sorted.

    Unreadable or malformed files are skipped — history may span many
    tool versions and a corrupt old entry must not break checking.
    """
    entries: list[tuple[int, dict]] = []
    try:
        candidates = list(root.iterdir())
    except OSError:
        return entries
    for entry in candidates:
        match = _BENCH_FILE_RE.match(entry.name)
        if not match:
            continue
        try:
            payload = json.loads(entry.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict) and isinstance(payload.get("suites"), list):
            entries.append((int(match.group(1)), payload))
    entries.sort(key=lambda pair: pair[0])
    return entries


@dataclass
class BenchCheck:
    """Outcome of comparing the latest bench run against history."""

    latest_id: int | None
    baseline_runs: int
    threshold: float
    min_seconds: float
    checked: list[dict] = field(default_factory=list)
    regressions: list[dict] = field(default_factory=list)
    #: Stat-level comparisons (throughput / peak memory), same
    #: ratio+absolute double gate as wall time.
    stat_checked: list[dict] = field(default_factory=list)
    stat_regressions: list[dict] = field(default_factory=list)
    #: Suites whose gates failed in the latest run (``passed: false``).
    failed_suites: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.regressions or self.stat_regressions or self.failed_suites)

    def to_text(self) -> str:
        if self.latest_id is None:
            return "bench check: no BENCH_<n>.json history to compare"
        failed = [
            f"  {name:<12} FAILED: its gates failed in BENCH_{self.latest_id}"
            for name in self.failed_suites
        ]
        if self.baseline_runs == 0:
            return "\n".join([
                f"bench check: BENCH_{self.latest_id} has no comparable "
                "baseline runs (first run at this bench scale?)",
                *failed,
            ])
        lines = [
            f"bench check: BENCH_{self.latest_id} vs median of "
            f"{self.baseline_runs} prior run(s) "
            f"(flag > {1 + self.threshold:.2f}x and > +{self.min_seconds:g}s)",
            *failed,
        ]
        for row in self.checked:
            flagged = "REGRESSION" if row in self.regressions else "ok"
            lines.append(
                f"  {row['suite']:<12} {row['latest_s']:8.2f}s "
                f"baseline {row['baseline_s']:8.2f}s "
                f"({row['ratio']:.2f}x)  {flagged}"
            )
        for row in self.stat_checked:
            flagged = "REGRESSION" if row in self.stat_regressions else "ok"
            lines.append(
                f"  {row['suite']:<12} {row['metric']}: "
                f"{row['latest']:.3g} baseline {row['baseline']:.3g} "
                f"({row['ratio']:.2f}x)  {flagged}"
            )
        return "\n".join(lines)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


#: Absolute floors for the stat-level double gates (mirrors
#: ``min_seconds`` for wall time): a throughput drop must lose at
#: least this many rows/s, a peak-memory growth must add at least
#: this many bytes, a spill-volume growth must add at least this many
#: encoded bytes, and a ratio (compression or speedup) must lose at
#: least this much before the ratio gate can flag it.
MIN_ROWS_PER_S_DROP = 10_000.0
MIN_PEAK_BYTES_GROWTH = 16 * 1024 * 1024
MIN_SPILL_BYTES_GROWTH = 4 * 1024 * 1024
MIN_COMPRESSION_RATIO_DROP = 0.25

#: Whether a higher value of a stat kind is a regression.  Wall time,
#: peak memory, and spill volume worsen upward; throughput and
#: compression ratios worsen downward.
_KIND_HIGHER_IS_WORSE = {
    "seconds": True,
    "memory": True,
    "spill": True,
    "throughput": False,
    "ratio": False,
}


def _stat_kind(key: str) -> str | None:
    """Classify a stat key for regression checking.

    ``rows_per_s``-style keys are throughput (lower is worse);
    ``*peak*bytes``-style keys are memory (higher is worse);
    ``*spill*bytes``- and ``*entry*bytes``-style keys are stored volume,
    spill files or cache-entry files (higher is worse — the codec's job
    is to keep encoded bytes down); keys ending in
    ``compression_ratio`` (codec ratios) or ``speedup_x`` (a gate's
    fast path over its reference) are ratios (lower is worse); keys
    ending in ``_load_s`` are seconds (higher is worse).  Anything
    else is informational and never gated.
    """
    if key.endswith("rows_per_s"):
        return "throughput"
    if key.endswith(("compression_ratio", "speedup_x")):
        return "ratio"
    if key.endswith("_load_s"):
        return "seconds"
    if "peak" in key and key.endswith("bytes"):
        return "memory"
    if ("spill" in key or "entry" in key) and key.endswith("bytes"):
        return "spill"
    return None


def _flat_stats(suite: dict) -> dict[str, float]:
    """Gateable numeric stats of one suite entry as ``stat.key`` pairs."""
    flat: dict[str, float] = {}
    stats = suite.get("stats")
    if not isinstance(stats, dict):
        return flat
    for stat_name, block in stats.items():
        if not isinstance(block, dict):
            continue
        for key, value in block.items():
            if _stat_kind(key) and isinstance(value, (int, float)):
                flat[f"{stat_name}.{key}"] = float(value)
    return flat


def _scale_knobs(payload: dict) -> tuple:
    """The run's two scale knobs; a run stamped before
    ``bench_scale_full`` existed ran the scale suite at the then
    default ``1.0``."""
    return payload.get("bench_scale"), payload.get("bench_scale_full", "1.0")


def check_regressions(
    root: Path,
    *,
    threshold: float = 0.35,
    min_seconds: float = 2.0,
    window: int = 5,
) -> BenchCheck:
    """Flag per-suite wall-time and stat regressions in the trajectory.

    The newest ``BENCH_<n>.json`` is compared, suite by suite, against
    the **median** of up to ``window`` immediately preceding runs that
    used the same ``bench_scale`` and ``bench_scale_full`` (different
    scales are incomparable by construction).  A suite the newest run
    records as failed (``passed: false``) fails the check whatever its
    numbers, even with no baseline.  A suite regresses when
    its latest wall time exceeds ``(1 + threshold) * median`` **and**
    the absolute slowdown exceeds ``min_seconds`` — the second clause
    keeps sub-second suites from tripping on scheduler noise.  Suites absent from the baseline
    (newly added benchmarks) are never flagged.

    Recorded stats get the same ratio+absolute double gate: a
    ``rows_per_s`` throughput stat regresses when it falls below
    ``median / (1 + threshold)`` and loses more than
    :data:`MIN_ROWS_PER_S_DROP`; a ``*peak*bytes`` memory stat
    regresses when it exceeds ``(1 + threshold) * median`` and grows by
    more than :data:`MIN_PEAK_BYTES_GROWTH`; a ``*spill*bytes`` volume
    stat (or ``*entry*bytes``) works like memory with a
    :data:`MIN_SPILL_BYTES_GROWTH` floor; a ``*_load_s`` seconds stat
    works like wall time, ``min_seconds`` floor included; a
    ``*compression_ratio`` or ``*speedup_x`` ratio stat works like
    throughput with a :data:`MIN_COMPRESSION_RATIO_DROP` floor.  Stats absent from the
    baseline are, like new suites, never flagged.
    """
    history = load_bench_history(root)
    if not history:
        return BenchCheck(None, 0, threshold, min_seconds)
    latest_id, latest = history[-1]
    baselines = [
        payload
        for _, payload in history[:-1]
        if _scale_knobs(payload) == _scale_knobs(latest)
    ][-window:]
    check = BenchCheck(latest_id, len(baselines), threshold, min_seconds)
    check.failed_suites = [
        str(suite.get("name")) for suite in latest["suites"] if suite.get("passed") is False
    ]
    if not baselines:
        return check
    baseline_times: dict[str, list[float]] = {}
    baseline_stats: dict[tuple[str, str], list[float]] = {}
    for payload in baselines:
        for suite in payload["suites"]:
            name, seconds = suite.get("name"), suite.get("seconds")
            if isinstance(name, str) and isinstance(seconds, (int, float)):
                baseline_times.setdefault(name, []).append(float(seconds))
            if isinstance(name, str):
                for metric, value in _flat_stats(suite).items():
                    baseline_stats.setdefault((name, metric), []).append(value)
    for suite in latest["suites"]:
        name, seconds = suite.get("name"), suite.get("seconds")
        if not isinstance(name, str):
            continue
        if name in baseline_times:
            baseline = _median(baseline_times[name])
            latest_s = float(seconds)
            row = {
                "suite": name,
                "latest_s": latest_s,
                "baseline_s": baseline,
                "ratio": latest_s / baseline if baseline > 0 else float("inf"),
            }
            check.checked.append(row)
            if (
                latest_s > (1.0 + threshold) * baseline
                and latest_s - baseline > min_seconds
            ):
                check.regressions.append(row)
        for metric, value in _flat_stats(suite).items():
            if (name, metric) not in baseline_stats:
                continue
            baseline = _median(baseline_stats[(name, metric)])
            kind = _stat_kind(metric.rsplit(".", 1)[-1])
            row = {
                "suite": name,
                "metric": metric,
                "kind": kind,
                "latest": value,
                "baseline": baseline,
                "ratio": value / baseline if baseline > 0 else float("inf"),
            }
            check.stat_checked.append(row)
            if kind == "throughput":
                regressed = (
                    value < baseline / (1.0 + threshold)
                    and baseline - value > MIN_ROWS_PER_S_DROP
                )
            elif kind == "ratio":
                regressed = (
                    value < baseline / (1.0 + threshold)
                    and baseline - value > MIN_COMPRESSION_RATIO_DROP
                )
            elif kind == "spill":
                regressed = (
                    value > (1.0 + threshold) * baseline
                    and value - baseline > MIN_SPILL_BYTES_GROWTH
                )
            elif kind == "seconds":
                regressed = (
                    value > (1.0 + threshold) * baseline
                    and value - baseline > min_seconds
                )
            else:
                regressed = (
                    value > (1.0 + threshold) * baseline
                    and value - baseline > MIN_PEAK_BYTES_GROWTH
                )
            if regressed:
                check.stat_regressions.append(row)
    return check


# ----------------------------------------------------------------------
# Trend reporting (`repro bench --report`)
# ----------------------------------------------------------------------

#: Eight-level bars for terminal sparklines, lowest to highest.
_SPARK_BARS = "▁▂▃▄▅▆▇█"

#: A least-squares slope steeper than this fraction of the series mean,
#: per run, in the *worsening* direction, earns a DRIFT flag.
TREND_DRIFT_THRESHOLD = 0.05


def _sparkline(values: list[float | None]) -> str:
    """Min-max scaled unicode sparkline; ``None`` gaps render as ``·``."""
    present = [v for v in values if v is not None]
    if not present:
        return "·" * len(values)
    lo, hi = min(present), max(present)
    span = hi - lo
    chars = []
    for value in values:
        if value is None:
            chars.append("·")
        elif span <= 0:
            chars.append(_SPARK_BARS[0])
        else:
            index = int((value - lo) / span * (len(_SPARK_BARS) - 1))
            chars.append(_SPARK_BARS[index])
    return "".join(chars)


def _least_squares_slope(values: list[float]) -> float:
    """Slope of the best-fit line over run index (value units per run)."""
    n = len(values)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    numerator = sum(
        (x - mean_x) * (y - mean_y) for x, y in enumerate(values)
    )
    denominator = sum((x - mean_x) ** 2 for x in range(n))
    return numerator / denominator if denominator else 0.0


def bench_trend(root: Path, *, window: int = 20) -> dict:
    """Structured per-suite/per-stat trends over the stored trajectory.

    Uses up to ``window`` most recent runs at the latest run's
    ``bench_scale`` and ``bench_scale_full`` (other scales are
    incomparable, same rule as :func:`check_regressions`), and trends
    only the series the latest run records: a suite or stat the bench
    no longer measures drops out of the report.  Returns::

        {"scale": ..., "run_ids": [...], "shas": [...],
         "skipped_runs": N, "series": [
            {"suite": ..., "metric": "wall_s" | "<stat>.<key>",
             "kind": "seconds" | "throughput" | "memory"
                     | "spill" | "ratio",
             "values": [... or None per run],
             "first": ..., "last": ..., "slope": ...,
             "drift": ..., "worsening": bool}]}

    ``slope`` is the least-squares fit in value units per run;
    ``drift`` normalizes it by the series mean (fraction per run);
    ``worsening`` is True when the drift exceeds
    :data:`TREND_DRIFT_THRESHOLD` in the bad direction (wall time,
    peak memory, or spill bytes rising; throughput or compression
    ratio falling).
    """
    history = load_bench_history(root)
    if not history:
        return {
            "scale": None,
            "run_ids": [],
            "shas": [],
            "skipped_runs": 0,
            "series": [],
        }
    scale = history[-1][1].get("bench_scale")
    same_scale = [
        (bench_id, payload)
        for bench_id, payload in history
        if _scale_knobs(payload) == _scale_knobs(history[-1][1])
    ][-window:]
    run_ids = [bench_id for bench_id, _ in same_scale]
    shas = [
        (payload.get("git_sha") or "")[:7] or None
        for _, payload in same_scale
    ]
    columns: dict[tuple[str, str, str], dict[int, float]] = {}
    for position, (_, payload) in enumerate(same_scale):
        for suite in payload["suites"]:
            name, seconds = suite.get("name"), suite.get("seconds")
            if not isinstance(name, str):
                continue
            if isinstance(seconds, (int, float)):
                columns.setdefault((name, "wall_s", "seconds"), {})[
                    position
                ] = float(seconds)
            for metric, value in _flat_stats(suite).items():
                kind = _stat_kind(metric.rsplit(".", 1)[-1]) or "seconds"
                columns.setdefault((name, metric, kind), {})[position] = value
    latest = len(same_scale) - 1
    series = []
    for (suite, metric, kind), points in sorted(columns.items()):
        if latest not in points:
            continue
        values: list[float | None] = [
            points.get(position) for position in range(len(same_scale))
        ]
        present = [v for v in values if v is not None]
        slope = _least_squares_slope(present)
        mean = sum(present) / len(present) if present else 0.0
        drift = slope / mean if mean else 0.0
        worsening = (
            drift > TREND_DRIFT_THRESHOLD
            if _KIND_HIGHER_IS_WORSE.get(kind, True)
            else drift < -TREND_DRIFT_THRESHOLD
        ) and len(present) >= 2
        series.append(
            {
                "suite": suite,
                "metric": metric,
                "kind": kind,
                "values": values,
                "first": present[0] if present else None,
                "last": present[-1] if present else None,
                "slope": slope,
                "drift": drift,
                "worsening": worsening,
            }
        )
    return {
        "scale": scale,
        "run_ids": run_ids,
        "shas": shas,
        "skipped_runs": len(history) - len(same_scale),
        "series": series,
    }


def _fmt_trend_value(value: float | None, kind: str) -> str:
    if value is None:
        return "-"
    if kind == "seconds":
        return f"{value:.2f}s"
    if kind in ("memory", "spill"):
        return f"{value / (1024 * 1024):.0f}MiB"
    if kind == "ratio":
        return f"{value:.2f}x"
    return f"{value:,.0f}/s"


def trend_report(root: Path, *, markdown: bool = False, window: int = 20) -> str:
    """Render the stored ``BENCH_<n>.json`` trajectory as a trend table.

    One row per suite wall time and per recorded throughput,
    peak-memory, spill-bytes, or compression-ratio stat: first and
    latest value, least-squares slope per run, a
    sparkline over the run window, and a DRIFT flag when the fit worsens
    faster than :data:`TREND_DRIFT_THRESHOLD` per run.  ``markdown=True``
    emits a GitHub-flavored table for CI artifacts.
    """
    trend = bench_trend(root, window=window)
    if not trend["run_ids"]:
        return "bench report: no BENCH_<n>.json history at " + str(root)
    run_ids = trend["run_ids"]
    sha_span = ""
    shas = [sha for sha in trend["shas"] if sha]
    if shas:
        sha_span = f", {shas[0]}..{shas[-1]}" if len(shas) > 1 else f", {shas[0]}"
    header = (
        f"bench report: {len(run_ids)} run(s) at scale {trend['scale']} "
        f"(BENCH_{run_ids[0]}..BENCH_{run_ids[-1]}{sha_span})"
    )
    if trend["skipped_runs"]:
        header += f"; {trend['skipped_runs']} run(s) at other scales skipped"
    flagged = [row for row in trend["series"] if row["worsening"]]
    if markdown:
        lines = [
            header,
            "",
            "| suite | metric | first | last | slope/run | trend | flag |",
            "| --- | --- | ---: | ---: | ---: | --- | --- |",
        ]
        for row in trend["series"]:
            lines.append(
                "| {suite} | {metric} | {first} | {last} | {drift:+.1%} "
                "| `{spark}` | {flag} |".format(
                    suite=row["suite"],
                    metric=row["metric"],
                    first=_fmt_trend_value(row["first"], row["kind"]),
                    last=_fmt_trend_value(row["last"], row["kind"]),
                    drift=row["drift"],
                    spark=_sparkline(row["values"]),
                    flag="DRIFT" if row["worsening"] else "",
                )
            )
        return "\n".join(lines)
    lines = [
        header,
        f"  {'suite':<14} {'metric':<36} {'first':>12} {'last':>12} "
        f"{'slope/run':>10}  trend",
    ]
    for row in trend["series"]:
        flag = "  DRIFT" if row["worsening"] else ""
        lines.append(
            f"  {row['suite']:<14} {row['metric']:<36} "
            f"{_fmt_trend_value(row['first'], row['kind']):>12} "
            f"{_fmt_trend_value(row['last'], row['kind']):>12} "
            f"{row['drift']:>+9.1%}  {_sparkline(row['values'])}{flag}"
        )
    if flagged:
        lines.append(
            f"  {len(flagged)} series drifting worse than "
            f"{TREND_DRIFT_THRESHOLD:.0%}/run — investigate before merging"
        )
        spilling = [
            row for row in flagged if row["kind"] in ("spill", "ratio")
        ]
        if spilling:
            worst = ", ".join(
                f"{row['suite']}:{row['metric']}" for row in spilling
            )
            lines.append(
                f"  spill-path drift ({worst}): encoded spill bytes are "
                "growing or the codec ratio is shrinking — check recent "
                "schema/codec changes before merging"
            )
    return "\n".join(lines)


def _git_sha(root: Path) -> str | None:
    """The checked-out commit, or None outside a usable git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def write_bench_json(results: list[SuiteResult], path: Path) -> dict:
    """Serialize a bench run to ``path`` and return the payload."""
    from repro import __version__
    from repro.obs.runtime import peak_rss_bytes

    payload = {
        "schema": 1,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": _git_sha(path.parent),
        "python": sys.version.split()[0],
        "bench_scale": os.environ.get("REPRO_BENCH_SCALE", "0.05"),
        "bench_scale_full": os.environ.get("REPRO_BENCH_SCALE_FULL", "0.25"),
        "bench_seed": os.environ.get("REPRO_BENCH_SEED", "20220214"),
        "runner_peak_rss_bytes": peak_rss_bytes(),
        "passed": all(r.passed for r in results),
        "total_seconds": round(sum(r.seconds for r in results), 3),
        "suites": [r.to_json() for r in results],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return payload
