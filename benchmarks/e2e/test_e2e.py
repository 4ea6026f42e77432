"""Tests for the end-to-end benchmark harness.

Not collected by the tier-1 suite (``testpaths`` is ``tests``); run
explicitly from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e.py

The two smoke tests drive every workload once at ``scale=0.01``
(about a minute each on two cores).
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import rep  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FIGURE_IDS = [
    "table1", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "queue_waits",
    "pareto", "ext_timeline", "ext_prediction", "ext_queueing",
]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, median, q3 = run.quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert median == statistics.median(values)
    assert run.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_spread_is_iqr_over_median():
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert run.spread(values) == pytest.approx((q3 - q1) / median)
    assert run.spread([3.0, 3.0, 3.0]) == 0.0


def test_summarize_and_tail_percentile():
    summary = run.summarize([3.0, 1.0, 2.0])
    assert (summary["median"], summary["min"], summary["max"], summary["n"]) == (2.0, 1.0, 3.0, 3)
    assert run.tail_percentile(3) is None
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(11) == 9
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(100) == 90


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def _all_metrics():
    return SPEC["end_to_end"] + SPEC["per_layer"]


def test_metric_names_units_and_bounds_are_valid():
    names = [m["name"] for m in _all_metrics()] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(run.METRIC_NAME, name) and name[0].isalnum() and len(name) <= 64, name
    for metric in _all_metrics():
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(rep.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_repetitions_and_sub_seeds():
    assert run.repetitions("paper_cold", 4, 30) == 4
    assert run.repetitions("paper_cold", None, None) == run.DEFAULT_REPEAT
    assert run.repetitions("coupled_stream", None, 1) == 1
    budget = SPEC["run_seconds"]
    assert run.repetitions("paper_cold", None, budget) == round(budget / run.NOMINAL_REP_S["paper_cold"])
    seeds = [run.sub_seed(7, i) for i in range(6)]
    assert seeds[0] == 7 and len(set(seeds)) == 6
    assert seeds == [run.sub_seed(7, i) for i in range(6)]


def _rep(pass_frac: float, failed: int = 0) -> dict:
    return {
        "traced": False,
        "attempted": 24,
        "failed": failed,
        "errors": ["x"] * failed,
        "metrics": {"scorecard_pass_frac": pass_frac},
    }


def test_run_record_checks_the_median_scorecard_once_per_run():
    ok = run.run_record("paper_cold", 1, 0.02, False, [_rep(0.78), _rep(0.95), _rep(0.85)], 0)
    assert (ok["attempted"], ok["failed"], ok["errors"]) == (73, 0, [])
    low = run.run_record("paper_cold", 1, 0.02, False, [_rep(0.78), _rep(0.95), _rep(0.79)], 0)
    assert low["failed"] == 1 and low["errors"][0].startswith("scorecard")
    crashed = run.run_record("warm_cache", 1, 0.02, False, [_rep(0.9, failed=2)], 1)
    assert (crashed["attempted"], crashed["failed"]) == (26, 3)
    assert run.run_record("warm_cache", 1, 0.02, False, [], 2)["failed"] == 3


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.2, 9.8, 10.0, 10.1, 9.9]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        ([v * 1.01 for v in PARENT], "lower", "same"),
        ([v * 1.30 for v in PARENT], "lower", "worse"),
        ([v * 0.70 for v in PARENT], "lower", "better"),
        ([v * 0.70 for v in PARENT], "higher", "worse"),
        ([v * 1.30 for v in PARENT], "higher", "better"),
        ([5.0, 15.0, 10.0, 20.0, 2.0, 12.0, 8.0, 30.0, 9.0, 11.0], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(change, better, expected):
    assert run.verdict(PARENT, change, 0.10, better) == expected


def test_wide_spread_still_better_when_every_run_wins():
    parent = [10.0, 14.0, 18.0, 22.0]
    change = [5.0, 6.0, 7.0, 8.0]
    assert run.verdict(parent, change, 0.05, "lower") == "better"


def _results(workload: str, values: list[float]) -> dict:
    return {
        "runs": [
            {"workload": workload, "traced": False, "summary": {"total_s": {"median": v}}}
            for v in values
        ]
    }


def test_compare_main_exit_codes(tmp_path, capsys):
    parent, same, worse = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    parent.write_text(json.dumps(_results("paper_cold", PARENT)))
    same.write_text(json.dumps(_results("paper_cold", PARENT[::-1])))
    worse.write_text(json.dumps(_results("paper_cold", [v * 1.5 for v in PARENT])))
    assert run.compare_main([str(parent), str(same)]) == 0
    assert "same" in capsys.readouterr().out
    assert run.compare_main([str(parent), str(worse)]) == 1
    assert "worse" in capsys.readouterr().out


# ----------------------------------------------------------------------
# layer derivation
# ----------------------------------------------------------------------
def _snapshot():
    return {
        "counters": [
            ("repro_scheduler_events_total", (("kind", "submit"),), 100.0),
            ("repro_scheduler_events_total", (("kind", "finish"),), 100.0),
            ("repro_scheduler_dispatch_total", (("backfill", "false"),), 75.0),
            ("repro_scheduler_dispatch_total", (("backfill", "true"),), 25.0),
            ("repro_frame_kernel_calls_total", (("kernel", "join"),), 3.0),
            ("repro_frame_kernel_rows_total", (("kernel", "join"),), 600.0),
            ("repro_frame_spill_bytes_total", (), 250.0),
            ("repro_frame_spill_raw_bytes_total", (), 1000.0),
            ("repro_shard_migrations_total", (), 4.0),
        ],
        "gauges": [
            ("repro_scheduler_peak_queue", (), 12.0),
            ("repro_shard_island_peak_rss_bytes", (), 64 * rep.MIB),
        ],
        "histograms": [],
    }


def _derive(stages, snapshot, build_s=4.0):
    entry = {"tables_load_s": 0.0, "series_load_s": 0.0, "records_load_s": 0.0, "entry_bytes": 0}
    return rep.derive_layers(
        stages,
        snapshot,
        {fid: 0.01 for fid in FIGURE_IDS},
        {"checks": 57, "passed": 56, "pass_frac": 56 / 57, "run_s": 0.5},
        build_s,
        42,
        entry,
        3.0,
    )


def test_derive_layers_from_synthetic_snapshot():
    stages = [
        ("workload", 1.0, 2000),
        ("schedule", 2.0, 2000),
        ("sampling", 0.5, 1000),
        ("sampling", 0.0001, 10),
        ("monitor", 0.25, 1000),
        ("assemble", 0.25, 2000),
    ]
    layers = _derive(stages, _snapshot())
    assert layers["workload.generate_s"] == 1.0
    assert layers["workload.jobs_per_s"] == 2000.0
    assert layers["monitor.sampling_rows_per_s"] == pytest.approx(1010 / 0.5001)
    assert layers["slurm.events"] == 200.0
    assert layers["slurm.backfill_frac"] == 0.25
    assert layers["slurm.peak_queue"] == 12.0
    assert layers["slurm.migrations"] == 4.0
    assert layers["slurm.island_peak_rss_mb"] == 64.0
    assert layers["frame.kernel.join.rows"] == 600.0
    assert layers["frame.kernel.pivot.calls"] == 0.0
    assert layers["frame.spill.compression_ratio"] == 4.0
    assert layers["pipeline.cache_load_s"] == 0.0
    assert layers["pipeline.stage_coverage"] == pytest.approx(4.0001 / 4.0)
    assert layers["validation.passed"] == 56.0
    assert layers["obs.spans"] == 42.0
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(layers) | {"obs.tracing_overhead_frac"} == per_layer


def test_derive_layers_reads_zero_for_bypassed_layers():
    layers = _derive([("cache_load", 0.5, 100)], {"counters": [], "gauges": []}, build_s=0.5)
    for name in ("workload.generate_s", "workload.jobs_per_s", "slurm.schedule_s",
                 "monitor.sampling_s", "monitor.sampling_rows_per_s", "frame.spill.bytes",
                 "frame.spill.compression_ratio", "slurm.backfill_frac"):
        assert layers[name] == 0.0, name
    assert layers["pipeline.stage_coverage"] == 1.0


def test_metric_sum_reads_a_registry_snapshot():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("repro_frame_kernel_calls_total", kernel="join").inc(2)
    registry.counter("repro_frame_kernel_calls_total", kernel="pivot").inc(5)
    snapshot = registry.snapshot()
    assert rep._metric_sum(snapshot, "counters", "repro_frame_kernel_calls_total") == 7.0
    assert rep._metric_sum(snapshot, "counters", "repro_frame_kernel_calls_total", kernel="join") == 2.0


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "paper_cold", "--seed", "1", "--seconds", "10", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_smoke_all_workloads_untraced():
    proc = _bench("--repeat", "1", "--scale", "0.01", "--seed", "3")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in rep.WORKLOADS:
        for metric in SPEC["end_to_end"]:
            entry = result["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_smoke_traced_shows_the_bypass_predictions(tmp_path):
    proc = _bench("--repeat", "1", "--scale", "0.01", "--seed", "3", "--trace", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    layers = json.loads((tmp_path / "layers.json").read_text())
    assert set(layers) == set(rep.WORKLOADS)
    warm, cold, coupled = layers["warm_cache"], layers["paper_cold"], layers["coupled_stream"]
    for name in ("workload.generate_s", "slurm.schedule_s", "monitor.sampling_s"):
        assert warm[name] == 0.0, name
    assert warm["pipeline.cache_load_s"] > 0
    for bypassed in (cold, warm):
        assert bypassed["frame.spill.bytes"] == 0 and bypassed["slurm.migrations"] == 0
    assert coupled["frame.spill.bytes"] > 0 and coupled["slurm.migrations"] > 0
    for built in (cold, coupled):
        assert built["pipeline.stage_coverage"] == pytest.approx(1.0, abs=0.05)
    for workload in rep.WORKLOADS:
        assert (tmp_path / f"trace-{workload}.json").is_file()
    runs = json.loads((tmp_path / "results.json").read_text())["runs"]
    assert [r["workload"] for r in runs] == list(rep.WORKLOADS)
