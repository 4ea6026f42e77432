"""Frame-engine perf gates: the columnar fast path vs the naive reference.

``repro.frame.reference`` keeps the retired row-at-a-time
implementations as executable documentation; these benchmarks hold the
vectorized engine to the speedups that justified the refactor, on the
acceptance-criteria workload (a 50k-row, 40-column accounting-shaped
table).  Every timed pair also asserts ``to_dict`` equality, so a perf
"fix" that diverges from the reference semantics fails here before it
fails a property test.

The CSV pair times the column-wise reader and writer against the
per-cell reader and per-row writer on a 5,000-row slice of the same
table: the read must equal the reference's ``to_dict``, the written
file the reference's bytes.

The hard gates are deliberately below the measured ratios (~13x
grouped aggregation on an integer key, ~55x on an all-match join,
~4x CSV read and ~1.8x CSV write on a 2-vCPU machine) so they catch
wholesale regressions — a silent fall-back to the dict loop — without
flaking on machine noise.
"""

import time

import numpy as np

from repro.bench import record_bench_stat
from repro.frame import Table, read_csv, write_csv
from repro.frame.reference import (
    naive_aggregate,
    naive_join,
    naive_read_csv,
    naive_write_csv,
)

NUM_ROWS = 50_000
NUM_METRIC_COLUMNS = 37  # + job_id/user/num_gpus/gpu_hours = 41 columns
CSV_ROWS = 5_000

AGG_SPEC = {
    "m00": ["mean", "sum", "max"],
    "m01": ["mean", "std"],
    "m02": ["min", "median"],
    "m03": ["mean"],
    "job_id": ["count"],
}


def _bench_table() -> Table:
    rng = np.random.default_rng(20220214)
    data = {
        "job_id": np.arange(100_000, 100_000 + NUM_ROWS, dtype=np.int64),
        "user": np.asarray(
            [f"user{int(u):03d}" for u in rng.integers(0, 200, NUM_ROWS)], dtype=object
        ),
        "num_gpus": rng.choice(np.array([1, 2, 4, 8, 16]), NUM_ROWS),
        "gpu_hours": rng.random(NUM_ROWS) * 40.0,
    }
    for i in range(NUM_METRIC_COLUMNS):
        data[f"m{i:02d}"] = rng.random(NUM_ROWS) * 100.0
    return Table(data)


def _best_of(fn, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_aggregate_int_key_5x():
    """Grouped aggregation on an int key: >=5x over the dict-loop path."""
    table = _bench_table()
    fast_s, fast = _best_of(lambda: table.group_by("num_gpus").aggregate(AGG_SPEC))
    naive_s, naive = _best_of(
        lambda: naive_aggregate(table, ("num_gpus",), AGG_SPEC), repeats=1
    )
    record_bench_stat(
        "aggregate_int_key",
        rows_per_s=NUM_ROWS / fast_s,
        speedup_x=naive_s / fast_s,
    )
    assert fast.to_dict() == naive.to_dict()
    assert naive_s >= 5 * fast_s, (
        f"aggregate[num_gpus]: fast {fast_s * 1e3:.2f}ms vs naive "
        f"{naive_s * 1e3:.2f}ms ({naive_s / fast_s:.1f}x < 5x)"
    )


def test_aggregate_string_key_2_5x():
    """Grouped aggregation on a 200-user string key.

    The object-dtype dict factorization is the slow stage here, so the
    headroom over the reference is structurally thinner (~5x measured);
    gate at 2.5x to stay noise-proof.
    """
    table = _bench_table()
    fast_s, fast = _best_of(lambda: table.group_by("user").aggregate(AGG_SPEC))
    naive_s, naive = _best_of(
        lambda: naive_aggregate(table, ("user",), AGG_SPEC), repeats=1
    )
    record_bench_stat(
        "aggregate_string_key",
        rows_per_s=NUM_ROWS / fast_s,
        speedup_x=naive_s / fast_s,
    )
    assert fast.to_dict() == naive.to_dict()
    assert naive_s >= 2.5 * fast_s, (
        f"aggregate[user]: fast {fast_s * 1e3:.2f}ms vs naive "
        f"{naive_s * 1e3:.2f}ms ({naive_s / fast_s:.1f}x < 2.5x)"
    )


def test_join_all_match_5x():
    """Inner join where every left row matches: >=5x over the hash loop.

    This is the dataset-assembly shape (every GPU job has a summary
    row), where the vectorized join also skips the row gather entirely
    and shares the left columns.
    """
    table = _bench_table()
    right = Table(
        {
            "job_id": np.asarray(table["job_id"]).copy(),
            "summary": np.random.default_rng(7).random(NUM_ROWS),
        }
    )
    fast_s, fast = _best_of(lambda: table.join(right, on="job_id"))
    naive_s, naive = _best_of(lambda: naive_join(table, right, on="job_id"), repeats=1)
    record_bench_stat(
        "join_all_match",
        rows_per_s=NUM_ROWS / fast_s,
        speedup_x=naive_s / fast_s,
    )
    assert fast.to_dict() == naive.to_dict()
    assert naive_s >= 5 * fast_s, (
        f"join[all-match]: fast {fast_s * 1e3:.2f}ms vs naive "
        f"{naive_s * 1e3:.2f}ms ({naive_s / fast_s:.1f}x < 5x)"
    )


def test_join_half_match_5x():
    """Inner join keeping half the rows: the gather path, still >=5x."""
    table = _bench_table()
    keys = np.asarray(table["job_id"])
    right = Table(
        {
            "job_id": keys[::2].copy(),
            "summary": np.random.default_rng(11).random(len(keys[::2])),
        }
    )
    fast_s, fast = _best_of(lambda: table.join(right, on="job_id"))
    naive_s, naive = _best_of(lambda: naive_join(table, right, on="job_id"), repeats=1)
    assert fast.num_rows == NUM_ROWS // 2
    assert fast.to_dict() == naive.to_dict()
    assert naive_s >= 5 * fast_s, (
        f"join[half-match]: fast {fast_s * 1e3:.2f}ms vs naive "
        f"{naive_s * 1e3:.2f}ms ({naive_s / fast_s:.1f}x < 5x)"
    )


def test_csv_read_3x(tmp_path):
    """Column-wise CSV read: >=3x over the per-cell reader."""
    path = write_csv(_bench_table().head(CSV_ROWS), tmp_path / "bench.csv")
    fast_s, fast = _best_of(lambda: read_csv(path))
    naive_s, naive = _best_of(lambda: naive_read_csv(path), repeats=1)
    record_bench_stat(
        "csv_read",
        rows_per_s=CSV_ROWS / fast_s,
        speedup_x=naive_s / fast_s,
    )
    assert fast.to_dict() == naive.to_dict()
    assert naive_s >= 3 * fast_s, (
        f"read_csv: fast {fast_s * 1e3:.2f}ms vs naive "
        f"{naive_s * 1e3:.2f}ms ({naive_s / fast_s:.1f}x < 3x)"
    )


def test_csv_write_1_5x(tmp_path):
    """Column-wise CSV write: >=1.5x over the per-row writer, same bytes."""
    table = _bench_table().head(CSV_ROWS)
    fast_path, naive_path = tmp_path / "fast.csv", tmp_path / "naive.csv"
    fast_s, _ = _best_of(lambda: write_csv(table, fast_path))
    naive_s, _ = _best_of(lambda: naive_write_csv(table, naive_path), repeats=1)
    record_bench_stat(
        "csv_write",
        rows_per_s=CSV_ROWS / fast_s,
        speedup_x=naive_s / fast_s,
    )
    assert fast_path.read_bytes() == naive_path.read_bytes()
    assert naive_s >= 1.5 * fast_s, (
        f"write_csv: fast {fast_s * 1e3:.2f}ms vs naive "
        f"{naive_s * 1e3:.2f}ms ({naive_s / fast_s:.1f}x < 1.5x)"
    )
