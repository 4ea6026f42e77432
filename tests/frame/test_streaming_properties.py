"""Streaming-vs-oracle equivalence on randomized tables and chunkings.

A chunked group-by is the same :class:`~repro.frame.GroupBy` fold a
table runs as its own one-chunk stream, so its exactness contract
(docs/performance.md) is:

* ``count``/``min``/``max``/``first``/``last``, ``value_counts``
  (including its value column's dtype), ``filter``, ``join``, and group
  identity/order are **bit-for-bit** identical to the materialized
  kernels (and hence to :mod:`repro.frame.reference`) at *any*
  chunking — including one row per chunk and everything in one chunk;
* ``sum``/``mean``/``std`` are bit-for-bit on one chunk; across chunks
  ``sum``/``mean`` add per-chunk float partials (bit-for-bit when every
  addend is exactly representable, i.e. integer-valued floats) and
  ``std`` merges centred sums of squares by Chan et al.'s pairwise
  update: float tolerance (``rtol=atol=1e-9``);
* sketch quantiles honor the sketch's *tracked* ``rank_error_bound()``
  and are exact while it is zero.

NaN keys are excluded for the same reason as in
test_vectorized_properties.py: group identity under NaN keys is
object-identity, which hypothesis cannot meaningfully vary.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import (
    QuantileSketch,
    StreamingMoments,
    Table,
    concat_tables,
    merge_sorted_chunked,
)
from repro.frame.reference import naive_aggregate, naive_value_counts

EXACT_REDUCERS = ("count", "min", "max", "first", "last")

key_ints = st.integers(-3, 3)
key_names = st.text(alphabet="abc", min_size=1, max_size=2)
values = st.floats(allow_nan=False, allow_infinity=False, width=32)
small_values = st.floats(-1e3, 1e3, allow_nan=False)
int_values = st.integers(-100, 100).map(float)


@st.composite
def keyed_tables(draw, min_rows=1, max_rows=40, num_keys=1, value_st=values):
    """A table with mixed-dtype key columns plus numeric ``v0``/``v1``."""
    n = draw(st.integers(min_rows, max_rows))
    data = {}
    for i in range(num_keys):
        kind = draw(st.sampled_from(["int", "str", "str_none", "mixed"]))
        if kind == "int":
            column = draw(st.lists(key_ints, min_size=n, max_size=n))
        elif kind == "str":
            column = draw(st.lists(key_names, min_size=n, max_size=n))
        elif kind == "str_none":
            column = draw(
                st.lists(st.one_of(key_names, st.none()), min_size=n, max_size=n)
            )
        else:
            column = draw(
                st.lists(
                    st.one_of(key_names, key_ints, st.none()), min_size=n, max_size=n
                )
            )
        data[f"k{i}"] = column
    data["v0"] = draw(st.lists(value_st, min_size=n, max_size=n))
    data["v1"] = draw(st.lists(value_st, min_size=n, max_size=n))
    return Table(data)


def _chunkings(draw_rows: int, extra: int) -> tuple[int, ...]:
    """The chunk sizes every property must hold at: one row per chunk,
    everything in one chunk, and a drawn size in between."""
    return tuple(dict.fromkeys((1, max(draw_rows, 1), max(extra, 1))))


@given(keyed_tables(), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_exact_reducers_bit_for_bit(t, chunk_rows):
    spec = {"v0": list(EXACT_REDUCERS), "v1": "count"}
    oracle = naive_aggregate(t, ("k0",), spec).to_dict()
    for rows in _chunkings(t.num_rows, chunk_rows):
        streamed = t.to_chunked(chunk_rows=rows).group_by("k0").aggregate(spec)
        assert streamed.to_dict() == oracle


@given(keyed_tables(num_keys=2), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_multi_key_exact_reducers(t, chunk_rows):
    spec = {"v0": ["count", "min", "max"]}
    oracle = naive_aggregate(t, ("k0", "k1"), spec).to_dict()
    for rows in _chunkings(t.num_rows, chunk_rows):
        streamed = t.to_chunked(chunk_rows=rows).group_by("k0", "k1").aggregate(spec)
        assert streamed.to_dict() == oracle


@given(keyed_tables(value_st=int_values), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_sum_mean_bit_exact_on_representable_addends(t, chunk_rows):
    spec = {"v0": ["sum", "mean"], "v1": "sum"}
    oracle = naive_aggregate(t, ("k0",), spec).to_dict()
    for rows in _chunkings(t.num_rows, chunk_rows):
        streamed = t.to_chunked(chunk_rows=rows).group_by("k0").aggregate(spec)
        assert streamed.to_dict() == oracle


@given(keyed_tables(value_st=small_values), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_sum_mean_std_within_float_tolerance(t, chunk_rows):
    spec = {"v0": ["sum", "mean", "std"]}
    oracle = naive_aggregate(t, ("k0",), spec)
    for rows in _chunkings(t.num_rows, chunk_rows):
        streamed = t.to_chunked(chunk_rows=rows).group_by("k0").aggregate(spec)
        if rows >= t.num_rows:
            # One chunk: the fold's state is the kernel output itself.
            assert streamed.to_dict() == oracle.to_dict()
            continue
        assert list(streamed["k0"]) == list(oracle["k0"])
        for column in ("v0_sum", "v0_mean", "v0_std"):
            np.testing.assert_allclose(
                np.asarray(streamed[column], dtype=float),
                np.asarray(oracle[column], dtype=float),
                rtol=1e-9,
                atol=1e-9,  # pairwise-merged partials on |v| <= 1e3
                err_msg=f"{column} at chunk_rows={rows}",
            )


@given(keyed_tables(), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_value_counts_matches_oracle(t, chunk_rows):
    oracle = naive_value_counts(t, "k0")
    for rows in _chunkings(t.num_rows, chunk_rows):
        streamed = t.to_chunked(chunk_rows=rows).value_counts("k0")
        assert streamed.to_dict() == oracle.to_dict()
        assert streamed["k0"].dtype == oracle["k0"].dtype


@given(keyed_tables(value_st=small_values), st.integers(1, 40), st.floats(-1e3, 1e3))
@settings(max_examples=40, deadline=None)
def test_filter_matches_materialized(t, chunk_rows, threshold):
    predicate = lambda tab: np.asarray(tab["v0"], dtype=float) > threshold  # noqa: E731
    expected = t.filter(predicate).to_dict()
    for rows in _chunkings(t.num_rows, chunk_rows):
        streamed = t.to_chunked(chunk_rows=rows).filter(predicate).materialize()
        assert streamed.to_dict() == expected


@given(keyed_tables(max_rows=25), st.integers(1, 25))
@settings(max_examples=40, deadline=None)
def test_broadcast_join_matches_materialized(t, chunk_rows):
    keys = list(dict.fromkeys(t["k0"].tolist()))
    right = Table({"k0": keys, "r0": [float(i) for i in range(len(keys))]})
    for how in ("inner", "left"):
        expected = t.join(right, on="k0", how=how).to_dict()
        for rows in _chunkings(t.num_rows, chunk_rows):
            streamed = (
                t.to_chunked(chunk_rows=rows)
                .join(right, on="k0", how=how)
                .materialize()
            )
            assert streamed.to_dict() == expected


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=300),
    st.integers(8, 32),
    st.integers(1, 50),
)
@settings(max_examples=60, deadline=None)
def test_sketch_quantiles_within_tracked_bound(samples, k, chunk_rows):
    sketch = QuantileSketch(k=k)
    for start in range(0, len(samples), chunk_rows):
        sketch.update(samples[start : start + chunk_rows])
    ordered = np.sort(np.asarray(samples, dtype=float))
    bound = sketch.rank_error_bound()
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        estimate = sketch.quantile(p)
        # With ties, the estimate's rank is an interval; the target must
        # fall within bound+1 of it (exact quantiles of tied data sit at
        # the interval's edge, not its middle).
        lo = np.searchsorted(ordered, estimate, side="left")
        hi = np.searchsorted(ordered, estimate, side="right")
        target = p * ordered.size
        assert lo - (bound + 1) <= target <= hi + (bound + 1)


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=100))
@settings(max_examples=60, deadline=None)
def test_sketch_exact_below_capacity(samples):
    from repro.analysis.stats import ecdf

    sketch = QuantileSketch(k=512).update(samples)
    assert sketch.rank_error_bound() == 0
    exact = ecdf(samples)
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert sketch.quantile(p) == exact.quantile(p)
    for x in samples[:10]:
        assert sketch.evaluate(x) == exact.evaluate(x)


@st.composite
def sorted_sources(draw, max_sources=4, num_keys=1):
    """Several tables sorted on shared key columns of one drawn dtype —
    the shape the sharded build's k-way spill merge consumes."""
    kind = draw(st.sampled_from(["int", "str"]))
    key_st = key_ints if kind == "int" else key_names
    num_sources = draw(st.integers(1, max_sources))
    tables = []
    for _ in range(num_sources):
        n = draw(st.integers(1, 25))
        data = {
            f"k{i}": draw(st.lists(key_st, min_size=n, max_size=n))
            for i in range(num_keys)
        }
        data["v0"] = draw(st.lists(small_values, min_size=n, max_size=n))
        tables.append(Table(data).sort_by(*(f"k{i}" for i in range(num_keys))))
    return tables


@given(sorted_sources(), st.integers(1, 30))
@settings(max_examples=50, deadline=None)
def test_kway_merge_is_concat_plus_stable_sort(tables, chunk_rows):
    """merge_sorted_chunked == concat + stable sort_by, bit for bit,
    at any chunking (including one row per chunk and all-in-one)."""
    oracle = concat_tables(tables).sort_by("k0").to_dict()
    total = sum(t.num_rows for t in tables)
    for rows in _chunkings(total, chunk_rows):
        merged = merge_sorted_chunked(
            [t.to_chunked(chunk_rows=rows) for t in tables],
            ("k0",),
            chunk_rows=rows,
        )
        assert merged.materialize().to_dict() == oracle


@given(sorted_sources(num_keys=2), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_kway_merge_multi_key(tables, chunk_rows):
    oracle = concat_tables(tables).sort_by("k0", "k1").to_dict()
    total = sum(t.num_rows for t in tables)
    for rows in _chunkings(total, chunk_rows):
        merged = merge_sorted_chunked(
            [t.to_chunked(chunk_rows=rows) for t in tables],
            ("k0", "k1"),
            chunk_rows=rows,
        )
        assert merged.materialize().to_dict() == oracle


@given(sorted_sources(max_sources=1), st.integers(1, 25), st.integers(1, 25))
@settings(max_examples=40, deadline=None)
def test_join_sorted_matches_materialized_join(tables, left_rows, right_rows):
    """Streaming merge-join on key-sorted streams == Table.join, for
    inner and left joins, with the right side chunked independently.

    Keys are homogeneous (all-int or all-str): join_sorted compares
    key values *across* chunks, which — unlike the hash join — needs
    one ordered dtype, exactly like the job-id keys the sharded
    assemble feeds it.
    """
    left = tables[0]
    keys = list(dict.fromkeys(left["k0"].tolist()))
    # Drop every other key so inner joins actually discard rows.
    kept = keys[::2]
    right = Table(
        {"k0": kept, "r0": [float(i) for i in range(len(kept))]}
    ).sort_by("k0")
    for how in ("inner", "left"):
        expected = left.join(right, on="k0", how=how).to_dict()
        for lrows in _chunkings(left.num_rows, left_rows):
            for right_side in (
                right,
                right.to_chunked(chunk_rows=max(right_rows, 1)),
            ):
                streamed = (
                    left.to_chunked(chunk_rows=lrows)
                    .join_sorted(right_side, on="k0", how=how)
                    .materialize()
                )
                assert streamed.to_dict() == expected, (how, lrows)


@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=200),
    st.integers(1, 50),
)
@settings(max_examples=60, deadline=None)
def test_moments_match_numpy(samples, chunk_rows):
    arr = np.asarray(samples, dtype=float)
    moments = StreamingMoments()
    for start in range(0, arr.size, chunk_rows):
        moments.update(arr[start : start + chunk_rows])
    assert moments.count == arr.size
    assert moments.minimum == arr.min()
    assert moments.maximum == arr.max()
    np.testing.assert_allclose(moments.mean(), arr.mean(), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(
        moments.std(), arr.std(ddof=0), rtol=1e-6, atol=1e-3
    )
