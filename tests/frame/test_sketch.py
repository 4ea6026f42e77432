"""Unit tests for the mergeable quantile sketch and streaming moments.

The exactness contract under test (see docs/performance.md): while a
sketch has never compacted — fewer than ``k`` samples, or a single
batch of any size — every query is bit-for-bit the exact
:class:`repro.analysis.stats.Ecdf` answer; after compaction, every
rank query is within the sketch's own ``rank_error_bound()``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import ecdf
from repro.errors import FrameError
from repro.frame import QuantileSketch, StreamingMoments


class TestQuantileSketchExactRegime:
    def test_exact_quantiles_below_capacity(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=300)
        sketch = QuantileSketch(k=512).update(values)
        assert sketch.rank_error_bound() == 0
        exact = ecdf(values)
        for p in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
            assert sketch.quantile(p) == exact.quantile(p)

    def test_exact_evaluate_below_capacity(self):
        values = np.array([1.0, 2.0, 2.0, 5.0])
        sketch = QuantileSketch(k=8).update(values)
        exact = ecdf(values)
        for x in (0.0, 1.0, 2.0, 3.0, 5.0, 9.0):
            assert sketch.evaluate(x) == exact.evaluate(x)
        np.testing.assert_array_equal(sketch.values, exact.values)
        np.testing.assert_array_equal(sketch.probabilities, exact.probabilities)

    def test_non_finite_dropped_like_ecdf(self):
        sketch = QuantileSketch(k=8).update([1.0, np.nan, np.inf, -np.inf, 3.0])
        assert sketch.num_samples == 2
        assert sketch.minimum() == 1.0
        assert sketch.maximum() == 3.0


def _batched(values, batches, k):
    sketch = QuantileSketch(k=k)
    for part in np.array_split(values, batches):
        sketch.update(part)
    return sketch


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([8, 16, 64]),
    extra=st.integers(1, 600),
    batches=st.integers(2, 9),
    rounded=st.booleans(),
)
def test_one_batch_exact_multi_batch_bounded(seed, k, extra, batches, rounded):
    """n > k: one batch answers like ecdf/np.quantile/np.median bit for
    bit; the same values in several batches compact and stay within
    the tracked rank bound."""
    rng = np.random.default_rng(seed)
    values = rng.lognormal(3.0, 2.0, size=k + extra)
    if rounded:
        values = np.round(values, 1)  # ties
    exact = ecdf(values)
    one = QuantileSketch(k=k).update(values)
    assert one.rank_error_bound() == 0
    np.testing.assert_array_equal(one.values, exact.values)
    np.testing.assert_array_equal(one.probabilities, exact.probabilities)
    probe = np.concatenate((values[:20], [values.min() - 1.0, values.max() + 1.0]))
    np.testing.assert_array_equal(one.evaluate(probe), exact.evaluate(probe))
    for p in (0.0, 0.1, 0.25, 0.5, 0.75, 0.95, 1.0):
        assert one.quantile(p) == np.quantile(values, p)
    assert one.median() == np.median(values)

    many = _batched(values, batches, k)
    bound = many.rank_error_bound()
    assert 0 < bound <= many.num_samples == values.size
    ordered = np.sort(values)
    for p in (0.1, 0.5, 0.9):
        estimate = many.quantile(p)
        lo = np.searchsorted(ordered, estimate, side="left")
        hi = np.searchsorted(ordered, estimate, side="right")
        target = p * values.size
        assert lo - bound - 1 <= target <= hi + bound + 1


class TestQuantileSketchCompactedRegime:
    def test_rank_error_bound_holds(self):
        rng = np.random.default_rng(11)
        values = rng.lognormal(size=20000)
        sketch = _batched(values, 10, k=64)
        bound = sketch.rank_error_bound()
        assert 0 < bound < sketch.num_samples
        ordered = np.sort(values)
        for p in (0.01, 0.25, 0.5, 0.75, 0.99):
            estimate = sketch.quantile(p)
            rank = np.searchsorted(ordered, estimate, side="right")
            assert abs(rank - p * len(values)) <= bound + 1

    def test_deterministic(self):
        values = np.arange(5000, dtype=float) % 997
        a = _batched(values, 7, k=32)
        b = _batched(values, 7, k=32)
        assert a.rank_error_bound() > 0
        np.testing.assert_array_equal(a.values, b.values)
        assert a.rank_error_bound() == b.rank_error_bound()

    def test_total_weight_conserved(self):
        rng = np.random.default_rng(3)
        sketch = QuantileSketch(k=16)
        for _ in range(13):
            sketch.update(rng.normal(size=137))
        _, cumw = sketch._materialized()
        assert cumw[-1] == sketch.num_samples == 13 * 137

    def test_min_max_survive_compaction(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=10000)
        sketch = _batched(values, 5, k=16)
        assert sketch.rank_error_bound() > 0
        assert sketch.minimum() == values.min()
        assert sketch.maximum() == values.max()


class TestQuantileSketchMerge:
    def test_merge_matches_single_stream_weight(self):
        rng = np.random.default_rng(13)
        chunks = [rng.normal(size=777) for _ in range(9)]
        merged = QuantileSketch(k=64)
        for chunk in chunks:
            merged.merge(QuantileSketch(k=64).update(chunk))
        assert merged.num_samples == 9 * 777
        ordered = np.sort(np.concatenate(chunks))
        bound = merged.rank_error_bound()
        for p in (0.1, 0.5, 0.9):
            rank = np.searchsorted(ordered, merged.quantile(p), side="right")
            assert abs(rank - p * ordered.size) <= bound + 1

    def test_merge_empty_is_identity(self):
        sketch = QuantileSketch(k=8).update([1.0, 2.0])
        before = sketch.values.copy()
        sketch.merge(QuantileSketch(k=8))
        np.testing.assert_array_equal(sketch.values, before)


class TestQuantileSketchErrors:
    def test_empty_queries_raise(self):
        sketch = QuantileSketch()
        with pytest.raises(FrameError, match="empty sketch"):
            sketch.quantile(0.5)
        with pytest.raises(FrameError, match="empty sketch"):
            sketch.evaluate(1.0)

    def test_bad_probability(self):
        sketch = QuantileSketch(k=8).update([1.0])
        with pytest.raises(FrameError, match="outside"):
            sketch.quantile(1.5)

    def test_tiny_capacity_rejected(self):
        with pytest.raises(FrameError, match=">= 8"):
            QuantileSketch(k=2)


class TestStreamingMoments:
    def test_matches_numpy_in_chunks(self):
        rng = np.random.default_rng(17)
        values = rng.normal(loc=3.0, scale=2.0, size=10001)
        moments = StreamingMoments()
        for start in range(0, values.size, 97):
            moments.update(values[start : start + 97])
        assert moments.count == values.size
        assert moments.minimum == values.min()
        assert moments.maximum == values.max()
        assert moments.mean() == pytest.approx(values.mean(), rel=1e-12)
        assert moments.std() == pytest.approx(values.std(ddof=0), rel=1e-9)

    def test_merge_equals_sequential(self):
        a = StreamingMoments().update([1.0, 2.0, 3.0])
        b = StreamingMoments().update([4.0, 5.0])
        both = StreamingMoments().update([1.0, 2.0, 3.0]).update([4.0, 5.0])
        a.merge(b)
        assert (a.count, a.total, a.total_sq) == (both.count, both.total, both.total_sq)
        assert (a.minimum, a.maximum) == (both.minimum, both.maximum)

    def test_nan_poisons_stats_not_count(self):
        moments = StreamingMoments().update([1.0, float("nan"), 3.0])
        assert moments.count == 3
        assert math.isnan(moments.mean())
        assert math.isnan(moments.std())

    def test_empty_raises(self):
        with pytest.raises(FrameError, match="no samples"):
            StreamingMoments().mean()
