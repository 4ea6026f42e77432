"""Tests for the statistical primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.analysis.stats import (
    coefficient_of_variation,
    ecdf,
    gini,
    quantiles,
    spearman,
    student_t_two_sided,
)
from repro.errors import AnalysisError

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


class TestEcdf:
    def test_evaluate_step(self):
        dist = ecdf([1.0, 2.0, 3.0, 4.0])
        assert dist.evaluate(2.0) == 0.5
        assert dist.evaluate(0.5) == 0.0
        assert dist.evaluate(10.0) == 1.0

    def test_quantile_median(self):
        dist = ecdf([1.0, 2.0, 3.0])
        assert dist.median() == 2.0

    def test_fraction_above(self):
        dist = ecdf([10.0, 20.0, 30.0, 40.0])
        assert dist.fraction_above(25.0) == 0.5

    def test_nans_dropped(self):
        dist = ecdf([1.0, float("nan"), 3.0])
        assert dist.num_samples == 2

    def test_all_nan_rejected(self):
        with pytest.raises(AnalysisError):
            ecdf([float("nan")])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            ecdf([])

    def test_quantile_out_of_range(self):
        with pytest.raises(AnalysisError):
            ecdf([1.0]).quantile(1.5)

    def test_vector_evaluate(self):
        dist = ecdf([1.0, 2.0])
        out = dist.evaluate(np.asarray([0.0, 1.5, 5.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]


class TestCov:
    def test_known_value(self):
        assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(0.5)

    def test_constant_series_zero(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_zero_mean_is_nan(self):
        assert np.isnan(coefficient_of_variation([0.0, 0.0]))

    def test_empty_is_nan(self):
        assert np.isnan(coefficient_of_variation([]))

    def test_paper_percent_convention(self):
        # "CoV of 126%" == 1.26 in our units
        values = [1.0, 1.0, 10.0]
        assert coefficient_of_variation(values) > 1.0


class TestSpearman:
    def test_perfect_monotone(self):
        rho, p = spearman([1, 2, 3, 4], [10, 20, 30, 40])
        assert rho == pytest.approx(1.0)
        assert p < 0.05

    def test_perfect_inverse(self):
        rho, _ = spearman([1, 2, 3, 4], [4, 3, 2, 1])
        assert rho == pytest.approx(-1.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=80)
        y = x + rng.normal(scale=0.8, size=80)
        rho, p = spearman(x, y)
        expected = scipy_stats.spearmanr(x, y)
        assert rho == pytest.approx(expected.statistic, abs=1e-9)
        assert p == pytest.approx(expected.pvalue, rel=1e-6)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 20, 100, 1000])
    @pytest.mark.parametrize("target", [-0.95, -0.5, -0.05, 0.0, 0.2, 0.6, 0.99])
    def test_p_value_is_scipy_t_tail_exactly(self, n, target):
        """The p-value is scipy's two-sided Student-t tail to 1e-12
        relative; the float itself differs across scipy versions."""
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        y = target * x + np.sqrt(1.0 - target * target) * rng.normal(size=n)
        rho, p = spearman(x, y)
        if abs(rho) >= 1.0:
            assert p == 0.0
            return
        t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
        assert p == pytest.approx(2 * scipy_stats.t.sf(abs(t), n - 2), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 20, 50])
    @pytest.mark.parametrize("rho", [1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12, -(1 - 1e-12)])
    def test_tiny_p_value_matches_scipy_t_tail(self, n, rho):
        t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
        expected = 2 * scipy_stats.t.sf(abs(t), n - 2)
        p = student_t_two_sided(t, n - 2)
        assert 0.0 < p < 0.05
        assert p == pytest.approx(expected, rel=1e-12)

    def test_t_tail_limits(self):
        assert student_t_two_sided(0.0, 5) == 1.0
        assert student_t_two_sided(float("inf"), 5) == 0.0
        assert student_t_two_sided(-1.0, 1) == pytest.approx(0.5, rel=1e-15)

    def test_handles_ties_like_scipy(self):
        x = [1, 1, 2, 2, 3, 3, 4]
        y = [1, 2, 2, 3, 3, 4, 4]
        rho, _ = spearman(x, y)
        expected = scipy_stats.spearmanr(x, y)
        assert rho == pytest.approx(expected.statistic, abs=1e-9)

    def test_nan_pairs_dropped(self):
        rho, _ = spearman([1, 2, 3, float("nan")], [1, 2, 3, 100])
        assert rho == pytest.approx(1.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(AnalysisError):
            spearman([1, 2], [1, 2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            spearman([1, 2, 3], [1, 2])


class TestQuantilesAndGini:
    def test_quantiles_keys(self):
        q = quantiles([1.0, 2.0, 3.0, 4.0], probs=(0.5,))
        assert q == {0.5: 2.5}

    def test_quantiles_empty_rejected(self):
        with pytest.raises(AnalysisError):
            quantiles([])

    def test_gini_equal_distribution(self):
        assert gini([1.0, 1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=1e-9)

    def test_gini_concentrated(self):
        assert gini([0.0, 0.0, 0.0, 100.0]) == pytest.approx(0.75)

    def test_gini_negative_rejected(self):
        with pytest.raises(AnalysisError):
            gini([-1.0, 1.0])

    def test_gini_empty_is_zero(self):
        assert gini([]) == 0.0


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@given(st.lists(finite, min_size=1, max_size=100))
@settings(max_examples=80, deadline=None)
def test_ecdf_is_valid_cdf(values):
    dist = ecdf(values)
    assert (np.diff(dist.values) >= 0).all()
    assert (np.diff(dist.probabilities) >= 0).all()
    assert dist.probabilities[-1] == pytest.approx(1.0)
    assert 0.0 <= dist.evaluate(float(np.median(values))) <= 1.0


@given(st.lists(st.floats(0.1, 1e6), min_size=2, max_size=50))
@settings(max_examples=80, deadline=None)
def test_cov_scale_invariant(values):
    base = coefficient_of_variation(values)
    scaled = coefficient_of_variation([v * 7.5 for v in values])
    if np.isnan(base):
        assert np.isnan(scaled)
    else:
        assert scaled == pytest.approx(base, rel=1e-6)


@given(
    st.lists(
        st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, 0.5, float("nan")])),
        min_size=1,
        max_size=300,
    )
)
@settings(max_examples=200, deadline=None)
def test_cov_has_numpys_bits(values):
    """The CoV equals ``std / |mean|`` of the finite values as numpy
    computes them, bit for bit."""
    finite_values = np.asarray(values, dtype=float)
    finite_values = finite_values[np.isfinite(finite_values)]
    got = coefficient_of_variation(values)
    if finite_values.size == 0 or finite_values.mean() == 0:
        assert np.isnan(got)
    else:
        want = float(finite_values.std() / abs(finite_values.mean()))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@given(st.lists(st.tuples(finite, finite), min_size=3, max_size=60))
@settings(max_examples=60, deadline=None)
def test_spearman_symmetric_and_bounded(pairs):
    x = [a for a, _ in pairs]
    y = [b for _, b in pairs]
    rho_xy, _ = spearman(x, y)
    rho_yx, _ = spearman(y, x)
    assert -1.0 - 1e-9 <= rho_xy <= 1.0 + 1e-9
    assert rho_xy == pytest.approx(rho_yx, abs=1e-9)


@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_gini_bounded(values):
    g = gini(values)
    assert -1e-9 <= g <= 1.0
