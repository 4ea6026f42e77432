"""Tests for repro.distributions."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import (
    BoundedPareto,
    Categorical,
    Constant,
    LogNormal,
    Mixture,
    QuantileDistribution,
    Uniform,
    choice_cdf,
    clipped,
    uniform,
)
from repro.errors import CalibrationError


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestQuantileDistribution:
    def test_quantile_hits_anchors(self):
        dist = QuantileDistribution([(0.0, 0.0), (0.5, 10.0), (1.0, 100.0)])
        assert dist.quantile(0.5) == pytest.approx(10.0)
        assert dist.quantile(0.0) == pytest.approx(0.0)
        assert dist.quantile(1.0) == pytest.approx(100.0)

    def test_quantile_interpolates(self):
        dist = QuantileDistribution([(0.0, 0.0), (1.0, 10.0)])
        assert dist.quantile(0.25) == pytest.approx(2.5)

    def test_cdf_inverts_quantile(self):
        dist = QuantileDistribution([(0.0, 1.0), (0.5, 5.0), (1.0, 9.0)])
        for p in (0.1, 0.4, 0.7, 0.95):
            assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=1e-9)

    def test_samples_match_anchored_median(self, rng):
        dist = QuantileDistribution([(0.0, 0.0), (0.5, 30.0), (1.0, 100.0)])
        samples = dist.sample(rng, 20000)
        assert np.median(samples) == pytest.approx(30.0, rel=0.05)

    def test_log_space_heavy_tail(self, rng):
        dist = QuantileDistribution(
            [(0.0, 1.0), (0.5, 30.0), (1.0, 10000.0)], log_space=True
        )
        samples = dist.sample(rng, 20000)
        assert np.median(samples) == pytest.approx(30.0, rel=0.1)
        assert samples.max() <= 10000.0
        assert samples.min() >= 1.0

    def test_support(self):
        dist = QuantileDistribution([(0.25, 2.0), (0.75, 8.0)])
        assert dist.support == (2.0, 8.0)

    def test_scalar_sample(self, rng):
        dist = QuantileDistribution([(0.0, 0.0), (1.0, 1.0)])
        value = dist.sample(rng)
        assert isinstance(value, float)

    def test_decreasing_probs_rejected(self):
        with pytest.raises(CalibrationError, match="increasing"):
            QuantileDistribution([(0.5, 1.0), (0.4, 2.0)])

    def test_decreasing_values_rejected(self):
        with pytest.raises(CalibrationError, match="non-decreasing"):
            QuantileDistribution([(0.1, 5.0), (0.9, 1.0)])

    def test_single_anchor_rejected(self):
        with pytest.raises(CalibrationError):
            QuantileDistribution([(0.5, 1.0)])

    def test_log_space_nonpositive_rejected(self):
        with pytest.raises(CalibrationError, match="positive"):
            QuantileDistribution([(0.0, 0.0), (1.0, 1.0)], log_space=True)

    def test_prob_out_of_range_rejected(self):
        with pytest.raises(CalibrationError):
            QuantileDistribution([(-0.1, 0.0), (1.0, 1.0)])


class TestLogNormal:
    def test_median_and_cov(self, rng):
        dist = LogNormal(median=10.0, cov=1.0)
        samples = dist.sample(rng, 100000)
        assert np.median(samples) == pytest.approx(10.0, rel=0.05)
        assert samples.std() / samples.mean() == pytest.approx(1.0, rel=0.1)

    def test_mean_formula(self):
        dist = LogNormal(median=10.0, cov=0.5)
        expected = 10.0 * np.exp(dist.sigma**2 / 2)
        assert dist.mean == pytest.approx(expected)

    def test_invalid_params(self):
        with pytest.raises(CalibrationError):
            LogNormal(median=0.0, cov=1.0)
        with pytest.raises(CalibrationError):
            LogNormal(median=1.0, cov=-1.0)


class TestSupportingDistributions:
    def test_constant(self, rng):
        dist = Constant(5.0)
        assert dist.sample(rng) == 5.0
        assert (dist.sample(rng, 3) == 5.0).all()

    def test_uniform_bounds(self, rng):
        dist = Uniform(2.0, 4.0)
        samples = dist.sample(rng, 1000)
        assert samples.min() >= 2.0 and samples.max() < 4.0

    def test_uniform_reversed_rejected(self):
        with pytest.raises(CalibrationError):
            Uniform(4.0, 2.0)

    def test_bounded_pareto_support(self, rng):
        dist = BoundedPareto(0.5, 1.0, 100.0)
        samples = dist.sample(rng, 5000)
        assert samples.min() >= 1.0 and samples.max() <= 100.0

    def test_bounded_pareto_skew(self, rng):
        samples = BoundedPareto(0.5, 1.0, 1000.0).sample(rng, 20000)
        assert np.mean(samples) > 3 * np.median(samples)

    def test_bounded_pareto_invalid(self):
        with pytest.raises(CalibrationError):
            BoundedPareto(-1.0, 1.0, 10.0)
        with pytest.raises(CalibrationError):
            BoundedPareto(1.0, 10.0, 1.0)

    def test_clipped(self):
        assert clipped(150.0, 0.0, 100.0) == 100.0
        assert (clipped(np.asarray([-5.0, 50.0]), 0.0, 100.0) == [0.0, 50.0]).all()


class TestMixture:
    def test_weights_normalised(self):
        mix = Mixture([Constant(0.0), Constant(1.0)], [1.0, 3.0])
        assert mix.weights.tolist() == [0.25, 0.75]

    def test_sample_respects_weights(self, rng):
        mix = Mixture([Constant(0.0), Constant(1.0)], [0.2, 0.8])
        samples = mix.sample(rng, 20000)
        assert samples.mean() == pytest.approx(0.8, abs=0.02)

    def test_scalar_sample(self, rng):
        mix = Mixture([Constant(2.0)], [1.0])
        assert mix.sample(rng) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(CalibrationError):
            Mixture([Constant(1.0)], [0.5, 0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(CalibrationError):
            Mixture([Constant(1.0), Constant(2.0)], [-1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(CalibrationError):
            Mixture([], [])


class TestCategorical:
    def test_sample_labels(self, rng):
        cat = Categorical(["x", "y"], [0.5, 0.5])
        assert cat.sample(rng) in ("x", "y")

    def test_sample_batch(self, rng):
        cat = Categorical([1, 2, 3], [1.0, 1.0, 1.0])
        out = cat.sample(rng, 10)
        assert len(out) == 10
        assert set(out) <= {1, 2, 3}

    def test_degenerate_weight(self, rng):
        cat = Categorical(["only"], [1.0])
        assert cat.sample(rng) == "only"

    def test_weights_sampled_proportionally(self, rng):
        cat = Categorical([0, 1], [0.1, 0.9])
        draws = cat.sample(rng, 20000)
        assert np.mean(draws) == pytest.approx(0.9, abs=0.02)


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------
@st.composite
def anchor_lists(draw):
    n = draw(st.integers(2, 6))
    probs = sorted(
        draw(
            st.lists(
                st.floats(0.01, 0.99), min_size=n, max_size=n, unique=True
            )
        )
    )
    values = sorted(
        draw(st.lists(st.floats(0.0, 1000.0), min_size=n, max_size=n))
    )
    return list(zip(probs, values))


@given(anchor_lists())
@settings(max_examples=80, deadline=None)
def test_quantile_is_monotone(anchors):
    dist = QuantileDistribution(anchors)
    ps = np.linspace(0, 1, 23)
    qs = dist.quantile(ps)
    assert (np.diff(qs) >= -1e-9).all()


@given(anchor_lists(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_samples_stay_inside_support(anchors, seed):
    dist = QuantileDistribution(anchors)
    lo, hi = dist.support
    samples = dist.sample(np.random.default_rng(seed), 100)
    assert (samples >= lo - 1e-9).all()
    assert (samples <= hi + 1e-9).all()


@given(
    st.floats(0.1, 1e4),
    st.floats(0.05, 5.0),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_lognormal_positive(median, cov, seed):
    samples = LogNormal(median, cov).sample(np.random.default_rng(seed), 50)
    assert (samples > 0).all()


# ----------------------------------------------------------------------
# Scalar draws without the per-call wrappers: the draws Generator makes
# ----------------------------------------------------------------------
@given(
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12).filter(lambda w: sum(w) > 0),
    st.integers(0, 2**31 - 1),
    st.integers(1, 40),
)
@settings(max_examples=120, deadline=None)
def test_choice_cdf_draws_what_choice_draws(weights, seed, size):
    p = np.asarray(weights) / sum(weights)
    cdf = choice_cdf(len(p), p)
    ours, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        assert int(cdf.searchsorted(ours.random(), side="right")) == int(numpy.choice(len(p), p=p))
    drawn = cdf.searchsorted(ours.random(size), side="right")
    assert drawn.tolist() == numpy.choice(len(p), size, p=p).tolist()
    assert ours.random() == numpy.random()


@pytest.mark.parametrize(
    "n, p",
    [
        (0, []),
        (2, [[0.5, 0.5]]),
        (3, [0.5, 0.5]),
        (2, [np.nan, 1.0]),
        (2, [-0.5, 1.5]),
        (2, [0.5, 0.6]),
        (2, [0.5, 0.5 + 1e-7]),
        (2, np.array([0.5, 0.6], dtype=np.float16)),
    ],
)
def test_choice_cdf_rejects_what_choice_rejects(n, p):
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(0).choice(n, p=p)
    with pytest.raises(ValueError, match=re.escape(str(numpy_error.value))):
        choice_cdf(n, p)


def test_choice_cdf_accepts_what_choice_accepts():
    # float16 probabilities get float16's looser tolerance, as in choice.
    for p in ([0.5, 0.5 + 1e-9], np.array([0.5, 0.52], dtype=np.float16)):
        np.random.default_rng(0).choice(2, p=p)
        assert choice_cdf(2, p)[-1] == 1.0


@given(
    st.floats(-1e6, 1e6),
    st.floats(0.0, 1e6),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_uniform_draws_what_generator_uniform_draws(low, width, seed):
    high = low + width
    ours, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        value = uniform(ours, low, high)
        assert type(value) is float
        assert np.float64(value).tobytes() == np.float64(numpy.uniform(low, high)).tobytes()
    assert ours.random() == numpy.random()


@pytest.mark.parametrize(
    "low, high",
    [(2.0, 1.0), (0.0, -0.0), (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (-1e308, 1e308)],
)
def test_uniform_rejects_what_generator_uniform_rejects(low, high):
    with pytest.raises((ValueError, OverflowError)) as numpy_error:
        np.random.default_rng(0).uniform(low, high)
    with pytest.raises(type(numpy_error.value), match=re.escape(str(numpy_error.value))):
        uniform(np.random.default_rng(0), low, high)


@given(anchor_lists(), st.booleans(), st.integers(0, 2**31 - 1))
@settings(max_examples=120, deadline=None)
def test_scalar_quantile_sample_is_the_array_path(anchors, log_space, seed):
    """One draw equals ``quantile`` at the same uniform, bit for bit."""
    if log_space:
        anchors = [(p, v + 1e-3) for p, v in anchors]
    dist = QuantileDistribution(anchors, log_space=log_space)
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        value = dist.sample(ours)
        assert type(value) is float
        expected = dist.quantile(reference.random())
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()
