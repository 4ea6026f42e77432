"""Calibrated random distributions.

The paper reports its findings as empirical CDF quantiles ("the median
run time of GPU jobs is 30 minutes, the 25th percentile is 4 minutes
...").  To regenerate a dataset with the same shape we sample from
inverse CDFs *anchored directly on those reported quantiles*.  This
module provides that machinery:

* :class:`QuantileDistribution` — a piecewise (log-)linear inverse CDF
  passing through explicit ``(probability, value)`` anchors.  This is
  the workhorse of :mod:`repro.workload`.
* :class:`LogNormal` — parameterised by median and coefficient of
  variation, matching how the paper quotes spread.
* :class:`Mixture` — weighted mixture (used for per-class utilization).
* :class:`Constant`, :class:`Uniform`, :class:`BoundedPareto`,
  :class:`Categorical` — supporting casts.
* :func:`choice_cdf` and :func:`uniform` — ``Generator.choice`` and
  ``Generator.uniform``'s scalar draws without their per-call array
  wrapping: the same uniform, the same arithmetic, the same checks.

All distributions expose ``sample(rng, size)`` and, where meaningful,
``quantile(p)`` / ``cdf(x)`` so tests can verify calibration without
sampling noise.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from repro.errors import CalibrationError


def choice_cdf(n: int, p: Sequence[float] | np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(n, p=p)`` inverts, with ``p`` checked
    as ``choice`` checks it.

    ``cdf.searchsorted(rng.random(size), side="right")`` then returns
    the indices ``rng.choice(n, size, p=p)`` returns (``size=None``
    included), from the same uniforms: ``choice`` draws exactly so.
    Build the CDF once, where the probabilities become fixed, and each
    draw skips ``choice``'s per-call checks, sum and cumulative sum.  A
    bad ``p`` raises ``choice``'s ``ValueError`` here.
    """
    if n <= 0:
        raise ValueError("a must be a positive integer unless no samples are taken")
    atol = np.sqrt(np.finfo(np.float64).eps)
    if isinstance(p, np.ndarray) and np.issubdtype(p.dtype, np.floating):
        atol = max(atol, np.sqrt(np.finfo(p.dtype).eps))
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    if p.size != n:
        raise ValueError("a and p must have same size")
    # choice's Kahan summation, term for term.
    values = p.tolist()
    total, carry = values[0], 0.0
    for value in values[1:]:
        term = value - carry
        partial = total + term
        carry = (partial - total) - term
        total = partial
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > atol:
        raise ValueError(
            "Probabilities do not sum to 1. See Notes section of docstring for more information."
        )
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``rng.uniform(low, high)`` for scalar bounds, at the cost of one
    ``rng.random()``: ``uniform`` draws ``low + (high - low) * u`` from
    one uniform ``u``, after these checks, and so does this."""
    low, high = float(low), float(high)
    span = high - low
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if math.copysign(1.0, span) < 0:
        raise ValueError("high - low < 0")
    return low + span * rng.random()


class Distribution:
    """Interface for scalar random distributions used by the generator."""

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | float:
        """Draw ``size`` samples (or a scalar when ``size`` is None)."""
        raise NotImplementedError

    def mean_estimate(self, rng: np.random.Generator, n: int = 4096) -> float:
        """Monte-Carlo mean, for distributions without a closed form."""
        return float(np.mean(self.sample(rng, n)))


class QuantileDistribution(Distribution):
    """Inverse-CDF sampler through explicit quantile anchors.

    Parameters
    ----------
    anchors:
        Sequence of ``(probability, value)`` pairs.  Probabilities must
        be strictly increasing in ``(0, 1)`` boundaries included, and
        values must be non-decreasing.  Anchors at p=0 and p=1 define
        the support; if absent they are extrapolated from the nearest
        segment.
    log_space:
        Interpolate value in log space.  This matches the paper's
        log-scaled runtime axes and produces heavy right tails.
    """

    def __init__(self, anchors: Sequence[tuple[float, float]], log_space: bool = False) -> None:
        if len(anchors) < 2:
            raise CalibrationError("need at least two quantile anchors")
        probs = [float(p) for p, _ in anchors]
        values = [float(v) for _, v in anchors]
        if any(b <= a for a, b in zip(probs, probs[1:])):
            raise CalibrationError(f"anchor probabilities must be strictly increasing: {probs}")
        if any(b < a for a, b in zip(values, values[1:])):
            raise CalibrationError(f"anchor values must be non-decreasing: {values}")
        if probs[0] < 0.0 or probs[-1] > 1.0:
            raise CalibrationError("anchor probabilities must lie in [0, 1]")
        if log_space and values[0] <= 0.0:
            raise CalibrationError("log-space anchors must be positive")
        if probs[0] > 0.0:
            probs.insert(0, 0.0)
            values.insert(0, values[0])
        if probs[-1] < 1.0:
            probs.append(1.0)
            values.append(values[-1])
        self._probs = np.asarray(probs)
        self._log_space = log_space
        self._values = np.log(values) if log_space else np.asarray(values)
        # The anchors as floats, for the scalar draw in :meth:`sample`.
        self._prob_list = self._probs.tolist()
        self._value_list = self._values.tolist()

    def quantile(self, p: float | np.ndarray) -> float | np.ndarray:
        """Evaluate the inverse CDF at probability ``p``."""
        p = np.clip(p, 0.0, 1.0)
        out = np.interp(p, self._probs, self._values)
        if self._log_space:
            out = np.exp(out)
        if np.isscalar(p) or np.ndim(p) == 0:
            return float(out)
        return out

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Evaluate the CDF (inverse of :meth:`quantile` on anchors)."""
        values = np.log(np.maximum(x, 1e-300)) if self._log_space else np.asarray(x, dtype=float)
        out = np.interp(values, self._values, self._probs, left=0.0, right=1.0)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    @property
    def support(self) -> tuple[float, float]:
        """(min, max) attainable values."""
        lo, hi = self._values[0], self._values[-1]
        if self._log_space:
            return float(np.exp(lo)), float(np.exp(hi))
        return float(lo), float(hi)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is not None:
            return self.quantile(rng.random(size))
        # ``quantile(rng.random())`` without its array wrappers: u lies
        # in [0, 1), inside the anchors' [0, 1], so the clip is a no-op,
        # and the interpolation is np.interp's, operation for operation.
        u = rng.random()
        probs, values = self._prob_list, self._value_list
        j = bisect.bisect_right(probs, u) - 1
        if probs[j] == u:
            out = values[j]
        else:
            slope = (values[j + 1] - values[j]) / (probs[j + 1] - probs[j])
            out = slope * (u - probs[j]) + values[j]
            if math.isnan(out):  # np.interp retries from the right end
                out = slope * (u - probs[j + 1]) + values[j + 1]
                if math.isnan(out) and values[j] == values[j + 1]:
                    out = values[j]
        # np.exp, not math.exp: the two differ in the last bit on some inputs.
        return float(np.exp(out)) if self._log_space else out


class LogNormal(Distribution):
    """Lognormal parameterised by median and coefficient of variation.

    The paper quotes phase-length variability as CoV percentages
    (e.g. "idle interval CoV median 126%"); for a lognormal,
    ``CoV^2 = exp(sigma^2) - 1`` which we invert here.
    """

    def __init__(self, median: float, cov: float) -> None:
        if median <= 0:
            raise CalibrationError(f"median must be positive, got {median}")
        if cov <= 0:
            raise CalibrationError(f"CoV must be positive, got {cov}")
        self.median = float(median)
        self.cov = float(cov)
        self.sigma = math.sqrt(math.log(1.0 + cov * cov))
        self.mu = math.log(median)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.lognormal(self.mu, self.sigma, size)

    @property
    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)


class Constant(Distribution):
    """Degenerate distribution that always returns ``value``."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self.value
        return np.full(size, self.value)


class Uniform(Distribution):
    """Uniform distribution on ``[low, high)``."""

    def __init__(self, low: float, high: float) -> None:
        if high < low:
            raise CalibrationError(f"uniform bounds reversed: [{low}, {high})")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.uniform(self.low, self.high, size)


class BoundedPareto(Distribution):
    """Pareto distribution truncated to ``[low, high]``.

    Used for user activity: a small number of "expert" users submit
    most jobs (the paper: top 5% of users submit 44% of jobs).
    """

    def __init__(self, alpha: float, low: float, high: float) -> None:
        if alpha <= 0:
            raise CalibrationError(f"alpha must be positive, got {alpha}")
        if not 0 < low < high:
            raise CalibrationError(f"need 0 < low < high, got [{low}, {high}]")
        self.alpha = float(alpha)
        self.low = float(low)
        self.high = float(high)

    def quantile(self, p: float | np.ndarray):
        la, ha = self.low**self.alpha, self.high**self.alpha
        return (-(p * ha - p * la - ha) / (ha * la)) ** (-1.0 / self.alpha)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        u = rng.random(size)
        out = self.quantile(u)
        if size is None:
            return float(out)
        return out


class Mixture(Distribution):
    """Weighted mixture of component distributions."""

    def __init__(self, components: Sequence[Distribution], weights: Sequence[float]) -> None:
        if len(components) != len(weights):
            raise CalibrationError("components and weights must have the same length")
        if not components:
            raise CalibrationError("mixture needs at least one component")
        total = float(sum(weights))
        if total <= 0 or any(w < 0 for w in weights):
            raise CalibrationError(f"weights must be non-negative and sum > 0: {weights}")
        self.components = list(components)
        self.weights = np.asarray([w / total for w in weights])

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            idx = rng.choice(len(self.components), p=self.weights)
            return self.components[idx].sample(rng)
        choices = rng.choice(len(self.components), size=size, p=self.weights)
        out = np.empty(size, dtype=float)
        for i, component in enumerate(self.components):
            mask = choices == i
            count = int(mask.sum())
            if count:
                out[mask] = component.sample(rng, count)
        return out


class Categorical:
    """Weighted choice over arbitrary labels (not a scalar Distribution)."""

    def __init__(self, labels: Sequence, weights: Sequence[float]) -> None:
        if len(labels) != len(weights):
            raise CalibrationError("labels and weights must have the same length")
        total = float(sum(weights))
        if total <= 0 or any(w < 0 for w in weights):
            raise CalibrationError(f"weights must be non-negative and sum > 0: {weights}")
        self.labels = list(labels)
        self.probabilities = np.asarray([w / total for w in weights])
        self._cdf = choice_cdf(len(self.labels), self.probabilities)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        # The draw ``rng.choice(len(self.labels), size, p=self.probabilities)`` makes.
        idx = self._cdf.searchsorted(rng.random(size), side="right")
        if size is None:
            return self.labels[int(idx)]
        return [self.labels[i] for i in idx]


def clipped(samples: np.ndarray | float, low: float, high: float):
    """Clip samples into ``[low, high]`` (utilization percentages etc.)."""
    return np.clip(samples, low, high)
