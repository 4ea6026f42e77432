"""Statistical primitives used throughout the characterization.

The paper presents almost everything as empirical CDFs, coefficients
of variation, and Spearman rank correlations; these are implemented
here once and reused by every figure module.  The column helpers
(:func:`column_ecdf`, :func:`column_fraction`) fold ``source.chunks()``,
so one implementation serves a materialized table (the one-chunk
stream of itself) and a chunk stream: exact while the input is one
chunk, within a tracked rank bound after.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class Ecdf:
    """An empirical CDF: ``values`` sorted ascending, ``probabilities``
    the fraction of samples <= the value."""

    values: np.ndarray
    probabilities: np.ndarray

    @property
    def num_samples(self) -> int:
        return len(self.values)

    def evaluate(self, x: float | np.ndarray) -> float | np.ndarray:
        """P(sample <= x)."""
        out = np.searchsorted(self.values, np.asarray(x), side="right") / max(len(self.values), 1)
        if np.ndim(x) == 0:
            return float(out)
        return out

    def quantile(self, p: float) -> float:
        """Inverse CDF at probability ``p`` (linear interpolation)."""
        if not 0.0 <= p <= 1.0:
            raise AnalysisError(f"probability {p} outside [0, 1]")
        return float(np.quantile(self.values, p))

    def fraction_above(self, threshold: float) -> float:
        """P(sample > threshold)."""
        return 1.0 - float(self.evaluate(threshold))

    def median(self) -> float:
        return self.quantile(0.5)


def ecdf(values) -> Ecdf:
    """Build an :class:`Ecdf`, dropping NaNs."""
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise AnalysisError("cannot build an ECDF from zero finite samples")
    ordered = np.sort(arr)
    probs = np.arange(1, ordered.size + 1) / ordered.size
    return Ecdf(ordered, probs)


def column_ecdf(source, name: str, *, transform=None):
    """The distribution of one column as a one-pass quantile sketch.

    Folds ``source.chunks()`` into a :class:`~repro.frame.QuantileSketch`
    (same query surface as :class:`Ecdf`: ``values``/``probabilities``/
    ``evaluate``/``quantile``/``median``/``fraction_above``).  The
    answer is exact while the input is one chunk — a materialized
    :class:`~repro.frame.Table` is one — and within the sketch's
    tracked rank bound after.  ``transform`` is applied vectorized per
    chunk (e.g. seconds to minutes); non-finite samples are dropped.
    """
    from repro.frame import QuantileSketch

    sketch = QuantileSketch()
    for chunk in source.chunks():
        arr = np.asarray(chunk.column(name), dtype=float)
        if transform is not None:
            arr = transform(arr)
        sketch.update(arr)
    if sketch.num_samples == 0:
        raise AnalysisError("cannot build an ECDF from zero finite samples")
    return sketch


def column_fraction(source, name: str, predicate) -> float:
    """The exact mean of a boolean predicate over one column.

    ``predicate`` maps a float array to a boolean array.  The chunk
    fold accumulates integer true/total counts, so the result is
    bit-for-bit ``predicate(column).mean()`` on any chunking.
    """
    true_count = 0
    total = 0
    for chunk in source.chunks():
        hits = np.asarray(predicate(np.asarray(chunk.column(name), dtype=float)))
        true_count += int(hits.sum())
        total += int(hits.size)
    if total == 0:
        raise AnalysisError("cannot take a fraction of zero samples")
    return true_count / total


def coefficient_of_variation(values) -> float:
    """Standard deviation as a fraction of the mean (paper's CoV).

    The paper reports CoV as a percentage; we return a fraction
    (1.26 == "126%").  Zero-mean input has undefined CoV and returns
    NaN rather than raising, since per-user aggregation routinely hits
    all-zero utilization groups.
    """
    arr = np.ascontiguousarray(values, dtype=float).ravel()
    finite = np.isfinite(arr)
    if not finite.all():
        arr = arr[finite]
    if arr.size == 0:
        return float("nan")
    # ``arr.mean()`` and ``arr.std()`` spelled out: the same reductions
    # in the same order, so the same bits, without their per-call cost
    # (this runs once per job or GPU group in several figures).
    mean = np.add.reduce(arr) / arr.size
    if mean == 0:
        return float("nan")
    deviation = arr - mean
    return float(math.sqrt(np.add.reduce(deviation * deviation) / arr.size) / abs(mean))


def spearman(x, y) -> tuple[float, float]:
    """Spearman rank correlation and two-sided p-value.

    Implemented directly (rank + Pearson + t-test), so the library
    imports no scipy: the p-value is :func:`student_t_two_sided` of
    ``rho``'s t statistic, which agrees with
    ``2 * scipy.stats.t.sf(|t|, n - 2)`` to 1e-12 relative for
    ``n <= 1000``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise AnalysisError(f"shape mismatch: {x.shape} vs {y.shape}")
    mask = np.isfinite(x) & np.isfinite(y)
    x, y = x[mask], y[mask]
    n = x.size
    if n < 3:
        raise AnalysisError(f"need >= 3 paired samples, got {n}")
    rx = _rank(x)
    ry = _rank(y)
    rho = _pearson(rx, ry)
    if abs(rho) >= 1.0:
        return float(np.sign(rho)), 0.0
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return float(rho), student_t_two_sided(t, n - 2)


def student_t_two_sided(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom.

    That tail is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t²).  Evaluated with the continued fraction of
    Numerical Recipes (modified Lentz), which converges fast below
    x = (a + 1) / (a + b + 2); above it the tail is
    1 - I_{1-x}(1/2, df/2), with ``1 - x`` computed without
    cancellation.
    """
    t2 = t * t
    x = df / (df + t2)
    y = t2 / (df + t2)  # 1 - x without cancellation
    if x == 0.0 or y == 0.0:
        return x  # |t| = inf has tail 0, t = 0 has tail 1
    a, b = 0.5 * df, 0.5
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), to double precision."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    for m in range(1, 1000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            fraction *= c * d
        if abs(c * d - 1.0) <= _EPS:
            return fraction
    raise AnalysisError(f"incomplete beta I_{x}({a}, {b}) did not converge")


def _rank(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean of their positions)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    ranks[order] = np.arange(1, len(values) + 1, dtype=float)
    # average ties
    sorted_vals = values[order]
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            mean_rank = (i + j) / 2.0 + 1.0
            ranks[order[i : j + 1]] = mean_rank
        i = j + 1
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0:
        return 0.0
    return float((xc * yc).sum() / denom)


def quantiles(values, probs=(0.25, 0.5, 0.75)) -> dict[float, float]:
    """Convenience: several quantiles at once, NaNs dropped."""
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise AnalysisError("cannot take quantiles of zero finite samples")
    return {float(p): float(np.quantile(arr, p)) for p in probs}


def gini(values) -> float:
    """Gini coefficient of a non-negative distribution (used for the
    Pareto-principle framing of user activity)."""
    arr = np.sort(np.asarray(values, dtype=float))
    if (arr < 0).any():
        raise AnalysisError("Gini is defined for non-negative values")
    if arr.size == 0 or arr.sum() == 0:
        return 0.0
    n = arr.size
    index = np.arange(1, n + 1)
    return float((2.0 * (index * arr).sum() - (n + 1) * arr.sum()) / (n * arr.sum()))
