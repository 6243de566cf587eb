"""Empirical-distribution instruments: KS tests, Laplace means.

These are the measuring devices for every convergence-in-distribution
claim checked by the experiment runners: one- and two-sample
Kolmogorov-Smirnov statistics with asymptotic p-values, the
empirical Laplace transform, binomial Monte Carlo error bars, and the
Poisson lower tail that closed-form limit laws and small-jump means reduce
to.

Pass/fail thresholds are policy and live with the experiments; nothing
here decides significance.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "KsResult",
    "LaplaceEstimate",
    "kolmogorov_sf",
    "poisson_below",
    "ks_one_sample",
    "ks_two_sample",
    "empirical_laplace",
    "mc_standard_error",
]


class KsResult(NamedTuple):
    statistic: float
    p_value: float


class LaplaceEstimate(NamedTuple):
    mean: float
    standard_error: float


def kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov distribution.

    ``Q(x) = 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 x^2)``, truncated once a
    term drops below 1e-12, clamped into [0, 1].  ``Q(0) = 1``.
    """
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 100_000):
        term = math.exp(-2.0 * k * k * x * x)
        if term < 1e-12:
            break
        total += sign * term
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def poisson_below(n: int, m: np.ndarray) -> np.ndarray:
    """``P(N < n)`` for ``N ~ Poisson(m)``: ``exp(-m) * sum_{j<n} m**j / j!``.

    Elementwise over 1-D ``m >= 0`` (not NaN), for an integer ``n >= 1``.
    This is the regularised upper incomplete gamma function ``Q(n, m) =
    Gamma(n, m) / (n-1)!`` (DLMF 8.4.8), summed with the term recurrence ``m**j / j!`` in
    increasing ``j``: within a few ulps while ``exp(-m)`` is a normal
    double (``m <= 708``).  Beyond, ``exp(-m)`` loses bits and vanishes past
    ``m = 745``, and an element whose sum overflows (``m = inf``, or
    ``m**j / j!`` above the largest double) gives 0; for ``n <= 171`` both
    leave an absolute error below ``2e-130``.
    """
    total = np.ones(m.shape)
    term = np.ones(m.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, n):
            term *= m
            term /= j
            total += term
        out = np.exp(-m) * total
    out[np.isnan(out)] = 0.0  # exp(-m) = 0 times an overflowed sum
    return out


def _sample(samples, least: int) -> np.ndarray:
    """``samples`` flattened to 1-D; raises unless it holds ``least`` or more points, none NaN."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size < least:
        raise ValueError(f"need at least {least} sample points, got {arr.size}")
    if np.isnan(arr).any():
        raise ValueError("samples must not contain NaN")
    return arr


def ks_one_sample(samples, cdf: Callable[[np.ndarray], np.ndarray]) -> KsResult:
    """One-sample KS test of a sample against a target law.

    The statistic is the larger of the two one-sided gaps between the
    empirical CDF and ``cdf`` over the sample points; the p-value is the
    asymptotic Kolmogorov survival function at ``sqrt(n) * statistic``.
    Requires ``n >= 10`` (the asymptotic p-value is meaningless below).
    """
    xs = np.sort(_sample(samples, 10))
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    if f.shape != xs.shape or np.any(np.isnan(f)):
        raise ValueError("cdf must map the sample grid to probabilities")
    if np.any(f < 0.0) or np.any(f > 1.0) or np.any(np.diff(f) < 0.0):
        raise ValueError("degenerate law: cdf values must be monotone within [0, 1]")
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / n)))
    stat = max(d_plus, d_minus, 0.0)
    return KsResult(statistic=stat, p_value=kolmogorov_sf(math.sqrt(n) * stat))


def ks_two_sample(a, b) -> KsResult:
    """Two-sample KS test; symmetric in its arguments.

    Sup-gap between the two right-continuous empirical CDFs (the fraction
    of a sample ``<= x``) over the pooled sample, with effective size
    ``n*m/(n+m)`` in the asymptotic p-value.  Requires at least 10 points
    per sample.
    """
    xa, xb = np.sort(_sample(a, 10)), np.sort(_sample(b, 10))
    n, m = xa.size, xb.size
    pooled = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, pooled, side="right") / n
    cdf_b = np.searchsorted(xb, pooled, side="right") / m
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = n * m / (n + m)
    return KsResult(statistic=stat, p_value=kolmogorov_sf(math.sqrt(n_eff) * stat))


def empirical_laplace(samples, s: float) -> LaplaceEstimate:
    """Sample mean and standard error of ``exp(-s * X)``.

    For nonnegative samples the mean lies in (0, 1].  The standard error
    uses the unbiased sample variance (0 for a single observation).  A
    NaN sample and an infinite or NaN ``s`` raise ``ValueError``.
    """
    if not 0.0 < s < math.inf:
        raise ValueError(f"transform argument must be positive and finite, got {s}")
    arr = _sample(samples, 1)
    with np.errstate(under="ignore"):
        vals = np.exp(-s * arr)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return LaplaceEstimate(mean=mean, standard_error=se)


def mc_standard_error(p_hat: float, n: int) -> float:
    """Binomial standard error ``sqrt(p(1-p)/n)`` of a Monte Carlo proportion."""
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"proportion must lie in [0, 1], got {p_hat}")
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    return math.sqrt(p_hat * (1.0 - p_hat) / n)
