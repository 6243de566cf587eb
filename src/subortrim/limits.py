"""Limit laws of trimmed subordinators and their finite-dimensional forms.

Small-time limits of the normalised jump statistics land on two families:

* the ranked jumps of a reciprocal-tail (index-1) subordinator, whose
  ``r``-th largest jump over ``[0, lam]`` has CDF
  ``exp(-lam/x) * sum_{j<r} (lam/x)^j / j!``;
* powers of trimmed positive-stable values, coupled to the same arrival
  series so that the index-to-zero limit holds per realisation, not just
  in law.

For joint (vector) statements the module evaluates finite-dimensional
CDFs over a grid ``lam_1 < ... < lam_n`` with levels ``y_1 ... y_n``:
closed-form products for the largest jump, and an exact recursion over
independent Poisson cell counts for the second largest.  The recursion
conditions on the first time slice: either no jump exceeds the lowest
level there, or exactly one does, landing in some level cell ``i``; each
branch reduces to the same functional form on the time-shifted suffix
grid, memoised by suffix start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .levy import TailFunction, parse_tail, tail_eval
from .pointproc import ArrivalSeries, log_sum_exp_rows
from .stats import poisson_below

__all__ = [
    "FidiQuery",
    "FIDI_QUERY_GRID",
    "cauchy_rth_jump_cdf",
    "extremal_fidi_cdf",
    "second_jump_fidi",
    "fidi_probability",
    "trimmed_stable_power_sample",
    "cauchy_ordered_jump_sample",
]


@dataclass(frozen=True)
class FidiQuery:
    """A joint-CDF query: restriction levels with one level per component.

    ``lambdas`` must be strictly increasing within (0, 1]; ``levels`` are
    positive and need not be monotone (the largest-jump evaluator reduces
    them; the second-jump recursion demands increasing levels).
    """

    lambdas: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        lams, ys = self.lambdas, self.levels
        if len(lams) < 1 or len(lams) != len(ys):
            raise ValueError("lambdas and levels must be equal-length and nonempty")
        if not all(0.0 < v <= 1.0 for v in lams):
            raise ValueError("restriction levels must lie in (0, 1]")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("restriction levels must be strictly increasing")
        if not all(y > 0.0 and not math.isnan(y) for y in ys):
            raise ValueError("levels must be positive")

    def __len__(self):
        return len(self.lambdas)


def _measure_tail(measure):
    """Turn a measure descriptor into a tail callable ``y -> mass above y``."""
    if isinstance(measure, str):
        if measure.strip().lower() == "cauchy":
            return lambda y: 1.0 / y
        return lambda y, t=parse_tail(measure): float(tail_eval(t, y))
    if isinstance(measure, TailFunction):
        return lambda y: float(tail_eval(measure, y))
    if callable(measure):
        return measure
    raise TypeError(f"unsupported measure descriptor: {measure!r}")


def cauchy_rth_jump_cdf(r: int, lam: float, x) -> float | np.ndarray:
    """CDF of the ``r``-th largest reciprocal-tail jump over ``[0, lam]``.

    ``P = exp(-lam/x) * sum_{j=0}^{r-1} (lam/x)^j / j!``: the probability
    that a Poisson(lam/x) count of jumps above ``x`` stays below ``r``.
    Evaluated as that finite sum (:func:`stats.poisson_below`, the
    integer-order regularised upper incomplete gamma function); vectorised
    over ``x``.
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if not lam > 0.0 or math.isnan(lam):
        raise ValueError(f"restriction level must be positive, got {lam}")
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.any(np.isnan(arr)) or np.any(arr <= 0.0)):
        raise ValueError("jump level must be positive")
    out = poisson_below(r, lam / arr.reshape(-1))
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(arr.shape)


def extremal_fidi_cdf(q: FidiQuery, measure="cauchy") -> float:
    """Joint CDF of the largest jump along a restriction grid.

    Uses the reduced levels ``y_i' = min_{j >= i} y_j`` (a later, lower
    constraint already forces the earlier one) and multiplies the no-jump
    probabilities of the independent time slices:
    ``prod_i exp(-(lam_i - lam_{i-1}) * mass_above(y_i'))``.
    """
    tail = _measure_tail(measure)
    reduced = np.minimum.accumulate(np.asarray(q.levels, dtype=float)[::-1])[::-1]
    lams = np.asarray(q.lambdas, dtype=float)
    gaps = np.diff(lams, prepend=0.0)
    exponent = math.fsum(g * tail(y) for g, y in zip(gaps, reduced))
    return math.exp(-exponent)


def second_jump_fidi(levy_level_mass, q: FidiQuery) -> float:
    """Joint CDF of the second-largest jump along a restriction grid.

    Exact evaluation for any driftless subordinator given through its
    level-mass descriptor (``"cauchy"``, a tail function, or a callable
    tail).  Conditioning on the first time slice — no jump above the
    lowest level, or exactly one, in level band ``i`` — reduces the event
    to the identical functional form on the suffix grid re-rooted at the
    band's restriction level, so the whole computation memoises on suffix
    start and runs in O(n^2).

    Demands strictly increasing levels: the slice decomposition counts
    jumps above ``y_i`` as a disjoint union of level bands, which needs
    ``y_1 < ... < y_n``.
    """
    tail = _measure_tail(levy_level_mass)
    ys = q.levels
    if any(b <= a for a, b in zip(ys, ys[1:])):
        raise ValueError("second-jump fidi needs strictly increasing levels")
    n = len(q)
    lams = (0.0,) + q.lambdas
    # Band masses Mg[i] = mass of (y_{i+1-th level}, next level]; top band to infinity.
    masses = [tail(ys[i]) - (tail(ys[i + 1]) if i + 1 < n else 0.0) for i in range(n)]
    masses = [max(m, 0.0) for m in masses]
    above = [math.fsum(masses[i:]) for i in range(n)] + [0.0]  # mass above y_{i+1-th}

    @lru_cache(maxsize=None)
    def suffix(a: int) -> float:
        m = n - a
        if m == 0:
            return 1.0
        g1 = lams[a + 1] - lams[a]
        quiet = math.exp(-g1 * above[a])  # no first-slice jump above the lowest level
        total = quiet * suffix(a + 1)
        chain = 0.0  # sum_{l=2..i} gap_l * (mass above local level l)
        for i in range(1, m + 1):
            if i >= 2:
                chain += (lams[a + i] - lams[a + i - 1]) * above[a + i - 1]
            total += g1 * masses[a + i - 1] * quiet * math.exp(-chain) * suffix(a + i)
        return total

    return min(1.0, max(0.0, suffix(0)))


def fidi_probability(q: FidiQuery, r: int, measure="cauchy") -> float:
    """Dispatch a fidi query: ``r = 1`` largest jump, ``r = 2`` second largest."""
    if r == 1:
        return extremal_fidi_cdf(q, measure)
    if r == 2:
        return second_jump_fidi(measure, q)
    raise ValueError(f"fidi rank must be 1 or 2, got {r}")


def trimmed_stable_power_sample(arr: ArrivalSeries, alpha, r, lam: float) -> float | np.ndarray:
    """One draw of the ``alpha``-power of an ``r``-trimmed stable value.

    Built on the reciprocal-tail ladder of ``arr`` restricted by marks to
    ``lam``: with ranked jumps ``d_1 >= d_2 >= ...`` it returns

        ( sum_{i > r} d_i**(1/alpha) )**alpha

    evaluated as ``exp(alpha * log_sum_exp_rows(log d_i / alpha))`` so
    extreme powers never overflow.  Sharing ``arr`` with
    :func:`cauchy_ordered_jump_sample` couples the two statistics on the
    same randomness: as ``alpha`` drops, this value sinks to that ranked
    jump realisation by realisation.

    ``alpha`` and ``r`` may each be a sequence; the result has shape
    ``np.shape(r) + np.shape(alpha)``, all from one restricted ladder, and
    each entry has the bits of the scalar call.  Scalars give a float.
    """
    alphas, ranks = np.asarray(alpha, dtype=float), _ranks(r)
    alpha_list, rank_list = alphas.ravel().tolist(), ranks.ravel().tolist()
    if not all(0.0 < a < 1.0 for a in alpha_list):
        raise ValueError(f"index must lie in (0, 1), got {alpha}")
    log_jumps = _restricted_log_jumps(arr, lam, rank_list)
    row = np.empty((1, log_jumps.size))  # the scratch every (r, alpha) is reduced in
    out = []
    for k in rank_list:
        for a in alpha_list:
            terms = np.divide(log_jumps[None, k:], a, out=row[:, : row.shape[1] - k])
            out.append(math.exp(a * log_sum_exp_rows(terms, -np.inf)[0]))
    if ranks.ndim == alphas.ndim == 0:
        return out[0]
    return np.reshape(out, ranks.shape + alphas.shape)


def cauchy_ordered_jump_sample(arr: ArrivalSeries, r, lam: float) -> float | np.ndarray:
    """The ``(r+1)``-th largest reciprocal-tail jump restricted to ``lam``.

    Marginally distributed as ``cauchy_rth_jump_cdf(r + 1, lam, .)``;
    pathwise dominated by lower ranks on the same series.  A sequence of
    ``r`` gives an array of that shape from one restricted ladder.
    """
    ranks = _ranks(r)
    log_jumps = _restricted_log_jumps(arr, lam, ranks.ravel().tolist())
    out = np.array([math.exp(v) for v in log_jumps[ranks.ravel()]]).reshape(ranks.shape)
    return float(out) if out.ndim == 0 else out


def _ranks(r) -> np.ndarray:
    """``r`` as an integer array; a float raises ``TypeError`` rather than an index error."""
    ranks = np.asarray(r)
    if ranks.dtype.kind not in "iu":
        raise TypeError(f"trim counts must be integers, got {r!r}")
    return ranks


def _restricted_log_jumps(arr: ArrivalSeries, lam: float, ranks: list[int]) -> np.ndarray:
    """Ranked log-jumps with marks ``<= lam``, checked to reach rank ``r + 1`` for every ``r``."""
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"restriction level must lie in (0, 1], got {lam}")
    if min(ranks) < 0:
        raise ValueError(f"trim count must be >= 0, got {ranks}")
    log_jumps = arr.arrivals[arr.marks <= lam]
    np.negative(np.log(log_jumps, out=log_jumps), out=log_jumps)
    if log_jumps.size <= max(ranks):
        raise ValueError(f"only {log_jumps.size} restricted jumps, trim {ranks}: deepen the series")
    return log_jumps


#: Fixed validation grid: 12 queries spanning n = 1..4, mixed widths and levels,
#: all with increasing levels so both fidi evaluators apply.
FIDI_QUERY_GRID: tuple[FidiQuery, ...] = (
    FidiQuery(lambdas=(1.0,), levels=(1.0,)),
    FidiQuery(lambdas=(0.5,), levels=(0.8,)),
    FidiQuery(lambdas=(0.25,), levels=(2.0,)),
    FidiQuery(lambdas=(0.5, 1.0), levels=(1.0, 2.0)),
    FidiQuery(lambdas=(0.3, 0.9), levels=(0.5, 0.6)),
    FidiQuery(lambdas=(0.2, 0.4), levels=(1.5, 4.0)),
    FidiQuery(lambdas=(0.25, 0.5, 1.0), levels=(0.5, 1.0, 2.0)),
    FidiQuery(lambdas=(0.2, 0.6, 0.8), levels=(0.8, 1.6, 2.4)),
    FidiQuery(lambdas=(0.1, 0.2, 0.3), levels=(0.3, 0.5, 0.9)),
    FidiQuery(lambdas=(0.2, 0.4, 0.6, 0.8), levels=(0.5, 1.0, 1.5, 2.0)),
    FidiQuery(lambdas=(0.25, 0.5, 0.75, 1.0), levels=(0.4, 0.8, 1.2, 1.6)),
    FidiQuery(lambdas=(0.1, 0.4, 0.7, 1.0), levels=(0.25, 0.75, 1.25, 2.5)),
)
