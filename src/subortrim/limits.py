"""Limit laws of trimmed subordinators and their finite-dimensional forms.

Small-time limits of the normalised jump statistics land on two families:

* the ranked jumps of a reciprocal-tail (index-1) subordinator, whose
  ``r``-th largest jump over ``[0, lam]`` has CDF
  ``exp(-lam/x) * sum_{j<r} (lam/x)^j / j!``;
* powers of trimmed positive-stable values, coupled to the same arrival
  series so that the index-to-zero limit holds per realisation, not just
  in law.

For joint (vector) statements the module evaluates the finite-dimensional
CDF of the rank-``r`` jump over a grid ``lam_1 < ... < lam_n`` with
positive levels ``y_1 ... y_n`` that need not be monotone, at any rank:
one dynamic program over the time slices with independent Poisson counts
per level band (:func:`fidi_probability`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levy import tail_eval  # noqa: F401 - perfbench's tracer test rebinds limits.tail_eval
from .pointproc import _SUM_NODE, ArrivalSeries, _check_level, _trim_count, log_sum_exp_sorted
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
    positive and need not be monotone at any rank.
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


def cauchy_rth_jump_cdf(r: int, lam: float, x) -> float | np.ndarray:
    """CDF of the ``r``-th largest reciprocal-tail jump over ``[0, lam]``.

    ``P = exp(-lam/x) * sum_{j=0}^{r-1} (lam/x)^j / j!``: the probability
    that a Poisson(lam/x) count of jumps above ``x`` stays below ``r``.
    Evaluated as that finite sum (:func:`stats.poisson_below`, the
    integer-order regularised upper incomplete gamma function); vectorised
    over ``x``.  ``r`` must be an integer; a float raises ``TypeError``.
    """
    r = _trim_count(r, 1, "rank")
    if not lam > 0.0 or math.isnan(lam):
        raise ValueError(f"restriction level must be positive, got {lam}")
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.any(np.isnan(arr)) or np.any(arr <= 0.0)):
        raise ValueError("jump level must be positive")
    with np.errstate(over="ignore"):  # lam / x past the largest double is inf: the CDF is 0
        means = lam / arr.reshape(-1)
    out = poisson_below(r, means)
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(arr.shape)


def fidi_probability(q: FidiQuery, r: int) -> float:
    """Joint CDF of the rank-``r`` reciprocal-tail jump along a restriction grid.

    The probability that, for every ``i``, at most ``r - 1`` jumps over
    ``[0, lam_i]`` exceed ``y_i``; ``r`` is any integer ``>= 1``.  The
    levels are reduced to ``y_i' = min_{j >= i} y_j``, because a later,
    lower level already forces an earlier one at every rank.  The reduced
    levels do not decrease, so in time slice ``s`` only jumps above ``y_s'``
    can count, and one in level band ``b`` (above ``y_b'``, at most
    ``y_{b+1}'``) counts for constraints ``s`` to ``b``.  Each slice's band
    counts are independent Poisson; their no-jump factors multiply to
    ``exp(-sum_s gap_s / y_s')`` on every path, which is taken out.  The
    rest is a dynamic program over the slices whose state is the sorted
    tuple of the bands of the at most ``r - 1`` jumps that still count.

    Its weights sum to at most ``sum_{j <= J} E**j / j!``, with ``E`` the
    exponent and ``J = (r - 1) len(q)`` the most jumps a path can count, so
    they overflow only at a tiny level (below about 1e-154 at ``r = 3``, a
    subnormal one at ``r = 2``).  For ``J <= 170`` the probability is then
    below ``exp(-3000)`` and 0 is returned, as :func:`stats.poisson_below`
    does; for a larger ``J`` it need not be, and ``ArithmeticError`` is
    raised.
    """
    r = _trim_count(r, 1, "rank")
    reduced = np.minimum.accumulate(np.asarray(q.levels, dtype=float)[::-1])[::-1]
    gaps = np.diff(np.asarray(q.lambdas, dtype=float), prepend=0.0).tolist()
    above = [1.0 / y for y in reduced.tolist()]  # mass above each reduced level
    bands = [lo - hi for lo, hi in zip(above, above[1:] + [0.0])]
    states = {(): 1.0}
    for s, gap in enumerate(gaps):
        for b in range(s, len(bands)):
            rate, grown = gap * bands[b], {}
            for held, p in states.items():
                for c in range(r - len(held)):  # c more jumps in band b
                    key = tuple(sorted(held + (b,) * c))
                    grown[key] = grown.get(key, 0.0) + p
                    p *= rate / (c + 1)
            states = grown
        kept = {}
        for held, p in states.items():  # band-s jumps count for no later constraint
            key = held[held.count(s) :]
            kept[key] = kept.get(key, 0.0) + p
        states = kept
    try:
        total = math.fsum(states.values())
    except OverflowError:  # finite weights whose sum overflows
        total = math.inf
    if not total < math.inf:  # inf, or NaN from inf - inf between two bands
        if (r - 1) * len(q) > 170:
            raise ArithmeticError(f"fidi weights overflow at rank {r} beyond the exact range")
        return 0.0
    exponent = math.fsum(g * m for g, m in zip(gaps, above))
    return min(1.0, total * math.exp(-exponent))


def extremal_fidi_cdf(q: FidiQuery) -> float:
    """Joint CDF of the largest jump along a restriction grid: ``fidi_probability(q, 1)``."""
    return fidi_probability(q, 1)


def second_jump_fidi(q: FidiQuery) -> float:
    """Joint CDF of the second-largest jump: ``fidi_probability(q, 2)``."""
    return fidi_probability(q, 2)


def trimmed_stable_power_sample(arr: ArrivalSeries, alpha, r, lam: float) -> float | np.ndarray:
    """One draw of the ``alpha``-power of an ``r``-trimmed stable value.

    Built on the reciprocal-tail ladder of ``arr`` restricted by marks to
    ``lam``: with ranked jumps ``d_1 >= d_2 >= ...`` it returns

        ( sum_{i > r} d_i**(1/alpha) )**alpha

    evaluated as ``exp(alpha * L)`` with ``L`` the log-sum-exp of
    ``log d_i / alpha`` over ``i > r``, so extreme powers never overflow.
    The restricted log-ladder ``-log Gamma_i`` is nonincreasing (the
    arrivals increase and ``log`` is monotone), so ``L`` is
    :func:`pointproc.log_sum_exp_sorted` of its suffix past rank ``r``:
    the bits of :func:`pointproc.log_sum_exp_rows` on that row, with
    ``exp`` formed only on the terms above the subnormal cut that lie in
    pairwise nodes whose sum can move a bit.  On a 1e6-term series that is
    the whole row at ``alpha = 0.4``, a few thousand to a quarter of it at
    0.2, and a few hundred terms at 0.1 or less.  Sharing ``arr`` with
    :func:`cauchy_ordered_jump_sample` couples the two statistics on the
    same randomness: as ``alpha`` drops, this value sinks to that ranked
    jump realisation by realisation.

    ``alpha`` and ``r`` may each be a sequence; the result has shape
    ``np.shape(r) + np.shape(alpha)``, all from one restricted ladder and
    one scratch row, and each entry has the bits of the scalar call.  An
    empty ``alpha`` or ``r`` gives an empty array.  Scalars give a float.
    """
    alphas, (ranks, rank_list) = np.asarray(alpha, dtype=float), _ranks(r)
    alpha_list = alphas.ravel().tolist()
    if not all(0.0 < a < 1.0 for a in alpha_list):
        raise ValueError(f"index must lie in (0, 1), got {alpha}")
    _check_level(lam)
    out = []
    if rank_list:
        if lam == 1.0:  # every mark lies in (0, 1]: the whole series is kept
            log_jumps = np.log(arr.arrivals)
        else:
            log_jumps = arr.arrivals[arr.marks <= lam]
            np.log(log_jumps, out=log_jumps)
        np.negative(log_jumps, out=log_jumps)
        _check_depth(log_jumps.size, rank_list)
        scratch = np.empty(min(log_jumps.size, _SUM_NODE))  # every (r, alpha) sums in it
        for k in rank_list:
            for a in alpha_list:
                out.append(math.exp(a * log_sum_exp_sorted(log_jumps[k:], a, scratch)))
    if ranks.ndim == alphas.ndim == 0:
        return out[0]
    return np.reshape(out, ranks.shape + alphas.shape)


def cauchy_ordered_jump_sample(arr: ArrivalSeries, r, lam: float) -> float | np.ndarray:
    """The ``(r+1)``-th largest reciprocal-tail jump restricted to ``lam``.

    Marginally distributed as ``cauchy_rth_jump_cdf(r + 1, lam, .)``;
    pathwise dominated by lower ranks on the same series.  A sequence of
    ``r`` gives an array of that shape from one restricted ladder; an empty
    one gives an empty array.  Only the leading arrivals that hold rank
    ``max(r) + 1`` are read: the scanned prefix doubles from ``2 (max(r) + 1)``
    arrivals until enough of its marks are ``<= lam``.
    """
    ranks, rank_list = _ranks(r)
    _check_level(lam)
    if not rank_list:
        return np.empty(ranks.shape)
    count, total = max(rank_list) + 1, arr.arrivals.size
    width = min(total, 2 * count)
    while True:
        kept = arr.arrivals[:width][arr.marks[:width] <= lam]
        if kept.size >= count or width == total:
            break
        width = min(total, 2 * width)
    _check_depth(kept.size, rank_list)
    log_jumps = np.negative(np.log(kept[:count]))
    out = np.array([math.exp(v) for v in log_jumps[ranks.ravel()]]).reshape(ranks.shape)
    return float(out) if out.ndim == 0 else out


def _ranks(r) -> tuple[np.ndarray, list[int]]:
    """``r`` as an integer array of trim counts (``intp`` if empty) and their flat list.

    A float raises ``TypeError`` and a negative count ``ValueError``, not an index error.
    """
    ranks = np.asarray(r)
    if ranks.size == 0:
        return ranks.astype(np.intp), []
    if ranks.dtype.kind not in "iu":
        raise TypeError(f"trim counts must be integers, got {r!r}")
    rank_list = ranks.ravel().tolist()
    if min(rank_list) < 0:
        raise ValueError(f"trim count must be >= 0, got {r!r}")
    return ranks, rank_list


def _check_depth(kept: int, ranks: list[int]) -> None:
    """Raise unless ``kept`` restricted jumps reach rank ``r + 1`` for every ``r``."""
    if kept <= max(ranks):
        raise ValueError(f"only {kept} restricted jumps, trim {ranks}: deepen the series")


#: Fixed validation grid: 12 queries spanning n = 1..4, mixed widths and
#: increasing levels.
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
