"""Poisson arrival series, ordered jump ladders, and trimming statistics.

A driftless subordinator over a horizon ``t`` is realised through its
ordered jumps: with ``Gamma_1 < Gamma_2 < ...`` the arrival times of a
unit-rate Poisson process, the decreasing sequence

    J_i = inverse_tail(Gamma_i / t)

has the law of the ranked jumps of the process on ``[0, t]``.  Each jump
also carries an independent uniform mark in ``(0, 1]``, the fraction of
the horizon at which it occurs, so restricting to marks ``<= lam`` yields
the ranked jumps over ``[0, t*lam]`` without storing a path.

Everything downstream lives in log domain: for a zero-index tail at small
``t`` the jumps themselves (``exp(-Gamma_i/t)`` for the unit log-power
family) underflow double precision long before the regime of interest, so
ladders store ``log J_i`` and the trimming statistics never exponentiate
unless values are representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .levy import (
    TailFunction,
    log_small_jump_mean,
    tail_eval_from_log,
    tail_inverse_log,
)

__all__ = [
    "ArrivalSeries",
    "JumpLadder",
    "TrimmedValue",
    "derive_seed",
    "sample_arrivals",
    "ordered_jumps",
    "restrict_to",
    "trimmed_value",
    "z_statistic",
    "z_statistic_trimmed",
    "ratio_diagnostic",
    "trimmed_log_sums",
    "trimmed_ratios",
    "trimmed_z_rows",
]


@dataclass(frozen=True)
class ArrivalSeries:
    """Unit-rate Poisson arrival times with uniform jump-time marks.

    Attributes
    ----------
    arrivals : ndarray
        Strictly increasing positive reals ``Gamma_1 < ... < Gamma_N``.
    marks : ndarray
        Independent uniforms in ``(0, 1]``, one per arrival.
    seed : int
        The 64-bit seed that generated the series.
    """

    arrivals: np.ndarray
    marks: np.ndarray
    seed: int

    def __post_init__(self):
        arr, mk = self.arrivals, self.marks
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("arrival series needs at least one arrival")
        if mk.shape != arr.shape:
            raise ValueError("marks and arrivals must align")
        if not (arr[0] > 0.0 and np.all(np.diff(arr) > 0.0)):
            raise ValueError("arrivals must be strictly increasing and positive")
        if np.any(mk <= 0.0) or np.any(mk > 1.0):
            raise ValueError("marks must lie in (0, 1]")
        arr.flags.writeable = False
        mk.flags.writeable = False

    def __len__(self):
        return self.arrivals.size


@dataclass(frozen=True)
class JumpLadder:
    """Ranked jumps of a subordinator over ``[0, horizon]``, in log domain.

    ``floor_log_jump`` is the log of the smallest jump the generating
    series resolved; mean compensation for the unsimulated remainder
    integrates the Levy measure below that level.  Restriction preserves
    it (the restricted series still knows nothing below the parent's
    resolution floor).
    """

    horizon: float
    log_jumps: np.ndarray
    marks: np.ndarray
    tail: TailFunction
    floor_log_jump: float

    def __post_init__(self):
        lj, mk = self.log_jumps, self.marks
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if lj.shape != mk.shape or lj.ndim != 1:
            raise ValueError("log_jumps and marks must be aligned 1-d arrays")
        if lj.size:
            if np.any(np.isnan(lj)):
                raise ValueError("log_jumps must not contain NaN")
            if np.any(np.diff(lj) > 0.0):
                raise ValueError("log_jumps must be nonincreasing")
            if not self.floor_log_jump <= lj[-1]:
                raise ValueError("compensation floor must not exceed the smallest jump")
        lj.flags.writeable = False
        mk.flags.writeable = False

    def __len__(self):
        return self.log_jumps.size

    @property
    def is_empty(self) -> bool:
        """True when a restriction removed every simulated jump."""
        return self.log_jumps.size == 0


class TrimmedValue(NamedTuple):
    """A trimmed-sum value with its always-finite log companion.

    ``value`` is ``exp(log_value)`` and may underflow to 0.0 in extreme
    regimes; ``log_value`` is then still exact (log-sum-exp accumulation).
    """

    value: float
    log_value: float


def derive_seed(master_seed: int, *indices: int) -> int:
    """Derive a 64-bit stream seed from a master seed and index path.

    Counter-based: any (master, indices) pair maps to a fixed seed
    independent of call order or worker layout, so parallel and serial
    runs agree bit-for-bit.
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(i) for i in indices))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sample_arrivals(seed: int, n_terms: int) -> ArrivalSeries:
    """Sample ``n_terms`` Poisson arrival times plus uniform marks.

    Deterministic given ``seed``.  Draw order is fixed (exponential gaps
    first, then marks) so the stream layout is part of the contract.
    ``Gamma_k`` has a Gamma(k, 1) law; marks are independent of arrivals
    and lie in ``(0, 1]``.
    """
    n = int(n_terms)
    if n < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    arrivals = np.cumsum(rng.exponential(1.0, n))
    marks = 1.0 - rng.random(n)
    return ArrivalSeries(arrivals=arrivals, marks=marks, seed=int(seed))


def ordered_jumps(tail: TailFunction, t: float, arr: ArrivalSeries) -> JumpLadder:
    """Realise the ranked-jump ladder of the subordinator on ``[0, t]``.

    ``log J_i = log inverse_tail(Gamma_i / t)`` is formed entirely in log
    domain; for the unit log-power family this is ``-Gamma_i / t`` exactly,
    whatever the magnitude.  The index-1 reciprocal tail is admitted (its
    finitely many simulated jumps are well-defined); only compensation
    requires a summable tail.
    """
    if not t > 0.0 or math.isnan(t):
        raise ValueError(f"horizon must be positive, got {t}")
    log_jumps = np.asarray(tail_inverse_log(tail, arr.arrivals / t), dtype=float)
    return JumpLadder(
        horizon=float(t),
        log_jumps=log_jumps,
        marks=arr.marks,
        tail=tail,
        floor_log_jump=float(log_jumps[-1]),
    )


def restrict_to(ladder: JumpLadder, lam: float) -> JumpLadder:
    """Keep the jumps falling in the first ``lam`` fraction of the horizon.

    Filters by marks; the result is distributed as a ladder with horizon
    ``ladder.horizon * lam`` and may be empty (``is_empty``).  Ordering and
    the compensation floor are preserved.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"restriction level must lie in (0, 1], got {lam}")
    keep = ladder.marks <= lam
    return JumpLadder(
        horizon=ladder.horizon * lam,
        log_jumps=ladder.log_jumps[keep],
        marks=ladder.marks[keep],
        tail=ladder.tail,
        floor_log_jump=ladder.floor_log_jump,
    )


def _log_compensation(tail: TailFunction, horizon: float, floor_log_jumps) -> np.ndarray:
    """Per row, the log mean mass below the floor: ``log(horizon * small_jump_mean)``."""
    log_h = math.log(horizon)
    return np.array([log_h + log_small_jump_mean(tail, float(v)) for v in floor_log_jumps])


def trimmed_log_sums(log_j: np.ndarray, keep: np.ndarray, r: int, log_comp) -> np.ndarray:
    """Row-wise log of the trimmed sum: the kept jumps beyond the ``r`` largest.

    ``log_j`` is a ``(rows, terms)`` matrix of ranked log-jumps, ``keep`` a
    mask of the same shape (the jumps a restriction retains), and
    ``log_comp`` a per-row log term added to each sum (``-inf`` for none).
    The sum is a max-shifted log-sum-exp with numpy's pairwise summation,
    so its rounding error is ``O(eps log terms)`` and it stays exact in the
    exponent when every jump underflows.  Raises when a row keeps no more
    than ``r`` jumps.
    """
    if r < 0:
        raise ValueError(f"trim count must be >= 0, got {r}")
    rank = np.cumsum(keep, axis=1)
    if rank.shape[1] == 0 or np.any(rank[:, -1] < r + 1):
        raise ValueError(f"a row keeps no more than {r} jumps: deepen the series")
    use = keep & (rank > r)
    terms = np.where(use, log_j, -np.inf)
    m = np.maximum(np.max(terms, axis=1), log_comp)
    m[m == -np.inf] = 0.0  # a row of zero jumps sums to log 0 = -inf, not NaN
    with np.errstate(under="ignore", divide="ignore"):
        total = np.sum(np.exp(terms - m[:, None]), axis=1) + np.exp(log_comp - m)
        return m + np.log(total)


def trimmed_ratios(log_j: np.ndarray, r: int) -> np.ndarray:
    """Row-wise ``(sum of jumps beyond r) / J_(r+1)`` of a ``(rows, terms)`` log matrix.

    Formed from log-jump differences only, so it is exact even when every
    jump underflows.  Raises when a row holds fewer than ``r + 2`` jumps.
    """
    if r < 0:
        raise ValueError(f"trim count must be >= 0, got {r}")
    if log_j.shape[1] < r + 2:
        raise ValueError(f"need at least {r + 2} jumps for the ratio, have {log_j.shape[1]}")
    pivot = log_j[:, r : r + 1]
    with np.errstate(under="ignore"):
        return 1.0 + np.sum(np.exp(log_j[:, r + 1 :] - pivot), axis=1)


def trimmed_z_rows(
    tail: TailFunction, t: float, log_j, marks, lam: float, r: int, floor_log_jumps
) -> np.ndarray:
    """Row-wise :func:`z_statistic_trimmed` over a ``(rows, terms)`` ladder matrix.

    Each row is a ladder over horizon ``t`` with its marks and the log of
    its resolution floor.  The trimmed sum keeps the jumps with marks
    ``<= lam`` and is compensated over ``t * lam`` when the tail is
    summable.
    """
    if tail.is_summable:
        comp = _log_compensation(tail, t * lam, floor_log_jumps)
    else:
        comp = np.full(len(log_j), -np.inf)
    log_x = trimmed_log_sums(log_j, marks <= lam, r, comp)
    rate = np.asarray(tail_eval_from_log(tail, log_x))
    with np.errstate(divide="ignore"):
        return 1.0 / (t * rate)


def trimmed_value(ladder: JumpLadder, r: int, compensate: bool = False) -> TrimmedValue:
    """Sum the ladder with its ``r`` largest jumps removed.

    Parameters
    ----------
    ladder : JumpLadder
        Must hold more than ``r`` jumps.
    r : int
        Number of top jumps to trim, ``r >= 0``.
    compensate : bool
        Add the conditional mean of the unsimulated remainder,
        ``horizon * small_jump_mean(tail, J_floor)``, where ``J_floor`` is
        the generating series' resolution floor.  Requires a summable
        tail (index < 1).

    Returns
    -------
    TrimmedValue
        The log of the sum from :func:`trimmed_log_sums` on the one-row
        ladder, and its exponential.
    """
    if compensate:
        comp = _log_compensation(ladder.tail, ladder.horizon, [ladder.floor_log_jump])
    else:
        comp = np.full(1, -np.inf)
    log_j = ladder.log_jumps[None, :]
    log_value = float(trimmed_log_sums(log_j, np.ones(log_j.shape, dtype=bool), r, comp)[0])
    with np.errstate(over="ignore", under="ignore"):
        return TrimmedValue(value=float(np.exp(log_value)), log_value=log_value)


def z_statistic(ladder: JumpLadder, lam: float, r: int) -> float:
    """Reciprocal normalised rank-``r`` jump statistic, ``1/(t * tail(J))``.

    ``J`` is the ``r``-th largest jump among those landing in the first
    ``lam`` fraction of the horizon; ``t`` is the ladder's full horizon.
    Evaluated from the log-jump directly, so the zero-index deep-small-time
    regime never exponentiates (unit log-power: the statistic is exactly
    the reciprocal ``r``-th retained arrival).
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    restricted = restrict_to(ladder, lam)
    if len(restricted) < r:
        raise ValueError(
            f"only {len(restricted)} jumps inside restriction {lam}: deepen the series"
        )
    rate = float(tail_eval_from_log(ladder.tail, float(restricted.log_jumps[r - 1])))
    if rate == 0.0:
        return math.inf
    return 1.0 / (ladder.horizon * rate)


def z_statistic_trimmed(ladder: JumpLadder, lam: float, r: int) -> float:
    """Trimmed-sum variant: ``1/(t * tail(trimmed restricted sum))``.

    The jumps landing in the first ``lam`` fraction of the horizon are
    trimmed of their ``r`` largest and mean compensation is applied when
    the tail admits it; the tail function is then evaluated at the
    log-domain sum.  Pathwise it dominates ``z_statistic`` at rank
    ``r + 1`` (the trimmed sum exceeds the next jump, and the tail is
    nonincreasing).  A one-row call of :func:`trimmed_z_rows`.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"restriction level must lie in (0, 1], got {lam}")
    lj, mk = ladder.log_jumps[None, :], ladder.marks[None, :]
    z = trimmed_z_rows(ladder.tail, ladder.horizon, lj, mk, lam, r, [ladder.floor_log_jump])
    return float(z[0])


def ratio_diagnostic(ladder: JumpLadder, r: int) -> float:
    """Trimmed sum over its own largest term: ``(sum of jumps beyond r) / J_(r+1)``.

    Always ``>= 1``; drifts to 1 as the horizon shrinks, when a single
    jump dominates the trimmed remainder.  A one-row call of
    :func:`trimmed_ratios`.
    """
    return float(trimmed_ratios(ladder.log_jumps[None, :], r)[0])

