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

import bisect
import functools
import math
import operator
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
    "iter_arrivals",
    "ordered_jumps",
    "restrict_to",
    "trimmed_value",
    "z_statistic",
    "z_statistic_trimmed",
    "ratio_diagnostic",
    "log_sum_exp_rows",
    "log_sum_exp_sorted",
    "trimmed_log_sums",
    "trimmed_ratios",
    "trimmed_z_rows",
]

#: ``exp`` of every double below ``log(2**-1022) = -708.39...`` is below the
#: smallest normal double, ``2**-1022``.  numpy's vectorised ``exp`` takes
#: about 100 times as long per element on a subnormal result as on a normal one.
_EXP_NORMAL_FROM = math.log(2.0**-1022)

#: The longest node of numpy's pairwise sum that :func:`log_sum_exp_sorted`
#: exponentiates and reduces at once; its scratch holds this many doubles.
_SUM_NODE = 2**16

#: numpy's pairwise sum adds a run of at most this many doubles in one
#: unrolled loop (its ``PW_BLOCKSIZE``), and splits only longer runs.
_PAIRWISE_BLOCK = 128


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

    Construction checks both arrays (NaN fails every test) and makes them
    read-only; the arrays are taken as they are, not copied.
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
        # Counting the mask's increases skips .all()'s reduction, which costs
        # more on the short rows the edges draw: 1.0 against 1.9 us at 128
        # arrivals and 1.5 against 3.5 us at 1000, but 109 against 35 us at
        # 1e6 (2-vCPU VM, numpy 2.4).  NaN fails both.
        if not (arr[0] > 0.0 and np.count_nonzero(arr[1:] > arr[:-1]) == arr.size - 1):
            raise ValueError("arrivals must be strictly increasing and positive")
        if not (mk.min() > 0.0 and mk.max() <= 1.0):
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
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if lj.shape != mk.shape or lj.ndim != 1:
            raise ValueError("log_jumps and marks must be aligned 1-d arrays")
        if lj.size:
            # Every comparison with NaN is false, so one pass rejects NaN and
            # any increase alike; below a head ``< inf`` no jump is infinite,
            # and the head test also catches a lone NaN.  Only a failure
            # tells the three apart.  A zero jump (log ``-inf``) is admitted.
            if not ((lj[1:] <= lj[:-1]).all() and lj[0] < math.inf):
                if np.isnan(lj).any():
                    raise ValueError("log_jumps must not contain NaN")
                if (lj == math.inf).any():
                    raise ValueError("log_jumps must not contain +inf (an infinite jump)")
                raise ValueError("log_jumps must be nonincreasing")
            if not self.floor_log_jump <= lj[-1]:
                raise ValueError("compensation floor must not exceed the smallest jump")
        lj.flags.writeable = False
        mk.flags.writeable = False

    def __len__(self):
        return self.log_jumps.size


class TrimmedValue(NamedTuple):
    """A trimmed-sum value with its always-finite log companion.

    ``value`` is ``exp(log_value)`` and may underflow to 0.0 in extreme
    regimes; ``log_value`` is then still exact (log-sum-exp accumulation).
    """

    value: float
    log_value: float


#: SeedSequence's hash constants and pool size (numpy ``bit_generator``).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_MAX_SEED = 2**64 - 1


def derive_seed(master_seed: int, *indices: int | np.ndarray) -> int | list[int]:
    """Derive a 64-bit stream seed from a master seed and index path.

    Counter-based: any (master, indices) pair maps to a fixed seed
    independent of call order or worker layout, so parallel and serial
    runs agree bit-for-bit.  The seed is the first uint64 word of
    ``np.random.SeedSequence(master_seed, spawn_key=indices)``, and a call
    with integer indices goes through SeedSequence itself.

    Block form: when the last index is a 1-d integer array, the result is a
    list of Python ints, one per element, each equal to the call with that
    element as the last index.  numpy's SeedSequence mixes the pool of the
    master and the leading indices once; only the last word's hash and the
    output words run per element, as uint32 array arithmetic (a test pins
    this against SeedSequence bit for bit).  An element of 2**32 or more
    spans two words and takes the scalar route; a negative one raises
    ``ValueError`` as SeedSequence does, and an empty block gives ``[]``.

    The master and every scalar index must be integers (Python or numpy):
    a float raises ``TypeError`` rather than being truncated onto another
    stream.
    """
    if indices and isinstance(indices[-1], np.ndarray):
        return _derive_seed_block(master_seed, indices[:-1], indices[-1])
    ss = np.random.SeedSequence(
        operator.index(master_seed), spawn_key=tuple(operator.index(i) for i in indices)
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _word_count(n: int) -> int:
    """The number of uint32 words SeedSequence makes of a nonnegative int."""
    return max(1, -(-n.bit_length() // 32))


def _hash_consts(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """The constants of SeedSequence's hashes ``first`` to ``first + count - 1``.

    A ``(count + 1, 1)`` uint32 column: hash ``k`` xors with the ``k``-th
    constant ``init * mult**k`` and multiplies by the next one.
    """
    steps = range(first, first + count + 1)
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in steps], np.uint32)[:, None]


#: The 16 hashes that fill and cross-mix the pool of an entropy of at most
#: four words, and the 8 that output ``generate_state(4, np.uint64)``.
_FILL_CONSTS = _hash_consts(_INIT_A, _MULT_A, 0, 16)
_OUTPUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0, 8)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of each row of a uint32 matrix, with successive constants.

    Row ``k`` of ``values`` (rows broadcast) takes the ``k``-th hash of
    ``consts``, a column from :func:`_hash_consts`; uint32 arithmetic wraps
    as numpy's C code does.
    """
    out = values ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of uint32 arrays."""
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    out ^= out >> 16
    return out


def _generate_state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence's ``generate_state(n_words, np.uint64)`` of each column of a ``(4, n)`` pool.

    An ``(n, n_words)`` C-ordered uint64 array, ``n_words <= 4``; each word
    is two output words, low first, hashed from the pool words in turn.
    """
    sources = pool[np.arange(2 * n_words) % _POOL_SIZE]
    halves = _hashmix(sources, _OUTPUT_CONSTS[: 2 * n_words + 1]).astype(np.uint64)
    return np.ascontiguousarray((halves[0::2] | halves[1::2] << np.uint64(32)).T)


def _derive_seed_block(master_seed: int, prefix: tuple, last: np.ndarray) -> list[int]:
    if last.ndim != 1 or last.dtype.kind not in "iu":
        raise TypeError("a block index must be a 1-d integer array")
    if last.size and last.min() < 0:
        raise ValueError("expected non-negative integer")
    master, prefix = operator.index(master_seed), tuple(operator.index(i) for i in prefix)
    # numpy's pool for the master and the leading indices, entropy padded to
    # the pool size.  The block's word comes after it and is mixed into each
    # pool word in turn, like every word past the fourth; numpy's hash
    # constant has advanced once per hash so far: 16 to fill and cross-mix
    # the pool, 4 per word past the fourth.
    pool = np.random.SeedSequence(master, spawn_key=prefix).pool[:, None]
    words = max(_POOL_SIZE, _word_count(master)) + sum(map(_word_count, prefix))
    consts = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * (words - _POOL_SIZE), _POOL_SIZE)
    pool = _mix(pool, _hashmix(last.astype(np.uint32), consts))
    seeds = _generate_state(pool, 1)[:, 0].tolist()
    for k in np.flatnonzero(last > _MASK32).tolist():
        seeds[k] = derive_seed(master_seed, *prefix, int(last[k]))
    return seeds


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each seed, as an ``(n, 4)`` array.

    ``seeds`` is a 1-d uint64 array.  A seed's entropy is its words
    ``[lo, hi]``, padded to the pool size with zero words, as numpy pads
    the pool (so a seed below ``2**32``, one word long, hashes its missing
    ``hi`` as 0).  The pool is filled and cross-mixed and the output words
    are hashed, each step on the whole block at once; in the cross-mix, the
    hashes of one source word into the three others are one step.  A test
    pins the result against SeedSequence bit for bit.  The rows are
    C-contiguous, so that each is the four words PCG64 reads.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = np.zeros((_POOL_SIZE, seeds.size), dtype=np.uint32)
    entropy[0] = seeds.astype(np.uint32)
    entropy[1] = seeds >> np.uint64(32)
    pool = _hashmix(entropy, _FILL_CONSTS[: _POOL_SIZE + 1])
    first = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [k for k in range(_POOL_SIZE) if k != src]
        hashed = _hashmix(pool[src], _FILL_CONSTS[first : first + _POOL_SIZE])
        pool[dst] = _mix(pool[dst], hashed)
        first += _POOL_SIZE - 1
    return _generate_state(pool, 4)


@functools.cache
def _seed_words_type() -> type:
    """A seed sequence type that hands PCG64 four state words hashed beforehand.

    PCG64 reads the four words from the array's buffer, so they are held
    as a C-contiguous uint64 array of shape ``(4,)``.  The type is built on
    first use, so that importing the package does not import numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = np.ascontiguousarray(words, dtype=np.uint64)
            if self.words.shape != (4,):
                raise ValueError(f"seed_words must be 4 uint64 words, got shape {self.words.shape}")

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def sample_arrivals(seed: int, n_terms: int, *, seed_words=None) -> ArrivalSeries:
    """Sample ``n_terms`` Poisson arrival times plus uniform marks.

    Deterministic given ``seed``: the generator is PCG64 seeded through
    ``SeedSequence(seed)`` (what ``np.random.default_rng(seed)`` builds).
    Draw order is fixed (``n_terms`` standard exponential gaps first, then
    ``n_terms`` marks as ``1 - random()``) so the stream layout is part of
    the contract.  ``Gamma_k`` has a Gamma(k, 1) law; marks are independent
    of arrivals and lie in ``(0, 1]``.  The cumulative sum and the marks are
    formed in place on the drawn arrays.  ``seed`` and ``n_terms`` must be
    integers (Python or numpy); a float raises ``TypeError``.

    ``seed_words``, when given, is the seed's row of :func:`_seed_words`
    (the four uint64 words ``SeedSequence(seed).generate_state(4,
    np.uint64)``), already hashed, so that PCG64 is seeded from them by
    numpy's own C code without running SeedSequence; they are not checked
    against ``seed``.  :func:`iter_arrivals` passes them.  The keyword is
    interim: it goes when a block draw of the whole stream matrix replaces
    the per-row calls (ROADMAP item 9).
    """
    n = operator.index(n_terms)
    seed = operator.index(seed)
    if n < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    bits = np.random.PCG64(seed if seed_words is None else _seed_words_type()(seed_words))
    rng = np.random.Generator(bits)
    arrivals = rng.standard_exponential(n)
    np.add.accumulate(arrivals, out=arrivals)  # np.cumsum's loop, without its wrapper
    marks = rng.random(n)
    np.subtract(1.0, marks, out=marks)
    return ArrivalSeries(arrivals=arrivals, marks=marks, seed=seed)


def iter_arrivals(seeds, n_terms: int):
    """Yield ``sample_arrivals(seed, n_terms)`` for each of ``seeds`` in turn, with its bits.

    The PCG64 words of every seed in ``[0, 2**64)`` are hashed once, as a
    block, by :func:`_seed_words`, and each row passes its words to
    :func:`sample_arrivals`, which is called once per row.  The block hash
    costs about as much as numpy's SeedSequence for a handful of rows, so a
    single series is drawn by :func:`sample_arrivals` itself.  A seed of
    ``2**64`` or more is seeded by numpy's SeedSequence, and a negative one
    raises ``sample_arrivals``'s ``ValueError`` when its row is reached; a
    float raises ``TypeError`` before the first row.
    """
    seeds = list(map(operator.index, seeds))
    block = iter(_seed_words(np.array([s for s in seeds if 0 <= s <= _MAX_SEED], np.uint64)))
    for seed in seeds:
        words = next(block) if 0 <= seed <= _MAX_SEED else None
        # Through the module global, so that a rebinding of it sees one call per row.
        yield sample_arrivals(seed, n_terms, seed_words=words)


def ordered_jumps(tail: TailFunction, t: float, arr: ArrivalSeries) -> JumpLadder:
    """Realise the ranked-jump ladder of the subordinator on ``[0, t]``.

    ``log J_i = log inverse_tail(Gamma_i / t)`` is formed entirely in log
    domain; for the unit log-power family this is ``-Gamma_i / t`` exactly,
    whatever the magnitude.  ``t`` must be positive and finite; where
    ``Gamma_i / t`` overflows (a subnormal ``t``) the jump is zero, with log
    ``-inf``.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {t}")
    with np.errstate(over="ignore"):  # Gamma / t = inf is a zero jump
        rates = arr.arrivals / t
    log_jumps = np.asarray(tail_inverse_log(tail, rates), dtype=float)
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
    ``ladder.horizon * lam`` and may be empty.  Ordering and the
    compensation floor are preserved.
    """
    _check_level(lam)
    keep = ladder.marks <= lam
    return JumpLadder(
        horizon=ladder.horizon * lam,
        log_jumps=ladder.log_jumps[keep],
        marks=ladder.marks[keep],
        tail=ladder.tail,
        floor_log_jump=ladder.floor_log_jump,
    )


def _check_level(lam: float) -> None:
    """Reject a restriction level outside ``(0, 1]`` (NaN included)."""
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"restriction level must lie in (0, 1], got {lam}")


def _log_compensation(tail: TailFunction, horizon: float, floor_log_jumps, on: bool):
    """Per row, ``log(horizon * small_jump_mean)`` below the floor if ``on``, else ``-inf``."""
    if not on:
        return np.full(len(floor_log_jumps), -np.inf)
    return math.log(horizon) + log_small_jump_mean(tail, np.asarray(floor_log_jumps, dtype=float))


def log_sum_exp_rows(terms: np.ndarray, log_comp) -> np.ndarray:
    """Row-wise ``log(sum(exp(terms)) + exp(log_comp))`` of a ``(rows, n >= 1)`` matrix.

    The log-sum-exp of rows in any order (:func:`log_sum_exp_sorted` gives
    its bits on a sorted row): max-shifted, with numpy's pairwise sum, so its
    rounding error is ``O(eps log n)`` and it stays exact in the exponent
    when every term underflows; ``-inf`` terms are zeros.  The shifted
    terms are exponentiated by :func:`_exp_live_prefix`, which zeroes the
    trailing columns whose exponentials are all below ``2**-1022``.  The
    shifted total is at least 1, so the zeroing can change the result only
    if a partial sum lies within ``n * 2**-1022`` of a rounding midpoint.
    It works in place: ``terms``, a float matrix, is overwritten.
    """
    m = np.maximum(terms.max(axis=1), log_comp)
    m[m == -np.inf] = 0.0  # a row of zero terms sums to log 0 = -inf, not NaN
    shifted = np.subtract(terms, m[:, None], out=terms)
    with np.errstate(under="ignore", divide="ignore"):
        total = _exp_live_prefix(shifted).sum(axis=1) + np.exp(log_comp - m)
        return m + np.log(total)


def _exp_live_prefix(shifted: np.ndarray) -> np.ndarray:
    """``exp`` of a ``(rows, n)`` matrix in place, its dead column suffix set to 0.

    A column is dead when each of its terms is ``< _EXP_NORMAL_FROM``, so
    that its exponentials are subnormal or zero; the trailing run of dead
    columns is zeroed instead of exponentiated.  A NaN term keeps its
    column live.  Returns ``shifted``.  Underflow in the live prefix is
    the caller's to silence, so that a one-row call enters ``np.errstate``
    once.
    """
    width = shifted.shape[1]
    if shifted.size and shifted[:, -1].max() < _EXP_NORMAL_FROM:
        dead = (shifted < _EXP_NORMAL_FROM).all(axis=0)
        width = 0 if dead.all() else width - int(np.argmin(dead[::-1]))
    return _exp_prefix(shifted, width)


def _exp_prefix(shifted: np.ndarray, width: int) -> np.ndarray:
    """``exp`` of the first ``width`` columns of ``shifted`` in place, the rest set to 0."""
    shifted[:, width:] = 0.0
    np.exp(shifted[:, :width], out=shifted[:, :width])
    return shifted


def log_sum_exp_sorted(ladder: np.ndarray, alpha: float, scratch: np.ndarray):
    """``log(sum(exp(ladder / alpha)))`` of a nonempty nonincreasing 1-d ``ladder``, ``alpha > 0``.

    The bits of ``log_sum_exp_rows(ladder[None] / alpha, -inf)[0]``, without
    its passes over the whole row.  As the ladder is sorted, its first term
    is the row maximum, and the live columns (shifted terms at or above
    ``_EXP_NORMAL_FROM``) form a prefix, whose width is found by bisection
    with the same scalar operations.  The row is summed node by node along
    numpy's pairwise split (:func:`_sum_exp_node`), so that the grouping is
    the full row's.  A right half whose sum is below half an ulp of its
    left half's cannot change a bit of the node's sum, and is skipped
    unread.  As the row is sorted, its length times its first term bounds
    that sum, and the left half's first term bounds the left sum from below.
    On a Poisson ladder ``-log Gamma_i`` at ``alpha <= 0.1`` a few hundred
    terms are read; at 0.2 the skip needs a right half past about
    ``16000 Gamma_1**1.25`` terms (``Gamma_1`` the head's arrival), and at
    0.4 none is skipped within 1e6 terms.  A node of at most ``_SUM_NODE``
    terms that is not skipped has only its live prefix divided, shifted and
    exponentiated, its dead suffix zeroed, and is reduced at once; a longer
    node adds the sums of its halves.  ``scratch`` is a float array of at
    least ``min(len(ladder), _SUM_NODE)`` elements; it is overwritten.
    """
    n, term = ladder.size, ladder.item
    m = term(0) / alpha
    if m == -math.inf:
        m = 0.0  # a row of zero terms sums to log 0 = -inf, not NaN
    width = n
    if term(n - 1) / alpha - m < _EXP_NORMAL_FROM:
        width = bisect.bisect_left(
            range(n - 1), True, key=lambda j: term(j) / alpha - m < _EXP_NORMAL_FROM
        )
    with np.errstate(under="ignore", divide="ignore"):
        return m + np.log(_sum_exp_node(ladder, alpha, m, width, scratch))[0]


def _sum_exp_node(node: np.ndarray, alpha: float, m: float, width: int, scratch: np.ndarray):
    """numpy's pairwise sum of ``exp(node / alpha - m)``, its terms past ``width`` taken as 0.

    Returns a one-element array.  A node longer than ``_PAIRWISE_BLOCK``
    (below which numpy does not split) splits where numpy's pairwise sum
    splits it, at half its length rounded down to a multiple of 8, into
    halves of sums ``L`` and ``R``, and numpy returns the rounded ``L + R``.
    That is ``L`` when ``R < ulp(L) / 2``, and then the node is summed as its
    left half alone.  The bound, with ``x = v / alpha - m`` formed as numpy
    forms it and ``k`` the right half's length:

    * IEEE division and subtraction are monotone, so no term's ``x`` is
      above its half's first; a rounded pairwise sum of ``k`` nonnegative
      terms is below ``2 k`` times the largest, and numpy's SIMD ``exp`` is
      within a factor 2 of ``math.exp``: ``R < 4 k math.exp(x_right)``;
    * a rounded sum of nonnegative terms is at least its largest term, so
      ``L`` is above ``math.exp(x_left) / 2`` and ``ulp(L)`` at least half
      of ``ulp(math.exp(x_left))``.

    So ``16 k math.exp(x_right) < ulp(math.exp(x_left))`` drops the right
    half, as does a right half wholly past ``width``, which adds zeros.
    Otherwise a node longer than ``_SUM_NODE`` adds the sums of its halves,
    and a shorter one is reduced in ``scratch`` at once, as numpy reduces it
    inside the longer row: only its live prefix is exponentiated, and no
    shorter node of it is tested.  Module-level, not a closure, so that no
    reference cycle keeps a caller's ladder alive.
    """
    n = node.size
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - n // 2 % 8
        term = node.item
        right_bound = 16 * (n - half) * math.exp(term(half) / alpha - m)
        if width <= half or right_bound < math.ulp(math.exp(term(0) / alpha - m)):
            return _sum_exp_node(node[:half], alpha, m, width, scratch)
        if n > _SUM_NODE:
            left = _sum_exp_node(node[:half], alpha, m, width, scratch)
            return left + _sum_exp_node(node[half:], alpha, m, width - half, scratch)
    width = min(width, n)
    row = scratch[None, :n]
    live = np.divide(node[None, :width], alpha, out=row[:, :width])
    np.subtract(live, m, out=live)
    return _exp_prefix(row, width).sum(axis=1)


def trimmed_log_sums(log_j: np.ndarray, keep: np.ndarray, r: int, log_comp) -> np.ndarray:
    """Row-wise log of the trimmed sum: the kept jumps beyond the ``r`` largest.

    ``log_j`` is a ``(rows, terms)`` matrix of ranked log-jumps, ``keep`` a
    mask of the same shape (the jumps a restriction retains), and
    ``log_comp`` a per-row log term added to each sum (``-inf`` for none).
    The sum is :func:`log_sum_exp_rows` over the used jumps, the others
    masked to ``-inf``.  Raises when a row keeps no more than ``r`` jumps.
    """
    r = _trim_count(r)
    width = _kept_prefix(keep, r + 1)
    terms = np.where(keep, log_j, -np.inf)
    if r > 0:
        # Past the prefix every kept jump ranks beyond r in its row.
        rank = np.cumsum(keep[:, :width], axis=1)
        np.copyto(terms[:, :width], -np.inf, where=rank <= r)
    return log_sum_exp_rows(terms, log_comp)


def _trim_count(r, least: int = 0, name: str = "trim count") -> int:
    """``r`` as a Python int ``>= least``; a float raises ``TypeError``, not a slice error."""
    try:
        r = operator.index(r)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {r!r}") from None
    if r < least:
        raise ValueError(f"{name} must be >= {least}, got {r}")
    return r


def _kept_prefix(keep: np.ndarray, count: int) -> int:
    """Width of a column prefix in which every row of ``keep`` holds ``count`` kept jumps.

    The prefix doubles from ``2 * count`` columns until it holds them, so
    its cost follows the sparsest row, not the matrix width.  Raises when
    even the whole matrix does not.
    """
    total = keep.shape[1]
    width = min(total, 2 * count)
    while True:
        if total and (np.count_nonzero(keep[:, :width], axis=1) >= count).all():
            return width
        if width == total:
            raise ValueError(f"a row keeps no more than {count - 1} jumps: deepen the series")
        width = min(total, 2 * width)


def trimmed_ratios(log_j: np.ndarray, r: int) -> np.ndarray:
    """Row-wise ``(sum of jumps beyond r) / J_(r+1)`` of a ``(rows, terms)`` log matrix.

    Formed from log-jump differences only, so it is exact even when every
    jump underflows.  The differences are exponentiated by
    :func:`_exp_live_prefix`; as in :func:`log_sum_exp_rows`, the total is
    at least 1, so the zeroed terms below ``2**-1022`` can move it only
    where a partial sum lies within ``n * 2**-1022`` of a rounding midpoint.
    Raises when a row holds fewer than ``r + 2`` jumps.
    """
    r = _trim_count(r)
    if log_j.shape[1] < r + 2:
        raise ValueError(f"need at least {r + 2} jumps for the ratio, have {log_j.shape[1]}")
    shifted = log_j[:, r + 1 :] - log_j[:, r : r + 1]
    with np.errstate(under="ignore"):
        return 1.0 + _exp_live_prefix(shifted).sum(axis=1)


def trimmed_z_rows(
    tail: TailFunction, t: float, log_j, marks, lam: float, r: int, floor_log_jumps
) -> np.ndarray:
    """Row-wise :func:`z_statistic_trimmed` over a ``(rows, terms)`` ladder matrix.

    Each row is a ladder over horizon ``t`` with its marks and the log of
    its resolution floor.  The trimmed sum keeps the jumps with marks
    ``<= lam`` and is compensated over ``t * lam``.
    """
    comp = _log_compensation(tail, t * lam, floor_log_jumps, True)
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
        the generating series' resolution floor.

    Returns
    -------
    TrimmedValue
        The log of the sum, and its exponential.  The log has the bits of
        :func:`trimmed_log_sums` on the one-row ladder with every jump kept:
        it is :func:`log_sum_exp_rows` of the row with its ``r`` largest set
        to ``-inf``, which is the matrix that call reduces.
    """
    r = _trim_count(r)
    if len(ladder) <= r:
        raise ValueError(f"a row keeps no more than {r} jumps: deepen the series")
    comp = _log_compensation(ladder.tail, ladder.horizon, [ladder.floor_log_jump], compensate)
    terms = ladder.log_jumps[None, :].copy()
    terms[:, :r] = -np.inf
    log_value = float(log_sum_exp_rows(terms, comp)[0])
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
    r = _trim_count(r, 1, "rank")
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
    _check_level(lam)
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

