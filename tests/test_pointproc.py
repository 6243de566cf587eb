"""Tests for arrival sampling, jump ladders, and trimming statistics.

The ladder construction is pinned against the exact closed form of the
unit log-power family (``log J_i = -Gamma_i / t`` bitwise), trimming
sums against hand-built ladders, and the stream layout of the sampler
against a manual redraw — seeds are part of the data contract here, so
the draw order itself is under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subortrim import pointproc
from subortrim.experiments import ExperimentConfig
from subortrim.levy import (
    log_power_tail,
    rational_tail,
    small_jump_mean,
    stable_tail,
    tail_eval_from_log,
    tail_inverse_log,
)
from subortrim.pointproc import (
    ArrivalSeries,
    JumpLadder,
    derive_seed,
    iter_arrivals,
    log_sum_exp_rows,
    log_sum_exp_sorted,
    ordered_jumps,
    ratio_diagnostic,
    restrict_to,
    sample_arrivals,
    trimmed_log_sums,
    trimmed_ratios,
    trimmed_value,
    z_statistic,
    z_statistic_trimmed,
)


def _hand_series(arrivals, marks):
    return ArrivalSeries(
        arrivals=np.asarray(arrivals, dtype=float),
        marks=np.asarray(marks, dtype=float),
        seed=0,
    )


def _hand_ladder(log_jumps, marks=None, horizon=1.0, tail=stable_tail(0.5), floor=None):
    lj = np.asarray(log_jumps, dtype=float)
    mk = np.full(lj.shape, 0.5) if marks is None else np.asarray(marks, dtype=float)
    return JumpLadder(
        horizon=horizon,
        log_jumps=lj,
        marks=mk,
        tail=tail,
        floor_log_jump=float(lj[-1]) if floor is None else floor,
    )


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1, 2, 3) == derive_seed(42, 1, 2, 3)

    def test_index_paths_are_distinct(self):
        seeds = {
            derive_seed(42),
            derive_seed(42, 0),
            derive_seed(42, 1),
            derive_seed(42, 0, 0),
            derive_seed(42, 0, 1),
            derive_seed(42, 1, 0),
            derive_seed(43, 0),
        }
        assert len(seeds) == 7

    def test_uint64_range(self):
        s = derive_seed(2**63, 5)
        assert 0 <= s < 2**64

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]),
            st.integers(0, 2**160),
        ),
        st.lists(
            st.one_of(st.sampled_from([0, 2**32, 2**64 - 1]), st.integers(0, 2**64)),
            max_size=3,
        ),
        st.lists(
            st.one_of(
                st.sampled_from([0, 2**32 - 1, 2**32, 2**63 - 1]),
                st.integers(0, 2**33),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_block_matches_seed_sequence(self, master, prefix, block):
        # The block form re-implements SeedSequence's last-word hash; pin it
        # bit for bit against numpy on one- and two-word indices.
        got = derive_seed(master, *prefix, np.array(block, dtype=np.int64))
        want = [
            int(
                np.random.SeedSequence(master, spawn_key=tuple(prefix) + (i,))
                .generate_state(1, np.uint64)[0]
            )
            for i in block
        ]
        assert got == want
        assert all(type(s) is int for s in got)

    def test_block_edge_cases(self):
        assert derive_seed(42, 3, np.arange(0)) == []
        assert derive_seed(42, np.arange(5, 8, dtype=np.uint64)) == [
            derive_seed(42, i) for i in (5, 6, 7)
        ]
        with pytest.raises(ValueError):
            derive_seed(42, 3, np.array([1, -1]))
        with pytest.raises(ValueError):
            derive_seed(-1, 3, np.array([1]))

    @pytest.mark.parametrize(
        "args",
        [(42, 1.5), (42.9, 1), (42, 1.0), (42, 2, 1.5), (42, np.float64(1.0)),
         (42.0, np.arange(3)), (42, 1.5, np.arange(3)), (42, np.array([1.0, 2.0]))],
        ids=repr,
    )
    def test_non_integers_are_rejected(self, args):
        # int() would truncate a float onto another stream: derive_seed(42, 1.5)
        # used to equal derive_seed(42, 1).
        with pytest.raises(TypeError):
            derive_seed(*args)

    def test_numpy_integers_are_accepted(self):
        want = derive_seed(42, 7, 3)
        assert derive_seed(np.int64(42), np.uint32(7), np.int8(3)) == want
        assert derive_seed(np.uint64(42), np.int64(7), np.array([3])) == [want]


class TestSampleArrivals:
    def test_reproducible_bitwise(self):
        a = sample_arrivals(99, 50)
        b = sample_arrivals(99, 50)
        assert np.array_equal(a.arrivals, b.arrivals)
        assert np.array_equal(a.marks, b.marks)

    def test_shapes_and_ranges(self):
        arr = sample_arrivals(7, 200)
        assert len(arr) == 200
        assert arr.arrivals[0] > 0.0
        assert np.all(np.diff(arr.arrivals) > 0.0)
        assert np.all(arr.marks > 0.0) and np.all(arr.marks <= 1.0)
        assert arr.seed == 7

    def test_stream_layout_is_pinned(self):
        # Exponential gaps first, then marks as 1 - uniform: the layout is
        # part of the contract (parallel workers must agree bitwise).
        seed = 123456
        arr = sample_arrivals(seed, 64)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        gaps = rng.exponential(1.0, 64)
        marks = 1.0 - rng.random(64)
        assert np.array_equal(arr.arrivals, np.cumsum(gaps))
        assert np.array_equal(arr.marks, marks)

    def test_gamma_law_sanity(self):
        # Gamma_k has mean k; average over seeded replicates.
        k = 5
        vals = [sample_arrivals(derive_seed(11, i), k).arrivals[-1] for i in range(400)]
        assert np.mean(vals) == pytest.approx(k, abs=5.0 * math.sqrt(k / 400))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_arrivals(1, 0)

    @pytest.mark.parametrize("seed, n_terms", [(7.9, 5), (7.0, 5), (7, 5.0), (np.float64(7.0), 5)])
    def test_rejects_non_integers(self, seed, n_terms):
        # sample_arrivals(7.9, 5) used to draw the series of seed 7.
        with pytest.raises(TypeError):
            sample_arrivals(seed, n_terms)

    def test_numpy_integers_are_accepted(self):
        arr = sample_arrivals(np.uint64(7), np.int32(5))
        assert type(arr.seed) is int and arr.seed == 7
        assert np.array_equal(arr.arrivals, sample_arrivals(7, 5).arrivals)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            _hand_series([2.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            _hand_series([1.0, 2.0], [0.5, 0.0])
        with pytest.raises(ValueError):
            _hand_series([1.0, 2.0], [0.5])
        with pytest.raises(ValueError):
            _hand_series([1.0, 2.0, 3.0], [0.5, math.nan, 1.0])
        with pytest.raises(ValueError):
            _hand_series([1.0, math.nan, 3.0], [0.5, 0.5, 1.0])
        with pytest.raises(ValueError, match="increasing"):
            _hand_series([1.0, 2.0, 2.0], [0.5, 0.5, 1.0])  # tied arrivals
        with pytest.raises(ValueError, match="positive"):
            _hand_series([0.0, 2.0, 3.0], [0.5, 0.5, 1.0])
        with pytest.raises(ValueError, match="positive"):
            _hand_series([math.nan, 2.0, 3.0], [0.5, 0.5, 1.0])
        with pytest.raises(ValueError, match="marks"):
            _hand_series([1.0, 2.0, 3.0], [0.5, 1.0 + 2.0**-52, 1.0])
        _hand_series([1.0, 2.0, 3.0], [2.0**-53, 0.5, 1.0])  # the closed end (0, 1]

    def test_arrays_are_frozen(self):
        arr = sample_arrivals(3, 10)
        with pytest.raises(ValueError):
            arr.arrivals[0] = 0.5


_SEED_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1]


def _same_series(a, b):
    return (
        a.seed == b.seed
        and np.array_equal(a.arrivals, b.arrivals)
        and np.array_equal(a.marks, b.marks)
    )


class TestSeedWords:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from(_SEED_EDGES), st.integers(0, 2**64 - 1)), max_size=20
        )
    )
    def test_matches_seed_sequence(self, seeds):
        words = pointproc._seed_words(np.array(seeds, dtype=np.uint64))
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        assert words.flags.c_contiguous
        for seed, row in zip(seeds, words):
            np.testing.assert_array_equal(
                row, np.random.SeedSequence(seed).generate_state(4, np.uint64)
            )

    @pytest.mark.parametrize("seed", _SEED_EDGES)
    def test_sample_arrivals_from_words_has_the_seeds_bits(self, seed):
        words = pointproc._seed_words(np.array([seed], dtype=np.uint64))[0]
        assert _same_series(sample_arrivals(seed, 40, seed_words=words), sample_arrivals(seed, 40))

    def test_seed_words_must_be_four_words(self):
        with pytest.raises(ValueError, match="4 uint64 words"):
            sample_arrivals(5, 10, seed_words=np.zeros(3, dtype=np.uint64))
        # A strided view is copied: PCG64 reads the words from the buffer.
        words = np.asfortranarray(pointproc._seed_words(np.array([5, 6], dtype=np.uint64)))
        assert _same_series(sample_arrivals(5, 10, seed_words=words[0]), sample_arrivals(5, 10))


class TestIterArrivals:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(_SEED_EDGES + [2**64, 2**70 + 3]),
                st.integers(0, 2**64 - 1),
            ),
            max_size=24,
        ),
        st.integers(1, 40),
    )
    def test_rows_match_sample_arrivals(self, seeds, n_terms):
        rows = list(iter_arrivals(seeds, n_terms))
        assert len(rows) == len(seeds)
        assert all(_same_series(a, sample_arrivals(s, n_terms)) for a, s in zip(rows, seeds))

    def test_only_seeds_of_2_64_or_more_take_numpys_route(self, monkeypatch):
        # Each row is one call through the module's name, with the words of
        # its seed unless SeedSequence spans more than two words for it.
        calls = []
        original = pointproc.sample_arrivals

        def recording(seed, n_terms, *, seed_words=None):
            calls.append((seed, n_terms, seed_words is not None))
            return original(seed, n_terms, seed_words=seed_words)

        monkeypatch.setattr(pointproc, "sample_arrivals", recording)
        seeds = [3, 2**64, 2**64 - 1, 2**70 + 3, 0]
        list(iter_arrivals(seeds, 5))
        assert calls == [(s, 5, s < 2**64) for s in seeds]

    def test_negative_seed_raises_sample_arrivals_error(self):
        with pytest.raises(ValueError) as want:
            sample_arrivals(-1, 5)
        rows = iter_arrivals([0, 1, -1], 5)
        assert _same_series(next(rows), sample_arrivals(0, 5))
        assert _same_series(next(rows), sample_arrivals(1, 5))
        with pytest.raises(ValueError, match=str(want.value)):
            next(rows)

    def test_float_seed_raises_type_error(self):
        with pytest.raises(TypeError):
            next(iter_arrivals([0, 1, 7.0], 5))

    def test_empty_and_numpy_seeds(self):
        assert list(iter_arrivals([], 5)) == []
        seeds = np.arange(4, dtype=np.uint64)
        rows = list(iter_arrivals(seeds, 5))
        assert all(type(a.seed) is int for a in rows)
        assert all(_same_series(a, sample_arrivals(int(s), 5)) for a, s in zip(rows, seeds))


class TestOrderedJumps:
    def test_unit_log_power_is_exact(self):
        arr = sample_arrivals(21, 100)
        for t in (1.0, 1e-4, 1e-9):
            ladder = ordered_jumps(log_power_tail(), t, arr)
            assert np.array_equal(ladder.log_jumps, -arr.arrivals / t)
            assert ladder.horizon == t
            assert ladder.floor_log_jump == ladder.log_jumps[-1]
            assert np.array_equal(ladder.marks, arr.marks)

    def test_matches_inverse_elementwise(self):
        arr = sample_arrivals(22, 64)
        tail = stable_tail(0.5)
        ladder = ordered_jumps(tail, 0.01, arr)
        expected = np.asarray(tail_inverse_log(tail, arr.arrivals / 0.01))
        assert np.array_equal(ladder.log_jumps, expected)

    def test_jumps_are_ranked(self):
        arr = sample_arrivals(23, 512)
        for tail in (stable_tail(0.3), rational_tail(0.5), log_power_tail()):
            ladder = ordered_jumps(tail, 0.1, arr)
            assert np.all(np.diff(ladder.log_jumps) <= 0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_bad_horizon(self, bad):
        with pytest.raises(ValueError):
            ordered_jumps(stable_tail(0.5), bad, sample_arrivals(1, 8))

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            _hand_ladder([0.0, 1.0])  # increasing
        with pytest.raises(ValueError):
            _hand_ladder([0.0, math.nan])
        with pytest.raises(ValueError):
            _hand_ladder([0.0, -1.0], floor=-0.5)  # floor above smallest jump
        with pytest.raises(ValueError):
            _hand_ladder([0.0], horizon=0.0)
        with pytest.raises(ValueError):
            _hand_ladder([0.0], horizon=math.inf)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_rejects_infinite_horizon(self, bad):
        # t = inf used to reach the inverse as rates of 0 and fail there.
        with pytest.raises(ValueError, match="horizon"):
            ordered_jumps(stable_tail(0.5), bad, sample_arrivals(1, 8))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tail", [stable_tail(0.5), rational_tail(0.5), log_power_tail()])
    def test_subnormal_horizon_is_quiet(self, tail):
        # Gamma / t overflows to inf, a zero jump, without a warning, and
        # the ladder check and the compensated trimmed sum stay quiet too.
        ladder = ordered_jumps(tail, 1e-320, sample_arrivals(24, 64))
        assert np.all(ladder.log_jumps == -math.inf)
        assert ladder.floor_log_jump == -math.inf
        assert trimmed_value(ladder, 1, compensate=True) == (0.0, -math.inf)
        mixed = ordered_jumps(tail, 1e-310, _hand_series([1e-5, 1.0, 2.0], [0.5, 0.5, 0.5]))
        assert np.isfinite(mixed.log_jumps[0])
        assert mixed.log_jumps[1:].tolist() == [-math.inf, -math.inf]


def _old_ladder_check(lj):
    """The two-pass ladder check, plus a +inf pass; its message or None.

    The one-pass check replaced the first two passes.  Their ``np.diff``
    warned on a run of equal infinities (``inf - inf``).
    """
    if lj.size:
        if np.any(np.isnan(lj)):
            return "log_jumps must not contain NaN"
        if np.any(lj == math.inf):
            return "log_jumps must not contain +inf (an infinite jump)"
        with np.errstate(invalid="ignore"):
            if np.any(np.diff(lj) > 0.0):
                return "log_jumps must be nonincreasing"
    return None


def _ladder_check(lj):
    """The message ``JumpLadder`` raises for ``lj``, or None."""
    try:
        _hand_ladder(lj, floor=-math.inf)
    except ValueError as exc:
        return str(exc)
    return None


class TestLadderCheck:
    @pytest.mark.parametrize(
        "lj",
        [
            [math.nan],
            [math.nan, 1.0, 0.0],
            [2.0, math.nan, 0.0],
            [2.0, 1.0, math.nan],
            [math.nan, math.nan],
            [1.0, 1.0, 1.0],
            [1.0, 1.0, 2.0],
            [math.inf, math.inf],
            [-math.inf, -math.inf],
            [math.inf, 0.0, -math.inf],
            [-math.inf, math.inf],
            [0.0, math.inf],
            [-math.inf, 0.0],
            [math.inf, math.nan],
            [-math.inf, math.nan],
            [math.inf],
            [-math.inf],
            [0.0],
            [],
        ],
    )
    def test_rejects_what_the_two_pass_check_rejected(self, lj):
        lj = np.array(lj, dtype=float)
        assert _ladder_check(lj) == _old_ladder_check(lj)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(0, 8),
            elements=st.sampled_from([math.nan, math.inf, -math.inf, 2.0, 1.0, 0.0, -1.0])
            | st.floats(-5.0, 5.0),
        )
    )
    def test_same_verdict_and_message_on_any_row(self, lj):
        assert _ladder_check(lj) == _old_ladder_check(lj)

    @pytest.mark.filterwarnings("error")
    def test_infinite_jump_rejected_zero_jump_admitted(self):
        # An infinite jump used to pass and make the trimmed sum NaN after
        # an ``inf - inf`` warning; a zero jump (log -inf) sums as zero.
        with pytest.raises(ValueError, match=r"\+inf \(an infinite jump\)"):
            _hand_ladder([math.inf, 0.0], floor=0.0)
        assert trimmed_value(_hand_ladder([0.0, -math.inf]), 0) == (1.0, 0.0)


class TestRestrict:
    def test_filters_by_marks(self):
        ladder = _hand_ladder(
            [3.0, 2.0, 1.0, 0.0], marks=[0.9, 0.25, 0.6, 0.1], horizon=2.0
        )
        sub = restrict_to(ladder, 0.5)
        assert np.array_equal(sub.log_jumps, [2.0, 0.0])
        assert np.array_equal(sub.marks, [0.25, 0.1])
        assert sub.horizon == 1.0
        assert sub.floor_log_jump == ladder.floor_log_jump

    def test_full_restriction_is_identity(self):
        ladder = ordered_jumps(log_power_tail(), 0.5, sample_arrivals(31, 64))
        sub = restrict_to(ladder, 1.0)
        assert np.array_equal(sub.log_jumps, ladder.log_jumps)
        assert sub.horizon == ladder.horizon

    def test_empty_restriction(self):
        ladder = _hand_ladder([1.0, 0.0], marks=[0.9, 0.8])
        sub = restrict_to(ladder, 0.05)
        assert len(sub) == 0

    @pytest.mark.parametrize("lam", [0.0, -0.5, 1.5, math.nan])
    def test_rejects_bad_level(self, lam):
        with pytest.raises(ValueError):
            restrict_to(_hand_ladder([0.0]), lam)


class TestTrimmedValue:
    def test_hand_ladder_sums(self):
        ladder = _hand_ladder(np.log([4.0, 2.0, 1.0]), horizon=2.0)
        assert trimmed_value(ladder, 0).value == pytest.approx(7.0, rel=1e-14)
        assert trimmed_value(ladder, 1).value == pytest.approx(3.0, rel=1e-14)
        assert trimmed_value(ladder, 2).value == pytest.approx(1.0, rel=1e-14)
        tv = trimmed_value(ladder, 1)
        assert tv.log_value == pytest.approx(math.log(3.0), rel=1e-14)

    def test_compensation_adds_horizon_times_small_jump_mean(self):
        # floor jump is 1, stable(0.5): small_jump_mean(tail, 1) = 1,
        # horizon 2 adds 2 to every trimmed sum.
        tail = stable_tail(0.5)
        assert small_jump_mean(tail, 1.0) == pytest.approx(1.0)
        ladder = _hand_ladder(np.log([4.0, 2.0, 1.0]), horizon=2.0, tail=tail)
        assert trimmed_value(ladder, 0, compensate=True).value == pytest.approx(9.0)
        assert trimmed_value(ladder, 2, compensate=True).value == pytest.approx(3.0)

    def test_underflow_keeps_log_companion(self):
        ladder = _hand_ladder([-1000.0, -1000.0 - math.log(2.0)])
        tv = trimmed_value(ladder, 0)
        assert tv.value == 0.0
        assert tv.log_value == pytest.approx(
            np.logaddexp(-1000.0, -1000.0 - math.log(2.0)), rel=1e-14
        )
        # A jump of exactly zero (log -inf) sums to zero, not NaN.
        assert trimmed_value(_hand_ladder([-math.inf]), 0) == (0.0, -math.inf)

    def test_trim_bounds(self):
        ladder = _hand_ladder(np.log([4.0, 2.0]))
        with pytest.raises(ValueError):
            trimmed_value(ladder, 2)
        with pytest.raises(ValueError):
            trimmed_value(ladder, -1)

    def test_linear_and_log_agree_when_representable(self):
        rng = np.random.default_rng(777)
        for _ in range(20):
            lj = np.sort(rng.normal(0.0, 2.0, 30))[::-1]
            tv = trimmed_value(_hand_ladder(lj), 3)
            assert math.log(tv.value) == pytest.approx(tv.log_value, rel=1e-12)


@st.composite
def _one_row_trims(draw):
    """A ranked row with ties and ``-inf`` jumps, a trim count up to its length - 1."""
    value = st.sampled_from([0.0, -1.0, -math.inf]) | st.floats(-800.0, 50.0)
    lj = draw(hnp.arrays(np.float64, st.integers(1, 40), elements=value))
    r = draw(st.integers(0, lj.size - 1))
    horizon = draw(st.sampled_from([1.0, 2.0, 1e-6]))
    return -np.sort(-lj), r, horizon, draw(st.booleans())


class TestTrimmedValueIsTheMaskedKernel:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_one_row_trims())
    def test_equals_trimmed_log_sums_with_every_jump_kept(self, query):
        lj, r, horizon, compensate = query
        tail = stable_tail(0.5)
        ladder = _hand_ladder(lj, horizon=horizon, tail=tail)
        comp = pointproc._log_compensation(tail, horizon, [ladder.floor_log_jump], compensate)
        keep = np.ones((1, lj.size), dtype=bool)
        want = trimmed_log_sums(lj[None, :].copy(), keep, r, comp)[0]
        got = trimmed_value(ladder, r, compensate)
        assert float(got.log_value).hex() == float(want).hex()
        with np.errstate(over="ignore", under="ignore"):
            assert float(got.value).hex() == float(np.exp(want)).hex()

    @pytest.mark.parametrize("size, r", [(0, 0), (2, 2), (3, 7)])
    def test_depth_error_is_the_kernels(self, size, r):
        lj = np.linspace(0.0, -1.0, size)
        ladder = JumpLadder(1.0, lj, np.full(size, 0.5), stable_tail(0.5), -1.0)
        with pytest.raises(ValueError) as kernel:
            trimmed_log_sums(lj[None, :], np.ones((1, size), dtype=bool), r, [-math.inf])
        with pytest.raises(ValueError) as scalar:
            trimmed_value(ladder, r)
        assert str(scalar.value) == str(kernel.value)


class TestIntegerTrimCounts:
    @pytest.mark.parametrize("r", [1.5, 1.0, np.float64(1.0), "1"])
    def test_non_integer_counts_raise_type_error(self, r):
        # A float used to fail as numpy's "slice indices must be integers",
        # or as an IndexError in z_statistic.
        ladder = _hand_ladder(np.log([8.0, 4.0, 2.0, 1.0]))
        calls = [
            lambda: trimmed_value(ladder, r),
            lambda: z_statistic(ladder, 1.0, r),
            lambda: z_statistic_trimmed(ladder, 1.0, r),
            lambda: ratio_diagnostic(ladder, r),
            lambda: trimmed_log_sums(ladder.log_jumps[None, :], np.ones((1, 4), bool), r, [0.0]),
            lambda: trimmed_ratios(ladder.log_jumps[None, :], r),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()

    def test_numpy_integer_counts_are_accepted(self):
        ladder = _hand_ladder(np.log([8.0, 4.0, 2.0, 1.0]))
        assert trimmed_value(ladder, np.int64(1)) == trimmed_value(ladder, 1)
        assert z_statistic(ladder, 1.0, np.int32(2)) == z_statistic(ladder, 1.0, 2)
        assert ratio_diagnostic(ladder, np.uint8(1)) == ratio_diagnostic(ladder, 1)
        assert z_statistic_trimmed(ladder, 1.0, np.int64(1)) == z_statistic_trimmed(
            ladder, 1.0, 1
        )


@st.composite
def _trim_queries(draw):
    """Ranked log-jump rows, a keep mask, a trim count and per-row compensation."""
    rows, terms = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    log_j = draw(hnp.arrays(np.float64, (rows, terms), elements=st.floats(-800.0, 50.0)))
    keep = draw(hnp.arrays(np.bool_, (rows, terms)))
    comp = st.floats(-800.0, 50.0) | st.just(-math.inf)
    log_comp = draw(hnp.arrays(np.float64, rows, elements=comp))
    return -np.sort(-log_j, axis=1), keep, draw(st.integers(0, 3)), log_comp


class TestTrimmedLogSumsProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_trim_queries())
    def test_matches_fsum_reference(self, query):
        log_j, keep, r, log_comp = query
        if np.any(keep.sum(axis=1) <= r):
            with pytest.raises(ValueError, match="deepen"):
                trimmed_log_sums(log_j, keep, r, log_comp)
            return
        got = trimmed_log_sums(log_j, keep, r, log_comp)
        assert got.shape == (log_j.shape[0],)
        for i, row in enumerate(log_j):
            logs = [float(v) for v in row[keep[i]][r:]] + [float(log_comp[i])]
            m = max(logs)
            ref = m + math.log(math.fsum(math.exp(v - m) for v in logs))
            # Pairwise summation of at most 41 terms: a few ulps of the sum,
            # plus the rounding of the shift m.
            eps = np.finfo(float).eps
            assert abs(got[i] - ref) <= eps * (abs(ref) + 16.0)


def _full_exp_rows(terms, log_comp):
    """:func:`log_sum_exp_rows` with ``exp`` over every column: the reference for the cut."""
    m = np.maximum(np.max(terms, axis=1), log_comp)
    m[m == -np.inf] = 0.0
    with np.errstate(under="ignore", divide="ignore"):
        total = np.sum(np.exp(terms - m[:, None]), axis=1) + np.exp(log_comp - m)
        return m + np.log(total)


def _full_exp_log_sums(log_j, keep, r, log_comp):
    """The trimmed log-sum with ``exp`` over every column."""
    rank = np.cumsum(keep, axis=1)
    return _full_exp_rows(np.where(keep & (rank > r), log_j, -np.inf), log_comp)


def _full_exp_ratios(log_j, r):
    """:func:`trimmed_ratios` with ``exp`` over every column."""
    with np.errstate(under="ignore", invalid="ignore"):
        return 1.0 + np.sum(np.exp(log_j[:, r + 1 :] - log_j[:, r : r + 1]), axis=1)


@st.composite
def _cut_queries(draw):
    """Ranked rows spanning far more than exp's range, many terms just above its cut.

    Each row starts at three equal top terms; the drops below them come in
    one of three mixes.  Wide: anything up to 2000, clustered at 0-5, 36-42
    and 744-747 (just above and below the underflow cut).  Band: 200-600
    drops in 36-42, terms below eps of the top that move the last bits only
    together, so that a cut inside the band shows.  Gapped: 0-5, then
    straight past the cut, so that a row sliced at its live prefix would
    regroup large terms.  A few entries sit one ulp above their
    predecessor, ``keep`` punches ``-inf`` holes, and the compensation is
    off (``-inf``) or a level that may dominate every term.
    """
    mixes = {
        "wide": st.floats(0.0, 2000.0) | st.floats(0.0, 5.0) | st.floats(36.0, 42.0)
        | st.floats(744.0, 747.0),
        "band": st.floats(36.0, 42.0),
        "gapped": st.floats(0.0, 5.0) | st.floats(1000.0, 2000.0),
    }
    mix = draw(st.sampled_from(sorted(mixes)))
    rows = draw(st.integers(1, 4))
    terms = draw(st.integers(200, 600) if mix == "band" else st.integers(1, 300))
    drops = mixes[mix]
    offsets = np.sort(draw(hnp.arrays(np.float64, (rows, terms), elements=drops)), axis=1)
    offsets[:, :3] = 0.0  # a kept top term still leads after trimming up to two
    top = draw(hnp.arrays(np.float64, (rows, 1), elements=st.floats(-50.0, 50.0)))
    log_j = top - offsets
    bumps = st.tuples(st.integers(0, rows - 1), st.integers(1, max(terms - 1, 1)))
    for i, j in draw(st.lists(bumps, max_size=8)):
        if j < terms:
            log_j[i, j] = np.nextafter(log_j[i, j - 1], np.inf)
    keep = draw(st.just(np.ones((rows, terms), bool)) | hnp.arrays(np.bool_, (rows, terms)))
    keep[:, :3] = True
    r = min(draw(st.integers(0, 2)), int(keep.sum(axis=1).min()) - 1)
    comp = st.just(-math.inf) | st.floats(-800.0, 800.0)
    return log_j, keep, r, draw(hnp.arrays(np.float64, rows, elements=comp))


class TestLogSumExpCut:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_cut_queries())
    def test_matches_full_exp_bitwise(self, query):
        got = trimmed_log_sums(*query)
        want = _full_exp_log_sums(*query)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    def test_all_dead_row_keeps_compensation(self):
        # Every term is past the cut relative to the compensation: no column is live.
        log_j = np.array([[0.0, -1.0, -2.0], [-np.inf, -np.inf, -np.inf]])
        got = log_sum_exp_rows(log_j, np.array([800.0, -np.inf]))
        assert got[0] == 800.0 and got[1] == -np.inf


#: log(2**-1022): exp of every double below it is subnormal or zero.
NORMAL_CUT = math.log(2.0**-1022)


@st.composite
def _band_rows(draw):
    """Ranked rows whose tails fall through exp's subnormal band, with dead entries.

    Each row is a top level less sorted drops, drawn near the top, around
    the normal cut (700-716 below the top), inside the subnormal band
    (708-746) or past exp's zero cut (744-800).  Some entries become
    ``-inf`` holes, some rows are dead (all ``-inf``), and rows may be one
    column wide.  The compensation is off (``-inf``) or a level that may
    dominate every term.
    """
    rows, terms = draw(st.integers(1, 5)), draw(st.integers(1, 160))
    drops = (
        st.floats(0.0, 5.0) | st.floats(700.0, 716.0) | st.floats(708.0, 746.0)
        | st.floats(744.0, 800.0)
    )
    offsets = np.sort(draw(hnp.arrays(np.float64, (rows, terms), elements=drops)), axis=1)
    top = draw(hnp.arrays(np.float64, (rows, 1), elements=st.floats(-50.0, 50.0)))
    log_j = top - offsets
    holes = st.tuples(st.integers(0, rows - 1), st.integers(0, terms - 1))
    for i, j in draw(st.lists(holes, max_size=12)):
        log_j[i, j] = -np.inf
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        log_j[i] = -np.inf
    comp = st.just(-math.inf) | st.floats(-800.0, 50.0)
    return log_j, draw(hnp.arrays(np.float64, rows, elements=comp)), draw(st.integers(0, 2))


class TestExpLivePrefix:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_band_rows())
    def test_log_sum_exp_rows_matches_full_exp_bitwise(self, query):
        log_j, log_comp, _ = query
        want = _full_exp_rows(log_j, log_comp)
        got = log_sum_exp_rows(log_j.copy(), log_comp)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_band_rows())
    def test_trimmed_ratios_match_full_exp_bitwise(self, query):
        log_j, _, r = query
        if log_j.shape[1] < r + 2:
            with pytest.raises(ValueError, match="at least"):
                trimmed_ratios(log_j, r)
            return
        with np.errstate(invalid="ignore"):  # a dead row's pivot: -inf - -inf
            got = trimmed_ratios(log_j, r)
        want = _full_exp_ratios(log_j, r)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_band_rows())
    def test_zeroed_band_is_exactly_the_subnormal_suffix(self, query):
        # Past the last column holding a normal exp every column is zeroed,
        # each zeroed exp is subnormal or zero, and the rest is exp's bits.
        log_j, log_comp, _ = query
        m = np.maximum(np.max(log_j, axis=1), log_comp)
        m[m == -np.inf] = 0.0
        shifted = log_j - m[:, None]
        with np.errstate(under="ignore"):
            full = np.exp(shifted)
            got = pointproc._exp_live_prefix(shifted.copy())
        normal = np.flatnonzero((full >= 2.0**-1022).any(axis=0))
        width = int(normal[-1]) + 1 if normal.size else 0
        assert got[:, :width].tobytes() == full[:, :width].tobytes()
        assert np.all(got[:, width:] == 0.0) and np.all(full[:, width:] < 2.0**-1022)

    def test_cut_sits_at_the_normal_boundary(self):
        # One column just above the cut keeps the band before it live; one
        # just below is zeroed with everything after it.
        above, below = NORMAL_CUT, np.nextafter(NORMAL_CUT, -np.inf)
        shifted = np.array([[0.0, -720.0, above, below, -745.0, -900.0]])
        with np.errstate(under="ignore"):
            got = pointproc._exp_live_prefix(shifted.copy())
            want = np.exp(shifted[:, :3])
        assert got[:, :3].tobytes() == want.tobytes() and got[0, 2] >= 2.0**-1022
        assert got[0, 3:].tolist() == [0.0, 0.0, 0.0]
        assert pointproc._exp_live_prefix(np.array([[-720.0, -np.inf]])).tolist() == [[0.0, 0.0]]

    def test_nan_keeps_its_column_live(self):
        shifted = np.array([[0.0, -800.0, np.nan, -900.0], [0.0, -800.0, -800.0, -900.0]])
        got = pointproc._exp_live_prefix(shifted)
        assert math.isnan(got[0, 2])
        assert np.nan_to_num(got).tolist() == [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]

    def test_no_rows(self):
        assert log_sum_exp_rows(np.empty((0, 3)), np.empty(0)).shape == (0,)
        assert trimmed_ratios(np.empty((0, 3)), 0).shape == (0,)


@st.composite
def _sorted_rows(draw):
    """A nonincreasing row and an index, the scaled drops near and past exp's cut.

    After division by ``alpha`` each term lies below the head by a drop
    drawn as in :func:`_band_rows`; a trailing run of ``-inf`` (zero jumps)
    may cover part or all of the row.
    """
    terms, alpha = draw(st.integers(1, 300)), draw(st.floats(1e-3, 1.0))
    drops = (
        st.floats(0.0, 5.0) | st.floats(700.0, 716.0) | st.floats(708.0, 746.0)
        | st.floats(744.0, 800.0)
    )
    offsets = np.sort(draw(hnp.arrays(np.float64, terms, elements=drops)))
    row = draw(st.floats(-50.0, 50.0)) - offsets * alpha
    row[terms - draw(st.integers(0, terms)) :] = -np.inf
    return row, alpha


@st.composite
def _half_ulp_rows(draw):
    """A nonincreasing row of 129-1100 terms whose drops past a short head lie in 30-45.

    After division by ``alpha`` each term past the first few lies below the
    head by a drop in a band of 30-45 in log: its exponential is 9e-14 to
    3e-20 of the head's, about half an ulp of a sum near 1 (1.1e-16), so the
    right nodes of numpy's pairwise split sit on both sides of the bound
    under which :func:`log_sum_exp_sorted` skips them.
    """
    terms, alpha = draw(st.integers(129, 1100)), draw(st.floats(1e-3, 1.0))
    head = draw(hnp.arrays(np.float64, draw(st.integers(1, 8)), elements=st.floats(0.0, 3.0)))
    low = draw(st.floats(30.0, 45.0))
    band = draw(hnp.arrays(np.float64, terms - head.size, elements=st.floats(low, 45.0)))
    offsets = np.sort(np.concatenate([head, band]))
    return draw(st.floats(-50.0, 50.0)) - offsets * alpha, alpha


class TestLogSumExpSorted:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_sorted_rows())
    def test_matches_log_sum_exp_rows_bitwise(self, query):
        row, alpha = query
        scratch = np.full(row.size + 3, np.nan)  # longer than the row, and never read
        got = log_sum_exp_sorted(row, alpha, scratch)
        want = log_sum_exp_rows(row[None, :] / alpha, -np.inf)[0]
        assert float(got).hex() == float(want).hex()
        assert np.isnan(scratch[row.size :]).all()

    @pytest.mark.parametrize("node", [8, 16, 136])
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(query=_sorted_rows())
    def test_short_nodes_keep_the_full_row_bits(self, node, query):
        # Shrunk nodes split rows of up to 300 terms, so that live widths and
        # zero tails fall across node boundaries and whole nodes lie past the
        # live prefix.  numpy never splits a run of at most 128 terms, so
        # neither does the sum, and no more of the scratch is written.
        row, alpha = query
        scratch = np.full(row.size + 3, np.nan)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pointproc, "_SUM_NODE", node)
            got = log_sum_exp_sorted(row, alpha, scratch)
        want = log_sum_exp_rows(row[None, :] / alpha, -np.inf)[0]
        assert float(got).hex() == float(want).hex()
        assert np.isnan(scratch[max(node, pointproc._PAIRWISE_BLOCK) :]).all()

    @pytest.mark.parametrize(
        "terms", [2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5, 1_000_000], ids=str
    )
    def test_long_rows_keep_the_full_row_bits(self, terms):
        # A node-sized scratch, edge-bottom's default indices and 0.016: 0.4
        # keeps the whole row live, 0.016 ends the live prefix near 1e5 terms
        # on the longer rows, 0.01 within the first node, and the zero tail
        # starts a third of the way in.  Below 0.4 the right subtrees past
        # the first few hundred terms sit under half an ulp of the sum, and
        # the suffixes past ranks 1 and 2 move the head that bounds them.
        assert pointproc._SUM_NODE == 2**16
        ladder = -np.log(sample_arrivals(derive_seed(4411, terms), terms).arrivals)
        tailed = ladder.copy()
        tailed[terms // 3 + 7 :] = -np.inf
        scratch = np.full(min(terms, pointproc._SUM_NODE), np.nan)
        for row in (ladder, tailed):
            for r in (0, 1, 2):
                for alpha in ExperimentConfig(edge="bottom").alpha_grid + (0.016,):
                    got = log_sum_exp_sorted(row[r:], alpha, scratch)
                    want = log_sum_exp_rows(row[None, r:] / alpha, -np.inf)[0]
                    assert float(got).hex() == float(want).hex(), (alpha, r, row is tailed)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_half_ulp_rows())
    def test_skipped_nodes_sit_below_half_an_ulp(self, query):
        # A rule that skipped a right node on its first term alone (below
        # one ulp of the left's) moves bits here.
        row, alpha = query
        got = log_sum_exp_sorted(row, alpha, np.full(row.size, np.nan))
        want = log_sum_exp_rows(row[None, :] / alpha, -np.inf)[0]
        assert float(got).hex() == float(want).hex()

    def test_deep_rows_exponentiate_a_short_prefix(self, monkeypatch):
        # On a 1e6-term ladder over edge-bottom's default indices, alpha =
        # 0.4 reads the whole row: its terms past p sum to about p**-1.5 of
        # the head's.  At 0.2 that share is about Gamma**5 p**-4 / 4, with
        # Gamma the head's arrival (at most 2.83 on this row), and the bound
        # skips only past p = 16000 Gamma**1.25, so a quarter of the row is
        # read at most.  At 0.1 or less one pairwise leaf of at most 256.
        widths = []
        exp_prefix = pointproc._exp_prefix

        def spy(row, width):
            widths.append(width)
            return exp_prefix(row, width)

        monkeypatch.setattr(pointproc, "_exp_prefix", spy)
        terms = 1_000_000
        ladder = -np.log(sample_arrivals(derive_seed(4411, terms), terms).arrivals)
        scratch = np.empty(pointproc._SUM_NODE)
        for r in (0, 1, 2):
            per_alpha = []
            for alpha in ExperimentConfig(edge="bottom").alpha_grid:
                widths.clear()
                log_sum_exp_sorted(ladder[r:], alpha, scratch)
                per_alpha.append(sum(widths))
            assert per_alpha[0] == terms - r and per_alpha[1] <= terms // 4, (r, per_alpha)
            assert max(per_alpha[2:]) <= 2 * pointproc._PAIRWISE_BLOCK, (r, per_alpha)

    def test_live_width_is_bisected_at_the_cut(self):
        # Terms at the cut stay live, one ulp below it they are zeroed.
        below = np.nextafter(NORMAL_CUT, -np.inf)
        row = np.array([0.0, -1.0, NORMAL_CUT, below, -900.0])
        scratch = np.full(row.size, np.nan)
        with np.errstate(under="ignore"):
            want = np.exp(row[:3])
        log_sum_exp_sorted(row, 1.0, scratch)
        assert scratch[:3].tobytes() == want.tobytes() and scratch[3:].tolist() == [0.0, 0.0]


@st.composite
def _sparse_keep_queries(draw):
    """Ranked rows whose keep masks are sparse or start late, and a trim count r >= 1.

    Each row keeps a column with its own probability, down to 2%, and may
    keep nothing before some column, so that the first r + 1 kept jumps of
    the sparsest row lie far beyond the first 2(r + 1) columns and the
    ranked prefix has to grow, up to the whole width.
    """
    rows, terms, r = draw(st.integers(1, 6)), draw(st.integers(2, 400)), draw(st.integers(1, 4))
    log_j = -np.sort(-draw(hnp.arrays(np.float64, (rows, terms), elements=st.floats(-60.0, 10.0))))
    keep = np.zeros((rows, terms), bool)
    for i in range(rows):
        start = draw(st.integers(0, terms - 1))
        density = draw(st.floats(0.02, 1.0))
        flags = draw(hnp.arrays(np.float64, terms - start, elements=st.floats(0.0, 1.0)))
        keep[i, start:] = flags < density
    comp = st.just(-math.inf) | st.floats(-80.0, 20.0)
    log_comp = draw(hnp.arrays(np.float64, rows, elements=comp))
    return log_j, keep, r, log_comp


class TestTrimmedPrefixMask:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_sparse_keep_queries())
    def test_matches_full_cumsum_mask_bitwise(self, query):
        log_j, keep, r, log_comp = query
        if np.any(keep.sum(axis=1) <= r):
            with pytest.raises(ValueError, match="deepen"):
                trimmed_log_sums(log_j, keep, r, log_comp)
            return
        rank = np.cumsum(keep, axis=1)
        want = log_sum_exp_rows(np.where(keep & (rank > r), log_j, -np.inf), log_comp)
        got = trimmed_log_sums(log_j, keep, r, log_comp)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


class TestZStatistic:
    def test_unit_log_power_closed_form(self):
        # z = 1/(t * tail(J_r)) and tail(J) = Gamma_r / t exactly, so z is
        # the reciprocal r-th restricted arrival.
        arr = _hand_series([0.5, 1.5, 2.5, 4.0], [0.2, 0.8, 0.3, 0.6])
        ladder = ordered_jumps(log_power_tail(), 1e-3, arr)
        assert z_statistic(ladder, 0.5, 1) == pytest.approx(1.0 / 0.5, rel=1e-13)
        assert z_statistic(ladder, 0.5, 2) == pytest.approx(1.0 / 2.5, rel=1e-13)
        assert z_statistic(ladder, 1.0, 3) == pytest.approx(1.0 / 2.5, rel=1e-13)

    def test_insufficient_jumps(self):
        arr = _hand_series([0.5, 1.5], [0.2, 0.8])
        ladder = ordered_jumps(log_power_tail(), 1.0, arr)
        with pytest.raises(ValueError):
            z_statistic(ladder, 0.5, 2)
        with pytest.raises(ValueError):
            z_statistic(ladder, 0.5, 0)

    @pytest.mark.parametrize(
        "tail", [stable_tail(0.5), rational_tail(0.5), log_power_tail()], ids=str
    )
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_trimmed_dominates_next_rank(self, tail, lam):
        # The trimmed sum exceeds the next jump and the tail is
        # nonincreasing, so the trimmed statistic dominates pathwise.
        for i in range(10):
            arr = sample_arrivals(derive_seed(555, i), 2000)
            ladder = ordered_jumps(tail, 0.01, arr)
            for r in (0, 1):
                assert z_statistic_trimmed(ladder, lam, r) >= z_statistic(
                    ladder, lam, r + 1
                )

    def test_trimmed_matches_manual_composition(self):
        tail = stable_tail(0.5)
        arr = sample_arrivals(556, 500)
        ladder = ordered_jumps(tail, 0.05, arr)
        restricted = restrict_to(ladder, 0.5)
        tv = trimmed_value(restricted, 1, compensate=True)
        rate = float(tail_eval_from_log(tail, tv.log_value))
        assert z_statistic_trimmed(ladder, 0.5, 1) == pytest.approx(
            1.0 / (0.05 * rate), rel=1e-14
        )

    def test_trim_count_validation(self):
        ladder = ordered_jumps(stable_tail(0.5), 1.0, sample_arrivals(3, 16))
        with pytest.raises(ValueError):
            z_statistic_trimmed(ladder, 1.0, -1)


class TestRatioDiagnostic:
    def test_hand_values(self):
        ladder = _hand_ladder(np.log([4.0, 2.0, 1.0]))
        assert ratio_diagnostic(ladder, 0) == pytest.approx(1.75, rel=1e-14)
        assert ratio_diagnostic(ladder, 1) == pytest.approx(1.5, rel=1e-14)

    def test_exact_under_total_underflow(self):
        # Every jump underflows linearly; the ratio is still exact because
        # only log differences enter.  (The tolerances track the spacing of
        # doubles at the base: the inputs themselves round there.)
        for base, rel in ((-800.0, 1e-12), (-1e6, 1e-9)):
            offsets = [base, base - math.log(2.0), base - math.log(4.0)]
            assert math.exp(base) == 0.0
            ladder = _hand_ladder(offsets)
            assert ratio_diagnostic(ladder, 0) == pytest.approx(1.75, rel=rel)

    def test_at_least_one(self):
        for i in range(10):
            ladder = ordered_jumps(
                log_power_tail(), 0.1, sample_arrivals(derive_seed(31, i), 100)
            )
            assert ratio_diagnostic(ladder, 2) >= 1.0

    def test_needs_two_jumps_beyond_trim(self):
        ladder = _hand_ladder(np.log([4.0, 2.0]))
        with pytest.raises(ValueError):
            ratio_diagnostic(ladder, 1)
        with pytest.raises(ValueError):
            ratio_diagnostic(ladder, -1)

