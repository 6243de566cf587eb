"""Tests for the limit-law module: jump CDFs, fidi formulas, coupled draws.

The joint-CDF evaluators are checked against a brute-force combinatorial
oracle: the restriction grid cuts the plane into independent Poisson
cells, and the joint event is a finite sum over cell occupation patterns.
That enumeration shares no code (and no algebra beyond the Poisson pmf)
with the recursion under test, and cuts its cells on the levels as given,
so it does not reuse the recursion's level reduction either.
"""

import math
import types
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subortrim import pointproc
from subortrim.limits import (
    FIDI_QUERY_GRID,
    FidiQuery,
    cauchy_ordered_jump_sample,
    cauchy_rth_jump_cdf,
    extremal_fidi_cdf,
    fidi_probability,
    second_jump_fidi,
    trimmed_stable_power_sample,
)
from subortrim.pointproc import ArrivalSeries, derive_seed, log_sum_exp_rows, sample_arrivals


def _pois_pmf(mean, k):
    if mean == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))


def _cells(q):
    """Poisson cells of a reciprocal-tail query, on its levels as given.

    The distinct levels, sorted, cut the level axis into bands.  A jump in
    time slice ``ell`` and in the band that starts at level ``u`` exceeds
    ``y_i`` by ``lam_i`` iff ``ell <= i`` and ``y_i <= u``.  Each cell is
    (the constraints it hits, its Poisson mean); a cell that hits none is
    left out, as its count does not matter.
    """
    n = len(q)
    lams = (0.0,) + q.lambdas
    bands = sorted(set(q.levels))
    out = []
    for ell in range(1, n + 1):
        for j, lo in enumerate(bands):
            hits = [i for i in range(ell, n + 1) if q.levels[i - 1] <= lo]
            if hits:
                time_mass = lams[ell] - lams[ell - 1]
                level_mass = 1.0 / lo - (1.0 / bands[j + 1] if j + 1 < len(bands) else 0.0)
                out.append((hits, time_mass * level_mass))
    return out


def _brute_force_fidi(q, r):
    """Enumerate cell counts: a cell's jumps count for each constraint it hits.

    Rank r means every constraint tolerates at most r - 1 exceedances, so
    any single cell holds at most r - 1 relevant jumps and the sum over
    {0, ..., r-1}^cells is exact.
    """
    cells = _cells(q)
    n = len(q)
    total = 0.0
    for counts in product(range(r), repeat=len(cells)):
        if all(
            sum(c for (hits, _m), c in zip(cells, counts) if i in hits) < r
            for i in range(1, n + 1)
        ):
            p = 1.0
            for (_hits, mass), c in zip(cells, counts):
                p *= _pois_pmf(mass, c)
            total += p
    return total


def _closed_n2_second(l1, l2, y1, y2):
    """Hand-derived n = 2 second-jump CDF for the reciprocal tail.

    With X ~ Poisson(l1/y2) (first slice above y2), Y ~ Poisson(l1 (1/y1
    - 1/y2)) (first slice in (y1, y2]) and W ~ Poisson((l2-l1)/y2) (second
    slice above y2), the event is X + Y <= 1 and X + W <= 1.
    """
    mx, my, mw = l1 / y2, l1 * (1.0 / y1 - 1.0 / y2), (l2 - l1) / y2
    p0 = lambda m: math.exp(-m)  # noqa: E731 - tiny local closures
    p1 = lambda m: m * math.exp(-m)  # noqa: E731
    return p0(mx) * (p0(my) + p1(my)) * (p0(mw) + p1(mw)) + p1(mx) * p0(my) * p0(mw)


class TestCauchyRthJumpCdf:
    def test_rank_one_is_exponential_of_reciprocal(self):
        xs = np.geomspace(0.05, 50.0, 40)
        got = cauchy_rth_jump_cdf(1, 0.7, xs)
        assert got == pytest.approx(np.exp(-0.7 / xs), rel=1e-13)

    def test_rank_two_hand_formula(self):
        z = 1.5 / 2.0
        assert cauchy_rth_jump_cdf(2, 1.5, 2.0) == pytest.approx(
            math.exp(-z) * (1.0 + z), rel=1e-13
        )

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_poisson_series_oracle(self, r):
        lam = 0.8
        for x in np.geomspace(0.02, 20.0, 25):
            z = lam / x
            expected = math.exp(-z) * math.fsum(z**j / math.factorial(j) for j in range(r))
            assert cauchy_rth_jump_cdf(r, lam, float(x)) == pytest.approx(
                expected, rel=1e-12, abs=1e-300
            )

    def test_monotone_in_level_and_rank(self):
        xs = np.geomspace(0.1, 10.0, 50)
        vals = np.asarray(cauchy_rth_jump_cdf(2, 1.0, xs))
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(
            np.asarray(cauchy_rth_jump_cdf(3, 1.0, xs)) >= vals
        )  # more trimming, stochastically smaller jump

    def test_scalar_and_vector(self):
        assert isinstance(cauchy_rth_jump_cdf(1, 1.0, 2.0), float)
        assert cauchy_rth_jump_cdf(1, 1.0, np.array([2.0])).shape == (1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            cauchy_rth_jump_cdf(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            cauchy_rth_jump_cdf(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            cauchy_rth_jump_cdf(1, 1.0, -1.0)
        with pytest.raises(ValueError):
            cauchy_rth_jump_cdf(1, 1.0, np.array([1.0, math.nan]))

    def test_subnormal_level_is_zero_without_a_warning(self):
        # lam / x overflows to inf below about 1e-308: the CDF's limit 0,
        # which used to come with numpy's overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cauchy_rth_jump_cdf(2, 1.0, 5e-324) == 0.0
            got = cauchy_rth_jump_cdf(3, 1.0, np.array([1e-309, 1.0]))
        assert got.tolist() == [0.0, cauchy_rth_jump_cdf(3, 1.0, 1.0)]

    @pytest.mark.parametrize("r", [1.5, 2.0, np.float64(1.0)])
    def test_float_rank_raises_type_error(self, r):
        # 1.5 used to fail only inside range(); 2.0 was taken as 2.
        with pytest.raises(TypeError, match="rank must be an integer"):
            cauchy_rth_jump_cdf(r, 1.0, 1.0)
        assert cauchy_rth_jump_cdf(np.int64(2), 1.0, 1.0) == cauchy_rth_jump_cdf(2, 1.0, 1.0)


class TestExtremalFidi:
    def test_single_point_reduces_to_marginal(self):
        q = FidiQuery(lambdas=(0.6,), levels=(1.3,))
        assert extremal_fidi_cdf(q) == pytest.approx(
            cauchy_rth_jump_cdf(1, 0.6, 1.3), abs=1e-15
        )

    def test_hand_product(self):
        # slices (0, .5], (.5, 1] with reduced levels (1, 2):
        # exp(-(0.5 * 1 + 0.5 * 0.5)) = exp(-0.75)
        q = FidiQuery(lambdas=(0.5, 1.0), levels=(1.0, 2.0))
        assert extremal_fidi_cdf(q) == pytest.approx(math.exp(-0.75), rel=1e-14)

    def test_level_reduction(self):
        # A later, lower level forces the earlier one: (2, 1) acts as (1, 1).
        q = FidiQuery(lambdas=(0.5, 1.0), levels=(2.0, 1.0))
        forced = FidiQuery(lambdas=(0.5, 1.0), levels=(1.0, 1.0))
        assert extremal_fidi_cdf(q) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert extremal_fidi_cdf(q) == extremal_fidi_cdf(forced)

    @pytest.mark.parametrize("qi", range(len(FIDI_QUERY_GRID)))
    def test_combinatorial_oracle(self, qi):
        q = FIDI_QUERY_GRID[qi]
        assert extremal_fidi_cdf(q) == pytest.approx(_brute_force_fidi(q, 1), abs=1e-12)



class TestSecondJumpFidi:
    def test_single_point_reduces_to_marginal(self):
        q = FidiQuery(lambdas=(0.6,), levels=(1.3,))
        assert second_jump_fidi(q) == pytest.approx(
            cauchy_rth_jump_cdf(2, 0.6, 1.3), abs=1e-13
        )

    @pytest.mark.parametrize(
        "l1, l2, y1, y2",
        [(0.5, 1.0, 1.0, 2.0), (0.3, 0.9, 0.5, 0.6), (0.2, 0.4, 1.5, 4.0)],
    )
    def test_closed_two_point_oracle(self, l1, l2, y1, y2):
        q = FidiQuery(lambdas=(l1, l2), levels=(y1, y2))
        assert second_jump_fidi(q) == pytest.approx(
            _closed_n2_second(l1, l2, y1, y2), abs=1e-13
        )

    @pytest.mark.parametrize("qi", range(len(FIDI_QUERY_GRID)))
    def test_combinatorial_oracle(self, qi):
        q = FIDI_QUERY_GRID[qi]
        assert second_jump_fidi(q) == pytest.approx(
            _brute_force_fidi(q, 2), abs=1e-12
        )

    def test_unordered_levels_act_as_their_reduction(self):
        # A later, lower level forces the earlier one at rank 2 as well.
        q = FidiQuery(lambdas=(0.5, 1.0), levels=(2.0, 1.0))
        forced = FidiQuery(lambdas=(0.5, 1.0), levels=(1.0, 1.0))
        assert second_jump_fidi(q) == second_jump_fidi(forced)
        assert second_jump_fidi(q) == pytest.approx(cauchy_rth_jump_cdf(2, 1.0, 1.0), abs=1e-15)

    def test_second_dominates_first(self):
        # Largest jump below y implies second largest below y.
        for q in FIDI_QUERY_GRID:
            assert fidi_probability(q, 2) >= fidi_probability(q, 1)


class TestFidiDispatchAndParse:
    def test_dispatch(self):
        q = FidiQuery(lambdas=(0.5, 1.0), levels=(1.0, 2.0))
        assert fidi_probability(q, 1) == extremal_fidi_cdf(q)
        assert fidi_probability(q, 2) == second_jump_fidi(q)
        assert fidi_probability(q, 2) < fidi_probability(q, 3) < 1.0
        with pytest.raises(ValueError, match="rank must be >= 1"):
            fidi_probability(q, 0)
        with pytest.raises(TypeError, match="rank must be an integer"):
            fidi_probability(q, 3.0)
        assert fidi_probability(q, np.int64(2)) == fidi_probability(q, 2)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("qi", range(len(FIDI_QUERY_GRID)))
    def test_combinatorial_oracle_at_ranks_one_to_three(self, qi, r):
        q = FIDI_QUERY_GRID[qi]
        assert fidi_probability(q, r) == pytest.approx(_brute_force_fidi(q, r), abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_unordered_and_tied_levels_match_the_cell_oracle(self, data):
        # The oracle cuts cells on the levels as given, with no reduction.
        n = data.draw(st.integers(1, 3))
        lams = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n, unique=True))
        pool = data.draw(st.lists(st.floats(0.05, 5.0), min_size=1, max_size=n))
        ys = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        q = FidiQuery(tuple(sorted(lams)), tuple(ys))
        for r in (1, 2, 3):
            assert fidi_probability(q, r) == pytest.approx(_brute_force_fidi(q, r), abs=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_tiny_levels_give_the_marginal(self, r):
        # The weights overflow to inf at the smallest levels, and inf * 0
        # used to clamp to 1.0 where the joint CDF is 0.
        for y in (1e-3, 1e-10, 1e-100, 1e-154, 1e-155, 1e-200, 1e-300, 1e-308, 1e-320, 5e-324):
            assert fidi_probability(FidiQuery((1.0,), (y,)), r) == cauchy_rth_jump_cdf(r, 1.0, y)
        assert fidi_probability(FidiQuery((0.5, 1.0), (1e-200, 1.0)), r) == 0.0
        assert fidi_probability(FidiQuery((0.5, 1.0), (5e-324, 1e-323)), r) == 0.0

    def test_overflow_past_the_exact_rank_range_raises(self):
        # At rank 800 the weights overflow where P(Poisson(1000) < 800) is
        # 2.6e-11, not 0.
        with pytest.raises(ArithmeticError, match="overflow"):
            fidi_probability(FidiQuery((1.0,), (1e-3,)), 800)

    @pytest.mark.parametrize("r", [1.0, 2.0, 1.5, np.float64(1.0)])
    def test_float_rank_raises_type_error(self, r):
        # 1.0 == 1 used to pick the largest-jump branch.
        q = FidiQuery(lambdas=(0.5, 1.0), levels=(1.0, 2.0))
        with pytest.raises(TypeError, match="rank must be an integer"):
            fidi_probability(q, r)

    @pytest.mark.parametrize(
        "lams, ys",
        [
            ((), ()),
            ((0.5,), (1.0, 2.0)),
            ((0.5, 0.5), (1.0, 2.0)),
            ((0.5, 1.5), (1.0, 2.0)),
            ((0.0,), (1.0,)),
            ((0.5,), (0.0,)),
            ((0.5,), (math.nan,)),
        ],
    )
    def test_query_validation(self, lams, ys):
        with pytest.raises(ValueError):
            FidiQuery(lambdas=lams, levels=ys)


class TestCoupledSamples:
    def _hand_arr(self):
        return ArrivalSeries(
            arrivals=np.array([0.5, 1.0, 2.0, 4.0]),
            marks=np.array([0.1, 0.9, 0.2, 0.3]),
            seed=0,
        )

    def test_hand_example(self):
        # Restriction 0.5 keeps arrivals (0.5, 2, 4): jumps d = (2, .5, .25).
        arr = self._hand_arr()
        assert cauchy_ordered_jump_sample(arr, 0, 0.5) == pytest.approx(2.0, rel=1e-14)
        assert cauchy_ordered_jump_sample(arr, 1, 0.5) == pytest.approx(0.5, rel=1e-14)
        # alpha = 0.5 turns the trimmed sum into sqrt of a sum of squares.
        assert trimmed_stable_power_sample(arr, 0.5, 0, 0.5) == pytest.approx(
            math.sqrt(4.0 + 0.25 + 0.0625), rel=1e-12
        )
        assert trimmed_stable_power_sample(arr, 0.5, 1, 0.5) == pytest.approx(
            math.sqrt(0.25 + 0.0625), rel=1e-12
        )

    @pytest.mark.parametrize("r", [1.5, 1.0, [0, 1.5], np.array([0.0, 1.0])])
    def test_non_integer_ranks_raise_type_error(self, r):
        # A float used to fail as numpy's "slice indices must be integers"
        # or as an IndexError.
        arr = self._hand_arr()
        with pytest.raises(TypeError):
            trimmed_stable_power_sample(arr, 0.5, r, 1.0)
        with pytest.raises(TypeError):
            cauchy_ordered_jump_sample(arr, r, 1.0)

    def test_integer_rank_arrays_are_accepted(self):
        arr = self._hand_arr()
        ranks = np.array([1, 0], dtype=np.uint8)
        assert cauchy_ordered_jump_sample(arr, ranks, 1.0).tolist() == [
            cauchy_ordered_jump_sample(arr, 1, 1.0), cauchy_ordered_jump_sample(arr, 0, 1.0)
        ]
        assert trimmed_stable_power_sample(arr, 0.5, np.int64(1), 1.0) == (
            trimmed_stable_power_sample(arr, 0.5, 1, 1.0)
        )

    def test_power_sample_dominates_ranked_jump(self):
        for i in range(15):
            arr = sample_arrivals(derive_seed(9090, i), 256)
            for r in (0, 1, 2):
                power = trimmed_stable_power_sample(arr, 0.6, r, 1.0)
                assert power >= cauchy_ordered_jump_sample(arr, r, 1.0)

    def test_coupling_is_monotone_in_index(self):
        # On shared randomness the power sample sinks to the ranked jump as
        # the index drops: the l^q norm decreases in q toward the max.
        for i in range(10):
            arr = sample_arrivals(derive_seed(9091, i), 256)
            ranked = cauchy_ordered_jump_sample(arr, 1, 1.0)
            vals = [
                trimmed_stable_power_sample(arr, alpha, 1, 1.0)
                for alpha in (0.8, 0.4, 0.2, 0.1, 0.05, 0.01)
            ]
            assert all(b <= a * (1.0 + 1e-12) for a, b in zip(vals, vals[1:]))
            assert all(v >= ranked * (1.0 - 1e-12) for v in vals)
            assert vals[-1] == pytest.approx(ranked, rel=1e-2)

    def test_index_sequence_matches_scalar_calls_bitwise(self):
        alphas = (0.4, 0.2, 0.1, 0.05, 0.02, 0.01)
        ranks = (0, 2, 1)
        for i in range(6):
            arr = sample_arrivals(derive_seed(9093, i), 2000)
            for lam in (0.5, 1.0):
                grid = trimmed_stable_power_sample(arr, alphas, ranks, lam)
                assert isinstance(grid, np.ndarray) and grid.shape == (len(ranks), len(alphas))
                ranked = cauchy_ordered_jump_sample(arr, ranks, lam)
                assert isinstance(ranked, np.ndarray) and ranked.shape == (len(ranks),)
                by_r = trimmed_stable_power_sample(arr, alphas[-1], ranks, lam)
                assert by_r.shape == (len(ranks),)
                for ri, r in enumerate(ranks):
                    got = trimmed_stable_power_sample(arr, alphas, r, lam)
                    assert isinstance(got, np.ndarray) and got.shape == (len(alphas),)
                    want = [trimmed_stable_power_sample(arr, a, r, lam) for a in alphas]
                    assert all(type(w) is float for w in want)
                    assert [float(v).hex() for v in got] == [w.hex() for w in want]
                    assert [float(v).hex() for v in grid[ri]] == [w.hex() for w in want]
                    assert float(by_r[ri]).hex() == want[-1].hex()
                    one = cauchy_ordered_jump_sample(arr, r, lam)
                    assert type(one) is float and float(ranked[ri]).hex() == one.hex()
        with pytest.raises(ValueError, match="index"):
            trimmed_stable_power_sample(self._hand_arr(), (0.5, 1.0), 0, 0.5)

    #: ``float.hex`` of ``trimmed_stable_power_sample(arr, (0.05, 0.02, 0.01), r, lam)``
    #: keyed by (series, lam, r), on 2e5-term series ``derive_seed(9094, series)``.
    #: Recorded when every term was exponentiated; at alpha 0.01 only the first
    #: 494 to 9 936 restricted terms lie above exp's underflow cut.
    _PINNED_POWERS = {
        (0, 0.5, 0): ("0x1.fb0d3e9764c5fp-2", "0x1.fb0d3e39e1e33p-2", "0x1.fb0d3e39e1e33p-2"),
        (0, 0.5, 1): ("0x1.d72e7fca3e91fp-3", "0x1.d728f184f2c65p-3", "0x1.d728f1839820ep-3"),
        (0, 0.5, 2): ("0x1.4c32841a5cc34p-3", "0x1.44f46b391b00ep-3", "0x1.440b47cd6d714p-3"),
        (0, 1.0, 0): ("0x1.f427512589a77p-1", "0x1.f4274f173113ep-1", "0x1.f4274f173113dp-1"),
        (0, 1.0, 1): ("0x1.fb0ebcb96ec4dp-2", "0x1.fb0d3e39ee967p-2", "0x1.fb0d3e39e1e33p-2"),
        (0, 1.0, 2): ("0x1.4d8ccfdf6b982p-2", "0x1.46d96a01c7415p-2", "0x1.44def3f55c786p-2"),
        (1, 0.5, 0): ("0x1.bad054e27dfcdp+0", "0x1.bad054e27dfb8p+0", "0x1.bad054e27dfb8p+0"),
        (1, 0.5, 1): ("0x1.80febbb81e9dep-2", "0x1.80febbb81e932p-2", "0x1.80febbb81e932p-2"),
        (1, 0.5, 2): ("0x1.75d59cd38bfabp-4", "0x1.6e4f7a7b4074dp-4", "0x1.6c0e191009bdbp-4"),
        (1, 1.0, 0): ("0x1.bad0551bc80e9p+0", "0x1.bad054e27dfb8p+0", "0x1.bad054e27dfb8p+0"),
        (1, 1.0, 1): ("0x1.944234959900ep-1", "0x1.944233dc21af0p-1", "0x1.944233dc21af0p-1"),
        (1, 1.0, 2): ("0x1.892c9a14c3bb5p-2", "0x1.826281c0ae777p-2", "0x1.81246bc683cabp-2"),
        (2, 0.5, 0): ("0x1.19691d7bdd6a3p-1", "0x1.19691c0511f78p-1", "0x1.19691c0511f77p-1"),
        (2, 0.5, 1): ("0x1.20acb399820e9p-2", "0x1.20acb158ab23bp-2", "0x1.20acb158ab23bp-2"),
        (2, 0.5, 2): ("0x1.2e31c34f4f0bcp-3", "0x1.2dd55ecbf571ep-3", "0x1.2dd5500074cd3p-3"),
        (2, 1.0, 0): ("0x1.196940f5cdcd0p-1", "0x1.19691c0512304p-1", "0x1.19691c0511f77p-1"),
        (2, 1.0, 1): ("0x1.533d4dfd68ddbp-2", "0x1.528e7c8f7e8f4p-2", "0x1.528de318fde13p-2"),
        (2, 1.0, 2): ("0x1.20acb3a7c825dp-2", "0x1.20acb158ab23bp-2", "0x1.20acb158ab23bp-2"),
    }

    def test_deep_index_values_are_pinned(self):
        for i in range(3):
            arr = sample_arrivals(derive_seed(9094, i), 200_000)
            for lam in (0.5, 1.0):
                got = trimmed_stable_power_sample(arr, (0.05, 0.02, 0.01), (0, 1, 2), lam)
                for r in (0, 1, 2):
                    want = self._PINNED_POWERS[(i, lam, r)]
                    assert tuple(float(v).hex() for v in got[r]) == want, (i, lam, r)

    def test_deep_index_matches_full_exp_reference(self):
        # The first arrival of series 23, 38 and 47 lies below 0.14, so at
        # alpha = 0.02 and depth 2e5 their ladders fall through exp's
        # subnormal band, which the log-sum-exp zeroes instead of forming;
        # series 0 does not reach it.
        cut = math.log(2.0**-1022)
        arrs = [sample_arrivals(derive_seed(9095, i), 200_000) for i in (0, 23, 38, 47)]
        shifted = [np.log(a.arrivals[0] / a.arrivals) / 0.02 for a in arrs]
        band = [bool(np.any((s < cut) & (s > -746.0))) for s in shifted]
        assert band == [False, True, True, True]

        def full_exp_rows(terms, log_comp):
            m = np.maximum(np.max(terms, axis=1), log_comp)
            m[m == -np.inf] = 0.0
            with np.errstate(under="ignore", divide="ignore"):
                total = np.sum(np.exp(terms - m[:, None]), axis=1) + np.exp(log_comp - m)
                return m + np.log(total)

        for a in arrs:
            for lam in (0.5, 1.0):
                got = trimmed_stable_power_sample(a, (0.05, 0.02), (0, 1, 2), lam)
                want = _reference_powers(a, (0.05, 0.02), (0, 1, 2), lam, full_exp_rows)
                assert got.tobytes() == want.tobytes()

    def test_depth_and_level_validation(self):
        arr = self._hand_arr()
        with pytest.raises(ValueError):
            trimmed_stable_power_sample(arr, 0.5, 3, 0.5)
        with pytest.raises(ValueError):
            trimmed_stable_power_sample(arr, 1.5, 0, 0.5)
        with pytest.raises(ValueError):
            cauchy_ordered_jump_sample(arr, 3, 0.5)
        with pytest.raises(ValueError):
            cauchy_ordered_jump_sample(arr, -1, 0.5)
        with pytest.raises(ValueError):
            cauchy_ordered_jump_sample(arr, 0, 0.0)
        # A negative trim count is rejected, not read as an index from the end.
        deep = sample_arrivals(1, 1000)
        for r in (-1, (0, -1), (2, -3, 1)):
            with pytest.raises(ValueError, match="trim count"):
                trimmed_stable_power_sample(deep, 0.5, r, 1.0)
            with pytest.raises(ValueError, match="trim count"):
                cauchy_ordered_jump_sample(deep, r, 1.0)
        # Every entry of an r sequence must fit the restricted ladder.
        with pytest.raises(ValueError, match="deepen"):
            trimmed_stable_power_sample(arr, 0.5, (0, 3), 0.5)
        with pytest.raises(ValueError, match="deepen"):
            cauchy_ordered_jump_sample(arr, (3, 0), 0.5)

    def test_extreme_index_does_not_overflow(self):
        arr = sample_arrivals(9092, 64)
        val = trimmed_stable_power_sample(arr, 0.01, 0, 1.0)
        assert math.isfinite(val) and val > 0.0


def _reference_powers(arr, alphas, ranks, lam, rows=log_sum_exp_rows):
    """The power sample through the whole restricted ladder and a row log-sum-exp.

    Each (r, alpha) divides the full restricted suffix past rank ``r`` and
    reduces it with ``rows`` (max shift, exp, pairwise sum): the route the
    sorted-ladder reduction replaces.
    """
    log_jumps = -np.log(arr.arrivals[arr.marks <= lam])
    if log_jumps.size <= max(ranks):
        raise ValueError("deepen the series")
    out = [
        math.exp(a * rows(np.divide(log_jumps[None, k:], a), -np.inf)[0])
        for k in ranks
        for a in alphas
    ]
    return np.reshape(np.array(out, dtype=float), (len(ranks), len(alphas)))


def _reference_ranked(arr, ranks, lam):
    """The ranked jumps read from the whole restricted ladder."""
    log_jumps = -np.log(arr.arrivals[arr.marks <= lam])
    if log_jumps.size <= max(ranks):
        raise ValueError("deepen the series")
    return np.array([math.exp(v) for v in log_jumps[list(ranks)]])


@st.composite
def _coupled_queries(draw):
    """A series, a restriction level and unsorted grids of trim counts and indices.

    The series is a drawn stream, or arrivals built from drawn gaps with a
    first arrival anywhere from 1e-300 to 10.  Indices mix the deep end
    (alpha <= 0.02, where the live prefix of a few thousand terms is
    shorter than the row) with the rest of (0, 1).  Short series at low
    levels keep too few jumps for the largest trim count.
    """
    if draw(st.booleans()):
        arr = sample_arrivals(draw(st.integers(0, 2**32)), draw(st.integers(1, 4000)))
    else:
        n = draw(st.integers(1, 300))
        first = draw(st.floats(1e-300, 10.0))
        gaps = draw(hnp.arrays(np.float64, n - 1, elements=st.floats(1e-3, 100.0)))
        arrivals = np.cumsum(np.concatenate([[first], gaps]))
        marks = draw(hnp.arrays(np.float64, n, elements=st.floats(1e-9, 1.0)))
        assume(bool(np.all(arrivals[1:] > arrivals[:-1])))
        arr = ArrivalSeries(arrivals=arrivals, marks=marks, seed=0)
    lam = draw(st.floats(0.01, 1.0) | st.just(1.0))
    ranks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    deep, shallow = st.floats(1e-4, 0.02), st.floats(0.02, 0.999)
    alphas = draw(st.lists(deep | shallow, min_size=1, max_size=4))
    return arr, lam, ranks, alphas


class TestSortedLadderReduction:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_coupled_queries())
    def test_coupled_samples_match_full_restriction_route_bitwise(self, query):
        arr, lam, ranks, alphas = query
        try:
            want = _reference_powers(arr, alphas, ranks, lam)
        except ValueError:
            with pytest.raises(ValueError, match="deepen"):
                trimmed_stable_power_sample(arr, alphas, ranks, lam)
            with pytest.raises(ValueError, match="deepen"):
                cauchy_ordered_jump_sample(arr, ranks, lam)
            return
        got = trimmed_stable_power_sample(arr, alphas, ranks, lam)
        assert got.tobytes() == want.tobytes()
        ranked = cauchy_ordered_jump_sample(arr, ranks, lam)
        assert ranked.tobytes() == _reference_ranked(arr, ranks, lam).tobytes()

    def test_live_prefix_is_shorter_than_the_row(self):
        # At alpha = 0.01 on 4000 terms about 600 lie within 708 * alpha of
        # the head in log, but past the first pairwise leaf (at most 128
        # terms) every right node sums below half an ulp, so only that leaf
        # is exponentiated and the rest of the scratch is never written.
        arr = sample_arrivals(derive_seed(9096, 0), 4000)
        log_jumps = -np.log(arr.arrivals)
        scratch = np.full(min(log_jumps.size, pointproc._SUM_NODE), np.nan)
        value = pointproc.log_sum_exp_sorted(log_jumps, 0.01, scratch)
        written = np.count_nonzero(~np.isnan(scratch))
        live = np.count_nonzero(log_jumps / 0.01 - log_jumps[0] / 0.01 >= pointproc._EXP_NORMAL_FROM)
        assert 0 < written <= pointproc._PAIRWISE_BLOCK < live < log_jumps.size
        assert not np.isnan(scratch[:written]).any() and np.isnan(scratch[written:]).all()
        want = log_sum_exp_rows(log_jumps[None, :] / 0.01, -np.inf)[0]
        assert float(value).hex() == float(want).hex()

    def test_ranked_sample_reads_only_a_prefix(self):
        # The scan doubles from 2 (max(r) + 1) arrivals until its marks keep
        # max(r) + 1 of them; nothing past that prefix is read.
        class Recorded:
            """An array that allows slices from the start, and records the widest."""

            def __init__(self, values):
                self.values, self.size, self.widest = values, values.size, 0

            def __getitem__(self, key):
                assert isinstance(key, slice) and key.start is None
                self.widest = max(self.widest, key.stop)
                return self.values[key]

        arr = sample_arrivals(derive_seed(9097, 0), 100_000)
        stub = types.SimpleNamespace(arrivals=Recorded(arr.arrivals), marks=Recorded(arr.marks))
        got = cauchy_ordered_jump_sample(stub, (2, 0), 0.5)
        assert got.tobytes() == _reference_ranked(arr, (2, 0), 0.5).tobytes()
        assert stub.arrivals.widest == stub.marks.widest <= 24

    def test_empty_trim_grids_give_empty_results(self):
        arr = sample_arrivals(derive_seed(9098, 0), 100)
        for empty in ([], np.array([], dtype=int), np.array([])):
            got = cauchy_ordered_jump_sample(arr, empty, 1.0)
            assert isinstance(got, np.ndarray) and got.shape == (0,)
            got = trimmed_stable_power_sample(arr, (0.5, 0.2), empty, 1.0)
            assert isinstance(got, np.ndarray) and got.shape == (0, 2)
        assert trimmed_stable_power_sample(arr, [], 0, 1.0).shape == (0,)
        assert trimmed_stable_power_sample(arr, [], [], 1.0).shape == (0, 0)
        # The level and the index are still checked.
        with pytest.raises(ValueError, match="restriction"):
            cauchy_ordered_jump_sample(arr, [], 0.0)
        with pytest.raises(ValueError, match="index"):
            trimmed_stable_power_sample(arr, 1.5, [], 1.0)


class TestQueryGrid:
    def test_grid_shape(self):
        assert len(FIDI_QUERY_GRID) == 12
        assert sorted({len(q) for q in FIDI_QUERY_GRID}) == [1, 2, 3, 4]

    def test_all_levels_increasing(self):
        for q in FIDI_QUERY_GRID:
            assert all(b > a for a, b in zip(q.levels, q.levels[1:])) or len(q) == 1

    def test_probabilities_proper(self):
        for q in FIDI_QUERY_GRID:
            for r in (1, 2, 3):
                p = fidi_probability(q, r)
                assert 0.0 < p <= 1.0


@st.composite
def _raised_level_queries(draw):
    """A fidi query (n <= 5) with levels in any order, and a copy with one level raised."""
    n = draw(st.integers(1, 5))
    lams = sorted(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n, unique=True)))
    ys = draw(st.lists(st.floats(0.05, 50.0), min_size=n, max_size=n))
    i = draw(st.integers(0, n - 1))
    higher = ys[:i] + [ys[i] * draw(st.floats(1.0, 4.0))] + ys[i + 1 :]
    return FidiQuery(tuple(lams), tuple(ys)), FidiQuery(tuple(lams), tuple(higher))


class TestFidiMonotoneInLevels:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_raised_level_queries())
    def test_raising_a_level_never_lowers_the_cdf(self, queries):
        # The recursion rounds at each step, so orderings hold to a few
        # ulps of 1 (a 1e-11 raise has been seen to lower it by one ulp).
        q, higher = queries
        tol = 1e-14
        for query in (q, higher):
            p1, p2, p3 = (fidi_probability(query, r) for r in (1, 2, 3))
            assert 0.0 <= p1 <= p2 + tol and p2 <= p3 + tol and p3 <= 1.0
        for r in (1, 2, 3):
            assert fidi_probability(higher, r) >= fidi_probability(q, r) - tol
