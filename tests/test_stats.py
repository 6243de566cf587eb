"""Tests for the KS machinery against scipy's independent implementations.

scipy's one-sample asymptotic p-value is exactly the Kolmogorov survival
function at sqrt(n) D, which pins both our statistic and our tail series.
The two-sample comparison pins the statistic bitwise; scipy's asymptotic
two-sample p applies an extra finite-sample correction, so the p-value is
cross-checked loosely there and exactly against our own tail series.
"""

import math

import numpy as np
import pytest
from scipy import special as sc
from scipy import stats as sps

from subortrim.stats import (
    empirical_laplace,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    mc_standard_error,
    poisson_below,
)

EPS = np.finfo(float).eps


class TestKolmogorovSf:
    def test_matches_scipy_special(self):
        for x in np.linspace(0.3, 3.5, 33):
            assert kolmogorov_sf(float(x)) == pytest.approx(
                float(sc.kolmogorov(x)), rel=1e-9, abs=1e-300
            )

    def test_boundary_and_tails(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(1e-12) == 1.0
        assert kolmogorov_sf(10.0) < 1e-80
        vals = [kolmogorov_sf(x) for x in np.linspace(0.2, 4.0, 60)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_validation(self):
        with pytest.raises(ValueError):
            kolmogorov_sf(-0.1)
        with pytest.raises(ValueError):
            kolmogorov_sf(math.nan)


class TestKsOneSample:
    @property
    def rng(self):
        return np.random.default_rng(1201)

    def test_matches_scipy_kstest(self):
        sample = self.rng.normal(size=2000)
        got = ks_one_sample(sample, sps.norm.cdf)
        ref = sps.kstest(sample, sps.norm.cdf, method="asymp")
        assert got.statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert got.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_good_fit_accepts(self):
        sample = self.rng.uniform(size=5000)
        res = ks_one_sample(sample, lambda x: np.clip(x, 0.0, 1.0))
        assert res.p_value > 0.01

    def test_shift_rejects(self):
        sample = self.rng.normal(loc=0.25, size=5000)
        res = ks_one_sample(sample, sps.norm.cdf)
        assert res.p_value < 1e-6

    def test_statistic_uses_both_sides(self):
        # A cdf evaluated only at data points must still catch the gap
        # before each jump, not just after it.
        sample = np.linspace(0.05, 0.95, 19)
        res = ks_one_sample(sample, lambda x: np.asarray(x) ** 2)
        grid = np.linspace(0.0, 1.0, 200001)
        emp = np.searchsorted(sample, grid, side="right") / sample.size
        brute = np.max(np.abs(emp - grid**2))
        assert res.statistic >= brute - 1e-6

    def test_accepts_empirical_cdf_instance(self):
        # A step target: the sample's own right-continuous ECDF.
        sample = self.rng.uniform(size=64)
        xs = np.sort(sample)
        res = ks_one_sample(sample, lambda x: np.searchsorted(xs, x, side="right") / xs.size)
        assert res.statistic <= 1.0 / 64.0 + 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            ks_one_sample(np.arange(5.0), sps.norm.cdf)  # too few points
        with pytest.raises(ValueError, match="NaN"):
            ks_one_sample(np.full(20, math.nan), sps.norm.cdf)
        with pytest.raises(ValueError, match="at least 10"):
            ks_one_sample(np.array([]), sps.norm.cdf)
        with pytest.raises(ValueError):
            ks_one_sample(np.arange(20.0), lambda x: np.asarray(x) * 0.0 - 0.5)
        with pytest.raises(ValueError):
            ks_one_sample(np.arange(20.0), lambda x: np.full(np.shape(x), 2.0))


class TestKsTwoSample:
    @property
    def rng(self):
        return np.random.default_rng(1301)

    def test_statistic_matches_scipy(self):
        rng = self.rng
        a = rng.exponential(size=700)
        b = rng.exponential(size=900)
        got = ks_two_sample(a, b)
        ref = sps.ks_2samp(a, b, method="asymp")
        assert got.statistic == pytest.approx(ref.statistic, rel=1e-12)

    def test_p_value_identity_and_scipy_neighbourhood(self):
        rng = self.rng
        a = rng.exponential(size=700)
        b = rng.exponential(size=900)
        got = ks_two_sample(a, b)
        n_eff = 700 * 900 / 1600
        assert got.p_value == pytest.approx(
            kolmogorov_sf(math.sqrt(n_eff) * got.statistic), rel=1e-12
        )
        # scipy's asymptotic two-sample p carries a finite-sample
        # continuity correction; agreement is approximate by design.
        ref = sps.ks_2samp(a, b, method="asymp")
        assert got.p_value == pytest.approx(ref.pvalue, rel=0.2)

    def test_symmetry(self):
        rng = self.rng
        a = rng.normal(size=300)
        b = rng.normal(size=450)
        assert ks_two_sample(a, b) == ks_two_sample(b, a)

    def test_monotone_transform_invariance(self):
        rng = self.rng
        a = rng.normal(size=256)
        b = rng.normal(size=256)
        plain = ks_two_sample(a, b)
        warped = ks_two_sample(np.exp(a), np.exp(b))
        assert warped.statistic == plain.statistic
        assert warped.p_value == plain.p_value

    def test_identical_samples(self):
        a = np.linspace(1.0, 2.0, 50)
        res = ks_two_sample(a, a.copy())
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_separated_samples_reject(self):
        a = np.linspace(0.0, 1.0, 200)
        b = np.linspace(5.0, 6.0, 200)
        res = ks_two_sample(a, b)
        assert res.statistic == 1.0
        assert res.p_value < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            ks_two_sample(np.arange(5.0), np.arange(20.0))
        with pytest.raises(ValueError):
            ks_two_sample(np.arange(20.0), np.arange(5.0))
        with pytest.raises(ValueError):
            ks_two_sample(np.arange(20.0), np.array([math.nan] * 20))
        for bad, match in (([], "at least 10"), ([1.0, math.nan] * 10, "NaN")):
            with pytest.raises(ValueError, match=match):
                ks_two_sample(np.array(bad), np.arange(20.0))
            with pytest.raises(ValueError, match=match):
                ks_two_sample(np.arange(20.0), np.array(bad))

    def test_tied_atoms_hand_case(self):
        # Right-continuous ECDFs (the fraction <= x) on both sides, so tied
        # atoms count in full at their value: at 1 the gap is 5/10 - 2/10, at
        # 2 it is 10/10 - 8/10, at 3 none.  A walk through the pooled order
        # that steps one point at a time would read a larger gap inside a tie.
        a = np.array([2.0, 1.0] * 5)
        b = np.array([3.0, 2.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 3.0, 2.0])
        a_in, b_in = a.copy(), b.copy()
        res = ks_two_sample(a, b)
        assert res.statistic == pytest.approx(0.3, abs=1e-15)
        assert res.p_value == kolmogorov_sf(math.sqrt(5.0) * res.statistic)
        same = ks_two_sample(np.repeat([1.0, 2.0], 10), np.repeat([2.0, 1.0], 10))
        assert same.statistic == 0.0
        # The samples are sorted in copies, not in place.
        assert np.array_equal(a, a_in) and np.array_equal(b, b_in)


class TestEmpiricalLaplace:
    def test_hand_values(self):
        sample = np.array([0.0, 1.0])
        est = empirical_laplace(sample, 1.0)
        expected = (1.0 + math.exp(-1.0)) / 2.0
        assert est.mean == pytest.approx(expected, rel=1e-15)
        # sample std of {1, e^-1} over sqrt(2)
        transformed = np.exp(-sample)
        se = float(np.std(transformed, ddof=1)) / math.sqrt(2.0)
        assert est.standard_error == pytest.approx(se, rel=1e-14)

    def test_concentrates_on_truth(self):
        rng = np.random.default_rng(1401)
        sample = rng.exponential(size=40000)
        est = empirical_laplace(sample, 2.0)
        assert est.mean == pytest.approx(1.0 / 3.0, abs=4.0 * est.standard_error)
        assert est.standard_error < 0.01

    def test_single_sample(self):
        est = empirical_laplace(np.array([2.0]), 1.0)
        assert est.mean == pytest.approx(math.exp(-2.0))
        assert est.standard_error == 0.0

    def test_deep_argument_underflows_cleanly(self):
        est = empirical_laplace(np.array([1.0, 2.0]), 1e6)
        assert est.mean == 0.0 and est.standard_error == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_laplace(np.array([]), 1.0)
        with pytest.raises(ValueError):
            empirical_laplace(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            empirical_laplace(np.array([1.0]), math.nan)

    def test_nan_sample_raises(self):
        # It used to give a NaN mean and standard error.
        with pytest.raises(ValueError, match="NaN"):
            empirical_laplace(np.array([1.0, math.nan, 2.0]), 1.0)

    def test_infinite_argument_raises(self):
        # s = inf on a zero sample used to form -inf * 0 ("invalid value").
        with pytest.raises(ValueError, match="transform argument"):
            empirical_laplace(np.array([0.0, 1.0]), math.inf)


class TestMcStandardError:
    def test_binomial_half(self):
        assert mc_standard_error(0.5, 10000) == pytest.approx(0.005, rel=1e-12)

    def test_degenerate(self):
        assert mc_standard_error(0.0, 100) == 0.0
        assert mc_standard_error(1.0, 100) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_standard_error(-0.1, 100)
        with pytest.raises(ValueError):
            mc_standard_error(1.1, 100)
        with pytest.raises(ValueError):
            mc_standard_error(0.5, 0)


class TestPoissonBelow:
    # Q(n, m) to 25 digits, from a 50-digit mpmath evaluation.
    MP_VALUES = [
        (1, 0.5, "0.6065306597126334236037995"),
        (2, 0.001, "0.9999995003332083666597026"),
        (3, 20.0, "0.0000004555149505589212799804728"),
        (5, 300.0, "1.760917694683184199791263e-122"),
        (10, 700.0, "1.110692465019363619682252e-284"),
        (10, 5.0, "0.9681719426937951882628134"),
    ]

    @pytest.mark.parametrize("n, m, value", MP_VALUES)
    def test_within_four_ulps_of_fifty_digit_values(self, n, m, value):
        got = poisson_below(n, np.array([m]))[0]
        assert abs(got - float(value)) <= 4.0 * np.spacing(float(value))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_scipy_incomplete_gamma(self, n):
        # scipy's gammaincc loses about m/2.5 ulps at large m (255 ulps at
        # n = 1, m = 654 against mpmath, where the finite sum is within 0.2);
        # the two agree within 3.1 eps * max(1, m) on this grid.
        m = np.geomspace(1e-3, 700.0, 3000)
        ref = sc.gammaincc(n, m)
        got = poisson_below(n, m)
        assert np.all(np.abs(got - ref) <= 4.0 * EPS * np.maximum(1.0, m) * ref)

    @pytest.mark.filterwarnings("error")
    def test_limits_and_overflow(self):
        m = np.array([0.0, 745.0, 1e6, 1e300, math.inf])
        for n in (1, 3, 100):
            got = poisson_below(n, m)
            assert got[0] == 1.0
            assert np.all(got[1:] >= 0.0) and np.all(got[2:] == 0.0)
