"""Tests for the Levy tail-function algebra.

Closed-form families are pinned against hand values; the generalised
inverse is checked against its defining sandwich inequality and against
an independent log-bisection oracle; small-jump means are cross-checked
with weighted adaptive quadrature.  The quadrature oracle must carry the
``x**-a`` endpoint weight explicitly (``quad(..., weight="alg")``) —
plain ``quad`` silently loses 3-4 digits at the singular endpoint and is
not a valid reference here.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, special

from subortrim import levy
from subortrim.levy import (
    Constant,
    LogPower,
    RationalPerturb,
    StableExact,
    TailFunction,
    constant_tail,
    log_power_tail,
    log_small_jump_mean,
    parse_tail,
    rational_tail,
    small_jump_mean,
    stable_tail,
    tail_eval,
    tail_eval_from_log,
    tail_inverse,
    tail_inverse_log,
)

# Roots of x**-a / (1+x) = u, frozen from a 400-step geometric bisection
# run independently of the package code.
RATIONAL_ROOTS = {
    (0.5, 1.0): 0.46557123187676802,
    (0.5, 0.25): 1.9010803402881387,
    (0.3, 2.0): 0.077385979290805346,
}

EPS = np.finfo(float).eps

ALL_FAMILIES = [
    constant_tail(2.0, 0.5),
    stable_tail(0.5),
    log_power_tail(),
    log_power_tail(2.0),
    log_power_tail(2.5),
    rational_tail(0.5),
    rational_tail(0.05),
]


def _oracle_root(tail, u, lo=1e-290, hi=1e290):
    """Geometric bisection on the linear abscissa; package-independent."""
    for _ in range(400):
        mid = math.sqrt(lo * hi)
        if float(tail_eval(tail, mid)) > u:
            lo = mid
        else:
            hi = mid
    return hi


class TestConstruction:
    @pytest.mark.parametrize(
        "spec", ["stable(0.5)", "rational(0.25)", "log", "logpow(2)", "const(2,0.5)"]
    )
    def test_parse_str_round_trip(self, spec):
        tail = parse_tail(spec)
        assert parse_tail(str(tail)) == tail

    def test_parse_is_whitespace_insensitive(self):
        assert parse_tail(" const( 2 , 0.5 ) ") == constant_tail(2.0, 0.5)

    @pytest.mark.parametrize(
        "spec",
        ["", "stable", "stable(a)", "stable(0.5,1)", "gauss(1)", "log(2)", "const(2)", "cauchy"],
    )
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_tail(spec)

    def test_index_range(self):
        with pytest.raises(ValueError):
            stable_tail(1.5)
        with pytest.raises(ValueError):
            stable_tail(-0.1)

    def test_index_one_only_for_pure_powers(self):
        # Index one is admitted for no factor, the pure powers included.
        for build in (stable_tail, rational_tail, lambda a: constant_tail(3.0, a)):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                build(1.0)
        with pytest.raises(ValueError):
            TailFunction(alpha=1.0, factor=LogPower(1.0))

    def test_zero_index_needs_log_power(self):
        assert log_power_tail().alpha == 0.0
        with pytest.raises(ValueError):
            stable_tail(0.0)
        with pytest.raises(ValueError):
            rational_tail(0.0)

    def test_factor_parameter_validation(self):
        with pytest.raises(ValueError):
            constant_tail(0.0, 0.5)
        with pytest.raises(ValueError):
            log_power_tail(0.0)

    def test_log_power_is_zero_index_only(self):
        assert TailFunction(alpha=0.0, factor=LogPower(2.0)) == log_power_tail(2.0)
        for a in (0.35, 0.99):
            with pytest.raises(ValueError, match="zero-index only"):
                TailFunction(alpha=a, factor=LogPower(2.0))

    @pytest.mark.parametrize("p", [150.0, 172.0])
    def test_log_power_exponent_capped(self, p):
        # Gamma(p + 1) overflows past p = 171 and log(1/eps)**p at p = 150,
        # eps = 1e-60, so such tails are rejected rather than built.
        assert log_power_tail(100.0).factor.p == 100.0
        with pytest.raises(ValueError, match="exponent"):
            log_power_tail(p)
        with pytest.raises(ValueError, match="exponent"):
            parse_tail(f"logpow({p:g})")

    def test_unknown_factor_rejected(self):
        with pytest.raises(TypeError):
            TailFunction(alpha=0.5, factor="bogus")


class TestEval:
    @pytest.mark.parametrize(
        "tail, x, expected",
        [
            (stable_tail(0.5), 4.0, 0.5),
            (constant_tail(2.0**-0.5, 0.5), 2.0, 0.5),
            (constant_tail(2.0, 0.5), 4.0, 1.0),
            (log_power_tail(), math.exp(-3.0), 3.0),
            (log_power_tail(2.0), math.exp(-3.0), 9.0),
            (rational_tail(0.5), 1.0, 0.5),
            (rational_tail(0.5), 3.0, 3.0**-0.5 / 4.0),
        ],
    )
    def test_hand_values(self, tail, x, expected):
        assert tail_eval(tail, x) == pytest.approx(expected, rel=1e-14)

    def test_log_power_vanishes_beyond_one(self):
        tail = log_power_tail()
        assert tail_eval(tail, 1.0) == 0.0
        assert tail_eval(tail, 2.5) == 0.0

    @pytest.mark.parametrize("tail", ALL_FAMILIES)
    def test_infinite_argument_gives_zero(self, tail):
        assert tail_eval(tail, math.inf) == 0.0

    def test_vectorised_and_scalar(self):
        tail = stable_tail(0.5)
        xs = np.array([1.0, 4.0, 9.0])
        out = tail_eval(tail, xs)
        assert out.shape == xs.shape
        assert out == pytest.approx([1.0, 0.5, 1.0 / 3.0])
        assert isinstance(tail_eval(tail, 4.0), float)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            tail_eval(stable_tail(0.5), bad)

    def test_log_domain_deep_exponent(self):
        assert tail_eval_from_log(log_power_tail(), -1e6) == 1e6
        assert tail_eval_from_log(stable_tail(0.5), -700.0) == pytest.approx(
            math.exp(350.0), rel=1e-15
        )

    def test_log_domain_rejects_nan(self):
        with pytest.raises(ValueError):
            tail_eval_from_log(stable_tail(0.5), math.nan)

    @pytest.mark.parametrize("tail", ALL_FAMILIES)
    def test_log_domain_matches_linear(self, tail):
        xs = np.geomspace(1e-6, 0.9, 40)
        assert tail_eval_from_log(tail, np.log(xs)) == pytest.approx(
            np.asarray(tail_eval(tail, xs)), rel=1e-13
        )

    @pytest.mark.parametrize("tail", ALL_FAMILIES)
    def test_nonincreasing(self, tail):
        xs = np.geomspace(1e-10, 20.0, 200)
        vals = np.asarray(tail_eval(tail, xs))
        assert np.all(np.diff(vals) <= 0.0)


class TestInverse:
    @pytest.mark.parametrize("tail", ALL_FAMILIES, ids=str)
    def test_sandwich_holds_everywhere(self, tail):
        # u = inf (the tail is unbounded at 0+) has the inverse 0, log -inf.
        rng = np.random.default_rng(1820261)
        u = np.append(10.0 ** rng.uniform(-8.0, 8.0, 4000), math.inf)
        log_x = np.asarray(tail_inverse_log(tail, u))
        assert np.all(np.asarray(tail_eval_from_log(tail, log_x)) <= u)
        assert np.all(np.isfinite(log_x[:-1])) and log_x[-1] == -math.inf
        assert tail_inverse_log(tail, math.inf) == -math.inf

    @pytest.mark.parametrize("tail", ALL_FAMILIES, ids=str)
    def test_inverse_is_the_infimum(self, tail):
        # A step back of 1e-6 in the log abscissa must overshoot u again;
        # far larger than any solver tolerance, far smaller than the scale.
        rng = np.random.default_rng(1820262)
        u = 10.0 ** rng.uniform(-6.0, 6.0, 2000)
        log_x = np.asarray(tail_inverse_log(tail, u))
        assert np.all(np.asarray(tail_eval_from_log(tail, log_x - 1e-6)) > u)

    @pytest.mark.parametrize("tail", ALL_FAMILIES, ids=str)
    def test_linear_wrapper_composition(self, tail):
        # Below the normal range the linear value degrades to a subnormal
        # or to exactly 0.0 (documented: use the log form there); the
        # composition guarantee is checked on the normal range only.
        rng = np.random.default_rng(1820263)
        u = 10.0 ** rng.uniform(-6.0, 6.0, 1000)
        log_x = np.asarray(tail_inverse_log(tail, u))
        x = np.asarray(tail_inverse(tail, u))
        deep = log_x < -700.0
        assert np.all(x[deep] < 1e-300)
        ok = ~deep
        assert np.all(x[ok] > 0.0)
        # One rounding step of x near x = 1 shifts a zero-index tail value
        # by ~1 ulp absolutely, hence the additive term; the hard <= u
        # guarantee lives in the log domain and is tested above.
        back = np.asarray(tail_eval(tail, x[ok]))
        assert np.all(back <= u[ok] * (1.0 + 1e-14) + 1e-12)

    def test_unit_log_power_identity_is_bitwise(self):
        tail = log_power_tail()
        u = np.concatenate(
            [10.0 ** np.linspace(-300.0, 300.0, 61), np.array([0.5, 1.0, 7.25])]
        )
        assert np.array_equal(np.asarray(tail_inverse_log(tail, u)), -u)
        assert tail_inverse_log(tail, 3.0) == -3.0

    def test_log_power_general_exponent(self):
        # tail = log(1/x)**p  =>  inverse log-abscissa is -u**(1/p)
        tail = log_power_tail(2.0)
        assert tail_inverse_log(tail, 9.0) == pytest.approx(-3.0, rel=1e-15)

    @pytest.mark.parametrize(
        "tail, u, expected_log",
        [
            (stable_tail(0.5), 0.5, math.log(4.0)),
            (constant_tail(0.5, 0.5), 0.25, math.log(4.0)),
            (constant_tail(2.0, 0.5), 1.0, math.log(4.0)),
        ],
    )
    def test_power_law_hand_values(self, tail, u, expected_log):
        assert tail_inverse_log(tail, u) == pytest.approx(expected_log, rel=1e-14)

    @pytest.mark.parametrize("key", sorted(RATIONAL_ROOTS))
    def test_rational_frozen_roots(self, key):
        a, u = key
        assert tail_inverse(rational_tail(a), u) == pytest.approx(
            RATIONAL_ROOTS[key], rel=1e-12
        )

    @pytest.mark.parametrize("a", [0.05, 0.3, 0.5, 0.9])
    def test_rational_matches_bisection_oracle(self, a):
        tail = rational_tail(a)
        rng = np.random.default_rng(1820264)
        for u in 10.0 ** rng.uniform(-4.0, 4.0, 25):
            got = tail_inverse_log(tail, float(u))
            assert got == pytest.approx(math.log(_oracle_root(tail, float(u))), abs=1e-9)

    def test_rational_deep_queries_stay_finite(self):
        # Far beyond any linear-domain bracket: the exponent must stay exact.
        tail = rational_tail(0.5)
        log_x = tail_inverse_log(tail, 1e250)
        assert log_x == pytest.approx(-2.0 * math.log(1e250), rel=1e-12)
        assert tail_eval_from_log(tail, log_x) <= 1e250

    def test_linear_inverse_may_underflow_to_zero(self):
        assert tail_inverse(stable_tail(0.5), 1e300) == 0.0
        assert tail_inverse_log(stable_tail(0.5), 1e300) == pytest.approx(
            -2.0 * math.log(1e300)
        )

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            tail_inverse_log(stable_tail(0.5), bad)

    def test_scalar_in_scalar_out(self):
        out = tail_inverse_log(rational_tail(0.5), 2.0)
        assert isinstance(out, float)

    @pytest.mark.parametrize(
        "a, u", [(0.05, 8.505236006836121e192), (0.01, 7.935019987433316e35)]
    )
    def test_rational_deep_small_index_converges(self, a, u):
        # At |y| >= 4096 one ulp of y exceeds the absolute Newton tolerance;
        # the rounded iteration used to cycle between adjacent floats here.
        tail = rational_tail(a)
        log_x = tail_inverse_log(tail, u)
        assert log_x == pytest.approx(-math.log(u) / a, rel=1e-14)
        assert tail_eval_from_log(tail, log_x) <= u
        vec = np.asarray(tail_inverse_log(tail, np.array([u, 2.0, u * 3.0])))
        assert vec[0] == log_x
        assert np.all(np.asarray(tail_eval_from_log(tail, vec)) <= [u, 2.0, u * 3.0])

    @pytest.mark.filterwarnings("error")
    def test_rational_root_above_exp_range_is_quiet(self):
        # The root lies above log x = 709.78, where exp(log_x) in the
        # nudge's recomposition overflows to inf: the limit, not an error.
        tail = rational_tail(0.01)
        log_x = tail_inverse_log(tail, 5e-324)
        assert log_x == pytest.approx(737.0693781399814, rel=1e-15)
        assert tail_eval_from_log(tail, log_x) <= 5e-324

    @pytest.mark.parametrize("u", [1e155, np.array([2.0, 1e300])])
    def test_overflowing_log_abscissa_raises(self, u):
        # log(1/x)**0.5 = u needs log x = -u**2, below -1.8e308.
        with pytest.raises(ValueError, match="overflows"):
            tail_inverse_log(log_power_tail(0.5), u)


# sha256 of tail_inverse_log's output bytes on seeded queries, and the bits
# of scalar results.  The closed-form entries were recorded before the
# solvers were rewritten to iterate only over unsettled elements, and the
# nudge's per-element stopping rule keeps every one of their bits.  The
# rational entries were re-recorded when Newton began from the closer power
# anchor with one fixed-point correction and dropped each element at its own
# tolerance: that moves the last bits of some roots (the scalar rational(0.9)
# at 0.37 from ...38a0p-3 to ...389fp-3).  The rational "2d" entries were
# re-recorded again when the Newton step's softplus moved from np.logaddexp
# to vectorised exp and log1p: 29 (rational(0.5)) and 40 (rational(0.9)) of
# 4000 roots moved, by at most 64 and 15 ulps; no "1d" root moved.  The
# rational(0.9) entries were re-recorded when the bound began to settle deep
# roots with one or two fixed-point steps and no Newton step: 77 of 4000
# ("2d") and 2 of 3000 ("1d") roots moved, each by 1 ulp; no rational(0.5)
# root moved.
PINNED_INVERSE_SHA256 = {
    ("stable(0.5)", "2d"): "80403327a4c71d3380b1a2e641895c1a0b9bd8ff97318cb9b066200396e14852",
    ("stable(0.5)", "1d"): "e3cee6beca4f94c271169aca76986428011543a8d3c7a66937b9d588df5932c5",
    ("const(2,0.5)", "2d"): "eac47af8162ae908c00d97962b7d33fb663a9b6d753c815572c541ef6adb03c0",
    ("const(2,0.5)", "1d"): "d6164a23f96edc47b3be2b764dc4d685a70bb28ae785f6cd11efec3bab612342",
    ("rational(0.5)", "2d"): "c9c9f1ec8af442523c770c89137c96d1623f2ab6d3ba48d4010475c4f56d56a4",
    ("rational(0.5)", "1d"): "8e430b73f548c8d77c5ab50db9ad123a720c5a9e4ede4a578835aef35286e775",
    ("rational(0.9)", "2d"): "0693e4e2ea4f2b580d9b7690b3be5de3ca1f890b062a1fcbd765fe959910b104",
    ("rational(0.9)", "1d"): "4a8c203ce93d1846bb14ba57bc7745db51e9898e270a3b7027991651bf620e01",
    ("log", "2d"): "f0205d06791b083fedee3b7e0fc6ff1e020c99b14949ca0ed546ede3e9cc7381",
    ("log", "1d"): "1f667c9aff715170366b04d488a1acc8cc369dd58ab7cf5e123be13e553289ca",
    ("logpow(2.5)", "2d"): "60fcbb6f7e6bb42c901922df192a493d2b83cceec5178093f2f5803410adfc8b",
    ("logpow(2.5)", "1d"): "f938477fb96731ba245479cd9cccb093f15da5f77fafc6a28f0894c2d5e7bec1",
}

PINNED_SCALAR_INVERSE_HEX = {
    ("stable(0.5)", 3.0): "-0x1.193ea7aad030ap+1",
    ("stable(0.5)", 0.37): "0x1.fd0ea24bf89b7p+0",
    ("stable(0.5)", 2.5e7): "-0x1.108cd8bc5b176p+5",
    ("const(2,0.5)", 3.0): "-0x1.9f323ecbf984dp-1",
    ("const(2,0.5)", 0.37): "0x1.aff9691dce1d3p+1",
    ("const(2,0.5)", 2.5e7): "-0x1.0575b73cddfa7p+5",
    ("rational(0.5)", 3.0): "-0x1.3002e601df9e1p+1",
    ("rational(0.5)", 0.37): "0x1.298f9e87ed5cdp-2",
    ("rational(0.5)", 2.5e7): "-0x1.108cd8bc5b177p+5",
    ("rational(0.9)", 3.0): "-0x1.7437edccd6f45p+0",
    ("rational(0.9)", 0.37): "0x1.b05700c04389fp-3",
    ("rational(0.9)", 2.5e7): "-0x1.2ed5629a315e1p+4",
    ("log", 3.0): "-0x1.8000000000000p+1",
    ("log", 0.37): "-0x1.7ae147ae147aep-2",
    ("log", 2.5e7): "-0x1.7d78400000000p+24",
    ("logpow(2.5)", 3.0): "-0x1.8d45c06468a87p+0",
    ("logpow(2.5)", 0.37): "-0x1.57fe6b850aee7p-1",
    ("logpow(2.5)", 2.5e7): "-0x1.c7241be702546p+9",
}


def _pinned_queries():
    rng = np.random.default_rng(20261018)
    return {
        "2d": 10.0 ** rng.uniform(-4.0, 10.0, (80, 50)),
        "1d": 10.0 ** rng.uniform(-300.0, 300.0, 3000),
    }


class TestInversePinnedBits:
    @pytest.mark.parametrize("spec", sorted({k[0] for k in PINNED_INVERSE_SHA256}))
    def test_array_digests(self, spec):
        tail = parse_tail(spec)
        for name, u in _pinned_queries().items():
            out = tail_inverse_log(tail, u)
            assert out.dtype == np.float64 and out.shape == u.shape
            digest = hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
            assert digest == PINNED_INVERSE_SHA256[(spec, name)], name

    @pytest.mark.parametrize("key", sorted(PINNED_SCALAR_INVERSE_HEX))
    def test_scalar_bits(self, key):
        spec, u = key
        tail = parse_tail(spec)
        for query in (u, np.array(u)):
            out = tail_inverse_log(tail, query)
            assert type(out) is float
            assert out.hex() == PINNED_SCALAR_INVERSE_HEX[key]


# Block of the inverse's flattened query; the seam queries put their special
# elements at its multiples.
BLOCK = 2**14
SEAM_FAMILIES = [
    "stable(0.5)", "const(2,0.5)", "rational(0.05)", "rational(0.5)", "rational(0.9)", "log",
    "logpow(2.5)",
]
# sha256 of tail_inverse_log's output bytes on each family's seam query,
# recorded before long queries were solved in blocks.  The rational entries
# were re-recorded when the Newton step's softplus moved from np.logaddexp to
# vectorised exp and log1p: 7, 13 and 11 of 57 344 roots moved (rational
# 0.05, 0.5, 0.9), by at most 6, 8 and 2 ulps.  The rational(0.05) and
# rational(0.9) entries were re-recorded when the bound began to settle deep
# roots without Newton: 5 and 32 of 57 344 roots moved, each by 1 ulp; no
# rational(0.5) root moved.
PINNED_SEAM_SHA256 = {
    "stable(0.5)": "c1bf85f27c98f7758877bf5b4fcd949120aded98d095d5428806a640b54fce32",
    "const(2,0.5)": "0e406e6097c0f30c55ab6f87603cf275da06d3a97c2f28d5e56aee0c0fee9b05",
    "rational(0.05)": "5a40afb7b20ea1ca1c8c21bb26a2bef55e4989b1748beb5f3019720bffa78d36",
    "rational(0.5)": "31ac74051a1a1b94c15d5e0c58aba1c82456e227f5b13c79f2b701aebcb99b1b",
    "rational(0.9)": "f5b5ac497cf44bca43ca54f8195b08f03ef4de580254ab53a36dddf9b4b80b2e",
    "log": "a4bb463e68c7f402f793c61484125e3072bb1a26bc5c0a11fe365e228d06953b",
    "logpow(2.5)": "efc3f7d7cd070720e57324fe86b7d2a6070f5f6f59d32749eb622a6ef15e7ad0",
}


def _spy_nudges(monkeypatch):
    """Record, per solver call, the indices the nudge moved."""
    moved = []
    nudge = levy._nudge_inverse_log

    def spy(tail, log_x, u):
        before = log_x.copy()
        out = nudge(tail, log_x, u)
        moved.append(np.flatnonzero(out != before))
        return out

    monkeypatch.setattr(levy, "_nudge_inverse_log", spy)
    return moved


def _seam_query(tail, moved):
    """3.5 blocks of log-uniform rates with ``u = inf`` and nudged rates on block edges.

    ``moved`` is a nudge spy's record: the first nudged rate of a one-block
    call is copied to the first element of the second block and the last
    of the third.  The unit log-power tail is never nudged.
    """
    rng = np.random.default_rng(20261019)
    u = 10.0 ** rng.uniform(-300.0, 300.0, 7 * BLOCK // 2)
    tail_inverse_log(tail, u[:BLOCK])
    nudged = moved.pop()
    if nudged.size:
        u[BLOCK] = u[3 * BLOCK - 1] = u[nudged[0]]
    u[BLOCK - 1] = u[3 * BLOCK] = math.inf
    return u


class TestBlockedInverse:
    @pytest.mark.parametrize("spec", SEAM_FAMILIES)
    def test_blocks_equal_unaligned_slices(self, spec, monkeypatch):
        assert levy._INVERSE_BLOCK == BLOCK
        tail = parse_tail(spec)
        moved = _spy_nudges(monkeypatch)
        u = _seam_query(tail, moved)
        out = tail_inverse_log(tail, u)
        assert len(moved) == 4  # one solver call per block
        if spec != "log":
            assert moved[1][0] == 0 and moved[2][-1] == BLOCK - 1
        assert out[BLOCK - 1] == out[3 * BLOCK] == -math.inf
        cuts = [0, 5000, 21_000, 21_001, 40_000, u.size]
        pieces = [tail_inverse_log(tail, u[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        assert np.concatenate(pieces).tobytes() == out.tobytes()
        assert tail_inverse_log(tail, u.reshape(-1, 7)).tobytes() == out.tobytes()
        digest = hashlib.sha256(out.tobytes()).hexdigest()
        assert digest == PINNED_SEAM_SHA256[spec]

    def test_too_deep_query_in_the_last_block_raises(self):
        # log(1/x)**0.5 = 1e155 needs log x = -1e310, below -1.8e308.
        rng = np.random.default_rng(20261019)
        u = 10.0 ** rng.uniform(-8.0, 100.0, 7 * BLOCK // 2)
        tail_inverse_log(log_power_tail(0.5), u)
        u[-3] = 1e155
        with pytest.raises(ValueError, match="overflows"):
            tail_inverse_log(log_power_tail(0.5), u)


SPECIAL_ABSCISSAE = [
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1023, -(2.0**-1030), math.inf, -math.inf, math.nan
]


class TestUlpAndSoftplus:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 50),
            elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)
            .filter(lambda v: v != 0.0),
        )
    )
    @example(np.array([2.0**-1022, -(2.0**-1022), 2.0**-970, 2.0**-969, 4096.0, 2.0**1023]))
    def test_ulp_is_spacing_on_normal_floats(self, x):
        x = x[np.abs(x) < np.finfo(float).max]  # whose np.spacing overflows to inf
        assert levy._ulp(x).tobytes() == np.spacing(np.abs(x)).tobytes()

    def test_ulp_raw_formula_off_the_normal_range(self):
        # np.spacing gives 2**-1074 at zero and subnormals, NaN at infinities
        # and inf at the largest double; the raw exponent-bit formula gives
        # 0, inf and 2**971.
        x = np.array([0.0, -0.0, 5e-324, -(2.0**-1030), math.inf, -math.inf, math.nan])
        assert levy._ulp(x).tolist() == [0.0, 0.0, 0.0, 0.0, math.inf, math.inf, math.inf]
        assert np.isnan(np.spacing(np.abs(x[4:]))).all()
        assert levy._ulp(np.array([np.finfo(float).max]))[0] == 2.0**971

    def test_unsettled_keeps_the_spacing_results(self):
        ys = SPECIAL_ABSCISSAE + [1.0, -3.5, 4096.0, -1e300]
        steps = [0.0, 2.0**-45, 2.0**-30, 1e-12, 1.0, 1e300, math.inf, -math.inf, math.nan]
        pairs = np.array(list(itertools.product(ys, steps)))
        y, step = pairs[:, 0].copy(), pairs[:, 1].copy()
        got = levy._unsettled(y, step.copy())
        over = np.flatnonzero(~(np.abs(step) < levy._NEWTON_ATOL))
        with np.errstate(invalid="ignore"):
            want = over[~(np.abs(step)[over] < np.spacing(np.abs(y[over])))]
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("spec", ["rational(0.5)", "stable(0.5)", "const(2,0.5)"])
    def test_nudge_keeps_the_spacing_results(self, spec, monkeypatch):
        # Each finite abscissa is queried at a rate just below its tail, so
        # the nudge moves it; +inf and NaN never overshoot and stay put.
        tail = parse_tail(spec)
        log_x = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1023, -(2.0**-1030), -0.5, 3.0])
        u = np.nextafter(np.asarray(tail_eval_from_log(tail, log_x)), 0.0)
        log_x = np.append(log_x, [math.inf, math.nan])
        u = np.append(u, [1.0, 1.0])
        got = levy._nudge_inverse_log(tail, log_x.copy(), u)
        monkeypatch.setattr(levy, "_ulp", lambda x: np.spacing(np.abs(x)))
        want = levy._nudge_inverse_log(tail, log_x.copy(), u)
        assert got.tobytes() == want.tobytes()
        assert np.all(got[:-2] > log_x[:-2]) and got[-2] == math.inf and math.isnan(got[-1])
        with pytest.raises(ValueError, match="overflows"):
            levy._nudge_inverse_log(tail, np.array([-math.inf]), np.array([0.5]))

    def test_softplus_is_within_two_ulps_of_logaddexp(self):
        rng = np.random.default_rng(20261020)
        y = np.concatenate([
            np.linspace(-800.0, 800.0, 400_001), rng.uniform(-40.0, 40.0, 100_000),
            SPECIAL_ABSCISSAE[:6],
        ])
        got = levy._softplus(y, np.exp(-np.abs(y)))  # >= 0, so ulps are bit distances
        assert np.abs(got.view(np.int64) - np.logaddexp(0.0, y).view(np.int64)).max() <= 2

    def test_softplus_exact_values(self):
        y = np.array([0.0, -0.0, -math.inf, math.inf])
        got = levy._softplus(y, np.exp(-np.abs(y)))
        assert got.tolist() == [math.log(2.0), math.log(2.0), 0.0, math.inf]
        assert math.isnan(levy._softplus(np.array([math.nan]), np.array([math.nan]))[0])


@st.composite
def _inverse_queries(draw):
    """A tail family, an index in [0.01, 0.99], a shape (maybe empty), log-uniform u.

    Half the nonempty queries carry one u = inf.
    """
    family = draw(st.sampled_from(["stable", "const", "rational", "logpow"]))
    alpha = draw(st.floats(0.01, 0.99))
    p = draw(st.floats(0.25, 4.0))
    c = draw(st.floats(0.01, 100.0))
    tail = {
        "stable": stable_tail(alpha),
        "const": constant_tail(c, alpha),
        "rational": rational_tail(alpha),
        "logpow": log_power_tail(p),
    }[family]
    # The exact log inverse -u**(1/p) of a log-power tail must be a finite double.
    top = min(300.0, 300.0 * p) if family == "logpow" else 300.0
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6))
    exponents = draw(hnp.arrays(np.float64, shape, elements=st.floats(-8.0, top), fill=st.nothing()))
    if exponents.size and draw(st.booleans()):
        exponents.flat[draw(st.integers(0, exponents.size - 1))] = math.inf
    u = np.asarray(10.0**exponents)
    return tail, (float(u) if draw(st.booleans()) and u.ndim == 0 else u)


def _doubling_nudge(tail, log_x, u):
    """The nudge as it was before its offset started at the floor: ``(log_x, passes)``.

    Its offset starts at zero and becomes ``max(2 * delta, floor)`` on each
    pass; ``passes`` is the most passes any element took.
    """
    with np.errstate(over="ignore"):
        over = np.flatnonzero(levy._eval_from_log(tail, log_x) > u)
        if over.size == 0:
            return log_x, 0
        base, ua = log_x[over], u[over]
        floor = np.maximum(np.spacing(np.abs(base)), 2.0**-60)
        delta = np.zeros_like(base)
        for passes in range(1, levy._SOLVE_ITERS):
            delta *= 2.0
            np.maximum(delta, floor, out=delta)
            trial = base + delta
            log_x[over] = trial
            still = levy._eval_from_log(tail, trial) > ua
            if not np.any(still):
                return log_x, passes
            over, base, ua, floor, delta = (
                over[still], base[still], ua[still], floor[still], delta[still]
            )
    raise AssertionError("the reference nudge did not converge")


#: Abscissae near log x = 0, where one ulp of log x moves the tail by less
#: than one ulp of its value, so the nudge doubles its offset several times.
NEAR_ZERO = np.array([
    -0.75, -0.5, -0.1, -1e-3, -1e-10, -(2.0**-40), -1e-300, -5e-324, -0.0, 0.0,
    5e-324, 1e-300, 2.0**-40, 1e-10, 1e-3, 0.1, 0.5,
])


class TestNudgeFromTheFloor:
    @pytest.mark.parametrize("tail", ALL_FAMILIES + [rational_tail(0.9)], ids=str)
    def test_bits_of_the_doubling_loop(self, tail):
        # Rates k ulps below the tail at each abscissa: the nudge must move
        # every element to the abscissa the doubling loop reached.
        k = np.array([1.0, 3.0, 17.0, 100.0, 2.0**20])
        log_x = np.repeat(NEAR_ZERO, k.size)
        tails = np.asarray(tail_eval_from_log(tail, log_x))
        u = tails * (1.0 - np.tile(k, NEAR_ZERO.size) * EPS)
        live = u > 0.0  # the log-power tail is 0 at and beyond log x = 0
        log_x, u = log_x[live], u[live]
        want, passes = _doubling_nudge(tail, log_x.copy(), u)
        assert passes >= 3
        got = levy._nudge_inverse_log(tail, log_x.copy(), u)
        assert got.tobytes() == want.tobytes()
        assert np.all(np.asarray(tail_eval_from_log(tail, got)) <= u)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(ALL_FAMILIES),
        hnp.arrays(np.float64, st.integers(1, 30), elements=st.floats(-2.0, 2.0)),
        st.integers(0, 40),
    )
    def test_bits_of_the_doubling_loop_on_any_query(self, tail, log_x, shift):
        tails = np.asarray(tail_eval_from_log(tail, log_x))
        u = tails * (1.0 - 2.0**-shift)
        live = u > 0.0
        log_x, u = log_x[live], u[live]
        want, _ = _doubling_nudge(tail, log_x.copy(), u)
        got = levy._nudge_inverse_log(tail, log_x.copy(), u)
        assert got.tobytes() == want.tobytes()


class TestInverseProperties:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_inverse_queries())
    # A scalar round trip that once broke the sandwich: numpy's ``**`` on a
    # 0-d array (libm pow) and on a 1-d array (SIMD) differ in the last bit.
    @example((log_power_tail(0.94921875), float.fromhex("0x1.1cb00e299882ep+3")))
    def test_sandwich(self, query):
        tail, u = query
        log_x = tail_inverse_log(tail, u)
        assert np.shape(log_x) == np.shape(u)
        assert isinstance(log_x, float) == (np.ndim(u) == 0)
        assert np.array_equal(np.isfinite(log_x), np.isfinite(u))
        assert np.all(np.asarray(log_x)[np.isinf(u)] == -math.inf)
        assert np.all(np.asarray(tail_eval_from_log(tail, log_x)) <= u)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_inverse_queries())
    def test_inverse_is_tight(self, query):
        # The safe side is not bought with slack: a step of 2**-30 of the
        # log abscissa (absolute below 1) back from the inverse overshoots u.
        tail, u = query
        log_x = np.asarray(tail_inverse_log(tail, u))
        finite = np.isfinite(log_x)
        y = log_x[finite]
        back = np.asarray(tail_eval_from_log(tail, y - 2.0**-30 * np.maximum(1.0, np.abs(y))))
        assert np.all(back > np.asarray(u)[finite])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.05, 0.95),
    hnp.arrays(np.float64, st.integers(1, 64), elements=st.floats(0.0, 300.0)),
)
# At a = 0.5 these put L = exp(y0)/a near 2**-12 and 2**-18.5: Newton's roots
# under the bound's thresholds, the bound's roots under a loosened one.
@example(0.5, np.array([1.9567, 2.935]))
def _check_bound_meets_the_stop_rule(a, log10_u):
    """Each root the bound settles takes a Newton step below Newton's own stop rule."""
    u = 10.0**log10_u
    tau = np.log(u)
    settled = np.exp(np.divide(tau, -a)) < levy._SETTLED_BY_TWO_STEPS * a
    y = levy._newton_inverse_log_rational(a, u)[settled]
    step = levy._newton_step(a, y, tau[settled])
    assert levy._unsettled(y, step).size == 0


class TestSettledByTheBound:
    def test_settled_roots_meet_the_stop_rule(self):
        _check_bound_meets_the_stop_rule()

    @pytest.mark.parametrize("name", ["_SETTLED_BY_ONE_STEP", "_SETTLED_BY_TWO_STEPS"])
    def test_a_loosened_bound_fails(self, name, monkeypatch):
        # The property can fail: with L up to 2**-10 one or two fixed-point
        # steps leave roots far outside Newton's stop rule.
        monkeypatch.setattr(levy, name, 2.0**-10)
        with pytest.raises(AssertionError):
            _check_bound_meets_the_stop_rule()

    def test_deep_queries_take_no_newton_step(self, monkeypatch):
        sizes = []
        newton_step = levy._newton_step

        def spy(a, y, tau):
            sizes.append(y.size)
            return newton_step(a, y, tau)

        monkeypatch.setattr(levy, "_newton_step", spy)
        tail = rational_tail(0.5)
        u = 10.0 ** np.random.default_rng(20261020).uniform(8.0, 300.0, 5000)
        u[17] = math.inf
        log_x = tail_inverse_log(tail, u)
        assert sizes == []
        assert log_x[17] == -math.inf
        assert np.all(np.asarray(tail_eval_from_log(tail, log_x)) <= u)
        tail_inverse_log(tail, np.array([2.0, 1e8]))  # a shallow root does take Newton steps
        assert sizes and sizes[0] == 1


class TestSmallJumpMean:
    def test_pure_power_closed_form(self):
        # c * a/(1-a) * eps**(1-a)
        assert small_jump_mean(stable_tail(0.5), 0.25) == pytest.approx(0.5)
        assert small_jump_mean(constant_tail(2.0, 0.25), 0.5) == pytest.approx(
            2.0 * (0.25 / 0.75) * 0.5**0.75
        )

    @pytest.mark.parametrize("eps", [0.5, 0.1, 1e-6])
    def test_unit_log_power_mean_is_eps(self, eps):
        # integral_0^e log(1/x) dx - e log(1/e) telescopes to e exactly.
        assert small_jump_mean(log_power_tail(), eps) == pytest.approx(eps, rel=1e-13)

    def test_log_power_saturates_at_support_cap(self):
        full = small_jump_mean(log_power_tail(), 1.0)
        assert full == pytest.approx(1.0, rel=1e-13)
        assert small_jump_mean(log_power_tail(), 7.3) == full

    @pytest.mark.parametrize("eps", [0.5, 0.05, 1e-4])
    def test_squared_log_power_closed_form(self, eps):
        # Gamma(3, w) - e^-w w^2 = e^-w (2w + 2) at w = log(1/eps).
        w = math.log(1.0 / eps)
        assert small_jump_mean(log_power_tail(2.0), eps) == pytest.approx(
            eps * (2.0 * w + 2.0), rel=1e-12
        )

    @pytest.mark.parametrize("a", [0.05, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("eps", [1e-12, 1e-3, 0.5, 10.0])
    def test_rational_against_weighted_quadrature(self, a, eps):
        # By parts: mean = integral_0^e x**-a/(1+x) dx - e * tail(e); the
        # integral needs the algebraic-singularity weighting to be trusted.
        integral, err = integrate.quad(
            lambda x: 1.0 / (1.0 + x), 0.0, eps, weight="alg", wvar=(-a, 0.0)
        )
        assert err < 1e-7 * integral
        tail = rational_tail(a)
        expected = integral - eps * float(tail_eval(tail, eps))
        rel = max(1e-9, 20.0 * err / integral)
        assert small_jump_mean(tail, eps) == pytest.approx(expected, rel=rel)

    # The rational mean to 25 digits, from a 50-digit mpmath evaluation of
    # e**c/c * 2F1(1, c; c+1; -e) - e**c/(1+e) at c = 1 - a.  The indices
    # other than 0.05 are dyadic, so 1 - a is exact in double and the value
    # is that of the double arguments.  Levels up to 10 take the positive
    # series, the last two the hypergeometric closed form past the cap.
    RATIONAL_MP_VALUES = [
        (0.0625, 1e-06, "0.0000001580927278147694179065745"),
        (0.0625, 0.5, "0.1066520498760155388406856"),
        (0.0625, 1.0, "0.2483200668069544771325051"),
        (0.0625, 3.9749016274947477, "0.8855471449563717969971307"),
        (0.0625, 10.0, "1.5381701535168625667115"),
        (0.05, 3.9749016274947477, "0.8691425336836578997431487"),  # log eps = 1.38
        (0.3125, 1e-06, "0.00003408613097540101561461665"),
        (0.3125, 0.5, "0.3478302396698505430406959"),
        (0.3125, 1.0, "0.5806650330903132536355726"),
        (0.3125, 10.0, "1.812500572260277335950441"),
        (0.875, 1e-06, "1.244795606785811921277074"),
        (0.875, 1.0, "6.897213646204304189285749"),
        (0.875, 7.125950633568425, "7.859387629874968587616088"),
        (0.875, 10.0, "7.94242572125256161240775"),
        (0.3125, 50.0, "2.551711167340787382793255"),
        (0.3125, 1000.0, "3.293556220891533060061522"),
    ]

    @pytest.mark.parametrize("a, eps, value", RATIONAL_MP_VALUES)
    def test_rational_within_ten_ulps_of_fifty_digit_values(self, a, eps, value):
        # A 300-level scan of (1e-10, 10] per index reached 8.6 ulps (a =
        # 0.875, eps = 7.13); the closed form cancelled by 134 ulps of its
        # log at a = 0.05, log eps = 1.38.
        got = small_jump_mean(rational_tail(a), eps)
        assert abs(got - float(value)) <= 10.0 * np.spacing(float(value))

    def test_rational_series_meets_the_closed_form_at_the_cap(self):
        # The series serves levels up to 10, the closed form the next double.
        levels = np.array([10.0, np.nextafter(10.0, 11.0)])
        below, above = small_jump_mean(rational_tail(0.3), levels)
        assert above == pytest.approx(below, rel=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3, 10, 100])
    def test_integer_log_power_matches_incomplete_gamma(self, p):
        # The mean p Gamma(p, z) = p! Q(p, z) at z = log(1/eps), with the
        # finite sum Q(p, z) against scipy's: they agree within 4 eps *
        # max(1, z) of the mean for z up to max(50, p), the shallow branch's
        # range.
        z = np.geomspace(1e-3, max(50.0, p), 500)
        e = np.exp(-z)
        z = -np.log(e)
        want = math.gamma(p + 1.0) * special.gammaincc(p, z)
        got = small_jump_mean(log_power_tail(p), e)
        assert np.all(np.abs(got - want) <= 4.0 * EPS * np.maximum(1.0, z) * want)

    def test_non_integer_log_power_takes_scipy(self):
        # gammaincc is imported inside the branch for p Gamma(p, z).
        z = math.log(1.0 / 0.3)
        want = math.gamma(3.5) * special.gammaincc(2.5, z)
        assert small_jump_mean(log_power_tail(2.5), 0.3) == pytest.approx(want, rel=4.0 * EPS)

    def test_index_one_rejected(self):
        # Index one is rejected where the tail is built, before any mean.
        with pytest.raises(ValueError):
            small_jump_mean(stable_tail(1.0), 0.5)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_eps(self, bad):
        with pytest.raises(ValueError):
            small_jump_mean(stable_tail(0.5), bad)

    def test_monotone_in_eps(self):
        tail = rational_tail(0.4)
        eps = np.geomspace(1e-8, 5.0, 30)
        vals = [small_jump_mean(tail, float(e)) for e in eps]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestLogSmallJumpMean:
    @pytest.mark.parametrize(
        "tail",
        [stable_tail(0.5), constant_tail(2.0, 0.25), rational_tail(0.5), log_power_tail(), log_power_tail(2.0)],
        ids=str,
    )
    @pytest.mark.parametrize("log_eps", [-1.0, -10.0, -30.0])
    def test_matches_linear_route(self, tail, log_eps):
        assert log_small_jump_mean(tail, log_eps) == pytest.approx(
            math.log(small_jump_mean(tail, math.exp(log_eps))), rel=1e-10
        )

    def test_unit_log_power_is_exact_at_any_depth(self):
        tail = log_power_tail()
        assert log_small_jump_mean(tail, -5.0) == pytest.approx(-5.0, rel=1e-12)
        assert log_small_jump_mean(tail, -300.0) == -300.0
        assert log_small_jump_mean(tail, -1e7) == -1e7

    # log(p Gamma(p, w)) at w = -log_eps to 25 digits, from a 50-digit
    # mpmath evaluation at the double level (-48.9 is not exact in double).
    # The deepest levels are where the old route, Gamma(p+1, w) less the
    # boundary term e**-w w**p, cancelled (42 eps at p = 1, -48.9).
    LOG_POWER_MP_VALUES = [
        (1, -3.0, "-3.0"),
        (1, -40.0, "-40.0"),
        (1, -48.9, "-48.89999999999999857891453"),
        (2, -3.0, "-0.9205584583201640717483036"),
        (2, -40.0, "-35.593280752735746886716"),
        (2, -48.9, "-44.29683181668258031670886"),
        (3, -0.5, "1.777267285009755808614268"),
        (3, -10.0, "-4.097366666598633750436134"),
        (3, -40.0, "-31.47364887079899694482098"),
        (3, -48.9, "-39.98094418162573911618895"),
    ]

    @pytest.mark.parametrize("p, log_eps, value", LOG_POWER_MP_VALUES)
    def test_integer_log_power_within_two_eps_of_fifty_digit_values(self, p, log_eps, value):
        # A 400-level scan of [-50, 0) per p reached 1.3 eps * max(1, |v|).
        got = log_small_jump_mean(log_power_tail(p), log_eps)
        v = float(value)
        assert abs(got - v) <= 2.0 * EPS * max(1.0, abs(v))

    def test_squared_log_power_deep_expansion(self):
        # Gamma(3, w) - e^-w w^2 = e^-w (2w + 2): the tail expansion is
        # exact for p = 2, so depth costs no accuracy.
        z = -80.0
        assert log_small_jump_mean(log_power_tail(2.0), z) == pytest.approx(
            z + math.log(2.0 * 80.0 + 2.0), rel=1e-12
        )

    @pytest.mark.parametrize("p", [0.5, 3.0, 4.0, 7.5, 20.0, 60.0])
    @pytest.mark.parametrize("w", [50.1, 55.0, 120.0, 600.0])
    def test_deep_log_power_matches_incomplete_gamma(self, p, w):
        # The mean is p * Gamma(p, w) at w = -log_eps; the regularised form
        # is the oracle while it does not underflow (w up to about 700).
        oracle = math.log(p) + math.lgamma(p) + math.log(float(special.gammaincc(p, w)))
        assert log_small_jump_mean(log_power_tail(p), -w) == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("p", [60.0, 100.0])
    def test_large_exponent_matches_incomplete_gamma_at_every_depth(self, p):
        # Both sides of the w = 50 and p = w seams, from shallow to the
        # depth where the regularised oracle underflows.
        tail = log_power_tail(p)
        for w in np.geomspace(0.01, 700.0, 200):
            oracle = math.log(p) + math.lgamma(p) + math.log(float(special.gammaincc(p, w)))
            assert log_small_jump_mean(tail, -w) == pytest.approx(oracle, rel=3e-14, abs=3e-14)

    @pytest.mark.parametrize(
        "tail", [stable_tail(0.5), rational_tail(0.5), log_power_tail(), log_power_tail(2.5)], ids=str
    )
    def test_infinitely_deep_level_has_no_mass(self, tail):
        assert log_small_jump_mean(tail, -math.inf) == -math.inf

    @pytest.mark.parametrize("a", [0.05, 0.5, 0.9])
    def test_rational_deep_regime_hits_power_line(self, a):
        # Below the seam the mean must sit on log(a/(1-a)) + (1-a) z with
        # relative error O(exp(z)); test both sides of the -40 switch.
        tail = rational_tail(a)
        for z in (-39.5, -40.5, -200.0):
            line = math.log(a / (1.0 - a)) + (1.0 - a) * z
            assert log_small_jump_mean(tail, z) == pytest.approx(line, abs=1e-12)

    def test_power_family_any_depth(self):
        tail = stable_tail(0.5)
        assert log_small_jump_mean(tail, -500.0) == pytest.approx(-250.0)

    def test_index_one_rejected(self):
        # Index one is rejected where the tail is built, before any mean.
        with pytest.raises(ValueError):
            log_small_jump_mean(stable_tail(1.0), -1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            log_small_jump_mean(stable_tail(0.5), math.nan)


def _libm_log_small_jump_mean(tail, z):
    """The scalar route of ``log_small_jump_mean`` with libm and scalar scipy calls.

    The reference for the array kernels: the same branches and arithmetic,
    one level at a time.
    """
    a, f = tail.alpha, tail.factor
    if z == -math.inf:
        return -math.inf
    if isinstance(f, (Constant, StableExact)):
        c = f.c if isinstance(f, Constant) else 1.0
        return math.log(c * a / (1.0 - a)) + (1.0 - a) * z
    if isinstance(f, RationalPerturb):
        if z < -40.0:
            return math.log(a / (1.0 - a)) + (1.0 - a) * z
        e, c1 = math.exp(z), 1.0 - a
        hyp = float(special.hyp2f1(1.0, c1, c1 + 1.0, -e))
        return math.log(e**c1 * (hyp / c1 - 1.0 / (1.0 + e)))
    p, w = f.p, -z
    if w <= 50.0 or p >= w:
        e = math.exp(min(z, 0.0))
        v = -math.log(e) if e < 1.0 else 0.0
        return math.log(math.gamma(p + 1.0) * float(special.gammaincc(p, v)))
    series = num = den = 1.0
    last = math.inf
    for k in itertools.count(1):
        num *= p - k
        den *= w
        term = num / den
        if term == 0.0 or abs(term) >= last:
            break
        series += term
        last = abs(term)
        if last < 2.0**-60 * series:
            break
        if den > 2.0**500:
            num, den = term, 1.0
    return z + (p - 1.0) * math.log(w) + math.log(p * series)


@st.composite
def _mean_levels(draw):
    """A summable family and 1-d log levels: shallow, across each seam, deep, and -inf."""
    tail = draw(
        st.sampled_from(
            [stable_tail(0.5), constant_tail(2.0, 0.3), rational_tail(0.05), rational_tail(0.5),
             rational_tail(0.9), log_power_tail(), log_power_tail(0.5), log_power_tail(2.5),
             log_power_tail(60.0), log_power_tail(100.0)]
        )
    )
    level = (
        st.floats(-60.0, 0.0) | st.floats(-42.0, -38.0) | st.floats(-52.0, -48.0)
        | st.floats(-1e6, -60.0) | st.floats(-110.0, -90.0) | st.just(-math.inf)
    )
    size = draw(st.integers(1, 40))
    return tail, draw(hnp.arrays(np.float64, size, elements=level))


class TestLogSmallJumpMeanArrays:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_mean_levels())
    def test_array_equals_scalar_loop_bitwise(self, query):
        tail, z = query
        got = log_small_jump_mean(tail, z)
        assert isinstance(got, np.ndarray) and got.shape == z.shape
        loop = [log_small_jump_mean(tail, float(v)) for v in z]
        assert all(type(v) is float for v in loop)
        assert [float(v).hex() for v in got] == [v.hex() for v in loop]
        assert log_small_jump_mean(tail, z.reshape(1, -1)).shape == (1, z.size)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_mean_levels())
    def test_within_eight_eps_of_the_libm_route(self, query):
        # The array kernels use numpy's SIMD exp, log and pow where the
        # scalar route used libm; the two differ in the last bits, by at
        # most 4.1 eps * max(1, |v|) on a 6000-level scan, so 8 eps bounds
        # the move.  Branches of plain arithmetic keep every bit.
        tail, z = query
        got = np.asarray(log_small_jump_mean(tail, z))
        plain = isinstance(tail.factor, (Constant, StableExact))
        frozen = isinstance(tail.factor, RationalPerturb)  # below -40: a line, plain arithmetic
        for v, level in zip(got, z):
            ref = _libm_log_small_jump_mean(tail, float(level))
            if plain or ref == -math.inf or (frozen and level < -40.0):
                assert v == ref
            else:
                assert abs(v - ref) <= 8.0 * np.finfo(float).eps * max(1.0, abs(ref))

    def test_float_in_float_out(self):
        assert type(log_small_jump_mean(rational_tail(0.5), -3.0)) is float
        assert type(log_small_jump_mean(rational_tail(0.5), np.float64(-3.0))) is float
        assert type(small_jump_mean(log_power_tail(2.0), 0.25)) is float
        assert small_jump_mean(stable_tail(0.5), np.array([0.25, 1.0])) == pytest.approx([0.5, 1.0])

    def test_array_rejects_nan(self):
        with pytest.raises(ValueError):
            log_small_jump_mean(rational_tail(0.5), np.array([-1.0, math.nan]))
        with pytest.raises(ValueError):
            small_jump_mean(rational_tail(0.5), np.array([0.5, math.nan]))


class TestRegularVariation:
    def test_rational_power_ratio_limit(self):
        # tail(x)/tail(cx) -> c**alpha as x -> 0.
        tail = rational_tail(0.5)
        x = 1e-8
        for c in (0.5, 2.0, 5.0):
            ratio = float(tail_eval(tail, x)) / float(tail_eval(tail, c * x))
            assert ratio == pytest.approx(c**0.5, rel=1e-6)

    def test_log_power_slow_variation(self):
        tail = log_power_tail()
        devs = []
        for x in (1e-8, 1e-15, 1e-23, 1e-31):
            ratio = float(tail_eval(tail, 2.0 * x)) / float(tail_eval(tail, x))
            devs.append(abs(ratio - 1.0))
        assert all(b < a for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.02
