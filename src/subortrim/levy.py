"""Levy tail functions of driftless subordinators near zero.

A driftless subordinator is determined by its Levy measure ``Pi`` on
``(0, inf)``, summarised here through the tail function

    tail(x) = Pi((x, inf)),   x > 0,

which is nonincreasing, right-continuous and finite for every ``x > 0``.
All families in this module factor as ``tail(x) = x**-alpha * L(x)`` with
tail index ``alpha in [0, 1)`` and a factor ``L`` that varies slowly at 0,
so that small jumps dominate and the process is a.s. finite.

Four families are provided:

``Constant``         ``c * x**-alpha`` (exact power law, ``c > 0``)
``StableExact``      ``x**-alpha`` (the ``c == 1`` power law)
``LogPower``         ``log(1/x)**p`` on ``(0, 1)``, zero beyond (index 0, ``p <= 100``)
``RationalPerturb``  ``x**-alpha / (1 + x)``

``LogPower`` is the only admissible zero-index family here: its slowly
varying factor is nonincreasing and blows up at 0+, which a zero-index
tail must do to keep infinitely many small jumps.  Every operation on
every admitted tail is in closed form, a safe-side Newton solve or a
series of positive terms.  The small-jump means are elementary on every
path a run takes: a finite Poisson sum for integer log-power exponents and
a positive hypergeometric series for rational levels up to 10
(``_RATIONAL_SERIES_CAP``); ``scipy.special`` is imported only for a
non-integer exponent or a rational level above that cap.

Everything is vectorised: ``x`` / ``u`` arguments may be floats or numpy
arrays, and scalar input yields scalar output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .stats import poisson_below

__all__ = [
    "TailFunction",
    "Constant",
    "StableExact",
    "LogPower",
    "RationalPerturb",
    "constant_tail",
    "stable_tail",
    "log_power_tail",
    "rational_tail",
    "parse_tail",
    "tail_eval",
    "tail_eval_from_log",
    "tail_inverse",
    "tail_inverse_log",
    "small_jump_mean",
    "log_small_jump_mean",
]

# Solver contract: iteration cap, relative tolerance.
_SOLVE_ITERS = 200
_SOLVE_RTOL = 2.0 ** -40
#: Largest admitted log-power exponent.  The closed-form small-jump mean
#: builds Gamma(p + 1), which overflows a double past p = 171; up to 100 it
#: and the Poisson sum's terms ``z**j / j!`` stay finite at every level.
_LOG_POWER_MAX_P = 100.0
#: Largest level at which the rational small-jump mean is summed as a
#: positive series.  Its terms decay like ``(e / (1 + e))**k``: about 410
#: terms at 10, past 1800 at 50 and 30 000 at 1000.  Up to 10 the mean stays
#: within 9 ulps of 50-digit values; the hypergeometric closed form used
#: beyond cancels only near and below the cap.
_RATIONAL_SERIES_CAP = 10.0


@dataclass(frozen=True)
class Constant:
    """Slowly varying factor that is a positive constant ``c``."""

    c: float


@dataclass(frozen=True)
class StableExact:
    """Unit constant factor: the tail is exactly ``x**-alpha``."""


@dataclass(frozen=True)
class LogPower:
    """Factor ``log(1/x)**p`` on (0, 1), ``0 < p <= 100``; tail vanishes at 1."""

    p: float


@dataclass(frozen=True)
class RationalPerturb:
    """Factor ``1 / (1 + x)``: algebraic perturbation of a pure power."""


_FACTORS = (Constant, StableExact, LogPower, RationalPerturb)


@dataclass(frozen=True)
class TailFunction:
    """Tail of a Levy measure, ``tail(x) = x**-alpha * L(x)``.

    Parameters
    ----------
    alpha : float
        Tail index in ``[0, 1)``.
    factor : Constant | StableExact | LogPower | RationalPerturb
        The slowly varying factor ``L``.

    Notes
    -----
    Validation happens at construction: the index range, the zero-index
    admissibility rule (only ``LogPower`` has ``L`` nonincreasing with
    ``L(0+) = inf``, and it has index 0 only), and the factor-specific
    parameter constraints.  Every admitted combination has summable small
    jumps once ``alpha < 1``.
    """

    alpha: float
    factor: Constant | StableExact | LogPower | RationalPerturb

    def __post_init__(self):
        a = self.alpha
        if not isinstance(self.factor, _FACTORS):
            raise TypeError(f"unknown slowly varying factor: {self.factor!r}")
        if not 0.0 <= a < 1.0:
            raise ValueError(f"tail index must lie in [0, 1), got {a}")
        if a != 0.0 and isinstance(self.factor, LogPower):
            raise ValueError("log-power tails are zero-index only")
        if a == 0.0 and not isinstance(self.factor, LogPower):
            raise ValueError(
                "zero-index tails need a nonincreasing factor with L(0+) = inf; "
                "only the log-power family qualifies here"
            )
        if isinstance(self.factor, Constant) and not self.factor.c > 0.0:
            raise ValueError(f"constant factor must be positive, got {self.factor.c}")
        if isinstance(self.factor, LogPower) and not 0.0 < self.factor.p <= _LOG_POWER_MAX_P:
            raise ValueError(
                f"log-power exponent must lie in (0, {_LOG_POWER_MAX_P:g}], got {self.factor.p}"
            )

    def __str__(self):
        f = self.factor
        if isinstance(f, StableExact):
            return f"stable({self.alpha:g})"
        if isinstance(f, Constant):
            return f"const({f.c:g},{self.alpha:g})"
        if isinstance(f, LogPower):
            return "log" if f.p == 1.0 else f"logpow({f.p:g})"
        return f"rational({self.alpha:g})"


def constant_tail(c: float, alpha: float) -> TailFunction:
    """Tail ``c * x**-alpha`` with positive constant ``c``."""
    return TailFunction(alpha=float(alpha), factor=Constant(float(c)))


def stable_tail(alpha: float) -> TailFunction:
    """Tail ``x**-alpha`` of the normalised stable subordinator."""
    return TailFunction(alpha=float(alpha), factor=StableExact())


def log_power_tail(p: float = 1.0) -> TailFunction:
    """Tail ``log(1/x)**p`` on (0, 1); the zero-index workhorse."""
    return TailFunction(alpha=0.0, factor=LogPower(float(p)))


def rational_tail(alpha: float) -> TailFunction:
    """Tail ``x**-alpha / (1 + x)``: slowly varying but not eventually constant."""
    return TailFunction(alpha=float(alpha), factor=RationalPerturb())


def parse_tail(text: str) -> TailFunction:
    """Parse a tail-family config string.

    Accepted forms: ``stable(A)``, ``rational(A)``, ``log``, ``logpow(P)``,
    ``const(C,A)``.  Whitespace-insensitive.

    >>> str(parse_tail("stable(0.5)"))
    'stable(0.5)'
    """
    s = "".join(text.split()).lower()
    if s == "log":
        return log_power_tail()
    name, sep, rest = s.partition("(")
    if not sep or not rest.endswith(")"):
        raise ValueError(f"unparseable tail spec: {text!r}")
    args = rest[:-1].split(",")
    try:
        vals = [float(a) for a in args]
    except ValueError:
        raise ValueError(f"non-numeric argument in tail spec: {text!r}") from None
    if name == "stable" and len(vals) == 1:
        return stable_tail(vals[0])
    if name == "rational" and len(vals) == 1:
        return rational_tail(vals[0])
    if name == "logpow" and len(vals) == 1:
        return log_power_tail(p=vals[0])
    if name == "const" and len(vals) == 2:
        return constant_tail(vals[0], vals[1])
    raise ValueError(f"unknown tail family or arity: {text!r}")


def _validated(x, name: str):
    arr = np.asarray(x, dtype=float)
    if not (arr > 0.0).all():  # NaN fails the comparison too
        raise ValueError(f"{name} must be positive and not NaN")
    return arr


def _maybe_scalar(arr, like):
    return float(arr) if np.isscalar(like) or np.ndim(like) == 0 else arr


def tail_eval(tail: TailFunction, x) -> float | np.ndarray:
    """Evaluate ``tail(x) = x**-alpha * L(x)`` elementwise.

    ``x`` must be positive (``inf`` allowed, giving 0); log-power tails
    give 0 exactly at and beyond 1.
    """
    arr = _validated(x, "x")
    with np.errstate(divide="ignore", over="ignore"):
        out = _eval_from_log(tail, np.log(arr.reshape(-1)))
    return _maybe_scalar(out.reshape(arr.shape), x)


def tail_eval_from_log(tail: TailFunction, log_x) -> float | np.ndarray:
    """Evaluate the tail at ``x = exp(log_x)`` without forming ``x``.

    The log-domain entry point: ``log_x`` may lie far below the smallest
    positive double.  For ``LogPower`` the value ``(-log_x)**p`` is computed
    directly from the exponent, which keeps the deep small-jump regime
    exact.
    """
    arr = np.asarray(log_x, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("log_x must not be NaN")
    with np.errstate(over="ignore"):
        out = _eval_from_log(tail, arr.reshape(-1))
    return _maybe_scalar(out.reshape(arr.shape), log_x)


def _eval_from_log(tail: TailFunction, log_x: np.ndarray) -> np.ndarray:
    """The tail at ``exp(log_x)`` for 1-D ``log_x``.

    Every evaluation runs on a 1-D array, so a scalar is a one-element call
    of the same ufunc loops: numpy computes ``**`` and ``exp`` on a 0-d
    array with libm and on a 1-D array with its SIMD loops, which can
    differ in the last bit, and the nudge's bound must hold for the value
    the caller recomputes.
    """
    f = tail.factor
    if isinstance(f, LogPower):
        vals = np.maximum(-log_x, 0.0) ** f.p
        return np.where(log_x < 0.0, vals, 0.0)
    power = np.multiply(log_x, -tail.alpha)
    np.exp(power, out=power)
    if isinstance(f, (Constant, StableExact)):
        c = f.c if isinstance(f, Constant) else 1.0
        return c * power
    # RationalPerturb
    scale = np.exp(log_x)
    scale += 1.0
    power /= scale
    return power


def tail_inverse(tail: TailFunction, u) -> float | np.ndarray:
    """Generalised inverse ``inf{y > 0 : tail(y) <= u}`` elementwise.

    Thin wrapper over :func:`tail_inverse_log`; the composition guarantee
    ``tail_eval_from_log(tail, tail_inverse_log(tail, u)) <= u`` holds in
    the log domain by construction, and the exponentiated value here is
    within one rounding step of it.  For very large ``u`` the result may
    underflow to 0.0; use the log-domain form in that regime.
    """
    out = np.exp(tail_inverse_log(tail, u))
    return _maybe_scalar(out, u)


def tail_inverse_log(tail: TailFunction, u) -> float | np.ndarray:
    """Log of the generalised inverse: ``log inf{y : tail(y) <= u}``.

    Exact in the exponent for the closed-form families; in particular the
    unit log-power tail gives ``-u`` exactly, so arbitrarily large rate
    arguments stay representable.  For the rational family (see
    :func:`_newton_inverse_log_rational`) a fixed-point contraction bound
    settles the deep roots, those with ``L = u**(-1/a) / a <= 2**-18``,
    within ``2**-54`` in one or two steps: ``k`` steps from the anchor
    ``-log(u)/a`` leave a root within ``L**(k + 1)``.  Newton's method
    solves only the other roots, each to within ``max(log1p(2**-40),
    spacing(|y|))`` of its last step.  Every branch guarantees
    ``tail_eval_from_log(tail, result) <= u``, for array and scalar queries
    alike: a computed inverse is nudged up when its recomposition overshoots
    (never triggered where the round trip is exact, so the unit log-power
    identity is untouched).

    The solvers work on ``u`` flattened to 1-D, and the nudge drops an
    element once its recomposed tail is ``<= u``.  A query longer than
    ``_INVERSE_BLOCK`` (2**14) elements is solved one block of the
    flattened query at a time, so each of the solvers' elementwise passes
    runs over temporaries that stay in cache; every step is elementwise,
    so the blocks give the bits of one call over the whole query, and a
    query of at most one block takes the unblocked path unchanged.  A
    query whose exact log inverse overflows a double (log-power tails with
    ``p < 1`` and huge ``u``) raises ``ValueError``.  ``u = inf`` gives
    ``-inf`` for every family.
    """
    arr = _validated(u, "u")
    flat = arr.reshape(-1)
    if flat.size <= _INVERSE_BLOCK:
        out = _inverse_log_flat(tail, flat)
    else:
        out = np.empty(flat.shape)
        for lo in range(0, flat.size, _INVERSE_BLOCK):
            hi = lo + _INVERSE_BLOCK
            out[lo:hi] = _inverse_log_flat(tail, flat[lo:hi])
    return _maybe_scalar(out.reshape(arr.shape), u)


#: Elements per block of a long inverse query: 2**14 doubles are 128 kB per
#: temporary, so Newton's and the nudge's passes stay within a 2 MB L2 cache.
#: On a 2-vCPU VM with 2 MB of L2 per core, six horizons of a 2000 x 1000
#: rational query took 0.70 s in blocks of 2**14 against 1.02 s unblocked;
#: 2**12 did not help, and 2**16 and 2**18 took 0.73 s and 0.87 s.
_INVERSE_BLOCK = 2**14


def _inverse_log_flat(tail: TailFunction, flat: np.ndarray) -> np.ndarray:
    """:func:`tail_inverse_log` of a 1-D query of validated rates."""
    a, f = tail.alpha, tail.factor
    if isinstance(f, (Constant, StableExact)):
        c = f.c if isinstance(f, Constant) else 1.0
        return _nudge_inverse_log(tail, (math.log(c) - np.log(flat)) / a, flat)
    if isinstance(f, LogPower):
        # 0.0 - x, not -x: a root that underflows to zero stays +0.0.  One
        # that overflows to -inf is rejected by the nudge.
        with np.errstate(over="ignore"):
            root = 0.0 - flat ** (1.0 / f.p)
        return _nudge_inverse_log(tail, root, flat)
    return _nudge_inverse_log(tail, _newton_inverse_log_rational(a, flat), flat)


#: Newton's absolute step tolerance on the log abscissa.
_NEWTON_ATOL = math.log1p(_SOLVE_RTOL)

#: Largest ``L = exp(y0) / a`` at which one, and two, fixed-point steps from
#: the anchor ``y0 = -log(u)/a`` settle a rational root: ``k`` steps leave it
#: within ``L**(k + 1)``, and ``L**2`` and ``L**3`` are then ``<= 2**-54``.
_SETTLED_BY_ONE_STEP = 2.0**-27
_SETTLED_BY_TWO_STEPS = 2.0**-18


def _newton_inverse_log_rational(a: float, u: np.ndarray) -> np.ndarray:
    """Solve ``-a*y - log1p(exp(y)) = log(u)`` for ``y``, 1-D ``u``.

    The left side is strictly decreasing and concave in ``y``, and
    ``tail(x) <= x**-a`` and ``tail(x) <= x**(-a-1)``, so both power
    anchors ``-log(u)/a`` and ``-log(u)/(1+a)`` lie on the safe side of the
    root; the start is the closer one.

    Deep roots are settled by a bound, without Newton.  For ``u >= 1`` let
    ``y0 = -log(u)/a`` and ``L = exp(y0)/a``.  The root ``y*`` is the fixed
    point of ``F(y) = y0 - log1p(exp(y))/a``, which is decreasing on
    ``(-inf, y0]`` with slope ``sigmoid(y)/a``, at most ``L`` in size; and
    ``0 < y0 - y* = log1p(exp(y*))/a <= exp(y0)/a = L``.  So ``k`` steps of
    ``F`` from ``y0`` leave ``|y_k - y*| <= L**(k + 1)``.  Where ``L <=
    2**-27`` one step, and where ``L <= 2**-18`` two, leave a root within
    ``2**-54``, below one ulp of any such ``y`` (``|y| > 12``).  ``u =
    inf`` has the anchor ``-inf``, which is its root, and settles with it.

    Newton runs only on the other roots.  Where ``exp(y) < a/4`` (slope
    below 1/4) they first take one step of ``F`` from the anchor.  That
    step may cross the root, but a Newton step on a concave decreasing
    function lands on the safe side from either side, so the iteration
    converges quadratically without a finite bracket, and arbitrarily deep
    queries stay exact in the exponent.  A root leaves Newton once its own
    step is below ``max(log1p(2**-40), spacing(|y|))`` (the ``spacing`` is
    formed only for steps above the absolute tolerance).  From ``|y| >=
    4096`` on, one ulp of ``y`` exceeds the absolute tolerance and the
    rounded iteration could otherwise cycle between adjacent floats.  A
    final step may end on the unsafe side of the root; the caller's nudge
    restores the sandwich.
    """
    tau = np.log(u)
    y = np.divide(tau, -a)
    np.divide(tau, -1.0 - a, out=y, where=tau < 0.0)  # the closer anchor where u < 1
    with np.errstate(over="ignore"):
        fixed = np.exp(y)
    contracts = fixed < 0.25 * a
    settled = fixed < _SETTLED_BY_TWO_STEPS * a
    moving = np.flatnonzero(~settled)  # Newton's roots
    again = np.greater_equal(fixed, _SETTLED_BY_ONE_STEP * a)
    again &= settled  # the roots that take a second step
    del settled
    np.log1p(fixed, out=fixed)
    fixed /= a
    np.subtract(y, fixed, out=y, where=contracts)
    del contracts
    if again.any():
        # Masked passes, not a gather: the tier is a run of columns of each
        # ladder row, and on shallow horizons most of the query.
        np.exp(y, out=fixed, where=again)
        np.log1p(fixed, out=fixed, where=again)
        np.divide(fixed, a, out=fixed, where=again)
        np.divide(tau, -a, out=y, where=again)
        np.subtract(y, fixed, out=y, where=again)
    del fixed, again
    tau = tau[moving]
    ya = y[moving]
    for _ in range(_SOLVE_ITERS):
        if moving.size == 0:
            break
        step = _newton_step(a, ya, tau)
        ya += step
        y[moving] = ya
        keep = _unsettled(ya, step)
        moving, ya, tau = moving[keep], ya[keep], tau[keep]
    if moving.size:
        raise ArithmeticError("rational inverse iteration failed to converge")
    return y


def _newton_step(a: float, y: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Newton step ``resid / (a + sigmoid(y))`` on ``-a*y - softplus(y) - tau``.

    The softplus (see :func:`_softplus`) and the stable sigmoid ``(1 if
    y >= 0 else e) / (1 + e)`` share one ``e = exp(-|y|)``, so the step
    runs only numpy's vectorised ``exp`` and ``log1p``; ``np.logaddexp(0,
    y)``, the same formula, is a scalar libm loop.
    """
    e = np.abs(y)
    np.negative(e, out=e)
    np.exp(e, out=e)
    resid = _softplus(y, e)
    scratch = np.multiply(y, -a)
    np.subtract(scratch, resid, out=resid)
    resid -= tau
    sigmoid = np.add(e, 1.0, out=scratch)
    np.copyto(e, 1.0, where=y >= 0.0)
    np.divide(e, sigmoid, out=sigmoid)
    sigmoid += a
    resid /= sigmoid
    return resid


def _softplus(y: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``log(1 + exp(y))`` as ``max(y, 0) + log1p(e)``, given ``e = exp(-|y|)``.

    Exact at ``y = 0`` (``log 2``) and ``y = -inf`` (0), and within 2 ulps
    of ``np.logaddexp(0, y)`` on ``[-800, 800]``.
    """
    out = np.maximum(y, 0.0)
    out += np.log1p(e)
    return out


#: The exponent field of a float64's bits.
_EXPONENT_BITS = np.int64(0x7FF0_0000_0000_0000)


def _ulp(x: np.ndarray) -> np.ndarray:
    """``np.spacing(np.abs(x))`` of a float64 array from its exponent bits alone.

    Masking the bits to the exponent field gives ``2**floor(log2|x|)``, and
    its product with ``2**-52`` is exact (at worst a subnormal), so every
    normal ``x`` gives the bits of ``np.spacing``, in two vector passes
    where ``np.spacing`` runs a scalar ``nextafter`` loop.  Zero and
    subnormals give 0 (``np.spacing``: ``2**-1074``), infinities and NaN
    give ``inf`` (``np.spacing``: NaN), and the largest double gives
    ``2**971`` (``np.spacing``: inf).
    """
    ulp = np.bitwise_and(x.view(np.int64), _EXPONENT_BITS).view(np.float64)
    ulp *= 2.0**-52
    return ulp


def _unsettled(y: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Indices whose step is not below ``max(log1p(2**-40), spacing(|y|))``.

    ``step`` is overwritten with its absolute value.  A NaN step never
    settles, and neither does a step beside an infinite or NaN ``y``.
    """
    np.abs(step, out=step)
    over = np.flatnonzero(~(step < _NEWTON_ATOL))
    y_over = y[over]
    settled = step[over] < _ulp(y_over)
    settled &= np.isfinite(y_over)
    return over[~settled]


def _nudge_inverse_log(tail: TailFunction, log_x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Round a computed log inverse up until the tail drops to <= u.

    The offset starts at one ulp (at least ``2**-60``) and doubles while
    the recomposition still overshoots (a fixed one-ulp step can crawl:
    near ``log_x = 0`` one ulp of the abscissa moves the tail by less than
    one ulp of its value).  A result that already satisfies the bound is
    returned bitwise unchanged, so exact closed-form identities are never
    disturbed.

    ``log_x`` and ``u`` are 1-D of one length, and ``log_x`` is updated in
    place.  The first check runs over every element; each later pass grows
    and rechecks only the elements that still overshoot, and an element
    leaves that set once its recomposed tail is ``<= u``, after which its
    offset would never change again.  As in ``tail_eval_from_log``, an
    evaluation that overflows (``exp(log_x)`` of the rational factor above
    ``log_x = 709.78``) is the limit value, not an error.
    """
    with np.errstate(over="ignore"):
        over = np.flatnonzero(_eval_from_log(tail, log_x) > u)
        if over.size == 0:
            return log_x
        base, ua = log_x[over], u[over]
        if (base == -np.inf).any():
            raise ValueError("inverse query too deep: its log abscissa overflows")
        delta = _ulp(base)  # finite here: an infinite or NaN root never overshoots
        np.maximum(delta, 2.0**-60, out=delta)
        for _ in range(_SOLVE_ITERS - 1):
            trial = base + delta
            log_x[over] = trial
            still = _eval_from_log(tail, trial) > ua
            if not still.any():
                return log_x
            over, base, ua, delta = over[still], base[still], ua[still], delta[still]
            delta *= 2.0
    raise ArithmeticError("inverse rounding guard failed to converge")


def small_jump_mean(tail: TailFunction, eps) -> float | np.ndarray:
    """Mean jump mass below ``eps``: ``integral_(0, eps] x Pi(dx)``, elementwise.

    Computed through the integration-by-parts identity

        integral_0^eps tail(x) dx  -  eps * tail(eps),

    in closed form for every family but the rational one, which sums a
    series of positive terms up to level 10 (``_RATIONAL_SERIES_CAP``).
    Scalar input yields a float, from a one-element call.
    """
    arr = np.asarray(eps, dtype=float)
    if not (arr > 0.0).all():
        raise ValueError(f"eps must be positive, got {eps}")
    return _maybe_scalar(_small_jump_mean(tail, arr.reshape(-1)).reshape(arr.shape), eps)


def _small_jump_mean(tail: TailFunction, e: np.ndarray) -> np.ndarray:
    """:func:`small_jump_mean` of a summable tail at 1-D positive levels."""
    a, f = tail.alpha, tail.factor
    if isinstance(f, (Constant, StableExact)):
        c = f.c if isinstance(f, Constant) else 1.0
        return c * a / (1.0 - a) * e ** (1.0 - a)
    if isinstance(f, LogPower):
        # integral_0^e log(1/x)^p dx - e log(1/e)^p  ==  Gamma(p+1, z) - e z^p
        # at z = log(1/e), and the recurrence Gamma(p+1, z) = p Gamma(p, z) +
        # z^p e^-z (DLMF 8.8.2) makes that p Gamma(p, z) = Gamma(p+1) Q(p, z):
        # nothing is subtracted.  It is Gamma(p+1) at and beyond e = 1, and
        # for integer p the regularised Q(p, z) is the finite Poisson sum
        # (DLMF 8.4.8).
        p = f.p
        z = np.where(e < 1.0, -np.log(e), 0.0)
        if float(p).is_integer():
            regularised = poisson_below(int(p), z)
        else:
            from scipy.special import gammaincc  # non-integer p only

            regularised = gammaincc(p, z)
        return math.gamma(p + 1.0) * regularised
    # RationalPerturb: integral_0^e x**-a/(1+x) dx = e**c/c * 2F1(1, c; c+1; -e)
    # at c = 1 - a.  The Pfaff transformation (DLMF 15.8.1) makes that
    # 2F1 = (1+e)**-1 * sum_k k!/(c+1)_k w**k at w = e/(1+e), whose terms are
    # all positive; its k = 0 term, less c, absorbs the boundary term
    # e * tail(e) = e**c/(1+e), so nothing cancels.
    c = 1.0 - a
    out = np.empty(e.shape)
    series = e <= _RATIONAL_SERIES_CAP
    if series.any():
        es = e[series]
        scale = 1.0 + es
        out[series] = es**c / scale * (_rational_series(c, es / scale) / c)
    if not series.all():
        # Past the cap the series needs thousands of terms; the closed form
        # cancels only near and below it.
        from scipy.special import hyp2f1

        eh = e[~series]
        out[~series] = eh**c * (hyp2f1(1.0, c, c + 1.0, -eh) / c - 1.0 / (1.0 + eh))
    return out


def _rational_series(c: float, w: np.ndarray) -> np.ndarray:
    """``a + sum_{k>=1} t_k`` with ``t_1 = w/(c+1)``, ``t_{k+1} = t_k (k+1) w/(k+1+c)``.

    For 1-D ``w`` in ``[0, 1)`` and ``a = 1 - c``.  The terms are positive
    and decreasing, and an element leaves the active set once its term
    falls below ``2**-60`` of its total.  The total carries its rounding
    error separately (Neumaier's compensated sum): on scans of levels up to
    10 the mean stayed within 9 ulps of 50-digit values with it and reached
    16 with a plain running sum.
    """
    out = np.empty(w.shape)
    active = np.arange(w.size)
    term = w / (c + 1.0)
    total = term + (1.0 - c)
    carry = np.zeros(w.shape)
    for k in itertools.count(2):
        done = term < 2.0**-60 * total
        if done.any():
            out[active[done]] = total[done] + carry[done]
            go = ~done
            if not go.any():
                return out
            active, term, total, carry, w = active[go], term[go], total[go], carry[go], w[go]
        term *= k * w / (k + c)
        grown = total + term
        carry += (total - grown) + term  # exact while total >= term
        total = grown


def log_small_jump_mean(tail: TailFunction, log_eps) -> float | np.ndarray:
    """``log small_jump_mean(tail, exp(log_eps))`` for arbitrarily deep levels.

    Used for series compensation where the level itself underflows.  Below
    ``log_eps < -40`` the rational factor is frozen at its limit (relative
    error ``O(exp(log_eps))``); below ``-50`` the log-power mean is summed
    from the asymptotic series of ``p * Gamma(p, -log_eps)``, within a few
    ulps at any depth.  ``log_eps = -inf`` gives ``-inf``.  Elementwise:
    an array gives an array, a scalar a float (a one-element call).
    """
    arr = np.asarray(log_eps, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("log_eps must not be NaN")
    out = _log_small_jump_mean(tail, arr.reshape(-1))
    return _maybe_scalar(out.reshape(arr.shape), log_eps)


def _log_small_jump_mean(tail: TailFunction, z: np.ndarray) -> np.ndarray:
    """:func:`log_small_jump_mean` of a summable tail at 1-D levels without NaN."""
    a, f = tail.alpha, tail.factor
    if isinstance(f, (Constant, StableExact)):
        c = f.c if isinstance(f, Constant) else 1.0
        return math.log(c * a / (1.0 - a)) + (1.0 - a) * z
    if isinstance(f, RationalPerturb):
        out = math.log(a / (1.0 - a)) + (1.0 - a) * z
        shallow = z >= -40.0
        if shallow.any():
            out[shallow] = np.log(_small_jump_mean(tail, np.exp(z[shallow])))
        return out
    p, w = f.p, -z
    out = np.full(z.shape, -np.inf)
    shallow = (w <= 50.0) | (p >= w)  # beyond, the series grows from its first term
    if shallow.any():
        out[shallow] = np.log(_small_jump_mean(tail, np.exp(np.minimum(z[shallow], 0.0))))
    deep = np.flatnonzero(~shallow & (w < np.inf))
    if deep.size:
        wd = w[deep]
        series = _log_power_series(p, wd)
        out[deep] = z[deep] + (p - 1.0) * np.log(wd) + np.log(p * series)
    return out


def _log_power_series(p: float, w: np.ndarray) -> np.ndarray:
    """The sum in ``p Gamma(p, w) ~ p e^-w w^(p-1) sum_k (p-1)...(p-k) / w^k``.

    DLMF 8.11.2, for 1-D ``w > 50`` with ``p < w``: each element is summed
    until a term vanishes (integer ``p``), stops shrinking (by ``k = p +
    w``) or no longer counts, and leaves the active set then.  ``num /
    den`` keeps the bits of the exact sums of ``p`` in ``{1, 2, 3}``.
    """
    out = np.empty(w.shape)
    active = np.arange(w.size)
    series, num, den = np.ones(w.size), np.ones(w.size), np.ones(w.size)
    last = np.full(w.size, np.inf)
    for k in itertools.count(1):
        num *= p - k
        den *= w
        term = num / den
        size = np.abs(term)
        adds = (term != 0.0) & (size < last)
        series[adds] += term[adds]
        last = size
        done = ~adds | (last < 2.0**-60 * series)
        out[active[done]] = series[done]
        go = ~done
        if not go.any():
            return out
        active, series, num, den, w, term, last = (
            v[go] for v in (active, series, num, den, w, term, last)
        )
        rescale = den > 2.0**500
        num[rescale], den[rescale] = term[rescale], 1.0
