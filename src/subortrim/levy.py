"""Levy tail functions of driftless subordinators near zero.

A driftless subordinator is determined by its Levy measure ``Pi`` on
``(0, inf)``, summarised here through the tail function

    tail(x) = Pi((x, inf)),   x > 0,

which is nonincreasing, right-continuous and finite for every ``x > 0``.
All families in this module factor as ``tail(x) = x**-alpha * L(x)`` with
tail index ``alpha in [0, 1)`` and a factor ``L`` that varies slowly at 0,
so that small jumps dominate and the process is a.s. finite.  The index
``alpha == 1`` is admitted only as a jump-law helper (reciprocal tail);
its small jumps are not summable and mean-type operations reject it.

Four families are provided:

``Constant``         ``c * x**-alpha`` (exact power law, ``c > 0``)
``StableExact``      ``x**-alpha`` (the ``c == 1`` power law)
``LogPower``         ``log(1/x)**p`` on ``(0, 1)``, zero beyond (index 0, ``p <= 100``)
``RationalPerturb``  ``x**-alpha / (1 + x)``

``LogPower`` is the only admissible zero-index family here: its slowly
varying factor is nonincreasing and blows up at 0+, which a zero-index
tail must do to keep infinitely many small jumps.  Every operation on
every admitted tail is in closed form or a safe-side Newton solve.

Everything is vectorised: ``x`` / ``u`` arguments may be floats or numpy
arrays, and scalar input yields scalar output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

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
    "cauchy_tail",
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
#: builds Gamma(p + 1) and log(1/eps)**p, which overflow a double past
#: p = 171 and, at the smallest positive eps, past p = 107; up to 100 both
#: stay finite at every level.
_LOG_POWER_MAX_P = 100.0


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
        Tail index in ``[0, 1)``.  ``alpha == 1`` is allowed only for the
        ``Constant``/``StableExact`` factors, as a jump-law helper whose
        small jumps are not summable.
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
        if not (0.0 <= a < 1.0 or a == 1.0):
            raise ValueError(f"tail index must lie in [0, 1) (or ==1 helper), got {a}")
        if a == 1.0 and not isinstance(self.factor, (Constant, StableExact)):
            raise ValueError("index-1 helper tails must be pure power laws")
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
        # Small jumps are summable for every admitted combination: each
        # factor is integrable against x**-alpha near 0 once alpha < 1, so
        # no runtime probe is needed (is_summable reads the index alone).

    @property
    def is_summable(self) -> bool:
        """True when small jumps have finite mean mass (``alpha < 1``)."""
        return self.alpha < 1.0

    def __str__(self):
        f = self.factor
        if isinstance(f, StableExact):
            return "cauchy" if self.alpha == 1.0 else f"stable({self.alpha:g})"
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


def cauchy_tail() -> TailFunction:
    """Reciprocal tail ``1/x``: the index-1 jump-law helper."""
    return TailFunction(alpha=1.0, factor=StableExact())


def parse_tail(text: str) -> TailFunction:
    """Parse a tail-family config string.

    Accepted forms: ``stable(A)``, ``rational(A)``, ``log``, ``logpow(P)``,
    ``cauchy``, ``const(C,A)``.  Whitespace-insensitive.

    >>> str(parse_tail("stable(0.5)"))
    'stable(0.5)'
    """
    s = "".join(text.split()).lower()
    if s == "log":
        return log_power_tail()
    if s == "cauchy":
        return cauchy_tail()
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
    if arr.size and (np.any(np.isnan(arr)) or np.any(arr <= 0.0)):
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
        out = _eval_from_log(tail, np.log(arr))
    return _maybe_scalar(out, x)


def tail_eval_from_log(tail: TailFunction, log_x) -> float | np.ndarray:
    """Evaluate the tail at ``x = exp(log_x)`` without forming ``x``.

    The log-domain entry point: ``log_x`` may lie far below the smallest
    positive double.  For ``LogPower`` the value ``(-log_x)**p`` is computed
    directly from the exponent, which keeps the deep small-jump regime
    exact.
    """
    arr = np.asarray(log_x, dtype=float)
    if arr.size and np.any(np.isnan(arr)):
        raise ValueError("log_x must not be NaN")
    with np.errstate(over="ignore"):
        out = _eval_from_log(tail, arr)
    return _maybe_scalar(out, log_x)


def _eval_from_log(tail: TailFunction, log_x: np.ndarray) -> np.ndarray:
    f = tail.factor
    if isinstance(f, LogPower):
        vals = np.maximum(-log_x, 0.0) ** f.p
        return np.where(log_x < 0.0, vals, 0.0)
    power = np.exp(-tail.alpha * log_x)
    if isinstance(f, (Constant, StableExact)):
        c = f.c if isinstance(f, Constant) else 1.0
        return c * power
    # RationalPerturb
    return power / (1.0 + np.exp(log_x))


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
    arguments stay representable.  All branches guarantee
    ``tail_eval_from_log(tail, result) <= u``: the rational family's
    Newton iteration starts on the safe side of the root, and closed or
    iterated forms are nudged up when the recomposition overshoots (never
    triggered where the round trip is exact, so the unit log-power
    identity is untouched).

    The solvers work on ``u`` flattened to 1-D and stop per element:
    Newton drops an element once its step is exactly zero and ends when
    every step is below ``max(log1p(2**-40), spacing(|y|))``; the nudge
    drops an element once its recomposed tail is ``<= u``.  Dropping
    changes no bit against iterating every element to the end.  A query
    whose exact log inverse overflows a double (log-power tails with
    ``p < 1`` and huge ``u``) raises ``ValueError``.  ``u = inf`` gives
    ``-inf`` for every family.
    """
    arr = _validated(u, "u")
    flat = arr.reshape(-1)
    a, f = tail.alpha, tail.factor
    if isinstance(f, (Constant, StableExact)):
        c = f.c if isinstance(f, Constant) else 1.0
        out = _nudge_inverse_log(tail, (math.log(c) - np.log(flat)) / a, flat)
    elif isinstance(f, LogPower):
        # 0.0 - x, not -x: a root that underflows to zero stays +0.0.  One
        # that overflows to -inf is rejected by the nudge.
        with np.errstate(over="ignore"):
            root = 0.0 - flat ** (1.0 / f.p)
        out = _nudge_inverse_log(tail, root, flat)
    else:
        out = _nudge_inverse_log(tail, _newton_inverse_log_rational(a, flat), flat)
    return _maybe_scalar(out.reshape(arr.shape), u)


def _newton_inverse_log_rational(a: float, u: np.ndarray) -> np.ndarray:
    """Newton solve of ``-a*y - log1p(exp(y)) = log(u)`` for ``y``, 1-D ``u``.

    The left side is strictly decreasing and concave in ``y``, so starting
    from the pure-power anchor ``y0 = -log(u)/a`` (where the tail is already
    <= u, the perturbation only shrinking it) every Newton iterate stays on
    the safe side of the root, up to rounding, and the iteration converges
    quadratically.  It needs no finite bracket, so arbitrarily deep
    queries stay exact in the exponent.

    The first pass runs over every element; later passes run only over the
    elements whose last step was nonzero (a zero step is a fixed point, so
    dropping the element changes no bit).  The solve ends once every step
    is below ``max(log1p(2**-40), spacing(|y|))``: from ``|y| >= 4096`` on,
    one ulp of ``y`` exceeds the absolute tolerance and the rounded
    iteration can cycle between adjacent floats.  A cycle may end on the
    unsafe side of the root; the caller's nudge restores the sandwich.
    """
    tau = np.log(u)
    y = np.divide(tau, -a)
    with np.errstate(invalid="ignore"):
        step = _newton_step(a, y, tau)
    step[np.isinf(tau)] = 0.0  # u = inf: y = -inf is exact, and its step inf - inf is NaN
    y += step
    moving = np.flatnonzero(step)
    step = step[moving]
    tau = tau[moving]
    ya = y[moving]
    for _ in range(_SOLVE_ITERS - 1):
        if _newton_converged(ya, step):
            return y
        keep = step != 0.0
        del step
        moving = moving[keep]
        ya = ya[keep]
        tau = tau[keep]
        step = _newton_step(a, ya, tau)
        ya += step
        y[moving] = ya
    if not _newton_converged(ya, step):
        raise ArithmeticError("rational inverse iteration failed to converge")
    return y


def _newton_step(a: float, y: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Newton step ``resid / (a + sigmoid(y))`` with a stable sigmoid."""
    z = np.multiply(y, -a)
    resid = np.logaddexp(0.0, y)
    np.subtract(z, resid, out=resid)
    resid -= tau
    np.abs(y, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    sigmoid = np.add(z, 1.0)
    np.copyto(z, 1.0, where=y >= 0.0)
    np.divide(z, sigmoid, out=sigmoid)
    sigmoid += a
    resid /= sigmoid
    return resid


def _newton_converged(y: np.ndarray, step: np.ndarray) -> bool:
    """True when every step is below ``max(log1p(2**-40), spacing(|y|))``.

    A NaN step never counts as converged.
    """
    limit = np.maximum(math.log1p(_SOLVE_RTOL), np.spacing(np.abs(y)))
    return bool(np.all(np.abs(step) < limit))


def _nudge_inverse_log(tail: TailFunction, log_x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Round a computed log inverse up until the tail drops to <= u.

    The offset starts at one ulp and doubles while the recomposition still
    overshoots (a fixed one-ulp step can crawl: near ``log_x = 0`` one ulp
    of the abscissa moves the tail by less than one ulp of its value).  A
    result that already satisfies the bound is returned bitwise unchanged,
    so exact closed-form identities are never disturbed.

    ``log_x`` and ``u`` are 1-D of one length, and ``log_x`` is updated in
    place.  The first check runs over every element; each later pass grows
    and rechecks only the elements that still overshoot, and an element
    leaves that set once its recomposed tail is ``<= u``, after which its
    offset would never change again.
    """
    over = np.flatnonzero(_eval_from_log(tail, log_x) > u)
    if over.size == 0:
        return log_x
    base, ua = log_x[over], u[over]
    if np.any(np.isneginf(base)):
        raise ValueError("inverse query too deep: its log abscissa overflows")
    floor = np.spacing(np.abs(base))
    np.maximum(floor, 2.0**-60, out=floor)
    delta = np.zeros_like(base)
    for _ in range(_SOLVE_ITERS - 1):
        delta *= 2.0
        np.maximum(delta, floor, out=delta)
        trial = base + delta
        log_x[over] = trial
        still = _eval_from_log(tail, trial) > ua
        if not np.any(still):
            return log_x
        over, base, ua, floor, delta = over[still], base[still], ua[still], floor[still], delta[still]
    raise ArithmeticError("inverse rounding guard failed to converge")


def small_jump_mean(tail: TailFunction, eps) -> float:
    """Mean jump mass below ``eps``: ``integral_(0, eps] x Pi(dx)``.

    Computed through the integration-by-parts identity

        integral_0^eps tail(x) dx  -  eps * tail(eps),

    in closed form for every family.  Requires ``alpha < 1`` (summable
    small jumps).
    """
    e = float(eps)
    if not (e > 0.0) or math.isnan(e):
        raise ValueError(f"eps must be positive, got {eps}")
    if not tail.is_summable:
        raise ValueError("small jumps are not summable for tail index >= 1")
    a, f = tail.alpha, tail.factor
    if isinstance(f, (Constant, StableExact)):
        c = f.c if isinstance(f, Constant) else 1.0
        return c * a / (1.0 - a) * e ** (1.0 - a)
    if isinstance(f, LogPower):
        # integral_0^e log(1/x)^p dx - e log(1/e)^p  ==  Gamma(p+1, log(1/e)),
        # upper incomplete, minus the boundary term.
        z = -math.log(e) if e < 1.0 else 0.0
        gam = math.gamma(f.p + 1.0)
        upper = gam * float(special.gammaincc(f.p + 1.0, z)) if z > 0.0 else gam
        boundary = e * z ** f.p if z > 0.0 else 0.0
        return upper - boundary
    # RationalPerturb: integral_0^e x**-a/(1+x) dx
    # = e**(1-a)/(1-a) * 2F1(1, 1-a; 2-a; -e), so the by-parts identity
    # collapses to one hypergeometric call.
    c1 = 1.0 - a
    hyp = float(special.hyp2f1(1.0, c1, c1 + 1.0, -e))
    return e**c1 * (hyp / c1 - 1.0 / (1.0 + e))


def log_small_jump_mean(tail: TailFunction, log_eps: float) -> float:
    """``log small_jump_mean(tail, exp(log_eps))`` for arbitrarily deep levels.

    Used for series compensation where the level itself underflows.  Below
    ``log_eps < -40`` the rational factor is frozen at its limit (relative
    error ``O(exp(log_eps))``); below ``-50`` the log-power mean is summed
    from the asymptotic series of ``p * Gamma(p, -log_eps)``, within a few
    ulps at any depth.  ``log_eps = -inf`` gives ``-inf``.
    """
    z = float(log_eps)
    if math.isnan(z):
        raise ValueError("log_eps must not be NaN")
    if not tail.is_summable:
        raise ValueError("small jumps are not summable for tail index >= 1")
    if z == -math.inf:
        return -math.inf
    a, f = tail.alpha, tail.factor
    if isinstance(f, (Constant, StableExact)):
        c = f.c if isinstance(f, Constant) else 1.0
        return math.log(c * a / (1.0 - a)) + (1.0 - a) * z
    if isinstance(f, LogPower):
        p, w = f.p, -z
        if w <= 50.0 or p >= w:  # beyond, the series grows from its first term
            return math.log(small_jump_mean(tail, math.exp(min(z, 0.0))))
        # Gamma(p+1, w) - e^-w w^p = p Gamma(p, w) ~ p e^-w w^(p-1) sum_k
        # (p-1)...(p-k) / w^k (DLMF 8.11.2), summed until a term vanishes
        # (integer p), stops shrinking (by k = p + w) or no longer counts.
        # num / den keeps the bits of the exact sums of p in {1, 2, 3}.
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
    if z >= -40.0:
        return math.log(small_jump_mean(tail, math.exp(z)))
    return math.log(a / (1.0 - a)) + (1.0 - a) * z

