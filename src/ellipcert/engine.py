"""Certified evaluation of the perimeter series, plus the quadrature oracle.

Everything numeric here runs in mpmath extended precision (50 significant
digits by default, more when a tolerance demands it) in private
contexts: ``_ctx(dps)`` makes one ``mpmath.MPContext`` per precision and
never changes it.  mpmath rounds an operation at the precision of its left
operand's context, so each value enters a context before it is used:
``ctx.mpf``/``_as_mpf`` round it to the context's precision, and
``ctx.convert`` takes a wider value exactly.  The global ``mp`` context
is never read or changed, so results do not depend on the caller's
precision or on other threads.  Enclosures are
produced the same way throughout: a partial sum of a positive-term series,
a closed-form bound on the omitted tail, and an explicit forward-error
term for the floating arithmetic itself, so

    lo = S - fp_err      hi = S + tail_bound + fp_err

is guaranteed to bracket the true value of the series at the represented
argument.  Two tail bounds are available for B(x) = sum B_n x^n:

  * geometric: the term ratio is ((2n-1)/(2n+2))^2 * x <= x, so the tail
    after N is at most B_(N+1) x^(N+1) / (1 - x) for x < 1;
  * slow-convergence: C(2n,n)/4^n <= 1/sqrt(pi n) gives
    B_n <= 1/(pi n (2n-1)^2) <= 1/(4 pi (n-1)^3), hence for any x <= 1 the
    tail after N is at most 1/(8 pi (N - 1/2)^2).

The engine always uses the smaller of the two, which makes the x = 1
endpoint (where the series converges like 1/n^3) work without a separate
code path.  Each bound has one owner: ``_tail_bound`` certifies it in mpf
for both eval_B and discrepancy, and ``_tail_estimate`` is its float
counterpart that plans term counts, default tolerances and early refusals.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import MPContext
from mpmath.libmp import from_man_exp, round_nearest

# b_coeffs_upto and delta_coeffs_upto are unused here but stay importable:
# bench/tracer.py rebinds them in this namespace
from .series_kernel import b_coeffs_upto, delta_coeffs_upto, dyadic_coeffs_upto  # noqa: F401

__all__ = [
    "WORKING_DPS",
    "ToleranceFloorError",
    "QuadratureBudgetError",
    "Enclosure",
    "Ellipse",
    "lambda_from_eccentricity",
    "eccentricity_from_lambda",
    "eval_A",
    "eval_B",
    "ivory_integral",
    "perimeter",
    "perimeter_ramanujan",
    "discrepancy",
    "discrepancy_ratio",
    "theta_of_lambda",
]

WORKING_DPS = 50

# regime of the series evaluation, recorded on every enclosure
GEOMETRIC_TAIL = "geometric-tail"
SLOW_TAIL = "slow-convergence-tail"
EXACT_POINT = "exact"


class ToleranceFloorError(ValueError):
    """Requested tolerance is below what the term budget can certify."""


class QuadratureBudgetError(RuntimeError):
    """Adaptive quadrature did not reach tolerance within its panel budget."""


@lru_cache(maxsize=None)  # float tolerances keep dps below 340: few contexts
def _ctx(dps: int) -> MPContext:
    """The private context working at ``dps`` digits; its precision never changes."""
    ctx = MPContext()
    ctx.dps = dps
    return ctx


def _as_mpf(v, ctx):
    """``v`` as a value of ``ctx``, rounded to its precision (a Fraction as num / den)."""
    if isinstance(v, Fraction):
        return ctx.mpf(v.numerator) / v.denominator
    return ctx.mpf(v)


def _dyadic_mpf(coeff: tuple[int, int], ctx):
    """num / 2**exp as a value of ``ctx``, rounded once to its precision.

    ``ctx.mpf(num) / 2**exp`` rounds once too (the division by a power of
    two is exact), so both give the same bits; this way no Fraction is built.
    """
    num, exp = coeff
    return ctx.make_mpf(from_man_exp(num, -exp, ctx.prec, round_nearest))


def _exact_fraction(v) -> Fraction:
    """Exact rational value of an int/float/Fraction/mpf (no rounding)."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, float)):
        return Fraction(v)
    if not hasattr(v, "_mpf_"):
        v = _ctx(WORKING_DPS + 10).mpf(v)
    sign, man, exp, _bc = v._mpf_
    if man == 0 and exp != 0:  # inf or nan
        raise ValueError(f"cannot take exact value of {v!r}")
    fr = Fraction(man) * Fraction(2) ** exp
    return -fr if sign else fr


def _dps_for_tol(tol: float) -> int:
    ctx = _ctx(15)  # a fixed precision, so int() below never depends on the caller
    need = -ctx.log10(ctx.mpf(tol)) if tol < 1 else 0
    return max(WORKING_DPS, int(need) + 16)


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] certified to contain a true real value."""

    lo: object  # mpf
    hi: object  # mpf
    regime: str = ""

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure: [{self.lo}, {self.hi}]")

    # fsub and fadd take the endpoints exactly and round once, at WORKING_DPS + 10
    @property
    def width(self):
        return _ctx(WORKING_DPS + 10).fsub(self.hi, self.lo)

    @property
    def mid(self):
        return _ctx(WORKING_DPS + 10).fadd(self.lo, self.hi) / 2

    def contains(self, value) -> bool:
        """Exact containment: endpoints and value compared as rationals."""
        v = _exact_fraction(value)
        return _exact_fraction(self.lo) <= v <= _exact_fraction(self.hi)

    def __repr__(self) -> str:
        nstr = _ctx(WORKING_DPS).nstr
        return f"Enclosure([{nstr(self.lo, 20)}, {nstr(self.hi, 20)}], regime={self.regime!r})"


def _scaled(enc: Enclosure, c, regime: str | None = None) -> Enclosure:
    """Enclosure times a positive mpf ``c``, rounded and padded in c's context."""
    if c <= 0:
        raise ValueError("scale factor must be positive")
    ctx = c.context
    u = ctx.mpf(10) ** (1 - ctx.dps)
    lo = c * enc.lo
    hi = c * enc.hi
    pad = 8 * u * abs(hi)
    return Enclosure(lo - pad, hi + pad, regime if regime is not None else enc.regime)


class Ellipse:
    """Semi-axes with the derived shape parameters.

    Construction normalizes a >= b (swapping if given reversed, and
    recording the swap), computes lam = (a-b)/(a+b) and the eccentricity
    sqrt(1 - (b/a)^2).  A degenerate b = 0 is accepted (lam = ecc = 1).
    """

    __slots__ = ("a", "b", "lam", "ecc", "swapped")

    def __init__(self, a, b):
        ctx = _ctx(WORKING_DPS)
        am, bm = _as_mpf(a, ctx), _as_mpf(b, ctx)
        if not (ctx.isfinite(am) and ctx.isfinite(bm)):
            raise ValueError("semi-axes must be finite")
        if am < 0 or bm < 0:
            raise ValueError("semi-axes must be nonnegative")
        swapped = bm > am
        if swapped:
            am, bm = bm, am
        if am <= 0:
            raise ValueError("the major semi-axis must be positive")
        self.a = am
        self.b = bm
        self.swapped = swapped
        self.lam = (am - bm) / (am + bm)
        r = bm / am
        self.ecc = ctx.sqrt((1 - r) * (1 + r))

    @classmethod
    def from_eccentricity(cls, a, e) -> "Ellipse":
        ctx = _ctx(WORKING_DPS)
        em = _as_mpf(e, ctx)
        if not 0 <= em <= 1:
            raise ValueError("eccentricity must lie in [0, 1]")
        am = _as_mpf(a, ctx)
        return cls(am, am * ctx.sqrt((1 - em) * (1 + em)))

    def __repr__(self) -> str:
        nstr = _ctx(WORKING_DPS).nstr
        return f"Ellipse(a={nstr(self.a, 12)}, b={nstr(self.b, 12)})"


def lambda_from_eccentricity(e):
    """lam = e^2 / (1 + sqrt(1 - e^2))^2; stable for small e."""
    ctx = _ctx(WORKING_DPS)
    em = _as_mpf(e, ctx)
    if not 0 <= em <= 1:
        raise ValueError("eccentricity must lie in [0, 1]")
    return em**2 / (1 + ctx.sqrt((1 - em) * (1 + em))) ** 2


def eccentricity_from_lambda(lam):
    """Inverse map, from e^2 = 4 lam / (1 + lam)^2."""
    ctx = _ctx(WORKING_DPS)
    lm = _as_mpf(lam, ctx)
    if not 0 <= lm <= 1:
        raise ValueError("lam must lie in [0, 1]")
    return 2 * ctx.sqrt(lm) / (1 + lm)


def eval_A(x):
    """Closed-form 1 + 3x/(10 + sqrt(4 - 3x)) at working precision.

    The radicand 4 - 3x stays >= 1 on the domain, so the evaluation is a
    few well-conditioned operations; the result is correct to a few ulp.
    """
    ctx = _ctx(WORKING_DPS)
    xm = _as_mpf(x, ctx)
    if not 0 <= xm <= 1:
        raise ValueError("x must lie in [0, 1]")
    return 1 + 3 * xm / (10 + ctx.sqrt(4 - 3 * xm))


def _tail_estimate(xf: float, n: int) -> float:
    """Float estimate of the tail of B(x) after N = n terms, for 0 <= x <= 1.

    The smaller of the slow-convergence bound and the geometric bound with
    B_(n+1) ~ 1/(4 pi (n+1)^3), which slightly undercuts the true
    coefficient.  It plans term counts and refusals only; ``_tail_bound``
    certifies.
    """
    slow = 1.0 / (8.0 * math.pi * (n - 0.5) ** 2)
    if xf >= 1.0:
        return slow
    if xf == 0.0:
        return 0.0  # the series terminates immediately
    log_geo = (n + 1) * math.log(xf) - math.log(4.0 * math.pi * (n + 1) ** 3) - math.log1p(-xf)
    return min(slow, math.exp(log_geo))


def _tail_bound(n: int, next_term, one_minus):
    """Rigorous mpf bound on the tail after N = n terms, and its regime.

    ``next_term`` bounds the first omitted term B_(n+1) x^(n+1) and is read
    only when ``one_minus`` = 1 - x is positive; the bound is computed in
    ``one_minus``'s context.  Returns (None, None) when neither bound
    applies (x = 1 and n < 2).
    """
    ctx = one_minus.context
    tail, regime = None, None
    if one_minus > 0:
        tail, regime = next_term / one_minus, GEOMETRIC_TAIL
    if n >= 2:
        # sum_{k > n} B_k x^k <= sum_{k > n} B_k <= 1/(8 pi (n - 1/2)^2)
        slow = 1 / (8 * ctx.pi * ctx.mpf(n - 0.5) ** 2)
        if tail is None or slow < tail:
            tail, regime = slow, SLOW_TAIL
    return tail, regime


def eval_B(x, tol: float = 1e-12, max_terms: int = 250_000) -> Enclosure:
    """Enclosure of B(x) = sum_n [C(2n,n)/(4^n (2n-1))]^2 x^n, width <= tol.

    Terms are generated by the exact ratio B_(n+1)/B_n = ((2n-1)/(2n+2))^2;
    the loop stops as soon as the smaller of the geometric and the
    slow-convergence tail bound (plus the floating-error allowance) fits
    inside ``tol``.  Near x = 1 the geometric bound degrades like 1/(1-x)
    and the slow-convergence bound takes over; the returned enclosure
    records which regime closed it.  Raises ToleranceFloorError when the
    term budget cannot reach ``tol`` (the floor at x = 1 is about
    1/(8 pi max_terms^2)), and ValueError when ``max_terms`` < 2, a budget
    too small for either tail bound.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_terms < 2:
        raise ValueError("max_terms must be at least 2")
    xf = float(x)
    if 0.0 <= xf <= 1.0 and _tail_estimate(xf, max_terms) > 2.0 * tol:
        raise ToleranceFloorError(
            f"tol={tol} not certifiable within {max_terms} terms at x={xf} "
            f"(achievable floor here is about {_tail_estimate(xf, max_terms):.3g})"
        )
    dps = _dps_for_tol(tol)
    ctx = _ctx(dps)
    xm = _as_mpf(x, ctx)
    if not 0 <= xm <= 1:
        raise ValueError("x must lie in [0, 1]")
    tol_m = ctx.mpf(tol)
    one_minus = 1 - xm
    u = ctx.mpf(10) ** (1 - dps)
    term = ctx.mpf(1)
    s = ctx.mpf(0)
    n = 0
    while n <= max_terms:
        s += term
        nxt = term * (ctx.mpf(2 * n - 1) / (2 * n + 2)) ** 2 * xm
        if n < 64 or n % 16 == 0 or n == max_terms:
            tail, regime = _tail_bound(n, nxt, one_minus)
            if tail is not None:
                # fp_err covers the summation; the term recurrence's own
                # accumulated rounding (~5n*u relative on nxt) is orders
                # below the geometric bound's intrinsic slack, since the
                # true term ratio ((2n-1)/(2n+2))^2 x sits strictly under
                # the x used by the bound
                fp_err = 8 * (n + 4) * u * s
                if tail * (1 + 16 * u) + 2 * fp_err <= tol_m:
                    return Enclosure(
                        s - fp_err, s + tail * (1 + 16 * u) + fp_err, regime
                    )
        term = nxt
        n += 1
    floor, _ = _tail_bound(max_terms, term, one_minus)
    raise ToleranceFloorError(
        f"tol={tol} not certifiable within {max_terms} terms at x={ctx.nstr(xm, 10)} "
        f"(achievable floor here is about {ctx.nstr(floor, 5)})"
    )


# fixed-order 15-point Gauss-Legendre rule used on every adaptive panel:
# (node, weight) pairs for nodes >= 0, equal bit for bit to
# numpy.polynomial.legendre.leggauss(15), mirrored below
_GL_HALF = [
    (0.0, 0.2025782419255613),
    (0.20119409399743451, 0.1984314853271116),
    (0.3941513470775634, 0.1861610000155622),
    (0.5709721726085388, 0.16626920581699398),
    (0.7244177313601701, 0.13957067792615444),
    (0.8482065834104272, 0.10715922046717141),
    (0.9372733924007058, 0.0703660474881084),
    (0.9879925180204854, 0.030753241996117203),
]
_GL_PAIRS = [(-t, w) for t, w in reversed(_GL_HALF[1:])] + _GL_HALF


def _gauss_panel(f, a: float, b: float) -> float:
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    return h * math.fsum(w * f(c + h * t) for t, w in _GL_PAIRS)


def ivory_integral(x, tol: float = 1e-12, max_panels: int = 4096) -> float:
    """(1/pi) * integral_0^pi sqrt(1 + 2 sqrt(x) cos(2 phi) + x) dphi.

    Adaptive bisection with a 15-point Gauss rule per panel and an
    absolute-error target. The integrand is analytic for x < 1; at x = 1
    it degenerates to 2|cos(phi)|, so the domain is pre-split at pi/2 to
    keep each panel smooth.  This is the quadrature route to the same
    number eval_B produces from the series.
    """
    xf = float(x)
    if not 0.0 <= xf <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if not tol > 0:
        raise ValueError("tol must be positive")
    rx = math.sqrt(xf)

    def integrand(phi: float) -> float:
        v = 1.0 + 2.0 * rx * math.cos(2.0 * phi) + xf
        return math.sqrt(v) if v > 0.0 else 0.0

    half = 0.5 * math.pi
    stack = [(0.0, half), (half, math.pi)] if xf == 1.0 else [(0.0, math.pi)]
    span = math.pi
    total = 0.0
    panels = 0
    while stack:
        a, b = stack.pop()
        panels += 1
        if panels > max_panels:
            raise QuadratureBudgetError(
                f"did not reach tol={tol} within {max_panels} panels at x={xf}"
            )
        whole = _gauss_panel(integrand, a, b)
        m = 0.5 * (a + b)
        halves = _gauss_panel(integrand, a, m) + _gauss_panel(integrand, m, b)
        if abs(halves - whole) <= tol * (b - a) / span:
            total += halves
        else:
            stack.append((a, m))
            stack.append((m, b))
    return total / math.pi


def perimeter(ellipse: Ellipse, tol: float | None = None, max_terms: int = 250_000) -> Enclosure:
    """Enclosure of the true perimeter pi*(a+b)*B(((a-b)/(a+b))^2).

    Default tolerance is 1e-12; when lam^2 > 0.999 the series is in its
    slow-convergence regime and the default widens to 1e-6 (the certified
    floor there is set by ``max_terms``).  An explicit ``tol`` is honored
    or rejected with ToleranceFloorError, never silently loosened.
    """
    x = _as_mpf(ellipse.lam, _ctx(WORKING_DPS)) ** 2
    if tol is None:
        tol = 1e-12 if float(x) <= 0.999 else 1e-6
    if not tol > 0:
        raise ValueError("tol must be positive")
    ctx = _ctx(_dps_for_tol(tol))
    prefactor = ctx.pi * (_as_mpf(ellipse.a, ctx) + ellipse.b)
    inner_tol = ctx.mpf(tol) / prefactor * ctx.mpf("0.9")
    enc = eval_B(x, float(inner_tol), max_terms)
    return _scaled(enc, prefactor)


def perimeter_ramanujan(ellipse: Ellipse):
    """Ramanujan's closed-form approximation, evaluated directly:

        pi * [ (a+b) + 3(a-b)^2 / (10(a+b) + sqrt(a^2 + 14ab + b^2)) ].

    Algebraically identical to pi*(a+b)*A(((a-b)/(a+b))^2); both forms are
    exposed so the identity can be checked, and they agree to a few ulp of
    working precision.
    """
    ctx = _ctx(WORKING_DPS)
    a, b = _as_mpf(ellipse.a, ctx), _as_mpf(ellipse.b, ctx)
    root = ctx.sqrt(a * a + 14 * a * b + b * b)
    return ctx.pi * ((a + b) + 3 * (a - b) ** 2 / (10 * (a + b) + root))


class _MpfCoefficientCache:
    """Per-precision mpf images of the exact delta_n table."""

    def __init__(self):
        self._lock = threading.Lock()
        self._store: dict[int, list] = {}

    def get(self, dps: int, n_max: int) -> list:
        with self._lock:
            deltas = self._store.setdefault(dps, [])
            if len(deltas) <= n_max:
                rows = dyadic_coeffs_upto(n_max)
                ctx = _ctx(dps)
                deltas.extend(_dyadic_mpf(row.delta, ctx) for row in rows[len(deltas):])
            return deltas


_MPF_COEFFS = _MpfCoefficientCache()


def _estimate_delta_terms(xf: float, tol: float, max_terms: int) -> int | None:
    """Smallest N >= 6 whose float tail estimate is within tol/2, or None.

    The estimate strictly decreases in N, so bisection finds the first N a
    linear scan would.
    """
    ns = range(6, max_terms + 1)
    i = bisect_left(ns, True, key=lambda n: _tail_estimate(xf, n) <= 0.5 * tol)
    return ns[i] if i < len(ns) else None


def _default_delta_tol(xf: float, max_terms: int) -> float:
    """Width target tracking Delta's own magnitude, floored by the budget."""
    est = 2.288818359375e-5 * xf**5  # delta_5 x^5, a lower bound for Delta
    return max(est * 1e-9, 3.0 * _tail_estimate(xf, max_terms))


def discrepancy(x, tol: float | None = None, max_terms: int = 6000) -> Enclosure:
    """Enclosure of Delta(x) = B(x) - A(x) for 0 < x <= 1.

    Evaluated from the difference series sum_{n>=5} delta_n x^n with exact
    cached coefficients, which avoids the cancellation a literal B - A
    subtraction would suffer (Delta(x) ~ (3/2^17) x^5 near 0).  The tail
    obeys the same two bounds as eval_B since 0 < delta_n < B_n.  The
    default tolerance tracks the magnitude of Delta itself (about nine
    significant digits), floored by what ``max_terms`` can certify near
    x = 1.
    """
    xf = float(x)
    if not 0 < xf <= 1:
        raise ValueError("x must lie in (0, 1]")
    est = 2.288818359375e-5 * xf**5
    if tol is None:
        tol = _default_delta_tol(xf, max_terms)
    if not tol > 0:
        raise ValueError("tol must be positive")
    n_terms = _estimate_delta_terms(xf, tol, max_terms)
    if n_terms is None:
        raise ToleranceFloorError(
            f"tol={tol} not certifiable within {max_terms} difference terms at x={xf}"
        )
    dps = _dps_for_tol(tol)
    deltas = _MPF_COEFFS.get(dps, n_terms)
    ctx = _ctx(dps)
    xm = _as_mpf(x, ctx)
    if not 0 < xm <= 1:
        raise ValueError("x must lie in (0, 1]")
    u = ctx.mpf(10) ** (1 - dps)
    xp = xm**5
    s = ctx.mpf(0)
    for n in range(5, n_terms + 1):
        s += deltas[n] * xp
        xp *= xm
    # xp is now x^(n_terms+1); delta_n < B_n bounds the tail termwise
    next_term = None
    if xm < 1:
        next_term = _dyadic_mpf(dyadic_coeffs_upto(n_terms + 1)[n_terms + 1].B, ctx) * xp
    tail, regime = _tail_bound(n_terms, next_term, 1 - xm)
    fp_err = 8 * (n_terms + 4) * u * (s + est)
    hi = s + tail * (1 + 16 * u) + fp_err
    lo = s - fp_err
    if hi - lo > ctx.mpf(tol) * (1 + ctx.mpf("1e-6")):
        raise ToleranceFloorError(
            f"tail bound {ctx.nstr(tail, 5)} at N={n_terms} exceeds tol={tol} at x={xf}"
        )
    return Enclosure(lo, hi, regime)


def discrepancy_ratio(x, tol: float | None = None, max_terms: int = 6000) -> Enclosure:
    """Enclosure of Delta(x)/x^5, the normalized discrepancy.

    This quantity decreases to delta_5 = 3/2^17 as x -> 0 and climbs to
    4/pi - 14/11 at x = 1.  ``tol`` is the target width of the ratio.
    """
    xf = float(x)
    if not 0 < xf <= 1:
        raise ValueError("x must lie in (0, 1]")
    inner = tol * xf**5 if tol is not None else _default_delta_tol(xf, max_terms)
    if inner == 0.0:  # float underflow at extreme x; fall back to the default
        inner = _default_delta_tol(xf, max_terms)
    enc = discrepancy(x, inner, max_terms)
    xm = _as_mpf(x, _ctx(_dps_for_tol(inner)))
    return _scaled(enc, 1 / xm**5)


def theta_of_lambda(lam, tol: float | None = None, max_terms: int = 6000) -> Enclosure:
    """Enclosure of theta(lam) = Delta(lam^2) / lam^10 for 0 < lam <= 1."""
    lm = _as_mpf(lam, _ctx(WORKING_DPS))
    if not 0 < lm <= 1:
        raise ValueError("lam must lie in (0, 1]")
    return discrepancy_ratio(lm * lm, tol, max_terms)
