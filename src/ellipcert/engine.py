"""Certified evaluation of the perimeter and its defect, plus the quadrature oracle.

Everything numeric runs in private mpmath contexts: ``_ctx(dps)`` makes
one ``MPContext`` per precision (the few most recently used are kept) and
never changes it.  mpmath rounds an operation at its left operand's
context, so each value enters a context before use (``ctx.mpf``/``_as_mpf``
round it, ``ctx.convert`` takes a wider value exactly).  The global ``mp``
is never read or changed, so neither the caller's precision nor other
threads change a result.

``perimeter`` and ``discrepancy`` work on raw ``mpmath.libmp`` tuples and
round every operation outward (``round_floor`` towards a lower end,
``round_ceiling`` towards an upper one), so they need no error allowance.
The perimeter is the Gauss-Legendre AGM sum (``_agm_sum``); Delta(x) =
B(x) - A(x) is the positive series sum_{n>=5} delta_n x^n up to
``SERIES_MAX_X`` and B - A by the AGM above it.  ``eval_B``, the series
oracle for B(x), sums in a context plus an explicit floating-error
allowance: lo = S - fp_err, hi = S + tail_bound + fp_err.  Both series
stop on ``_tail_bound``, the one owner of their tail bounds:

  * geometric: the term ratio is ((2n-1)/(2n+2))^2 * x <= x, so the tail
    after N is at most B_(N+1) x^(N+1) / (1 - x) for x < 1;
  * slow-convergence: C(2n,n)/4^n <= 1/sqrt(pi n) gives
    B_n <= 1/(pi n (2n-1)^2) <= 1/(4 pi (n-1)^3), hence for any x <= 1 the
    tail after N is at most 1/(8 pi (N - 1/2)^2).

The smaller one is used, so eval_B's x = 1 endpoint needs no separate
code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import MPContext
from mpmath.libmp import (fone, from_int, from_man_exp, fzero, mpf_add, mpf_div, mpf_le,
                          mpf_lt, mpf_mul, mpf_pi, mpf_shift, mpf_sqrt, mpf_sub,
                          round_ceiling, round_floor, round_nearest)

# b_coeffs_upto, delta_coeffs_upto: unused here, but bench/tracer.py rebinds them here
from .series_kernel import b_coeffs_upto, delta_coeffs_upto, dyadic_rows  # noqa: F401

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

# how each enclosure was obtained, recorded on it
GEOMETRIC_TAIL = "geometric-tail"
SLOW_TAIL = "slow-convergence-tail"
EXACT_POINT = "exact"
AGM = "agm"
CLOSED_FORM = "closed-form"

DELTA_5 = 2.288818359375e-5  # delta_5 = 3/2^17, exactly

# Delta(x) comes from its series up to this x, where the two routes cost
# about the same (0.2-0.3 ms warm), and from the AGM above it
SERIES_MAX_X = 0.01
PERIMETER_REL_TOL = 1e-12  # the default perimeter width, as a fraction of p
_AGM_GUARD_BITS = 10  # see _agm_within

_DOWN, _UP = round_floor, round_ceiling
_THREE, _FOUR, _TEN = from_int(3), from_int(4), from_int(10)


class ToleranceFloorError(ValueError):
    """Requested tolerance is below what the term budget can certify."""


class QuadratureBudgetError(RuntimeError):
    """Adaptive quadrature did not reach tolerance within its panel budget."""


# dps tracks -log10(tol), so a sweep over tolerances or tiny x meets a new
# precision at every step; only this many of the most recently used
# contexts are kept, and a dropped one is rebuilt on demand
_PRECISIONS_KEPT = 8


@lru_cache(maxsize=_PRECISIONS_KEPT)
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


def _dyadic_mpf(coeff: tuple[int, int], ctx, rnd=round_nearest):
    """num / 2**exp as a value of ``ctx``, rounded once to its precision.

    ``ctx.mpf(num) / 2**exp`` rounds once too (the division by a power of
    two is exact), so both give the same bits; this way no Fraction is built.
    ``rnd`` may direct the rounding instead.
    """
    num, exp = coeff
    return ctx.make_mpf(from_man_exp(num, -exp, ctx.prec, rnd))


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


def _check_tol(tol) -> None:
    if not tol > 0:  # NaN fails every comparison, so it is refused here too
        raise ValueError("tol must be positive")
    if tol == math.inf:
        raise ValueError("tol must be finite")


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


def _scaled(enc: Enclosure, c) -> Enclosure:
    """Enclosure times a positive mpf ``c``, rounded and padded in c's context."""
    if c <= 0:
        raise ValueError("scale factor must be positive")
    ctx = c.context
    u = ctx.mpf(10) ** (1 - ctx.dps)
    lo = c * enc.lo
    hi = c * enc.hi
    pad = 8 * u * abs(hi)
    return Enclosure(lo - pad, hi + pad, enc.regime)


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


def _kernel(x, prec: int, rnd, opp):
    """A(x) = 1 + 3x/(10 + sqrt(4 - 3x)) of a raw x, rounded towards ``rnd``
    with the denominator rounded towards ``opp``.  A increases with x, so
    with opposite directions the result bounds A on that side."""
    three_x = mpf_mul(_THREE, x, prec, rnd)
    root = mpf_sqrt(mpf_sub(_FOUR, three_x, prec, opp), prec, opp)
    return mpf_add(fone, mpf_div(three_x, mpf_add(_TEN, root, prec, opp), prec, rnd), prec, rnd)


def eval_A(x):
    """Closed-form 1 + 3x/(10 + sqrt(4 - 3x)) at working precision.

    The radicand 4 - 3x stays >= 1 on the domain, so the evaluation is a
    few well-conditioned operations; the result is correct to a few ulp.
    """
    ctx = _ctx(WORKING_DPS)
    xm = _as_mpf(x, ctx)
    if not 0 <= xm <= 1:
        raise ValueError("x must lie in [0, 1]")
    return ctx.make_mpf(_kernel(xm._mpf_, ctx.prec, round_nearest, round_nearest))


def _tail_estimate(xf: float, n: int) -> float:
    """Float estimate of ``_tail_bound`` after N = n terms, 0 <= x <= 1, with
    B_(n+1) ~ 1/(4 pi (n+1)^3), slightly under the true coefficient: it
    plans eval_B's early refusals only."""
    slow = 1.0 / (8.0 * math.pi * (n - 0.5) ** 2)
    if xf >= 1.0:
        return slow
    return min(slow, xf ** (n + 1) / (4.0 * math.pi * (n + 1) ** 3 * (1.0 - xf)))


def _tail_bound(n: int, next_term, one_minus, prec: int):
    """Rigorous bound on the tail after N = n terms, rounded up, and its regime.

    Raw tuples at ``prec`` bits: ``next_term`` bounds the first omitted
    term B_(n+1) x^(n+1) from above and is read only when ``one_minus``, a
    lower bound on 1 - x, is positive.  Returns (None, None) when neither
    bound applies (x = 1 and n < 2).
    """
    tail, regime = None, None
    if mpf_lt(fzero, one_minus):
        tail, regime = mpf_div(next_term, one_minus, prec, _UP), GEOMETRIC_TAIL
    if n >= 2:
        # sum_{k > n} B_k x^k <= sum_{k > n} B_k <= 1/(8 pi (n - 1/2)^2)
        below = mpf_mul(mpf_pi(prec, _DOWN), from_int(2 * (2 * n - 1) ** 2), prec, _DOWN)
        slow = mpf_div(fone, below, prec, _UP)
        if tail is None or mpf_lt(slow, tail):
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
    _check_tol(tol)
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
            tail, regime = _tail_bound(n, nxt._mpf_, one_minus._mpf_, ctx.prec)
            if tail is not None:
                tail = ctx.make_mpf(tail)
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
    floor, _ = _tail_bound(max_terms, term._mpf_, one_minus._mpf_, ctx.prec)
    raise ToleranceFloorError(
        f"tol={tol} not certifiable within {max_terms} terms at x={ctx.nstr(xm, 10)} "
        f"(achievable floor here is about {ctx.nstr(ctx.make_mpf(floor), 5)})"
    )


# fixed-order 15-point Gauss-Legendre rule used on every adaptive panel:
# (node, weight) pairs for nodes >= 0, equal bit for bit to
# numpy.polynomial.legendre.leggauss(15), mirrored below
_GL_HALF = (
    (0.0, 0.2025782419255613),
    (0.20119409399743451, 0.1984314853271116),
    (0.3941513470775634, 0.1861610000155622),
    (0.5709721726085388, 0.16626920581699398),
    (0.7244177313601701, 0.13957067792615444),
    (0.8482065834104272, 0.10715922046717141),
    (0.9372733924007058, 0.0703660474881084),
    (0.9879925180204854, 0.030753241996117203),
)
_GL_PAIRS = tuple((-t, w) for t, w in reversed(_GL_HALF[1:])) + _GL_HALF


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
    _check_tol(tol)
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


def _agm_within(scale, tol, enclose):
    """``enclose(prec)``, an outward-rounded (lo, hi) of raw tuples for a
    value below ``scale``.  Rounding alone sets its width, so it starts at
    ``_AGM_GUARD_BITS`` beyond log2(scale / tol) and doubles the precision
    until hi - lo <= tol; a width that four doublings leave too wide
    (the extreme axis ratios need one) is a fault, not a tolerance floor."""
    mag, limit = _ctx(15).mag, _ctx(15).convert(tol)._mpf_  # tol exactly
    start = max(53, mag(scale) - mag(tol) + _AGM_GUARD_BITS)
    for prec in (start << k for k in range(5)):
        lo, hi = enclose(prec)
        if mpf_le(mpf_sub(hi, lo), limit):  # mpf_sub without a precision is exact
            return lo, hi
    raise ArithmeticError(f"enclosure still wider than tol={tol} at {prec} bits")


def _agm_sum(a, b, t, s, prec: int):
    """Outward-rounded ((S_lo, S_hi), (M_lo, M_hi)) of the Gauss-Legendre sum.

    For a_0 >= b_0 > 0 let a_(n+1) = (a_n + b_n)/2, b_(n+1) = sqrt(a_n b_n),
    c_0^2 = a_0^2 - b_0^2 and c_(n+1) = (a_n - b_n)/2.  The ellipse with
    semi-axes a_0, b_0 has perimeter 2 pi S / M (Almkvist and Berndt, Amer.
    Math. Monthly 95, 1988), with M = lim a_n = lim b_n and
    S = a_0^2 - sum_{n>=0} 2^(n-1) c_n^2.  The arguments are (lo, hi) pairs
    at step one: a_1, b_1, t_1 = c_1^2 and s_1 = (a_0^2 + b_0^2)/2.

    Rounding: the AGM step increases in both arguments, so the lower ends,
    every operation rounded down, stay below (a_n, b_n) and the upper ends
    above, and b_n <= M <= a_n.  As c_(n+1) = c_n^2 / (4 a_(n+1)), the
    recurrence t_(n+1) = t_n^2 / (16 a_(n+1)^2) has no cancellation.

    Tail: the loop stops at the first n with t_n <= 2^(-2 prec) b_n^2.  For
    k >= n, a_(k+1) >= M >= b_n, so t_k <= t_n gives t_(k+1) / t_k =
    t_k / (16 a_(k+1)^2) <= t_n / (16 b_n^2) <= 1/4; by induction t_k <= t_n
    for all k >= n, and consecutive summands have the ratio
    2 t_(k+1) / t_k <= t_n / (8 b_n^2) <= 1/2.  So the lower end of S also
    subtracts sum_{k>=n} 2^(k-1) t_k <= 2^n t_n.  The bracket of M is then
    a_n - b_n = 2 c_(n+1) = t_n / (2 a_(n+1)) <= 2^(-2 prec) M.
    """
    (a_lo, a_hi), (b_lo, b_hi), (t_lo, t_hi), (s_lo, s_hi) = a, b, t, s
    n = 1
    while not mpf_le(mpf_shift(t_hi, 2 * prec), mpf_mul(b_lo, b_lo, prec, _DOWN)):
        s_lo = mpf_sub(s_lo, mpf_shift(t_hi, n - 1), prec, _DOWN)
        s_hi = mpf_sub(s_hi, mpf_shift(t_lo, n - 1), prec, _UP)
        a_lo, a_hi, b_lo, b_hi = (
            mpf_shift(mpf_add(a_lo, b_lo, prec, _DOWN), -1),
            mpf_shift(mpf_add(a_hi, b_hi, prec, _UP), -1),
            mpf_sqrt(mpf_mul(a_lo, b_lo, prec, _DOWN), prec, _DOWN),
            mpf_sqrt(mpf_mul(a_hi, b_hi, prec, _UP), prec, _UP),
        )
        a2_lo, a2_hi = mpf_mul(a_lo, a_lo, prec, _DOWN), mpf_mul(a_hi, a_hi, prec, _UP)
        t_lo = mpf_div(mpf_mul(t_lo, t_lo, prec, _DOWN), mpf_shift(a2_hi, 4), prec, _DOWN)
        t_hi = mpf_div(mpf_mul(t_hi, t_hi, prec, _UP), mpf_shift(a2_lo, 4), prec, _UP)
        n += 1
    s_lo = mpf_sub(s_lo, mpf_shift(t_hi, n), prec, _DOWN)
    # S > 0; a negative lower end (a precision too low to resolve S) says only that
    return (s_lo if mpf_lt(fzero, s_lo) else fzero, s_hi), (b_lo, a_hi)


def _agm_perimeter(a, b, prec: int):
    """Outward-rounded (lo, hi) of 2 pi S / M for raw semi-axes a >= b > 0."""

    def step_one(rnd):  # a_1, b_1, t_1, s_1 of _agm_sum, all rounded one way
        d = mpf_sub(a, b, prec, rnd)
        square_sum = mpf_add(mpf_mul(a, a, prec, rnd), mpf_mul(b, b, prec, rnd), prec, rnd)
        return (mpf_shift(mpf_add(a, b, prec, rnd), -1),
                mpf_sqrt(mpf_mul(a, b, prec, rnd), prec, rnd),
                mpf_shift(mpf_mul(d, d, prec, rnd), -2),
                mpf_shift(square_sum, -1))

    (s_lo, s_hi), (m_lo, m_hi) = _agm_sum(*zip(step_one(_DOWN), step_one(_UP)), prec)
    lo = mpf_mul(mpf_shift(mpf_pi(prec, _DOWN), 1), s_lo, prec, _DOWN)
    hi = mpf_mul(mpf_shift(mpf_pi(prec, _UP), 1), s_hi, prec, _UP)
    return mpf_div(lo, m_hi, prec, _DOWN), mpf_div(hi, m_lo, prec, _UP)


def perimeter(ellipse: Ellipse, tol=None) -> Enclosure:
    """Enclosure of the true perimeter by the Gauss-Legendre AGM sum.

    The default ``tol`` is ``PERIMETER_REL_TOL`` times 4a <= p, so relative;
    an explicit ``tol`` is an absolute width, always honored by raising the
    precision (``_agm_within``).  A degenerate b = 0 gives p = 4a exactly.
    """
    if tol is None:
        tol = PERIMETER_REL_TOL * 4 * ellipse.a  # p >= 4a
    _check_tol(tol)
    ctx = _ctx(WORKING_DPS)
    a, b = ellipse.a._mpf_, ellipse.b._mpf_  # exact, a >= b
    if b == fzero:
        p = ctx.make_mpf(mpf_shift(a, 2))
        return Enclosure(p, p, EXACT_POINT)
    lo, hi = _agm_within(8 * ellipse.a, tol, lambda prec: _agm_perimeter(a, b, prec))
    return Enclosure(ctx.make_mpf(lo), ctx.make_mpf(hi), AGM)


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


def _x5_target(c, x, factor=1):
    """The width target c x^5 factor, formed in mpf: it may lie far below
    the float range."""
    ctx = _ctx(15)
    return _as_mpf(c, ctx) * _as_mpf(x, ctx) ** 5 * factor


def _discrepancy_series(x, limit, ctx):
    """Outward-rounded (lo, hi) of sum_{n>=5} delta_n x^n, 0 < x <= SERIES_MAX_X,
    at most ``limit`` wide, at the precision of ``ctx``.

    No term is negative, so the lower sum rounds down and the upper sum up,
    with delta_n and B_n from a fresh exact stream.  As 0 < delta_n < B_n
    and B_(n+1) < B_n, ``_tail_bound`` with next term B_n x^(n+1) bounds
    the tail.  The sum runs through n = 6 at least, so theta's rise above
    delta_5 (delta_6 x) shows however small x is, and then ends: the tail
    shrinks 100-fold a term, and ``_dps_for_tol`` keeps the rounding spread
    16 digits below ``limit``.
    """
    prec = ctx.prec
    s_lo = s_hi = fzero
    xp_lo = xp_hi = fone  # x^n
    one_minus = mpf_sub(fone, x, prec, _DOWN)
    for n, row in enumerate(dyadic_rows()):
        d_lo, d_hi = (_dyadic_mpf(row.delta, ctx, rnd)._mpf_ for rnd in (_DOWN, _UP))
        s_lo = mpf_add(s_lo, mpf_mul(d_lo, xp_lo, prec, _DOWN), prec, _DOWN)
        s_hi = mpf_add(s_hi, mpf_mul(d_hi, xp_hi, prec, _UP), prec, _UP)
        xp_lo, xp_hi = mpf_mul(xp_lo, x, prec, _DOWN), mpf_mul(xp_hi, x, prec, _UP)
        next_term = mpf_mul(_dyadic_mpf(row.B, ctx, _UP)._mpf_, xp_hi, prec, _UP)
        hi = mpf_add(s_hi, _tail_bound(n, next_term, one_minus, prec)[0], prec, _UP)
        if n >= 6 and mpf_le(mpf_sub(hi, s_lo), limit):
            return s_lo, hi


def _discrepancy_agm(x, prec: int):
    """Outward-rounded (lo, hi) of B(x) - A(x), 0 < x <= 1, B from the AGM.

    The ellipse a_0 = 1 + lam, b_0 = 1 - lam with lam^2 = x has
    a_0 + b_0 = 2, so B(x) = S / M.  At step one a_1 = 1, b_1 = sqrt(1 - x),
    c_1^2 = x and (a_0^2 + b_0^2)/2 = 1 + x: x enters only through
    sqrt(1 - x), which is rounded outward with everything else.  At x = 1
    the ellipse is degenerate, p = 4a, so B(1) = 4/pi (and A(1) = 14/11).
    """

    def step_one(rnd):
        root = mpf_sqrt(mpf_sub(fone, x, prec, rnd), prec, rnd)
        return fone, root, x, mpf_add(fone, x, prec, rnd)

    if x == fone:
        b_lo = mpf_div(_FOUR, mpf_pi(prec, _UP), prec, _DOWN)
        b_hi = mpf_div(_FOUR, mpf_pi(prec, _DOWN), prec, _UP)
    else:
        (s_lo, s_hi), (m_lo, m_hi) = _agm_sum(*zip(step_one(_DOWN), step_one(_UP)), prec)
        b_lo, b_hi = mpf_div(s_lo, m_hi, prec, _DOWN), mpf_div(s_hi, m_lo, prec, _UP)
    return (mpf_sub(b_lo, _kernel(x, prec, _UP, _DOWN), prec, _DOWN),
            mpf_sub(b_hi, _kernel(x, prec, _DOWN, _UP), prec, _UP))


def discrepancy(x, tol=None) -> Enclosure:
    """Enclosure of Delta(x) = B(x) - A(x) for 0 < x <= 1, rounded outward.

    Up to ``SERIES_MAX_X`` it sums the difference series, free of the
    cancellation of B - A (Delta(x) ~ (3/2^17) x^5 near 0) but longer as x
    grows; above it, B - A by the AGM at a precision that follows ``tol``,
    so the cancellation (Delta >= delta_5 x^5) costs digits, not width.
    The default tolerance, delta_5 x^5 / 10^9, keeps about nine significant
    digits of Delta; an explicit ``tol`` is always honored.
    """
    xm = _as_mpf(x, _ctx(WORKING_DPS))
    if not 0 < xm <= 1:  # in mpf: x may lie below the float range
        raise ValueError("x must lie in (0, 1]")
    if tol is None:
        tol = _x5_target(DELTA_5, xm, 1e-9)
    _check_tol(tol)
    ctx = _ctx(_dps_for_tol(tol))
    xt = xm._mpf_
    if xm <= SERIES_MAX_X:
        lo, hi = _discrepancy_series(xt, _ctx(15).convert(tol)._mpf_, ctx)
        regime = GEOMETRIC_TAIL
    else:  # B, A < 2
        lo, hi = _agm_within(2, tol, lambda prec: _discrepancy_agm(xt, prec))
        regime = CLOSED_FORM if xm == 1 else AGM
    return Enclosure(ctx.make_mpf(lo), ctx.make_mpf(hi), regime)


def discrepancy_ratio(x, tol=None) -> Enclosure:
    """Enclosure of Delta(x)/x^5, the normalized discrepancy.

    This quantity decreases to delta_5 = 3/2^17 as x -> 0 and climbs to
    4/pi - 14/11 at x = 1.  ``tol`` is the target width of the ratio; an
    explicit ``tol`` is honored or refused, never loosened.
    """
    xm = _as_mpf(x, _ctx(WORKING_DPS))
    inner = _x5_target(DELTA_5, xm, 1e-9) if tol is None else _x5_target(tol, xm)
    enc = discrepancy(xm, inner)  # refuses x outside (0, 1] first
    return _scaled(enc, 1 / _as_mpf(xm, _ctx(_dps_for_tol(inner))) ** 5)


def theta_of_lambda(lam, tol=None) -> Enclosure:
    """Enclosure of theta(lam) = Delta(lam^2) / lam^10 for 0 < lam <= 1."""
    lm = _as_mpf(lam, _ctx(WORKING_DPS))
    if not 0 < lm <= 1:
        raise ValueError("lam must lie in (0, 1]")
    return discrepancy_ratio(lm * lm, tol)
