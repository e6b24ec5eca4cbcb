"""Certified evaluation of the perimeter and its defect, plus the quadrature oracle.

Every value enters through one reader, ``_exact_fraction``: an int, a
float, a Fraction, a decimal string or a value that carries a raw tuple
(``_mpf_``) is taken at its exact value, and nothing is rounded on entry.
Every enclosure is computed from that value on raw tuples of the package's
own binary arithmetic (``_dyadic``), at a precision in bits, each operation
rounded outward (``round_floor`` towards a lower end, ``round_ceiling``
towards an upper one), so none needs an error allowance; an input that is
not binary is rounded outward too (``_bounds``).  There is no second
arithmetic for the point values (``Ellipse.lam`` and ``ecc``, ``eval_A``,
``perimeter_ramanujan``, the lambda/eccentricity maps): each is its exact
quantity rounded once to nearest at ``WORKING_DPS`` digits, 169 bits.  A
rational one is formed exactly and rounded (``_raw``); an irrational one
is read from its outward enclosure, at a precision raised until both ends
round alike (``_nearest``).  Every operation names its precision and
rounding, so neither a caller's settings (mpmath's ``mp.dps`` included)
nor other threads change a result.  Every value returned is exact, a
``Dyadic``: a Fraction that also carries its raw tuple as ``_mpf_``, which
mpmath reads as an mpf.

The perimeter is the Gauss-Legendre AGM sum (``_agm_sum``); Delta(x) =
B(x) - A(x) is the positive series sum_{n>=5} delta_n x^n up to
``SERIES_MAX_X`` and B - A by the AGM above it.  ``eval_B``, the series
oracle for B(x), sums positive terms, its lower sum rounded down and its
upper sum up.  Both series stop on ``_tail_bound``, the one owner of their
tail bounds:

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
from fractions import Fraction

from ._dyadic import (Dyadic, _exact, dps_to_prec, fone, from_int, from_man_exp, fzero,
                      mpf_add, mpf_div, mpf_le, mpf_lt, mpf_mul, mpf_pi, mpf_pos,
                      mpf_shift, mpf_sqrt, mpf_sub, round_ceiling, round_floor, round_nearest,
                      to_str)

# b_coeffs_upto, delta_coeffs_upto: unused here, but bench/tracer.py rebinds them here
from .series_kernel import b_coeffs_upto, delta_coeff, delta_coeffs_upto, dyadic_rows  # noqa: F401

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
_PREC = dps_to_prec(WORKING_DPS)  # 169 bits: the precision of every point value

# how each enclosure was obtained, recorded on it
GEOMETRIC_TAIL = "geometric-tail"
SLOW_TAIL = "slow-convergence-tail"
EXACT_POINT = "exact"
AGM = "agm"
CLOSED_FORM = "closed-form"

# Delta(x) comes from its series up to this x, where the two routes cost
# about the same (0.2-0.3 ms warm), and from the AGM above it
SERIES_MAX_X = 0.01
PERIMETER_REL_TOL = 1e-12  # the default perimeter width, as a fraction of p
_GUARD_BITS = 10  # see _within
_RATIO_TOL = delta_coeff(5) / 10**9  # times x^5, the default width of Delta: nine digits

_DOWN, _UP = round_floor, round_ceiling
_THREE, _FOUR, _TEN = from_int(3), from_int(4), from_int(10)


class ToleranceFloorError(ValueError):
    """Requested tolerance is below what the term budget can certify."""


class QuadratureBudgetError(RuntimeError):
    """Adaptive quadrature did not reach tolerance within its panel budget."""


def _exact_fraction(v) -> Fraction:
    """Exact rational value of an int/float/Fraction/mpf/decimal string (no
    rounding), as a plain Fraction, whose arithmetic builds no exact type.
    A value that carries a finite raw tuple (``_mpf_``) is read through
    ``Dyadic.from_raw``; an infinite or NaN one is refused."""
    if isinstance(v, Fraction):
        return v if type(v) is Fraction else Fraction(v)
    raw = getattr(v, "_mpf_", None)
    if raw is None:
        try:
            return Fraction(v)
        except OverflowError:  # an infinite float
            raise ValueError(f"cannot take exact value of {v!r}") from None
    _sign, man, exp, _bc = raw
    if man == 0 and exp != 0:  # inf or nan
        raise ValueError(f"cannot take exact value of {v!r}")
    return Fraction(Dyadic.from_raw(raw))


def _rounded(q: Fraction, prec: int, rnd):
    """The raw value of q: q itself when it is binary, else q's numerator
    over its denominator, rounded once to ``prec`` bits towards ``rnd``."""
    num, den = q.numerator, q.denominator
    if den & (den - 1) == 0:
        return from_man_exp(num, 1 - den.bit_length())
    return mpf_div(from_int(num), from_int(den), prec, rnd)


def _bounds(q: Fraction, prec: int):
    """Raw (lo, hi) around q: q itself when it is binary, else q rounded
    down and up to ``prec`` bits."""
    return _rounded(q, prec, _DOWN), _rounded(q, prec, _UP)


def _mag(num: int, den: int) -> int:
    """The least integer m with |q| < 2^m for q = num/den != 0, den > 0, in
    lowest terms or not (exp + bc for a binary q)."""
    num = abs(num)
    m = num.bit_length() - den.bit_length()  # 2^(m-1) < |q| < 2^(m+1)
    return m + 1 if (num << max(0, -m)) >= (den << max(0, m)) else m


def _check_tol(tol) -> Fraction:
    """The exact value of ``tol``, refused unless positive and finite; a
    string is read first (``_exact_fraction``), a float keeps its bits; a
    NaN or infinity spelling is refused as its float is."""
    if isinstance(tol, str):
        text = tol
        try:
            tol = _exact_fraction(text)
        except ValueError:
            try:
                tol = float(text)
            except ValueError:
                tol = 0.0
            if math.isfinite(tol):  # neither an exact number nor NaN nor infinity
                raise ValueError(f"tol must be a number, not {text!r}") from None
    if not tol > 0:  # NaN fails every comparison, so it is refused here too
        raise ValueError("tol must be positive")
    if tol == math.inf:
        raise ValueError("tol must be finite")
    return _exact_fraction(tol)


def _value(raw) -> Dyadic:
    return Dyadic.from_raw(raw)


def _raw(v):
    """The raw value of v's exact value (``_exact_fraction``), rounded once
    to nearest at working precision, binary or not."""
    return mpf_pos(_rounded(_exact_fraction(v), _PREC, round_nearest), _PREC, round_nearest)


def _unit(v, message: str) -> Fraction:
    """The exact value of v (``_exact_fraction``), refused with ``message``
    unless it is a number in [0, 1]."""
    try:
        q = _exact_fraction(v)
    except ValueError:
        raise ValueError(message) from None
    if not 0 <= q <= 1:
        raise ValueError(message)
    return q


def _open_unit(v, message: str) -> Fraction:
    """``_unit``, with 0 refused too: the exact value of v in (0, 1]."""
    q = _unit(v, message)
    if q == 0:
        raise ValueError(message)
    return q


def _point_str(v, digits: int) -> str:
    """v with ``digits`` significant digits, printed from its exact value
    (``_exact_fraction``), rounded half up once; every printer comes here."""
    return to_str(_exact_fraction(v), digits)


class Enclosure:
    """Closed interval [lo, hi] certified to contain a true real value.

    Immutable; ``==`` and the hash compare (lo, hi, regime).
    """

    __slots__ = ("lo", "hi", "regime")

    def __init__(self, lo, hi, regime: str = ""):
        if not lo <= hi:  # NaN fails every comparison, so a NaN end is refused too
            raise ValueError(f"{'empty' if lo > hi else 'NaN end in'} enclosure: [{lo}, {hi}]")
        setattr_ = object.__setattr__
        setattr_(self, "lo", lo)
        setattr_(self, "hi", hi)
        setattr_(self, "regime", regime)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Enclosure, (self.lo, self.hi, self.regime)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi, self.regime) == (other.lo, other.hi, other.regime)

    def __hash__(self):
        return hash((self.lo, self.hi, self.regime))

    # exact for every kind of end: a Dyadic when binary, as every raw end
    # makes it, else a Fraction
    @property
    def width(self):
        return _exact(_exact_fraction(self.hi) - _exact_fraction(self.lo))

    @property
    def mid(self):
        return _exact((_exact_fraction(self.lo) + _exact_fraction(self.hi)) / 2)

    def contains(self, value) -> bool:
        """Exact containment: endpoints and value compared as rationals."""
        v = _exact_fraction(value)
        return _exact_fraction(self.lo) <= v <= _exact_fraction(self.hi)

    def __repr__(self) -> str:
        lo, hi = _point_str(self.lo, 20), _point_str(self.hi, 20)
        return f"Enclosure([{lo}, {hi}], regime={self.regime!r})"


def _enclosure(lo, hi, regime: str = "") -> Enclosure:
    """The enclosure of raw endpoints, wrapped exactly."""
    return Enclosure(_value(lo), _value(hi), regime)


def _resolving_prec(enc: Enclosure, floor: int = _PREC) -> int:
    """The precision at which a rounding moves a value of enc's magnitude by
    at most about 2^-_GUARD_BITS of enc's width: ``floor``, or more where
    the width takes more.  The ends are read exactly, whatever their kind."""
    # both ends, and so the width, over one denominator
    (p, q), (r, s) = (_exact_fraction(end).as_integer_ratio() for end in (enc.lo, enc.hi))
    width, den = r * q - p * s, q * s
    if not width:
        return floor
    top = max(abs(p) * s, abs(r) * q)
    return max(floor, _mag(top, den) - _mag(width, den) + _GUARD_BITS + 1)


def _product(enc: Enclosure, q: Fraction, times_pi: bool = False, prec: int = _PREC) -> Enclosure:
    """``enc`` times an exact q > 0, and times pi if asked, every factor and
    product rounded outward at ``prec`` bits, or more where enc's width
    takes more (``_resolving_prec``)."""
    prec = _resolving_prec(enc, prec)
    lo, hi = enc.lo._mpf_, enc.hi._mpf_
    pi = [(mpf_pi(prec, _DOWN), mpf_pi(prec, _UP))] if times_pi else []
    for f_lo, f_hi in [_bounds(q, prec)] + pi:
        # a negative end moves outward with the larger factor
        lo = mpf_mul(lo, f_hi if lo[0] else f_lo, prec, _DOWN)
        hi = mpf_mul(hi, f_lo if hi[0] else f_hi, prec, _UP)
    return _enclosure(lo, hi, enc.regime)


def _nearest(enclose) -> Dyadic:
    """The value that ``enclose(prec)``, an outward ``Enclosure`` narrowing as
    ``prec`` grows, encloses, rounded once to nearest at working precision.

    From ``_PREC + _GUARD_BITS`` bits the precision doubles until both ends
    round alike; rounding is monotone, so the true value rounds so too.
    The loop ends: a binary value is computed exactly once the precision
    holds its bits, so its enclosure collapses onto it, and any other value
    is not a tie (ties are binary), so an enclosure narrower than its
    distance to the nearest tie has both ends on one side.
    """
    prec = _PREC + _GUARD_BITS
    while True:
        enc = enclose(prec)
        point = mpf_pos(enc.lo._mpf_, _PREC, round_nearest)
        if point == mpf_pos(enc.hi._mpf_, _PREC, round_nearest):
            return _value(point)
        prec *= 2


def _root(q: Fraction) -> Dyadic:
    """sqrt(q) of an exact q >= 0, rounded once to nearest at working precision."""
    def enclose(prec):
        lo, hi = _bounds(q, prec)
        return _enclosure(mpf_sqrt(lo, prec, _DOWN), mpf_sqrt(hi, prec, _UP))
    return _nearest(enclose)


class Ellipse:
    """Semi-axes with the derived shape parameters.

    Construction reads each axis once, exactly (``_exact_fraction``), and
    keeps it in ``axes`` (two Fractions, where every enclosure starts);
    it normalizes a >= b (swapping if given reversed, and recording the
    swap).  ``a``, ``b`` and lam = (a-b)/(a+b) are those exact rationals,
    and the eccentricity is the square root of the exact 1 - (b/a)^2;
    each is rounded once to nearest at WORKING_DPS digits, 169 bits
    (``_raw`` and ``_root``), binary or not.  A degenerate b = 0 is
    accepted (lam = ecc = 1).
    """

    __slots__ = ("a", "b", "lam", "ecc", "swapped", "axes")

    def __init__(self, a, b):
        try:
            aq, bq = _exact_fraction(a), _exact_fraction(b)
        except ValueError:
            raise ValueError("semi-axes must be finite") from None
        if aq < 0 or bq < 0:
            raise ValueError("semi-axes must be nonnegative")
        swapped = bq > aq
        if swapped:
            aq, bq = bq, aq
        if aq <= 0:
            raise ValueError("the major semi-axis must be positive")
        self.axes = (aq, bq)
        self.a, self.b = _value(_raw(aq)), _value(_raw(bq))
        self.swapped = swapped
        self.lam = _value(_raw((aq - bq) / (aq + bq)))
        self.ecc = _root(1 - (bq / aq) ** 2)

    @classmethod
    def from_eccentricity(cls, a, e) -> "Ellipse":
        """The ellipse with major semi-axis a and b = sqrt(a^2 (1 - e^2)),
        the square root of the exact value rounded once."""
        eq = _unit(e, "eccentricity must lie in [0, 1]")
        try:
            aq = _exact_fraction(a)
        except ValueError:
            raise ValueError("semi-axes must be finite") from None
        return cls(a, _root(aq * aq * (1 - eq * eq)))

    def __repr__(self) -> str:
        return "Ellipse(a={}, b={})".format(*(_point_str(v, 12) for v in self.axes))


def _lambda_at(e, rnd, opp, prec: int):
    """lam = e^2 / (1 + sqrt((1 - e)(1 + e)))^2 of a raw e in [0, 1] at
    ``prec`` bits, rounded towards ``rnd`` with the denominator rounded
    towards ``opp``.  lam increases with e (and 1 - e^2 falls), so with
    opposite directions the result bounds lam on that side."""
    square = mpf_mul(mpf_sub(fone, e, prec, opp), mpf_add(fone, e, prec, opp), prec, opp)
    den = mpf_add(fone, mpf_sqrt(square, prec, opp), prec, opp)
    return mpf_div(mpf_mul(e, e, prec, rnd), mpf_mul(den, den, prec, opp), prec, rnd)


def lambda_from_eccentricity(e):
    """lam = e^2 / (1 + sqrt((1 - e)(1 + e)))^2, rounded once; stable for small e."""
    return _nearest(lambda prec: _lambda_enclosure(e, prec))


def _lambda_enclosure(e, prec: int = _PREC) -> Enclosure:
    """Outward enclosure of lam(e) from the exact e in [0, 1], at ``prec`` bits."""
    e_lo, e_hi = _bounds(_unit(e, "eccentricity must lie in [0, 1]"), prec)
    return _enclosure(_lambda_at(e_lo, _DOWN, _UP, prec), _lambda_at(e_hi, _UP, _DOWN, prec))


def eccentricity_from_lambda(lam):
    """Inverse map, e = sqrt(4 lam / (1 + lam)^2) of the exact lam, rounded once."""
    q = _unit(lam, "lam must lie in [0, 1]")
    return _root(4 * q / (1 + q) ** 2)


def _kernel(x, prec: int, rnd, opp):
    """A(x) = 1 + 3x/(10 + sqrt(4 - 3x)) of a raw x, rounded towards ``rnd``
    with the denominator rounded towards ``opp``.  A increases with x, so
    with opposite directions the result bounds A on that side."""
    three_x = mpf_mul(_THREE, x, prec, rnd)
    root = mpf_sqrt(mpf_sub(_FOUR, three_x, prec, opp), prec, opp)
    return mpf_add(fone, mpf_div(three_x, mpf_add(_TEN, root, prec, opp), prec, rnd), prec, rnd)


def _kernel_enclosure(x: Fraction, prec: int) -> Enclosure:
    """Outward enclosure of A(x) from the exact x, at ``prec`` bits."""
    x_lo, x_hi = _bounds(x, prec)
    return _enclosure(_kernel(x_lo, prec, _DOWN, _UP), _kernel(x_hi, prec, _UP, _DOWN))


def eval_A(x):
    """Closed-form 1 + 3x/(10 + sqrt(4 - 3x)) of the exact x, rounded once
    to nearest at working precision (``_nearest``)."""
    q = _unit(x, "x must lie in [0, 1]")
    return _nearest(lambda prec: _kernel_enclosure(q, prec))


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
    none is negative, so the lower terms and sum round down (from x rounded
    down) and the upper ones up, at 53 bits below tol (B < 2).  The loop
    stops as soon as the smaller of the geometric and the slow-convergence
    tail bound, added to the upper sum, brings the width within ``tol``.
    Near x = 1 the geometric bound
    degrades like 1/(1-x) and the slow-convergence bound takes over; the
    returned enclosure records which regime closed it.  Raises
    ToleranceFloorError when the term budget cannot reach ``tol`` (the
    floor at x = 1 is about 1/(8 pi max_terms^2)), and ValueError when
    ``max_terms`` < 2, a budget too small for either tail bound.
    """
    tol_q = _check_tol(tol)
    if max_terms < 2:
        raise ValueError("max_terms must be at least 2")
    q = _unit(x, "x must lie in [0, 1]")

    def refusal(floor) -> ToleranceFloorError:
        return ToleranceFloorError(
            f"tol={tol} not certifiable within {max_terms} terms at x={_point_str(q, 10)} "
            f"(achievable floor here is about {_point_str(floor, 5)})")

    estimate = _tail_estimate(float(q), max_terms)
    if estimate > 2.0 * tol_q:
        raise refusal(estimate)
    prec = max(53, 54 - _mag(*tol_q.as_integer_ratio()))
    limit = _bounds(tol_q, 53)[0]  # no larger than tol
    (x_lo, x_hi), one_minus = _bounds(q, prec), _bounds(1 - q, prec)[0]
    lo = hi = fone  # the term B_n x^n, rounded down and up
    s_lo = s_hi = fzero
    n = 0
    while n <= max_terms:
        s_lo, s_hi = mpf_add(s_lo, lo, prec, _DOWN), mpf_add(s_hi, hi, prec, _UP)
        # B_(n+1)/B_n x = num x/den
        num, den = from_int((2 * n - 1) ** 2), from_int((2 * n + 2) ** 2)
        lo = mpf_div(mpf_mul(mpf_mul(lo, x_lo, prec, _DOWN), num, prec, _DOWN), den, prec, _DOWN)
        hi = mpf_div(mpf_mul(mpf_mul(hi, x_hi, prec, _UP), num, prec, _UP), den, prec, _UP)
        if n < 64 or n % 16 == 0 or n == max_terms:
            tail, regime = _tail_bound(n, hi, one_minus, prec)
            if tail is not None:
                top = mpf_add(s_hi, tail, prec, _UP)
                if mpf_le(mpf_sub(top, s_lo), limit):  # mpf_sub without a precision is exact
                    return _enclosure(s_lo, top, regime)
        n += 1
    raise refusal(_value(_tail_bound(max_terms, hi, one_minus, prec)[0]))


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
    xf = float(_unit(x, "x must lie in [0, 1]"))
    tol = float(_check_tol(tol))
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


def _within(mag: int, tol: Fraction, enclose):
    """``enclose(prec)``, an outward-rounded (lo, hi) of raw tuples for a
    value below 2^mag.  Rounding alone sets its width, so it starts at
    ``_GUARD_BITS`` beyond mag - log2(tol) and doubles the precision
    until hi - lo <= tol; a width that four doublings leave too wide
    (the extreme axis ratios need one) is a fault, not a tolerance floor."""
    limit = _bounds(tol, 53)[0]  # no larger than tol
    start = max(53, mag - _mag(*tol.as_integer_ratio()) + _GUARD_BITS)
    for prec in (start << k for k in range(5)):
        lo, hi = enclose(prec)
        if mpf_le(mpf_sub(hi, lo), limit):  # mpf_sub without a precision is exact
            return lo, hi
    raise ArithmeticError(
        f"enclosure still wider than tol={_point_str(tol, 5)} at {prec} bits")


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


def _agm_perimeter(a: Fraction, b: Fraction, prec: int):
    """Outward-rounded (lo, hi) of 2 pi S / M for exact semi-axes a >= b > 0."""
    (a_lo, a_hi), (b_lo, b_hi) = _bounds(a, prec), _bounds(b, prec)

    def step_one(a, b, d, rnd):  # a_1, b_1, t_1, s_1 of _agm_sum, all rounded one way
        square_sum = mpf_add(mpf_mul(a, a, prec, rnd), mpf_mul(b, b, prec, rnd), prec, rnd)
        return (mpf_shift(mpf_add(a, b, prec, rnd), -1),
                mpf_sqrt(mpf_mul(a, b, prec, rnd), prec, rnd),
                mpf_shift(mpf_mul(d, d, prec, rnd), -2),
                mpf_shift(square_sum, -1))

    d_lo = mpf_sub(a_lo, b_hi, prec, _DOWN)  # of d = a - b >= 0
    lower = step_one(a_lo, b_lo, fzero if d_lo[0] else d_lo, _DOWN)
    upper = step_one(a_hi, b_hi, mpf_sub(a_hi, b_lo, prec, _UP), _UP)
    (s_lo, s_hi), (m_lo, m_hi) = _agm_sum(*zip(lower, upper), prec)
    lo = mpf_mul(mpf_shift(mpf_pi(prec, _DOWN), 1), s_lo, prec, _DOWN)
    hi = mpf_mul(mpf_shift(mpf_pi(prec, _UP), 1), s_hi, prec, _UP)
    return mpf_div(lo, m_hi, prec, _DOWN), mpf_div(hi, m_lo, prec, _UP)


def perimeter(ellipse: Ellipse, tol=None) -> Enclosure:
    """Enclosure of the true perimeter by the Gauss-Legendre AGM sum.

    The default ``tol`` is ``PERIMETER_REL_TOL`` times 4a <= p, so relative;
    an explicit ``tol`` is an absolute width, always honored by raising the
    precision (``_within``).  A degenerate b = 0 gives p = 4a, a point for
    a binary a.
    """
    a, b = ellipse.axes  # exact, a >= b
    tol = _check_tol(Fraction(PERIMETER_REL_TOL) * 4 * a if tol is None else tol)  # p >= 4a
    mag = _mag(*a.as_integer_ratio())
    if b == 0:
        lo, hi = _within(mag + 2, tol, lambda prec: _bounds(4 * a, prec))
        return _enclosure(lo, hi, EXACT_POINT)
    lo, hi = _within(mag + 3, tol, lambda prec: _agm_perimeter(a, b, prec))
    return _enclosure(lo, hi, AGM)


def perimeter_ramanujan(ellipse: Ellipse):
    """Ramanujan's closed-form approximation of the exact axes, rounded once
    to nearest at working precision (``_nearest``):

        pi * [ (a+b) + 3(a-b)^2 / (10(a+b) + sqrt(a^2 + 14ab + b^2)) ]
          = pi * (a+b) * A(((a-b)/(a+b))^2).
    """
    a, b = ellipse.axes
    s = a + b
    x = ((a - b) / s) ** 2
    return _nearest(lambda prec: _ramanujan_enclosure(x, s, prec))


def _ramanujan_enclosure(x: Fraction, s: Fraction, prec: int = _PREC) -> Enclosure:
    """p_R = pi s A(x) for the exact s = a + b and x = ((a-b)/(a+b))^2,
    rounded outward at ``prec`` bits or more: A increases with x."""
    return _product(_kernel_enclosure(x, prec), s, times_pi=True, prec=prec)


def _discrepancy_series(x: Fraction, limit, prec: int):
    """Outward-rounded (lo, hi) of sum_{n>=5} delta_n x^n, 0 < x <= SERIES_MAX_X,
    at ``prec`` bits, with a tail bound of at most half of ``limit``.

    No term is negative, so the lower sum rounds down, from x rounded down,
    and the upper sum up, from x rounded up, with delta_n and B_n from a
    fresh exact stream.  As 0 < delta_n < B_n and B_(n+1) < B_n,
    ``_tail_bound`` with next term B_n x^(n+1) bounds the tail.  The sum
    runs through n = 6 at least, so theta's rise above delta_5 (delta_6 x)
    shows however small x is, and then ends: the tail shrinks 100-fold a
    term.  ``_within`` checks that the rounding spread fits the other half.
    """
    (x_lo, x_hi), one_minus = _bounds(x, prec), _bounds(1 - x, prec)[0]
    half = mpf_shift(limit, -1)
    s_lo = s_hi = fzero
    xp_lo = xp_hi = fone  # x^n
    for n, row in enumerate(dyadic_rows()):
        (d_num, d_exp), (b_num, b_exp) = row.delta, row.B
        d_lo, d_hi = (from_man_exp(d_num, -d_exp, prec, rnd) for rnd in (_DOWN, _UP))
        s_lo = mpf_add(s_lo, mpf_mul(d_lo, xp_lo, prec, _DOWN), prec, _DOWN)
        s_hi = mpf_add(s_hi, mpf_mul(d_hi, xp_hi, prec, _UP), prec, _UP)
        xp_lo, xp_hi = mpf_mul(xp_lo, x_lo, prec, _DOWN), mpf_mul(xp_hi, x_hi, prec, _UP)
        if n < 6:  # no tail is read before n = 6
            continue
        next_term = mpf_mul(from_man_exp(b_num, -b_exp, prec, _UP), xp_hi, prec, _UP)
        tail = _tail_bound(n, next_term, one_minus, prec)[0]
        if mpf_le(tail, half):
            return s_lo, mpf_add(s_hi, tail, prec, _UP)


def _discrepancy_agm(x: Fraction, prec: int):
    """Outward-rounded (lo, hi) of B(x) - A(x), 0 < x <= 1, B from the AGM.

    The ellipse a_0 = 1 + lam, b_0 = 1 - lam with lam^2 = x has
    a_0 + b_0 = 2, so B(x) = S / M.  At step one a_1 = 1, b_1 = sqrt(1 - x),
    c_1^2 = x and (a_0^2 + b_0^2)/2 = 1 + x: x and 1 - x, each rounded
    outward, enter only there.  A increases with x, so A(x) rounded down
    takes x rounded down, and up, up.  At x = 1 the ellipse is degenerate,
    p = 4a, so B(1) = 4/pi (and A(1) = 14/11).  Delta(1) = 4/pi - 14/11 is
    also theta's attained upper bound, which ``bounds`` reads from here.
    """
    x_lo, x_hi = _bounds(x, prec)
    if x == 1:
        b_lo = mpf_div(_FOUR, mpf_pi(prec, _UP), prec, _DOWN)
        b_hi = mpf_div(_FOUR, mpf_pi(prec, _DOWN), prec, _UP)
    else:
        y_lo, y_hi = _bounds(1 - x, prec)
        lower = (fone, mpf_sqrt(y_lo, prec, _DOWN), x_lo, mpf_add(fone, x_lo, prec, _DOWN))
        upper = (fone, mpf_sqrt(y_hi, prec, _UP), x_hi, mpf_add(fone, x_hi, prec, _UP))
        (s_lo, s_hi), (m_lo, m_hi) = _agm_sum(*zip(lower, upper), prec)
        b_lo, b_hi = mpf_div(s_lo, m_hi, prec, _DOWN), mpf_div(s_hi, m_lo, prec, _UP)
    return (mpf_sub(b_lo, _kernel(x_hi, prec, _UP, _DOWN), prec, _DOWN),
            mpf_sub(b_hi, _kernel(x_lo, prec, _DOWN, _UP), prec, _UP))


def discrepancy(x, tol=None) -> Enclosure:
    """Enclosure of Delta(x) = B(x) - A(x) for 0 < x <= 1, from the exact x.

    Up to ``SERIES_MAX_X`` it sums the difference series, free of the
    cancellation of B - A (Delta(x) ~ (3/2^17) x^5 near 0) but longer as x
    grows; above it, B - A by the AGM at a precision that follows ``tol``,
    so the cancellation (Delta >= delta_5 x^5) costs digits, not width.
    The default tolerance, delta_5 x^5 / 10^9, keeps about nine significant
    digits of Delta; an explicit ``tol`` is always honored.
    """
    q = _open_unit(x, "x must lie in (0, 1]")
    tol = _check_tol(_RATIO_TOL * q**5 if tol is None else tol)
    if q <= SERIES_MAX_X:
        # Delta < 1: a precision that follows tol, not Delta < x^5, keeps
        # Delta's relative width far below theta's rise above delta_5
        limit = _bounds(tol, 53)[0]
        lo, hi = _within(0, tol, lambda prec: _discrepancy_series(q, limit, prec))
        regime = GEOMETRIC_TAIL
    else:  # B, A < 2
        lo, hi = _within(2, tol, lambda prec: _discrepancy_agm(q, prec))
        regime = CLOSED_FORM if q == 1 else AGM
    return _enclosure(lo, hi, regime)


def discrepancy_ratio(x, tol=None) -> Enclosure:
    """Enclosure of Delta(x)/x^5, the normalized discrepancy, from the exact x.

    This quantity decreases to delta_5 = 3/2^17 as x -> 0 and climbs to
    4/pi - 14/11 at x = 1.  By default Delta has its own default width,
    delta_5 x^5 / 10^9.  An explicit ``tol`` is the width of the ratio,
    honored and never loosened: Delta is enclosed within tol x^5 / 2, and
    its product with 1/x^5, rounded outward at a precision that resolves
    that width (``_product``), adds at most a few hundredths of it.
    """
    q = _open_unit(x, "x must lie in (0, 1]")
    inner = None if tol is None else _check_tol(tol) * q**5 / 2
    return _product(discrepancy(q, inner), 1 / q**5)


def theta_of_lambda(lam, tol=None) -> Enclosure:
    """Enclosure of theta(lam) = Delta(lam^2) / lam^10 for 0 < lam <= 1, from the exact lam."""
    q = _open_unit(lam, "lam must lie in (0, 1]")
    return discrepancy_ratio(q * q, tol)
