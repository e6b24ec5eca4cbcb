"""Binary floating point with directed rounding, on raw tuples, standard library only.

A raw value is a tuple (sign, man, exp, bc) worth (-1)^sign * man * 2^exp,
with man odd and bc its bit length; zero is (0, 0, 0, 0).  That is the
normalized format of ``mpmath.libmp``.  The module holds only the
operations the package calls, and each keeps the libmp name, arguments and
result bits, so values pass between the two unchanged and the tests hold
each operation to libmp bit for bit.

Each operation given a precision rounds once to ``prec`` bits in one of the
three directions the package uses: ``round_floor`` and ``round_ceiling``
for the outward enclosures, ``round_nearest`` (ties to even) for the point
values.  Without a precision, ``mpf_add``, ``mpf_sub`` and ``mpf_mul`` are
exact, and ``mpf_shift`` always is.  Add, sub, mul, div and sqrt are
correctly rounded, each by one path: it forms its result exactly (div and
sqrt to a few bits past ``prec``, with a sticky bit for what lies below)
and rounds once.  ``mpf_lt`` and ``mpf_le`` read the sign of the exact
difference.

pi comes from an integer series (Machin's formula) with an error bound,
exact to the floor at the precision asked.  ``to_str`` prints a value's
exact decimal digits, rounded half up, in the layout of mpmath's ``nstr``,
and ``Dyadic`` is the exact value type the package returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

round_nearest, round_floor, round_ceiling = "n", "f", "c"

fzero = (0, 0, 0, 0)
fone = (0, 1, 0, 1)


def dps_to_prec(n: int) -> int:
    """The bits that hold n decimal digits: 169 for 50."""
    return max(1, int(round((int(n) + 1) * 3.3219280948873626)))


def _round(sign, man, exp, bc, prec, rnd):
    """(-1)^sign man 2^exp, man > 0 with bc bits, rounded to prec bits and
    stripped of trailing zero bits."""
    if not man:
        return fzero
    n = bc - prec
    if n > 0:
        if rnd == round_nearest:
            t = man >> (n - 1)
            if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
                man = (t >> 1) + 1
            else:
                man = t >> 1
        elif (rnd == round_floor) != sign:  # the floor of the magnitude
            man >>= n
        else:
            man = -(-man >> n)
        exp += n
    if not man & 1:
        t = (man & -man).bit_length() - 1
        man >>= t
        exp += t
    return sign, man, exp, man.bit_length()


def from_man_exp(man: int, exp: int, prec: int = 0, rnd=round_floor):
    """man * 2^exp for a signed integer man, exact or rounded to prec bits."""
    sign = 0
    if man < 0:
        sign, man = 1, -man
    if not prec:
        prec = man.bit_length()
    return _round(sign, man, exp, man.bit_length(), prec, rnd)


def from_int(n: int):
    return from_man_exp(n, 0)


def mpf_pos(s, prec: int = 0, rnd=round_floor):
    """s rounded to prec bits; s itself without a precision."""
    if not prec:
        return s
    sign, man, exp, bc = s
    return _round(sign, man, exp, bc, prec, rnd)


def mpf_shift(s, n: int):
    """s * 2^n, exactly."""
    sign, man, exp, bc = s
    return (sign, man, exp + n, bc) if man else s


def mpf_add(s, t, prec: int = 0, rnd=round_floor, _sub: int = 0):
    """s + t, exact without a precision."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    tsign ^= _sub
    if not sman:
        return mpf_pos((tsign, tman, texp, tbc), prec or tbc, rnd) if tman else fzero
    if not tman:
        return mpf_pos(s, prec or sbc, rnd)
    if sexp < texp:  # s is the one with the larger exponent from here on
        ssign, sman, sexp, tsign, tman, texp = tsign, tman, texp, ssign, sman, sexp
    offset = sexp - texp
    if ssign == tsign:
        man, sign = tman + (sman << offset), ssign
    else:
        man = (sman << offset) - tman
        sign = ssign
        if man < 0:
            man, sign = -man, 1 - ssign
    bc = man.bit_length()
    return _round(sign, man, texp, bc, prec or bc, rnd)


def mpf_sub(s, t, prec: int = 0, rnd=round_floor):
    """s - t, exact without a precision."""
    return mpf_add(s, t, prec, rnd, 1)


def mpf_mul(s, t, prec: int = 0, rnd=round_floor):
    """s * t, exact without a precision."""
    ssign, sman, sexp, _ = s
    tsign, tman, texp, _ = t
    man = sman * tman
    if not man:
        return fzero
    bc = man.bit_length()
    return _round(ssign ^ tsign, man, sexp + texp, bc, prec or bc, rnd)


def mpf_div(s, t, prec: int, rnd):
    """s / t for t != 0: quotient bits beyond prec + 4, and a sticky bit."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not tman:
        raise ZeroDivisionError("division by zero")
    if not sman:
        return fzero
    sign = ssign ^ tsign
    extra = max(prec - sbc + tbc + 5, 5)
    quot, rem = divmod(sman << extra, tman)
    if rem:
        quot = (quot << 1) + 1
        extra += 1
    return _round(sign, quot, sexp - texp - extra, quot.bit_length(), prec, rnd)


def mpf_sqrt(s, prec: int, rnd):
    """The square root of s >= 0."""
    sign, man, exp, bc = s
    if sign:
        raise ValueError("square root of a negative number")
    if not man:
        return s
    if exp & 1:
        exp -= 1
        man <<= 1
        bc += 1
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    root = math.isqrt(man << shift)
    if rnd != round_floor and root * root != man << shift:
        root = (root << 1) + 1  # a sticky bit below the floor
        shift += 2
    return from_man_exp(root, (exp - shift) // 2, prec, rnd)


def mpf_lt(s, t) -> bool:
    """s < t: the exact s - t is negative."""
    return mpf_sub(s, t)[0] == 1


def mpf_le(s, t) -> bool:
    """s <= t: the exact t - s is not negative."""
    return mpf_sub(t, s)[0] == 0


# -- pi: floor(pi * 2^prec), exactly, from an integer series ------------------


def _arctan_series(x: int, one: int):
    """sum_k (-1)^k one / ((2k+1) x^(2k+1)) in integers, for x >= 3:
    atan(1/x) times one, within 3 (terms + 1)."""
    x2 = x * x
    power = one // x
    total, k = power, 1
    while power:
        power //= x2
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        k += 1
    return total, 3 * (k + 1)


@lru_cache(maxsize=64)
def _floor_at(prec: int) -> int:
    """floor(pi 2^prec): Machin's formula at more bits, with guard bits
    added until its error bound settles the floor."""
    guard = 16 + prec.bit_length()
    while True:
        a, err_a = _arctan_series(5, 1 << (prec + guard))
        b, err_b = _arctan_series(239, 1 << (prec + guard))
        value, err = 16 * a - 4 * b, 16 * err_a + 4 * err_b
        lo, hi = (value - err) >> guard, (value + err) >> guard
        if lo == hi:
            return lo
        guard += 32


def mpf_pi(prec: int, rnd):
    """pi rounded to prec bits, as libmp rounds its constants: the floor at
    wp = prec + 20 bits (from the cached floor at the next multiple of 256
    bits), plus one towards ceiling."""
    wp = prec + 20
    top = -(-wp // 256) * 256
    v = _floor_at(top) >> (top - wp)
    if rnd == round_ceiling:
        v += 1
    return _round(0, v, -wp, v.bit_length(), prec, rnd)


# -- printing -----------------------------------------------------------------


def _leading_digits(man: int, exp: int, bc: int, count: int):
    """(d, e) for v = man 2^exp > 0, man of bc bits: d is v's first count
    decimal digits rounded half up, exactly, an integer in
    [10^(count-1), 10^count), and e the decimal exponent of its first."""
    # 2^(exp+bc-1) <= v, and the float product errs by less than one while
    # |exp + bc| < 2^50, so e starts at most three below the leading
    # digit's exponent and never above it
    e = math.floor((exp + bc - 1) * 0.30102999566398120) - 1
    k = count - e
    q = man << max(exp, 0)
    q = q * 10**k if k >= 0 else q // 10**-k
    q >>= max(-exp, 0)  # floor(v 10^k), floors in any order being one floor
    top = 10 ** (count + 1)
    while q >= top:  # until q holds count + 1 digits: then e is exact
        q //= 10
        e += 1
    q = (q + 5) // 10
    if q == top // 10:  # 99..95 rounds up to the next power of ten
        return q // 10, e + 1
    return q, e


def to_str(s, dps: int) -> str:
    """s with dps significant digits: its exact value rounded half up, the
    digits taken in integers at every magnitude (Steele and White's exact
    method), laid out as mpmath's ``nstr(x, dps)`` lays them out: fixed
    point while the leading digit's decimal exponent lies strictly between
    min(-(dps // 3), -5) and dps, trailing zeros stripped."""
    sign, man, exp, bc = s
    if not man:
        return "0.0"
    d, exponent = _leading_digits(man, exp, bc, dps)
    digits, split = str(d), 1
    if min(-(dps // 3), -5) < exponent < dps:  # fixed point
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    sign = "-" if sign else ""
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"


# -- the returned value type ----------------------------------------------


def _exact(value):
    """A Fraction result as the package's exact type: a Dyadic when its
    denominator is a power of two, else an _Exact."""
    if type(value) is not Fraction:
        return value  # a float, a complex, NotImplemented, ...
    den = value.denominator
    return Dyadic(value) if den & (den - 1) == 0 else _Exact(value)


def _closed(operator):
    return lambda a, *b: _exact(operator(a, *b))


class _Exact(Fraction):
    """A Fraction whose arithmetic stays in the exact types and that mpmath
    takes as a rational (``_mpmath_``), rounded at its own precision."""

    __slots__ = ()

    __add__, __radd__ = _closed(Fraction.__add__), _closed(Fraction.__radd__)
    __sub__, __rsub__ = _closed(Fraction.__sub__), _closed(Fraction.__rsub__)
    __mul__, __rmul__ = _closed(Fraction.__mul__), _closed(Fraction.__rmul__)
    __truediv__, __rtruediv__ = _closed(Fraction.__truediv__), _closed(Fraction.__rtruediv__)
    __pow__ = _closed(Fraction.__pow__)
    __neg__, __pos__, __abs__ = (_closed(Fraction.__neg__), _closed(Fraction.__pos__),
                                 _closed(Fraction.__abs__))

    def _mpmath_(self, prec, rounding):
        return Fraction(self)

    def __eq__(self, other):
        if isinstance(other, (int, float, Fraction)) or not hasattr(other, "_mpf_"):
            return Fraction.__eq__(self, other)
        return NotImplemented  # left to a binary float type, which reads _mpf_ or _mpmath_

    __hash__ = Fraction.__hash__


class Dyadic(_Exact):
    """An exact binary value: a Fraction whose ``_mpf_`` is its raw tuple.

    Arithmetic and comparisons are a Fraction's, and their exact results
    are a Dyadic again when binary (a quotient may not be).  Against an
    object that carries a raw value of its own (an mpmath mpf) the
    operation is left to that object, which reads ``_mpf_`` and so takes
    this value exactly.
    """

    __slots__ = ("_raw",)

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        den = self.denominator
        if den & (den - 1):
            raise ValueError(f"{numerator!r} is not a binary fraction")
        self._raw = from_man_exp(self.numerator, 1 - den.bit_length())
        return self

    @classmethod
    def from_raw(cls, raw) -> "Dyadic":
        sign, man, exp, _ = raw
        if exp >= 0:
            self = Fraction.__new__(cls, -man << exp if sign else man << exp)
        else:
            self = Fraction.__new__(cls, -man if sign else man, 1 << -exp)
        self._raw = raw
        return self

    @property
    def _mpf_(self):
        return self._raw
