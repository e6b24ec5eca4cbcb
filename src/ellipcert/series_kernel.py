"""Exact rational coefficients of the two ellipse-perimeter kernels.

The perimeter of an ellipse with semi-axes a >= b is pi*(a+b)*B(x) at
x = ((a-b)/(a+b))^2, where

    B(x) = sum_{n>=0} [ C(2n,n) / (4^n (2n-1)) ]^2 x^n,

and Ramanujan's closed-form approximation is pi*(a+b)*A(x) with

    A(x) = 1 + 3x / (10 + sqrt(4 - 3x)).

This module produces the Maclaurin coefficients A_n and B_n, and their
gap delta_n = B_n - A_n, exactly.  All three are dyadic, so production
streams them as integers (`dyadic_rows`), a few small-integer steps per
row, without Fraction arithmetic.  With Cat(m) = C(2m,m)/(m+1) the m-th
Catalan number,

    C(2n,n)/(2n-1) = 2 Cat(n-1)    (n >= 1),

because C(2n,n) = C(2n-2,n-1) * 2(2n-1)/n.  Hence B_n = Cat(n-1)^2 /
2^(4n-2).  The explicit expansion of A_n (see `a_term`) is a sum of
terms C(2m,m) 3^m / ((2m-1) 16^(m+1)) (-1/32)^(n-1-m) for m >= 1 and
(1/4)(-1/32)^(n-1) for m = 0.  The m = 0 term has the largest
denominator, 2^(5n-3), and on that common scale every term is an integer:

    A_n 2^(5n-3) = sum_{m=0}^{n-1} (-1)^(n-1-m) w_m,
        w_0 = 1,  w_m = 2^(m-1) Cat(m-1) 3^m  (m >= 1),
    B_n 2^(5n-3) = 2^(n-1) Cat(n-1)^2.

The Catalan ratio Cat(m)/Cat(m-1) = 2(2m-1)/(m+1) turns both into
small-integer recurrences on the scaled integers (see `dyadic_rows`).
Each row carries every coefficient as an odd numerator and a power-of-two
exponent.  The module holds no table: `a_coeffs_upto`, `b_coeffs_upto`
and `delta_coeffs_upto` build Fractions from a fresh stream, the engine
keeps mpf images of the rows, and `coeff_rows_str` prints them from a
decimal twin, so no big integer is converted to decimal.

Two independent checks stay beside the stream:

  * `a_coeff_explicit` sums the closed-form term expansion;
  * `b_coeff` evaluates the defining product formula directly.

`PowerSeries` with `ps_mul`, `ps_binomial_sqrt` and `ps_geom_recip` is
the formal series algebra the tests use as an oracle for the stream.  No
floating point appears anywhere in this module.
"""

from __future__ import annotations

from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
)
from fractions import Fraction
from itertools import chain, count, islice, pairwise
from math import comb
from typing import NamedTuple

__all__ = [
    "PowerSeries",
    "ps_mul",
    "ps_binomial_sqrt",
    "ps_geom_recip",
    "b_coeff",
    "a_series_via_composition",
    "a_coeff_explicit",
    "a_term",
    "delta_coeff",
    "a_coeffs_upto",
    "b_coeffs_upto",
    "delta_coeffs_upto",
    "DyadicRow",
    "dyadic_rows",
    "coeff_rows_str",
    "rational_str",
]


class PowerSeries:
    """Truncated formal power series with exact rational coefficients.

    ``coeffs[n]`` holds the coefficient of x^n; the truncation order is
    ``len(coeffs) - 1`` (inclusive).  Instances are immutable in spirit:
    operations return new series and never read past either operand's
    stated order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        if not cs:
            raise ValueError("a power series needs at least its constant term")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"PowerSeries([{shown}{tail}], order={self.order})"


def ps_mul(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Exact Cauchy product, truncated at the smaller operand order."""
    order = min(f.order, g.order)
    out = [
        sum((f.coeffs[j] * g.coeffs[k - j] for j in range(k + 1)), Fraction(0))
        for k in range(order + 1)
    ]
    return PowerSeries(out)


def ps_binomial_sqrt(c: Fraction, order: int) -> PowerSeries:
    """Expansion of (1 - c*x)^(1/2) to the given order, exactly.

    The coefficient of x^j for j >= 1 is -C(2j,j) / ((2j-1) 4^j) * c^j.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    c = Fraction(c)
    out = [Fraction(1)]
    for j in range(1, order + 1):
        out.append(-Fraction(comb(2 * j, j), (2 * j - 1) * 4**j) * c**j)
    return PowerSeries(out)


def ps_geom_recip(c: Fraction, order: int) -> PowerSeries:
    """Expansion of 1 / (c + x) to the given order, exactly; c must be nonzero."""
    if order < 0:
        raise ValueError("order must be >= 0")
    c = Fraction(c)
    if c == 0:
        raise ValueError("1/(c + x) has no power-series expansion at c = 0")
    return PowerSeries([Fraction((-1) ** k) / c ** (k + 1) for k in range(order + 1)])


def b_coeff(n: int) -> Fraction:
    """Coefficient B_n = [ C(2n,n) / (4^n (2n-1)) ]^2, exactly.

    The factor 1/(2n-1) is kept literal at n = 0: it is 1/(-1) there and
    the square makes B_0 = 1 without a special case.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(comb(2 * n, n), 4**n * (2 * n - 1)) ** 2


def a_series_via_composition(order: int) -> PowerSeries:
    """Maclaurin expansion of A(x) = 1 + 3x/(10 + sqrt(4-3x)) to the given order.

    The coefficients are read from the exact stream, which expands the
    closed form (see `dyadic_rows`).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return PowerSeries(a_coeffs_upto(order))


def a_term(n: int, m: int) -> Fraction:
    """The m-th term of the explicit expansion of A_n (0 <= m <= n-1).

    A_n = sum_{m=0}^{n-1} a_m with

        a_0 = (4/16) * (-1/32)^(n-1),
        a_m = C(2m,m) * 3^m / ((2m-1) * 16^(m+1)) * (-1/32)^(n-1-m),  m >= 1.

    Terms alternate in sign; |a_(m-1)/a_m| = m / (12(2m-3)) <= 1/6 for
    m >= 2 and |a_0/a_1| = 1/3, so the leading term a_(n-1) dominates.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= m <= n - 1:
        raise ValueError("term index m must satisfy 0 <= m <= n-1")
    if m == 0:
        return Fraction(4, 16) * Fraction(-1, 32) ** (n - 1)
    lead = Fraction(comb(2 * m, m) * 3**m, (2 * m - 1) * 16 ** (m + 1))
    return lead * Fraction(-1, 32) ** (n - 1 - m)


def a_coeff_explicit(n: int) -> Fraction:
    """Coefficient A_n by direct summation of the explicit terms.

    Rejects n = 0: the constant term is definitionally 1 and has no term
    expansion.  Equals the streamed coefficient A_n for every n.
    """
    if n < 1:
        raise ValueError("n must be >= 1 (A_0 = 1 by definition)")
    return sum((a_term(n, m) for m in range(n)), Fraction(0))


def delta_coeff(n: int) -> Fraction:
    """delta_n = B_n - A_n, exactly.  Zero for n <= 4, positive for n >= 5."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(0)
    return b_coeff(n) - a_coeff_explicit(n)


class DyadicRow(NamedTuple):
    """A_n, B_n and delta_n, each as (num, exp) with value num / 2**exp;
    num is odd, or 0 with exp = 0."""

    A: tuple[int, int]
    B: tuple[int, int]
    delta: tuple[int, int]


def _reduced(scaled: int, exp: int) -> tuple[int, int]:
    """scaled / 2**exp as (odd numerator, exponent): strip trailing zero bits."""
    if scaled == 0:
        return 0, 0
    k = (scaled & -scaled).bit_length() - 1
    return scaled >> k, exp - k


def dyadic_rows():
    """Yield row_0, row_1, ... (`DyadicRow`s) without end, exactly.

    Row n is grown from the integers alpha_n = A_n 2^(5n-3), w_n and
    beta_n = B_n 2^(5n-3) of the module docstring:

        alpha_(n+1) = w_n - alpha_n,
        w_(n+1) = w_n 12(2n-1)/(n+1),
        beta_(n+1) = beta_n 8(2n-1)^2/(n+1)^2,

    from alpha_1 = w_0 = 1, w_1 = 3 and beta_1 = 1; delta_n's scaled value
    is beta_n - alpha_n.  Every step is an exact small-integer multiply or
    divide (the quotients are integers by the Catalan identities), and
    reduction only strips trailing zero bits, so no gcd is ever taken.
    Each stream keeps only the three integers of its next row, so nothing
    outlives its consumer; take a prefix with `itertools.islice`.
    """
    yield DyadicRow((1, 0), (1, 0), (0, 0))
    alpha, w, beta = 1, 3, 1  # alpha_n, w_n, beta_n of row n
    for n in count(1):
        exp = 5 * n - 3
        yield DyadicRow(_reduced(alpha, exp), _reduced(beta, exp), _reduced(beta - alpha, exp))
        alpha = w - alpha
        w = w * (12 * (2 * n - 1)) // (n + 1)
        beta = beta * (8 * (2 * n - 1) ** 2) // (n + 1) ** 2


def _rows_upto(n_max: int):
    """row_0, ..., row_n_max of a fresh stream."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return islice(dyadic_rows(), n_max + 1)


def _fractions(column: int, n_max: int) -> list[Fraction]:
    return [Fraction(num, 1 << exp) for num, exp in
            (row[column] for row in _rows_upto(n_max))]


def a_coeffs_upto(n_max: int) -> list[Fraction]:
    """[A_0, ..., A_n_max] exactly."""
    return _fractions(0, n_max)


def b_coeffs_upto(n_max: int) -> list[Fraction]:
    """[B_0, ..., B_n_max] exactly."""
    return _fractions(1, n_max)


def delta_coeffs_upto(n_max: int) -> list[Fraction]:
    """[delta_0, ..., delta_n_max] exactly."""
    return _fractions(2, n_max)


# Exact integer arithmetic in decimal: the precision never binds, and any
# rounding, inexact division or overflow raises instead of happening.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Rounded, Inexact, InvalidOperation, DivisionByZero, Overflow])


def _exact_div(x: Decimal, d: int) -> Decimal:
    q, r = _EXACT.divmod(x, d)
    if r:
        raise ArithmeticError(f"inexact division by {d} in the decimal twin")
    return q


def _times_pow2(x: Decimal, k: int) -> Decimal:
    """x * 2**k exactly; for k < 0 the division must leave no remainder."""
    return _EXACT.multiply(x, 1 << k) if k >= 0 else _exact_div(x, 1 << -k)


def _difference(x: Decimal, ex: int, y: Decimal, ey: int, exp: int) -> Decimal:
    """The numerator of x/2**ex - y/2**ey over 2**exp, exactly."""
    top = max(ex, ey)
    diff = _EXACT.subtract(_times_pow2(x, top - ex), _times_pow2(y, top - ey))
    return _times_pow2(diff, exp - top)


def coeff_rows_str(n_max: int):
    """Iterator over (n, A_n, B_n, delta_n) for n = 0..n_max, each
    coefficient an exact "numerator/denominator" string.

    The strings come from a decimal twin of the rows, advanced in lockstep
    on the odd numerators by small-integer steps:

        A_(n+1) = t_n - A_n/32,   t_n = Cat(n-1) 3^n / 2^(4n+3),
        t_(n+1) = t_n 3(2n-1) / (8(n+1)),
        B_(n+1) = B_n (2n-1)^2 / (2n+2)^2,
        delta_n = B_n - A_n,

    with A_1 = B_1 = 1/4 and t_1 = 3/2^7.  The first line is the rows'
    alpha_(n+1) = w_n - alpha_n divided by 2^(5n+2), so t_n = w_n/2^(5n+2).
    The exponents come from the binary rows, read one row ahead for the
    next A exponent, and each 2**exp denominator from a running power, so
    no big integer is converted to decimal, and a wrong exponent makes an
    exact division fail instead of printing a wrong value.
    """
    return _decimal_twin(_rows_upto(n_max))


def _decimal_twin(rows):
    rows = iter(rows)
    next(rows, None)  # row 0 prints as constants
    yield 0, "1/1", "1/1", "0/1"
    a, b, t, t_exp = Decimal(1), Decimal(1), Decimal(3), 7
    dens = [[0, Decimal(1)] for _ in range(3)]  # running [exp, 2**exp] per column
    for n, (row, ahead) in enumerate(pairwise(chain(rows, [None])), start=1):
        exps = [exp for _num, exp in row]
        nums = (a, b, _difference(b, exps[1], a, exps[0], exps[2]))
        for den, exp in zip(dens, exps):
            den[1] = _times_pow2(den[1], exp - den[0])
            den[0] = exp
        yield (n, *(f"{num}/{den[1]}" for num, den in zip(nums, dens)))
        if ahead is not None:
            v = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = 2^v * odd
            odd = (n + 1) >> v
            a = _difference(t, t_exp, a, exps[0] + 5, ahead.A[1])
            b = _exact_div(_EXACT.multiply(b, (2 * n - 1) ** 2), odd * odd)
            t = _exact_div(_EXACT.multiply(t, 3 * (2 * n - 1)), odd)
            t_exp += 3 + v


def rational_str(q) -> str:
    """"numerator/denominator", exact at any size: Decimal prints an int
    without the interpreter's cap on int-to-str digits."""
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"
