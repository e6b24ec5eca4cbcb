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
Row n carries these integers as they are, over the common exponent
5n - 3: every reader reduces, rounds or cross-multiplies them anyway.
The module holds no table: `a_coeffs_upto`, `b_coeffs_upto` and
`delta_coeffs_upto` build Fractions from a fresh stream, and the engine
reads its own stream per call.  `coeff_rows_str` prints the table from a
decimal twin of the rows that keeps odd numerators and finds their exponents:
B_n's is 4n - 2 popcount(n), since Cat(n-1) has 2-adic valuation
popcount(n) - 1; A_(n+1) = t_n - A_n/32 and delta_n = B_n - A_n are
differences of two odd numerators, odd over the larger exponent when the
two differ, and stripped of their trailing zero bits when they agree.

Two independent checks stay beside the stream:

  * `a_coeff_explicit` sums the closed-form term expansion;
  * `b_coeff` evaluates the defining product formula directly.

No floating point appears anywhere in this module.
"""

from __future__ import annotations

from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero, Inexact,
                     InvalidOperation, Overflow, Rounded)
from fractions import Fraction
from itertools import count, islice
from math import comb
from typing import NamedTuple

__all__ = [
    "b_coeff", "a_coeff_explicit", "a_term", "delta_coeff",
    "a_coeffs_upto", "b_coeffs_upto", "delta_coeffs_upto", "DyadicRow", "dyadic_rows",
    "coeff_rows_str", "rational_str",
]


def b_coeff(n: int) -> Fraction:
    """Coefficient B_n = [ C(2n,n) / (4^n (2n-1)) ]^2, exactly.

    The factor 1/(2n-1) is kept literal at n = 0: it is 1/(-1) there and
    the square makes B_0 = 1 without a special case.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(comb(2 * n, n), 4**n * (2 * n - 1)) ** 2


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

    The terms of `a_term` are summed as integers on their common scale
    2^(5n-3), where a_m = (-1)^(n-1-m) w_m with w_0 = 1 and

        w_m = C(2m,m) 6^m / (4(2m-1))    (m >= 1),

    each w_m computed from `math.comb` by a division that must leave no
    remainder (ArithmeticError otherwise).  Rejects n = 0: the constant
    term is definitionally 1 and has no term expansion.  Equals the
    streamed coefficient A_n for every n.
    """
    if n < 1:
        raise ValueError("n must be >= 1 (A_0 = 1 by definition)")
    total = 1 if n % 2 else -1  # the m = 0 term, (-1)^(n-1) w_0
    for m in range(1, n):
        w, rem = divmod(comb(2 * m, m) * 6**m, 4 * (2 * m - 1))
        if rem:
            raise ArithmeticError(f"term a_{m} of A_{n} is not an integer on the scale 2^(5n-3)")
        total += w if (n - 1 - m) % 2 == 0 else -w
    return Fraction(total, 1 << (5 * n - 3))


def delta_coeff(n: int) -> Fraction:
    """delta_n = B_n - A_n, exactly.  Zero for n <= 4, positive for n >= 5."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(0)
    return b_coeff(n) - a_coeff_explicit(n)


class DyadicRow(NamedTuple):
    """A_n, B_n and delta_n, each as (num, exp) with value num / 2**exp,
    unreduced: exp is 5n - 3 for n >= 1."""

    A: tuple[int, int]
    B: tuple[int, int]
    delta: tuple[int, int]


def dyadic_rows():
    """Yield row_0, row_1, ... (`DyadicRow`s) without end, exactly.

    Row n is grown from the integers alpha_n = A_n 2^(5n-3), w_n and
    beta_n = B_n 2^(5n-3) of the module docstring:

        alpha_(n+1) = w_n - alpha_n,
        w_(n+1) = w_n 12(2n-1)/(n+1),
        beta_(n+1) = beta_n 8(2n-1)^2/(n+1)^2,

    from alpha_1 = w_0 = 1, w_1 = 3 and beta_1 = 1; delta_n's scaled value
    is beta_n - alpha_n.  Every step is an exact small-integer multiply or
    divide (the quotients are integers by the Catalan identities), and a
    row yields the three integers unreduced, over 2^(5n-3), so no gcd is
    ever taken.  Each stream keeps only the three integers of its next
    row, so nothing outlives its consumer; take a prefix with
    `itertools.islice`.
    """
    yield DyadicRow((1, 0), (1, 0), (0, 0))
    alpha, w, beta = 1, 3, 1  # alpha_n, w_n, beta_n of row n
    for n in count(1):
        exp = 5 * n - 3
        yield DyadicRow((alpha, exp), (beta, exp), (beta - alpha, exp))
        alpha = w - alpha
        w = w * (12 * (2 * n - 1)) // (n + 1)
        beta = beta * (8 * (2 * n - 1) ** 2) // (n + 1) ** 2


def _fractions(column: int, n_max: int) -> list[Fraction]:
    """Column ``column`` of row_0, ..., row_n_max of a fresh stream."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return [Fraction(num, 1 << exp) for num, exp in
            (row[column] for row in islice(dyadic_rows(), n_max + 1))]


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
    if k == 0:
        return x
    return _EXACT.multiply(x, 1 << k) if k > 0 else _exact_div(x, 1 << -k)


_LOW = 10**18  # 2**18 divides it: x mod 10**18 shows the low zero bits of x, up to 18


def _odd_difference(x: Decimal, ex: int, y: Decimal, ey: int) -> tuple[Decimal, int]:
    """x/2**ex - y/2**ey for odd x and y, as (odd numerator, exponent);
    (0, 0) when the two are equal."""
    if ex != ey:  # odd minus even: odd, over the larger exponent
        top = max(ex, ey)
        return _EXACT.subtract(_times_pow2(x, top - ex), _times_pow2(y, top - ey)), top
    diff = _EXACT.subtract(x, y)
    if not diff:
        return diff, 0
    while True:
        low = int(_EXACT.remainder(diff, _LOW))
        k = min((low & -low).bit_length() - 1, 18) if low else 18
        diff, ex = _exact_div(diff, 1 << k), ex - k
        if k < 18:
            return diff, ex


def coeff_rows_str(n_max: int):
    """Iterator over (n, A_n, B_n, delta_n) for n = 0..n_max, each
    coefficient an exact "numerator/denominator" string.

    The strings come from a decimal twin of the rows, each coefficient an
    odd numerator with its own exponent, advanced by small-integer steps:

        A_(n+1) = t_n - A_n/32,   t_n = Cat(n-1) 3^n / 2^(4n+3),
        t_(n+1) = t_n 3(2n-1) / (8(n+1)),
        B_(n+1) = B_n (2n-1)^2 / (2n+2)^2,
        delta_n = B_n - A_n,

    with A_1 = B_1 = 1/4 and t_1 = 3/2^7 (t_n = w_n/2^(5n+2) turns the
    rows' alpha_(n+1) = w_n - alpha_n into the first line).  With
    n + 1 = 2^v * odd, the odd part divides the numerator of each product
    step, whose exponent grows by 3 + v for t and by 2 + 2v for B.  A
    difference of two odd numerators over unequal exponents is odd and
    takes the larger one; over equal ones it loses its trailing zero
    bits, counted from its remainder mod 10^18 (2^18 divides 10^18).
    Each 2**exp denominator comes from a running power, so no big integer
    is converted to decimal, and every division traps on a remainder.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return _decimal_twin(n_max)


def _decimal_twin(n_max: int):
    yield 0, "1/1", "1/1", "0/1"
    a, b, t = (Decimal(1), 2), (Decimal(1), 2), (Decimal(3), 7)  # A_1, B_1, t_1
    dens = [[0, Decimal(1)] for _ in range(3)]  # running [exp, 2**exp] per column
    for n in range(1, n_max + 1):
        if n > 1:  # step from row m = n - 1, with n = 2^v * odd
            m, v = n - 1, (n & -n).bit_length() - 1
            odd = n >> v
            a = _odd_difference(*t, a[0], a[1] + 5)
            b = _exact_div(_EXACT.multiply(b[0], (2 * m - 1) ** 2), odd * odd), b[1] + 2 + 2 * v
            t = _exact_div(_EXACT.multiply(t[0], 3 * (2 * m - 1)), odd), t[1] + 3 + v
        cells = (a, b, _odd_difference(*b, *a))
        texts = {}  # one denominator text per distinct exponent of the row
        for den, (_num, exp) in zip(dens, cells):
            den[1] = _times_pow2(den[1], exp - den[0])
            den[0] = exp
            if exp not in texts:
                texts[exp] = str(den[1])
        yield (n, *(f"{num}/{texts[exp]}" for num, exp in cells))


def rational_str(q) -> str:
    """"numerator/denominator", exact at any size: Decimal prints an int
    without the interpreter's cap on int-to-str digits."""
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"
