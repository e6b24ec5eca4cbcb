"""Exact rational coefficients of the two ellipse-perimeter kernels.

The perimeter of an ellipse with semi-axes a >= b is pi*(a+b)*B(x) at
x = ((a-b)/(a+b))^2, where

    B(x) = sum_{n>=0} [ C(2n,n) / (4^n (2n-1)) ]^2 x^n,

and Ramanujan's closed-form approximation is pi*(a+b)*A(x) with

    A(x) = 1 + 3x / (10 + sqrt(4 - 3x)).

This module produces the Maclaurin coefficients A_n and B_n as exact
rationals.  Production has one O(n) table per quantity, grown on demand
by `_CoefficientCache`: A_n by exact long division of the closed form's
series, B_n by its term ratio.  Two independent checks stay beside it:

  * `a_coeff_explicit` sums the closed-form term expansion
    a_m = C(2m,m) 3^m / ((2m-1) 16^(m+1)) * (-1/32)^(n-1-m)   (m >= 1),
    a_0 = (4/16) * (-1/32)^(n-1);
  * `b_coeff` evaluates the defining product formula directly.

`PowerSeries` with `ps_mul`, `ps_binomial_sqrt` and `ps_geom_recip` is
the formal series algebra the tests use as an oracle for the table.  No
floating point appears anywhere in this module.
"""

from __future__ import annotations

import threading
from decimal import Decimal
from fractions import Fraction
from math import comb

# Exact rationals: Fraction keeps gcd-reduced canonical form (positive
# denominator) after every operation, which is exactly the contract the
# coefficient work needs.
Rational = Fraction

__all__ = [
    "Rational",
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

    The coefficients are read from the shared table, which expands the
    closed form exactly (see `_CoefficientCache`).
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
    expansion.  Equals the table coefficient A_n for every n.
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


class _CoefficientCache:
    """Initialize-once grow-on-demand store for A_n, B_n, delta_n tables.

    B grows by the exact term ratio B_(n+1) = B_n * ((2n-1)/(2n+2))^2.
    A grows by exact long division of the closed form: A(x) = 1 +
    x u(x)/(32 + x) with u(x) = 10 - sqrt(4 - 3x), so A_1 = u_0/32 = 1/4
    and A_(n+1) = t_n - A_n/32 with t_n = u_n/32.  The root's binomial
    series gives t_1 = 3/128 and the term ratio t_m/t_(m-1) = 3(2m-3)/(8m):
    one ratio step per row, so the table is O(n).  Guarded by a lock so
    concurrent readers only ever see fully built prefixes.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._a = [Fraction(1), Fraction(1, 4)]
        self._b = [Fraction(1), Fraction(1, 4)]
        self._delta = [Fraction(0), Fraction(0)]
        self._t = Fraction(3, 128)  # t_n for the highest built index n

    def grow(self, n_max: int) -> None:
        with self._lock:
            while len(self._a) <= n_max:
                n = len(self._a) - 1  # highest index currently built
                self._a.append(self._t - self._a[n] / 32)
                self._b.append(self._b[n] * Fraction(2 * n - 1, 2 * n + 2) ** 2)
                self._delta.append(self._b[n + 1] - self._a[n + 1])
                self._t *= Fraction(3 * (2 * n - 1), 8 * (n + 1))  # t_(n+1)

    def a_upto(self, n_max: int) -> list[Fraction]:
        self.grow(n_max)
        return self._a[: n_max + 1]

    def b_upto(self, n_max: int) -> list[Fraction]:
        self.grow(n_max)
        return self._b[: n_max + 1]

    def delta_upto(self, n_max: int) -> list[Fraction]:
        self.grow(n_max)
        return self._delta[: n_max + 1]


_CACHE = _CoefficientCache()


def a_coeffs_upto(n_max: int) -> list[Fraction]:
    """[A_0, ..., A_n_max] from the shared exact table."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return _CACHE.a_upto(n_max)


def b_coeffs_upto(n_max: int) -> list[Fraction]:
    """[B_0, ..., B_n_max] from the shared exact table."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return _CACHE.b_upto(n_max)


def delta_coeffs_upto(n_max: int) -> list[Fraction]:
    """[delta_0, ..., delta_n_max] from the shared exact table."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return _CACHE.delta_upto(n_max)


def rational_str(q) -> str:
    """"numerator/denominator", exact at any size: Decimal prints an int
    without the interpreter's cap on int-to-str digits."""
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"
