"""Machine verification of the coefficient inequality chain, with certificates.

The claims being checked, all in exact rational arithmetic:

  * A_n = B_n for n = 1..4, and A_n < B_n strictly for 5 <= n <= n_max;
  * the explicit terms of A_n alternate in sign and their consecutive
    ratios satisfy |a_(m-1)/a_m| = m/(12(2m-3)) <= 1/6 (m >= 2) with
    |a_0/a_1| = 1/3, so 0 < A_n < a_(n-1);
  * a_(n-1) < B_n for n >= 7, equivalent to f(n) < 1 where
    f(n) = (n/2) * (2n-1)/(2n-3) * 3^(n-1) / C(2n,n);
  * f is strictly decreasing from n = 7 on, because the quotient
    g(k) = f(k)/f(k+1) = 2k/(6k-9) * ((2k-1)/(k+1))^2 exceeds 1.

Every certificate boolean is decided in exact integer arithmetic, by
cross-multiplying numerators and positive denominators; the informational
minimum of g is read from integer square roots (`g_min_analysis`).

`verify_fundamental_lemma` is one walk over the rows that decides each
check of row n as the row is made, so its memory does not grow with
n_max.  It builds each quantity once, from its own definition: A_n from
the exact O(n) stream (`dyadic_rows`), which expands the closed form;
C(2n, n) once per n by `math.comb`, and from it B_n, the term magnitudes
of `a_term` and f(n) by their product formulas.  The streamed A_n is also
cross-checked against the explicit term sum for n <= 50.  No two sides
of a comparison share a recurrence.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import islice
from math import comb, isqrt
from typing import NamedTuple

from .series_kernel import a_coeff_explicit, dyadic_rows, rational_str
# unused here, but bench/tracer.py rebinds it here
from .series_kernel import a_coeffs_upto as a_series_via_composition  # noqa: F401

__all__ = [
    "LemmaCertificate",
    "f_val",
    "g_val",
    "g_min_analysis",
    "verify_fundamental_lemma",
]

# the g-minimum reals are rounded and printed in this fixed 50-digit
# context, never in the caller's
_ANALYSIS = Context(prec=50)

# Discrepancies between commonly published coefficient values and exact
# evaluation of the defining formulas; every corrected value below is
# pinned by two independent exact routes.
_PUBLISHED_VALUE_NOTES = (
    "published table lists A_n = B_n as 1/16, 1/64, 25/4096 for n = 2, 3, 4; "
    "exact evaluation gives 1/64, 1/256, 25/16384 (each published value is "
    "4x the exact one)",
    "published table lists B_5 = 49/2^14 and A_5 = 47.5/2^14; exact evaluation "
    "gives B_5 = 49/2^16 and A_5 = 95/2^17, consistent with delta_5 = 3/2^17 "
    "(the n = 6 row, A_6 = 803/2^21 and B_6 = 882/2^21, is exact as published)",
    "the published display of the explicit A_n terms is internally "
    "inconsistent (its a_(n-2) line repeats C(2n-2,n-1) and its a_1 line "
    "carries 3^(n-2)); the general term C(2m,m) 3^m / ((2m-1) 16^(m+1)) * "
    "(-1/32)^(n-1-m) reproduces its a_(n-1) and a_0 lines and matches the "
    "composition expansion exactly",
    "the published consecutive-ratio expression "
    "(1 + 2/(2n-2k-3))(1 + 1/(4n-4k-2))/12 evaluates to 7/24 at its stated "
    "worst case; the exact ratio |a_(m-1)/a_m| = m/(12(2m-3)) attains the "
    "stated bound 1/6 at m = 2",
    "the arclength integral for the perimeter is often displayed without the "
    "square root over a^2 sin^2(phi) + b^2 cos^2(phi); the radical form is "
    "the one the series identity reproduces",
)


def _sides(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int]:
    """Integers (l, r) that compare as the scaled values x and y do.

    A scaled value is an integer triple (num, den, exp) with den > 0, the
    rational num / (den * 2**exp), unreduced: shifts stand in for the
    multiplications by the large powers of two in A_n, B_n and a_(n-1).
    """
    (xn, xd, xe), (yn, yd, ye) = x, y
    left, right = xn * yd, yn * xd
    if ye >= xe:
        return left << (ye - xe), right
    return left, right << (xe - ye)


def _fraction(x: tuple[int, int, int]) -> Fraction:
    num, den, exp = x
    return Fraction(num, den << exp)


def _b_terms(n: int, central: int) -> tuple[int, int, int]:
    """B_n = [C(2n,n) / (4^n (2n-1))]^2 as a scaled value, given
    central = C(2n, n)."""
    return central * central, (2 * n - 1) ** 2, 4 * n


def _w_terms(m: int, central: int) -> tuple[int, int]:
    """The term magnitude w_m = |a_m| 2^(5n-3), which does not depend on n,
    as (numerator, denominator), given central = C(2m, m): w_0 = 1 and
    w_m = C(2m,m) 6^m / (4(2m-1)) for m >= 1."""
    return (1, 1) if m == 0 else (central * 6**m, 4 * (2 * m - 1))


def _f_terms(n: int, central: int) -> tuple[int, int]:
    """f(n) as (numerator, denominator), given central = C(2n, n)."""
    return n * (2 * n - 1) * 3 ** (n - 1), 2 * (2 * n - 3) * central


def f_val(n: int) -> Fraction:
    """f(n) = (n/2) * (2n-1)/(2n-3) * 3^(n-1) / C(2n,n), exactly.

    Equals a_(n-1)/B_n, so f(n) < 1 is the same statement as
    a_(n-1) < B_n.  Rejects n < 2 (the 2n-3 denominator region below that
    is never used).
    """
    if n < 2:
        raise ValueError("f(n) is defined here for n >= 2")
    return Fraction(*_f_terms(n, comb(2 * n, n)))


def _g_terms(k: int, fk: tuple[int, int], fk1: tuple[int, int]) -> tuple[int, int]:
    """g(k) = f(k)/f(k+1) as (numerator, denominator), from f(k) and f(k+1)
    as (numerator, denominator) pairs with positive entries.

    The quotient must equal the closed form 2k/(6k-9) * ((2k-1)/(k+1))^2,
    compared by cross-multiplication; a mismatch raises ArithmeticError.
    """
    num, den = fk[0] * fk1[1], fk[1] * fk1[0]
    if num * (6 * k - 9) * (k + 1) ** 2 != den * 2 * k * (2 * k - 1) ** 2:
        closed = Fraction(2 * k, 6 * k - 9) * Fraction(2 * k - 1, k + 1) ** 2
        raise ArithmeticError(
            f"g({k}): quotient form {Fraction(num, den)} != closed form {closed}"
        )
    return num, den


def g_val(k: int) -> Fraction:
    """g(k) = f(k)/f(k+1), exactly, cross-checked against its closed form.

    The closed form is 2k/(6k-9) * ((2k-1)/(k+1))^2; the quotient and the
    closed form are evaluated independently and must agree exactly.
    """
    if k < 2:
        raise ValueError("g(k) is defined here for k >= 2")
    return Fraction(*_g_terms(k, f_val(k).as_integer_ratio(), f_val(k + 1).as_integer_ratio()))


def _sqrt41_rounded(p: int, q: int, r: int) -> Decimal:
    """(p + q sqrt(41))/r, for r > 0, correctly rounded in `_ANALYSIS`.

    With s = isqrt(41 * 100^k), s <= 10^k sqrt(41) < s + 1, so the value lies
    between the quotients for s and s + 1, each rounded once from exact
    integers.  Rounding is monotone, so when the two agree the value rounds
    to them; sqrt(41) is irrational, so some k makes them agree.
    """
    k = _ANALYSIS.prec
    while True:
        s, scale = isqrt(41 * 100**k), 10**k
        lo = _ANALYSIS.divide(p * scale + q * s, r * scale)
        if lo == _ANALYSIS.divide(p * scale + q * (s + 1), r * scale):
            return lo
        k += _ANALYSIS.prec


def g_min_analysis() -> tuple[Decimal, Decimal]:
    """The minimum of g on (3/2, infinity), as ``(location, value)``, each a
    correctly rounded 50-digit Decimal.  Informational: no certificate
    boolean reads it.

    g'(x) = 2(2x-1)(2x^2-7x+1) / ((2x-3)^2 (x+1)^3), so on (3/2, infinity)
    g' changes sign only at the root (7 + sqrt(41))/4 of 2x^2 - 7x + 1, from
    - to +.  There g = 1 + (37 - sqrt(41))/(399 + 69 sqrt(41)) =
    (767 + 123 sqrt(41))/1500, which exceeds 1 because
    123^2 * 41 = 620289 > 733^2 = 537289.
    """
    return _sqrt41_rounded(7, 1, 4), _sqrt41_rounded(767, 123, 1500)


class LemmaCertificate(NamedTuple):
    """Structured record of which claims were verified and over what range.

    Booleans are decided by exact rational comparisons; the g-minimum
    fields are correctly rounded reals for information.  When a check
    fails, ``first_counterexample`` carries the first failing index and
    witness values.

    ``all_ok`` holds when every ``bool`` field holds and
    ``first_counterexample`` is None.  The JSON lists the fields in their
    declared order, then ``all_ok``; a Fraction prints as ``rational_str``,
    a Decimal to 25 digits, a tuple or list as a list, and any other value
    as it is.
    """

    n_max: int
    equalities_ok: bool
    inequalities_ok: bool
    f7_value: Fraction
    f_monotone_range: tuple[int, int]
    g_min_location: Decimal
    g_min_value: Decimal
    claim1_worst_ratio: Fraction
    claim2_ok: bool
    paper_typos_noted: list[str]
    claim1_ok: bool
    dominance_ok: bool
    chain_equivalence_ok: bool
    route_check_max_n: int
    routes_ok: bool
    claim_sample_indices: list[int]
    first_counterexample: dict | None

    def all_ok(self) -> bool:
        return self.first_counterexample is None and all(
            v for v in self if isinstance(v, bool))

    def to_json_dict(self) -> dict:
        def value(v):
            if isinstance(v, Fraction):
                return rational_str(v)
            if isinstance(v, Decimal):
                with localcontext(_ANALYSIS):  # rounds to 25 digits half-even
                    return format(v, ".25g")
            return list(v) if isinstance(v, (tuple, list)) else v

        doc = {name: value(v) for name, v in zip(self._fields, self)}
        doc["all_ok"] = self.all_ok()
        return doc

    def to_json(self) -> str:
        import json  # here, so that a command that prints no JSON never loads it

        return json.dumps(self.to_json_dict(), indent=2)


def _claim_samples(n_max: int) -> list[int]:
    # n = 5..16 densely, then the powers of two from 32 up, and n_max itself
    return sorted({*range(5, min(n_max, 16) + 1),
                   *(1 << i for i in range(5, n_max.bit_length())), n_max})


def verify_fundamental_lemma(n_max: int) -> LemmaCertificate:
    """Run the full exact verification up to n_max (n_max >= 7).

    One walk over the rows n = 0, ..., n_max decides at row n each check
    that the row closes, in this order:

      * A_n = B_n for n = 1..4, and A_n < B_n strictly from n = 5;
      * at each sample index n (`claim_sample_indices`), claim 1, that
        |a_(m-1)/a_m| = w_(m-1)/w_m = m/(12(2m-3)) <= 1/6 for 2 <= m < n
        and |a_0/a_1| = 1/3, and claim 2, that w_0, ..., w_(n-1) > 0, so
        the terms alternate in sign from a positive lead term;
      * from n = 7, 0 < A_n < a_(n-1) (dominance), and
        (f(n) < 1) <=> (a_(n-1) < B_n) with f(n) = a_(n-1)/B_n (chain);
      * from n = 8, g(n-1) > 1, so f decreases strictly (in the chain);
      * for n <= min(50, n_max), the streamed A_n equals the explicit sum.

    Row n builds each quantity once, from its own definition: A_n as (odd
    numerator, exponent) from the exact O(n) stream (`dyadic_rows`), which
    expands the closed form; C(2n, n) by `math.comb`, and from it B_n
    (`_b_terms`, unreduced), the term magnitude w_n (`_w_terms`) and f(n)
    (`_f_terms`) by their product formulas; the lead term a_(n-1) is
    w_(n-1) / 2^(5n-3).  Between rows the walk keeps w_(n-1), f(n-1), f(7)
    and the first claim faults, each noted at the first sample index above
    its m, so its memory does not grow with n_max.  No claim is checked on
    values grown by the recurrence it asserts, and A_n and B_n share no
    recurrence.  Every comparison is an integer shift or cross-
    multiplication; a Fraction is built only for a witness or a printed
    field.

    Failures are recorded, never raised: each ``*_ok`` field states its
    claim over its whole range, and ``first_counterexample`` is the first
    failure along the walk, at the smallest index and, at one index, in
    the order above; with one fault, or faults whose indices follow that
    order, that is the first failure of the first failing check.  Only a
    g(k) that differs from its closed form raises ArithmeticError, as in
    `g_val`.
    """
    if n_max < 7:
        raise ValueError("verification needs n_max >= 7")
    samples = _claim_samples(n_max)
    route_max = min(50, n_max)

    ok = dict.fromkeys(("equalities_ok", "inequalities_ok", "claim1_ok", "claim2_ok",
                        "dominance_ok", "chain_equivalence_ok", "routes_ok"), True)
    first: dict | None = None

    def fail(field: str, check: str, index: int, **witness) -> None:
        nonlocal first
        ok[field] = False
        if first is None:
            first = {"check": check, "index": index}
            first.update({
                k: rational_str(v) if isinstance(v, Fraction) else str(v)
                for k, v in witness.items()
            })

    worst = (0, 1)  # the largest ratio w_(m-1)/w_m over 2 <= m < n_max
    ratio_fault = None  # (m, num, den) of the smallest m >= 2 whose ratio fails
    ratio01_fault = None  # w_0/w_1 as (num, den), unless it is 1/3
    sign_fault = False  # some w_m <= 0
    w_prev = f_prev = f7 = None
    for n, ((a_num, a_exp), _b, _d) in enumerate(islice(dyadic_rows(), n_max + 1)):
        central = comb(2 * n, n)
        # A_n, B_n and a_(n-1) are scaled values (`_sides`); w_n and f(n)
        # are (numerator, denominator) pairs with positive denominators
        a, b, w = (a_num, 1, a_exp), _b_terms(n, central), _w_terms(n, central)

        left, right = _sides(a, b)
        if 1 <= n <= 4 and left != right:
            fail("equalities_ok", "equality A_n = B_n", n,
                 a_n=_fraction(a), b_n=_fraction(b))
        if n >= 5 and not left < right:
            fail("inequalities_ok", "strict inequality A_n < B_n", n,
                 a_n=_fraction(a), b_n=_fraction(b))

        if n in samples:
            if ratio_fault is not None:
                m, num, den = ratio_fault
                fail("claim1_ok", "claim 1 ratio", n, m=m, ratio=Fraction(num, den))
            if ratio01_fault is not None:
                fail("claim1_ok", "claim 1 ratio a_0/a_1", n, ratio=Fraction(*ratio01_fault))
            if sign_fault:
                fail("claim2_ok", "claim 2 sign alternation", n)

        if n >= 7:
            lead = (*w_prev, 5 * n - 3)
            left, right = _sides(a, lead)
            if not (0 < a_num and left < right):
                fail("dominance_ok", "dominance 0 < A_n < a_(n-1)", n,
                     a_n=_fraction(a), lead=_fraction(lead))
            f_num, f_den = f = _f_terms(n, central)
            f_below_one = f_num < f_den
            lead_b = _sides(lead, b)
            fb_lead = _sides((f_num * b[0], f_den * b[1], b[2]), lead)  # f(n) B_n vs a_(n-1)
            if (f_below_one != (lead_b[0] < lead_b[1])
                    or fb_lead[0] != fb_lead[1]  # f(n) = a_(n-1)/B_n
                    or not f_below_one):
                fail("chain_equivalence_ok", "chain f(n) < 1 <=> a_(n-1) < B_n", n,
                     f_n=Fraction(f_num, f_den))
            if n == 7:
                f7 = f
            else:
                g_num, g_den = _g_terms(n - 1, f_prev, f)  # raises unless it is the closed form
                # g(n-1) > 1 and f(n-1) > f(n) cross-multiply to the same integers
                if not g_num > g_den:
                    fail("chain_equivalence_ok", "f strictly decreasing", n,
                         f_prev=Fraction(*f_prev), f_cur=Fraction(*f))
            f_prev = f

        if 1 <= n <= route_max and a_coeff_explicit(n).as_integer_ratio() != (a_num, 1 << a_exp):
            fail("routes_ok", "route equivalence explicit = composition", n)

        # the claims read w_m for m < n_max, and a fault at m waits for the
        # next sample index, so w_n is judged after row n's notes
        if 1 <= n < n_max:
            num, den = w_prev[0] * w[1], w_prev[1] * w[0]  # w_(n-1)/w_n
            if n == 1:
                ratio01_fault = (num, den) if 3 * num != den else None
            else:
                if ratio_fault is None and (num * 12 * (2 * n - 3) != den * n or 6 * num > den):
                    ratio_fault = n, num, den
                if num * worst[1] > worst[0] * den:
                    worst = num, den
        sign_fault = sign_fault or (n < n_max and w[0] <= 0)
        w_prev = w

    g_loc, g_min = g_min_analysis()

    return LemmaCertificate(
        n_max=n_max,
        f7_value=Fraction(*f7),
        f_monotone_range=(7, n_max),
        g_min_location=g_loc,
        g_min_value=g_min,
        claim1_worst_ratio=Fraction(*worst),
        paper_typos_noted=list(_PUBLISHED_VALUE_NOTES),
        route_check_max_n=route_max,
        claim_sample_indices=samples,
        first_counterexample=first,
        **ok,
    )
