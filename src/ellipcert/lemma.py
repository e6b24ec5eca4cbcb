"""Machine verification of the coefficient inequality chain, with certificates.

The claims being checked, all in exact rational arithmetic unless noted:

  * A_n = B_n for n = 1..4, and A_n < B_n strictly for 5 <= n <= n_max;
  * the explicit terms of A_n alternate in sign and their consecutive
    ratios satisfy |a_(m-1)/a_m| = m/(12(2m-3)) <= 1/6 (m >= 2) with
    |a_0/a_1| = 1/3, so 0 < A_n < a_(n-1);
  * a_(n-1) < B_n for n >= 7, equivalent to f(n) < 1 where
    f(n) = (n/2) * (2n-1)/(2n-3) * 3^(n-1) / C(2n,n);
  * f is strictly decreasing from n = 7 on, because the quotient
    g(k) = f(k)/f(k+1) = 2k/(6k-9) * ((2k-1)/(k+1))^2 exceeds 1.

The one intentionally non-exact piece is `g_min_analysis`, which locates
the real minimum of g at (7 + sqrt(41))/4 and corroborates the sign
pattern of g' numerically, in 50-digit decimal arithmetic; everything
feeding the certificate booleans is decided in exact integer arithmetic,
by cross-multiplying numerators and positive denominators.

`verify_fundamental_lemma` is one pass that builds each quantity once,
each from its own definition: A_n from the exact O(n) stream, which
expands the closed form; B_n from the product formula (`b_coeff`);
C(2m, m) by `math.comb`, and from it the explicit terms a_m of `a_term`
and f(n).  The streamed A_n is also cross-checked against the explicit
term sum for n <= 50.  No two sides of a comparison share a recurrence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import comb

from .series_kernel import a_coeff_explicit, a_series_via_composition, b_coeff, rational_str

__all__ = [
    "LemmaCertificate",
    "f_val",
    "g_val",
    "g_min_analysis",
    "verify_fundamental_lemma",
]

# the one numeric part of the module runs in its own 50-digit context,
# fixed here and entered with localcontext, so the caller's decimal
# context never reaches it
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


def _g_real(x):
    return (2 * x / (6 * x - 9)) * ((2 * x - 1) / (x + 1)) ** 2


def _g_prime_real(x):
    return 2 * (2 * x**2 - 7 * x + 1) / (x * (x + 1) * (2 * x - 1) * (2 * x + 3))


def g_min_analysis() -> tuple[Decimal, Decimal]:
    """Locate and evaluate the minimum of g on (3/2, infinity).

    Returns ``(location, value)`` as 50-digit Decimals, where location =
    (7 + sqrt(41))/4, the positive root of 2x^2 - 7x + 1.  The value is
    computed two ways (the closed form 1 + (37 - sqrt(41))/(399 + 69
    sqrt(41)) and direct evaluation of g) which must agree to 1e-12, and
    the sign of g' left and right of the minimum is checked both from its
    rational closed form and by centered finite differences.
    """
    with localcontext(_ANALYSIS):
        s41 = Decimal(41).sqrt()
        location = (7 + s41) / 4
        closed = 1 + (37 - s41) / (399 + 69 * s41)
        direct = _g_real(location)
        if abs(closed - direct) > Decimal("1e-12"):
            raise ArithmeticError(
                f"g minimum value disagrees between forms: {closed} vs {direct}"
            )
        h = Decimal("1e-12")
        for probe, want_sign in ((location - Decimal("0.5"), -1),
                                 (location + Decimal("0.5"), 1)):
            formula_sign = 1 if _g_prime_real(probe) > 0 else -1
            fd = (_g_real(probe + h) - _g_real(probe - h)) / (2 * h)
            fd_sign = 1 if fd > 0 else -1
            if formula_sign != want_sign or fd_sign != want_sign:
                raise ArithmeticError(
                    f"g' sign check failed at x = {probe}: "
                    f"formula {formula_sign}, finite difference {fd_sign}"
                )
        # stationarity at the located minimum, again by finite differences
        fd_mid = (_g_real(location + h) - _g_real(location - h)) / (2 * h)
        if abs(fd_mid) > Decimal("1e-8"):
            raise ArithmeticError(f"g not stationary at {location}: slope {fd_mid}")
    return location, closed


@dataclass
class LemmaCertificate:
    """Structured record of which claims were verified and over what range.

    Booleans are decided by exact rational comparisons; the g-minimum
    fields are the explicitly numeric part of the analysis.  When a check
    fails, ``first_counterexample`` carries the first failing index and
    witness values; serialization order is fixed.
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
        return (
            self.equalities_ok
            and self.inequalities_ok
            and self.claim1_ok
            and self.claim2_ok
            and self.dominance_ok
            and self.chain_equivalence_ok
            and self.routes_ok
            and self.first_counterexample is None
        )

    def to_json_dict(self) -> dict:
        def real(v) -> str:
            with localcontext(_ANALYSIS):  # rounds to 25 digits half-even
                return format(v, ".25g")

        return {
            "n_max": self.n_max,
            "equalities_ok": self.equalities_ok,
            "inequalities_ok": self.inequalities_ok,
            "f7_value": rational_str(self.f7_value),
            "f_monotone_range": list(self.f_monotone_range),
            "g_min_location": real(self.g_min_location),
            "g_min_value": real(self.g_min_value),
            "claim1_worst_ratio": rational_str(self.claim1_worst_ratio),
            "claim2_ok": self.claim2_ok,
            "paper_typos_noted": list(self.paper_typos_noted),
            "claim1_ok": self.claim1_ok,
            "dominance_ok": self.dominance_ok,
            "chain_equivalence_ok": self.chain_equivalence_ok,
            "route_check_max_n": self.route_check_max_n,
            "routes_ok": self.routes_ok,
            "claim_sample_indices": list(self.claim_sample_indices),
            "first_counterexample": self.first_counterexample,
            "all_ok": self.all_ok(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _claim_samples(n_max: int) -> list[int]:
    # small n densely, then geometric spacing; deterministic for a given n_max
    base = set(range(5, min(n_max, 16) + 1))
    n = 16
    while n < n_max:
        n *= 2
        if n <= n_max:
            base.add(n)
    base.add(n_max)
    return sorted(base)


def verify_fundamental_lemma(n_max: int) -> LemmaCertificate:
    """Run the full exact verification up to n_max (n_max >= 7).

    Checks, in order: A_n = B_n for n = 1..4; A_n < B_n for 5 <= n <= n_max;
    term-ratio and sign-alternation claims on a deterministic sample of n;
    0 < A_n < a_(n-1) and a_(n-1) < B_n for 7 <= n <= n_max; the exact
    equivalence (f(n) < 1) <=> (a_(n-1) < B_n) together with the identity
    f(n) = a_(n-1)/B_n; strict decrease of f via g(k) > 1; and agreement of
    the streamed A_n with the explicit term sum for n <= min(50, n_max).

    One pass builds each quantity once, from its own definition:

      * A_n from the exact O(n) stream (`a_series_via_composition`), which
        expands the closed form;
      * B_n from the defining product formula (`b_coeff`), once per n;
      * C(2m, m) once per m <= n_max, by `math.comb`;
      * the term magnitudes w_m = |a_m| 2^(5n-3) = C(2m,m) 6^m / (4(2m-1))
        (w_0 = 1) of `a_term`, which do not depend on n, so each ratio
        verdict is decided once per m and every sample n reads it;
      * the lead term a_(n-1) = w_(n-1) / 2^(5n-3);
      * f(n) for 7 <= n <= n_max from its product formula.

    No claim is checked on values grown by the recurrence it asserts, and
    A_n and B_n share no recurrence.  Every comparison is an integer
    cross-multiplication of numerators and positive denominators; a
    Fraction is built only for a recorded witness or a printed field.

    Failures are recorded in the certificate, never raised; only a g(k)
    that differs from its closed form raises ArithmeticError, as in `g_val`.
    """
    if n_max < 7:
        raise ValueError("verification needs n_max >= 7")

    a = a_series_via_composition(n_max).coeffs
    b = [b_coeff(n) for n in range(n_max + 1)]
    central = [comb(2 * m, m) for m in range(n_max + 1)]
    # (numerator, denominator) pairs; every denominator is positive
    w = [(1, 1)] + [(central[m] * 6**m, 4 * (2 * m - 1)) for m in range(1, n_max)]
    f = {n: _f_terms(n, central[n]) for n in range(7, n_max + 1)}

    first: dict | None = None

    def note(check: str, index: int, **witness) -> None:
        nonlocal first
        if first is None:
            first = {"check": check, "index": index}
            first.update({
                k: rational_str(v) if isinstance(v, Fraction) else str(v)
                for k, v in witness.items()
            })

    equalities_ok = True
    for n in range(1, 5):
        if a[n] != b[n]:
            equalities_ok = False
            note("equality A_n = B_n", n, a_n=a[n], b_n=b[n])
            break

    inequalities_ok = True
    for n in range(5, n_max + 1):
        if not a[n] < b[n]:  # Fraction order is one cross-multiplication
            inequalities_ok = False
            note("strict inequality A_n < B_n", n, a_n=a[n], b_n=b[n])
            break

    # claim 1, once per m: |a_(m-1)/a_m| = w_(m-1)/w_m = m/(12(2m-3)) <= 1/6;
    # sample n reads the verdicts of m <= n-1, so the worst ratio over the
    # samples is the worst over 2 <= m <= n_max - 1
    bad_ratio = None  # (m, num, den) of the smallest failing m
    worst = (0, 1)
    for m in range(2, n_max):
        num, den = w[m - 1][0] * w[m][1], w[m - 1][1] * w[m][0]
        if bad_ratio is None and (num * 12 * (2 * m - 3) != den * m or 6 * num > den):
            bad_ratio = (m, num, den)
        if num * worst[1] > worst[0] * den:
            worst = (num, den)
    ratio01 = (w[0][0] * w[1][1], w[0][1] * w[1][0])
    # claim 2: a_m = (-1)^(n-1-m) w_m / 2^(5n-3), so a_(n-1) > 0 and the
    # signs alternate exactly when w_0, ..., w_(n-1) are all positive
    first_nonpositive = next((m for m, (num, _den) in enumerate(w) if num <= 0), n_max)

    samples = _claim_samples(n_max)
    claim1_ok = True
    claim2_ok = True
    for n in samples:
        if bad_ratio is not None and bad_ratio[0] < n:
            claim1_ok = False
            m, num, den = bad_ratio
            note("claim 1 ratio", n, m=m, ratio=Fraction(num, den))
        if 3 * ratio01[0] != ratio01[1]:
            claim1_ok = False
            note("claim 1 ratio a_0/a_1", n, ratio=Fraction(*ratio01))
        if first_nonpositive < n:
            claim2_ok = False
            note("claim 2 sign alternation", n)

    dominance_ok = True
    chain_ok = True
    for n in range(7, n_max + 1):
        lead_num, lead_den = w[n - 1][0], w[n - 1][1] << (5 * n - 3)
        a_num, a_den = a[n].numerator, a[n].denominator
        if not (0 < a_num and a_num * lead_den < lead_num * a_den):
            dominance_ok = False
            note("dominance 0 < A_n < a_(n-1)", n, a_n=a[n], lead=Fraction(lead_num, lead_den))
            break
        f_num, f_den = f[n]
        b_num, b_den = b[n].numerator, b[n].denominator
        f_below_one = f_num < f_den
        if (f_below_one != (lead_num * b_den < b_num * lead_den)
                or f_num * lead_den * b_num != f_den * lead_num * b_den  # f(n) = a_(n-1)/B_n
                or not f_below_one):
            chain_ok = False
            note("chain f(n) < 1 <=> a_(n-1) < B_n", n, f_n=Fraction(f_num, f_den))
            break

    f_monotone_ok = True
    for k in range(7, n_max):
        g_num, g_den = _g_terms(k, f[k], f[k + 1])  # raises unless it is the closed form
        # g(k) > 1 and f(k) > f(k+1) cross-multiply to the same integers
        if not g_num > g_den:
            f_monotone_ok = False
            note("f strictly decreasing", k + 1, f_prev=Fraction(*f[k]), f_cur=Fraction(*f[k + 1]))
            break
    chain_ok = chain_ok and f_monotone_ok

    route_max = min(50, n_max)
    routes_ok = True
    for n in range(1, route_max + 1):
        if a_coeff_explicit(n) != a[n]:
            routes_ok = False
            note("route equivalence explicit = composition", n)
            break

    g_loc, g_min = g_min_analysis()

    return LemmaCertificate(
        n_max=n_max,
        equalities_ok=equalities_ok,
        inequalities_ok=inequalities_ok,
        f7_value=Fraction(*f[7]),
        f_monotone_range=(7, n_max),
        g_min_location=g_loc,
        g_min_value=g_min,
        claim1_worst_ratio=Fraction(*worst),
        claim2_ok=claim2_ok,
        paper_typos_noted=list(_PUBLISHED_VALUE_NOTES),
        claim1_ok=claim1_ok,
        dominance_ok=dominance_ok,
        chain_equivalence_ok=chain_ok,
        route_check_max_n=route_max,
        routes_ok=routes_ok,
        claim_sample_indices=samples,
        first_counterexample=first,
    )
