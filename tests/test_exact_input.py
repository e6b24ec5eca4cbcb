"""Enclosures from the exact input: no argument is rounded on entry.

A float, int or mpf argument is taken at its exact value at any width, so
an enclosure is certified for the number given, not for a rounding of it.
References come from mpmath's ``ellipe`` at enough digits to survive its
cancellations: the modulus 1 - (b/a)^2 loses 2 log10(a/b) digits, and
epsilon = p - p_R loses another 10 log10(1/lam).
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp

from ellipcert import (
    Ellipse,
    containment_check,
    discrepancy,
    engine,
    error_report,
    theta_of_lambda,
)


def reference_delta(x, dps: int = 2600):
    """Delta(x) = B(x) - A(x), with B(x) = p(1+lam, 1-lam) / (2 pi) from ``ellipe``."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        lam = mp.sqrt(x)
        a, b = 1 + lam, 1 - lam
        big_b = 4 * a * mp.ellipe(1 - (b / a) ** 2) / (2 * mp.pi)
        return big_b - (1 + 3 * x / (10 + mp.sqrt(4 - 3 * x)))


def _log10(q: F) -> float:
    return math.log10(q.numerator) - math.log10(q.denominator)


def _digits(enc) -> int:
    """Decimal digits the enclosure resolves (0 for a point)."""
    if enc.width == 0:
        return 0
    with mp.workdps(30):
        return int(mp.log10(abs(enc.hi) / enc.width)) + 1


def reference_report(a, b, digits: int):
    """p, epsilon, theta and delta_e of the ellipse with semi-axes a > b > 0,
    at ``digits`` digits beyond the two cancellations."""
    aq, bq = engine._exact_fraction(a), engine._exact_fraction(b)
    lost = 2 * _log10(aq / bq) + 10 * _log10((aq + bq) / (aq - bq))
    with mp.workdps(int(lost) + digits + 40):
        a, b = mp.mpf(a), mp.mpf(b)  # exact: a binary input has fewer bits
        p = 4 * a * mp.ellipe(1 - (b / a) ** 2)
        x = ((a - b) / (a + b)) ** 2
        eps = p - mp.pi * (a + b) * (1 + 3 * x / (10 + mp.sqrt(4 - 3 * x)))
        theta = eps / (mp.pi * (a + b) * x**5)
        return p, eps, theta, mp.pi * theta / 2**19


def _one_minus_two_to_the(k: int):
    with mp.workdps(700):
        return 1 - mp.mpf(2) ** -k  # exact: 700 digits hold 2326 bits


@settings(max_examples=200, deadline=None)
@given(num=st.integers(1, 10**80), den=st.integers(1, 10**80), prec=st.integers(2, 400))
def test_a_rational_is_rounded_outward_by_at_most_two_ulps(num, den, prec):
    q = F(num, den)
    lo, hi = (engine._exact_fraction(mp.make_mpf(v)) for v in engine._bounds(q, prec))
    if q.denominator & (q.denominator - 1) == 0:
        assert lo == q == hi  # binary: held exactly, at any width
    else:
        assert lo < q < hi
        assert hi - lo <= q * F(2) ** (2 - prec)


@settings(max_examples=300, deadline=None)
@given(num=st.integers(-10**80, 10**80), den=st.integers(1, 10**80), prec=st.integers(2, 4000),
       rnd=st.sampled_from(["f", "c", "n"]))
@example(num=2**300 + 1, den=2**300, prec=10, rnd="n")  # binary, wider than prec
@example(num=-(10**80 - 1), den=3, prec=2, rnd="c")  # a quotient shifted right
@example(num=-(2**200 - 1), den=3 * 2**40, prec=150, rnd="n")
def test_one_rounding_is_libmps_correct_rounding(num, den, prec, rnd):
    q = F(num, den)
    raw = engine._rounded(q, prec, rnd)
    if q.denominator & (q.denominator - 1) == 0:
        assert engine._exact_fraction(mp.make_mpf(raw)) == q  # binary: exact, at any width
    else:
        assert raw == libmp.from_rational(q.numerator, q.denominator, prec, rnd)
    assert engine._bounds(q, prec) == (engine._rounded(q, prec, "f"),
                                       engine._rounded(q, prec, "c"))


def test_a_non_binary_axis_rounds_to_nearest():
    # 1/10 used to round towards zero, one ulp below its nearest value
    assert Ellipse(F(1, 10), 1).b._mpf_ == libmp.from_rational(1, 10, 169, "n")


_WIDE = 1 + F(1, 2**200)


@pytest.mark.parametrize("point, exact", [
    (lambda: Ellipse(F(3, 4) + F(1, 2**301), F(1, 4) - F(1, 2**301)).lam, F(1, 2) + F(1, 2**300)),
    (lambda: error_report(Ellipse(_WIDE, 0)).ramanujan_estimate, 3 * _WIDE / 2**36),
    (lambda: Ellipse(_WIDE, 1).a, _WIDE),
], ids=["lam", "ramanujan_estimate", "a"])
def test_a_binary_point_value_rounds_to_nearest_too(point, exact):
    # each was returned exact, 300, 202 and 201 bits wide
    assert point()._mpf_ == libmp.from_rational(exact.numerator, exact.denominator, 169, "n")


# ------------------------------------------- inputs wider than 50 digits


@pytest.mark.parametrize("k", [180, 400, 2000])
def test_discrepancy_near_one_is_certified_for_the_given_x(k):
    # rounded to 50 digits on entry, this x became 1 and the result was the
    # closed-form Delta(1), which misses Delta(x) by 5.5e-57 at k = 180
    x = _one_minus_two_to_the(k)
    enc = discrepancy(x, mp.mpf("1e-640"))
    assert enc.width <= mp.mpf("1e-640")
    assert enc.regime == engine.AGM
    assert enc.contains(reference_delta(x))


@pytest.mark.parametrize("k", [180, 2000])
def test_theta_near_one_is_certified_for_the_given_lambda(k):
    lam = _one_minus_two_to_the(k)
    enc = theta_of_lambda(lam, mp.mpf("1e-640"))
    assert enc.width <= mp.mpf("1e-640")
    with mp.workdps(2600):
        x = mp.mpf(lam) ** 2
        assert enc.contains(reference_delta(x) / x**5)


def test_error_report_takes_a_wide_axis_exactly():
    # a = 1 + 2^-300: rounded to 50 digits it equals b, a circle with
    # epsilon = 0 and theta = 3/2^17, both of which miss
    with mp.workdps(100):
        a = 1 + mp.mpf(2) ** -300
    rep = error_report(Ellipse(a, 1.0))
    assert rep.epsilon_enclosure.lo > 0
    assert engine._exact_fraction(rep.theta.lo) > F(3, 2**17)
    digits = max(map(_digits, (rep.p_enclosure, rep.epsilon_enclosure, rep.theta)))
    refs = reference_report(a, 1.0, 2 * digits + 20)
    encs = (rep.p_enclosure, rep.epsilon_enclosure, rep.theta, rep.delta_e)
    assert all(enc.contains(ref) for enc, ref in zip(encs, refs))


# ------------------------------------------------ every finite double pair

axes = st.floats(min_value=1e-300, max_value=1e300)


@settings(max_examples=25, deadline=None)
@given(a=axes, b=axes)
@example(a=1e300, b=5e-324)  # subnormal b
@example(a=5e-324, b=1e300)  # swapped
@example(a=1.0, b=1e-310)
@example(a=1.0, b=1 - 2**-52)
@example(a=2.0, b=1.0)
@example(a=1.0, b=1e-40)  # inside the inconclusive band
@example(a=3.0, b=0.0)
@example(a=7.0, b=7.0)
def test_error_report_contains_the_references(a, b):
    rep = error_report(Ellipse(a, b))  # its two overlap checks raise on a miss
    assert containment_check(rep)["ok"]  # inconclusive is allowed, fail is not
    big, small = max(a, b), min(a, b)
    encs = (rep.p_enclosure, rep.epsilon_enclosure, rep.theta, rep.delta_e)
    if small == big:
        assert rep.epsilon_enclosure.lo == rep.epsilon_enclosure.hi == 0
        assert rep.theta.contains(F(3, 2**17))
        return
    assert rep.ramanujan_estimate < rep.epsilon_enclosure.lo  # below by a factor over pi
    if small == 0:
        with mp.workdps(60):
            theta = 4 / mp.pi - mp.mpf(14) / 11
            refs = (4 * F(big), big * (4 - 14 * mp.pi / 11), theta, mp.pi * theta / 2**19)
    else:
        digits = max(map(_digits, encs[:3]))
        refs = reference_report(big, small, 2 * digits + 20)
    for name, enc, ref in zip(("p", "epsilon", "theta", "delta_e"), encs, refs):
        assert enc.contains(ref), name
