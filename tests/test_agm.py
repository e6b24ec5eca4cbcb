"""The AGM routes: the perimeter, and Delta above SERIES_MAX_X.

Each enclosure is checked against a route that shares no code with it:
pi (a+b) eval_B, the delta_n series, mpmath's ellipe, or a reference AGM
computed here in mpmath at more than twice the working digits.  ``ellipe``
is called only at dps >= 2 log10(a/b) + 30: near the degenerate end its
modulus 1 - (b/a)^2 cancels that many digits.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_float, from_man_exp, mpf_le

from ellipcert import (
    Ellipse,
    ToleranceFloorError,
    discrepancy,
    engine,
    eval_B,
    perimeter,
    theta_of_lambda,
)
from ellipcert._dyadic import Dyadic
from ellipcert.cli import cli_main
from ellipcert.series_kernel import dyadic_rows


def reference_perimeter(a, b, dps: int):
    """2 pi (a^2 - sum_n 2^(n-1) c_n^2) / AGM(a, b) at ``dps`` digits, a >= b > 0."""
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        s = (a * a + b * b) / 2  # a^2 - c_0^2 / 2
        c2 = ((a - b) / 2) ** 2  # c_1^2
        a, b = (a + b) / 2, mp.sqrt(a * b)  # a_1, b_1
        weight = 1  # 2^(n-1)
        while c2 > b * b * mp.mpf(2) ** (-2 * mp.prec):
            s -= weight * c2
            a, b = (a + b) / 2, mp.sqrt(a * b)
            c2 = c2**2 / (16 * a * a)
            weight *= 2
        return 2 * mp.pi * s / a


def reference_theta(lam, dps: int):
    """(B(x) - A(x)) / x^5 at x = lam^2, with B(x) = p(1+lam, 1-lam) / (2 pi)
    from ``ellipe`` at enough digits for its modulus."""
    if lam == 1:
        with mp.workdps(dps):
            return 4 / mp.pi - mp.mpf(14) / 11
    with mp.workdps(dps + 2 * int(math.log10((1 + lam) / (1 - lam))) + 30):
        lm = mp.mpf(lam)
        a, b, x = 1 + lm, 1 - lm, lm * lm
        big_b = 4 * a * mp.ellipe(1 - (b / a) ** 2) / (2 * mp.pi)
        small_a = 1 + 3 * x / (10 + mp.sqrt(4 - 3 * x))
        return (big_b - small_a) / x**5


def _digits(enc) -> int:
    """Decimal digits the enclosure resolves."""
    with mp.workdps(30):
        return int(mp.log10(abs(enc.hi) / enc.width)) + 1


# ------------------------------------------------------------ perimeter

axes = st.floats(min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(a=axes, b=axes)
@example(a=1.0, b=1e-300)
@example(a=1e300, b=5e-324)
@example(a=5e-324, b=1e300)
@example(a=2.0, b=1.0)
@example(a=1e300, b=1e300)
def test_perimeter_contains_the_reference_agm(a, b):
    assume(max(a, b) > 0)
    big, small = max(a, b), min(a, b)
    enc = perimeter(Ellipse(a, b))
    if small == 0:
        assert engine._exact_fraction(enc.lo) == engine._exact_fraction(enc.hi) == 4 * F(big)
        return
    with mp.workdps(30):
        assert enc.width <= mp.mpf("1e-12") * enc.lo  # the default is relative
    assert enc.contains(reference_perimeter(big, small, 2 * _digits(enc) + 20))


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (1.0, 0.25), (1.0, 1e-6), (5e5, 1e-12),
                                  (3.0, 1e-40)])
def test_perimeter_contains_ellipe_at_enough_digits(a, b):
    enc = perimeter(Ellipse(a, b), tol=1e-30 * a)
    with mp.workdps(int(2 * math.log10(a / b)) + 30 + _digits(enc)):
        ref = 4 * mp.mpf(a) * mp.ellipe(1 - (mp.mpf(b) / a) ** 2)
    assert enc.contains(ref)


@pytest.mark.parametrize("x", [0.0, 0.01, 0.25, 0.5, 0.9, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
def test_agm_perimeter_overlaps_the_series_route(x):
    lam = math.sqrt(x)
    ell = Ellipse(1 + lam, 1 - lam)
    enc = perimeter(ell)
    series = eval_B(ell.lam**2, 1e-9 if x > 0.99 else 1e-13)
    with mp.workdps(80):
        scale = mp.pi * (ell.a + ell.b)
        slack = mp.mpf(10) ** -70
        assert max(enc.lo, scale * series.lo) <= min(enc.hi, scale * series.hi) + slack, x


@pytest.mark.parametrize("a", [1e36, 1e40, 1e300])
@pytest.mark.parametrize("ratio", [1.0, 1 / 3])
def test_explicit_tolerance_is_honoured_for_huge_axes(a, ratio):
    try:
        enc = perimeter(Ellipse(a, a * ratio), tol=1e-12)
    except ToleranceFloorError:
        return  # refused, which is allowed; loosened is not
    assert enc.width <= 1e-12
    assert enc.contains(reference_perimeter(a, a * ratio, 2 * _digits(enc) + 20))


@pytest.mark.parametrize("a", [5e5, 1e-10])
def test_degenerate_default_width_is_relative(a):
    enc = perimeter(Ellipse(a, 0))
    assert enc.contains(4 * F(a))
    with mp.workdps(30):
        assert enc.width <= mp.mpf("1e-12") * enc.lo


def test_near_degenerate_explicit_tolerance_certifies():
    enc = perimeter(Ellipse(1, 1e-9), tol=1e-12)
    assert enc.width <= 1e-12
    assert enc.contains(reference_perimeter(1.0, 1e-9, 2 * _digits(enc) + 20))


def test_subnormal_degenerate_perimeter_is_exact(capsys):
    # the default tolerance once overflowed to inf here ("tol must be finite")
    assert cli_main(["perimeter", "--a", "5e-324", "--b", "0"]) == 0
    assert "p        in [1.9762625833649861767e-323, 1.9762625833649861767e-323]" in \
        capsys.readouterr().out
    enc = perimeter(Ellipse(5e-324, 0))
    assert engine._exact_fraction(enc.lo) == engine._exact_fraction(enc.hi) == 4 * F(5e-324)


# ---------------------------------------------------------- discrepancy


@pytest.mark.parametrize("x", [engine.SERIES_MAX_X / 2, engine.SERIES_MAX_X,
                               2 * engine.SERIES_MAX_X])
def test_series_and_agm_discrepancy_overlap_near_the_switch(x):
    xq, prec = F(x), 203  # 60 digits
    series = engine._discrepancy_series(xq, from_float(1e-40), prec)
    agm = engine._discrepancy_agm(xq, prec)
    assert mpf_le(series[0], agm[1]) and mpf_le(agm[0], series[1])


# At 8 to 38 bits one misdirected rounding moves an end by a visible share of
# its width.  Each x is an exact rational, and the series' tail limit 2^-400
# lies far below one ulp, so the routines' own roundings decide their ends


def test_series_discrepancy_brackets_the_exact_sum_at_low_precision():
    # the exact sum of delta_n x^n until a term is below 2^-100 of the sum
    # lies below Delta and, as the terms are positive, above the lower end
    rng = random.Random(2024)
    for i in range(60):
        # x in (0, 0.01]: every other x is binary and exact at 8 bits, so
        # that no outward rounding of x hides a misdirected rounding of the sum
        x = F(rng.randrange(1, 2**8), 2**15) if i % 2 else F(rng.randrange(1, 10**6 + 1), 10**8)
        prec = rng.randrange(8, 39)
        lo, hi = engine._discrepancy_series(x, from_man_exp(1, -400), prec)
        total = F(0)
        for n, row in enumerate(dyadic_rows()):
            num, exp = row.delta
            term = F(num, 2**exp) * x**n
            total += term
            if n > 5 and term < total / 2**100:
                break
        assert F(Dyadic.from_raw(lo)) <= total <= F(Dyadic.from_raw(hi)), (x, prec)


def test_agm_discrepancy_brackets_the_hypergeometric_value_at_low_precision():
    # B(x) = 2F1(-1/2, -1/2; 1; x), an independent route, from mpmath at
    # four times the bits
    rng = random.Random(2025)
    for _ in range(40):
        x, prec = F(rng.randrange(10**6 + 1, 10**8), 10**8), rng.randrange(8, 39)  # x in (0.01, 1)
        lo, hi = engine._discrepancy_agm(x, prec)
        with mp.workprec(4 * prec):
            xm = mp.mpf(x.numerator) / x.denominator
            delta = mp.hyp2f1(-0.5, -0.5, 1, xm) - (1 + 3 * xm / (10 + mp.sqrt(4 - 3 * xm)))
            assert mp.make_mpf(lo) <= delta <= mp.make_mpf(hi), (x, prec)


def test_agm_discrepancy_subtracts_the_kernel_outward(monkeypatch):
    # the AGM's roundings leave each end several ulps of slack, which hides a
    # misdirected rounding of A; with B = S/M = 1 exactly and x binary, only
    # A(x) and the subtraction round, and the ends must bracket 1 - A(x)
    one = from_man_exp(1, 0)
    monkeypatch.setattr(engine, "_agm_sum", lambda *_args: ((one, one), (one, one)))
    rng = random.Random(2026)
    for _ in range(100):
        x, prec = F(rng.randrange(2, 128), 128), rng.randrange(8, 39)  # x exact at prec
        lo, hi = engine._discrepancy_agm(x, prec)
        with mp.workprec(4 * prec):
            xm = mp.mpf(x.numerator) / x.denominator
            gap = -3 * xm / (10 + mp.sqrt(4 - 3 * xm))
            assert mp.make_mpf(lo) <= gap <= mp.make_mpf(hi), (x, prec)


def test_discrepancy_switches_route_above_series_max_x():
    x0 = engine.SERIES_MAX_X
    below, above = discrepancy(x0), discrepancy(math.nextafter(x0, 1))
    assert below.regime == engine.GEOMETRIC_TAIL and above.regime == engine.AGM
    assert below.lo <= above.hi  # Delta increases with x


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(min_value=0.2, max_value=1.0))
@example(lam=1.0)
@example(lam=1 - 2**-53)
@example(lam=math.sqrt(engine.SERIES_MAX_X))
def test_theta_contains_the_ellipe_reference(lam):
    enc = theta_of_lambda(lam)
    assert enc.contains(reference_theta(lam, 2 * _digits(enc) + 20))
