"""Every point value is its exact quantity rounded once to nearest at 169 bits.

References come from mpmath at 500 bits, from the exact rational parts of
each formula (so no reference loses bits to a cancellation), rounded to
nearest at the working precision; a rational value is rounded exactly
(``libmp.from_rational``).  A binary value must come back exact, read at
the first precision.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp

from ellipcert import (
    Ellipse,
    delta_e_bounds,
    eccentricity_from_lambda,
    engine,
    eval_A,
    lambda_from_eccentricity,
    perimeter_ramanujan,
    scaled_theta_upper,
    theta_upper,
)

PREC = 169
REF_PREC = 500


def nearest(value):
    """The raw value of an mpmath reference, rounded to nearest at PREC bits."""
    return libmp.mpf_pos(value._mpf_, PREC, "n")


def exact(q: F):
    """The rational q rounded to nearest at PREC bits."""
    return libmp.from_rational(q.numerator, q.denominator, PREC, "n")


def ref(q: F):
    return mp.mpf(q.numerator) / q.denominator


def kernel(x):
    return 1 + 3 * x / (10 + mp.sqrt(4 - 3 * x))


# unit-interval inputs: floats, and rationals with large parts, both ends included
unit = st.one_of(
    st.floats(0, 1),
    st.fractions(0, 1, max_denominator=10**40),
    st.sampled_from([F(0), F(1), F(1, 2), F(1, 3), 1 - F(1, 3 * 2**200)]),
)
axis = st.one_of(
    st.floats(1e-30, 1e30),
    st.fractions(F(1, 10**20), 10**20, max_denominator=10**30).filter(lambda q: q > 0),
)


@settings(max_examples=100, deadline=None)
@given(a=axis, b=axis)
@example(a="1.00000000000000000001", b=1)
@example(a=F(1, 3) + F(1, 3 * 2**150), b=F(1, 3))
@example(a=2.0, b=1.0)
def test_shape_and_ramanujan_are_rounded_once(a, b):
    ell = Ellipse(a, b)
    aq, bq = ell.axes
    assert ell.lam._mpf_ == exact((aq - bq) / (aq + bq))
    with mp.workprec(REF_PREC):
        assert ell.ecc._mpf_ == nearest(mp.sqrt(ref(1 - (bq / aq) ** 2)))
        x = ((aq - bq) / (aq + bq)) ** 2
        p_r = mp.pi * ref(aq + bq) * kernel(ref(x))
        assert perimeter_ramanujan(ell)._mpf_ == nearest(p_r)


@settings(max_examples=100, deadline=None)
@given(v=unit)
def test_unit_maps_are_rounded_once(v):
    q = engine._exact_fraction(v)
    with mp.workprec(REF_PREC):
        assert eval_A(v)._mpf_ == nearest(kernel(ref(q)))
        lam = ref(q * q) / (1 + mp.sqrt(ref((1 - q) * (1 + q)))) ** 2
        assert lambda_from_eccentricity(v)._mpf_ == nearest(lam)
        assert eccentricity_from_lambda(v)._mpf_ == nearest(mp.sqrt(ref(4 * q / (1 + q) ** 2)))
        b = Ellipse.from_eccentricity(3, v).b
        assert b._mpf_ == nearest(mp.sqrt(ref(9 * (1 - q * q))))


def test_bound_constants_are_rounded_once():
    with mp.workprec(REF_PREC):
        upper = 4 / mp.pi - mp.mpf(14) / 11
        assert theta_upper()._mpf_ == nearest(upper)
        assert scaled_theta_upper()._mpf_ == nearest(mp.pi * upper)
        lo, up = delta_e_bounds()
        assert lo._mpf_ == nearest(3 * mp.pi / 2**36)
        assert up._mpf_ == nearest(mp.pi * upper / 2**19)


@pytest.mark.parametrize("call, enclosure, expected", [
    (lambda: eval_A(0), "_kernel_enclosure", 1),
    (lambda: lambda_from_eccentricity(1), "_lambda_enclosure", 1),
    (lambda: eccentricity_from_lambda(1), None, 1),
    (lambda: Ellipse(1, 0).ecc, None, 1),
    (lambda: Ellipse(3, 1).lam, None, F(1, 2)),
])
def test_a_binary_value_stops_at_once(monkeypatch, call, enclosure, expected):
    # a binary value collapses its enclosure at the first precision, so the
    # loop reads it there, exactly
    calls = []
    if enclosure:
        real = getattr(engine, enclosure)
        monkeypatch.setattr(engine, enclosure, lambda *args: calls.append(args) or real(*args))
    value = call()
    assert value == expected
    if enclosure:
        assert len(calls) == 1
