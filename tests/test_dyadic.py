"""The package's binary arithmetic (``_dyadic``) against ``mpmath.libmp``, bit
for bit: each operation in each of the three directions the package rounds
(floor, ceiling, nearest) and pi.  A rounded sum is held to libmp's exact sum
rounded once, since libmp's own rounded add lets an operand far below the
other's top bit count only as a sticky bit, which misrounds when the other's
mantissa reaches down to it.  The printer against exact digits from
``Fraction`` and ``//``, and against ``nstr``'s layout; the exact value type
against mpf values."""

import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp, mpf, nstr

from ellipcert import _dyadic as dy
from ellipcert import engine
from ellipcert._dyadic import Dyadic

MODES = st.sampled_from(["f", "c", "n"])
PRECS = st.integers(2, 4000)


@st.composite
def raws(draw, max_mag=1100, max_bits=4000):
    """A signed raw value of magnitude between 2^-max_mag and 2^max_mag,
    with a mantissa of 1 to max_bits bits; zero now and then."""
    if draw(st.integers(0, 30)) == 0:
        return libmp.fzero
    bits = draw(st.integers(1, max_bits))
    man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    mag = draw(st.integers(-max_mag, max_mag))
    sign = draw(st.booleans())
    return libmp.from_man_exp(-man if sign else man, mag - bits)


@st.composite
def close_pairs(draw):
    """Two raw values, the second near the first, so that a sum cancels."""
    s = draw(raws())
    nudge = draw(st.integers(-(1 << 40), 1 << 40))
    t = libmp.mpf_add(libmp.mpf_neg(s), libmp.from_man_exp(nudge, s[2] + draw(st.integers(-60, 60))))
    return s, t


PAIRS = st.one_of(st.tuples(raws(), raws()), close_pairs())

# operands whose top bits lie more than prec + 4 apart, in both orders, with
# a long upper mantissa that reaches below the lower operand's top bit: the
# floor of the first difference at 2 bits is 3/8, where libmp's rounded
# sub, taking 2^-8 + 2^-1200 as a sticky bit, gives 1/2
_HALF_PLUS = libmp.from_man_exp((1 << 999) + 1, -1000)  # 1/2 + 2^-1000
_FAR_BELOW = libmp.from_man_exp((1 << 1192) + 1, -1200)  # 2^-8 + 2^-1200
_FAR_PAIRS = [(_HALF_PLUS, _FAR_BELOW), (_FAR_BELOW, libmp.mpf_neg(_HALF_PLUS)),
              (libmp.from_int(3), libmp.from_man_exp(-5, -6000))]
# dividends over the divisors +-2^k
_POWER_PAIRS = [(libmp.from_man_exp(-12345, -7), libmp.from_man_exp(1, 40)),
                (libmp.from_man_exp((1 << 3000) - 1, -3000), libmp.from_man_exp(-1, -900))]


@settings(max_examples=400, deadline=None)
@given(PAIRS, PRECS, MODES)
@example(_FAR_PAIRS[0], 2, "f")
@example(_FAR_PAIRS[1], 2, "c")
@example(_FAR_PAIRS[2], 53, "n")
@example(_POWER_PAIRS[0], 10, "f")
@example(_POWER_PAIRS[1], 200, "c")
def test_add_sub_mul_div_match_libmp(pair, prec, rnd):
    s, t = pair
    assert dy.mpf_add(s, t, prec, rnd) == libmp.mpf_pos(libmp.mpf_add(s, t), prec, rnd)
    assert dy.mpf_sub(s, t, prec, rnd) == libmp.mpf_pos(libmp.mpf_sub(s, t), prec, rnd)
    assert dy.mpf_mul(s, t, prec, rnd) == libmp.mpf_mul(s, t, prec, rnd)
    if t[1]:
        assert dy.mpf_div(s, t, prec, rnd) == libmp.mpf_div(s, t, prec, rnd)


@settings(max_examples=300, deadline=None)
@given(raws(), PRECS, MODES)
@example(libmp.from_man_exp(1, 64), 53, "f")  # radicands 2^k
@example(libmp.from_man_exp(1, -3000), 2, "c")
@example(libmp.from_man_exp(1, 0), 169, "n")
def test_sqrt_rounding_and_conversions_match_libmp(s, prec, rnd):
    s = libmp.mpf_abs(s)
    assert dy.mpf_sqrt(s, prec, rnd) == libmp.mpf_sqrt(s, prec, rnd)
    assert dy.mpf_pos(s, prec, rnd) == libmp.mpf_pos(s, prec, rnd)
    sign, man, exp, _ = s
    man = -man if sign else man
    wide = (man << 3, exp - 3)  # with trailing zero bits to strip
    assert dy.from_man_exp(*wide, prec, rnd) == libmp.from_man_exp(*wide, prec, rnd)
    assert dy.from_int(man) == libmp.from_int(man)


@settings(max_examples=300, deadline=None)
@given(PAIRS, st.integers(-5000, 5000))
@example(_FAR_PAIRS[0], 0)
@example(_FAR_PAIRS[1], 0)
@example(_FAR_PAIRS[2][::-1], 0)
def test_exact_operations_and_comparison_match_libmp(pair, n):
    s, t = pair
    assert dy.mpf_add(s, t) == libmp.mpf_add(s, t)
    assert dy.mpf_sub(s, t) == libmp.mpf_sub(s, t)
    assert dy.mpf_mul(s, t) == libmp.mpf_mul(s, t)
    assert dy.mpf_shift(s, n) == libmp.mpf_shift(s, n)
    assert dy.mpf_lt(s, t) == libmp.mpf_lt(s, t) and dy.mpf_le(s, t) == libmp.mpf_le(s, t)
    assert not dy.mpf_lt(s, s) and dy.mpf_le(s, s)


@settings(max_examples=200, deadline=None)
@given(PRECS, MODES)
@example(169, "f")
@example(169, "c")
@example(2, "n")
def test_pi_matches_libmp_in_every_direction(prec, rnd):
    assert dy.mpf_pi(prec, rnd) == libmp.mpf_pi(prec, rnd)


def test_pi_brackets_itself():
    for prec in (53, 169, 1000):
        lo, hi = dy.mpf_pi(prec, "f"), dy.mpf_pi(prec, "c")
        assert dy.mpf_lt(lo, hi)
        assert dy.mpf_sub(hi, lo) == (0, 1, 2 - prec, 1)  # one ulp of a value in [2, 4)


def _exact_digits(s, digits: int):
    """(d, e) from Fraction and //: |s| rounded half up to ``digits``
    significant digits is d 10^(e - digits + 1), 10^(digits-1) <= d < 10^digits."""
    v = abs(F(Dyadic.from_raw(s)))
    e = math.floor(math.log10(v.numerator) - math.log10(v.denominator))
    while v >= F(10) ** (e + 1):
        e += 1
    while v < F(10) ** e:
        e -= 1
    d = (v * F(10) ** (digits - 1 - e) + F(1, 2)) // 1
    if d == 10**digits:
        d, e = d // 10, e + 1
    return d, e


PRINTER_EXAMPLES = [
    (libmp.from_man_exp(-999999, 0), 6),
    (libmp.from_man_exp(1, -4000), 25),
    (libmp.from_man_exp(12345, 3600), 20),
    (libmp.from_man_exp((1 << 3999) + 12345, -200), 20),  # 10^-60
    (libmp.from_man_exp((1 << 3999) + 12345, 100), 20),  # 10^30
    (libmp.from_man_exp((1 << 3999) + 12345, 0), 20),  # 10^0
    (libmp.from_man_exp(-(1 << 3999) - 6789, -200), 25),
    (libmp.from_man_exp(3, 3400), 20),
    (libmp.from_man_exp(199999, -1), 5),  # 99999.5 rounds up to the next power of ten
]


def _assert_exact(s, digits: int):
    text = dy.to_str(s, digits)
    if not s[1]:
        assert text == "0.0"
        return
    d, e = _exact_digits(s, digits)
    assert F(text) == (-1) ** s[0] * d * F(10) ** (e - digits + 1)


@settings(max_examples=300, deadline=None)
@given(st.one_of(raws(), raws(max_mag=20000, max_bits=200)), st.sampled_from([6, 20, 25]))
@example(libmp.fzero, 20)
def test_printer_digits_are_exact(s, digits):
    _assert_exact(s, digits)


@pytest.mark.parametrize(("s", "digits"), PRINTER_EXAMPLES)
def test_printer_examples_are_exact_and_laid_out_as_nstr(s, digits):
    _assert_exact(s, digits)
    assert dy.to_str(s, digits) == nstr(mp.make_mpf(s), digits)


def test_printer_needs_no_long_int_to_str(int_digit_cap):
    # values out to 2^3500 have over 1000 digits before the point; only
    # the digits shown may be converted
    values = [libmp.from_man_exp(3, 3400), libmp.from_man_exp(-(1 << 168) - 1, 3330),
              libmp.from_man_exp(1, 3499), libmp.from_man_exp(5, -3500)]
    expected = [dy.to_str(s, 20) for s in values]
    enclosure = engine.Enclosure(Dyadic.from_raw(values[0]), Dyadic.from_raw(values[2]))
    text = repr(enclosure)
    with int_digit_cap():
        assert [dy.to_str(s, 20) for s in values] == expected
        assert repr(enclosure) == text


@pytest.mark.parametrize("text", ["0.1", "-2.5e-3", "1e-450", "7e401", "3/7", "123.4500"])
def test_decimal_strings_are_read_exactly_and_rounded_once(text):
    assert engine._raw(text) == libmp.from_str(text, 169, "n")


def test_fifty_digits_are_169_bits():
    assert dy.dps_to_prec(50) == libmp.dps_to_prec(50) == 169
    assert engine._PREC == 169


# -- the exact value type against mpf values ----------------------------------


def test_dyadic_is_exact_and_carries_its_raw_value():
    raw = libmp.from_man_exp(3 * 2**200 + 1, -250)
    x = Dyadic.from_raw(raw)
    assert x == F(3 * 2**200 + 1, 2**250) and x._mpf_ == raw
    assert Dyadic(F(5, 8))._mpf_ == libmp.from_man_exp(5, -3)
    assert Dyadic(-12)._mpf_ == libmp.from_int(-12)
    assert pickle.loads(pickle.dumps(x)) == x
    with pytest.raises(ValueError):
        Dyadic(F(1, 3))


def test_dyadic_meets_mpf_values_exactly_on_either_side():
    x = Dyadic.from_raw(libmp.from_man_exp(2**300 + 1, -300))  # 1 + 2^-300
    with mp.workdps(15):  # far below x's 301 bits
        one = mpf(1)
        assert one < x and x > one and not x == one and not one == x and x != one
        assert x == mp.make_mpf(x._mpf_) and mp.make_mpf(x._mpf_) == x
        assert mp.mpf(x) == 1  # mpf() rounds to the working precision
        assert nstr(x, 5) == "1.0"
        assert isinstance(x - one, type(one)) and isinstance(one - x, type(one))
        assert isinstance(x * one, type(one)) and isinstance(one / x, type(one))
    with mp.workdps(100):
        assert x - one == mp.ldexp(1, -300) and one - x == -mp.ldexp(1, -300)


def test_exact_results_keep_working_against_mpf_values():
    a, b = Dyadic(3), Dyadic(F(1, 4))
    assert type(a + b) is Dyadic and type(a * b - 1) is Dyadic and type(-a) is Dyadic
    quotient = a / Dyadic(7)  # not binary, still exact
    assert quotient == F(3, 7) and not hasattr(quotient, "_mpf_")
    with mp.workdps(30):
        assert abs(quotient - mpf(3) / 7) < mpf("1e-28")
        assert mpf(3) / 7 - quotient < mpf("1e-28")
        assert (a + b) - mpf("3.25") == 0
