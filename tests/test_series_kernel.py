"""Exact coefficient tests.

Frozen expected values were computed with independent integer arithmetic
on the defining products (noted inline) before being asserted here; the
A_n table is checked against the explicit term sum and against formal
series algebra, and the B_n ratio recurrence cross-validates the direct
product formula.
"""

from decimal import Decimal
from fractions import Fraction as F
from itertools import islice
from math import comb

import pytest

import ellipcert.series_kernel as series_kernel
from ellipcert import (
    a_coeff_explicit,
    a_coeffs_upto,
    a_term,
    b_coeff,
    b_coeffs_upto,
    delta_coeff,
    delta_coeffs_upto,
)
from ellipcert.series_kernel import (
    _exact_div,
    _odd_difference,
    _times_pow2,
    coeff_rows_str,
    dyadic_rows,
    rational_str,
)


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, F(1)),  # the 1/(2n-1) factor is 1/(-1) at n = 0; squared, it vanishes
        (1, F(1, 4)),
        (2, F(1, 64)),
        (3, F(1, 256)),
        (4, F(25, 16384)),
        # C(10,5) = 252; 252/(4^5 * 9) = 7/256; squared = 49/65536
        (5, F(49, 2**16)),
        (6, F(882, 2**21)),
    ],
)
def test_b_coeff_frozen(n, expected):
    assert b_coeff(n) == expected


def test_b_coeff_matches_ratio_recurrence():
    # independent route: B_(n+1) = B_n * ((2n-1)/(2n+2))^2 from B_0 = 1
    val = F(1)
    for n in range(300):
        assert b_coeff(n) == val
        val *= F(2 * n - 1, 2 * n + 2) ** 2


def test_b_coeff_rejects_negative():
    with pytest.raises(ValueError):
        b_coeff(-1)


def test_composition_frozen_low_orders():
    assert a_coeffs_upto(6) == [
        F(1),
        F(1, 4),
        F(1, 64),
        F(1, 256),
        F(25, 16384),
        F(95, 2**17),
        F(803, 2**21),
    ]


def test_composition_order_zero():
    assert a_coeffs_upto(0) == [F(1)]


def test_route_equivalence_through_50():
    comp = a_coeffs_upto(50)
    for n in range(1, 51):
        assert a_coeff_explicit(n) == comp[n]


def test_a_term_frozen():
    # n = 1 has the single term a_0 = 4/16
    assert a_term(1, 0) == F(1, 4)
    # leading term for n = 7: C(12,6) * 3^6 / (11 * 16^7)
    assert a_term(7, 6) == F(comb(12, 6) * 3**6, 11 * 16**7)


def test_a_term_bounds_checked():
    with pytest.raises(ValueError):
        a_term(5, 5)
    with pytest.raises(ValueError):
        a_term(5, -1)
    with pytest.raises(ValueError):
        a_term(0, 0)


def test_a_coeff_explicit_rejects_zero():
    with pytest.raises(ValueError):
        a_coeff_explicit(0)


def test_a_coeff_explicit_is_the_sum_of_the_fraction_terms():
    for n in range(1, 121):
        assert a_coeff_explicit(n) == sum((a_term(n, m) for m in range(n)), F(0)), n


def test_a_coeff_explicit_raises_on_a_corrupted_term(monkeypatch):
    # C(6, 3) + 1 = 21: w_3 = 21 * 6^3 / 20 leaves a remainder, so the
    # integer sum cannot silently absorb the fault
    def corrupt(n, k):
        return comb(n, k) + (n == 6 and k == 3)

    monkeypatch.setattr(series_kernel, "comb", corrupt)
    assert a_coeff_explicit(3) == F(1, 256)  # terms m <= 2 only
    with pytest.raises(ArithmeticError):
        a_coeff_explicit(4)


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, F(0)),
        (1, F(0)),
        (2, F(0)),
        (3, F(0)),
        (4, F(0)),
        (5, F(3, 2**17)),
        (6, F(79, 2**21)),
        (7, F(1459, 2**25)),
    ],
)
def test_delta_frozen(n, expected):
    assert delta_coeff(n) == expected


def test_delta_rejects_negative():
    with pytest.raises(ValueError):
        delta_coeff(-3)


def test_equality_block_then_strict_inequality():
    comp = a_coeffs_upto(120)
    for n in range(1, 5):
        assert comp[n] == b_coeff(n)
    for n in range(5, 121):
        assert comp[n] < b_coeff(n)


@pytest.mark.parametrize("n", [5, 9, 16, 33])
def test_claim_ratios_and_signs(n):
    terms = [a_term(n, m) for m in range(n)]
    # ratio law and its 1/6 worst case, exactly
    for m in range(2, n):
        assert abs(terms[m - 1] / terms[m]) == F(m, 12 * (2 * m - 3))
        assert abs(terms[m - 1] / terms[m]) <= F(1, 6)
    assert abs(terms[0] / terms[1]) == F(1, 3)
    # alternation with positive leading term
    assert terms[-1] > 0
    for m in range(n - 1):
        assert terms[m] * terms[m + 1] < 0


def test_dominance_of_leading_term():
    comp = a_coeffs_upto(60)
    for n in range(7, 61):
        assert 0 < comp[n] < a_term(n, n - 1)


def _cauchy(f, g):
    """Cauchy product of two coefficient lists, truncated at the shorter."""
    return [sum(f[j] * g[k - j] for j in range(k + 1)) for k in range(min(len(f), len(g)))]


def _root_list(order):
    """(1 - 3x/4)^(1/2) to x^order: -C(2j,j)/((2j-1) 4^j) (3/4)^j, which is 1 at j = 0."""
    return [-F(comb(2 * j, j), (2 * j - 1) * 4**j) * F(3, 4) ** j for j in range(order + 1)]


def _recip_list(order):
    """1/(32 + x) to x^order."""
    return [F((-1) ** k, 32 ** (k + 1)) for k in range(order + 1)]


def _composition_by_series_algebra(order):
    """A(x) = 1 + x (10 - 2 (1 - 3x/4)^(1/2)) / (32 + x), expanded on
    plain coefficient lists: the series-algebra oracle for the stream."""
    numer = [-2 * c for c in _root_list(order - 1)]
    numer[0] += 10
    return [F(1)] + _cauchy(numer, _recip_list(order - 1))


def test_series_algebra_oracle_inverts_its_parts():
    # the oracle's two factors checked on their own, so a fault in them
    # cannot cancel a fault in the stream
    order = 60
    root = _root_list(order)
    assert _cauchy(root, root) == [F(1), F(-3, 4)] + [F(0)] * (order - 1)
    linear = [F(32), F(1)] + [F(0)] * (order - 1)
    assert _cauchy(linear, _recip_list(order)) == [F(1)] + [F(0)] * order


def test_caches_match_definitional_routes():
    n_max = 60
    a = a_coeffs_upto(n_max)
    b = b_coeffs_upto(n_max)
    d = delta_coeffs_upto(n_max)
    comp = _composition_by_series_algebra(n_max)
    for n in range(n_max + 1):
        assert a[n] == comp[n]
        assert b[n] == b_coeff(n)
        assert d[n] == b[n] - a[n]


def test_determinism():
    first = a_coeffs_upto(30)
    second = a_coeffs_upto(30)
    assert first == second
    assert a_coeffs_upto(40) == a_coeffs_upto(40)


def test_rational_str_ignores_the_int_digit_limit(int_digit_cap):
    big = F(-(10**700 + 1), 7)  # 10^700 + 1 is 5 mod 7: nothing cancels
    with int_digit_cap():
        assert rational_str(F(1)) == "1/1"
        assert rational_str(F(-3, 4)) == "-3/4"
        assert rational_str(big) == "-1" + "0" * 699 + "1/7"


def test_dyadic_rows_hold_the_exact_coefficients():
    # each column is num / 2**exp, unreduced, against its definitional route
    for n, row in enumerate(islice(dyadic_rows(), 301)):
        a, b, d = (F(num, 2**exp) for num, exp in row)
        assert a == (a_coeff_explicit(n) if n else 1), n
        assert b == b_coeff(n), n
        assert d == delta_coeff(n), n


def test_decimal_twin_divisions_raise_instead_of_truncating():
    assert _exact_div(Decimal(21), 7) == 3
    assert _times_pow2(Decimal(12), -2) == 3
    twelve = Decimal(12)
    assert _times_pow2(twelve, 0) is twelve
    with pytest.raises(ArithmeticError):
        _exact_div(Decimal(22), 7)
    with pytest.raises(ArithmeticError):
        _times_pow2(Decimal(6), -2)


_BIG = 3**200  # odd, and longer than one 10**18 block of the low-digit loop


@pytest.mark.parametrize("x, ex, y, ey", [
    pytest.param(3, 5, 7, 2, id="unequal-left-larger"),
    pytest.param(7, 2, 3, 5, id="unequal-right-larger"),
    pytest.param(_BIG, 40, 5, 9, id="unequal-long"),
    pytest.param(1 + 3 * 2**7, 12, 1, 12, id="equal-7-bits"),
    pytest.param(1 + 2**18, 30, 1, 30, id="equal-18-bits"),  # one full turn, then an odd one
    pytest.param(1 + 3 * 2**25, 30, 1, 30, id="equal-25-bits"),  # two turns
    pytest.param(1 + 2 * 10**18, 25, 1, 25, id="equal-19-bits-low-block-0"),
    pytest.param(_BIG + 7 * 2**60, 70, _BIG, 70, id="equal-60-bits-long"),  # four turns
    pytest.param(1, 30, 1 + 5 * 2**20, 30, id="negative-20-bits"),
    pytest.param(3, 4, 5, 4, id="negative-1-bit"),
])
def test_odd_difference_matches_fraction_arithmetic(x, ex, y, ey):
    num, exp = _odd_difference(Decimal(x), ex, Decimal(y), ey)
    assert int(num) % 2 == 1
    assert F(int(num), 2**exp) == F(x, 2**ex) - F(y, 2**ey)


def test_odd_difference_of_equal_values_is_zero_over_one():
    num, exp = _odd_difference(Decimal(_BIG), 33, Decimal(_BIG), 33)
    assert (str(num), exp) == ("0", 0)
    assert [row[3] for row in coeff_rows_str(4)] == ["0/1"] * 5  # delta_0..delta_4 = 0


def test_coeff_rows_build_no_binary_row(monkeypatch):
    def refuse():
        raise AssertionError("coeff_rows_str built a binary row")

    monkeypatch.setattr(series_kernel, "dyadic_rows", refuse)
    rows = list(coeff_rows_str(300))
    assert [row[0] for row in rows] == list(range(301))
    n, a, b, d = rows[300]
    assert (F(a), F(b), F(d)) == (a_coeff_explicit(n), b_coeff(n), delta_coeff(n))


def test_coeff_rows_str_refuses_a_negative_n_at_the_call():
    with pytest.raises(ValueError):
        coeff_rows_str(-1)  # not deferred to the first next()


def test_coefficient_rows_stream_in_bounded_memory(traced_peak_mb):
    # a held table of the 2001 rows peaks near 4 MB; a stream stays near 0.05 MB
    peak = traced_peak_mb(
        "from ellipcert.series_kernel import coeff_rows_str\n"
        "for row in coeff_rows_str(2000):\n"
        "    pass"
    )
    assert peak < 1.0, peak
