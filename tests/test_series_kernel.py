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

from ellipcert import (
    PowerSeries,
    a_coeff_explicit,
    a_coeffs_upto,
    a_series_via_composition,
    a_term,
    b_coeff,
    b_coeffs_upto,
    delta_coeff,
    delta_coeffs_upto,
    ps_binomial_sqrt,
    ps_geom_recip,
    ps_mul,
)
from ellipcert.series_kernel import (
    DyadicRow,
    _decimal_twin,
    _exact_div,
    _times_pow2,
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


def test_ps_mul_trivial():
    one_plus = PowerSeries([1, 1, 0])
    one_minus = PowerSeries([1, -1, 0])
    assert ps_mul(one_plus, one_minus).coeffs == [F(1), F(0), F(-1)]


def test_ps_mul_truncates_to_min_order():
    f = PowerSeries([1, 2, 3, 4])
    g = PowerSeries([5, 6])
    prod = ps_mul(f, g)
    assert prod.order == 1
    assert prod.coeffs == [F(5), F(16)]


def test_ps_binomial_sqrt_first_order():
    s = ps_binomial_sqrt(F(3, 4), 1)
    assert s.coeffs == [F(1), F(-3, 8)]


def test_ps_binomial_sqrt_squares_back():
    # (1 - cx)^(1/2) squared must reproduce 1 - cx through the full order
    c = F(3, 4)
    s = ps_binomial_sqrt(c, 12)
    sq = ps_mul(s, s)
    assert sq.coeffs == [F(1), -c] + [F(0)] * 11


def test_ps_geom_recip_frozen():
    r = ps_geom_recip(F(32), 2)
    assert r.coeffs == [F(1, 32), F(-1, 1024), F(1, 32768)]


def test_ps_geom_recip_inverts():
    r = ps_geom_recip(F(7), 9)
    lin = PowerSeries([F(7), F(1)] + [F(0)] * 8)
    assert ps_mul(lin, r).coeffs == [F(1)] + [F(0)] * 9


def test_ps_geom_recip_rejects_zero():
    with pytest.raises(ValueError):
        ps_geom_recip(F(0), 3)


def test_composition_frozen_low_orders():
    s = a_series_via_composition(6)
    assert s.coeffs == [
        F(1),
        F(1, 4),
        F(1, 64),
        F(1, 256),
        F(25, 16384),
        F(95, 2**17),
        F(803, 2**21),
    ]


def test_composition_order_zero():
    assert a_series_via_composition(0).coeffs == [F(1)]


def test_route_equivalence_through_50():
    comp = a_series_via_composition(50)
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
    comp = a_series_via_composition(120)
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
    comp = a_series_via_composition(60)
    for n in range(7, 61):
        assert 0 < comp[n] < a_term(n, n - 1)


def _composition_by_series_algebra(order):
    """A(x) = 1 + x (10 - 2 (1 - 3x/4)^(1/2)) / (32 + x), expanded with
    the O(n^2) Cauchy product: the series-algebra oracle for the table."""
    root = ps_binomial_sqrt(F(3, 4), order - 1)
    numer = PowerSeries([F(10) - 2 * root[0]] + [-2 * c for c in root.coeffs[1:]])
    return [F(1)] + ps_mul(numer, ps_geom_recip(F(32), order - 1)).coeffs


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
    first = a_series_via_composition(30)
    second = a_series_via_composition(30)
    assert first == second
    assert a_coeffs_upto(40) == a_coeffs_upto(40)


def test_rational_str_ignores_the_int_digit_limit(int_digit_cap):
    big = F(-(10**700 + 1), 7)  # 10^700 + 1 is 5 mod 7: nothing cancels
    with int_digit_cap():
        assert rational_str(F(1)) == "1/1"
        assert rational_str(F(-3, 4)) == "-3/4"
        assert rational_str(big) == "-1" + "0" * 699 + "1/7"


def test_dyadic_rows_are_reduced():
    for n, row in enumerate(islice(dyadic_rows(), 301)):
        for num, exp in row:
            assert num % 2 == 1 or (num, exp) == (0, 0), (n, num, exp)
        assert F(row.B[0], 2 ** row.B[1]) == b_coeff(n)


def test_decimal_twin_divisions_raise_instead_of_truncating():
    assert _exact_div(Decimal(21), 7) == 3
    assert _times_pow2(Decimal(12), -2) == 3
    with pytest.raises(ArithmeticError):
        _exact_div(Decimal(22), 7)
    with pytest.raises(ArithmeticError):
        _times_pow2(Decimal(6), -2)


def test_decimal_twin_rejects_a_wrong_exponent():
    rows = list(islice(dyadic_rows(), 41))
    assert len(list(_decimal_twin(rows))) == 41
    # one bit too few in A_20's denominator: the twin's exact division fails
    (num, exp), b, d = rows[20]
    bad = rows[:20] + [DyadicRow((num, exp - 1), b, d)] + rows[21:]
    with pytest.raises(ArithmeticError):
        list(_decimal_twin(bad))


def test_coefficient_rows_stream_in_bounded_memory(traced_peak_mb):
    # a held table of the 2001 rows peaks near 4 MB; a stream stays near 0.05 MB
    peak = traced_peak_mb(
        "from ellipcert.series_kernel import coeff_rows_str\n"
        "for row in coeff_rows_str(2000):\n"
        "    pass"
    )
    assert peak < 1.0, peak
