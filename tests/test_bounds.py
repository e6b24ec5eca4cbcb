"""Bounds API tests: optimal constants, error reports, containment checks."""

import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from ellipcert import (
    Ellipse,
    Enclosure,
    containment_check,
    delta_e_bounds,
    error_report,
    scaled_theta_upper,
    theta_bounds,
    theta_upper,
)
from ellipcert._dyadic import Dyadic as D


def test_theta_bounds_values():
    lower, upper = theta_bounds()
    assert lower == F(3, 131072)
    with mp.workdps(50):
        # frozen from exact evaluation of 4/pi - 14/11
        assert abs(upper - mp.mpf("0.00051227200788995887834")) < mp.mpf("1e-22")


def test_scaled_upper_identity():
    # (14/11)(22/7 - pi) == pi * (4/pi - 14/11), both equal 4 - 14 pi/11
    with mp.workdps(50):
        lhs = scaled_theta_upper()
        rhs = mp.pi * theta_upper()
        assert abs(lhs - rhs) < mp.mpf("1e-15")
        assert abs(lhs - rhs) < mp.mpf("1e-45")
        assert abs(lhs - (4 - 14 * mp.pi / 11)) < mp.mpf("1e-45")


def test_delta_e_bounds_values():
    lo, up = delta_e_bounds()
    with mp.workdps(50):
        assert abs(lo - mp.mpf("1.371485699312962201e-10")) < mp.mpf("1e-25")
        assert abs(up - mp.mpf("3.0695914776359317993e-9")) < mp.mpf("1e-24")


def test_delta_e_bounds_share_normalization():
    lo, up = delta_e_bounds()
    th_lo, th_up = theta_bounds()
    with mp.workdps(50):
        ratio_delta = up / lo
        ratio_theta = th_up / (mp.mpf(th_lo.numerator) / th_lo.denominator)
        assert abs(ratio_delta - ratio_theta) < mp.mpf("1e-12")


def test_delta_e_bounds_equal_scaled_theta_bounds():
    # 3 pi/2^36 = (pi/2^19)(3/2^17) and (7/11)(22/7 - pi)/2^18 = (pi/2^19)(4/pi - 14/11)
    lo, up = delta_e_bounds()
    th_lo, th_up = theta_bounds()
    with mp.workdps(50):
        scale = mp.pi / 2**19
        slop = mp.mpf("1e-42")
        assert abs(lo - scale * th_lo.numerator / th_lo.denominator) <= slop * lo
        assert abs(up - scale * th_up) <= slop * up


def test_error_report_circle_is_all_zero():
    rep = error_report(Ellipse(1, 1))
    assert rep.epsilon_enclosure.lo == 0 and rep.epsilon_enclosure.hi == 0
    assert rep.lower_bound == 0 and rep.upper_bound == 0
    assert rep.ramanujan_estimate == 0
    with mp.workdps(50):
        assert rep.theta.contains(F(3, 2**17))


def test_error_report_degenerate_endpoint():
    rep = error_report(Ellipse(1, 0))
    with mp.workdps(80):
        true_eps = 4 - 14 * mp.pi / 11
        assert rep.epsilon_enclosure.contains(true_eps)
        assert rep.theta.contains(4 / mp.pi - mp.mpf(14) / 11)
    with mp.workdps(50):
        # upper bound is attained at lam = 1
        assert abs(rep.upper_bound - (4 - 14 * mp.pi / 11)) < mp.mpf("1e-40")
        assert rep.epsilon_enclosure.mid <= rep.upper_bound
        assert abs(rep.ramanujan_estimate - mp.mpf(3) / 2**36) < mp.mpf("1e-45")
    verdicts = containment_check(rep)
    assert verdicts["ok"]
    assert verdicts["epsilon_upper"] == "pass"


@pytest.mark.parametrize("quantity", ["discrepancy", "theta_of_lambda"])
def test_attained_upper_bound_decided_against_its_enclosure(quantity):
    # Delta(1) = theta(1) = 4/pi - 14/11 is the bound itself: any enclosure of
    # it passes against an outward enclosure of the bound, however narrow
    from ellipcert import bounds, engine

    bound = bounds._theta_upper_enclosure()
    with mp.workdps(80):
        assert bound.contains(4 / mp.pi - mp.mpf(14) / 11)
    lower = bounds._THETA_LOWER_POINT
    for divisor in (1, 2, 3, 1000):
        enc = getattr(engine, quantity)(1, engine._RATIO_TOL / divisor)
        verdicts = bounds._verdict_between(enc, lower, bound, attained=True)
        assert verdicts == ("pass", "pass"), divisor
    above = engine.Enclosure(bound.hi + F(1, 2**200), bound.hi + F(1, 2**199))
    assert bounds._verdict_between(above, lower, bound, attained=True)[1] == "fail"


_W = F(1, 2**20)  # the value's width in the rows whose ends touch a bound's
_T = F(1, 2**100)  # a gap far below any working precision


@pytest.mark.parametrize("value, lower, upper, attained, verdicts", [
    # the lower side
    ((0, F(1, 2)), (1, 1), (100, 100), False, ("fail", "pass")),
    ((F(9, 10), F(19, 20)), (1, F(3, 2)), (100, 100), False, ("fail", "pass")),
    ((1, 3), (1, 1), (100, 100), False, ("inconclusive", "pass")),
    ((F(5, 4), F(5, 4)), (1, F(3, 2)), (100, 100), False, ("inconclusive", "pass")),
    ((1, 1), (1, 1), (100, 100), False, ("inconclusive", "pass")),
    ((2, 2 + F(1, 100)), (1, 1), (100, 100), False, ("pass", "pass")),
    ((2.0, 2.5), (1.0, 1.0), (100.0, 100.0), False, ("pass", "pass")),
    ((2.0, 2.0078125), (1.0, 1.25), (100.0, 100.0), False, ("pass", "pass")),
    ((D(F(3, 2)), D(F(3, 2))), (D(1), D(1)), (D(2), D(2)), False, ("pass", "pass")),
    ((F(11, 10), F(11, 10) + F(1, 10**6)), (1, 1 + F(1, 10**4)), (100, 100), False,
     ("pass", "pass")),
    ((F(21, 20), F(21, 20) + _W), (1, F(21, 20)), (100, 100), False,
     ("inconclusive", "pass")),  # lo on the far end
    ((F(21, 20), F(21, 20) + _W), (1, F(21, 20) - _T), (100, 100), False,
     ("pass", "pass")),  # lo 2^-100 above the far end
    ((1 - _W, 1), (1, F(21, 20)), (100, 100), False,
     ("inconclusive", "pass")),  # hi on the near end
    # the strict upper side
    ((3, 4), (0, 0), (2, F(5, 2)), False, ("pass", "fail")),
    ((F(9, 4), F(9, 4)), (0, 0), (2, F(5, 2)), False, ("pass", "inconclusive")),
    ((F(5, 2), 3), (0, 0), (2, F(5, 2)), False, ("pass", "inconclusive")),
    ((2, 2), (0, 0), (2, 2), False, ("pass", "inconclusive")),
    ((F(3, 2), F(3, 2) + F(1, 1000)), (0, 0), (2, F(5, 2)), False, ("pass", "pass")),
    ((1.5, 1.75), (0.0, 0.0), (2.0, 2.0), False, ("pass", "pass")),
    ((D(F(1, 2)), D(F(1, 2)) + D(F(1, 2**30))), (D(0), D(0)), (D(1), D(F(3, 2))), False,
     ("pass", "pass")),
    ((F(19, 20) - _W, F(19, 20)), (0, 0), (F(19, 20), 1), False,
     ("pass", "inconclusive")),  # hi on the far end
    ((F(19, 20) - _W, F(19, 20)), (0, 0), (F(19, 20) + _T, 1), False,
     ("pass", "pass")),  # hi 2^-100 below the far end
    ((1, 1 + _W), (0, 0), (F(19, 20), 1), False,
     ("pass", "inconclusive")),  # lo on the near end
    # the attained upper side
    ((F(5, 2), 3), (0, 0), (2, F(5, 2)), True, ("pass", "pass")),
    ((F(9, 4), F(9, 4)), (0, 0), (2, F(5, 2)), True, ("pass", "pass")),
    ((1, 2), (0, 0), (2, F(5, 2)), True, ("pass", "pass")),
    ((F(5, 2) + _T, 3), (0, 0), (2, F(5, 2)), True, ("pass", "fail")),
    ((2, 2), (0, 0), (2, 2), True, ("pass", "pass")),
    ((2.5, 2.5), (0.0, 0.0), (2.0, 2.0), True, ("pass", "fail")),
    ((D(2), D(3)), (D(0), D(0)), (D(F(3, 2)), D(F(7, 4))), True, ("pass", "fail")),
])
def test_verdict_table(value, lower, upper, attained, verdicts):
    # every verdict against bounds given as outward enclosures, zero-width
    # ones among them, with int, float, Fraction and Dyadic ends
    from ellipcert import bounds

    # each expected verdict, read from the exact ends: a strict side passes
    # when the value clears the bound's far end, and fails when it lies
    # wholly beyond the near end
    lo, hi, low_lo, low_hi, up_lo, up_hi = (F(v) for v in (*value, *lower, *upper))
    low, up = verdicts
    assert (low == "pass", low == "fail") == (lo > low_hi, hi < low_lo)
    assert (up == "fail") == (lo > up_hi)
    assert (up == "pass") == (attained and not lo > up_hi or hi < up_lo)

    value, lower, upper = Enclosure(*value), Enclosure(*lower), Enclosure(*upper)
    assert bounds._verdict_between(value, lower, upper, attained=attained) == verdicts


_END = st.builds(lambda k, nudge: F(k, 4) + nudge,
                 st.integers(0, 12), st.sampled_from([0, _T, -_T]))
_ENCLOSURE = st.lists(_END, min_size=2, max_size=2).map(sorted)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=_ENCLOSURE, lower=_ENCLOSURE, upper=_ENCLOSURE, attained=st.booleans())
def test_verdicts_follow_the_exact_rules(value, lower, upper, attained):
    # ends drawn from a small grid, each nudged by 2^-100 or not, so ends
    # often touch; lower and upper are independent, as the rule reads them
    from ellipcert import bounds

    (lo, hi), (low_lo, low_hi), (up_lo, up_hi) = value, lower, upper
    low = "pass" if lo > low_hi else "fail" if hi < low_lo else "inconclusive"
    if lo > up_hi:
        up = "fail"
    elif attained or hi < up_lo:
        up = "pass"
    else:
        up = "inconclusive"
    encs = (Enclosure(*e) for e in (value, lower, upper))
    assert bounds._verdict_between(*encs, attained=attained) == (low, up)


def test_error_report_half_eccentricity():
    rep = error_report(Ellipse.from_eccentricity(1, 0.5))
    with mp.workdps(50):
        expected_est = 3 * mp.mpf("0.5") ** 20 / 2**36
        assert abs(rep.ramanujan_estimate - expected_est) < mp.mpf("1e-40")
        assert rep.epsilon_enclosure.mid > rep.ramanujan_estimate
        gap = rep.epsilon_enclosure.mid - rep.ramanujan_estimate
        assert gap > 10 * rep.epsilon_enclosure.width


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_containment_passes_on_grid(lam):
    rep = error_report(Ellipse(1 + lam, 1 - lam))
    verdicts = containment_check(rep)
    assert verdicts["ok"]
    assert verdicts["epsilon_lower"] == "pass"
    assert verdicts["theta_lower"] == "pass"
    assert verdicts["epsilon_upper"] == "pass"
    assert verdicts["theta_upper"] == "pass"


@pytest.mark.parametrize("lo, hi, lower, upper", [
    (F(3, 10**5), F(3, 10**5) + F(1, 10**12), "pass", "pass"),
    (1, 2, "pass", "fail"),
    (0.0, 1e-6, "fail", "pass"),
])
def test_containment_takes_enclosures_with_any_kind_of_end(lo, hi, lower, upper):
    # int, float and Fraction ends used to raise AttributeError (no _mpf_)
    rep = error_report(Ellipse(2, 1))._replace(theta=Enclosure(lo, hi))
    verdicts = containment_check(rep)
    assert (verdicts["theta_lower"], verdicts["theta_upper"]) == (lower, upper)
    assert verdicts["ok"] == ("fail" not in (lower, upper))


def test_every_side_is_decided_from_b_over_a_1e_13():
    # b/a log-uniform on [1e-13, 1), a = 1 or log-uniform on [1e-3, 1e3]:
    # every value's enclosure clears its bounds' enclosures, so each side
    # is decided, down to the edge of the inconclusive band near 5e-14
    rng = random.Random(31)
    for i in range(100):
        a = 1.0 if i % 2 else 10 ** rng.uniform(-3, 3)
        b = a * 10 ** rng.uniform(-13, 0)
        verdicts = containment_check(error_report(Ellipse(a, b)))
        assert verdicts == {"epsilon_lower": "pass", "epsilon_upper": "pass",
                            "theta_lower": "pass", "theta_upper": "pass", "ok": True}, (a, b)


def test_containment_circle_not_applicable():
    verdicts = containment_check(error_report(Ellipse(2, 2)))
    assert verdicts["ok"]
    assert verdicts["epsilon_lower"] == "not-applicable"


def test_containment_near_circle_is_honest():
    # lam ~ 5e-7: the strictness gap is narrow; where it is narrower than the
    # enclosures the check must say so instead of passing silently
    rep = error_report(Ellipse(1, 1 - 1e-6))
    verdicts = containment_check(rep)
    assert verdicts["epsilon_lower"] in ("pass", "inconclusive")
    assert verdicts["epsilon_lower"] != "fail"
    assert verdicts["ok"]


def test_report_parameterizations_agree():
    rng = random.Random(424242)
    with mp.workdps(60):
        for _ in range(10):
            a = rng.uniform(0.5, 2.5)
            b = a * rng.uniform(0.05, 0.999)
            rep = error_report(Ellipse(a, b))
            lam_form = mp.pi * (rep.a + rep.b) * rep.theta.mid * rep.lam**10
            stretch = (2 * rep.a / (rep.a + rep.b)) ** 19
            e_form = rep.a * rep.delta_e.mid * stretch * rep.ecc**20
            assert abs(lam_form - e_form) < mp.mpf("1e-10")
            assert abs(lam_form - rep.epsilon_enclosure.mid) < mp.mpf("1e-10")


def test_epsilon_monotone_in_lambda_at_fixed_sum():
    # with a+b held at 2, the defect grows with lam
    prev = None
    for i in range(1, 11):
        lam = 0.1 * i
        rep = error_report(Ellipse(1 + lam, 1 - lam))
        mid = rep.epsilon_enclosure.mid
        if prev is not None:
            assert mid > prev
        prev = mid


def test_epsilon_matches_p_difference():
    rep = error_report(Ellipse(2, 1))
    with mp.workdps(60):
        diff = rep.p_enclosure.mid - rep.p_R
        assert abs(diff - rep.epsilon_enclosure.mid) < rep.p_enclosure.width + mp.mpf("1e-14")


def test_report_json_schema():
    rep = error_report(Ellipse(2, 1))
    doc = rep.to_json_dict()
    assert list(doc.keys()) == [
        "a",
        "b",
        "lambda",
        "eccentricity",
        "p_enclosure",
        "p_R",
        "epsilon_enclosure",
        "lower_bound",
        "upper_bound",
        "theta",
        "delta_e",
        "ramanujan_estimate",
        "bound_form_note",
    ]
    assert set(doc["p_enclosure"].keys()) == {"lo", "hi", "regime"}
    assert isinstance(doc["bound_form_note"], str) and doc["bound_form_note"]


# SHA-256 of error_report(E).to_json() where no CLI golden reaches: the
# circle (zero fields, theta at its limit), axes that are not binary, and
# a near-circle 2^-400 away
@pytest.mark.parametrize("a, b, digest", [
    (2, 2, "6dbafb223542fb79693e6763576e6612747f711f71b2ac9af6cff0d32f0d6e0f"),
    (F(1, 3), F(1, 7), "20ac69fb7b16b9b5548198e2cea890e1077e6551b9e834c5ec12fac1d250c24b"),
    (1 + F(1, 2**400), 1, "d3f1dfde257ba102b1b7df3cb68d90f56a98817e5324e3e597188a58c2fccf00"),
])
def test_report_json_matches_golden_digest(a, b, digest):
    text = error_report(Ellipse(a, b)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ------------------------------------- near-circular, non-binary axes


@pytest.mark.parametrize("a, b", [
    ("1.00000000000000000001", 1),
    (1 + F(1, 2**100), 1),
    (1 + F(1, 2**200), 1),
    (F(1, 3) + F(1, 3 * 2**150), F(1, 3)),
])
def test_true_bounds_never_fail_near_the_circle(a, b):
    # epsilon's lower bound pi (a+b) lam^10 3/2^17 lies only ~0.2 lam^2 of
    # itself below epsilon; a bound rounded to nearest op by op, from lam
    # formed of the rounded axes, landed above epsilon's narrow enclosure
    verdicts = containment_check(error_report(Ellipse(a, b)))
    assert verdicts["ok"] is True
    assert verdicts["epsilon_lower"] == "pass"


def test_theta_is_decided_against_an_enclosure_of_its_upper_bound():
    # at b/a = 1e-60 theta lies about 2e-62 below 4/pi - 14/11, far inside
    # the 169-bit rounding of the bound, which lies 1.9e-51 below it
    from ellipcert.engine import theta_of_lambda

    rep = error_report(Ellipse(1, F(1, 10**60)))
    theta = theta_of_lambda(F(10**60 - 1, 10**60 + 1), tol=1e-80)
    verdicts = containment_check(rep._replace(theta=theta))
    assert verdicts["theta_upper"] != "fail"
    assert verdicts["ok"] is True


@settings(max_examples=40, deadline=None)
@given(num=st.integers(1, 2**64), den=st.integers(1, 2**64).map(lambda d: 2 * d + 1),
       shift=st.integers(10, 400))
@example(num=1, den=3, shift=150)
def test_no_bound_fails_for_near_circular_non_binary_axes(num, den, shift):
    # a = 1 + q, b = 1, with q a non-binary rational in [2^-400, 1e-3];
    # inconclusive is allowed until the enclosures are narrowed
    q = min(max(F(num, den * 2**shift), F(1, 2**400)), F(1, 1000))
    assume(q.denominator & (q.denominator - 1))
    verdicts = containment_check(error_report(Ellipse(1 + q, 1)))
    assert "fail" not in verdicts.values()
    assert verdicts["ok"] is True
