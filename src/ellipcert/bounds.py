"""Two-sided error bounds for Ramanujan's perimeter approximation.

The approximation underestimates the true perimeter by

    epsilon = pi * (a+b) * theta(lam) * lam^10,      lam = (a-b)/(a+b),

where theta(lam) = Delta(lam^2)/lam^10 grows monotonically on [0, 1] and
satisfies the optimal bounds

    3/2^17 < theta(lam) <= 4/pi - 14/11,

both endpoints being best possible (the lower one is the lam -> 0 limit,
the upper one is attained at lam = 1).  In terms of the eccentricity,

    epsilon(e) = a * delta(e) * (2/(1 + sqrt(1-e^2)))^19 * e^20,

with delta(e) = pi * theta / 2^19 confined to
(3 pi / 2^36, (7/11)(22/7 - pi) / 2^18].  Ramanujan's own error estimate
3 a e^20 / 2^36 sits strictly below epsilon for every e > 0.

A frequently quoted form of the upper constant, (14/11)(22/7 - pi), equals
pi * (4/pi - 14/11) exactly: it bounds pi*theta rather than theta.  Both
labeled values are exposed here and never silently interchanged.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from ._dyadic import (Dyadic, from_int, mpf_div, mpf_pi, mpf_sub, round_ceiling, round_floor,
                      round_nearest)
from .engine import (
    _PREC,
    Ellipse,
    Enclosure,
    EXACT_POINT,
    _add,
    _div,
    _enclosure,
    _exact_fraction,
    _mul,
    _mul_int,
    _pi,
    _pow,
    _point_str,
    _product,
    _ramanujan_enclosure,
    _sub,
    _value,
    discrepancy,
    perimeter,
    perimeter_ramanujan,
)

__all__ = [
    "THETA_LOWER",
    "DELTA_E_EXPONENT",
    "theta_upper",
    "scaled_theta_upper",
    "theta_bounds",
    "delta_e_bounds",
    "ErrorReport",
    "error_report",
    "containment_check",
]

# exact lower bound constant for theta; dyadic, so binary floating point
# representations of it are exact
THETA_LOWER = Fraction(3, 2**17)

# delta(e) = pi * theta / 2^DELTA_E_EXPONENT
DELTA_E_EXPONENT = 19

# a strict bound passes when the midpoint clears it by more than this many widths
_MARGIN = 10

_BOUND_FORM_NOTE = (
    "epsilon = pi*(a+b)*theta(lam)*lam^10 with theta in (3/2^17, 4/pi - 14/11]; "
    "the alternative headline constant (14/11)*(22/7 - pi) equals "
    "pi*(4/pi - 14/11) exactly and bounds pi*theta, not theta; "
    "delta(e) = pi*theta/2^19 reproduces the bounds 3*pi/2^36 and "
    "(7/11)*(22/7 - pi)/2^18"
)


_THETA_LOWER = (0, 3, -17, 2)  # THETA_LOWER as a raw value
_FOUR, _SEVEN, _ELEVEN, _FOURTEEN, _TWENTY_TWO = (from_int(n) for n in (4, 7, 11, 14, 22))


def _theta_upper_at(rnd, opp):
    """4/pi - 14/11 at working precision, rounded towards ``rnd``, with pi
    and 14/11 rounded towards ``opp``: outward for opposite directions,
    the nearest-rounded value for both nearest."""
    four_over_pi = mpf_div(_FOUR, mpf_pi(_PREC, opp), _PREC, rnd)
    return mpf_sub(four_over_pi, mpf_div(_FOURTEEN, _ELEVEN, _PREC, opp), _PREC, rnd)


def _theta_upper_enclosure() -> Enclosure:
    """Outward enclosure of the attained bound 4/pi - 14/11."""
    return _enclosure(_theta_upper_at(round_floor, round_ceiling),
                      _theta_upper_at(round_ceiling, round_floor))


def theta_upper():
    """The sharp upper bound 4/pi - 14/11 for theta, at working precision."""
    return _value(_theta_upper_at(round_nearest, round_nearest))


def _pi_gap():
    """22/7 - pi at working precision."""
    return _sub(_div(_TWENTY_TWO, _SEVEN), _pi())


def scaled_theta_upper():
    """(14/11)*(22/7 - pi): equals pi times theta_upper(), exactly.

    This is the pi*theta version of the upper constant; see the module
    docstring for why both labels exist.
    """
    return _value(_mul(_div(_FOURTEEN, _ELEVEN), _pi_gap()))


def theta_bounds() -> tuple[Fraction, object]:
    """The implemented theta bounds (3/2^17 exact, 4/pi - 14/11 numeric)."""
    return THETA_LOWER, theta_upper()


def delta_e_bounds():
    """The bounds (3 pi / 2^36, (7/11)(22/7 - pi) / 2^18) for delta(e).

    Both equal pi/2^19 times the corresponding theta bound.
    """
    lower = _div(_mul_int(_pi(), 3), from_int(2**36))
    upper = _div(_mul(_div(_SEVEN, _ELEVEN), _pi_gap()), from_int(2**18))
    return _value(lower), _value(upper)


class ErrorReport(NamedTuple):
    """Everything certified about one ellipse's approximation error.

    ``epsilon_enclosure`` brackets the true defect p - p_R;
    ``lower_bound``/``upper_bound`` are pi*(a+b)*c*lam^10 for the two
    optimal constants c; ``theta`` and ``delta_e`` are enclosures of the
    normalized error coefficients; ``ramanujan_estimate`` is the classical
    3 a e^20 / 2^36, a strict underestimate of the defect.
    """

    a: object
    b: object
    lam: object
    ecc: object
    p_enclosure: Enclosure
    p_R: object
    epsilon_enclosure: Enclosure
    lower_bound: object
    upper_bound: object
    theta: Enclosure
    delta_e: Enclosure
    ramanujan_estimate: object
    bound_form_note: str

    def to_json_dict(self) -> dict:
        def real(v) -> str:
            return _point_str(v, 25)

        def enc(e: Enclosure) -> dict:
            return {"lo": real(e.lo), "hi": real(e.hi), "regime": e.regime}

        return {
            "a": real(self.a),
            "b": real(self.b),
            "lambda": real(self.lam),
            "eccentricity": real(self.ecc),
            "p_enclosure": enc(self.p_enclosure),
            "p_R": real(self.p_R),
            "epsilon_enclosure": enc(self.epsilon_enclosure),
            "lower_bound": real(self.lower_bound),
            "upper_bound": real(self.upper_bound),
            "theta": enc(self.theta),
            "delta_e": enc(self.delta_e),
            "ramanujan_estimate": real(self.ramanujan_estimate),
            "bound_form_note": self.bound_form_note,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _delta_e(theta: Enclosure) -> Enclosure:
    """delta(e) = pi theta / 2^19, rounded outward."""
    return _product(theta, Fraction(1, 2**DELTA_E_EXPONENT), times_pi=True)


def error_report(ellipse: Ellipse, tol: float | None = None) -> ErrorReport:
    """Full error analysis for one ellipse.

    ``tol`` bounds the perimeter enclosure width (by default 1e-12 of p,
    see ``perimeter``); the defect enclosure gets its own, much tighter,
    magnitude-tracking tolerance.  Every enclosure starts from the exact
    axes: x = lam^2 = ((a-b)/(a+b))^2 is formed as an exact rational, and
    epsilon = pi (a+b) Delta(x), theta = Delta(x) / x^5 and
    delta_e = pi theta / 2^19 are rounded outward (``_product``).
    For a circle (a = b) every error field is zero and theta/delta_e carry
    the lam -> 0 limit values.  Before returning, two exact overlap tests
    of directed enclosures check epsilon against its eccentricity form and
    against p - p_R; a miss raises ArithmeticError.
    """
    p_enc = perimeter(ellipse, tol)
    p_r = perimeter_ramanujan(ellipse)
    a, b, lam, ecc = ellipse.a, ellipse.b, ellipse.lam, ellipse.ecc
    aq, bq = ellipse.axes
    if aq == bq:
        zero, theta_point = Dyadic(0), Dyadic(THETA_LOWER)
        eps = Enclosure(zero, zero, EXACT_POINT)
        theta = Enclosure(theta_point, theta_point, EXACT_POINT)
        lower = upper = ram = zero
    else:
        x = ((aq - bq) / (aq + bq)) ** 2
        d_enc = discrepancy(x)
        eps = _product(d_enc, aq + bq, times_pi=True)
        theta = _product(d_enc, 1 / x**5)
        # the point values, each operation rounded to nearest at working precision
        prefactor, lam10 = _mul(_pi(), _add(a._mpf_, b._mpf_)), _pow(lam._mpf_, 10)
        lower, upper = (_value(_mul(_mul(prefactor, c), lam10))
                        for c in (_THETA_LOWER, theta_upper()._mpf_))
        ram = _value(_div(_mul(_mul_int(a._mpf_, 3), _pow(ecc._mpf_, 20)), from_int(2**36)))
    delta_e = _delta_e(theta)

    if aq != bq:
        # the eccentricity form a delta_e (2a/(a+b))^19 e^20 with e^2 = (a^2 - b^2)/a^2,
        # whose factor is exactly 2^19 (a-b)^10 / (a+b)^9
        form = 2**DELTA_E_EXPONENT * (aq - bq) ** 10 / (aq + bq) ** 9
        e_form = _product(delta_e, form)
        if not (e_form.lo <= eps.hi and eps.lo <= e_form.hi):  # exact comparisons
            raise ArithmeticError(f"epsilon parameterizations disagree: {e_form} vs {eps}")
        r_enc = _ramanujan_enclosure(x, aq + bq)
        p_form = _enclosure(mpf_sub(p_enc.lo._mpf_, r_enc.hi._mpf_),  # exact differences
                            mpf_sub(p_enc.hi._mpf_, r_enc.lo._mpf_))
        if not (p_form.lo <= eps.hi and eps.lo <= p_form.hi):
            raise ArithmeticError(f"epsilon enclosure inconsistent with p - p_R: {eps} vs {p_form}")

    return ErrorReport(
        a=a, b=b, lam=lam, ecc=ecc,
        p_enclosure=p_enc, p_R=p_r,
        epsilon_enclosure=eps,
        lower_bound=lower, upper_bound=upper,
        theta=theta, delta_e=delta_e,
        ramanujan_estimate=ram,
        bound_form_note=_BOUND_FORM_NOTE,
    )


def _verdict_between(enc: Enclosure, lower, upper):
    """Strictness-aware containment verdicts for an enclosure.

    Strict inequalities pass only when the midpoint clears the bound by
    more than ``_MARGIN`` times the width, and fail only when the whole
    enclosure clears it; anything in between is reported inconclusive
    rather than silently passed or failed.  An attained upper bound (b = 0,
    lam = 1) comes as an outward ``Enclosure`` of the bound: the value
    equals it there, so the upper verdict is pass when the enclosure's
    lower end is at most the bound's upper end, and fail otherwise.
    Both ends and both bounds are read exactly (``_exact_fraction``), and
    every verdict is a comparison of rationals, so a gap far below the
    working precision still decides.
    """
    lo, hi = _exact_fraction(enc.lo), _exact_fraction(enc.hi)
    lower = _exact_fraction(lower)
    # twice the midpoint, and twice the guard _MARGIN * width
    mid2, guard2 = lo + hi, 2 * _MARGIN * (hi - lo)
    if hi < lower:  # enclosure entirely below the lower bound
        low = "fail"
    elif mid2 - 2 * lower > guard2:
        low = "pass"
    else:
        low = "inconclusive"
    if isinstance(upper, Enclosure):
        up = "pass" if lo <= _exact_fraction(upper.hi) else "fail"
    else:
        upper = _exact_fraction(upper)
        if upper < lo:  # enclosure entirely above the upper bound
            up = "fail"
        elif 2 * upper - mid2 > guard2:
            up = "pass"
        else:
            up = "inconclusive"
    return low, up


def containment_check(report: ErrorReport) -> dict:
    """Check epsilon and theta against their two-sided bounds.

    Returns verdict strings ("pass" / "fail" / "inconclusive" /
    "not-applicable") for each side of each quantity, plus an overall
    ``ok`` that is False only on a definite failure.  For b = 0 the upper
    bounds are attained; they are then decided against outward
    enclosures, theta's 4/pi - 14/11 and epsilon's pi (a + b) times it.
    """
    keys = ("epsilon_lower", "epsilon_upper", "theta_lower", "theta_upper")
    if report.lam == 0:
        verdicts = dict.fromkeys(keys, "not-applicable")
    else:
        if report.b == 0:  # exact: b rounds to 0 only when it is 0
            theta_up = _theta_upper_enclosure()
            eps_up = _product(theta_up, report.a + report.b, times_pi=True)
        else:
            theta_up, eps_up = theta_upper(), report.upper_bound
        eps_v = _verdict_between(report.epsilon_enclosure, report.lower_bound, eps_up)
        theta_v = _verdict_between(report.theta, THETA_LOWER, theta_up)
        verdicts = dict(zip(keys, eps_v + theta_v))
    verdicts["ok"] = all(v != "fail" for v in verdicts.values())
    return verdicts
