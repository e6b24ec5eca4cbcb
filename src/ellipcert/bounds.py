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

Every containment verdict compares an outward enclosure of the value with
outward enclosures of its two bounds (``_verdict_between``).  Both bounds
are strict, except the upper one at lam = 1 (b = 0), where it is attained.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from ._dyadic import Dyadic, _exact, from_int, mpf_div, mpf_pi, mpf_sub, round_ceiling, round_floor
from .engine import (
    _PREC,
    Ellipse,
    Enclosure,
    EXACT_POINT,
    _enclosure,
    _exact_fraction,
    _nearest,
    _point_str,
    _product,
    _ramanujan_enclosure,
    _raw,
    _resolving_prec,
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
_DELTA_E_SCALE = Fraction(1, 2**DELTA_E_EXPONENT)

# ErrorReport fields whose JSON key is not their name
_JSON_KEYS = {"lam": "lambda", "ecc": "eccentricity"}

_BOUND_FORM_NOTE = (
    "epsilon = pi*(a+b)*theta(lam)*lam^10 with theta in (3/2^17, 4/pi - 14/11]; "
    "the alternative headline constant (14/11)*(22/7 - pi) equals "
    "pi*(4/pi - 14/11) exactly and bounds pi*theta, not theta; "
    "delta(e) = pi*theta/2^19 reproduces the bounds 3*pi/2^36 and "
    "(7/11)*(22/7 - pi)/2^18"
)


_FOUR, _ELEVEN, _FOURTEEN = from_int(4), from_int(11), from_int(14)
_THETA_LOWER_POINT = Enclosure(Dyadic(THETA_LOWER), Dyadic(THETA_LOWER), EXACT_POINT)


@lru_cache(maxsize=64)  # a constant per precision: a report and its check read it about four times
def _theta_upper_enclosure(prec: int = _PREC) -> Enclosure:
    """Outward enclosure of the attained bound 4/pi - 14/11 at ``prec`` bits:
    each end rounded its own way, with pi and 14/11 rounded the other way."""
    return _enclosure(*(
        mpf_sub(mpf_div(_FOUR, mpf_pi(prec, opp), prec, rnd),
                mpf_div(_FOURTEEN, _ELEVEN, prec, opp), prec, rnd)
        for rnd, opp in ((round_floor, round_ceiling), (round_ceiling, round_floor))))


def _scaled_bound(upper: bool, factor: Fraction, prec: int) -> Enclosure:
    """Outward enclosure of pi * factor * c, for theta's bound c = 3/2^17, or
    4/pi - 14/11 if ``upper``, at ``prec`` bits or more (``_product``)."""
    bound = _theta_upper_enclosure(prec) if upper else _THETA_LOWER_POINT
    return _product(bound, factor, times_pi=True, prec=prec)


def theta_upper():
    """The sharp upper bound 4/pi - 14/11 for theta, rounded once to nearest."""
    return _nearest(_theta_upper_enclosure)


def scaled_theta_upper():
    """(14/11)*(22/7 - pi) = pi (4/pi - 14/11) exactly, rounded once to nearest.

    This is the pi*theta version of the upper constant; see the module
    docstring for why both labels exist.
    """
    return _nearest(partial(_scaled_bound, True, Fraction(1)))


def theta_bounds() -> tuple[Fraction, object]:
    """The implemented theta bounds (3/2^17 exact, 4/pi - 14/11 numeric)."""
    return THETA_LOWER, theta_upper()


def delta_e_bounds():
    """The bounds (3 pi / 2^36, (7/11)(22/7 - pi) / 2^18) for delta(e),
    each rounded once to nearest.

    Both equal pi/2^19 times the corresponding theta bound.
    """
    return tuple(_nearest(partial(_scaled_bound, upper, _DELTA_E_SCALE))
                 for upper in (False, True))


class ErrorReport(NamedTuple):
    """Everything certified about one ellipse's approximation error.

    ``a`` and ``b`` are the exact semi-axes, a >= b;
    ``epsilon_enclosure`` brackets the true defect p - p_R;
    ``lower_bound``/``upper_bound`` are pi*(a+b)*c*lam^10 for the two
    optimal constants c; ``theta`` and ``delta_e`` are enclosures of the
    normalized error coefficients; ``ramanujan_estimate`` is the classical
    3 a e^20 / 2^36, a strict underestimate of the defect.  Every point
    value is its exact quantity rounded once to nearest at working
    precision.

    The JSON lists the fields in their declared order, under their names
    or ``_JSON_KEYS``'s: an Enclosure as its ``lo``, ``hi`` and
    ``regime``, a str as it is, and any other value to 25 digits.
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
        def value(v):
            if isinstance(v, Enclosure):
                return {"lo": value(v.lo), "hi": value(v.hi), "regime": v.regime}
            return v if isinstance(v, str) else _point_str(v, 25)

        return {_JSON_KEYS.get(name, name): value(v) for name, v in zip(self._fields, self)}

    def to_json(self) -> str:
        import json  # here, so that a command that prints no JSON never loads it

        return json.dumps(self.to_json_dict(), indent=2)


def _delta_e(theta: Enclosure) -> Enclosure:
    """delta(e) = pi theta / 2^19, rounded outward."""
    return _product(theta, _DELTA_E_SCALE, times_pi=True)


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
    aq, bq = ellipse.axes
    if aq == bq:
        zero = Dyadic(0)
        eps = Enclosure(zero, zero, EXACT_POINT)
        theta = _THETA_LOWER_POINT
        delta_e = _delta_e(theta)
        lower = upper = ram = zero
    else:
        x, scale = ((aq - bq) / (aq + bq)) ** 2, (aq - bq) ** 10 / (aq + bq) ** 9  # (a+b) x^5
        d_enc = discrepancy(x)
        eps = _product(d_enc, aq + bq, times_pi=True)
        theta = _product(d_enc, 1 / x**5)
        delta_e = _delta_e(theta)
        lower, upper = (_nearest(partial(_scaled_bound, up, scale)) for up in (False, True))
        ram = _value(_raw(3 * aq * (1 - (bq / aq) ** 2) ** 10 / 2**36))

        # the eccentricity form a delta_e (2a/(a+b))^19 e^20 with e^2 = (a^2 - b^2)/a^2,
        # whose factor is exactly 2^19 (a-b)^10 / (a+b)^9
        e_form = _product(delta_e, 2**DELTA_E_EXPONENT * scale)
        if not (e_form.lo <= eps.hi and eps.lo <= e_form.hi):  # exact comparisons
            raise ArithmeticError(f"epsilon parameterizations disagree: {e_form} vs {eps}")
        r_enc = _ramanujan_enclosure(x, aq + bq)
        p_form = _enclosure(mpf_sub(p_enc.lo._mpf_, r_enc.hi._mpf_),  # exact differences
                            mpf_sub(p_enc.hi._mpf_, r_enc.lo._mpf_))
        if not (p_form.lo <= eps.hi and eps.lo <= p_form.hi):
            raise ArithmeticError(f"epsilon enclosure inconsistent with p - p_R: {eps} vs {p_form}")

    return ErrorReport(
        a=_exact(aq), b=_exact(bq), lam=ellipse.lam, ecc=ellipse.ecc,
        p_enclosure=p_enc, p_R=p_r,
        epsilon_enclosure=eps,
        lower_bound=lower, upper_bound=upper,
        theta=theta, delta_e=delta_e,
        ramanujan_estimate=ram,
        bound_form_note=_BOUND_FORM_NOTE,
    )


def _verdict_between(enc: Enclosure, lower: Enclosure, upper: Enclosure, *, attained: bool):
    """Containment verdicts for an enclosure [lo, hi] of a value against the
    outward enclosures of its two bounds, as (lower side, upper side).

    The lower bound is strict: the side passes when lo > lower.hi, fails
    when hi < lower.lo, and is ``inconclusive`` otherwise.  The upper bound
    is strict too, passing when hi < upper.lo and failing when
    lo > upper.hi, unless ``attained`` (b = 0, lam = 1): then the value
    equals the bound, and the side fails when lo > upper.hi and passes
    otherwise.  Every end is read exactly, and every verdict compares
    rationals, so a gap far below the working precision still decides.
    """
    lo, hi, low_lo, low_hi, up_lo, up_hi = map(
        _exact_fraction, (enc.lo, enc.hi, lower.lo, lower.hi, upper.lo, upper.hi))
    low = "pass" if lo > low_hi else "fail" if hi < low_lo else "inconclusive"
    up = "fail" if lo > up_hi else "pass" if attained or hi < up_lo else "inconclusive"
    return low, up


def _theta_bounds(theta: Enclosure) -> tuple[Enclosure, Enclosure]:
    """Outward enclosures of theta's two bounds: 3/2^17 exactly, and
    4/pi - 14/11 at the precision that resolves theta's width."""
    return _THETA_LOWER_POINT, _theta_upper_enclosure(_resolving_prec(theta))


def containment_check(report: ErrorReport) -> dict:
    """Check epsilon and theta against their two-sided bounds.

    Returns verdict strings ("pass" / "fail" / "inconclusive" /
    "not-applicable") for each side of each quantity, plus an overall
    ``ok`` that is False only on a definite failure.  Every bound is an
    outward enclosure at the precision that resolves its value's width
    (``_resolving_prec``): pi (a+b) lam^10 c for epsilon, from the report's
    exact axes, and theta's own two (``_theta_bounds``).  A strict side
    passes only when the value's enclosure and the bound's are disjoint,
    the value's on the side the bound claims, and fails only when they are
    disjoint the other way; so no rounding of a bound turns a true claim
    into a ``fail``.  The upper bounds are attained only for b = 0
    (``_verdict_between``).
    """
    keys = ("epsilon_lower", "epsilon_upper", "theta_lower", "theta_upper")
    if report.lam == 0:
        verdicts = dict.fromkeys(keys, "not-applicable")
    else:
        a, b = _exact_fraction(report.a), _exact_fraction(report.b)
        eps, theta = report.epsilon_enclosure, report.theta
        scale, prec = (a - b) ** 10 / (a + b) ** 9, _resolving_prec(eps)  # (a+b) lam^10
        eps_bounds = (_scaled_bound(up, scale, prec) for up in (False, True))
        eps_v = _verdict_between(eps, *eps_bounds, attained=b == 0)
        theta_v = _verdict_between(theta, *_theta_bounds(theta), attained=b == 0)
        verdicts = dict(zip(keys, eps_v + theta_v))
    verdicts["ok"] = all(v != "fail" for v in verdicts.values())
    return verdicts
