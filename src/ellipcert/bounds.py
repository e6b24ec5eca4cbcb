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
from dataclasses import dataclass
from fractions import Fraction

from .engine import (
    WORKING_DPS,
    Ellipse,
    Enclosure,
    EXACT_POINT,
    _as_mpf,
    _ctx,
    _scaled,
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

_BOUND_FORM_NOTE = (
    "epsilon = pi*(a+b)*theta(lam)*lam^10 with theta in (3/2^17, 4/pi - 14/11]; "
    "the alternative headline constant (14/11)*(22/7 - pi) equals "
    "pi*(4/pi - 14/11) exactly and bounds pi*theta, not theta; "
    "delta(e) = pi*theta/2^19 reproduces the bounds 3*pi/2^36 and "
    "(7/11)*(22/7 - pi)/2^18"
)


def theta_upper():
    """The sharp upper bound 4/pi - 14/11 for theta, at working precision."""
    ctx = _ctx(WORKING_DPS)
    return 4 / ctx.pi - ctx.mpf(14) / 11


def scaled_theta_upper():
    """(14/11)*(22/7 - pi): equals pi times theta_upper(), exactly.

    This is the pi*theta version of the upper constant; see the module
    docstring for why both labels exist.
    """
    ctx = _ctx(WORKING_DPS)
    return (ctx.mpf(14) / 11) * (ctx.mpf(22) / 7 - ctx.pi)


def theta_bounds() -> tuple[Fraction, object]:
    """The implemented theta bounds (3/2^17 exact, 4/pi - 14/11 numeric)."""
    return THETA_LOWER, theta_upper()


def delta_e_bounds():
    """The bounds (3 pi / 2^36, (7/11)(22/7 - pi) / 2^18) for delta(e).

    Both equal pi/2^19 times the corresponding theta bound.
    """
    ctx = _ctx(WORKING_DPS)
    lower = 3 * ctx.pi / 2**36
    upper = (ctx.mpf(7) / 11) * (ctx.mpf(22) / 7 - ctx.pi) / 2**18
    return lower, upper


@dataclass
class ErrorReport:
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
        ctx = _ctx(WORKING_DPS)

        def real(v) -> str:
            return ctx.nstr(ctx.mpf(v), 25)

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

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def error_report(ellipse: Ellipse, tol: float | None = None) -> ErrorReport:
    """Full error analysis for one ellipse.

    ``tol`` bounds the perimeter enclosure width (default 1e-12, widened
    automatically in the slow-convergence regime); the defect enclosure
    gets its own, much tighter, magnitude-tracking tolerance.  For a
    circle (a = b) every error field is zero and theta/delta_e carry the
    lam -> 0 limit values.  Internal consistency of the lam- and
    eccentricity-parameterizations is asserted before returning.
    """
    p_enc = perimeter(ellipse, tol)
    p_r = perimeter_ramanujan(ellipse)
    ctx = _ctx(WORKING_DPS)
    a, b, lam, ecc = (_as_mpf(v, ctx) for v in (ellipse.a, ellipse.b, ellipse.lam, ellipse.ecc))
    if lam == 0:
        zero, theta_point = ctx.mpf(0), _as_mpf(THETA_LOWER, ctx)  # dyadic: exact
        eps = Enclosure(zero, zero, EXACT_POINT)
        theta = Enclosure(theta_point, theta_point, EXACT_POINT)
        lower = upper = ram = zero
    else:
        d_enc = discrepancy(lam * lam)
        prefactor = ctx.pi * (a + b)
        eps = _scaled(d_enc, prefactor)
        lam10 = lam**10
        theta = _scaled(d_enc, 1 / lam10)
        lower = prefactor * _as_mpf(THETA_LOWER, ctx) * lam10
        upper = prefactor * theta_upper() * lam10
        ram = 3 * a * ecc**20 / 2**36
    delta_e = _scaled(theta, ctx.pi / 2**DELTA_E_EXPONENT)

    if lam != 0:
        # mids and widths carry WORKING_DPS + 10 digits; ctx.convert takes
        # them exactly, so each operation below rounds once
        eps_mid, eps_width, p_mid, p_width = (
            ctx.convert(v) for v in (eps.mid, eps.width, p_enc.mid, p_enc.width)
        )
        # lam-form vs eccentricity-form of epsilon
        stretch = (2 * a / (a + b)) ** 19  # == (2/(1 + sqrt(1-e^2)))^19
        e_form = a * ctx.convert(delta_e.mid) * stretch * ecc**20
        slack = eps_width + abs(eps_mid) * ctx.mpf(10) ** (20 - WORKING_DPS) + ctx.mpf("1e-200")
        if abs(e_form - eps_mid) > slack:
            raise ArithmeticError(
                f"epsilon parameterizations disagree: {e_form} vs {eps_mid}"
            )
        # epsilon vs p - p_R
        p_form = p_mid - p_r
        slack2 = (p_width + eps_width) / 2 + abs(p_r) * ctx.mpf(10) ** (20 - WORKING_DPS)
        if abs(p_form - eps_mid) > slack2:
            raise ArithmeticError(
                f"epsilon enclosure inconsistent with p - p_R: {eps_mid} vs {p_form}"
            )

    return ErrorReport(
        a=a, b=b, lam=lam, ecc=ecc,
        p_enclosure=p_enc, p_R=p_r,
        epsilon_enclosure=eps,
        lower_bound=lower, upper_bound=upper,
        theta=theta, delta_e=delta_e,
        ramanujan_estimate=ram,
        bound_form_note=_BOUND_FORM_NOTE,
    )


def _verdict_between(enc: Enclosure, lower, upper, attained_upper: bool, margin: float):
    """Strictness-aware containment verdicts for an enclosure.

    Strict inequalities pass only when the midpoint clears the bound by
    more than ``margin`` times the width, and fail only when the whole
    enclosure clears it; anything in between is reported inconclusive
    rather than silently passed or failed.  When the upper endpoint is
    attained (lam = 1), the upper comparison is a plain <= on the
    midpoint.  Every verdict is exact: the sums below are formed without
    rounding (``exact=True``; doubling is exact too) and mpf comparisons
    are exact, so a gap far below the working precision still decides.
    """
    ctx = _ctx(WORKING_DPS)
    lo, hi = enc.lo, enc.hi
    # twice the midpoint, the bounds and the guard margin * width
    mid2, lower2, upper2 = ctx.fadd(lo, hi, exact=True), ctx.ldexp(lower, 1), ctx.ldexp(upper, 1)
    guard2 = ctx.fmul(2 * margin, ctx.fsub(hi, lo, exact=True), exact=True)

    def clears(a2, b2) -> bool:  # a - b > margin * width
        return ctx.fsub(a2, b2, exact=True) > guard2

    if hi < lower:  # enclosure entirely below the lower bound
        low = "fail"
    elif clears(mid2, lower2):
        low = "pass"
    else:
        low = "inconclusive"
    if attained_upper:
        up = "pass" if mid2 <= upper2 else ("fail" if lo > upper else "inconclusive")
    elif lo > upper:  # enclosure entirely above the upper bound
        up = "fail"
    elif clears(upper2, mid2):
        up = "pass"
    else:
        up = "inconclusive"
    return low, up


def containment_check(report: ErrorReport, margin: float = 10.0) -> dict:
    """Check epsilon and theta against their two-sided bounds.

    Returns verdict strings ("pass" / "fail" / "inconclusive" /
    "not-applicable") for each side of each quantity, plus an overall
    ``ok`` that is False only on a definite failure.
    """
    keys = ("epsilon_lower", "epsilon_upper", "theta_lower", "theta_upper")
    if report.lam == 0:
        verdicts = dict.fromkeys(keys, "not-applicable")
    else:
        attained = report.lam == 1
        eps, theta = report.epsilon_enclosure, report.theta
        eps_v = _verdict_between(eps, report.lower_bound, report.upper_bound, attained, margin)
        theta_v = _verdict_between(theta, _as_mpf(THETA_LOWER, _ctx(WORKING_DPS)),
                                   theta_upper(), attained, margin)
        verdicts = dict(zip(keys, eps_v + theta_v))
    verdicts["ok"] = all(v != "fail" for v in verdicts.values())
    return verdicts
