"""Certified ellipse perimeters and error bounds for Ramanujan's approximation.

Four layers, bottom up:

  * ``series_kernel`` -- exact rational coefficients of the perimeter
    series and of Ramanujan's kernel, by two independent routes;
  * ``lemma`` -- machine verification (exact arithmetic) that the two
    coefficient sequences agree through n = 4 and separate strictly from
    n = 5 on, with a JSON-serializable certificate;
  * ``engine`` -- extended-precision evaluation with two-sided enclosures,
    the quadrature route to the same integral, and the perimeter API;
  * ``bounds`` -- the optimal error constants and per-ellipse error
    reports.
"""

from .series_kernel import (
    PowerSeries,
    ps_mul,
    ps_binomial_sqrt,
    ps_geom_recip,
    b_coeff,
    a_series_via_composition,
    a_coeff_explicit,
    a_term,
    delta_coeff,
    a_coeffs_upto,
    b_coeffs_upto,
    delta_coeffs_upto,
)
from .lemma import (
    LemmaCertificate,
    f_val,
    g_val,
    g_min_analysis,
    verify_fundamental_lemma,
)
from .engine import (
    WORKING_DPS,
    ToleranceFloorError,
    QuadratureBudgetError,
    Enclosure,
    Ellipse,
    lambda_from_eccentricity,
    eccentricity_from_lambda,
    eval_A,
    eval_B,
    ivory_integral,
    perimeter,
    perimeter_ramanujan,
    discrepancy,
    discrepancy_ratio,
    theta_of_lambda,
)
from .bounds import (
    THETA_LOWER,
    DELTA_E_EXPONENT,
    theta_upper,
    scaled_theta_upper,
    theta_bounds,
    delta_e_bounds,
    ErrorReport,
    error_report,
    containment_check,
)

__version__ = "1.0.0"
