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

The two exact layers need only the standard library; mpmath comes in with
``engine``.  Importing the package loads no layer: each name below is
imported from its layer on first use (PEP 562), so a caller of the exact
layers never pays for the numeric ones.
"""

from importlib import import_module

# public name -> the layer that defines it
_EXPORTS = {
    **dict.fromkeys((
        "PowerSeries", "ps_mul", "ps_binomial_sqrt", "ps_geom_recip", "b_coeff",
        "a_series_via_composition", "a_coeff_explicit", "a_term", "delta_coeff",
        "a_coeffs_upto", "b_coeffs_upto", "delta_coeffs_upto",
    ), "series_kernel"),
    **dict.fromkeys((
        "LemmaCertificate", "f_val", "g_val", "g_min_analysis", "verify_fundamental_lemma",
    ), "lemma"),
    **dict.fromkeys((
        "WORKING_DPS", "ToleranceFloorError", "QuadratureBudgetError", "Enclosure", "Ellipse",
        "lambda_from_eccentricity", "eccentricity_from_lambda", "eval_A", "eval_B",
        "ivory_integral", "perimeter", "perimeter_ramanujan", "discrepancy",
        "discrepancy_ratio", "theta_of_lambda",
    ), "engine"),
    **dict.fromkeys((
        "THETA_LOWER", "DELTA_E_EXPONENT", "theta_upper", "scaled_theta_upper",
        "theta_bounds", "delta_e_bounds", "ErrorReport", "error_report",
        "containment_check",
    ), "bounds"),
}
_LAYERS = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)
__version__ = "1.0.0"


def __getattr__(name: str):
    if name in _LAYERS:
        return import_module(f".{name}", __name__)
    layer = _EXPORTS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{layer}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EXPORTS.keys() | _LAYERS)
