"""Engine tests: enclosures, quadrature oracle agreement, perimeter API.

scipy's QUADPACK integrator serves as the independent oracle for both the
trigonometric integral and the arclength form of the perimeter; the
package's own series and adaptive-Gauss routes are checked against it.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from mpmath import mp
from scipy.integrate import quad

import ellipcert
from ellipcert import engine
from ellipcert import (
    Ellipse,
    Enclosure,
    QuadratureBudgetError,
    ToleranceFloorError,
    a_coeffs_upto,
    b_coeff,
    delta_coeffs_upto,
    discrepancy,
    discrepancy_ratio,
    eccentricity_from_lambda,
    eval_A,
    eval_B,
    ivory_integral,
    lambda_from_eccentricity,
    perimeter,
    perimeter_ramanujan,
    theta_of_lambda,
)

QUAD_ERR = 5e-12  # allowance for the oracle's own error


def oracle_trig_integral(x: float) -> float:
    rx = math.sqrt(x)

    def f(phi):
        v = 1.0 + 2.0 * rx * math.cos(2.0 * phi) + x
        return math.sqrt(v) if v > 0 else 0.0

    if x == 1.0:
        v1, _ = quad(f, 0.0, math.pi / 2, epsabs=1e-13, limit=200)
        v2, _ = quad(f, math.pi / 2, math.pi, epsabs=1e-13, limit=200)
        return (v1 + v2) / math.pi
    v, _ = quad(f, 0.0, math.pi, epsabs=1e-13, limit=200)
    return v / math.pi


def oracle_arclength(a: float, b: float) -> float:
    def f(phi):
        return math.sqrt(a * a * math.sin(phi) ** 2 + b * b * math.cos(phi) ** 2)

    v, _ = quad(f, 0.0, math.pi / 2, epsabs=1e-13, limit=200)
    return 4.0 * v


# ---------------------------------------------------------------- Ellipse


def test_ellipse_normalizes_and_records_swap():
    e = Ellipse(1, 2)
    assert e.swapped
    assert e.a == 2 and e.b == 1
    assert not Ellipse(2, 1).swapped


def test_ellipse_shape_parameters():
    e = Ellipse(2, 1)
    with mp.workdps(50):
        assert abs(e.lam - mp.mpf(1) / 3) < mp.mpf("1e-45")
        assert abs(e.ecc - mp.sqrt(3) / 2) < mp.mpf("1e-45")
        # lam = e^2 / (1 + sqrt(1 - e^2))^2
        s = mp.sqrt(1 - e.ecc**2)
        assert abs(e.lam - e.ecc**2 / (1 + s) ** 2) < mp.mpf("1e-40")


def test_ellipse_degenerate_and_circle():
    d = Ellipse(1, 0)
    assert d.lam == 1 and d.ecc == 1
    c = Ellipse(3, 3)
    assert c.lam == 0 and c.ecc == 0


def test_ellipse_from_eccentricity():
    e = Ellipse.from_eccentricity(1, 0.5)
    with mp.workdps(50):
        assert abs(e.b - mp.sqrt(mp.mpf(3)) / 2) < mp.mpf("1e-45")
        assert abs(e.ecc - mp.mpf("0.5")) < mp.mpf("1e-45")


def test_ellipse_invalid_inputs():
    with pytest.raises(ValueError):
        Ellipse(-1, 0.5)
    with pytest.raises(ValueError):
        Ellipse(0, 0)
    with pytest.raises(ValueError):
        Ellipse(float("nan"), 1)
    with pytest.raises(ValueError):
        Ellipse.from_eccentricity(1, 1.5)


def test_lambda_eccentricity_roundtrip():
    with mp.workdps(50):
        for e in (0.0, 0.1, 0.6, 0.95, 1.0):
            lam = lambda_from_eccentricity(e)
            back = eccentricity_from_lambda(lam)
            assert abs(back - e) < mp.mpf("1e-40")
        # e^2 = 4 lam / (1 + lam)^2, at the same binary representation of e
        em = mp.mpf(0.6)
        lam = lambda_from_eccentricity(em)
        assert abs(4 * lam / (1 + lam) ** 2 - em**2) < mp.mpf("1e-40")


# ----------------------------------------------------------------- eval_A


def test_eval_A_endpoints():
    with mp.workdps(50):
        assert eval_A(0) == 1
        assert abs(eval_A(1) - mp.mpf(14) / 11) < mp.mpf("1e-45")


def test_eval_A_domain():
    with pytest.raises(ValueError):
        eval_A(-0.01)
    with pytest.raises(ValueError):
        eval_A(1.01)


def test_eval_A_matches_series_partial_sum():
    # partial sum of the composition coefficients plus a tail bound; the
    # tail after N is below B_(N+1) x^(N+1)/(1-x) since |A_n| <= B_n
    coeffs = a_coeffs_upto(60)
    with mp.workdps(50):
        x = mp.mpf("0.5")
        partial = mp.mpf(0)
        for n, c in enumerate(coeffs):
            partial += mp.mpf(c.numerator) / c.denominator * x**n
        tail = F(b_coeff(61)) * F(1, 2) ** 61 * 2
        assert abs(eval_A(x) - partial) < mp.mpf(float(tail)) + mp.mpf("1e-30")
        assert abs(eval_A(x) - partial) < mp.mpf("1e-12")


# ----------------------------------------------------------------- eval_B


def test_eval_B_at_zero():
    enc = eval_B(0)
    assert enc.contains(F(1))
    assert enc.width < mp.mpf("1e-40")


def test_eval_B_at_one():
    enc = eval_B(1.0, 5e-9)
    with mp.workdps(80):
        assert enc.contains(4 / mp.pi)
    assert enc.width < 1e-8
    assert enc.regime == "slow-convergence-tail"


def test_eval_B_width_respects_tol():
    for x in (0.1, 0.3, 0.5, 0.7, 0.9):
        enc = eval_B(x, 1e-13)
        assert enc.width <= mp.mpf("1e-13")
        assert enc.regime == "geometric-tail"


def test_eval_B_domain_and_floor():
    with pytest.raises(ValueError):
        eval_B(-0.2)
    with pytest.raises(ValueError):
        eval_B(1.2)
    with pytest.raises(ToleranceFloorError):
        eval_B(1.0, 1e-12, max_terms=1000)
    with pytest.raises(ValueError):
        eval_B(0.5, -1e-3)


@pytest.mark.parametrize("max_terms", [1, 0, -3])
def test_term_budget_below_two_is_a_plain_value_error(max_terms):
    # neither tail bound exists for N < 2, so there is no floor to name
    for call in (lambda: eval_B(1.0, 0.1, max_terms=max_terms),
                 lambda: perimeter(Ellipse(1, 0), max_terms=max_terms)):
        with pytest.raises(ValueError) as info:
            call()
        assert not isinstance(info.value, ToleranceFloorError)
        assert "None" not in str(info.value)


def test_eval_B_floor_message_names_the_floor_at_x():
    # the geometric bound at x = 1/2 reaches far below the x = 1 floor
    with pytest.raises(ToleranceFloorError) as info:
        eval_B(0.5, 1e-300, max_terms=100)
    floor = float(str(info.value).rsplit("about ", 1)[1].rstrip(")"))
    assert 0 < floor < 1e-36
    assert eval_B(0.5, 1e-36, max_terms=100).width <= 1e-36


def test_eval_B_soundness_against_quadrature():
    for i in range(0, 21):
        x = round(0.05 * i, 2)
        enc = eval_B(x, 5e-9 if x > 0.999 else 1e-9)
        q = oracle_trig_integral(x)
        assert enc.lo - QUAD_ERR <= q <= enc.hi + QUAD_ERR, f"x={x}"


# --------------------------------------------------------- ivory_integral


def test_ivory_endpoints():
    assert abs(ivory_integral(0.0) - 1.0) < 1e-14
    assert abs(ivory_integral(1.0) - 4.0 / math.pi) < 1e-12


def test_ivory_against_series():
    enc = eval_B(0.7, 1e-12)
    v = ivory_integral(0.7, 1e-12)
    assert abs(v - float(enc.mid)) < 2e-12


def test_ivory_against_scipy():
    for x in (0.15, 0.5, 0.85):
        assert abs(ivory_integral(x, 1e-12) - oracle_trig_integral(x)) < 1e-11


def test_ivory_domain_and_budget():
    with pytest.raises(ValueError):
        ivory_integral(-0.5)
    with pytest.raises(ValueError):
        ivory_integral(2.0)
    with pytest.raises(QuadratureBudgetError):
        ivory_integral(0.9, tol=1e-18, max_panels=8)


# -------------------------------------------------------------- perimeter


def test_perimeter_circle():
    enc = perimeter(Ellipse(1, 1))
    with mp.workdps(80):
        assert enc.contains(2 * mp.pi)
    assert enc.width < 1e-12


def test_perimeter_degenerate():
    enc = perimeter(Ellipse(1, 0))
    assert enc.contains(4)
    assert enc.width < 1e-5


def test_perimeter_against_arclength_oracle():
    enc = perimeter(Ellipse(2, 1))
    q = oracle_arclength(2.0, 1.0)
    assert enc.lo - QUAD_ERR <= q <= enc.hi + QUAD_ERR
    assert enc.width <= 1e-12


def test_perimeter_against_complete_elliptic_integral():
    # third route: p = 4 a E(e^2) via scipy's complete elliptic integral
    from scipy.special import ellipe

    for a, b in ((2.0, 1.0), (1.0, 0.25), (3.0, 2.9), (1.0, 0.0)):
        ell = Ellipse(a, b)
        ref = 4.0 * a * ellipe(float(ell.ecc) ** 2)
        enc = perimeter(ell)
        assert enc.lo - 1e-9 <= ref <= enc.hi + 1e-9, (a, b)


def test_perimeter_axis_order_irrelevant():
    p1 = perimeter(Ellipse(2, 1))
    p2 = perimeter(Ellipse(1, 2))
    assert p1.lo == p2.lo and p1.hi == p2.hi


def test_perimeter_scale_equivariance():
    s = 3.7
    base = perimeter(Ellipse(1.4, 0.6))
    scaled = perimeter(Ellipse(1.4 * s, 0.6 * s))
    with mp.workdps(60):
        diff = abs(scaled.mid - s * base.mid)
        assert diff <= (scaled.width + s * base.width) / 2 + mp.mpf("1e-30")


def test_perimeter_explicit_tolerance():
    enc = perimeter(Ellipse(5, 3), tol=1e-8)
    assert enc.width <= 1e-8
    with pytest.raises(ToleranceFloorError):
        perimeter(Ellipse(1, 0), tol=1e-30)


# ---------------------------------------------------- perimeter_ramanujan


def test_ramanujan_circle_exact():
    with mp.workdps(50):
        v = perimeter_ramanujan(Ellipse(1, 1))
        assert abs(v - 2 * mp.pi) < mp.mpf("1e-45")


def test_ramanujan_degenerate():
    with mp.workdps(50):
        v = perimeter_ramanujan(Ellipse(1, 0))
        assert abs(v - 14 * mp.pi / 11) < mp.mpf("1e-45")


def test_ramanujan_two_forms_agree():
    rng = random.Random(987654)
    with mp.workdps(60):
        for _ in range(25):
            a = rng.uniform(0.3, 3.0)
            b = a * rng.uniform(0.01, 1.0)
            ell = Ellipse(a, b)
            direct = perimeter_ramanujan(ell)
            via_kernel = mp.pi * (ell.a + ell.b) * eval_A(ell.lam**2)
            assert abs(direct - via_kernel) / direct < mp.mpf("5e-49")


def test_ramanujan_underestimates():
    # the enclosure must be tighter than the defect it is meant to expose,
    # so aim two orders below a crude pi*(a+b)*delta_5*lam^10 estimate
    for a, b in ((2, 1), (1, 0.2), (1.5, 1.49), (1, 0)):
        ell = Ellipse(a, b)
        lam = float(ell.lam)
        eps_est = math.pi * (a + b) * 2.288e-5 * lam**10
        tol = min(1e-12, eps_est / 100) if lam < 0.999 else None
        enc = perimeter(ell, tol)
        assert perimeter_ramanujan(ell) < enc.lo, f"(a,b)=({a},{b})"


# ------------------------------------------------------------ discrepancy


def test_discrepancy_domain():
    for bad in (0, -0.5, 1.0001):
        with pytest.raises(ValueError):
            discrepancy(bad)


def test_discrepancy_at_one():
    enc = discrepancy(1.0)
    with mp.workdps(80):
        assert enc.contains(4 / mp.pi - mp.mpf(14) / 11)


def test_discrepancy_small_x_limit():
    # Delta(x)/x^5 -> delta_5 = 3/2^17 as x -> 0
    enc = discrepancy_ratio(1e-8)
    with mp.workdps(50):
        d5 = mp.mpf(3) / 2**17  # dyadic, exact
        assert abs(enc.mid - d5) < mp.mpf("1e-12")
        assert enc.lo > 0


def test_discrepancy_two_sided_envelope():
    # the whole enclosure, not just its midpoint, sits strictly inside
    # (delta_5 x^5, (4/pi - 14/11) x^5] away from the x = 1 endpoint
    with mp.workdps(50):
        for xf in (0.1, 0.5, 0.9):
            enc = discrepancy(xf)
            x = mp.mpf(xf)
            low = (mp.mpf(3) / 2**17) * x**5
            high = (4 / mp.pi - mp.mpf(14) / 11) * x**5
            assert low < enc.lo
            assert enc.hi < high


def test_discrepancy_positive_and_sound_vs_subtraction():
    # direct (cancellation-prone) B - A agrees within combined widths
    for xf in (0.25, 0.75):
        enc = discrepancy(xf)
        b_enc = eval_B(xf, 1e-20)
        with mp.workdps(60):
            direct = b_enc.mid - eval_A(xf)
            assert abs(direct - enc.mid) < b_enc.width + enc.width + mp.mpf("1e-25")
        assert enc.lo > 0


def test_theta_of_lambda_monotone_spot():
    mids = [theta_of_lambda(l).mid for l in (0.2, 0.5, 0.8, 1.0)]
    assert all(mids[i] < mids[i + 1] for i in range(len(mids) - 1))


def test_theta_equals_discrepancy_at_endpoint():
    t = theta_of_lambda(1.0)
    d = discrepancy(1.0)
    with mp.workdps(60):
        assert abs(t.mid - d.mid) < t.width + d.width


def _ratio_partial_sum(x: F, n_max: int) -> F:
    """delta_5 + delta_6 x + ... + delta_n_max x^(n_max - 5), exactly."""
    d = delta_coeffs_upto(n_max)
    return sum((d[n] * x ** (n - 5) for n in range(5, n_max + 1)), F(0))


def _assert_certifies_ratio(enc, xq: F, scale: F) -> None:
    """enc encloses scale * Delta(x)/x^5 to about nine digits; the omitted
    terms of the partial sum to n = 12 lie in (0, x^8 / (1 - x)], since
    0 < delta_n < B_n <= 1."""
    s = _ratio_partial_sum(xq, 12)
    rest = xq**8 / (1 - xq)
    lo, hi = engine._exact_fraction(enc.lo), engine._exact_fraction(enc.hi)
    assert 0 < lo <= (s + rest) * scale
    assert s * scale <= hi
    assert hi - lo <= F(1, 10**8) * s * scale


@pytest.mark.parametrize("x", [1e-50, 1e-62, 1e-63, 1e-70, 1e-200, 2.2e-308, 5e-324])
def test_discrepancy_default_target_certifies_tiny_x(x):
    # below x ~ 1e-62 the float default target underflowed to 0.0 and the
    # call was refused with "tol must be positive"
    xq = F(x)
    _assert_certifies_ratio(discrepancy(x), xq, xq**5)
    _assert_certifies_ratio(discrepancy_ratio(x), xq, F(1))


@pytest.mark.parametrize("lam", [1e-35, 1e-170, 5e-324])
def test_theta_of_lambda_certifies_tiny_lambda(lam):
    # x = lam^2 is formed at working precision; for lam below ~1e-162 it
    # lies below the float range
    lm = engine._as_mpf(lam, engine._ctx(engine.WORKING_DPS))
    _assert_certifies_ratio(theta_of_lambda(lam), engine._exact_fraction(lm * lm), F(1))


def test_discrepancy_ratio_never_loosens_an_explicit_tol():
    # tol * x^5 underflows in float at both points; the default target
    # (width 2.6e-24 at x = 1e-10) must not stand in for the one asked for
    assert discrepancy_ratio(1e-61, 1e-20).width <= 1e-20
    try:
        width = discrepancy_ratio(1e-10, 1e-300).width
    except ToleranceFloorError:
        width = None  # refused, which is allowed
    assert width is None or width <= 1e-300 * (1 + 1e-5)


@pytest.mark.parametrize("x", [1e-10, 1e-70])
def test_discrepancy_ratio_plans_past_the_float_underflow(x):
    # the float tail estimate underflows to 0 long before tol * x^5 is met,
    # so the term count must be planned past it.  Omitted terms past n = 45
    # lie in (0, x^41 / (1 - x)].
    tol = 1e-300
    enc = discrepancy_ratio(x, tol)
    assert enc.width <= tol
    xq = F(x)
    s = _ratio_partial_sum(xq, 45)
    lo, hi = engine._exact_fraction(enc.lo), engine._exact_fraction(enc.hi)
    assert lo <= s + xq**41 / (1 - xq)
    assert s <= hi


# -------------------------------------------------------------- Enclosure


def test_enclosure_invariant():
    with pytest.raises(ValueError):
        Enclosure(mp.mpf(2), mp.mpf(1))


def test_enclosure_contains_is_exact():
    enc = eval_B(0)  # width around 1e-47
    with mp.workdps(5):
        # low ambient precision must not round the comparison away
        assert enc.contains(F(1))
        assert not enc.contains(F(2))


def test_enclosure_rejects_non_finite_values():
    enc = eval_B(0.5)
    with pytest.raises(ValueError):
        enc.contains(mp.inf)


# ------------------------------------------------- planner and dependencies


def test_estimate_delta_terms_matches_linear_scan():
    xs = [1e-6, 0.01, 0.3, 0.5, 0.9, 0.99, 1.0] + [1 - 10.0**-k for k in range(3, 13)]
    for max_terms in (500, 6000):
        for x in xs:
            for tol in (1e-6, 1e-9, 1e-12, 1e-15, 1e-20, 1e-30):
                got = engine._estimate_delta_terms(x, tol, max_terms)
                if engine._tail_estimate(x, max_terms) > 0.5 * tol:
                    assert got is None, (x, tol, max_terms)
                    continue
                scan = next(n for n in range(6, max_terms + 1)
                            if engine._tail_estimate(x, n) <= 0.5 * tol)
                assert got == scan, (x, tol, max_terms)


def test_import_leaves_numpy_out():
    src = str(Path(ellipcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ellipcert.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_gauss_legendre_pairs_equal_numpy_leggauss():
    np = pytest.importorskip("numpy")
    nodes, weights = np.polynomial.legendre.leggauss(15)
    assert engine._GL_PAIRS == list(zip(nodes.tolist(), weights.tolist()))


@pytest.fixture(scope="module")
def exact_views():
    n_max = 1500
    return engine.delta_coeffs_upto(n_max), engine.b_coeffs_upto(n_max)


@pytest.mark.parametrize("dps", [50, 60, 120])
def test_dyadic_images_equal_the_fraction_conversion(dps, exact_views):
    # num / 2**exp rounded once equals ctx.mpf(num) / den, bit for bit
    exact_d, exact_b = exact_views
    ctx = engine._ctx(dps)
    deltas, bs = engine._MPF_COEFFS.get(dps, len(exact_d) - 1)
    for n, (d, b) in enumerate(zip(exact_d, exact_b)):
        assert deltas[n]._mpf_ == (ctx.mpf(d.numerator) / d.denominator)._mpf_, n
        assert bs[n]._mpf_ == (ctx.mpf(b.numerator) / b.denominator)._mpf_, n


def test_cache_grown_in_uneven_steps_matches_one_step():
    for dps in (50, 120):
        stepped, whole = engine._MpfCoefficientCache(), engine._MpfCoefficientCache()
        for n in (3, 4, 10, 200):
            stepped.get(dps, n)
        whole.get(dps, 200)
        # the delta images, then the B images
        for got, want in zip(stepped.get(dps, 200), whole.get(dps, 200)):
            assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


def test_cache_concurrent_growth_is_consistent(fast_thread_switching):
    # hammer one fresh cache from many threads at two precisions; every
    # reader must see a fully built prefix equal to a serial cache's
    from concurrent.futures import ThreadPoolExecutor

    serial = engine._MpfCoefficientCache()
    reference = {dps: [[v._mpf_ for v in images] for images in serial.get(dps, 400)]
                 for dps in (50, 60)}
    shared = engine._MpfCoefficientCache()

    def worker(k):
        dps = (50, 60)[k % 2]
        n = 50 + (k * 37) % 350
        got = shared.get(dps, n)
        return all(images[i]._mpf_ == ref[i]
                   for images, ref in zip(got, reference[dps]) for i in range(n + 1))

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, range(64)))
    assert all(results)


def test_per_precision_caches_stay_bounded():
    # the default target of Delta(10^-k) needs about 5k + 30 digits, so this
    # sweep meets 50 precisions; only the most recently used few are kept
    misses = engine._ctx.cache_info().misses
    for k in range(5, 55):
        discrepancy(10.0**-k)
    assert engine._ctx.cache_info().misses - misses >= 50
    assert engine._ctx.cache_info().currsize <= engine._PRECISIONS_KEPT
    assert len(engine._MPF_COEFFS._store) <= engine._PRECISIONS_KEPT


def test_cold_discrepancy_at_one_holds_no_exact_table(traced_peak_mb):
    # N = 4900 rows: a held table of exact A, B and delta peaked near 22 MB;
    # the stream leaves only the mpf images, about 2.5 MB
    peak = traced_peak_mb("ellipcert.engine.discrepancy(1.0)")
    assert peak < 8.0, peak


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan"), mp.mpf("nan")])
def test_non_positive_or_nan_tolerance_is_rejected(tol):
    # NaN fails every comparison, so only a test of tol > 0 rejects it
    calls = [
        lambda: eval_B(0.25, tol),
        lambda: ivory_integral(0.5, tol),
        lambda: perimeter(Ellipse(2, 1), tol),
        lambda: discrepancy(0.5, tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be positive"):
            call()


@pytest.mark.parametrize("tol", [math.inf, mp.mpf("inf")])
def test_infinite_tolerance_is_rejected(tol):
    # an infinite width target certifies nothing
    calls = [
        lambda: eval_B(0.25, tol),
        lambda: ivory_integral(0.5, tol),
        lambda: perimeter(Ellipse(2, 1), tol),
        lambda: discrepancy(0.5, tol),
        lambda: discrepancy_ratio(1e-70, tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be finite"):
            call()
