"""Acceptance gate: one test per criterion, each at its stated tolerance.

Each test prints a single PASS line on success (visible with ``pytest -s``
or ``-rA``); a failed assertion is the FAIL line.  Every tolerance is
pinned here, not configured elsewhere.

Criterion 1 note: the commonly published coefficient table misprints the
n = 2..4 values by a factor of 4 (and the n = 5 values by the same factor,
via a 2^14-for-2^16 exponent slip).  The exact values asserted here are
forced by two independent exact routes, by delta_5 = 3/2^17, and by
B(1) = 4/pi; the published-to-exact 4x relation is itself asserted so the
misprint stays machine-documented.
"""

import random
import time
from fractions import Fraction as F

from mpmath import mp

from ellipcert import (
    Ellipse,
    a_coeff_explicit,
    a_series_via_composition,
    b_coeff,
    delta_coeff,
    delta_e_bounds,
    error_report,
    eval_B,
    f_val,
    g_min_analysis,
    g_val,
    ivory_integral,
    perimeter,
    perimeter_ramanujan,
    scaled_theta_upper,
    theta_of_lambda,
    theta_upper,
    verify_fundamental_lemma,
)
from ellipcert.cli import cli_main


def test_criterion_1_exact_coefficient_block():
    start = time.time()
    comp = a_series_via_composition(6)
    exact = [F(1, 4), F(1, 64), F(1, 256), F(25, 16384)]
    published = [F(1, 4), F(1, 16), F(1, 64), F(25, 4096)]
    for n in range(1, 5):
        assert comp[n] == b_coeff(n), f"A_{n} != B_{n}"
        assert comp[n] == exact[n - 1]
    # the published table's n = 2..4 entries are exactly 4x the true values
    assert published[0] == exact[0]
    for i in range(1, 4):
        assert published[i] == 4 * exact[i]
    assert delta_coeff(5) == F(3, 2**17)
    assert delta_coeff(6) == F(79, 2**21)
    elapsed = time.time() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nPASS criterion 1: exact coefficient block (zero tolerance, {elapsed:.3f}s)")


def test_criterion_2_fundamental_lemma_sweep():
    start = time.time()
    comp = a_series_via_composition(200)
    for n in range(5, 201):
        assert comp[n] < b_coeff(n), f"A_{n} >= B_{n}"
    for n in range(1, 51):
        assert a_coeff_explicit(n) == comp[n], f"route mismatch at n={n}"
    cert = verify_fundamental_lemma(200)
    assert cert.inequalities_ok and cert.first_counterexample is None
    assert cert.all_ok()
    elapsed = time.time() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 2: A_n < B_n exactly for 5..200, routes equal for 1..50, certificate clean ({elapsed:.2f}s)")


def test_criterion_3_f_g_machinery():
    assert f_val(7) == F(1701, 1936)
    for k in range(7, 201):
        assert f_val(k) > f_val(k + 1), f"f not decreasing at {k}"
        assert g_val(k) > 1, f"g({k}) <= 1"
    loc, val = g_min_analysis()
    with mp.workdps(60):
        loc, val = mp.mpf(str(loc)), mp.mpf(str(val))
        assert abs(val - mp.mpf("1.0363895208")) < mp.mpf("1e-9")
        assert abs(loc - (7 + mp.sqrt(41)) / 4) < mp.mpf("1e-12")
        x = mp.mpf(10) ** 6
        g_far = (2 * x / (6 * x - 9)) * ((2 * x - 1) / (x + 1)) ** 2
        assert abs(g_far - mp.mpf(4) / 3) < mp.mpf("1e-5")
    print("PASS criterion 3: f(7)=1701/1936, f/g monotone to 200, g minimum and asymptote")


def test_criterion_4_ivory_identity():
    start = time.time()
    for i in range(20):
        x = round(0.05 * i, 2)
        quad_v = ivory_integral(x, 1e-12)
        series = eval_B(x, 1e-10)
        assert abs(quad_v - float(series.mid)) < 1e-10, f"x={x}"
    enc1 = eval_B(1.0, 5e-9)
    with mp.workdps(80):
        assert enc1.contains(4 / mp.pi)
    assert enc1.width < 1e-8
    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 4: quadrature vs series < 1e-10 on grid; B(1) encloses 4/pi, width < 1e-8 ({elapsed:.2f}s)")


def test_criterion_5_perimeter_sanity():
    circle = perimeter(Ellipse(1, 1))
    with mp.workdps(80):
        assert circle.contains(2 * mp.pi)
    assert circle.width < 1e-12
    rep = error_report(Ellipse(1, 1))
    assert rep.epsilon_enclosure.lo == 0 and rep.epsilon_enclosure.hi == 0

    degen = perimeter(Ellipse(1, 0))
    assert degen.contains(4)
    assert degen.width < 1e-5
    with mp.workdps(80):
        p_r = perimeter_ramanujan(Ellipse(1, 0))
        assert abs(p_r - 14 * mp.pi / 11) < mp.mpf("1e-12")
    print("PASS criterion 5: circle gives 2pi (width < 1e-12, eps = 0); b=0 gives 4 and p_R = 14pi/11")


def test_criterion_6_accuracy_lemma_containment():
    for i in range(1, 21):
        lam = 0.05 * i
        rep = error_report(Ellipse(1 + lam, 1 - lam))  # a+b = 2
        mid = rep.epsilon_enclosure.mid
        w = rep.epsilon_enclosure.width
        with mp.workdps(60):
            assert mid - rep.lower_bound > 10 * w, f"lower margin at lam={lam}"
            if i < 20:
                assert rep.upper_bound - mid > 10 * w, f"upper margin at lam={lam}"
            else:
                assert mid <= rep.upper_bound, "equality side at lam=1"
    print("PASS criterion 6: two-sided containment with 10x-width margins on the lambda grid")


def test_criterion_7_corollary_2_consistency():
    rng = random.Random(20260808)
    with mp.workdps(60):
        for _ in range(20):
            a = rng.uniform(0.5, 2.5)
            b = a * rng.uniform(0.05, 0.999)
            rep = error_report(Ellipse(a, b))
            lam_form = mp.pi * (rep.a + rep.b) * rep.theta.mid * rep.lam**10
            e_form = rep.a * rep.delta_e.mid * (2 * rep.a / (rep.a + rep.b)) ** 19 * rep.ecc**20
            assert abs(lam_form - e_form) < mp.mpf("1e-10")
        de_lo, de_up = delta_e_bounds()
        for i in range(1, 21):
            e = 0.05 * i
            rep = error_report(Ellipse.from_eccentricity(1, e))
            d = rep.delta_e.mid
            assert d > de_lo + 10 * rep.delta_e.width, f"delta_e lower at e={e}"
            assert d <= de_up, f"delta_e upper at e={e}"
        identity_gap = abs(scaled_theta_upper() - mp.pi * theta_upper())
        assert identity_gap < mp.mpf("1e-15")
    print("PASS criterion 7: lam/e forms agree < 1e-10; delta_e within bounds; identity < 1e-15")


def test_criterion_8_ramanujan_own_estimate():
    with mp.workdps(60):
        for i in range(1, 11):
            e = 0.1 * i
            rep = error_report(Ellipse.from_eccentricity(1, e))
            assert rep.ramanujan_estimate < rep.epsilon_enclosure.mid, f"e={e}"
            gap = rep.epsilon_enclosure.mid - rep.ramanujan_estimate
            assert gap > 10 * rep.epsilon_enclosure.width, f"margin at e={e}"
    print("PASS criterion 8: 3a e^20/2^36 strictly below the defect on the e grid")


def test_criterion_9_monotonicity_suites():
    prev_mid = None
    prev_w = 0
    for i in range(1, 100):
        enc = theta_of_lambda(0.01 * i)
        if prev_mid is not None:
            assert enc.mid >= prev_mid - (enc.width + prev_w), f"theta dips at i={i}"
        prev_mid, prev_w = enc.mid, enc.width
    prev_mid = None
    prev_w = 0
    for i in range(1, 21):
        rep = error_report(Ellipse.from_eccentricity(1, 0.05 * i))
        enc = rep.epsilon_enclosure
        if prev_mid is not None:
            assert enc.mid >= prev_mid - (enc.width + prev_w), f"epsilon dips at i={i}"
        prev_mid, prev_w = enc.mid, enc.width
    print("PASS criterion 9: theta non-decreasing on 99 points; epsilon(e) non-decreasing on 20")


def test_criterion_10_cli_contract(capsys):
    import json

    rc = cli_main(["verify-lemma", "--max-n", "100"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    for key in (
        "n_max", "equalities_ok", "inequalities_ok", "f7_value",
        "f_monotone_range", "g_min_location", "g_min_value",
        "claim1_worst_ratio", "claim2_ok", "paper_typos_noted",
    ):
        assert key in doc, key
    assert doc["inequalities_ok"] is True and doc["n_max"] == 100

    rc = cli_main(["coeffs", "--n", "6"])
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert F(rows[6][1]) == F(803, 2**21)
    assert F(rows[6][2]) == F(882, 2**21)
    assert F(rows[6][3]) == F(79, 2**21)

    assert cli_main(["perimeter", "--oops"]) == 2
    capsys.readouterr()
    assert cli_main(["coeffs"]) == 2
    capsys.readouterr()
    print("PASS criterion 10: CLI certificate, coefficient table, and exit codes")
