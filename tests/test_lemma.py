"""Verifier tests: f/g machinery, the minimum analysis, certificates."""

import json
from fractions import Fraction as F

import pytest
from mpmath import mp

import ellipcert.lemma as lemma_mod
import ellipcert.series_kernel as series_kernel
from ellipcert import b_coeff, f_val, g_val, g_min_analysis, verify_fundamental_lemma


def test_f_frozen_values():
    assert f_val(2) == F(3, 2)  # (1 * 3/1) / 6 * 3
    assert f_val(7) == F(1701, 1936)
    assert f_val(7) < 1


def test_f_rejects_below_two():
    with pytest.raises(ValueError):
        f_val(1)


def test_f_decreasing_from_seven():
    prev = f_val(7)
    for n in range(8, 80):
        cur = f_val(n)
        assert cur < prev
        prev = cur


def test_g_frozen_and_identity():
    # g_val itself asserts quotient == closed form; the value is frozen here
    assert g_val(2) == F(4, 3)
    assert g_val(7) > 1


def test_g_rejects_below_two():
    with pytest.raises(ValueError):
        g_val(1)


def test_g_exceeds_minimum_bound_exactly():
    floor = F(10363, 10000)
    for k in range(2, 101):
        assert g_val(k) > floor


def test_g_min_analysis_location_is_critical_point():
    loc, val = g_min_analysis()
    with mp.workdps(50):
        # the location must kill 2x^2 - 7x + 1 ...
        residual = 2 * loc**2 - 7 * loc + 1
        assert abs(residual) < mp.mpf("1e-40")
        # ... and match (7 + sqrt(41))/4
        assert abs(loc - (7 + mp.sqrt(41)) / 4) < mp.mpf("1e-12")


def test_g_min_analysis_value():
    _loc, val = g_min_analysis()
    with mp.workdps(50):
        assert abs(val - mp.mpf("1.0363895208")) < mp.mpf("1e-9")
        assert val > 1


def test_g_min_is_local_minimum():
    loc, val = g_min_analysis()
    with mp.workdps(50):
        def g(x):
            return (2 * x / (6 * x - 9)) * ((2 * x - 1) / (x + 1)) ** 2

        h = mp.mpf("0.01")
        assert g(loc - h) > val
        assert g(loc + h) > val


def test_g_asymptote():
    with mp.workdps(50):
        x = mp.mpf(10) ** 6
        g = (2 * x / (6 * x - 9)) * ((2 * x - 1) / (x + 1)) ** 2
        assert abs(g - mp.mpf(4) / 3) < mp.mpf("1e-5")


def test_verify_rejects_small_range():
    with pytest.raises(ValueError):
        verify_fundamental_lemma(6)


def test_verify_minimal_range():
    cert = verify_fundamental_lemma(7)
    assert cert.equalities_ok
    assert cert.inequalities_ok
    assert cert.all_ok()


def test_verify_certificate_fields():
    cert = verify_fundamental_lemma(60)
    assert cert.all_ok()
    assert cert.n_max == 60
    assert cert.f7_value == F(1701, 1936)
    assert cert.f_monotone_range == (7, 60)
    assert cert.claim1_worst_ratio == F(1, 6)
    assert cert.claim2_ok and cert.claim1_ok
    assert cert.dominance_ok and cert.chain_equivalence_ok
    assert cert.routes_ok and cert.route_check_max_n == 50
    assert cert.first_counterexample is None
    assert cert.claim_sample_indices[0] == 5
    assert cert.claim_sample_indices[-1] == 60
    assert any("49/2^16" in note for note in cert.paper_typos_noted)


def test_corrupted_input_is_recorded_not_thrown(monkeypatch):
    # fault injection: a wrong B_10 must surface as a recorded first
    # counterexample with witnesses, never as an exception
    def corrupt_b(n):
        return F(0) if n == 10 else b_coeff(n)

    monkeypatch.setattr(lemma_mod, "b_coeff", corrupt_b)
    cert = verify_fundamental_lemma(15)
    assert not cert.inequalities_ok
    assert not cert.all_ok()
    assert cert.first_counterexample is not None
    assert cert.first_counterexample["index"] == 10
    assert "A_n < B_n" in cert.first_counterexample["check"]
    assert "a_n" in cert.first_counterexample
    # equalities (n <= 4) are untouched by the corruption
    assert cert.equalities_ok
    # and the failure serializes
    doc = json.loads(cert.to_json())
    assert doc["all_ok"] is False
    assert doc["first_counterexample"]["index"] == 10


def test_large_witness_is_recorded_under_the_int_digit_limit(monkeypatch, int_digit_cap):
    # A_600 has a denominator of about 900 digits, past the 640-digit cap
    # on str(int); the witness must still be recorded, not raised
    def corrupt_b(n):
        return F(0) if n == 600 else b_coeff(n)

    monkeypatch.setattr(lemma_mod, "b_coeff", corrupt_b)
    with int_digit_cap():
        cert = verify_fundamental_lemma(600)
        text = cert.to_json()
    assert not cert.inequalities_ok
    assert cert.first_counterexample["index"] == 600
    assert cert.first_counterexample["b_n"] == "0/1"
    num, den = cert.first_counterexample["a_n"].split("/")
    assert len(den) > 640
    assert F(int(num), int(den)) == series_kernel.a_coeffs_upto(600)[600]
    assert json.loads(text)["first_counterexample"] == cert.first_counterexample


def test_lemma_never_calls_the_cauchy_product(monkeypatch):
    reference = verify_fundamental_lemma(60).to_json()

    def refuse(*args):
        raise AssertionError("ps_mul called")

    monkeypatch.setattr(series_kernel, "ps_mul", refuse)
    cert = verify_fundamental_lemma(60)
    assert cert.all_ok()
    assert cert.to_json() == reference


def test_certificate_independent_of_ambient_precision():
    # every boolean is decided by rational comparisons, so a hostile global
    # precision must not change anything, including the serialized reals
    baseline = verify_fundamental_lemma(15).to_json()
    with mp.workdps(4):
        low = verify_fundamental_lemma(15).to_json()
    with mp.workdps(120):
        high = verify_fundamental_lemma(15).to_json()
    assert baseline == low == high


def test_certificate_json_schema_and_determinism():
    cert1 = verify_fundamental_lemma(20)
    cert2 = verify_fundamental_lemma(20)
    text1, text2 = cert1.to_json(), cert2.to_json()
    assert text1 == text2
    doc = json.loads(text1)
    expected_keys = [
        "n_max",
        "equalities_ok",
        "inequalities_ok",
        "f7_value",
        "f_monotone_range",
        "g_min_location",
        "g_min_value",
        "claim1_worst_ratio",
        "claim2_ok",
        "paper_typos_noted",
        "claim1_ok",
        "dominance_ok",
        "chain_equivalence_ok",
        "route_check_max_n",
        "routes_ok",
        "claim_sample_indices",
        "first_counterexample",
        "all_ok",
    ]
    assert list(doc.keys()) == expected_keys
    assert doc["f7_value"] == "1701/1936"
    assert doc["claim1_worst_ratio"] == "1/6"
    assert doc["all_ok"] is True
    # extended reals carry at least 20 significant digits
    mantissa = doc["g_min_value"].replace(".", "").lstrip("0").rstrip("0")
    assert len(mantissa) >= 20
