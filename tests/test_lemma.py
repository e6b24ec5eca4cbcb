"""Verifier tests: f/g machinery, the minimum analysis, certificates."""

import decimal
import hashlib
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
        loc, val = mp.mpf(str(loc)), mp.mpf(str(val))
        # the location must kill 2x^2 - 7x + 1 ...
        residual = 2 * loc**2 - 7 * loc + 1
        assert abs(residual) < mp.mpf("1e-40")
        # ... and match (7 + sqrt(41))/4
        assert abs(loc - (7 + mp.sqrt(41)) / 4) < mp.mpf("1e-12")


def test_g_min_analysis_value():
    _loc, val = g_min_analysis()
    with mp.workdps(50):
        val = mp.mpf(str(val))
        assert abs(val - mp.mpf("1.0363895208")) < mp.mpf("1e-9")
        assert val > 1


def test_g_min_is_local_minimum():
    loc, val = g_min_analysis()
    with mp.workdps(50):
        loc, val = mp.mpf(str(loc)), mp.mpf(str(val))
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


# SHA-256 of verify_fundamental_lemma(n).to_json(): how the sweep computes
# may change, the certificate it prints may not
GOLDEN_CERT_SHA256 = {
    7: "b0300dc4730e1ac0cfc77e15d0a7b8ca05b2e8028d5a57feb030382dbe377a9c",
    8: "74f992c018d1d528cf716909ff6294f5dd7a38f31cd6977b043422487285beae",
    15: "9c63ea24fa265e5ac266e0de6e94528ebc25c6c23e412d9136c4b43a4faf7777",
    16: "7f5ea58a477dbed917aa96c4303f3f930d6efe3d1bd02a52210f1826512f77a4",
    17: "91679e93ced601965c317b177740d174e3cb47860c535c368ff3379fbee7809f",
    60: "34f075e06287192082b9df9e535909029fd234238ebdfeb59f2ea306f6acbf0c",
    150: "cc20480b263813b05e74382684e127c666485cd1a8f7b0bdf74670f099eb92ee",
    301: "b0b4d7a050c8473fa2d346b05d34d8186af52008c049455825632cbe4039aab4",
    433: "df9595c0f6963e3b064dcdc32636f0e825400715ea11a34025e91446967caff1",
    600: "f06ab3ac0440134436803b200f73ae574ab6ff9995b8c6903dfe6e898d71dccc",
}


@pytest.mark.parametrize("n", sorted(GOLDEN_CERT_SHA256))
def test_certificate_matches_golden_digest(n):
    text = verify_fundamental_lemma(n).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CERT_SHA256[n]


def test_certificate_ignores_the_ambient_decimal_context():
    want = verify_fundamental_lemma(60).to_json()
    with decimal.localcontext() as hostile:
        hostile.prec = 5
        hostile.rounding = decimal.ROUND_FLOOR
        assert verify_fundamental_lemma(60).to_json() == want
    assert hashlib.sha256(want.encode()).hexdigest() == GOLDEN_CERT_SHA256[60]


def _a_series_with(index, value):
    """lemma's A_n source with A_index replaced by value(A_index)."""
    original = lemma_mod.a_series_via_composition

    def patched(order):
        coeffs = list(original(order).coeffs)
        coeffs[index] = value(coeffs[index])
        return series_kernel.PowerSeries(coeffs)

    return patched


def test_fault_in_equality_is_witnessed(monkeypatch):
    monkeypatch.setattr(lemma_mod, "a_series_via_composition",
                        _a_series_with(3, lambda a3: a3 + F(1, 1024)))
    cert = verify_fundamental_lemma(30)
    assert not cert.equalities_ok and not cert.all_ok()
    assert cert.first_counterexample == {
        "check": "equality A_n = B_n", "index": 3, "a_n": "5/1024", "b_n": "1/256",
    }


def test_fault_in_dominance_is_witnessed(monkeypatch):
    # A_20 halfway between a_19 and B_20: still below B_20, above the lead term
    lead, b20 = series_kernel.a_term(20, 19), b_coeff(20)
    monkeypatch.setattr(lemma_mod, "a_series_via_composition",
                        _a_series_with(20, lambda _a20: (lead + b20) / 2))
    cert = verify_fundamental_lemma(30)
    assert cert.inequalities_ok and not cert.dominance_ok
    assert cert.first_counterexample == {
        "check": "dominance 0 < A_n < a_(n-1)",
        "index": 20,
        "a_n": "1700394855403981275/302231454903657293676544",
        "lead": "138785264039493225/151115727451828646838272",
    }


def test_fault_in_chain_is_witnessed(monkeypatch):
    # B_20 halfway between A_20 and a_19: still above A_20, below the lead term
    lead, a20 = series_kernel.a_term(20, 19), series_kernel.a_coeffs_upto(20)[20]
    monkeypatch.setattr(lemma_mod, "b_coeff",
                        lambda n: (a20 + lead) / 2 if n == 20 else b_coeff(n))
    cert = verify_fundamental_lemma(30)
    assert cert.inequalities_ok and cert.dominance_ok
    assert not cert.chain_equivalence_ok
    assert cert.first_counterexample == {
        "check": "chain f(n) < 1 <=> a_(n-1) < B_n", "index": 20, "f_n": "387420489/4359249202",
    }


def test_fault_in_routes_is_witnessed(monkeypatch):
    explicit = series_kernel.a_coeff_explicit
    monkeypatch.setattr(lemma_mod, "a_coeff_explicit",
                        lambda n: F(0) if n == 12 else explicit(n))
    cert = verify_fundamental_lemma(30)
    assert not cert.routes_ok
    assert cert.first_counterexample == {
        "check": "route equivalence explicit = composition", "index": 12,
    }


@pytest.mark.parametrize("n", [300, 600])
def test_sweep_builds_each_binomial_once(monkeypatch, n):
    # C(2m, m) once per m and B_n once per n, plus the 1225 calls of the
    # n <= 50 route check; rebuilding f or the terms per use costs thousands
    calls = 0
    original = lemma_mod.comb

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(lemma_mod, "comb", counting)
    monkeypatch.setattr(series_kernel, "comb", counting)
    assert verify_fundamental_lemma(n).all_ok()
    assert calls <= 2 * n + 1300
