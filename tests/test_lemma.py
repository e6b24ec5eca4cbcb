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


def test_g_min_analysis_is_correctly_rounded():
    # the original forms at 120 digits, then one half-even rounding to 50
    with decimal.localcontext(decimal.Context(prec=120)):
        s41 = decimal.Decimal(41).sqrt()
        want = ((7 + s41) / 4, 1 + (37 - s41) / (399 + 69 * s41))
    fifty = decimal.Context(prec=50, rounding=decimal.ROUND_HALF_EVEN)
    got = g_min_analysis()
    assert [str(fifty.plus(w)) for w in want] == [str(v) for v in got]
    assert str(got[0]).endswith("1050331553") and str(got[1]).endswith("0077842083")


def test_g_minimum_identities_are_exact():
    def n_(x):
        return 2 * x * (2 * x - 1) ** 2

    def d_(x):
        return 3 * (2 * x - 3) * (x + 1) ** 2

    # g = N/D, so g' = (N'D - ND')/D^2; each side below has degree at most
    # 10, so agreement at 11 points is the identity of g' with its closed form
    for x in map(F, range(11)):
        dn = 2 * (2 * x - 1) ** 2 + 8 * x * (2 * x - 1)
        dd = 6 * (x + 1) ** 2 + 6 * (2 * x - 3) * (x + 1)
        left = (dn * d_(x) - n_(x) * dd) * (2 * x - 3) ** 2 * (x + 1) ** 3
        assert left == 2 * (2 * x - 1) * (2 * x**2 - 7 * x + 1) * d_(x) ** 2

    class Q41(tuple):  # p + q sqrt(41), exactly
        def __new__(cls, p, q=0):
            return super().__new__(cls, (F(p), F(q)))

        def __add__(self, o):
            o = o if isinstance(o, Q41) else Q41(o)
            return Q41(self[0] + o[0], self[1] + o[1])

        def __mul__(self, o):
            o = o if isinstance(o, Q41) else Q41(o)
            return Q41(self[0] * o[0] + 41 * self[1] * o[1], self[0] * o[1] + self[1] * o[0])

        __radd__, __rmul__ = __add__, __mul__

        def __sub__(self, o):
            return self + o * -1

        def __pow__(self, k):
            return self if k == 1 else self * self ** (k - 1)

    r = Q41(F(7, 4), F(1, 4))
    assert 2 * r * r - 7 * r + 1 == Q41(0)
    assert 1500 * n_(r) == Q41(767, 123) * d_(r)
    assert 1500 * n_(r) != Q41(767, 122) * d_(r)
    # 1 + (37 - sqrt 41)/(399 + 69 sqrt 41) = (767 + 123 sqrt 41)/1500
    assert (Q41(767, 123) - 1500) * Q41(399, 69) == 1500 * Q41(37, -1)
    # so the minimum exceeds 1: 123 sqrt 41 > 1500 - 767 = 733
    assert 123**2 * 41 == 620289 > 733**2 == 537289


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


def _b_with(index, value):
    """lemma's B_n source with B_index replaced by the Fraction value."""
    original = lemma_mod._b_terms

    def patched(n, central):
        return (value.numerator, value.denominator, 0) if n == index else original(n, central)

    return patched


def test_corrupted_input_is_recorded_not_thrown(monkeypatch):
    # fault injection: a wrong B_10 must surface as a recorded first
    # counterexample with witnesses, never as an exception
    monkeypatch.setattr(lemma_mod, "_b_terms", _b_with(10, F(0)))
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
    monkeypatch.setattr(lemma_mod, "_b_terms", _b_with(600, F(0)))
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


def _rows_with(index, value):
    """lemma's A_n source with A_index replaced by value(A_index), a dyadic."""
    original = lemma_mod.dyadic_rows

    def patched():
        for n, row in enumerate(original()):
            if n == index:
                num, exp = row.A
                new = value(F(num, 2**exp))
                exp = new.denominator.bit_length() - 1
                assert new.denominator == 2**exp
                row = row._replace(A=(new.numerator, exp))
            yield row

    return patched


def test_fault_in_equality_is_witnessed(monkeypatch):
    monkeypatch.setattr(lemma_mod, "dyadic_rows", _rows_with(3, lambda a3: a3 + F(1, 1024)))
    cert = verify_fundamental_lemma(30)
    assert not cert.equalities_ok and not cert.all_ok()
    assert cert.first_counterexample == {
        "check": "equality A_n = B_n", "index": 3, "a_n": "5/1024", "b_n": "1/256",
    }


@pytest.mark.parametrize("n, a_n, b_n", [(1, "1/4", "1/2"), (4, "25/16384", "25/8192")])
def test_fault_at_either_end_of_the_equalities_is_witnessed(monkeypatch, n, a_n, b_n):
    # B_n doubled at the first and the last index of A_n = B_n
    monkeypatch.setattr(lemma_mod, "_b_terms", _b_with(n, 2 * b_coeff(n)))
    cert = verify_fundamental_lemma(30)
    assert not cert.equalities_ok and cert.inequalities_ok
    assert cert.first_counterexample == {
        "check": "equality A_n = B_n", "index": n, "a_n": a_n, "b_n": b_n,
    }


@pytest.mark.parametrize("n, scale, a_n, b_n", [
    (5, F(1, 2), "95/131072", "95/262144"),
    (9, 1, "669395/8589934592", "669395/8589934592"),
])
def test_fault_in_the_strict_inequality_is_witnessed(monkeypatch, n, scale, a_n, b_n):
    # B_n = scale * A_n: below A_n at n = 5, the first index of A_n < B_n,
    # and equal to A_n at n = 9, which the strict inequality fails
    a = series_kernel.a_coeffs_upto(n)[n]
    monkeypatch.setattr(lemma_mod, "_b_terms", _b_with(n, scale * a))
    cert = verify_fundamental_lemma(30)
    assert not cert.inequalities_ok and cert.equalities_ok
    assert cert.first_counterexample == {
        "check": "strict inequality A_n < B_n", "index": n, "a_n": a_n, "b_n": b_n,
    }


def test_zero_coefficient_fails_dominance(monkeypatch):
    # A_7 = 0 lies below a_6 and B_7, but dominance claims 0 < A_n
    monkeypatch.setattr(lemma_mod, "dyadic_rows", _rows_with(7, lambda _a7: F(0)))
    cert = verify_fundamental_lemma(30)
    assert not cert.dominance_ok and cert.inequalities_ok
    assert cert.first_counterexample == {
        "check": "dominance 0 < A_n < a_(n-1)", "index": 7, "a_n": "0/1",
        "lead": "15309/67108864",
    }


def test_fault_in_dominance_is_witnessed(monkeypatch):
    # A_20 halfway between a_19 and B_20: still below B_20, above the lead term
    lead, b20 = series_kernel.a_term(20, 19), b_coeff(20)
    monkeypatch.setattr(lemma_mod, "dyadic_rows", _rows_with(20, lambda _a20: (lead + b20) / 2))
    cert = verify_fundamental_lemma(30)
    assert cert.inequalities_ok and not cert.dominance_ok
    assert cert.first_counterexample == {
        "check": "dominance 0 < A_n < a_(n-1)",
        "index": 20,
        "a_n": "1700394855403981275/302231454903657293676544",
        "lead": "138785264039493225/151115727451828646838272",
    }


def test_failing_certificate_matches_golden_digest(monkeypatch):
    # the JSON of a certificate whose first_counterexample is not null
    lead, b20 = series_kernel.a_term(20, 19), b_coeff(20)
    monkeypatch.setattr(lemma_mod, "dyadic_rows", _rows_with(20, lambda _a20: (lead + b20) / 2))
    cert = verify_fundamental_lemma(30)
    assert cert.first_counterexample is not None
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == (
        "b0821c1c15117649f9848fa5c533e758bb56db9d9c9dd305e99d30a304123e57")


def test_fault_in_chain_is_witnessed(monkeypatch):
    # B_20 halfway between A_20 and a_19: still above A_20, below the lead term
    lead, a20 = series_kernel.a_term(20, 19), series_kernel.a_coeffs_upto(20)[20]
    monkeypatch.setattr(lemma_mod, "_b_terms", _b_with(20, (a20 + lead) / 2))
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
    # C(2m, m) once per m, shared by B_n, f(n) and the terms, plus the 1225
    # calls of the n <= 50 route check; rebuilding B_n, f or the terms per
    # use costs hundreds to thousands more
    calls = 0
    original = lemma_mod.comb

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(lemma_mod, "comb", counting)
    monkeypatch.setattr(series_kernel, "comb", counting)
    assert verify_fundamental_lemma(n).all_ok()
    assert calls <= n + 1 + 1225


def _w_with(index, change):
    """lemma's term magnitudes with w_index replaced by change(num, den)."""
    original = lemma_mod._w_terms

    def patched(m, central):
        terms = original(m, central)
        return change(*terms) if m == index else terms

    return patched


def test_fault_in_claim1_ratio_is_witnessed(monkeypatch):
    # w_10 doubled: both ratios beside it are wrong, and a claim-1 failure
    # at m is noted at the first sample index above m
    monkeypatch.setattr(lemma_mod, "_w_terms", _w_with(10, lambda num, den: (2 * num, den)))
    cert = verify_fundamental_lemma(30)
    assert not cert.claim1_ok and cert.claim2_ok
    assert cert.first_counterexample == {
        "check": "claim 1 ratio", "index": 11, "m": "10", "ratio": "5/204",
    }


def test_fault_in_claim1_first_ratio_is_witnessed(monkeypatch):
    # w_0 halved: |a_0/a_1| is 1/6, not 1/3; nothing else reads w_0
    monkeypatch.setattr(lemma_mod, "_w_terms", _w_with(0, lambda num, den: (num, 2 * den)))
    cert = verify_fundamental_lemma(30)
    assert not cert.claim1_ok
    assert cert.claim2_ok and cert.dominance_ok and cert.chain_equivalence_ok
    assert cert.first_counterexample == {
        "check": "claim 1 ratio a_0/a_1", "index": 5, "ratio": "1/6",
    }


def test_fault_in_claim2_sign_is_witnessed(monkeypatch):
    # a negative w_10 breaks the sign alternation, the ratios beside it and
    # the dominance of the lead term at n = 11; claim 1 is noted first
    monkeypatch.setattr(lemma_mod, "_w_terms", _w_with(10, lambda num, den: (-num, den)))
    cert = verify_fundamental_lemma(30)
    assert not cert.claim2_ok and not cert.claim1_ok and not cert.dominance_ok
    assert cert.first_counterexample == {
        "check": "claim 1 ratio", "index": 11, "m": "10", "ratio": "-5/102",
    }
    assert cert.claim1_worst_ratio == F(1, 6)
    # a zero w_10 is recorded as well, and nothing is raised: its ratio
    # w_9/w_10 is infinite, and the worst ratio reads only positive terms
    monkeypatch.setattr(lemma_mod, "_w_terms", _w_with(10, lambda num, den: (0, den)))
    cert = verify_fundamental_lemma(30)
    assert not cert.claim2_ok and not cert.claim1_ok and not cert.dominance_ok
    assert cert.first_counterexample == {
        "check": "claim 1 ratio", "index": 11, "m": "10", "ratio": "1/0",
    }
    assert cert.claim1_worst_ratio == F(1, 6)


def _g_with(index, change):
    """lemma's g(k) with g(index) replaced by change(num, den)."""
    original = lemma_mod._g_terms

    def patched(k, fk, fk1):
        terms = original(k, fk, fk1)
        return change(*terms) if k == index else terms

    return patched


def test_fault_in_f_monotone_is_witnessed(monkeypatch):
    # g(20) reported as its reciprocal: f(20) > f(21) is no longer shown
    monkeypatch.setattr(lemma_mod, "_g_terms", _g_with(20, lambda num, den: (den, num)))
    cert = verify_fundamental_lemma(30)
    assert not cert.chain_equivalence_ok
    assert cert.dominance_ok and cert.claim1_ok and cert.claim2_ok and cert.inequalities_ok
    assert cert.first_counterexample == {
        "check": "f strictly decreasing",
        "index": 21,
        "f_prev": "387420489/4359249202",
        "f_cur": "8135830269/113778087280",
    }


def test_g_equal_to_one_is_witnessed(monkeypatch):
    # g(7) = 1 exactly: f(7) = f(8) is not a strict decrease
    monkeypatch.setattr(lemma_mod, "_g_terms", _g_with(7, lambda _num, den: (den, den)))
    cert = verify_fundamental_lemma(30)
    assert not cert.chain_equivalence_ok and cert.dominance_ok and cert.inequalities_ok
    assert cert.first_counterexample == {
        "check": "f strictly decreasing", "index": 8,
        "f_prev": "1701/1936", "f_cur": "1458/1859",
    }


def test_verifier_memory_does_not_grow_with_n_max(traced_peak_mb):
    # one walk keeps only row n - 1: five held tables of n_max + 1 big
    # integers peaked near 2.2 MB at n_max = 1200.  The collect frees what
    # the import left behind (more when the bytecode is recompiled), so the
    # peak measures the walk alone
    peak = traced_peak_mb("import gc, ellipcert.lemma as lemma\n"
                          "gc.collect()\n"
                          "tracemalloc.reset_peak()\n"
                          "lemma.verify_fundamental_lemma(1200)")
    assert peak < 0.1, peak
