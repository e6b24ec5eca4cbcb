"""CLI contract tests, run in-process through cli_main, plus
``python -m ellipcert`` and ``python -m ellipcert.cli`` runs in a subprocess."""

import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from mpmath import mp

import ellipcert
from ellipcert.cli import cli_main
from ellipcert.series_kernel import (
    a_coeffs_upto,
    b_coeff,
    b_coeffs_upto,
    delta_coeffs_upto,
    rational_str,
)

CERT_KEYS = {
    "n_max": int,
    "equalities_ok": bool,
    "inequalities_ok": bool,
    "f7_value": str,
    "f_monotone_range": list,
    "g_min_location": str,
    "g_min_value": str,
    "claim1_worst_ratio": str,
    "claim2_ok": bool,
    "paper_typos_noted": list,
}


def run(args, capsys):
    rc = cli_main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_verify_lemma_emits_valid_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    rc, out, err = run(["verify-lemma", "--max-n", "40", "--json", str(path)], capsys)
    assert rc == 0
    doc = json.loads(out)
    for key, typ in CERT_KEYS.items():
        assert key in doc, key
        assert isinstance(doc[key], typ), key
    assert doc["n_max"] == 40
    assert doc["inequalities_ok"] is True
    assert doc["f7_value"] == "1701/1936"
    assert json.loads(path.read_text()) == doc
    assert "passed" in err


def test_verify_lemma_below_range_is_bad_argument(capsys):
    rc, _out, err = run(["verify-lemma", "--max-n", "6"], capsys)
    assert rc == 2
    assert "error" in err


def test_coeffs_csv_table(capsys):
    rc, out, _err = run(["coeffs", "--n", "6"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,A,B,delta"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 7
    n6 = rows[6]
    assert F(n6[1]) == F(803, 2**21)
    assert F(n6[2]) == F(882, 2**21)
    assert F(n6[3]) == F(79, 2**21)
    # exact strings are always "numerator/denominator"
    assert all("/" in cell for row in rows for cell in row[1:])


def test_coeffs_json_format(capsys):
    rc, out, _err = run(["coeffs", "--n", "5", "--format", "json"], capsys)
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert rows[5] == {"n": 5, "A": "95/131072", "B": "49/65536", "delta": "3/131072"}


def test_perimeter_circle_text(capsys):
    rc, out, _err = run(["perimeter", "--a", "1", "--b", "1"], capsys)
    assert rc == 0
    assert "6.283185307179586" in out
    assert "containment" in out


def test_perimeter_json(capsys):
    rc, out, _err = run(["perimeter", "--a", "2", "--b", "1", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert float(doc["p_enclosure"]["lo"]) <= float(doc["p_enclosure"]["hi"])
    assert doc["containment"]["ok"] is True
    assert float(doc["p_R"]) < float(doc["p_enclosure"]["lo"])


def test_perimeter_degenerate_default_tolerance(capsys):
    rc, out, _err = run(["perimeter", "--a", "1", "--b", "0", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert abs(float(doc["p_enclosure"]["lo"]) - 4) < 1e-5


def test_perimeter_tolerance_floor_is_bad_argument(capsys):
    # the AGM route has no term budget: a tiny explicit tolerance certifies
    rc, out, _err = run(["perimeter", "--a", "1", "--b", "0", "--tol", "1e-30", "--json"], capsys)
    assert rc == 0
    p = json.loads(out)["p_enclosure"]
    lo, hi = F(p["lo"]), F(p["hi"])
    assert lo <= 4 <= hi
    assert hi - lo <= F(1, 10**30)


def test_bounds_constants_only(capsys):
    rc, out, _err = run(["bounds"], capsys)
    assert rc == 0
    assert "3/131072" in out
    assert "0.00051227200788995887834" in out
    assert "0.0016093499766267874112" in out


def test_bounds_with_lambda(capsys):
    rc, out, _err = run(["bounds", "--lambda", "0.5"], capsys)
    assert rc == 0
    assert "lower pass, upper pass" in out


def test_bounds_with_eccentricity_endpoint(capsys):
    rc, out, _err = run(["bounds", "--e", "1"], capsys)
    assert rc == 0
    assert "containment" in out


def test_bounds_domain_error(capsys):
    # refused before anything is printed: no partial result on stdout
    for args in (["--lambda", "1.5"], ["--lambda", "nan"], ["--e", "2"]):
        rc, out, err = run(["bounds", *args], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "must lie in [0, 1]" in err


@pytest.mark.parametrize("args", [["--lambda", "1e-35"], ["--e", "1e-17"]])
def test_bounds_tiny_shape_is_certified(capsys, args):
    # theta's gap above 3/2^17 (~ 4e-5 lam^2, about 4e-75) lies far below
    # the 50-digit working precision but far above the enclosure's width
    # (~ 3e-144); the verdicts are exact comparisons, so the lower side passes
    rc, out, err = run(["bounds", *args], capsys)
    assert rc == 0
    assert "theta(" in out
    assert "containment: lower pass, upper pass" in out
    assert err == ""


def test_bounds_mutually_exclusive(capsys):
    rc, _out, _err = run(["bounds", "--e", "0.5", "--lambda", "0.5"], capsys)
    assert rc == 2


def test_ivory_check(capsys):
    rc, out, _err = run(["ivory-check", "--x", "0.7"], capsys)
    assert rc == 0
    assert "residual" in out


def test_ivory_check_at_one(capsys):
    rc, _out, _err = run(["ivory-check", "--x", "1"], capsys)
    assert rc == 0


@pytest.mark.parametrize("args, code, out_end, err", [
    (["bounds", "--lambda", "0"], 0,
     "lambda = 0: theta takes its limit value 3/2^17; nothing to check\n", ""),
    (["coeffs", "--n", "-1"], 2, "", "error: --n must be >= 0\n"),
    (["ivory-check", "--x", "0.9", "--tol", "1e-300"], 1, "",
     "error: did not reach tol=1e-300 within 4096 panels at x=0.9\n"),
])
def test_edge_arguments_exit_as_documented(capsys, args, code, out_end, err):
    rc, out, got_err = run(args, capsys)
    assert rc == code and out.endswith(out_end) and got_err == err
    assert bool(out) == (code == 0)


def test_verify_lemma_failure_exits_one(capsys, monkeypatch):
    from ellipcert.lemma import _b_terms

    def corrupt_b(n, central):
        return (0, 1, 0) if n == 9 else _b_terms(n, central)

    monkeypatch.setattr("ellipcert.lemma._b_terms", corrupt_b)
    rc, out, err = run(["verify-lemma", "--max-n", "12"], capsys)
    assert rc == 1
    assert "FAILED" in err
    doc = json.loads(out)
    assert doc["all_ok"] is False
    assert doc["first_counterexample"]["index"] == 9


def test_ivory_check_failure_exits_one(capsys, monkeypatch):
    import ellipcert.cli as cli_mod

    monkeypatch.setattr(cli_mod, "ivory_integral", lambda x, tol: 99.0)
    rc, _out, err = run(["ivory-check", "--x", "0.5"], capsys)
    assert rc == 1
    assert "residual" in err


@pytest.mark.parametrize("args", [
    ["perimeter", "--a", "1", "--b", "1e-60"],
    ["bounds", "--lambda", "0.9999999999999999"],
])
def test_inconclusive_containment_warns_and_exits_zero(capsys, args):
    rc, _out, err = run(args, capsys)
    assert (rc, err) == (0, "warning: containment inconclusive at this tolerance\n")


def test_near_degenerate_containment_is_decided(capsys):
    # theta's enclosure ends about 1e-15 below 4/pi - 14/11 here, so each
    # side is decided and nothing is printed to stderr
    rc, out, err = run(["perimeter", "--a", "1", "--b", "1e-13", "--json"], capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out)["containment"] == {
        "epsilon_lower": "pass", "epsilon_upper": "pass",
        "theta_lower": "pass", "theta_upper": "pass", "ok": True}


def test_perimeter_failed_containment_exits_one(capsys, monkeypatch):
    import ellipcert.cli as cli_mod

    real = cli_mod.error_report
    monkeypatch.setattr(
        cli_mod, "error_report",
        lambda *args: real(*args)._replace(theta=ellipcert.Enclosure(1, 2)))
    rc, out, err = run(["perimeter", "--a", "2", "--b", "1"], capsys)
    assert (rc, err) == (1, "containment check FAILED\n")
    assert "'theta_upper': 'fail'" in out


def test_bounds_failed_containment_exits_one(capsys, monkeypatch):
    # theta shifted above 4/pi - 14/11 ~ 5.1e-4; its ends stay Dyadic, as
    # delta_e reads their raw values
    import ellipcert.cli as cli_mod
    from ellipcert._dyadic import Dyadic

    real, shift = cli_mod.theta_of_lambda, F(1, 2**10)

    def shifted(lam, *rest):
        enc = real(lam, *rest)
        return ellipcert.Enclosure(Dyadic(enc.lo + shift), Dyadic(enc.hi + shift), enc.regime)

    monkeypatch.setattr(cli_mod, "theta_of_lambda", shifted)
    rc, out, err = run(["bounds", "--lambda", "0.5"], capsys)
    assert (rc, err) == (1, "containment check FAILED\n")
    assert "containment: lower pass, upper fail" in out


def test_malformed_flags(capsys):
    assert run(["perimeter", "--a", "1"], capsys)[0] == 2  # missing --b
    assert run(["coeffs", "--n", "abc"], capsys)[0] == 2  # bad int
    assert run(["no-such-command"], capsys)[0] == 2
    assert run([], capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert run(["--help"], capsys)[0] == 0


def test_python_m_ellipcert_runs_the_cli_once():
    src = str(Path(ellipcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ellipcert", "coeffs", "--n", "3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,A,B,delta\n")
    assert proc.stdout.count("n,A,B,delta") == 1
    assert proc.stderr == ""


def test_python_m_ellipcert_cli_runs_the_module_once():
    # the package no longer imports cli, so runpy has nothing to warn about
    src = str(Path(ellipcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ellipcert.cli",
         "coeffs", "--n", "3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("n,A,B,delta\n0,1/1,1/1,0/1\n1,1/4,1/4,0/1\n"
                           "2,1/64,1/64,0/1\n3,1/256,1/256,0/1\n")
    assert proc.stderr == ""



@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_reader_ends_the_process_quietly():
    # `ellipcert ... | head -1`: the reader leaves after one line.  The table
    # is far larger than a pipe buffer, so the writer is still writing and
    # meets the closed pipe; it ends by SIGPIPE, as a filter does, with no
    # traceback and no exit 1 (the code for a failed verification)
    src = str(Path(ellipcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ellipcert", "coeffs", "--n", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.readline() == b"n,A,B,delta\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


ORACLE_N = 1200


@pytest.fixture(scope="module")
def oracle_rows():
    """coeffs rows formatted from the Fraction views by rational_str."""
    a, b, d = a_coeffs_upto(ORACLE_N), b_coeffs_upto(ORACLE_N), delta_coeffs_upto(ORACLE_N)
    return [(i, rational_str(a[i]), rational_str(b[i]), rational_str(d[i]))
            for i in range(ORACLE_N + 1)]


def _oracle_text(rows, fmt):
    if fmt == "json":
        table = [{"n": i, "A": a, "B": b, "delta": d} for i, a, b, d in rows]
        return json.dumps({"rows": table}, indent=2) + "\n"
    return "n,A,B,delta\n" + "".join(f"{i},{a},{b},{d}\n" for i, a, b, d in rows)


@pytest.mark.parametrize("capped", [False, True])
def test_coeffs_output_matches_the_fraction_oracle(capsys, int_digit_cap, oracle_rows, capped):
    with int_digit_cap() if capped else contextlib.nullcontext():
        outputs = {fmt: run(["coeffs", "--n", str(ORACLE_N), "--format", fmt], capsys)
                   for fmt in ("csv", "json")}
    for fmt, (rc, out, err) in outputs.items():
        assert rc == 0 and err == ""
        assert out == _oracle_text(oracle_rows, fmt), fmt
    for i, _a, b, _d in oracle_rows:
        assert F(b) == b_coeff(i), i


def test_coeffs_table_unaffected_by_the_int_digit_limit(capsys, int_digit_cap):
    # denominators near n = 600 have about 722 digits, past the smallest
    # cap Python allows on str(int)
    reference = run(["coeffs", "--n", "600"], capsys)
    with int_digit_cap():
        capped = run(["coeffs", "--n", "600"], capsys)
    assert capped == reference
    rc, out, err = capped
    assert rc == 0 and err == ""
    assert len(out.splitlines()) == 602


class _Sha256Writer:
    """A text stream that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


# SHA-256 of the `coeffs --n N [--format json]` stdout: how the table is
# computed and written may change, the bytes may not
GOLDEN_COEFFS_SHA256 = {
    (0, "csv"): "9557a961a715cdcd2a5e64a418b90844554fe3f5a873ddc36a77c5db0987cd38",
    (0, "json"): "d17cdbdf2008a078ae5cf8b1f03d75579bf1157a57222caad6b34a2949cfb0e9",
    (7, "csv"): "beb36a8a556ff3b4ea8eda53f18d945e4b759ab2d739273492ab0682721c8809",
    (7, "json"): "31505d8a138581f351d3ca449ab521199ebac0c1fea03b31d2ccbccea0a74d2b",
    (1200, "csv"): "5e72a8f45cb8943c6c54b731eee02fec5f2501439c4a1d317483be738854848d",
    (1200, "json"): "abeeee54e0b121afb1ea673d388c8b58381bb62e3b85c9866b1d06f35ed4deba",
    (3000, "csv"): "caed786f2ad2a52208147585e959ee5f2dbbca2003035a95a5cab4b408f0b9ed",
    (3000, "json"): "6aad7715ce1878889c9c1b74d52bc4c380672e2700b6eb247f35bdfd5422fa2b",
}


@pytest.mark.parametrize("n, fmt", sorted(GOLDEN_COEFFS_SHA256))
def test_coeffs_output_matches_golden_digest(monkeypatch, n, fmt):
    sink = _Sha256Writer()
    monkeypatch.setattr(sys, "stdout", sink)  # a 3000-row table is about 32 MB
    assert cli_main(["coeffs", "--n", str(n), "--format", fmt]) == 0
    assert sink.digest.hexdigest() == GOLDEN_COEFFS_SHA256[n, fmt]


# SHA-256 of the stdout of numeric commands: the arithmetic behind a report
# may change, its bytes may not
GOLDEN_REPORT_SHA256 = {
    "perimeter --a 2 --b 1": "be828a8cbd494e3cb5ad04461c6f0a1838874441337b90d050a95511452798c0",
    "perimeter --a 2 --b 1 --json":
        "d87bdb2be0787f75eb8ac884d3fa19e330483cfb0302e54ebfb99a2bde60a0ae",
    "bounds --lambda 0.5": "23ac2cad9600e53fb930d9470f1a000fe1a3c7ebda26a8ce9dd913cdfe8d0f8b",
    "bounds --e 0.5": "a5ba64b3bd613bd2a4e0bc6b3c79064902ed7e75d2a62690cc05e0fe8f8f5898",
    "ivory-check --x 0.9": "0cb5894c80d95c2729603f8953a74a74f054bdd3f636fe7faa4ea782ef8faa41",
    "ivory-check --x 1": "52efab7d2e716ce411117816d008b8443707b0fed73b171c26bc0b5931d95308",
    "bounds --lambda 1": "26ae460a02fdab99bd4e3dfdc2dc1a6ebd5cebcc11c3ea1d371f554056c304c1",
    "bounds --lambda 1e-5": "d15960b0dcbfe7cf7bbfbef3f96c97a8e0efb3219a8087b096136eb44bfa93e4",
    "perimeter --a 1 --b 0 --json":
        "75e755da8ba60f9327a6765fdecdda46df525d27dc488beaa7cc52c7c29b7ed3",
    "perimeter --a 3 --b 2.9999999999 --json":
        "6f220eb0d592f6409cf18c3e7b4eda5c7177a535d075bec966b556fba6bee4cf",
    "perimeter --a 1e-300 --b 3e-301":
        "74395ec01d60b7c62ca11a4d9e9bc4535e564c0450c2622b2fca966bed6d41a0",
    # theta's width here is printed from a value below 2^-4300
    "bounds --lambda 5e-324": "4a2865eeea0251b3ccf90af7fc454410be0897f7ac471e6cc525e95927232d5b",
    "bounds --e 5e-324": "b863852561498b72bf38f52649a6bcaa5af503a16be9666c48a836ae9755e60d",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_REPORT_SHA256))
def test_report_output_matches_golden_digest(capsys, command):
    rc, out, err = run(command.split(), capsys)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPORT_SHA256[command]


def test_bounds_e_certifies_theta_at_lambda_itself(monkeypatch, capsys):
    # theta is enclosed at both ends of an outward enclosure of lam(e), not
    # at lam(e) rounded to the working precision
    import ellipcert.cli as cli_mod

    real = cli_mod.theta_of_lambda
    args = []

    def spy(lam, *rest):
        args.append(lam)
        return real(lam, *rest)

    monkeypatch.setattr(cli_mod, "theta_of_lambda", spy)
    rc, out, _err = run(["bounds", "--e", "0.5"], capsys)
    assert rc == 0 and "theta(0.07179677)" in out
    with mp.workdps(200):
        e = mp.mpf(0.5)
        lam = e**2 / (1 + mp.sqrt((1 - e) * (1 + e))) ** 2
        assert min(args) < lam < max(args)
        assert max(args) - min(args) < mp.mpf(2) ** -160


def test_cli_output_independent_of_ambient_precision(capsys):
    # the package owns its precision, so a hostile global one changes nothing
    commands = (
        ["perimeter", "--a", "2", "--b", "1", "--json"],
        ["bounds", "--lambda", "0.5"],
        ["ivory-check", "--x", "0.7"],
    )

    def outputs():
        return [run(argv, capsys) for argv in commands]

    baseline = outputs()
    assert all(rc == 0 for rc, _out, _err in baseline)
    with mp.workdps(4):
        low = outputs()
    with mp.workdps(120):
        high = outputs()
    assert baseline == low == high


@pytest.mark.parametrize("args", [
    ["perimeter", "--a", "2", "--b", "1", "--tol", "nan"],
    ["ivory-check", "--x", "0.5", "--tol", "nan"],
])
def test_nan_tolerance_is_bad_argument(capsys, args):
    rc, out, err = run(args, capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: tol must be positive\n"


@pytest.mark.parametrize("args", [
    ["perimeter", "--a", "2", "--b", "1", "--tol", "inf"],
    ["ivory-check", "--x", "0.5", "--tol", "inf"],
])
def test_infinite_tolerance_is_bad_argument(capsys, args):
    # an infinite tolerance made ivory-check a check that could not fail
    rc, out, err = run(args, capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: tol must be finite\n"


def test_verify_lemma_unwritable_json_path_is_bad_argument(tmp_path):
    # a failed write is a bad argument (exit 2), not a failed verification
    target = tmp_path / "missing-dir" / "cert.json"
    src = str(Path(ellipcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ellipcert", "verify-lemma", "--max-n", "7", "--json", str(target)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["all_ok"] is True
    assert proc.stderr.startswith("error: ")
    assert str(target) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not target.exists()
