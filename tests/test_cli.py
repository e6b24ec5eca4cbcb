"""CLI contract tests, run in-process through cli_main, plus
``python -m ellipcert`` and ``python -m ellipcert.cli`` runs in a subprocess."""

import contextlib
import json
import os
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
    rc, _out, err = run(["perimeter", "--a", "1", "--b", "0", "--tol", "1e-30"], capsys)
    assert rc == 2
    assert "floor" in err


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


def test_verify_lemma_failure_exits_one(capsys, monkeypatch):
    from ellipcert import b_coeff

    def corrupt_b(n):
        return F(0) if n == 9 else b_coeff(n)

    monkeypatch.setattr("ellipcert.lemma.b_coeff", corrupt_b)
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
