"""The benchmark's output checks accept real outputs and reject wrong ones.

Each wrong output is a real one with one value moved, for example an
enclosure shifted by twice its width.  Run with
``PYTHONPATH=src python3 -m pytest bench/test_checks.py``.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

import checks
from checks import CheckFailed

ellipcert = pytest.importorskip("ellipcert")
from ellipcert.cli import cli_main  # noqa: E402


def _cli(capsys, *args: str) -> str:
    assert cli_main(list(args)) == 0
    return capsys.readouterr().out


def _shift_interval(text: str, prefix: str, by_widths: float = 2.0) -> str:
    """Move the [lo, hi] on the line starting with ``prefix``."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            lo, hi = checks._text_interval(line)
            with mp.workdps(60):
                w = mpf(hi) - mpf(lo)
                new = f"[{mp.nstr(mpf(lo) + by_widths * w, 30)}, {mp.nstr(mpf(hi) + by_widths * w, 30)}]"
            lines[i] = line[: line.index("[")] + new + line[line.index("]") + 1 :]
            return "\n".join(lines)
    raise AssertionError(f"no line starts with {prefix!r}")


def test_explicit_sum_and_closed_form_match_known_coefficients():
    assert checks.a_coeff_ref(5) == Fraction(95, 131072)
    assert checks.a_coeff_ref(6) == Fraction(803, 2097152)
    assert checks.a_coeff_ref(4) == Fraction(25, 16384)
    b = checks.b_coeffs_ref(6)
    assert b[5] == Fraction(49, 65536) and b[6] == Fraction(441, 1048576)


@pytest.mark.parametrize("prefix", ["p ", "epsilon ", "theta "])
def test_perimeter_text_shifted_enclosure_rejected(capsys, prefix):
    out = _cli(capsys, "perimeter", "--a", "3", "--b", "0.7")
    checks.check_perimeter_output(3.0, 0.7, out, as_json=False)
    with pytest.raises(CheckFailed):
        checks.check_perimeter_output(3.0, 0.7, _shift_interval(out, prefix), as_json=False)


def test_perimeter_json_shifted_epsilon_and_failed_containment_rejected(capsys):
    out = _cli(capsys, "perimeter", "--a", "0.25", "--b", "1.5", "--json")
    checks.check_perimeter_output(0.25, 1.5, out, as_json=True)
    rep = json.loads(out)
    with mp.workdps(60):
        lo, hi = mpf(rep["epsilon_enclosure"]["lo"]), mpf(rep["epsilon_enclosure"]["hi"])
        w = hi - lo
        moved = dict(rep, epsilon_enclosure={"lo": mp.nstr(lo - 2 * w, 30),
                                             "hi": mp.nstr(hi - 2 * w, 30)})
    with pytest.raises(CheckFailed):
        checks.check_perimeter_output(0.25, 1.5, json.dumps(moved), as_json=True)
    failed = dict(rep, containment=dict(rep["containment"], ok=False))
    with pytest.raises(CheckFailed):
        checks.check_perimeter_output(0.25, 1.5, json.dumps(failed), as_json=True)


def test_exact_report_values_shifted_theta_rejected():
    report = ellipcert.error_report(ellipcert.Ellipse(5.0, 0.3))
    pair = lambda e: [e.lo, e.hi]  # noqa: E731
    args = (pair(report.p_enclosure), pair(report.epsilon_enclosure))
    checks.check_report(5.0, 0.3, *args, pair(report.theta), True)
    with mp.workdps(60):
        w = report.theta.hi - report.theta.lo
        moved = [report.theta.lo + 2 * w, report.theta.hi + 2 * w]
    with pytest.raises(CheckFailed):
        checks.check_report(5.0, 0.3, *args, moved, True)


def test_degenerate_theta_must_contain_the_upper_constant():
    with mp.workdps(60):
        p = checks.perimeter_ref(1, 0, 60)
        eps = p - checks.ramanujan_ref(1, 0, 60)
        top = checks.theta_upper_ref(60)
        w = mpf("1e-9")
        good = [top - w, top + w]
        args = ([p - w, p + w], [eps - w, eps + w])
        checks.check_report(1.0, 0.0, *args, good, True)
        with pytest.raises(CheckFailed):
            checks.check_report(1.0, 0.0, *args, [top - 3 * w, top - w], True)


def test_bounds_shifted_theta_and_wrong_constant_rejected(capsys):
    out = _cli(capsys, "bounds", "--lambda", "0.5")
    checks.check_bounds_output(out, lam=0.5)
    with pytest.raises(CheckFailed):
        checks.check_bounds_output(_shift_interval(out, "theta("), lam=0.5)
    wrong = re.sub(r"(theta upper\s+= 0\.000512272)(\d)", lambda m: m.group(1) + "9", out)
    assert wrong != out
    with pytest.raises(CheckFailed):
        checks.check_bounds_output(wrong)


def test_bounds_from_eccentricity(capsys):
    out = _cli(capsys, "bounds", "--e", "0.8")
    checks.check_bounds_output(out, e=0.8)
    with pytest.raises(CheckFailed):
        checks.check_bounds_output(out, e=0.81)


def test_ivory_shifted_series_rejected(capsys):
    out = _cli(capsys, "ivory-check", "--x", "0.7")
    checks.check_ivory_output(0.7, out)
    with pytest.raises(CheckFailed):
        checks.check_ivory_output(0.7, _shift_interval(out, "series"))


def _rows(out: str) -> list[list[str]]:
    return [line.split(",") for line in out.splitlines()[1:]]


def _table(rows) -> str:
    return "n,A,B,delta\n" + "\n".join(",".join(r) for r in rows) + "\n"


def test_coeffs_wrong_a_b_or_delta_rejected(capsys):
    out = _cli(capsys, "coeffs", "--n", "60")
    checks.check_coeffs_output(60, out, False, list(range(61)))
    json_out = _cli(capsys, "coeffs", "--n", "12", "--format", "json")
    checks.check_coeffs_output(12, json_out, True, list(range(13)))

    rows = _rows(out)
    a = Fraction(rows[30][1]) + Fraction(1, 2**200)  # A_30 moved, delta kept consistent
    b = Fraction(rows[30][2])
    wrong_a = [r[:] for r in rows]
    wrong_a[30][1] = f"{a.numerator}/{a.denominator}"
    d = b - a
    wrong_a[30][3] = f"{d.numerator}/{d.denominator}"
    with pytest.raises(CheckFailed, match="A_30"):
        checks.check_coeffs_output(60, _table(wrong_a), False, [30])

    wrong_b = [r[:] for r in rows]
    wrong_b[7][2] = "1/3"
    with pytest.raises(CheckFailed, match="B_7"):
        checks.check_coeffs_output(60, _table(wrong_b), False, [])

    wrong_d = [r[:] for r in rows]
    wrong_d[3][3] = "1/7"
    with pytest.raises(CheckFailed):
        checks.check_coeffs_output(60, _table(wrong_d), False, [])

    with pytest.raises(CheckFailed):
        checks.check_coeffs_output(60, _table(rows[:-1]), False, [])


def test_lemma_certificate_fields_checked(capsys):
    out = _cli(capsys, "verify-lemma", "--max-n", "20")
    checks.check_lemma_output(20, out)
    cert = json.loads(out)
    for bad in ({"f7_value": "1701/1937"}, {"all_ok": False}, {"n_max": 21}):
        with pytest.raises(CheckFailed):
            checks.check_lemma_output(20, json.dumps(dict(cert, **bad)))


def test_sampled_rows_cover_the_dense_prefix_and_the_end():
    rows = checks.sampled_rows(3000, random.Random(0))
    assert rows[:41] == list(range(41)) and rows[-1] == 3000 and len(rows) <= 50


def test_benchmark_json_matches_the_driver():
    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    # report-warm and cold-degenerate run by hand only; run.py says why
    gated = set(run.WORKLOADS) - {"report-warm", "cold-degenerate"}
    assert {w["name"] for w in spec["workloads"]} == gated
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
