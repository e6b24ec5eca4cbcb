"""Reference values and output checks, computed apart from ellipcert.

Nothing here imports ellipcert.  Perimeters come from mpmath's complete
elliptic integral of the second kind, Ramanujan's value from its closed
form, and the coefficients from exact integer arithmetic.  Every check
raises CheckFailed with a one-line reason; a passing check returns None.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction

from mpmath import mp, mpf

THETA_LOWER = Fraction(3, 2**17)
F7 = "1701/1936"

# Digits that the CLI prints for reals: text reports use 20 significant
# digits, JSON reports 25.
TEXT_DIGITS = 20
JSON_DIGITS = 25


class CheckFailed(Exception):
    """An output disagrees with the independent reference."""


# -- references ---------------------------------------------------------------


def perimeter_ref(a, b, dps: int):
    """4 a E(m), m = 1 - (b/a)^2, with the modulus formed in mpf from the
    exact float inputs (a float-computed modulus loses the low digits)."""
    with mp.workdps(dps):
        big, small = mpf(a), mpf(b)
        if small > big:
            big, small = small, big
        return 4 * big * mp.ellipe(1 - (small / big) ** 2)


def ramanujan_ref(a, b, dps: int):
    """pi [ (a+b) + 3(a-b)^2 / (10(a+b) + sqrt(a^2 + 14ab + b^2)) ]."""
    with mp.workdps(dps):
        x, y = mpf(a), mpf(b)
        root = mp.sqrt(x * x + 14 * x * y + y * y)
        return mp.pi * ((x + y) + 3 * (x - y) ** 2 / (10 * (x + y) + root))


def theta_upper_ref(dps: int):
    with mp.workdps(dps):
        return 4 / mp.pi - mpf(14) / 11


def theta_ref(lam, dps: int):
    """theta(lam) = (p - p_R) / (pi (a+b) lam^10) on the ellipse a = 1+lam,
    b = 1-lam, whose shape parameter is lam exactly."""
    with mp.workdps(dps + 10):
        lm = mpf(lam)
        if lm == 1:
            return theta_upper_ref(dps)
        a, b = 1 + lm, 1 - lm
        eps = perimeter_ref(a, b, dps + 10) - ramanujan_ref(a, b, dps + 10)
        return eps / (2 * mp.pi * lm**10)


def lambda_from_e_ref(e, dps: int):
    with mp.workdps(dps):
        em = mpf(e)
        return em**2 / (1 + mp.sqrt(1 - em**2)) ** 2


def series_b_ref(x, dps: int):
    """B(x) = (1/pi) int_0^pi sqrt(1 + 2 sqrt(x) cos 2phi + x) dphi
    = 2 (1+r) E(4r/(1+r)^2) / pi with r = sqrt(x)."""
    with mp.workdps(dps):
        r = mp.sqrt(mpf(x))
        return 2 * (1 + r) * mp.ellipe(4 * r / (1 + r) ** 2) / mp.pi


def b_coeffs_ref(n_max: int) -> list[Fraction]:
    """B_n = (C(2n,n) / (4^n (2n-1)))^2, the binomial kept exact."""
    out = []
    c = 1  # C(2n, n)
    for n in range(n_max + 1):
        if n:
            c = c * (2 * n) * (2 * n - 1) // (n * n)
        out.append(Fraction(c * c, 16**n * (2 * n - 1) ** 2))
    return out


def a_coeff_ref(n: int) -> Fraction:
    """A_n from the explicit term sum A_n = sum_{m<n} a_m, with

        a_0 = (4/16) (-1/32)^(n-1),
        a_m = C(2m,m) 3^m / ((2m-1) 16^(m+1)) (-1/32)^(n-1-m).

    C(2m,m)/(2m-1) = 2 Cat(m-1), so every term is an integer over
    2^(5n-1) and the sum is taken in integers.
    """
    if n == 0:
        return Fraction(1)
    total = 4 * (-1) ** (n - 1)
    cat = 1  # Catalan number Cat(m-1)
    for m in range(1, n):
        if m > 1:
            cat = cat * 2 * (2 * m - 3) // m
        total += (-1) ** (n - 1 - m) * 2 ** (m + 1) * 3**m * cat
    return Fraction(total, 2 ** (5 * n - 1))


# -- helpers -------------------------------------------------------------------


def _ulp(text: str, digits: int | None):
    """One unit in the last printed digit of ``text`` (0 for exact values)."""
    if digits is None:
        return mpf(0)
    v = mpf(text)
    if v == 0:
        return mpf(0)
    return mpf(10) ** (int(mp.floor(mp.log10(abs(v)))) - digits + 1)


def _ref_dps(scale, width) -> int:
    """Working digits for a reference to sit well inside an enclosure."""
    if width <= 0 or scale == 0:
        return 80
    need = int(mp.ceil(mp.log10(abs(scale) / width)))
    return min(400, max(80, need + 30))


def require_inside(label: str, lo, hi, ref, slack=0) -> None:
    """lo - slack <= ref <= hi + slack, else CheckFailed."""
    if not lo - slack <= ref <= hi + slack:
        raise CheckFailed(
            f"{label}: reference {mp.nstr(ref, 25)} outside "
            f"[{mp.nstr(lo, 25)}, {mp.nstr(hi, 25)}]"
        )


def _interval(pair, digits):
    """(lo, hi) as text or mpf -> (lo, hi, slack for printing)."""
    lo, hi = pair
    if isinstance(lo, str):
        slack = max(_ulp(lo, digits), _ulp(hi, digits))
        return mpf(lo), mpf(hi), slack
    return lo, hi, mpf(0)


# -- perimeter reports -----------------------------------------------------------


def check_report(a, b, p, eps, theta, ok, digits=None) -> None:
    """Check one perimeter report for the ellipse with semi-axes a, b.

    ``p``, ``eps`` and ``theta`` are (lo, hi) pairs, either printed text
    with ``digits`` significant digits or exact mpf values (digits None).
    p must contain 4a E(m); epsilon must contain that minus p_R; theta
    must contain epsilon / (pi (a+b) lam^10), meet (3/2^17, 4/pi - 14/11],
    and contain 4/pi - 14/11 when b = 0; ``ok`` is containment's verdict.
    """
    with mp.workdps(60):
        p_lo, p_hi, p_slack = _interval(p, digits)
        e_lo, e_hi, e_slack = _interval(eps, digits)
        t_lo, t_hi, t_slack = _interval(theta, digits)
        widths = [w for w in (p_hi - p_lo, e_hi - e_lo) if w > 0]
        dps = _ref_dps(p_hi, min(widths)) if widths else 80
    with mp.workdps(dps):
        p_ref = perimeter_ref(a, b, dps)
        pr_ref = ramanujan_ref(a, b, dps)
        ref_err = abs(p_ref) * mpf(10) ** (10 - dps)
        require_inside("p", p_lo, p_hi, p_ref, p_slack + ref_err)
        require_inside("epsilon", e_lo, e_hi, p_ref - pr_ref, e_slack + 2 * ref_err)
        x, y = mpf(a), mpf(b)
        lam = abs(x - y) / (x + y)
        upper = theta_upper_ref(dps)
        if lam > 0:
            t_ref = (p_ref - pr_ref) / (mp.pi * (x + y) * lam**10)
            t_err = 2 * ref_err / (mp.pi * (x + y) * lam**10)
            require_inside("theta", t_lo, t_hi, t_ref, t_slack + t_err)
        lower = mpf(THETA_LOWER.numerator) / THETA_LOWER.denominator
        if lam == 0:
            require_inside("theta limit at lambda = 0", t_lo, t_hi, lower, t_slack)
        elif not (t_hi + t_slack > lower and t_lo - t_slack <= upper):
            raise CheckFailed("theta enclosure misses (3/2^17, 4/pi - 14/11]")
        if lam == 1:
            require_inside("theta at lambda = 1", t_lo, t_hi, upper, t_slack)
    if ok is not True:
        raise CheckFailed(f"containment.ok is {ok!r}")


def _text_interval(line: str) -> tuple[str, str]:
    inner = line[line.index("[") + 1 : line.index("]")]
    lo, hi = (s.strip() for s in inner.split(","))
    return lo, hi


def parse_perimeter_text(out: str) -> dict:
    fields = {}
    for line in out.splitlines():
        key = line.split(" ", 1)[0]
        if key in ("p", "epsilon", "theta") and " in [" in line:
            fields[key] = _text_interval(line)
        elif line.startswith("containment: "):
            fields["containment"] = ast.literal_eval(line[len("containment: "):])
    missing = {"p", "epsilon", "theta", "containment"} - fields.keys()
    if missing:
        raise CheckFailed(f"perimeter output lacks {sorted(missing)}")
    return fields


def check_perimeter_output(a, b, out: str, as_json: bool) -> None:
    if as_json:
        rep = json.loads(out)
        pick = lambda k: (rep[k]["lo"], rep[k]["hi"])  # noqa: E731
        check_report(a, b, pick("p_enclosure"), pick("epsilon_enclosure"),
                     pick("theta"), rep["containment"]["ok"], JSON_DIGITS)
    else:
        f = parse_perimeter_text(out)
        check_report(a, b, f["p"], f["epsilon"], f["theta"],
                     f["containment"]["ok"], TEXT_DIGITS)


# -- bounds ------------------------------------------------------------------------


def _value_after(out: str, prefix: str) -> str:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line.split("=", 1)[1].split()[0]
    raise CheckFailed(f"bounds output lacks {prefix.strip()!r}")


def check_bounds_output(out: str, lam=None, e=None) -> None:
    """Constants against their closed forms; theta(lam) against theta_ref."""
    dps = 60
    with mp.workdps(dps):
        lower_text = out.splitlines()[0].split("=")[1].strip()
        if lower_text != "3/131072":
            raise CheckFailed(f"theta lower printed as {lower_text}")
        consts = {
            "theta upper ": theta_upper_ref(dps),
            "pi*theta upper ": (mpf(14) / 11) * (mpf(22) / 7 - mp.pi),
            "delta_e lower ": 3 * mp.pi / 2**36,
            "delta_e upper ": (mpf(7) / 11) * (mpf(22) / 7 - mp.pi) / 2**18,
        }
        for prefix, ref in consts.items():
            text = _value_after(out, prefix)
            require_inside(prefix.strip(), mpf(text), mpf(text), ref, _ulp(text, TEXT_DIGITS))
        if lam is None and e is None:
            return
        lam_m = mpf(lam) if lam is not None else lambda_from_e_ref(e, dps + 20)
        line = next((s for s in out.splitlines() if s.startswith("theta(")), None)
        if line is None:
            raise CheckFailed("bounds output lacks theta(lambda)")
        lo, hi = _text_interval(line)
        slack = max(_ulp(lo, TEXT_DIGITS), _ulp(hi, TEXT_DIGITS))
        width = mpf(hi) - mpf(lo)
        t_dps = _ref_dps(mpf(hi), width) + int(-10 * mp.log10(lam_m))
        require_inside("theta(lambda)", mpf(lo), mpf(hi), theta_ref(lam_m, t_dps), slack)
        verdict = next(s for s in out.splitlines() if s.startswith("containment:"))
        if "fail" in verdict:
            raise CheckFailed(verdict)


# -- ivory-check -------------------------------------------------------------------


def check_ivory_output(x, out: str, quad_err: float = 1e-12) -> None:
    """The series enclosure contains B(x); the quadrature is within quad_err."""
    lines = out.splitlines()
    quad = mpf(lines[0].split("=", 1)[1].strip())
    lo, hi = _text_interval(lines[1])
    with mp.workdps(60):
        ref = series_b_ref(x, 60)
        require_inside("series B(x)", mpf(lo), mpf(hi), ref,
                       max(_ulp(lo, TEXT_DIGITS), _ulp(hi, TEXT_DIGITS)))
        if abs(quad - ref) > quad_err:
            raise CheckFailed(f"quadrature off by {mp.nstr(abs(quad - ref), 5)}")


# -- coefficient tables ---------------------------------------------------------


def _frac(text: str) -> tuple[int, int]:
    num, den = text.split("/")
    return int(num), int(den)


def parse_coeffs(out: str, as_json: bool) -> list[tuple[int, tuple, tuple, tuple]]:
    if as_json:
        rows = json.loads(out)["rows"]
        return [(r["n"], _frac(r["A"]), _frac(r["B"]), _frac(r["delta"])) for r in rows]
    lines = out.splitlines()
    if lines[0] != "n,A,B,delta":
        raise CheckFailed(f"unexpected coeffs header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        n, a, b, d = line.split(",")
        rows.append((int(n), _frac(a), _frac(b), _frac(d)))
    return rows


def check_coeffs_output(n_max: int, out: str, as_json: bool, a_rows) -> None:
    """Every row: B_n from the closed form, delta_n = B_n - A_n, delta_n = 0
    for n <= 4 and > 0 after.  Rows in ``a_rows``: A_n from the explicit sum."""
    rows = parse_coeffs(out, as_json)
    if [r[0] for r in rows] != list(range(n_max + 1)):
        raise CheckFailed(f"coeffs rows are not 0..{n_max}")
    b_ref = b_coeffs_ref(n_max)
    for n, (an, ad), (bn, bd), (dn, dd) in rows:
        if bn * b_ref[n].denominator != bd * b_ref[n].numerator:
            raise CheckFailed(f"B_{n} differs from the closed form")
        if dn * bd * ad != dd * (bn * ad - an * bd):
            raise CheckFailed(f"delta_{n} != B_{n} - A_{n}")
        if (dn == 0) != (n <= 4) or dn < 0 or dd <= 0:
            raise CheckFailed(f"delta_{n} = {dn}/{dd} has the wrong sign")
    for n in a_rows:
        an, ad = rows[n][1]
        if Fraction(an, ad) != a_coeff_ref(n):
            raise CheckFailed(f"A_{n} differs from the explicit term sum")


# -- lemma certificate ----------------------------------------------------------


def check_lemma_output(n_max: int, out: str) -> None:
    cert = json.loads(out)
    if cert.get("n_max") != n_max:
        raise CheckFailed(f"certificate n_max {cert.get('n_max')} != {n_max}")
    if cert.get("f7_value") != F7:
        raise CheckFailed(f"f7_value {cert.get('f7_value')} != {F7}")
    if cert.get("all_ok") is not True:
        raise CheckFailed("certificate all_ok is not true")


def sampled_rows(n_max: int, rng, dense: int = 40, extra: int = 8) -> list[int]:
    """Rows whose A_n the explicit sum re-derives: 0..dense, the last row,
    and ``extra`` rows drawn from ``rng``."""
    rows = set(range(min(n_max, dense) + 1)) | {n_max}
    if n_max > dense:
        rows |= {rng.randint(dense, n_max) for _ in range(extra)}
    return sorted(rows)
