"""Command-line driver: certificates, coefficient tables, perimeter reports.

Exit codes: 0 success, 1 a verification failed, 2 bad arguments (including
domain and tolerance-floor violations).  Diagnostics go to stderr; results
go to stdout.  Exact rationals print as "numerator/denominator"; reals
print with 20 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module

# name -> the layer that defines it.  A command binds the names of the
# layers it uses just before it runs (`_load`), so `coeffs` never imports
# the numeric layers or mpmath; module `__getattr__` resolves any of them
# from outside.  A name already bound here -- rebound by a caller to wrap
# or replace it -- is left as it is, and is what the command calls.
_LAYER_NAMES = {
    **dict.fromkeys((
        "DELTA_E_EXPONENT", "THETA_LOWER", "_verdict_between", "containment_check",
        "delta_e_bounds", "error_report", "scaled_theta_upper", "theta_upper",
    ), "bounds"),
    **dict.fromkeys((
        "WORKING_DPS", "Ellipse", "QuadratureBudgetError", "_as_mpf", "_ctx", "_scaled",
        "eval_B", "ivory_integral", "lambda_from_eccentricity", "theta_of_lambda",
    ), "engine"),
    "verify_fundamental_lemma": "lemma",
    # the three *_coeffs_upto names are unused here but stay reachable:
    # bench/tracer.py rebinds them in this namespace
    **dict.fromkeys((
        "a_coeffs_upto", "b_coeffs_upto", "coeff_rows_str", "delta_coeffs_upto",
        "rational_str",
    ), "series_kernel"),
}


def _load(*layers: str) -> None:
    """Bind here every name of ``layers`` that is not bound yet."""
    names = globals()
    for name, layer in _LAYER_NAMES.items():
        if layer in layers and name not in names:
            names[name] = getattr(import_module(f".{layer}", __package__), name)


def __getattr__(name: str):
    layer = _LAYER_NAMES.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(layer)
    return globals()[name]


__all__ = ["cli_main", "main"]


def _fmt(v, digits: int = 20) -> str:
    ctx = _ctx(WORKING_DPS)
    return ctx.nstr(_as_mpf(v, ctx), digits)


def _enc_str(enc) -> str:
    return f"[{_fmt(enc.lo)}, {_fmt(enc.hi)}]  width {_fmt(enc.width, 6)}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipcert",
        description="Certified ellipse perimeters and error bounds for "
        "Ramanujan's approximation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser(
        "verify-lemma",
        help="exact coefficient inequality sweep, emits a JSON certificate",
    )
    v.add_argument("--max-n", type=int, required=True, help="sweep A_n vs B_n up to this n (>= 7)")
    v.add_argument("--json", metavar="PATH", default=None, help="also write the certificate to PATH")

    c = sub.add_parser("coeffs", help="exact table of A_n, B_n, delta_n")
    c.add_argument("--n", type=int, required=True, help="highest index to tabulate")
    c.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("perimeter", help="perimeter enclosure and error report for one ellipse")
    p.add_argument("--a", type=float, required=True, help="first semi-axis")
    p.add_argument("--b", type=float, required=True, help="second semi-axis")
    p.add_argument("--tol", type=float, default=None, help="perimeter enclosure width target")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")

    b = sub.add_parser("bounds", help="theta/delta bound constants, optional containment check")
    grp = b.add_mutually_exclusive_group()
    grp.add_argument("--e", type=float, default=None, help="eccentricity in [0, 1]")
    grp.add_argument("--lambda", dest="lam", type=float, default=None, help="shape parameter in [0, 1]")

    iv = sub.add_parser("ivory-check", help="quadrature vs series residual at one x")
    iv.add_argument("--x", type=float, required=True, help="series argument in [0, 1]")
    iv.add_argument("--tol", type=float, default=1e-12, help="quadrature tolerance")

    return parser


def _cmd_verify_lemma(args) -> int:
    _load("lemma")
    cert = verify_fundamental_lemma(args.max_n)
    text = cert.to_json()
    print(text)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # a path the user gave: bad argument, not a failed check
            print(f"error: cannot write the certificate: {exc}", file=sys.stderr)
            return 2
    if cert.all_ok():
        print(f"all checks passed up to n = {cert.n_max}", file=sys.stderr)
        return 0
    print(f"verification FAILED: {cert.first_counterexample}", file=sys.stderr)
    return 1


def _cmd_coeffs(args) -> int:
    n = args.n
    if n < 0:
        raise ValueError("--n must be >= 0")
    _load("series_kernel")
    rows = coeff_rows_str(n)
    out = sys.stdout  # rows are written as they come; the table is never held
    if args.format == "json":
        # the text json.dumps({"rows": [...]}, indent=2) gives, row by row
        sep = '{\n  "rows": [\n'
        for i, a, b, d in rows:
            row = json.dumps({"n": i, "A": a, "B": b, "delta": d}, indent=2)
            out.write(sep + "    " + row.replace("\n", "\n    "))
            sep = ",\n"
        out.write("\n  ]\n}\n")
    else:
        out.write("n,A,B,delta\n")
        for i, a, b, d in rows:
            out.write(f"{i},{a},{b},{d}\n")
    return 0


def _cmd_perimeter(args) -> int:
    _load("engine", "bounds")
    ell = Ellipse(args.a, args.b)
    report = error_report(ell, args.tol)
    verdicts = containment_check(report)
    if args.json:
        payload = report.to_json_dict()
        payload["containment"] = verdicts
        print(json.dumps(payload, indent=2))
    else:
        print(f"a = {_fmt(report.a)}   b = {_fmt(report.b)}")
        print(f"lambda = {_fmt(report.lam)}   eccentricity = {_fmt(report.ecc)}")
        print(f"p        in {_enc_str(report.p_enclosure)}")
        print(f"p_R      =  {_fmt(report.p_R)}")
        print(f"epsilon  in {_enc_str(report.epsilon_enclosure)}")
        print(f"lower bound = {_fmt(report.lower_bound)}   upper bound = {_fmt(report.upper_bound)}")
        print(f"theta    in {_enc_str(report.theta)}")
        print(f"delta_e  in {_enc_str(report.delta_e)}")
        print(f"ramanujan estimate = {_fmt(report.ramanujan_estimate)}")
        print(f"note: {report.bound_form_note}")
        print(f"containment: {verdicts}")
    if not verdicts["ok"]:
        print("containment check FAILED", file=sys.stderr)
        return 1
    if any(v == "inconclusive" for v in verdicts.values() if isinstance(v, str)):
        print("warning: containment inconclusive at this tolerance", file=sys.stderr)
    return 0


def _cmd_bounds(args) -> int:
    _load("series_kernel", "engine", "bounds")
    ctx = _ctx(WORKING_DPS)
    lam = args.lam
    if lam is None and args.e is not None:
        lam = lambda_from_eccentricity(args.e)
    if lam is not None:  # everything that can refuse the arguments runs before printing
        lam = _as_mpf(lam, ctx)
        if not 0 <= lam <= 1:
            raise ValueError("lambda must lie in [0, 1]")
    enc = theta_of_lambda(lam) if lam else None
    lo, up = THETA_LOWER, theta_upper()
    pi_up = scaled_theta_upper()
    de_lo, de_up = delta_e_bounds()
    identity_gap = abs(pi_up - ctx.pi * up)
    print(f"theta lower (exact)   = {rational_str(lo)} = {_fmt(lo)}")
    print(f"theta upper           = {_fmt(up)}   (4/pi - 14/11)")
    print(f"pi*theta upper        = {_fmt(pi_up)}   ((14/11)*(22/7 - pi))")
    print(f"identity gap          = {_fmt(identity_gap, 6)}")
    print(f"delta_e lower         = {_fmt(de_lo)}   (3*pi/2^36)")
    print(f"delta_e upper         = {_fmt(de_up)}   ((7/11)*(22/7 - pi)/2^18)")

    if lam is None:
        return 0
    if enc is None:
        print("lambda = 0: theta takes its limit value 3/2^17; nothing to check")
        return 0
    low_v, up_v = _verdict_between(enc, _as_mpf(lo, ctx), up, attained_upper=(lam == 1),
                                   margin=10.0)
    delta = _scaled(enc, ctx.pi / 2**DELTA_E_EXPONENT)
    print(f"theta({_fmt(lam, 8)}) in {_enc_str(enc)}")
    print(f"delta_e value in [{_fmt(delta.lo)}, {_fmt(delta.hi)}]")
    print(f"containment: lower {low_v}, upper {up_v}")
    if low_v == "fail" or up_v == "fail":
        print("containment check FAILED", file=sys.stderr)
        return 1
    if "inconclusive" in (low_v, up_v):
        print("warning: containment inconclusive at this tolerance", file=sys.stderr)
    return 0


def _cmd_ivory_check(args) -> int:
    _load("engine")
    x = args.x
    try:
        quad = ivory_integral(x, args.tol)
    except QuadratureBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    series_tol = max(args.tol, 5e-9 if x > 0.999 else 1e-12)
    enc = eval_B(x, series_tol)
    ctx = _ctx(WORKING_DPS)
    residual = ctx.mpf(quad) - enc.mid
    combined = ctx.mpf(args.tol) + ctx.mpf(enc.width) / 2
    print(f"quadrature = {quad!r}")
    print(f"series     in {_enc_str(enc)}")
    print(f"residual   = {_fmt(residual, 6)}   (combined tolerance {_fmt(combined, 6)})")
    if abs(residual) <= combined:
        return 0
    print("quadrature/series residual exceeds combined tolerance", file=sys.stderr)
    return 1


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify-lemma":
            return _cmd_verify_lemma(args)
        if args.command == "coeffs":
            return _cmd_coeffs(args)
        if args.command == "perimeter":
            return _cmd_perimeter(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "ivory-check":
            return _cmd_ivory_check(args)
        raise ValueError(f"unknown command {args.command!r}")
    except ValueError as exc:  # domain errors and tolerance floors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
