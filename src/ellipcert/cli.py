"""Command-line driver: certificates, coefficient tables, perimeter reports.

Exit codes: 0 success, 1 a verification failed, 2 bad arguments (including
domain violations and tolerances that are not positive and finite).
Diagnostics go to stderr; results
go to stdout.  Exact rationals print as "numerator/denominator"; reals
print with 20 significant digits.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

# name -> the layer that defines it.  A command binds the names of the
# layers its subparser declares just before it runs (`_load`), so `coeffs`
# never imports the numeric layers; module `__getattr__` resolves any of
# them from outside.  A name already bound here -- rebound by a caller to
# wrap or replace it -- is left as it is, and is what the command calls.
_LAYER_NAMES = {
    **dict.fromkeys((
        "THETA_LOWER", "_delta_e", "_theta_bounds", "_verdict_between",
        "containment_check", "delta_e_bounds", "error_report", "scaled_theta_upper",
        "theta_upper",
    ), "bounds"),
    **dict.fromkeys((
        "Ellipse", "Enclosure", "QuadratureBudgetError", "_exact_fraction", "_lambda_enclosure",
        "_point_str", "eval_B", "ivory_integral", "lambda_from_eccentricity",
        "theta_of_lambda",
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
    return _point_str(v, digits)  # from the exact value, rounded half up once


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
    v.set_defaults(run=_cmd_verify_lemma, layers=("lemma",))

    c = sub.add_parser("coeffs", help="exact table of A_n, B_n, delta_n")
    c.add_argument("--n", type=int, required=True, help="highest index to tabulate")
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.set_defaults(run=_cmd_coeffs, layers=("series_kernel",))

    p = sub.add_parser("perimeter", help="perimeter enclosure and error report for one ellipse")
    p.add_argument("--a", type=float, required=True, help="first semi-axis")
    p.add_argument("--b", type=float, required=True, help="second semi-axis")
    p.add_argument("--tol", type=float, default=None, help="perimeter enclosure width target")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(run=_cmd_perimeter, layers=("engine", "bounds"))

    b = sub.add_parser("bounds", help="theta/delta bound constants, optional containment check")
    grp = b.add_mutually_exclusive_group()
    grp.add_argument("--e", type=float, default=None, help="eccentricity in [0, 1]")
    grp.add_argument("--lambda", dest="lam", type=float, default=None, help="shape parameter in [0, 1]")
    b.set_defaults(run=_cmd_bounds, layers=("series_kernel", "engine", "bounds"))

    iv = sub.add_parser("ivory-check", help="quadrature vs series residual at one x")
    iv.add_argument("--x", type=float, required=True, help="series argument in [0, 1]")
    iv.add_argument("--tol", type=float, default=1e-12, help="quadrature tolerance")
    iv.set_defaults(run=_cmd_ivory_check, layers=("engine",))

    return parser


def _cmd_verify_lemma(args) -> int:
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
    rows = coeff_rows_str(n)
    out = sys.stdout  # rows are written as they come; the table is never held
    if args.format == "json":
        # the text json.dumps({"rows": [...]}, indent=2) gives, row by row;
        # the cells hold only digits and "/", so no character needs escaping
        sep = '{\n  "rows": [\n'
        for i, a, b, d in rows:
            out.write(f'{sep}    {{\n      "n": {i},\n      "A": "{a}",\n'
                      f'      "B": "{b}",\n      "delta": "{d}"\n    }}')
            sep = ",\n"
        out.write("\n  ]\n}\n")
    else:
        out.write("n,A,B,delta\n")
        for i, a, b, d in rows:
            out.write(f"{i},{a},{b},{d}\n")
    return 0


def _cmd_perimeter(args) -> int:
    ell = Ellipse(args.a, args.b)
    report = error_report(ell, args.tol)
    verdicts = containment_check(report)
    if args.json:
        import json  # here, so that the text report never loads it

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
    return _containment_exit(verdicts.values())


def _containment_exit(verdicts) -> int:
    """The exit code of a containment check: 1 on a ``fail`` verdict, else
    0, with a warning on stderr for an ``inconclusive`` one."""
    if "fail" in verdicts:
        print("containment check FAILED", file=sys.stderr)
        return 1
    if "inconclusive" in verdicts:
        print("warning: containment inconclusive at this tolerance", file=sys.stderr)
    return 0


def _theta_at(lam):
    """The hull of theta at the two ends of an outward enclosure of lam:
    theta increases on (0, 1]."""
    low = theta_of_lambda(lam.lo)
    high = low if lam.hi == lam.lo else theta_of_lambda(lam.hi)
    return Enclosure(low.lo, high.hi, high.regime)


def _cmd_bounds(args) -> int:
    lam = args.lam  # everything that can refuse the arguments runs before printing
    if args.e is not None:  # lam is the label; theta comes from lam's enclosure
        lam, lam_enc = lambda_from_eccentricity(args.e), _lambda_enclosure(args.e)
    elif lam is not None:
        if not 0 <= lam <= 1:
            raise ValueError("lambda must lie in [0, 1]")
        lam_enc = Enclosure(lam, lam)
    enc = _theta_at(lam_enc) if lam else None
    lo, up = THETA_LOWER, theta_upper()
    pi_up = scaled_theta_upper()
    de_lo, de_up = delta_e_bounds()
    print(f"theta lower (exact)   = {rational_str(lo)} = {_fmt(lo)}")
    print(f"theta upper           = {_fmt(up)}   (4/pi - 14/11)")
    print(f"pi*theta upper        = {_fmt(pi_up)}   ((14/11)*(22/7 - pi))")
    print("identity gap          = 0   (exact: both equal 4 - 14*pi/11)")
    print(f"delta_e lower         = {_fmt(de_lo)}   (3*pi/2^36)")
    print(f"delta_e upper         = {_fmt(de_up)}   ((7/11)*(22/7 - pi)/2^18)")

    if lam is None:
        return 0
    if enc is None:
        print("lambda = 0: theta takes its limit value 3/2^17; nothing to check")
        return 0
    low_v, up_v = _verdict_between(enc, *_theta_bounds(enc), attained=lam == 1)
    delta = _delta_e(enc)
    print(f"theta({_fmt(lam, 8)}) in {_enc_str(enc)}")
    print(f"delta_e value in [{_fmt(delta.lo)}, {_fmt(delta.hi)}]")
    print(f"containment: lower {low_v}, upper {up_v}")
    return _containment_exit((low_v, up_v))


def _cmd_ivory_check(args) -> int:
    x = args.x
    try:
        quad = ivory_integral(x, args.tol)
    except QuadratureBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    series_tol = max(args.tol, 5e-9 if x > 0.999 else 1e-12)
    enc = eval_B(x, series_tol)
    residual = _exact_fraction(quad) - enc.mid  # exact, as is the tolerance
    combined = _exact_fraction(args.tol) + enc.width / 2
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
    _load(*args.layers)
    try:
        return args.run(args)
    except ValueError as exc:  # domain errors and refused tolerances
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    import signal  # here, so that in-process callers of cli_main never load it

    if hasattr(signal, "SIGPIPE"):  # a closed reader (`| head`) ends the process quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
