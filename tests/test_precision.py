"""Precision is owned by the package: callers that share the process see
neither their own precision changed nor each other's results disturbed."""

import ast
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from threading import Barrier

import pytest
from mpmath import mp

import ellipcert
from ellipcert import Ellipse, error_report, perimeter, theta_of_lambda

SRC = Path(ellipcert.__file__).resolve().parent

ELLIPSES = [(2.0, 1.0), (1.0, 0.3), (5.0, 4.99), (3.0, 3.0)]
LAMBDAS = [0.1, 0.5, 0.9]


def _results():
    encs = []
    for a, b in ELLIPSES:
        ell = Ellipse(a, b)
        report = error_report(ell)
        encs += [perimeter(ell), report.p_enclosure, report.epsilon_enclosure,
                 report.theta, report.delta_e]
    encs += [theta_of_lambda(lam) for lam in LAMBDAS]
    return [(e.lo._mpf_, e.hi._mpf_, e.regime) for e in encs]


@pytest.fixture
def fast_thread_switching():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def test_concurrent_callers_match_serial_and_keep_caller_precision(fast_thread_switching):
    old_dps = mp.dps
    mp.dps = 15
    try:
        serial = _results()
        start = Barrier(4)

        def worker(_):
            start.wait(timeout=60)
            return [_results() for _ in range(3)]

        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [r for batch in pool.map(worker, range(4)) for r in batch]
        assert mp.dps == 15
    finally:
        mp.dps = old_dps
    assert all(run == serial for run in runs)


# -- the guard: no module of the package touches mpmath's global context --

_SCOPED = {"workdps", "workprec", "extradps", "extraprec"}


def _global_precision_uses(source: str) -> list[str]:
    """Each use of the global context's precision, or of the context itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Attribute):
            base = node.value
            is_mp = (isinstance(base, ast.Name) and base.id == "mp") or (
                isinstance(base, ast.Attribute) and base.attr == "mp")
            if node.attr in _SCOPED or (is_mp and node.attr in ("dps", "prec")):
                found.append(f"{line}: .{node.attr}")
            elif node.attr == "mp" and isinstance(base, ast.Name) and base.id == "mpmath":
                found.append(f"{line}: mpmath.mp")
        elif isinstance(node, ast.Name) and node.id in _SCOPED:
            found.append(f"{line}: {node.id}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath"):
            found += [f"{line}: import {a.name}" for a in node.names
                      if a.name in _SCOPED | {"mp"}]
    return found


def test_guard_flags_each_kind_of_use():
    samples = [
        "from mpmath import mp\n",
        "import mpmath\nx = mpmath.mp.pi\n",
        "with mp.workdps(50):\n    pass\n",
        "with ctx.extraprec(10):\n    pass\n",
        "from mpmath import workprec\n",
        "mp.dps = 30\n",
        "p = mp.prec\n",
        "f = extradps(5)(g)\n",
    ]
    for source in samples:
        assert _global_precision_uses(source), source
    assert not _global_precision_uses("from mpmath import MPContext\nctx.dps = 50\n")


def test_package_never_touches_the_global_precision():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 6
    uses = {path.name: _global_precision_uses(path.read_text(encoding="utf-8"))
            for path in files}
    assert not {name: found for name, found in uses.items() if found}
