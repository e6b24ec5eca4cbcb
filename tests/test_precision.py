"""Precision is owned by the package: callers that share the process see
neither their own precision changed nor each other's results disturbed."""

import ast
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from threading import Barrier

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


# -- the guard: no module of the package touches mpmath's global context,
# -- nor the thread's decimal context

_SCOPED = {"workdps", "workprec", "extradps", "extraprec"}
_DECIMAL_GLOBAL = {"getcontext", "setcontext"}


def _global_precision_uses(source: str) -> list[str]:
    """Each use of the global context's precision, or of the context itself;
    for decimal, each read or replacement of the thread's context."""
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
            elif node.attr in _DECIMAL_GLOBAL:
                found.append(f"{line}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in _SCOPED | _DECIMAL_GLOBAL:
            found.append(f"{line}: {node.id}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath"):
            found += [f"{line}: import {a.name}" for a in node.names
                      if a.name in _SCOPED | {"mp"}]
        elif isinstance(node, ast.ImportFrom) and node.module in ("decimal", "_pydecimal"):
            found += [f"{line}: import {a.name}" for a in node.names
                      if a.name in _DECIMAL_GLOBAL]
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
        "from decimal import getcontext\n",
        "import decimal\ndecimal.getcontext().prec = 50\n",
        "decimal.setcontext(ctx)\n",
        "ctx = getcontext()\n",
    ]
    for source in samples:
        assert _global_precision_uses(source), source
    assert not _global_precision_uses("from mpmath import MPContext\nctx.dps = 50\n")
    assert not _global_precision_uses(
        "from decimal import Context, localcontext\n"
        "with localcontext(Context(prec=50)):\n    pass\n")


def test_package_never_touches_the_global_precision():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 6
    uses = {path.name: _global_precision_uses(path.read_text(encoding="utf-8"))
            for path in files}
    assert not {name: found for name, found in uses.items() if found}


# -- the guard: no module of the package touches private Fraction internals --

_FRACTION_PRIVATES = {"_normalize", "_from_coprime_ints", "_numerator", "_denominator"}


def _fraction_private_uses(source: str) -> list[str]:
    """Each attribute, keyword or imported name of a private Fraction internal
    (``_normalize`` is gone in Python 3.12; the package supports 3.10 on)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Attribute) and node.attr in _FRACTION_PRIVATES:
            found.append(f"{line}: .{node.attr}")
        elif isinstance(node, ast.keyword) and node.arg in _FRACTION_PRIVATES:
            found.append(f"{line}: {node.arg}=")
        elif isinstance(node, ast.Name) and node.id in _FRACTION_PRIVATES:
            found.append(f"{line}: {node.id}")
        elif isinstance(node, ast.Constant) and node.value in _FRACTION_PRIVATES:
            found.append(f"{line}: {node.value!r}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{line}: import {a.name}" for a in node.names
                      if a.name in _FRACTION_PRIVATES]
    return found


def test_fraction_guard_flags_each_kind_of_use():
    samples = [
        "q = Fraction(3, 4, _normalize=False)\n",
        "q = Fraction._from_coprime_ints(3, 4)\n",
        "n = q._numerator\n",
        "q._denominator = 8\n",
        "from fractions import _normalize\n",
        "n = getattr(q, '_numerator')\n",
    ]
    for source in samples:
        assert _fraction_private_uses(source), source
    assert not _fraction_private_uses("q = Fraction(3, 4)\nn = q.numerator\n")


def test_package_never_touches_private_fraction_internals():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 6
    uses = {path.name: _fraction_private_uses(path.read_text(encoding="utf-8"))
            for path in files}
    assert not {name: found for name, found in uses.items() if found}


# -- the guard: the exact coefficient layer holds no state --

_THREADING = {"threading", "_thread"}
_MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray", "deque", "defaultdict",
                      "OrderedDict", "Counter"}


def _held_state(source: str) -> list[str]:
    """Each threading import, and each module-level binding of a mutable
    container or of an instance of a class the module defines (``__all__``
    is exempt)."""
    tree = ast.parse(source)
    local_classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names
                      if a.name.split(".")[0] in _THREADING]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in _THREADING:
            found.append(f"{node.lineno}: from {node.module} import")
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        value = node.value
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                              ast.SetComp)) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in _MUTABLE_FACTORIES | local_classes):
            found.append(f"{node.lineno}: {ast.unparse(targets[0])}")
    return found


def test_state_guard_flags_each_kind_of_binding():
    samples = [
        "import threading\n",
        "from threading import Lock\n",
        "def f():\n    import _thread\n",
        "_ROWS = []\n",
        "_ROWS: dict = {}\n",
        "_SEEN = set()\n",
        "_SQUARES = [n * n for n in range(3)]\n",
        "from collections import deque\n_QUEUE = deque()\n",
        "class Table:\n    pass\n_TABLE = Table()\n",
    ]
    for source in samples:
        assert _held_state(source), source
    assert not _held_state(
        "__all__ = ['f']\n_PAIR = (1, 2)\n_NONE = frozenset()\n"
        "def f():\n    cache = {}\n    return cache\n"
    )


def test_series_kernel_holds_no_table_or_lock():
    assert not _held_state((SRC / "series_kernel.py").read_text(encoding="utf-8"))
