"""Each command imports only the layers it uses: the package import and the
exact commands never load the numeric layers, no command loads mpmath,
dataclasses or inspect, and every public and every rebindable name still
resolves on demand."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellipcert
import ellipcert.cli as cli

ROOT = Path(ellipcert.__file__).resolve().parents[2]
NUMERIC = ("mpmath", "ellipcert.engine", "ellipcert.bounds")
# modules no command needs: mpmath, and dataclasses, whose import takes inspect
HEAVY = ("mpmath", "dataclasses", "inspect")


def _fresh(script: str) -> subprocess.CompletedProcess:
    src = str(Path(ellipcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_exact_commands_leave_the_numeric_layers_unloaded():
    script = f"""
import contextlib, io, sys
numeric = {NUMERIC!r}

def loaded():
    return [m for m in numeric if m in sys.modules]

import ellipcert
assert not loaded(), ("import ellipcert", loaded())
import ellipcert.cli as cli
for argv in (["coeffs", "--n", "5"], ["verify-lemma", "--max-n", "7"], ["--help"]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.cli_main(argv) == 0, argv
    assert out.getvalue(), argv
    assert not loaded(), (argv, loaded())

with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.cli_main(["perimeter", "--a", "2", "--b", "1"]) == 0
assert "p        in [9.68844822054766" in out.getvalue(), out.getvalue()
print("ok")
"""
    assert _fresh(script).stdout == "ok\n"


@pytest.mark.parametrize("argv", [
    ["perimeter", "--a", "2", "--b", "1"],
    ["bounds", "--lambda", "0.5"],
    ["bounds", "--e", "0.5"],
    ["ivory-check", "--x", "0.5"],
    ["verify-lemma", "--max-n", "20"],
], ids=lambda argv: f"{argv[0]}-{argv[1].lstrip('-')}")
def test_commands_leave_mpmath_dataclasses_and_inspect_unloaded(argv):
    script = f"""
import contextlib, io, sys
import ellipcert.cli as cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.cli_main({argv!r}) == 0
print([m for m in {HEAVY!r} if m in sys.modules])
"""
    assert _fresh(script).stdout == "[]\n"


@pytest.mark.parametrize("argv, loads_json", [
    (["coeffs", "--n", "5"], False),
    (["perimeter", "--a", "2", "--b", "1"], False),
    (["bounds", "--lambda", "0.5"], False),
    (["ivory-check", "--x", "0.5"], False),
    (["perimeter", "--a", "2", "--b", "1", "--json"], True),
], ids=lambda v: "-".join(a.lstrip("-") for a in v) if isinstance(v, list) else None)
def test_only_a_json_serialization_loads_json(argv, loads_json):
    script = f"""
import contextlib, io, sys
import ellipcert.cli as cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.cli_main({argv!r}) == 0
print("json" in sys.modules)
"""
    assert _fresh(script).stdout == f"{loads_json}\n"


def test_every_public_name_resolves_and_is_listed():
    listing = dir(ellipcert)
    for name in ellipcert.__all__:
        assert getattr(ellipcert, name) is not None, name
        assert name in listing, name
    namespace = {}
    exec("from ellipcert import *", namespace)
    assert set(ellipcert.__all__) <= namespace.keys()


def test_every_name_the_tracer_rebinds_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, names in tracer._TARGETS.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name)), (module_name, name)


def test_the_tracer_installs_and_a_traced_command_runs():
    # install() rebinds every name of _TARGETS; one the program no longer
    # binds would fail every traced run with AttributeError
    script = f"""
import contextlib, importlib.util, io
spec = importlib.util.spec_from_file_location("bench_tracer", {str(ROOT / "bench" / "tracer.py")!r})
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)
import ellipcert.cli as cli
tracer = tracer_mod.Tracer()
tracer_mod.install(tracer)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.cli_main(["verify-lemma", "--max-n", "7"]) == 0
    assert cli.cli_main(["coeffs", "--n", "5"]) == 0
print("lemma.verify" in {{span[0] for span in tracer.spans}})
"""
    assert _fresh(script).stdout == "True\n"


def test_monkeypatched_error_report_is_the_one_perimeter_calls(monkeypatch, capsys):
    real = cli.error_report
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "error_report", spy)
    assert cli.cli_main(["perimeter", "--a", "2", "--b", "1"]) == 0
    assert len(calls) == 1
    assert "containment" in capsys.readouterr().out
