"""Each command imports only the layers it uses: the package import and the
exact commands never load mpmath or the numeric layers, while every public
and every rebindable name still resolves on demand."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import ellipcert
import ellipcert.cli as cli

ROOT = Path(ellipcert.__file__).resolve().parents[2]
NUMERIC = ("mpmath", "ellipcert.engine", "ellipcert.bounds")


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
assert "p        in [9.68844822054742" in out.getvalue(), out.getvalue()
print("ok")
"""
    assert _fresh(script).stdout == "ok\n"


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
