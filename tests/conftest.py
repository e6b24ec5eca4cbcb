"""Shared fixtures."""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellipcert


@pytest.fixture
def int_digit_cap():
    """A context manager that caps int-to-str conversion at 640 digits (the
    smallest cap Python allows) and restores the caller's cap on exit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")

    @contextlib.contextmanager
    def capped():
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(old)

    return capped


@pytest.fixture
def fast_thread_switching():
    """Switch threads every 10 us, so that races show within a short test."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


@pytest.fixture
def traced_peak_mb():
    """A function that runs ``code`` in a fresh interpreter, after
    ``import ellipcert.engine`` and with tracemalloc started, and returns
    the traced peak in MB: no cache an earlier test warmed is shared."""
    src = str(Path(ellipcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(code: str) -> float:
        script = ("import tracemalloc, ellipcert.engine\n"
                  "tracemalloc.start()\n"
                  f"{code}\n"
                  "print(tracemalloc.get_traced_memory()[1] / 1e6)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=300)
        assert proc.returncode == 0, proc.stderr
        return float(proc.stdout)

    return run
