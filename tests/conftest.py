"""Shared fixtures."""

import contextlib
import sys

import pytest


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
