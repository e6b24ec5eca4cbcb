"""Seeded inputs for the four workloads.

Each generator takes a ``random.Random`` seeded from the workload name and
``--seed`` and returns one round: the fixed list of operations a run
repeats whole.  Parameters are drawn stratified (one draw per equal-width
stratum, Latin-hypercube style), so every seed gives the same mix of
costs and the spread between seeds reflects the machine, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks


@dataclass(frozen=True)
class Op:
    """One CLI operation: its arguments and the check of its stdout."""

    args: tuple[str, ...]
    check: Callable[[str], None]

    @property
    def label(self) -> str:
        return " ".join(self.args)


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of k equal strata of [lo, hi), shuffled."""
    vals = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(vals)
    return vals


def report_warm(rng: random.Random, k: int = 64) -> list[tuple[float, float]]:
    """k ellipses: b/a log-uniform on [1e-2, 1], a log-uniform on
    [1e-3, 1e3], every other one given with the axes swapped, two circles."""
    circles = 2
    log_a = _strata(rng, k, -3.0, 3.0)
    log_r = _strata(rng, k - circles, -2.0, 0.0) + [0.0] * circles
    out = []
    for i, (la, lr) in enumerate(zip(log_a, log_r)):
        a = 10.0**la
        b = a if lr == 0.0 else a * 10.0**lr
        out.append((b, a) if i % 2 else (a, b))
    rng.shuffle(out)
    return out


def _perimeter(a: float, b: float, as_json: bool, extra: tuple = ()) -> Op:
    args = ("perimeter", "--a", repr(a), "--b", repr(b), *extra)
    if as_json:
        args += ("--json",)
    return Op(args, partial(checks.check_perimeter_output, a, b, as_json=as_json))


def _coeffs(n: int, fmt: str, a_rows: list[int]) -> Op:
    args = ("coeffs", "--n", str(n)) + (("--format", "json") if fmt == "json" else ())
    return Op(args, partial(checks.check_coeffs_output, n,
                            as_json=fmt == "json", a_rows=a_rows))


def _verify(n: int) -> Op:
    return Op(("verify-lemma", "--max-n", str(n)), partial(checks.check_lemma_output, n))


def cli_light(rng: random.Random) -> list[Op]:
    """40 cheap commands; ``perimeter --a 2 --b 1`` and
    ``verify-lemma --max-n 150`` are fixed anchors in every round."""
    ops = [_perimeter(2.0, 1.0, False), _verify(150)]
    for i, r in enumerate(_strata(rng, 11, 0.2, 1.0)):
        a = 10.0 ** rng.uniform(-1.0, 2.0)
        a, b = (a * r, a) if i % 2 else (a, a * r)
        ops.append(_perimeter(a, b, as_json=i % 2 == 1))
    for _ in range(3):
        ops.append(Op(("bounds",), checks.check_bounds_output))
    for lam in _strata(rng, 4, 0.05, 0.95):
        ops.append(Op(("bounds", "--lambda", repr(lam)),
                      partial(checks.check_bounds_output, lam=lam)))
    for e in _strata(rng, 3, 0.1, 0.99):
        ops.append(Op(("bounds", "--e", repr(e)), partial(checks.check_bounds_output, e=e)))
    for x in _strata(rng, 6, 0.0, 0.99):
        ops.append(Op(("ivory-check", "--x", repr(x)), partial(checks.check_ivory_output, x)))
    for i, n in enumerate(_strata(rng, 6, 20, 201)):
        n = int(n)
        ops.append(_coeffs(n, "json" if i % 2 else "csv", list(range(n + 1))))
    for n in _strata(rng, 5, 10, 150):
        ops.append(_verify(int(n)))
    rng.shuffle(ops)
    return ops


def cold_degenerate(rng: random.Random) -> list[Op]:
    """The lambda -> 1 commands, plus the two that fail today (exit 2):
    ``perimeter --a 5e5 --b 0`` (absolute default tolerance below the
    floor) and ``perimeter --a 1 --b 1e-9 --tol 1e-12`` (series floor).
    The inputs are fixed; the seed orders them."""
    ops = [
        _perimeter(1.0, 0.0, False),
        _perimeter(1.0, 1e-6, False),
        Op(("bounds", "--lambda", "1"), partial(checks.check_bounds_output, lam=1.0)),
        Op(("bounds", "--lambda", "0.999"), partial(checks.check_bounds_output, lam=0.999)),
        _perimeter(5e5, 0.0, False),
        _perimeter(1.0, 1e-9, False, ("--tol", "1e-12")),
    ]
    rng.shuffle(ops)
    return ops


def lemma_exact(rng: random.Random) -> list[Op]:
    """verify-lemma at N in [300, 600] and coeffs at M in [1500, 3000]: one
    command per quarter of each range, nudged by the seed, with the top of
    each range (600 and 3000) fixed."""
    ns = [base + rng.randrange(5) for base in (300, 400, 500)] + [600]
    ms = [base + rng.randrange(25) for base in (1500, 2000, 2500)] + [3000]
    ops = [_verify(n) for n in ns]
    ops += [_coeffs(m, "csv", checks.sampled_rows(m, rng)) for m in ms]
    rng.shuffle(ops)
    return ops
