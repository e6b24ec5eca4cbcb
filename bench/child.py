"""Child processes started by the benchmark driver, one at a time.

    python3 bench/child.py cli SPANS ARG...   one traced CLI operation
    python3 bench/child.py warm SPEC          the report-warm library loop

Both expect PYTHONPATH to point at the checkout's ``src``.  Untraced CLI
operations do not come here: they run the ``ellipcert.cli:main`` entry
point directly.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import time

from tracer import Tracer, install

# the driver reads this process's peak RSS (VmHWM) from fd 3
atexit.register(lambda: os.write(3, open("/proc/self/status", "rb").read()))


def traced_cli(spans_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import ellipcert.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap("cli.main", cli.cli_main)(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, import_s=import_s)


def _exact(v) -> list:
    sign, man, exp, _bc = v._mpf_
    return [sign, man, exp]


def _outputs(report, ok: bool) -> tuple:
    return (report.p_enclosure.lo, report.p_enclosure.hi,
            report.epsilon_enclosure.lo, report.epsilon_enclosure.hi,
            report.theta.lo, report.theta.hi, ok)


def warm(spec_path: str) -> int:
    """Import, one warm-up pass over the ellipses (the set-up), then, in
    "run" mode, whole passes until ``seconds`` have gone by.  When traced,
    every other pass runs with the wrappers switched off, so the tracing
    overhead is measured in the same process over the same seconds.

    Every pass's outputs must equal the warm-up pass's exactly; the
    warm-up outputs are written out exactly for the driver to check.
    """
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import ellipcert  # noqa: F401  (the package import is part of set-up)
    from ellipcert.bounds import containment_check, error_report
    from ellipcert.engine import Ellipse

    import_s = time.perf_counter() - t0
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install(tracer)
        error_report = tracer.wrap("bounds.error_report", error_report)
        containment_check = tracer.wrap("bounds.containment_check", containment_check)
    ellipses = spec["ellipses"]

    def one(a, b):
        report = error_report(Ellipse(a, b))
        return report, containment_check(report)["ok"]

    first = [_outputs(*one(a, b)) for a, b in ellipses]
    result = {"import_s": import_s, "setup_done": time.monotonic(),
              "warmup_ops": len(ellipses)}
    if spec["mode"] == "run":
        latencies, traced = [], []
        mismatches = rounds = 0
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.active = rounds % 2 == 0
            traced.append(tracer is not None and tracer.active)
            for (a, b), want in zip(ellipses, first):
                t = time.perf_counter()
                out = one(a, b)
                latencies.append(time.perf_counter() - t)
                mismatches += _outputs(*out) != want
            rounds += 1
            if time.perf_counter() - start >= spec["seconds"]:
                break
        result.update(
            latencies=latencies, traced=traced, rounds=rounds, mismatches=mismatches,
            first=[[_exact(v) for v in row[:6]] + [row[6]] for row in first],
        )
    if tracer is not None:
        tracer.dump(spec["spans"], import_s=import_s)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    sys.exit(warm(sys.argv[2]))
