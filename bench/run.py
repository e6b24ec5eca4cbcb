"""Benchmark driver for ellipcert: four workloads, one operation at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are ``report-warm`` (the
library's error_report/containment_check loop in one process),
``cli-light``, ``cold-degenerate`` and ``lemma-exact`` (CLI commands, each
in a fresh process through the ``ellipcert.cli:main`` entry point).  Every
output is checked against references computed apart from the program
(``checks.py``).

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (``tracer.py``) and the tracing overhead.  Lines before it
give the environment, the median wall time of every command, and every
metric by name and unit.  Raw per-operation records go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import re
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads
from tracer import layer_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = str(BENCH / "child.py")
# Peak RSS comes from the child's own VmHWM, written to fd 3 at exit.  The
# ru_maxrss that wait4 would return is no good here: a posix_spawn child
# starts on the parent's address space, so its maxrss carries the driver's
# peak.
PEAK_HOOK = ("import atexit, os; atexit.register(lambda: os.write(3, "
             "open('/proc/self/status', 'rb').read()))")
ENTRY = (PEAK_HOOK + "; import sys; from ellipcert.cli import main; "
         "sys.argv[0] = 'ellipcert'; main()")
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; "/op" figures are means per traced operation
PER_LAYER = {
    "import.ellipcert_s": "s",
    "import.numpy_s": "s",
    "import.mpmath_s": "s",
    "cli.main_s": "s/op",
    "cli.self_s": "s/op",
    "cli.stdout_bytes": "count/op",
    "cli.process_overhead_s": "s/op",
    "bounds.error_report_s": "s/op",
    "bounds.error_report_self_s": "s/op",
    "bounds.containment_check_s": "s/op",
    "engine.perimeter_s": "s/op",
    "engine.eval_B_s": "s/op",
    "engine.eval_B_calls": "count/op",
    "engine.perimeter_ramanujan_s": "s/op",
    "engine.discrepancy_s": "s/op",
    "engine.discrepancy_calls": "count/op",
    "engine.discrepancy_self_s": "s/op",
    "engine.convert_s": "s/op",
    "engine.series_loop_s": "s/op",
    "engine.theta_of_lambda_s": "s/op",
    "engine.ivory_s": "s/op",
    "engine.slow_tail_count": "count/op",
    "engine.geometric_tail_count": "count/op",
    "engine.floor_errors": "count/op",
    "series_kernel.delta_table_s": "s/op",
    "series_kernel.delta_table_max_n": "count",
    "series_kernel.max_coeff_bits": "bits",
    "series_kernel.composition_s": "s/op",
    "series_kernel.coeff_table_s": "s/op",
    "lemma.verify_s": "s/op",
    "lemma.verify_self_s": "s/op",
    "trace.overhead_s": "s/op",
    "trace.overhead_pct": "%",
}

# per-layer metric -> span whose summed total it reports
_SPAN_TOTALS = {
    "cli.main_s": "cli.main",
    "bounds.error_report_s": "bounds.error_report",
    "bounds.containment_check_s": "bounds.containment_check",
    "engine.perimeter_s": "engine.perimeter",
    "engine.eval_B_s": "engine.eval_B",
    "engine.perimeter_ramanujan_s": "engine.perimeter_ramanujan",
    "engine.discrepancy_s": "engine.discrepancy",
    "engine.theta_of_lambda_s": "engine.theta_of_lambda",
    "engine.ivory_s": "engine.ivory",
    "series_kernel.delta_table_s": "series_kernel.delta_table",
    "series_kernel.composition_s": "series_kernel.composition",
    "series_kernel.coeff_table_s": "series_kernel.coeff_table",
    "lemma.verify_s": "lemma.verify",
}
_SPAN_SELF = {
    "cli.self_s": "cli.main",
    "bounds.error_report_self_s": "bounds.error_report",
    "engine.discrepancy_self_s": "engine.discrepancy",
    "lemma.verify_self_s": "lemma.verify",
}
_SPAN_CALLS = {
    "engine.eval_B_calls": "engine.eval_B",
    "engine.discrepancy_calls": "engine.discrepancy",
}


# -- processes ------------------------------------------------------------------


@dataclass
class Proc:
    wall_s: float
    rc: int
    rss_mb: float
    started: float  # time.monotonic() just before the spawn


def spawn(args: list[str], stdout: Path, stderr: Path) -> Proc:
    """Run ``python3 ARGS`` to completion with stdout/stderr in files."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    status_file = OUT / "child.status"
    actions = [(os.POSIX_SPAWN_OPEN, fd, str(path), flags, 0o644)
               for fd, path in ((1, stdout), (2, stderr), (3, status_file))]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.monotonic()
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        _, status = os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - t0
    # no VmHWM: the child has no exit hook (set-up probes) or died first
    hwm = re.search(rb"VmHWM:\s+(\d+) kB", status_file.read_bytes())
    rss_kb = int(hwm.group(1)) if hwm else 0
    return Proc(wall, os.waitstatus_to_exitcode(status), rss_kb / 1024, started)


def import_times() -> dict:
    """Median cumulative numpy and mpmath import times, from -X importtime."""
    numpy, mpmath = [], []
    for _ in range(SETUP_REPEATS):
        spawn(["-X", "importtime", "-c", "import ellipcert"], OUT / "importtime.out",
              OUT / "importtime.err")
        cumulative = {}
        for line in (OUT / "importtime.err").read_text().splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        numpy.append(cumulative.get("numpy", 0.0))
        mpmath.append(cumulative.get("mpmath", 0.0))
    return {"import.numpy_s": statistics.median(numpy),
            "import.mpmath_s": statistics.median(mpmath)}


# -- results ----------------------------------------------------------------------


class Run:
    """What one invocation measured, checked and logged."""

    def __init__(self, name: str, seed: int, trace: int):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []
        self.walls: dict[str, list[float]] = {}
        self.log = open(OUT / f"{name}-seed{seed}-trace{trace}.jsonl", "w", encoding="utf-8")

    def record(self, label: str, proc: Proc, ok: bool, error: str | None, **extra) -> None:
        self.walls.setdefault(label, []).append(proc.wall_s)
        self.log.write(json.dumps({"op": label, "wall_s": proc.wall_s, "rc": proc.rc,
                                   "rss_mb": proc.rss_mb, "ok": ok, "error": error,
                                   **extra}) + "\n")

    def check(self, label: str, fn, *args) -> bool:
        """Run one output check; a wrong or unreadable output is recorded."""
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 -- malformed output counts as wrong
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return False
        return True


def run_op(run: Run, op: workloads.Op, traced: bool) -> tuple[Proc, dict | None]:
    """One CLI operation in a fresh process; its output checked if it ran."""
    out, err = OUT / "op.out", OUT / "op.err"
    spans = OUT / "op.spans.json"
    args = [CHILD, "cli", str(spans), *op.args] if traced else ["-c", ENTRY, *op.args]
    spans.unlink(missing_ok=True)
    proc = spawn(args, out, err)
    ok, error, record = False, None, None
    if proc.rc == 0:
        ok = run.check(op.label, op.check, out.read_text(encoding="utf-8"))
        error = None if ok else run.errors[-1]
    else:
        lines = err.read_text(encoding="utf-8").strip().splitlines()
        error = lines[-1] if lines else "(no stderr)"
    size = out.stat().st_size
    if traced:
        if not spans.exists():
            raise SystemExit(f"error: traced `{op.label}` wrote no spans; see {err}")
        record = json.loads(spans.read_text(encoding="utf-8"))
        record.update(wall_s=proc.wall_s, stdout_bytes=size)
    label = op.label + (" [traced]" if traced else "")
    run.record(label, proc, ok, error, stdout_bytes=size)
    return proc, record


def layer_metrics(records: list[dict], n_ops: int) -> dict:
    """Per-operation layer figures from dumped span records."""
    t = layer_totals(records)
    m = {}
    for metric, span in _SPAN_TOTALS.items():
        m[metric] = t["total"].get(span, 0.0) / n_ops
    for metric, span in _SPAN_SELF.items():
        m[metric] = t["self"].get(span, 0.0) / n_ops
    for metric, span in _SPAN_CALLS.items():
        m[metric] = t["calls"].get(span, 0) / n_ops
    for metric in ("engine.slow_tail_count", "engine.geometric_tail_count",
                   "engine.floor_errors"):
        m[metric] = t["counts"].get(metric, 0) / n_ops
    for metric in ("series_kernel.delta_table_max_n", "series_kernel.max_coeff_bits"):
        m[metric] = t["maxima"].get(metric, 0)
    m["engine.convert_s"] = t["convert"] / n_ops
    m["engine.series_loop_s"] = t["loop"] / n_ops
    m["import.ellipcert_s"] = statistics.median(r["import_s"] for r in records)
    m.update(import_times())
    return m


# -- CLI workloads --------------------------------------------------------------


def cli_workload(make_ops):
    def measure(run: Run, rng: random.Random, seconds: float, trace: bool) -> None:
        ops = make_ops(rng)
        if trace:
            return cli_traced(run, ops)
        setups = []
        for _ in range(SETUP_REPEATS):
            proc = spawn(["-c", "import ellipcert.cli"], OUT / "setup.out", OUT / "setup.err")
            if proc.rc != 0:
                raise SystemExit("error: ellipcert does not import; see bench/out/setup.err")
            setups.append(proc.wall_s)
        ok_walls, all_walls, rss = [], [], 0.0
        while True:
            for op in ops:
                proc, _ = run_op(run, op, traced=False)
                run.attempted += 1
                all_walls.append(proc.wall_s)
                rss = max(rss, proc.rss_mb)
                if proc.rc == 0:
                    ok_walls.append(proc.wall_s)
                else:
                    run.failed += 1
            if sum(all_walls) >= seconds:
                break
        run.metrics.update({
            "setup_s": statistics.median(setups),
            "ops_per_s": len(ok_walls) / sum(all_walls),
            "latency_p50_ms": 1e3 * statistics.median(ok_walls),
            "peak_rss_mb": rss,
        })
        run.notes.append(f"latency over {len(ok_walls)} completed operations")
    return measure


def cli_traced(run: Run, ops: list[workloads.Op]) -> None:
    """One round, each operation run untraced and then traced."""
    records, plain, traced_walls = [], 0.0, 0.0
    for op in ops:
        base, _ = run_op(run, op, traced=False)
        proc, record = run_op(run, op, traced=True)
        run.attempted += 1
        run.failed += proc.rc != 0
        plain += base.wall_s
        traced_walls += proc.wall_s - sum(record["repeats"].values())
        records.append(record)
    n = len(ops)
    m = layer_metrics(records, n)
    m["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in records) / n
    m["cli.process_overhead_s"] = sum(
        r["wall_s"] - r["import_s"]
        - sum(s[2] - s[1] for s in r["spans"] if s[0] == "cli.main")
        for r in records) / n
    m["trace.overhead_s"] = (traced_walls - plain) / n
    m["trace.overhead_pct"] = 100 * (traced_walls - plain) / plain
    run.metrics.update(m)


# -- report-warm ----------------------------------------------------------------


def warm_worker(run: Run, ellipses, seconds: float, mode: str, trace: bool):
    spec = OUT / "warm-spec.json"
    result, spans = OUT / "warm-result.json", OUT / "warm-spans.json"
    spec.write_text(json.dumps({"ellipses": ellipses, "seconds": seconds, "mode": mode,
                                "trace": trace, "result": str(result),
                                "spans": str(spans)}), encoding="utf-8")
    result.unlink(missing_ok=True)
    proc = spawn([CHILD, "warm", str(spec)], OUT / "warm.out", OUT / "warm.err")
    if proc.rc != 0:
        raise SystemExit("error: report-warm worker failed; see bench/out/warm.err")
    res = json.loads(result.read_text(encoding="utf-8"))
    res["setup_s"] = res["setup_done"] - proc.started
    run.record(f"report-warm worker ({mode}{', traced' if trace else ''})", proc, True,
               None, setup_s=res["setup_s"])
    if trace:
        res["record"] = json.loads(spans.read_text(encoding="utf-8"))
    return proc, res


def check_warm(run: Run, ellipses, res: dict) -> None:
    """The warm-up outputs against the references; every later pass equal."""
    from mpmath import mp

    if res["mismatches"]:
        run.errors.append(f"report-warm: {res['mismatches']} outputs differ from the first pass")
    with mp.workdps(80):
        for (a, b), row in zip(ellipses, res["first"]):
            vals = [mp.ldexp(mp.mpf(-m if s else m), e) for s, m, e in row[:6]]
            run.check(f"error_report a={a!r} b={b!r}", checks.check_report, a, b,
                      vals[0:2], vals[2:4], vals[4:6], row[6])


def report_warm(run: Run, rng: random.Random, seconds: float, trace: bool) -> None:
    ellipses = workloads.report_warm(rng)
    if trace:
        _, res = warm_worker(run, ellipses, seconds, "run", True)
        check_warm(run, ellipses, res)
        k = len(ellipses)
        on, off = [], []
        for i, traced in enumerate(res["traced"]):
            (on if traced else off).extend(res["latencies"][i * k:(i + 1) * k])
        run.attempted = len(res["latencies"])
        m = layer_metrics([res["record"]], len(on) + res["warmup_ops"])
        m.update({"cli.stdout_bytes": 0.0, "cli.process_overhead_s": 0.0})
        base, traced = statistics.fmean(off), statistics.fmean(on)
        m["trace.overhead_s"] = traced - base
        m["trace.overhead_pct"] = 100 * (traced - base) / base
        run.metrics.update(m)
        return
    setups = []
    for mode in ["setup"] * (SETUP_REPEATS - 1) + ["run"]:
        proc, res = warm_worker(run, ellipses, seconds, mode, False)
        setups.append(res["setup_s"])
    check_warm(run, ellipses, res)
    lat = res["latencies"]
    run.attempted = len(lat)
    run.metrics.update({
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "peak_rss_mb": proc.rss_mb,
    })
    run.notes.append(f"latency over {len(lat)} operations in {res['rounds']} passes")
    if len(lat) >= 1000:  # at least ten samples beyond the 99th percentile
        p99 = statistics.quantiles(lat, n=100)[98]
        run.notes.append(f"metric latency_p99_ms {1e3 * p99:.4f} ms (n={len(lat)})")


# BENCHMARK.json gates cli-light and lemma-exact only: on a shared 2-core
# machine report-warm and cold-degenerate moved between runs by more than
# the largest bound a metric may carry (see README); both still run by hand
WORKLOADS = {
    "report-warm": report_warm,
    "cli-light": cli_workload(workloads.cli_light),
    "cold-degenerate": cli_workload(workloads.cold_degenerate),
    "lemma-exact": cli_workload(workloads.lemma_exact),
}


# -- main ---------------------------------------------------------------------------


def environment() -> str:
    import mpmath

    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = "yes"
    except ImportError:
        has_gmpy2 = "no"
    return (f"python {platform.python_version()}  mpmath {mpmath.__version__} "
            f"(backend {mpmath.libmp.BACKEND})  gmpy2 {has_gmpy2}  "
            f"nproc {len(os.sched_getaffinity(0))}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ellipcert" / "__init__.py").is_file():
        print(f"error: no ellipcert package under {SRC}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=1)  # byte-compile outside any timing

    run = Run(args.workload, args.seed, args.trace)
    env = environment()
    rng = random.Random(f"{args.workload}:{args.seed}")
    try:
        WORKLOADS[args.workload](run, rng, args.seconds, bool(args.trace))
    finally:
        run.log.close()

    units = PER_LAYER if args.trace else END_TO_END
    print(f"env: {env}")
    for label, walls in run.walls.items():
        print(f"op {label}  runs {len(walls)}  median_s {statistics.median(walls):.4f}")
    for note in run.notes:
        print(note)
    for name, unit in units.items():
        print(f"metric {name} {run.metrics[name]:.6g} {unit}")
    for error in run.errors:
        print(f"CHECK FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": run.metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
