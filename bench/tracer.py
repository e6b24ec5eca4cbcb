"""Spans around the calls each ellipcert module makes into the layer below.

The program is left untouched: ``install`` rebinds, inside each module's
namespace, the names it imported from the layer below to timing wrappers,
so every call through such a name records one span (name, start, end,
parent).  Spans stay in memory and ``dump`` writes them out once.

Work the tracer does itself inside a span (result hooks, the warm repeat
of a cold ``discrepancy``) is added to the ``excluded`` time of every open
span, so span totals and self times leave it out.
"""

from __future__ import annotations

import json
import time

# layer-metric span name for each rebound name, per module
_TARGETS = {
    "ellipcert.cli": {
        "error_report": "bounds.error_report",
        "containment_check": "bounds.containment_check",
        "_verdict_between": "bounds.other",
        "delta_e_bounds": "bounds.other",
        "scaled_theta_upper": "bounds.other",
        "theta_upper": "bounds.other",
        "eval_B": "engine.eval_B",
        "ivory_integral": "engine.ivory",
        "theta_of_lambda": "engine.theta_of_lambda",
        "lambda_from_eccentricity": "engine.other",
        "verify_fundamental_lemma": "lemma.verify",
        "a_coeffs_upto": "series_kernel.coeff_table",
        "b_coeffs_upto": "series_kernel.coeff_table",
        "delta_coeffs_upto": "series_kernel.coeff_table",
    },
    "ellipcert.bounds": {
        "perimeter": "engine.perimeter",
        "perimeter_ramanujan": "engine.perimeter_ramanujan",
        "discrepancy": "engine.discrepancy",
    },
    # perimeter -> eval_B and discrepancy_ratio -> discrepancy stay inside
    # engine, so those two are rebound in engine's own namespace
    "ellipcert.engine": {
        "eval_B": "engine.eval_B",
        "discrepancy": "engine.discrepancy",
        "delta_coeffs_upto": "series_kernel.delta_table",
        "b_coeffs_upto": "series_kernel.b_table",
    },
    "ellipcert.lemma": {
        "a_series_via_composition": "series_kernel.composition",
    },
}


class Tracer:
    def __init__(self):
        # one entry per span: [name, start, end, parent index, excluded s]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.repeats: dict[int, float] = {}  # cold discrepancy span -> warm repeat s
        self._stack: list[int] = []
        self._seen_errors: set[int] = set()
        self.floor_error: type | tuple = ()  # exception counted as a floor error
        self.active = True

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def note_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def exclude(self, seconds: float) -> None:
        for idx in self._stack:  # open spans are still lists
            self.spans[idx][4] += seconds

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording a span named ``name``.  ``hook(args, kwargs,
        result, idx)`` runs after the span closes; its time is excluded
        from the spans still open."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if isinstance(exc, self.floor_error) and id(exc) not in self._seen_errors:
                    self._seen_errors.add(id(exc))
                    self.count("engine.floor_errors")
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                # a closed span becomes a tuple of atoms, which the garbage
                # collector stops tracking, so a long trace adds no GC work
                self.spans[idx] = tuple(span)
            if hook is not None:
                t0 = time.perf_counter()
                hook(args, kwargs, result, idx)
                self.exclude(time.perf_counter() - t0)
            return result

        return traced

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": self.spans,
                "counts": self.counts,
                "maxima": self.maxima,
                "repeats": {str(k): v for k, v in self.repeats.items()},
                **extra,
            }, fh)


def install(tracer: Tracer) -> None:
    """Rebind every name in _TARGETS to a tracing wrapper."""
    import importlib

    engine = importlib.import_module("ellipcert.engine")
    tracer.floor_error = engine.ToleranceFloorError
    regime_names = {engine.SLOW_TAIL: "engine.slow_tail_count",
                    engine.GEOMETRIC_TAIL: "engine.geometric_tail_count"}

    def regime_hook(args, kwargs, enc, idx):
        key = regime_names.get(enc.regime)
        if key:
            tracer.count(key)

    def delta_table_hook(args, kwargs, table, idx):
        tracer.note_max("series_kernel.delta_table_max_n", len(table) - 1)
        tracer.note_max("series_kernel.max_coeff_bits",
                        max(d.denominator.bit_length() for d in table))

    original_discrepancy = engine.discrepancy

    def discrepancy_hook(args, kwargs, enc, idx):
        regime_hook(args, kwargs, enc, idx)
        cold = any(s[3] == idx and s[0] == "series_kernel.delta_table"
                   for s in tracer.spans[idx + 1:])
        if cold:  # time the same call again with the tables now converted
            tracer.active = False
            t0 = time.perf_counter()
            original_discrepancy(*args, **kwargs)
            tracer.repeats[idx] = time.perf_counter() - t0
            tracer.active = True

    hooks = {
        "engine.eval_B": regime_hook,
        "engine.discrepancy": discrepancy_hook,
        "series_kernel.delta_table": delta_table_hook,
    }
    for module_name, names in _TARGETS.items():
        module = importlib.import_module(module_name)
        for attr, span_name in names.items():
            setattr(module, attr, tracer.wrap(span_name, getattr(module, attr),
                                              hooks.get(span_name)))


def layer_totals(records: list[dict]) -> dict:
    """Sum span totals, self times and counts over several dumped records.

    A span's total is its duration less its excluded time; its self time
    is its total less the totals of its direct children.
    """
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    maxima: dict[str, int] = {}
    convert = loop = 0.0
    for rec in records:
        spans = rec["spans"]
        own = [s[2] - s[1] - s[4] for s in spans]
        child = [0.0] * len(spans)
        for s, t in zip(spans, own):
            if s[3] >= 0:
                child[s[3]] += t
        repeats = {int(k): v for k, v in rec["repeats"].items()}
        for i, s in enumerate(spans):
            name = s[0]
            total[name] = total.get(name, 0.0) + own[i]
            self_t[name] = self_t.get(name, 0.0) + own[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "engine.discrepancy":
                if i in repeats:
                    convert += own[i] - child[i] - repeats[i]
                    loop += repeats[i]
                else:
                    loop += own[i] - child[i]
        for k, v in rec["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in rec["maxima"].items():
            maxima[k] = max(maxima.get(k, v), v)
    return {"total": total, "self": self_t, "calls": calls, "counts": counts,
            "maxima": maxima, "convert": convert, "loop": loop}
