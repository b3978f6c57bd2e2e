"""Span tracing of surgeon's public functions, installed from outside.

`Tracer.install` replaces every public function of the layer modules, in
every `surgeon.*` namespace that binds it, by a wrapper that records a
span (op id, span id, parent id, name, start, end).  Spans stay in memory
until `dump`.  A few functions also get probes that read their inputs and
results (input hash for repeat detection, bit lengths, dimensions); the
probe time is kept per span and excluded from every self time.

Nothing here runs unless a benchmark run asks for tracing.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "diagrams", "fronts", "surgery", "exactlin", "invariants", "d3")
ROOT = "op"


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _frac_bits(values) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values),
               default=0)


def _snf_out(result) -> dict:
    entries = [x for m in (result.U, result.D, result.V) for row in m for x in row]
    return {"max_bits": _bits(entries), "diag_bits": _bits(result.diagonal)}


def _solve_rational_out(result) -> dict:
    if result is None:
        return {}
    particular, kernel = result
    return {"max_bits": max(_frac_bits(particular), _bits(x for v in kernel for x in v))}


def _matrix_key(args) -> int:
    return hash(tuple(tuple(row) for row in args[0]))


# name -> (input key for repeat_share, gauges read from the arguments, gauges read from the result)
PROBES = {
    "exactlin.smith_normal_form": (_matrix_key, None, _snf_out),
    "surgery.linking_matrix": (lambda args: hash(args[0]), None, None),
    "surgery.expand_to_pm1": (None, None, lambda r: {"out_k": r.k}),
    "exactlin.symmetric_signature": (None, lambda args: {"dim": len(args[0])}, None),
    "exactlin.solve_rational": (None, None, _solve_rational_out),
    "fronts.parse_front": (None, None, lambda r: {"events": len(r.events)}),
}


class Tracer:
    """Records spans of one benchmark run; one root span per op."""

    def __init__(self):
        self.spans: list[list] = []  # [op, id, parent, name, start_ns, end_ns, probe_ns]
        self.stack: list[list] = []
        self.op = -1
        self.timeouts: dict[str, int] = defaultdict(int)
        self.repeats: dict[str, int] = defaultdict(int)
        self.gauges: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        self._saved: list[tuple] = []
        self._next_id = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"surgeon.{layer}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        namespaces = [sys.modules["surgeon"]] + [sys.modules[f"surgeon.{m}"] for m in LAYERS]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def _wrap(self, name: str, fn):
        key_of, args_probe, result_probe = PROBES.get(name, (None, None, None))
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            p0 = now()
            if key_of is not None and args:
                key = key_of(args)
                seen = self._seen[name]
                if key in seen:
                    self.repeats[name] += 1
                seen.add(key)
            if args_probe is not None and args:
                self._gauge(name, args_probe(args))
            rec = [self.op, self._new_id(), self.stack[-1][1] if self.stack else -1, name, 0, 0, 0]
            self.stack.append(rec)
            rec[4] = t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = t1 = now()
                self.stack.pop()
                self.spans.append(rec)
            if result_probe is not None:
                self._gauge(name, result_probe(result))
            rec[6] = (t0 - p0) + (now() - t1)
            return result

        return wrapper

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def _gauge(self, name: str, values: dict) -> None:
        for field, value in values.items():
            full = f"{name}.{field}"
            self.gauges[full] = max(self.gauges[full], value)

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._seen.clear()
        root = [op, self._new_id(), -1, ROOT, time.perf_counter_ns(), 0, 0]
        self.stack = [root]

    def end_op(self) -> None:
        root = self.stack[0]
        root[5] = time.perf_counter_ns()
        self.stack = []
        self.spans.append(root)

    def charge_timeout(self) -> None:
        """Count a time-limit breach against the innermost open span."""
        if self.stack:
            self.timeouts[self.stack[-1][3]] += 1

    def merge(self, data: dict, op: int) -> None:
        """Merge the record a traced child process dumped, as one op."""
        base = self._next_id
        for _, sid, parent, name, t0, t1, probe in data["spans"]:
            self.spans.append([op, base + sid, -1 if parent < 0 else base + parent, name, t0, t1, probe])
            self._next_id = max(self._next_id, base + sid + 1)
        for field in ("timeouts", "repeats"):
            for name, count in data[field].items():
                getattr(self, field)[name] += count
        for name, value in data["gauges"].items():
            self.gauges[name] = max(self.gauges[name], value)

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> tuple[dict, dict, dict]:
        """Per op: self time (ns) and call count by span name, and the sum of
        layer self times.  Self time is a span's duration minus the
        duration and probe time of its direct children."""
        child = defaultdict(int)
        for op, sid, parent, name, t0, t1, probe in self.spans:
            if parent >= 0:
                child[parent] += (t1 - t0) + probe
        self_ns, calls, per_op = defaultdict(int), defaultdict(int), defaultdict(int)
        for op, sid, parent, name, t0, t1, probe in self.spans:
            if name == ROOT:
                continue
            own = (t1 - t0) - child[sid]
            self_ns[name] += own
            calls[name] += 1
            per_op[op] += own
        return self_ns, calls, per_op

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "start_ns", "end_ns", "probe_ns"],
                       "spans": self.spans, "timeouts": self.timeouts, "repeats": self.repeats,
                       "gauges": self.gauges}, fh, separators=(",", ":"))
