"""Span tracing of meanreduce's layers, installed from outside the package.

`Tracer` keeps an in-memory stack of open spans.  `Patcher` replaces a public
function by a wrapper under every name that refers to it (the defining module
and every ``meanreduce`` module that imported it) and puts the originals back
on `restore`.  Nothing under ``src/`` is edited.

Span kinds:

- retained spans (cli, items, lab checks, reductions, inner solves, builders)
  are kept as records ``[id, name, start, end, parent, item, self_s, counts,
  attrs]`` and written out when the benchmark ends;
- leaf layers called hundreds of thousands of times per pass (expressions,
  closed-form means, numeric inverses) are timed and counted into per-name
  totals only, so memory stays flat.

Self time is a span's duration minus the time covered by its child spans.
Event counts (expression calls, ``MeanFn`` evaluations) are charged to the
innermost open span and roll up into every enclosing span on close.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

_clock = time.perf_counter

# Layer name -> (module, attribute) pairs of the public functions it covers.
RETAINED = {
    "cli": [("meanreduce.cli", "main")],
    "suites.build_runner": [("meanreduce.suites", "build_runner")],
    "descriptors.build_mean": [
        ("meanreduce.descriptors", "build_mean"),
        ("meanreduce.descriptors", "build_gen_deviation"),
        ("meanreduce.descriptors", "evaluate_with_report"),
    ],
    "lab": [
        ("meanreduce.lab", "check_convexity"),
        ("meanreduce.lab", "check_reduced_convexity"),
        ("meanreduce.lab", "compare_means"),
        ("meanreduce.lab", "check_holder_minkowski"),
    ],
    "reduction.scalar": [("meanreduce.reduction", "reduce_scalar")],
    "reduction.vector": [("meanreduce.reduction", "reduce_vector")],
    "reduction.oracle": [
        ("meanreduce.reduction", "check_deviation_reduction"),
        ("meanreduce.reduction", "check_weighted_arith_reduction"),
    ],
    "scalar.deviation_mean": [("meanreduce.scalar", "deviation_mean")],
    "vector.vi": [("meanreduce.vector", "gen_deviation_mean")],
    "vector.potential": [("meanreduce.vector", "potential_mean")],
    "vector.verify_vi": [("meanreduce.vector", "verify_vi")],
}
LEAVES = {
    "scalar.closed_form": [
        ("meanreduce.scalar", "holder_mean"),
        ("meanreduce.scalar", "gini_mean"),
        ("meanreduce.scalar", "bajraktarevic_mean"),
        ("meanreduce.scalar", "quasi_arithmetic_mean"),
        ("meanreduce.scalar", "weighted_arith_mean"),
    ],
    "scalar.matkowski": [("meanreduce.scalar", "matkowski_mean")],
}
SOLVES = ("scalar.deviation_mean", "vector.vi", "vector.potential")


class Tracer:
    """Spans and counts of one traced pass, all in memory."""

    def __init__(self):
        # Open frames: [name, start, child_s, counts, span_id, parent_id].
        self._root = ["root", 0.0, 0.0, {}, None, None]
        self.stack = [self._root]
        self.spans: list = []
        self.leaf = {}  # name -> [calls, self_s]
        self.item: Optional[str] = None

    def open(self, name: str) -> list:
        parent = self.stack[-1]
        frame = [name, _clock(), 0.0, {}, len(self.spans), parent[4]]
        self.spans.append(None)  # reserve the id so parents precede children
        self.stack.append(frame)
        return frame

    def close(self, frame: list, attrs: Optional[dict] = None):
        end = _clock()
        name, start, child_s, counts, span_id, parent_id = frame
        self.stack.pop()
        parent = self.stack[-1]
        duration = end - start
        parent[2] += duration
        pcounts = parent[3]
        for key, value in counts.items():
            pcounts[key] = pcounts.get(key, 0) + value
        self.spans[span_id] = [span_id, name, start, end, parent_id, self.item,
                               duration - child_s, counts, attrs or {}]

    def leaf_call(self, name: str, fn: Callable, args, kwargs):
        parent = self.stack[-1]
        frame = [name, _clock(), 0.0, parent[3], None, None]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            duration = _clock() - frame[1]
            parent[2] += duration
            entry = self.leaf.get(name)
            if entry is None:
                entry = self.leaf[name] = [0, 0.0]
            # Nested calls of one leaf layer (quasi-arithmetic -> Bajraktarevic)
            # count once; their self times still add up exactly.
            if parent[0] != name:
                entry[0] += 1
            entry[1] += duration - frame[2]

    def count(self, key: str):
        counts = self.stack[-1][3]
        counts[key] = counts.get(key, 0) + 1

    def records(self) -> list:
        return [s for s in self.spans if s is not None]


def _result_attrs(layer: str, result) -> dict:
    """Work counts read off a layer's return value."""
    if layer in SOLVES:
        return {"iters": int(result.iterations), "converged": bool(result.converged)}
    if layer in ("reduction.scalar", "reduction.vector"):
        return {"iters": int(result.certificate.iterations),
                "converged": bool(result.certificate.converged),
                "flag": result.unique_flag}
    if layer == "lab":
        if hasattr(result, "full"):
            return {"trials": int(result.full.trials) + int(result.reduced.trials)}
        return {"trials": int(result.trials)}
    return {}


def meanreduce_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "meanreduce" or name.startswith("meanreduce."))]


class Patcher:
    """Replace functions under every name bound to them; restore on exit."""

    def __init__(self):
        self._saved: list = []

    def replace(self, module_name: str, attr: str, make_wrapper: Callable):
        original = getattr(sys.modules[module_name], attr)
        wrapper = make_wrapper(original)
        for module in meanreduce_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def replace_attr(self, owner, attr: str, make_wrapper: Callable):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def install(patcher: Patcher, tracer: Tracer):
    """Wrap every traced layer so that it reports into ``tracer``."""
    from meanreduce.expr import Expression
    from meanreduce.reduction import MeanFn

    for layer, targets in RETAINED.items():
        for module_name, attr in targets:
            patcher.replace(module_name, attr, _retained_wrapper(tracer, layer))
    for layer, targets in LEAVES.items():
        for module_name, attr in targets:
            patcher.replace(module_name, attr, _leaf_wrapper(tracer, layer))

    def wrap_inverse(original):
        def numeric_inverse(*args, **kwargs):
            return _leaf_wrapper(tracer, "scalar.inverse")(original(*args, **kwargs))
        return numeric_inverse

    patcher.replace("meanreduce.scalar", "numeric_inverse", wrap_inverse)
    patcher.replace_attr(Expression, "__call__", _leaf_wrapper(tracer, "expr", event="expr"))

    def wrap_mean_call(original):
        def __call__(self, x):
            tracer.count("mean_evals")
            return original(self, x)
        return __call__

    patcher.replace_attr(MeanFn, "__call__", wrap_mean_call)


def _retained_wrapper(tracer: Tracer, layer: str):
    def make(original):
        def traced(*args, **kwargs):
            frame = tracer.open(layer)
            attrs = None
            try:
                result = original(*args, **kwargs)
                attrs = _result_attrs(layer, result)
                return result
            finally:
                tracer.close(frame, attrs)
        traced.__wrapped__ = original
        return traced
    return make


def _leaf_wrapper(tracer: Tracer, layer: str, event: Optional[str] = None):
    def make(original):
        if event is None:
            def traced(*args, **kwargs):
                return tracer.leaf_call(layer, original, args, kwargs)
        else:
            def traced(*args, **kwargs):
                tracer.count(event)
                return tracer.leaf_call(layer, original, args, kwargs)
        traced.__wrapped__ = original
        return traced
    return make
