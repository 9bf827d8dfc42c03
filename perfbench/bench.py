"""One benchmark run: passes, checks, end-to-end and per-layer metrics."""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import statistics
import time
from collections import defaultdict

import numpy as np
from scipy.special import betainc

import calibrate
import layers
import workloads

_clock = time.perf_counter

END_TO_END = {
    "pass_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# Per-layer metric -> unit.  Counts repeat exactly for a seed; the others are
# timings (median over traced passes) or ratios of counts.
PER_LAYER = {
    "lab.trials": "count",
    "lab.self_s": "s",
    "reduction.scalar.calls": "count",
    "reduction.scalar.iters": "count",
    "reduction.scalar.mean_evals": "count",
    "reduction.scalar.self_s": "s",
    "reduction.scalar.nonconverged": "count",
    "reduction.scalar.multiple_suspected": "count",
    "reduction.scalar.inner_solves_per_call": "ratio",
    "reduction.scalar.lehmer_inner_solves_per_call": "ratio",
    "reduction.vector.calls": "count",
    "reduction.vector.iters": "count",
    "reduction.vector.mean_evals": "count",
    "reduction.vector.self_s": "s",
    "reduction.vector.nonconverged": "count",
    "reduction.vector.useful_ratio": "ratio",
    "reduction.oracle.self_s": "s",
    "scalar.deviation_mean.calls": "count",
    "scalar.deviation_mean.iters": "count",
    "scalar.deviation_mean.self_s": "s",
    "scalar.deviation_mean.nonconverged": "count",
    "scalar.closed_form.calls": "count",
    "scalar.closed_form.self_s": "s",
    "scalar.matkowski.calls": "count",
    "scalar.inverse.calls": "count",
    "vector.vi.calls": "count",
    "vector.vi.iters": "count",
    "vector.vi.iters_p50": "count",
    "vector.vi.iters_p90": "count",
    "vector.vi.hull_iters_p50": "count",
    "vector.vi.hull_iters_p90": "count",
    "vector.vi.self_s": "s",
    "vector.vi.nonconverged": "count",
    "vector.potential.calls": "count",
    "vector.potential.iters": "count",
    "vector.potential.iters_p50": "count",
    "vector.potential.iters_p90": "count",
    "vector.potential.self_s": "s",
    "vector.potential.nonconverged": "count",
    "vector.verify_vi.self_s": "s",
    "expr.calls": "count",
    "expr.calls_per_solve": "ratio",
    "expr.self_s": "s",
    "descriptors.build_mean.self_s": "s",
    "suites.build_runner.self_s": "s",
    "setup.import_s": "s",
    "cli.self_s": "s",
    "item.self_s": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_frac": "ratio",
}
TIMED = {name for name, unit in PER_LAYER.items() if unit == "s"}


@dataclasses.dataclass
class RunResult:
    summary: dict        # the result line
    record: dict         # everything, for the result file
    lines: list          # human-readable report


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile (q in [0, 1]) of a nonempty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (Harrell & Davis, Biometrika
    1982): a mean of all order statistics with beta weights centred on rank
    q * n.  Item costs cluster, and a plain sample quantile that falls
    between two clusters jumps when one item changes rank; this one moves
    smoothly."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    edges = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.diff(edges) @ ordered)


def _spread(values) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def layer_metrics(records: list, leaf: dict) -> dict:
    """Per-layer counts and self times of one traced pass."""
    by = defaultdict(list)
    names = {}
    for rec in records:
        by[rec[1]].append(rec)
        names[rec[0]] = rec[1]

    def parent(rec):
        return names.get(rec[4])

    def total(name, key=None):
        if key is None:
            return sum(r[6] for r in by[name])
        return sum(r[8].get(key, 0) for r in by[name])

    def nonconverged(name):
        return sum(1 for r in by[name] if r[8].get("converged") is False)

    m = {}
    m["lab.trials"] = sum(r[8].get("trials", 0) for r in by["lab"] if parent(r) != "lab")
    m["lab.self_s"] = total("lab")
    inner = defaultdict(int)
    for rec in by["scalar.deviation_mean"]:
        if parent(rec) == "reduction.scalar":
            inner[rec[4]] += 1
    for kind in ("scalar", "vector"):
        name = f"reduction.{kind}"
        m[f"{name}.calls"] = len(by[name])
        m[f"{name}.iters"] = total(name, "iters")
        m[f"{name}.mean_evals"] = sum(r[7].get("mean_evals", 0) for r in by[name])
        m[f"{name}.self_s"] = total(name)
        m[f"{name}.nonconverged"] = nonconverged(name)
    m["reduction.scalar.multiple_suspected"] = sum(
        1 for r in by["reduction.scalar"] if r[8].get("flag") == "multiple-suspected")
    calls = m["reduction.scalar.calls"]
    m["reduction.scalar.inner_solves_per_call"] = sum(inner.values()) / calls if calls else 0.0
    lehmer = [r[0] for r in by["reduction.scalar"] if "/deviation-lehmer@" in (r[5] or "")]
    m["reduction.scalar.lehmer_inner_solves_per_call"] = (
        sum(inner[i] for i in lehmer) / len(lehmer) if lehmer else 0.0)
    evals = m["reduction.vector.mean_evals"]
    m["reduction.vector.useful_ratio"] = m["reduction.vector.iters"] / evals if evals else 0.0
    m["scalar.deviation_mean.calls"] = len(by["scalar.deviation_mean"])
    m["scalar.deviation_mean.iters"] = total("scalar.deviation_mean", "iters")
    m["scalar.deviation_mean.self_s"] = total("scalar.deviation_mean")
    m["scalar.deviation_mean.nonconverged"] = nonconverged("scalar.deviation_mean")
    for name in ("scalar.closed_form", "scalar.matkowski", "scalar.inverse", "expr"):
        calls_s = leaf.get(name, (0, 0.0))
        m[f"{name}.calls"] = calls_s[0]
        if f"{name}.self_s" in PER_LAYER:
            m[f"{name}.self_s"] = calls_s[1]
    for name in ("vector.vi", "vector.potential"):
        iters = [r[8]["iters"] for r in by[name] if "iters" in r[8]]
        m[f"{name}.calls"] = len(by[name])
        m[f"{name}.iters"] = sum(iters)
        m[f"{name}.iters_p50"] = _quantile(iters, 0.5) if iters else 0.0
        m[f"{name}.iters_p90"] = _quantile(iters, 0.9) if iters else 0.0
        m[f"{name}.self_s"] = total(name)
        m[f"{name}.nonconverged"] = nonconverged(name)
    # VI solves of the hull problems themselves (not those nested in a
    # reduction or an oracle check): the ROADMAP's criterion-5 iteration set.
    hull = [r[8]["iters"] for r in by["vector.vi"]
            if parent(r) in ("item", "descriptors.build_mean") and "iters" in r[8]]
    m["vector.vi.hull_iters_p50"] = _quantile(hull, 0.5) if hull else 0.0
    m["vector.vi.hull_iters_p90"] = _quantile(hull, 0.9) if hull else 0.0
    m["vector.verify_vi.self_s"] = total("vector.verify_vi")
    m["reduction.oracle.self_s"] = total("reduction.oracle")
    solves = [r[7].get("expr", 0) for name in layers.SOLVES for r in by[name]]
    with_expr = [c for c in solves if c > 0]
    m["expr.calls_per_solve"] = sum(with_expr) / len(with_expr) if with_expr else 0.0
    m["descriptors.build_mean.self_s"] = total("descriptors.build_mean")
    m["suites.build_runner.self_s"] = total("suites.build_runner")
    m["cli.self_s"] = total("cli")
    m["item.self_s"] = total("item")
    return m


def at_reference_speed(monitor, result) -> tuple:
    """A pass's time and its per-item latencies, rescaled to reference speed.

    Each item is rescaled by the reference loops timed during and around it
    (see :mod:`calibrate`); the rest of the pass (CLI, runner building,
    report writing, checks) by the loops of the whole pass.
    """
    items = {item: monitor.at_reference_speed(iv) for item, iv in result.latencies}
    rest = result.interval.own_s - sum(iv.own_s for _, iv in result.latencies)
    rest *= calibrate.REFERENCE_LOOP_S / monitor.loop_time(result.interval)
    return sum(items.values()) + rest, items


def pass_seconds(monitor, passes: list) -> float:
    """Median over passes of the time of one full pass at reference speed."""
    return statistics.median(at_reference_speed(monitor, r)[0] for r in passes)


def item_latencies(monitor, passes: list) -> dict:
    """Each item's median latency over passes, at reference speed."""
    per_item = defaultdict(list)
    for result in passes:
        for item, t in at_reference_speed(monitor, result)[1].items():
            per_item[item].append(t)
    return {item: statistics.median(v) for item, v in per_item.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, outdir: str,
                 probe, setup_repeats: int, min_passes: int) -> RunResult:
    """Run passes for ``seconds``, and at least ``min_passes`` untraced ones
    (alternating with traced ones when ``trace``).  A set-up probe in a fresh
    interpreter follows each of the first untraced passes, so that the probes
    sample the machine at different moments."""
    bench = workloads.make(name, seed, outdir)
    setup_runs = []
    untraced, traced, per_pass, first_spans = [], [], [], None
    failed_items, wrong = {}, {}
    checks = []
    with layers.Patcher() as patcher, calibrate.SpeedMonitor() as monitor:
        bench.install(patcher)
        bench.build()
        bench.monitor = monitor
        reference = None  # the first pass; every pass must produce its outputs

        def absorb(result, label):
            for item, reason in result.failed:
                failed_items[item] = reason
            for item, reason in result.wrong:
                wrong[item] = reason
            if result.digest != reference.digest:
                checks.append(f"{label} pass outputs differ from the first pass")

        deadline = _clock() + seconds
        while True:
            result = bench.run_pass()
            reference = reference or result
            absorb(result, "untraced")
            untraced.append(result)
            if len(setup_runs) < setup_repeats:
                with monitor.paused():
                    setup_runs.append(probe())
            if trace:
                tracer = layers.Tracer()
                with layers.Patcher() as tracing:
                    layers.install(tracing, tracer)
                    bench.tracer = tracer
                    try:
                        result = bench.run_pass()
                    finally:
                        bench.tracer = None
                absorb(result, "traced")
                traced.append(result)
                per_pass.append(layer_metrics(tracer.records(), tracer.leaf))
                if first_spans is None:
                    first_spans = tracer.records()
                del tracer
            if len(untraced) >= min_passes and _clock() >= deadline:
                break
        with monitor.paused():
            while len(setup_runs) < setup_repeats:
                setup_runs.append(probe())

    items = sum(len(r.latencies) for r in untraced + traced)
    failed = sum(len(r.failed) for r in untraced + traced)
    latencies_ms = [1e3 * t for t in item_latencies(monitor, untraced).values()]
    if failed and name != "vector-hull":
        checks.append(f"{failed} failed items on a workload that must have none")
    lines = [f"workload {name} seed {seed}: {len(untraced)} untraced passes"
             + (f", {len(traced)} traced passes" if trace else "")
             + f", {len(reference.latencies)} items per pass"]

    if not trace:
        metrics = {
            "pass_s": pass_seconds(monitor, untraced),
            "item_p50_ms": _hd_quantile(latencies_ms, 0.5),
            "item_p90_ms": _hd_quantile(latencies_ms, 0.9),
            "setup_s": statistics.median(r["ref_setup_s"] for r in setup_runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (items - failed) / items,
        }
        units = END_TO_END
        lines.append(f"items: {len(latencies_ms)}, each at its median of {len(untraced)} "
                     f"passes (p90 has {len(latencies_ms) - int(0.9 * len(latencies_ms))} "
                     "beyond it)")
    else:
        counts = [{k: v for k, v in m.items() if k not in TIMED} for m in per_pass]
        if any(c != counts[0] for c in counts[1:]):
            diff = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
            checks.append(f"layer counts differ between traced passes: {diff}")
        metrics = dict(per_pass[0])
        for key in TIMED & set(metrics):
            metrics[key] = statistics.median(m[key] for m in per_pass)
        metrics["setup.import_s"] = statistics.median(r["ref_import_s"] for r in setup_runs)
        traced_s = pass_seconds(monitor, traced)
        untraced_s = pass_seconds(monitor, untraced)
        metrics["trace.pass_s"] = traced_s
        metrics["trace.untraced_pass_s"] = untraced_s
        metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        units = PER_LAYER
        spans_path = os.path.join(outdir, f"spans-{name}-{seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "item", "self_s",
                                 "counts", "attrs"]) + "\n")
            for rec in first_spans:
                fh.write(json.dumps(rec) + "\n")
        lines.append(f"spans of the first traced pass: {len(first_spans)} "
                     f"-> {os.path.basename(spans_path)}")
        lines.append(f"tracing overhead: {traced_s - untraced_s:.4f} s per pass "
                     f"({100 * metrics['trace.overhead_frac']:.1f}% of {untraced_s:.4f} s)")

    for metric in units:
        lines.append(f"{metric:<48} {metrics[metric]:>14.6g} {units[metric]}")
    for item, reason in sorted(failed_items.items()):
        lines.append(f"FAILED {item}: {reason}")
    problems = checks + [f"WRONG {item}: {reason}" for item, reason in sorted(wrong.items())]
    lines += [f"CHECK FAILED: {p}" for p in problems]
    summary = {
        "correct": not problems,
        "attempted": items,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record = {
        "workload": name,
        "seed": seed,
        "summary": summary,
        "reference_loop_s": calibrate.REFERENCE_LOOP_S,
        "pass_s": [at_reference_speed(monitor, r)[0] for r in untraced],
        "own_pass_s": [r.interval.own_s for r in untraced],
        "loop_s": [monitor.loop_time(r.interval) for r in untraced],
        "loops_timed": len(monitor.samples),
        "loops_s": monitor.spent,
        "traced_pass_s": [at_reference_speed(monitor, r)[0] for r in traced],
        "setup_runs": setup_runs,
        "failed_items": failed_items,
        "check_failures": problems,
        "item_ms": {item: 1e3 * t for item, t in item_latencies(monitor, untraced).items()},
        "layer_spread": {k: _spread([m[k] for m in per_pass]) for k in TIMED if per_pass
                         and k in per_pass[0]},
    }
    return RunResult(summary, record, lines)
