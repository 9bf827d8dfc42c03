"""Tests of the benchmark harness itself (run: python -m pytest perfbench/tests)."""

import json
import os
import signal
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import meanreduce  # noqa: E402
import meanreduce.cli  # noqa: E402,F401
import meanreduce.suites  # noqa: E402,F401
from meanreduce.core import Injection  # noqa: E402
from meanreduce.expr import Expression  # noqa: E402
from meanreduce.reduction import MeanFn  # noqa: E402
from meanreduce.scalar import DeviationTuple, identity_generator, constant_weight  # noqa: E402
from meanreduce.scalar import make_bajraktarevic_deviation  # noqa: E402

import bench  # noqa: E402
import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    """Every attribute of every meanreduce module, plus the patched methods."""
    out = {}
    for module in layers.meanreduce_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
    out[("Expression", "__call__")] = Expression.__dict__["__call__"]
    out[("MeanFn", "__call__")] = MeanFn.__dict__["__call__"]
    return out


def test_wrappers_replace_every_binding_and_restore_the_originals():
    before = _bindings()
    original = meanreduce.vector.gen_deviation_mean
    with layers.Patcher() as patcher:
        layers.install(patcher, layers.Tracer())
        # The name is replaced wherever it was imported, not just where defined.
        for module in (meanreduce, meanreduce.vector, meanreduce.reduction,
                       meanreduce.descriptors):
            assert module.gen_deviation_mean is not original
            assert module.gen_deviation_mean.__wrapped__ is original
        assert Expression.__dict__["__call__"] is not before[("Expression", "__call__")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_restore_happens_when_the_traced_code_raises():
    before = _bindings()
    try:
        with layers.Patcher() as patcher:
            layers.install(patcher, layers.Tracer())
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def _lehmer_mean():
    dev = make_bajraktarevic_deviation(identity_generator(), constant_weight(1.0))
    devs = DeviationTuple((dev, dev, dev))
    return MeanFn(arity=3, label="arith",
                  eval=lambda xs: meanreduce.scalar.deviation_mean(devs, xs).value)


def test_traced_reduction_has_nested_spans_counts_and_self_times():
    M = _lehmer_mean()
    chi = Injection.of([1, 3], n=3)
    plain = meanreduce.reduction.reduce_scalar(M, chi, (0.5, 2.0))
    tracer = layers.Tracer()
    with layers.Patcher() as patcher:
        layers.install(patcher, tracer)
        traced = meanreduce.reduction.reduce_scalar(M, chi, (0.5, 2.0))
    assert traced.reduced_value == plain.reduced_value
    records = tracer.records()
    names = {r[0]: r[1] for r in records}
    reductions = [r for r in records if r[1] == "reduction.scalar"]
    solves = [r for r in records if r[1] == "scalar.deviation_mean"]
    assert len(reductions) == 1 and solves
    assert all(names[s[4]] == "reduction.scalar" for s in solves)
    red = reductions[0]
    assert red[7]["mean_evals"] == len(solves)
    assert red[8]["iters"] == plain.certificate.iterations
    children = sum(s[3] - s[2] for s in solves)
    assert abs(red[6] - ((red[3] - red[2]) - children)) < 1e-9
    metrics = bench.layer_metrics(records, tracer.leaf)
    assert metrics["reduction.scalar.inner_solves_per_call"] == len(solves)


def test_nested_suite_is_a_fixed_corpus():
    a = workloads.nested_suite()
    assert a == workloads.nested_suite()
    generated = [c for c in a["cases"] if c["name"].startswith("gen-")]
    assert len(generated) == workloads.NESTED_GENERATED
    assert sorted({len(c.get("exprs", c.get("weights"))) for c in generated}) == [2, 3, 4, 5, 6]


def test_vector_plan_is_deterministic_and_keeps_the_corpus():
    corpus = workloads.vector_corpus(count=6)
    again = workloads.vector_corpus(count=6)
    for p, q in zip(corpus, again):
        assert (p.n, p.d, p.chi) == (q.n, q.d, q.chi)
        assert all(np.array_equal(a, b) for a, b in zip(p.cloud, q.cloud))
    plan = workloads.seeded_plan(3, corpus)
    same = workloads.seeded_plan(3, corpus)
    other = workloads.seeded_plan(4, corpus)
    assert [i for i, _ in plan] == [i for i, _ in same]
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(plan, same))
    assert sorted(i for i, _ in plan) == list(range(6))
    assert any(not np.array_equal(a[1], b[1]) for a, b in zip(plan, other))
    for _, Q in plan:
        assert np.allclose(Q @ Q.T, np.eye(Q.shape[0]))


def test_built_problem_routes_agree_in_both_input_forms():
    corpus = workloads.vector_corpus(count=4)
    for index, Q in workloads.seeded_plan(0, corpus):
        problem = workloads.BuiltProblem(corpus[index], Q)
        vi, pot, check, oracle = problem.solve()
        assert vi.converged and pot.converged and check.ok and oracle.passed
        assert np.linalg.norm(vi.value - pot.value) <= workloads.AGREE_TOL


def test_benchmark_file_names_every_reported_metric():
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["end_to_end"] and all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_speed_monitor_times_loops_rescales_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.SpeedMonitor(interval=0.01) as monitor:
        t0 = time.perf_counter()
        token = monitor.start()
        while time.perf_counter() < t0 + 0.2:
            pass
        interval = monitor.stop(token)
        wall = time.perf_counter() - t0
        with monitor.paused():
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            paused_at = len(monitor.samples)
            time.sleep(0.05)
            assert len(monitor.samples) == paused_at
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert interval.last - interval.first >= 3
    # Own time excludes the loops timed inside the interval.
    inside = sum(monitor.samples[interval.first:interval.last])
    assert 0.2 - 1e-3 <= interval.own_s + inside <= wall
    near = monitor.samples[max(0, interval.first - 4):interval.last + 4]
    assert monitor.loop_time(interval) == statistics.harmonic_mean(near)
    expected = interval.own_s * calibrate.REFERENCE_LOOP_S / monitor.loop_time(interval)
    assert monitor.at_reference_speed(interval) == expected


def test_hd_quantile_is_smooth_across_a_gap_between_clusters():
    values = [1.0] * 50 + [10.0] * 50
    moved = [1.0] * 49 + [10.0] * 51
    assert abs(bench._hd_quantile(values, 0.5) - 5.5) < 1e-9
    # One item changing cluster moves the estimate a little, not by 9.
    assert 0 < bench._hd_quantile(moved, 0.5) - bench._hd_quantile(values, 0.5) < 1.0
    same = [3.0] * 40
    assert abs(bench._hd_quantile(same, 0.9) - 3.0) < 1e-9
