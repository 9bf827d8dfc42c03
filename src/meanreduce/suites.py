"""Verification suites: JSON case corpora and their runner.

A suite file is ``{"schema": 1, "name": ..., "cases": [...]}``.  Case types:

- ``convexity``: f with a domain-side mean M and a scalar range-side mean N;
  optional ``chi`` adds the reduced k-variable check.
- ``comparison``: two scalar means G <= E plus the reduced comparison.
- ``holder-minkowski``: slot families N_i, outer scalar mean M, combining
  function f ("sum" or "product"), plus the reduced check.
- ``weighted-arith-reduction`` / ``deviation-reduction``: two-route oracle
  agreement checks from the reduction module.

``expected`` is "pass" (no counterexample anywhere) or "fail" (the full
check must produce a counterexample).  Whatever the expectation, a case
whose full check passes while its reduced check finds a violation is an
implication violation: the reduction theorems exclude it, so it fails the
suite as a machinery defect; ``_judge`` reads it off the ReportPair.

The reduced checks search with the means reduced by selection: every mean a
descriptor builds carries a ``MeanFn.select`` hook, so a reduced evaluation
is one evaluation of the family's k-variable mean.  A witness a reduced
check records is evaluated again by the fixed-point reductions, and those
sides are reported; a side that disagrees beyond ``reduced_tol``, or
``REDUCTION_CFG.abs_tol`` if larger, makes the case an error
(ReductionMismatchError).  The ``*-reduction`` oracle cases keep the fixed
point against selection.

Runs are deterministic: per-case seeds derive from the suite seed by index,
and reports are plain JSON data.
"""

from __future__ import annotations

import json
import math
import os
from importlib import resources
from typing import Callable, Optional, Union

from .core import Injection, SolverConfig
from .descriptors import (
    MeanDescriptor,
    _of_points,
    build_deviations,
    build_mean,
    build_point_weight,
    build_weights,
    parse_domain,
)
from .errors import InvalidArgumentError
from .expr import parse_expression
from .lab import (
    BoxSampler,
    ConvexityCase,
    CounterexampleReport,
    FuzzCase,
    HolderMinkowskiCase,
    ReportPair,
    check_convexity,
    check_holder_minkowski,
    check_reduced_convexity,
    combiner,
    compare_means,
    fuzz_suite,
)
from .reduction import check_deviation_reduction, check_weighted_arith_reduction
from .vector import inner_product_deviation

SCHEMA_VERSION = 1

DEFAULT_TRIALS = 40
DEFAULT_TOL = 1e-9
DEFAULT_REDUCED_TOL = 1e-8

# Tolerances for reductions nested inside suite checks: the certificate must
# stay attainable when every mean evaluation is itself an iterative solve.
REDUCTION_CFG = SolverConfig(abs_tol=1e-10, rel_tol=1e-12)


def packaged_suite_names() -> list[str]:
    base = resources.files("meanreduce").joinpath("suites")
    return sorted(p.name for p in base.iterdir() if p.name.endswith(".json"))


def load_suite(source: str) -> dict:
    """Load a suite from a filesystem path or a packaged suite name."""
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        name = source if source.endswith(".json") else source + ".json"
        entry = resources.files("meanreduce").joinpath("suites").joinpath(name)
        if not entry.is_file():
            raise InvalidArgumentError(
                f"no suite file at {source!r} and no packaged suite "
                f"{name!r} (available: {', '.join(packaged_suite_names())})"
            )
        data = json.loads(entry.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "cases" not in data or not isinstance(data["cases"], list):
        raise InvalidArgumentError("a suite must be an object with a 'cases' list")
    return data


def _build_function(spec, dim: Optional[int]) -> Callable:
    """The case function f from an expression in u (scalar) or u1..ud.  A
    scalar f carries the expression's numpy form as its ``batch``
    attribute, which the lab screens trials with."""
    if callable(spec):
        return spec
    text = str(spec)
    if dim is None:
        fn, batch = parse_expression(text, allowed=("u",)).bind_batch(("u",))

        def f(u, fn=fn):
            return fn(float(u))

        f.batch = batch
        return f
    allowed = tuple(f"u{i + 1}" for i in range(dim))
    return _of_points(parse_expression(text, allowed=allowed).bind(allowed))


def _sampler(spec, dim: Optional[int] = None) -> BoxSampler:
    if spec is None:
        return BoxSampler(low=0.1, high=4.0, dim=dim, log_uniform=True)
    data = dict(spec)
    data.setdefault("dim", dim)
    if data.get("dim") is None:
        data.pop("dim", None)
    return BoxSampler.from_json(data)


def _chi(case: dict, arity: int) -> Injection:
    if "chi" not in case:
        raise InvalidArgumentError(f"case {case.get('name')!r} needs a 'chi' entry")
    return Injection.of([int(v) for v in case["chi"]], n=arity)


def _case_tols(case: dict, trials: int, tol: float, reduced_tol: float):
    """The case's trial count and tolerances, its own fields over the run's.
    A NaN, infinite or negative tolerance raises InvalidArgumentError: a NaN
    slack would pass every check, a negative one fail every check."""
    tols = []
    for key, default in (("tol", tol), ("reduced_tol", reduced_tol)):
        value = float(case.get(key, default))
        if not (math.isfinite(value) and value >= 0.0):
            raise InvalidArgumentError(f"{key} must be finite and nonnegative, got {value}")
        tols.append(value)
    return (int(case.get("trials", trials)), *tols)


def build_runner(case: dict, trials: int, tol: float, reduced_tol: float) -> FuzzCase:
    """Compile one suite case into a seeded runnable returning its report.

    A case that is not an object, or lacks a field its type needs, raises
    InvalidArgumentError.
    """
    if not isinstance(case, dict):
        raise InvalidArgumentError(f"a suite case must be an object, got {case!r}")
    try:
        return _compile_case(case, trials, tol, reduced_tol)
    except KeyError as exc:
        name = case.get("name", case.get("type") or "case")
        raise InvalidArgumentError(f"case {name!r}: missing field {exc}") from None


def _compile_case(case: dict, trials: int, tol: float, reduced_tol: float) -> FuzzCase:
    kind = case.get("type")
    name = case.get("name", kind or "case")
    expected = case.get("expected", "pass")
    if expected not in ("pass", "fail"):
        raise InvalidArgumentError(f"case {name!r}: expected must be 'pass' or 'fail'")
    trials, tol, reduced_tol = _case_tols(case, trials, tol, reduced_tol)
    if tol == 0.0 and kind in ("weighted-arith-reduction", "deviation-reduction"):
        # The oracles derive the abs_tol of their solves from tol.
        raise InvalidArgumentError(f"case {name!r}: tol must be positive for a {kind} case")

    if kind == "convexity":
        M = build_mean(MeanDescriptor.from_json(case["M"]), REDUCTION_CFG)
        N = build_mean(MeanDescriptor.from_json(case["N"]), REDUCTION_CFG)
        f = _build_function(case["f"], M.dim)
        sampler = _sampler(case.get("domain"), M.dim)
        conv = ConvexityCase(M=M, N=N, f=f, sampler=sampler, name=name)
        chi = _chi(case, M.arity) if "chi" in case else None

        def run(seed: int, run_trials: int) -> dict:
            full = check_convexity(conv, trials, tol, seed=seed)
            if chi is None:
                return _judge(expected, full, tol)
            return _judge(expected, ReportPair(full, check_reduced_convexity(
                conv, chi, trials, reduced_tol, seed=seed + 1, cfg=REDUCTION_CFG)), tol)

    elif kind == "comparison":
        G = build_mean(MeanDescriptor.from_json(case["G"]), REDUCTION_CFG)
        E = build_mean(MeanDescriptor.from_json(case["E"]), REDUCTION_CFG)
        chi = _chi(case, G.arity)
        sampler = _sampler(case.get("domain"))

        def run(seed: int, run_trials: int) -> dict:
            return _judge(expected, compare_means(G, E, chi, trials, tol, sampler=sampler,
                                                  seed=seed, cfg=REDUCTION_CFG,
                                                  reduced_tol=reduced_tol, name=name), tol)

    elif kind == "holder-minkowski":
        descriptors = case["N"]
        N_list = tuple(build_mean(MeanDescriptor.from_json(d), REDUCTION_CFG)
                       for d in descriptors)
        M = build_mean(MeanDescriptor.from_json(case["M"]), REDUCTION_CFG)
        chi = _chi(case, M.arity)
        domains = case.get("domains")
        if domains is None:
            domains = [case.get("domain")] * len(N_list)
        samplers = tuple(_sampler(d) for d in domains)
        f = combiner(case.get("f", "product"))
        hm = HolderMinkowskiCase(ell=len(N_list), N_list=N_list, M=M, f=f,
                                 chi=chi, samplers=samplers, name=name)

        def run(seed: int, run_trials: int) -> dict:
            return _judge(expected, check_holder_minkowski(hm, trials, tol, seed=seed,
                                                           cfg=REDUCTION_CFG,
                                                           reduced_tol=reduced_tol), tol)

    elif kind == "weighted-arith-reduction":
        domain = parse_domain(case.get("domain", [0.2, 6.0]))
        weights = build_weights(case["weights"], domain)
        chi = Injection.of([int(v) for v in case["chi"]], n=len(weights))
        samples = int(case.get("samples", 60))

        def run(seed: int, run_trials: int) -> dict:
            report = check_weighted_arith_reduction(weights, chi, samples, tol,
                                                    seed=seed, cfg=REDUCTION_CFG)
            out = report.to_json()
            out["ok"] = report.passed if expected == "pass" else not report.passed
            return out

    elif kind == "deviation-reduction":
        samples = int(case.get("samples", 40))
        if "exprs" in case:
            domain = parse_domain(case.get("domain", [0.2, 6.0]))
            devs = build_deviations(case["exprs"], domain)
            chi = Injection.of([int(v) for v in case["chi"]], n=len(devs))
            entries = devs
        else:
            dim = int(case["dim"])
            weights = case.get("weights", [1.0])
            entries = tuple(
                inner_product_deviation(build_point_weight(w, dim), dim)
                for w in weights
            )
            chi = Injection.of([int(v) for v in case["chi"]], n=len(entries))

        def run(seed: int, run_trials: int) -> dict:
            report = check_deviation_reduction(entries, chi, samples, tol,
                                               seed=seed, cfg=REDUCTION_CFG,
                                               low=float(case.get("low", -2.0)),
                                               high=float(case.get("high", 2.0)))
            out = report.to_json()
            out["ok"] = report.passed if expected == "pass" else not report.passed
            return out

    else:
        raise InvalidArgumentError(f"case {name!r}: unknown type {kind!r}")

    return FuzzCase(name=name, kind=kind, runner=run)


def _judge(expected: str, result: Union[ReportPair, CounterexampleReport], tol: float) -> dict:
    """The entry of an inequality case: its reports, the expectation and the
    verdict.  ``result`` is the case's ReportPair, whose
    ``implication_violated`` fails the case, or the full report of a
    convexity case without chi, which has no reduced check to violate it."""
    pair = result if isinstance(result, ReportPair) else None
    full = result.full if pair else result
    out = pair.to_json() if pair else {"full": full.to_json(), "implication_violated": False}
    if expected == "pass":
        ok = not full.found and not (pair and pair.reduced.found)
    else:
        # A deliberate failure must produce a strict, re-evaluated witness.
        ok = bool(full.found and full.gap is not None
                  and full.gap > tol * (1.0 + abs(full.lhs) + abs(full.rhs)))
    out.update(expected=expected, ok=ok and not (pair and pair.implication_violated))
    return out


def run_suite(suite: dict, seed: int = 0, trials: int = DEFAULT_TRIALS,
              tol: float = DEFAULT_TOL, reduced_tol: float = DEFAULT_REDUCED_TOL) -> dict:
    """Run every case and fold in the pass/fail expectations."""
    runners = [build_runner(c, trials, tol, reduced_tol) for c in suite["cases"]]
    report = fuzz_suite(runners, seed=seed, trials=trials)
    failures = sum(
        1 for entry in report["cases"] if entry.get("error") or not entry.get("ok", False)
    )
    report["schema"] = SCHEMA_VERSION
    report["suite"] = suite.get("name", "suite")
    report["tol"] = tol
    report["reduced_tol"] = reduced_tol
    report["failures"] = failures
    report["passed"] = failures == 0
    return report
