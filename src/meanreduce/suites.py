"""Verification suites: JSON case corpora and their runner.

A suite file is ``{"schema": 1, "name": ..., "cases": [...]}`` with at
least one case.  Case types:

- ``convexity``: f with a domain-side mean M and a scalar range-side mean N;
  optional ``chi`` adds the reduced k-variable check.
- ``comparison``: two scalar means G <= E plus the reduced comparison.
- ``holder-minkowski``: slot families N_i, outer scalar mean M, combining
  function f ("sum" or "product"), plus the reduced check.
- ``weighted-arith-reduction`` / ``deviation-reduction``: two-route oracle
  agreement checks from the reduction module.

``build_runner`` reads every field of a case once, when it builds the case.
A case's name is its ``name``, else its ``type``, else "case", and every
fault of its content is raised as one MeansError of the fault's own type
(InvalidArgumentError for a missing or malformed field) whose message
starts ``case '<name>': ``.  ``trials`` and ``samples`` are at least 1.

``expected`` is "pass" (no counterexample anywhere) or "fail" (the full
check must produce a counterexample; an oracle case, a failed sample).
``_judge`` gives the verdict of every kind.  Whatever the expectation, a
case whose full check passes while its reduced check finds a violation is
an implication violation: the reduction theorems exclude it, so it fails
the suite as a machinery defect; ``_judge`` reads it off the ReportPair.

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
    _point_expression,
    build_deviations,
    build_mean,
    build_point_weight,
    build_weights,
    parse_domain,
)
from .errors import InvalidArgumentError, MeansError
from .expr import parse_expression
from .lab import (
    BoxSampler,
    ConvexityCase,
    CounterexampleReport,
    FuzzCase,
    HolderMinkowskiCase,
    ReportPair,
    _violates,
    check_convexity,
    check_holder_minkowski,
    check_reduced_convexity,
    combiner,
    compare_means,
    fuzz_suite,
)
from .reduction import (
    MeanFn,
    OracleCheckReport,
    check_deviation_reduction,
    check_weighted_arith_reduction,
)
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
    if not isinstance(data, dict) or not isinstance(data.get("cases"), list) or not data["cases"]:
        raise InvalidArgumentError("a suite must be an object with a nonempty 'cases' list")
    return data


def _count(key: str, value) -> int:
    """A count of trials or samples, which must be at least 1."""
    count = int(value)
    if count < 1:
        raise InvalidArgumentError(f"{key} must be at least 1")
    return count


def _mean(data) -> MeanFn:
    """The mean a case's descriptor describes, solved at REDUCTION_CFG."""
    return build_mean(MeanDescriptor.from_json(data), REDUCTION_CFG)


def _build_function(spec, dim: Optional[int]) -> Callable:
    """The case function f from an expression in u (scalar) or u1..ud.  A
    scalar f carries the expression's numpy form as its ``batch``
    attribute, which the lab screens trials with."""
    if dim is not None:
        return _point_expression(spec, dim)
    fn, batch = parse_expression(str(spec), allowed=("u",)).bind_batch(("u",))

    def f(u, fn=fn):
        return fn(float(u))

    f.batch = batch
    return f


def _sampler(spec, dim: Optional[int] = None) -> BoxSampler:
    if spec is None:
        return BoxSampler(low=0.1, high=4.0, dim=dim, log_uniform=True)
    return BoxSampler.from_json({"dim": dim, **spec})


def _chi(case: dict, arity: int) -> Injection:
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
    return (_count("trials", case.get("trials", trials)), *tols)


def build_runner(case: dict, trials: int, tol: float, reduced_tol: float) -> FuzzCase:
    """Compile one suite case into a seeded runnable returning its entry.

    A case that fails to build raises a MeansError: InvalidArgumentError
    for a case that is not an object, else the error of its faulty content,
    prefixed ``case '<name>': ``.  The error's ``entry`` is a FuzzCase of
    the case that raises it again when run, which ``fuzz`` records as an
    error entry.
    """
    if not isinstance(case, dict):
        _refuse("case", None, InvalidArgumentError(f"a suite case must be an object, got {case!r}"))
    kind = case.get("type")
    name = case.get("name", kind or "case")
    try:
        return FuzzCase(name=name, kind=kind,
                        runner=_compile_case(case, kind, name, trials, tol, reduced_tol))
    except KeyError as exc:
        error = InvalidArgumentError(f"missing field {exc}")
    except MeansError as exc:
        error = exc
    except (TypeError, ValueError, OverflowError) as exc:
        error = InvalidArgumentError(str(exc))
    _refuse(name, kind, type(error)(f"case {name!r}: {error}"))


def _refuse(name, kind, error: MeansError):
    """Raise ``error``, its ``entry`` the case's FuzzCase that raises it."""
    def fail(seed: int, trials: int):
        raise error

    error.entry = FuzzCase(name=name, kind=kind, runner=fail)
    raise error


def _compile_case(case: dict, kind, name, trials: int, tol: float,
                  reduced_tol: float) -> Callable[[int, int], dict]:
    expected = case.get("expected", "pass")
    if expected not in ("pass", "fail"):
        raise InvalidArgumentError("expected must be 'pass' or 'fail'")
    trials, tol, reduced_tol = _case_tols(case, trials, tol, reduced_tol)
    if tol == 0.0 and kind in ("weighted-arith-reduction", "deviation-reduction"):
        # The oracles derive the abs_tol of their solves from tol.
        raise InvalidArgumentError(f"tol must be positive for a {kind} case")

    if kind == "convexity":
        M, N = _mean(case["M"]), _mean(case["N"])
        conv = ConvexityCase(M=M, N=N, f=_build_function(case["f"], M.dim),
                             sampler=_sampler(case.get("domain"), M.dim), name=name)
        chi = _chi(case, M.arity) if "chi" in case else None

        def check(seed: int):
            full = check_convexity(conv, trials, tol, seed=seed)
            if chi is None:
                return full
            return ReportPair(full, check_reduced_convexity(
                conv, chi, trials, reduced_tol, seed=seed + 1, cfg=REDUCTION_CFG))

    elif kind == "comparison":
        G, E = _mean(case["G"]), _mean(case["E"])
        chi = _chi(case, G.arity)
        sampler = _sampler(case.get("domain"))

        def check(seed: int):
            return compare_means(G, E, chi, trials, tol, sampler=sampler, seed=seed,
                                 cfg=REDUCTION_CFG, reduced_tol=reduced_tol, name=name)

    elif kind == "holder-minkowski":
        N_list = tuple(_mean(d) for d in case["N"])
        M = _mean(case["M"])
        chi = _chi(case, M.arity)
        domains = case.get("domains")
        if domains is None:
            domains = [case.get("domain")] * len(N_list)
        hm = HolderMinkowskiCase(N_list=N_list, M=M, f=combiner(case.get("f", "product")),
                                 chi=chi, samplers=tuple(_sampler(d) for d in domains),
                                 name=name)

        def check(seed: int):
            return check_holder_minkowski(hm, trials, tol, seed=seed, cfg=REDUCTION_CFG,
                                          reduced_tol=reduced_tol)

    elif kind == "weighted-arith-reduction":
        weights = build_weights(case["weights"], parse_domain(case.get("domain", [0.2, 6.0])))
        chi = _chi(case, len(weights))
        samples = _count("samples", case.get("samples", 60))

        def check(seed: int):
            return check_weighted_arith_reduction(weights, chi, samples, tol, seed=seed,
                                                  cfg=REDUCTION_CFG)

    elif kind == "deviation-reduction":
        samples = _count("samples", case.get("samples", 40))
        low, high = float(case.get("low", -2.0)), float(case.get("high", 2.0))
        if "exprs" in case:
            entries = build_deviations(case["exprs"],
                                       parse_domain(case.get("domain", [0.2, 6.0])))
        else:
            dim = int(case["dim"])
            entries = tuple(inner_product_deviation(build_point_weight(w, dim), dim)
                            for w in case.get("weights", [1.0]))
        chi = _chi(case, len(entries))

        def check(seed: int):
            return check_deviation_reduction(entries, chi, samples, tol, seed=seed,
                                             cfg=REDUCTION_CFG, low=low, high=high)

    else:
        raise InvalidArgumentError(f"unknown type {kind!r}")

    def run(seed: int, run_trials: int) -> dict:
        return _judge(expected, check(seed), tol)

    return run


def _judge(expected: str,
           result: Union[OracleCheckReport, ReportPair, CounterexampleReport],
           tol: float) -> dict:
    """The entry of a case: its reports and its verdict.  ``result`` is the
    report of an oracle case, which passes where no sample fails; the
    ReportPair of an inequality case, whose ``implication_violated`` fails
    it; or the full report of a convexity case without chi, which has no
    reduced check to violate it.  An inequality case entry also records its
    expectation."""
    if isinstance(result, OracleCheckReport):
        return dict(result.to_json(), ok=result.passed == (expected == "pass"))
    pair = result if isinstance(result, ReportPair) else None
    full = result.full if pair else result
    out = pair.to_json() if pair else {"full": full.to_json(), "implication_violated": False}
    if expected == "pass":
        ok = not full.found and not (pair and pair.reduced.found)
    else:
        # A deliberate failure must produce a strict, re-evaluated witness.
        ok = bool(full.found and _violates(full.lhs, full.rhs, tol))
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
