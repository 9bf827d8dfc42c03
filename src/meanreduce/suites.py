"""Verification suites: JSON case corpora and their runner.

A suite file (``_SUITE``) holds at least one case; a case's ``type`` picks
the table of its fields (``_CASES``).  ``build_runner`` reads every field of
a case once, through ``core._read_fields``, into what it builds the case
from: a key the table does not list, a missing field and a value its test
refuses are errors that name the field.  A case's name is its ``name``, else
its ``type``, else "case", and every fault of its content is raised as one
MeansError of the fault's own type whose message starts ``case '<name>': ``.

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
point against selection; each builds its two routes, the fixed point and
the mean of the entries its injection picks, once, with the case, and a run
only draws and compares.

Runs are deterministic: per-case seeds derive from the suite seed by index,
and reports are plain JSON data.
"""

from __future__ import annotations

import json
import math
import os
import sys
from importlib import resources
from typing import Callable, Optional, Union

from .core import (_FLAG, Injection, SolverConfig, _Field, _is_count, _is_number, _is_text,
                   _list_of, _or_null, _read_fields)
from .descriptors import (MeanDescriptor, _of_points, build_deviations, build_mean,
                          build_point_weight, build_weights, parse_domain)
from .errors import InvalidArgumentError, MeansError
from .expr import _point_keys, parse_expression
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
from .reduction import MeanFn, OracleCheckReport, deviation_oracle, weighted_arith_oracle
from .vector import inner_product_deviation

SCHEMA_VERSION = 1

DEFAULT_TRIALS = 40
DEFAULT_TOL = 1e-9
DEFAULT_REDUCED_TOL = 1e-8

# Tolerances for reductions nested inside suite checks: the certificate must
# stay attainable when every mean evaluation is itself an iterative solve.
REDUCTION_CFG = SolverConfig(abs_tol=1e-10, rel_tol=1e-12)

# The JSON records of a suite, each field with its test, the values it
# accepts in words and its default (core._read_fields).
_COUNT = "an integer of at least 1"
_SUITE = {"schema": _Field(lambda v: _is_count(v) and v == SCHEMA_VERSION, str(SCHEMA_VERSION),
                           SCHEMA_VERSION),
          "name": _Field(_is_text, "a string", "suite"),
          "description": _Field(_is_text, "a string", ""),
          "cases": _Field(lambda cases: isinstance(cases, list) and cases != [],
                          "a nonempty list of cases")}
# A case's sampler box, read into BoxSampler's keywords; each bound holds
# for every coordinate, and the dimension is its mean's.
_BOX = {"low": _Field(_is_number, "a number", 0.0), "high": _Field(_is_number, "a number", 1.0),
        "log_uniform": _FLAG}
_SAMPLER = _Field(lambda box: dict(zip(_BOX, _read_fields(box, _BOX))), "a sampler box",
                  {"low": 0.1, "high": 4.0, "log_uniform": True})
_INTERVAL = _Field(parse_domain, "a domain", [0.2, 6.0])
_MEAN = _Field(MeanDescriptor.from_json, "a mean descriptor")
_CHI = _Field(_list_of(_is_count), "a list of slots, integers of at least 1")
_WEIGHTS = _Field(_list_of(lambda w: _is_number(w) or _is_text(w)),
                  "a list of numbers and expressions")
_TOL = _Field(lambda t: _is_number(t) and math.isfinite(t) and t >= 0.0,
              "a finite number of at least 0", DEFAULT_TOL)
# A case's name defaults to its type (``build_runner``).
_CASE = {"name": _Field(_is_text, "a string"), "type": _Field(_is_text, "a string"),
         "expected": _Field(lambda e: e in ("pass", "fail"), "'pass' or 'fail'", "pass")}
_INEQUALITY = {**_CASE, "tol": _TOL, "trials": _Field(_is_count, _COUNT, DEFAULT_TRIALS),
               "reduced_tol": _TOL._replace(default=DEFAULT_REDUCED_TOL)}
# The oracles derive the abs_tol of their solves from tol.
_ORACLE = {**_CASE, "tol": _Field(lambda t: _TOL.test(t) and t > 0.0, "a positive finite number",
                                  DEFAULT_TOL), "chi": _CHI}
_CASES = {
    "convexity": {**_INEQUALITY, "f": _Field(_is_text, "an expression in u, or in u1..ud"),
                  "M": _MEAN, "N": _MEAN, "domain": _SAMPLER,
                  "chi": _Field(_or_null(_CHI.test), _CHI.expected + ", or null", None)},
    "comparison": {**_INEQUALITY, "G": _MEAN, "E": _MEAN, "chi": _CHI, "domain": _SAMPLER},
    "holder-minkowski": {
        **_INEQUALITY, "N": _Field(_list_of(_MEAN.test), "a list of mean descriptors"), "M": _MEAN,
        "f": _Field(lambda f: f in ("sum", "product"), "'sum' or 'product'", "product"),
        "chi": _CHI, "domain": _SAMPLER,
        "domains": _Field(_or_null(_list_of(_SAMPLER.test)), "a list of sampler boxes", None)},
    "weighted-arith-reduction": {**_ORACLE, "weights": _WEIGHTS, "domain": _INTERVAL,
                                 "samples": _Field(_is_count, _COUNT, 60)},
    "deviation-reduction": {**_ORACLE,
                            "exprs": _Field(_list_of(_is_text), "a list of expressions in u, v"),
                            "domain": _INTERVAL, "samples": _Field(_is_count, _COUNT, 40)},
}
# A deviation-reduction case without exprs: inner-product deviations of
# weights on points in R^dim, the data drawn from [low, high]^dim
# (``reduction.deviation_oracle`` refuses a box that is empty or too wide).
_BOUND = _Field(lambda v: _is_number(v) and abs(v) <= sys.float_info.max, "a finite number")
_POINT_DEVIATIONS = {**_ORACLE, "dim": _Field(_is_count, _COUNT),
                     "weights": _WEIGHTS._replace(default=[1.0]),
                     "low": _BOUND._replace(default=-2.0), "high": _BOUND._replace(default=2.0),
                     "samples": _Field(_is_count, _COUNT, 40)}


def packaged_suite_names() -> list[str]:
    base = resources.files("meanreduce").joinpath("suites")
    return sorted(p.name for p in base.iterdir() if p.name.endswith(".json"))


def load_suite(source: str) -> dict:
    """The record (``_SUITE``, defaults filled in) of a suite file or packaged suite."""
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
    return dict(zip(_SUITE, _read_fields(data, _SUITE)))


def _mean(desc: MeanDescriptor) -> MeanFn:
    """The mean a case's descriptor describes, solved at REDUCTION_CFG."""
    return build_mean(desc, REDUCTION_CFG)


def _build_function(text: str, dim: Optional[int]) -> Callable:
    """The case function f from an expression in u (scalar) or u1..ud, a
    function of a point (``descriptors._of_points``).  f carries the
    expression's numpy form, of u or of the coordinates u1..ud, as its
    ``batch`` attribute, which the lab screens trials with."""
    names = ("u",) if dim is None else _point_keys("u", dim)
    fn, batch = parse_expression(text, allowed=names).bind_batch(names)
    if dim is None:
        def f(u, fn=fn):
            return fn(float(u))
    else:
        f = _of_points(fn)
    f.batch = batch
    return f


def build_runner(case: dict, trials: int, tol: float, reduced_tol: float) -> FuzzCase:
    """Compile one suite case into a seeded runnable returning its entry.

    The case's own fields override the run's ``trials``, ``tol`` and
    ``reduced_tol``.  A case that fails to build raises a MeansError:
    InvalidArgumentError for a case that is not an object, else the error
    of its faulty content, prefixed ``case '<name>': ``.  The error's
    ``entry`` is a FuzzCase of the case that raises it again when run, which
    ``fuzz`` records as an error entry.
    """
    if not isinstance(case, dict):
        _refuse("case", None, InvalidArgumentError(f"a suite case must be an object, got {case!r}"))
    kind, name = case.get("type"), case.get("name")
    name = name if isinstance(name, str) else kind if isinstance(kind, str) and kind else "case"
    run = {"name": kind, "trials": trials, "tol": tol, "reduced_tol": reduced_tol}
    try:
        return FuzzCase(name=name, kind=kind, runner=_compile_case(case, kind, run))
    except MeansError as exc:
        error = exc
    _refuse(name, kind, type(error)(f"case {name!r}: {error}"))


def _refuse(name, kind, error: MeansError):
    """Raise ``error``, its ``entry`` the case's FuzzCase that raises it."""
    def fail(seed: int, trials: int):
        raise error

    error.entry = FuzzCase(name=name, kind=kind, runner=fail)
    raise error


def _compile_case(case: dict, kind, run: dict) -> Callable[[int, int], dict]:
    fields = _CASES.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise InvalidArgumentError(f"unknown type {kind!r}")
    if kind == "deviation-reduction" and "exprs" not in case:
        fields = _POINT_DEVIATIONS
    name, _, expected, tol, *values = _read_fields(case, fields, defaults=run)

    if kind == "convexity":
        trials, reduced_tol, f, M, N, domain, chi = values
        M, N = _mean(M), _mean(N)
        conv = ConvexityCase(M=M, N=N, f=_build_function(f, M.dim),
                             sampler=BoxSampler(**domain, dim=M.dim), name=name)
        chi = None if chi is None else Injection.of(chi, n=M.arity)

        def check(seed: int):
            full = check_convexity(conv, trials, tol, seed=seed)
            if chi is None:
                return full
            return ReportPair(full, check_reduced_convexity(
                conv, chi, trials, reduced_tol, seed=seed + 1, cfg=REDUCTION_CFG))

    elif kind == "comparison":
        trials, reduced_tol, G, E, chi, domain = values
        G, E = _mean(G), _mean(E)
        chi, sampler = Injection.of(chi, n=G.arity), BoxSampler(**domain)

        def check(seed: int):
            return compare_means(G, E, chi, trials, tol, sampler=sampler, seed=seed,
                                 cfg=REDUCTION_CFG, reduced_tol=reduced_tol, name=name)

    elif kind == "holder-minkowski":
        trials, reduced_tol, N, M, f, chi, domain, domains = values
        if domains is not None and "domain" in case:
            raise InvalidArgumentError("field 'domains': excludes field 'domain'")
        N_list, M = tuple(map(_mean, N)), _mean(M)
        boxes = [domain] * len(N_list) if domains is None else domains
        hm = HolderMinkowskiCase(N_list=N_list, M=M, f=combiner(f),
                                 chi=Injection.of(chi, n=M.arity),
                                 samplers=tuple(BoxSampler(**box) for box in boxes), name=name)

        def check(seed: int):
            return check_holder_minkowski(hm, trials, tol, seed=seed, cfg=REDUCTION_CFG,
                                          reduced_tol=reduced_tol)

    elif kind == "weighted-arith-reduction":
        chi, weights, domain, samples = values
        weights = build_weights(weights, domain)
        oracle = weighted_arith_oracle(weights, Injection.of(chi, n=len(weights)), tol,
                                       REDUCTION_CFG)

        def check(seed: int):
            return oracle(samples, seed)

    else:
        if fields is _POINT_DEVIATIONS:
            chi, dim, weights, low, high, samples = values
            entries = tuple(inner_product_deviation(build_point_weight(w, dim), dim)
                            for w in weights)
            bounds = {"low": low, "high": high}
        else:
            chi, exprs, domain, samples = values
            entries, bounds = build_deviations(exprs, domain), {}
        oracle = deviation_oracle(entries, Injection.of(chi, n=len(entries)), tol,
                                  REDUCTION_CFG, **bounds)

        def check(seed: int):
            return oracle(samples, seed)

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
    """Run every case of a ``load_suite`` record; fold in the pass/fail expectations."""
    runners = [build_runner(c, trials, tol, reduced_tol) for c in suite["cases"]]
    report = fuzz_suite(runners, seed=seed, trials=trials)
    failures = sum(
        1 for entry in report["cases"] if entry.get("error") or not entry.get("ok", False)
    )
    report["schema"] = SCHEMA_VERSION
    report["suite"] = suite["name"]
    report["tol"] = tol
    report["reduced_tol"] = reduced_tol
    report["failures"] = failures
    report["passed"] = failures == 0
    return report
