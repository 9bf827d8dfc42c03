"""Command-line front end.

Subcommands:

- ``mean``: evaluate a mean described by flags or a JSON descriptor.
- ``reduce``: reduce a mean along an injection and report the fixed point.
- ``verify``: run a suite of inequality/oracle cases with pass/fail
  expectations; exit 0 only if every case lands as expected.
- ``fuzz``: run a suite without expectations and emit the aggregate report.

stdout carries only the report (JSON by default, CSV with ``--format csv``);
diagnostics go to stderr.  Exit codes: 0 success, 1 verify failures,
2 invalid input or malformed suite, 3 no convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional

import numpy as np

from .core import DEFAULT_CONFIG, Injection, SolverConfig, _certified, _is_count, _jsonable
from .descriptors import MeanDescriptor, build_mean, evaluate_with_report, parse_domain
from .errors import InvalidArgumentError, MeansError, NoConvergenceError
from .reduction import reduce_mean
from .suites import (
    DEFAULT_REDUCED_TOL,
    DEFAULT_TOL,
    DEFAULT_TRIALS,
    build_runner,
    load_suite,
    run_suite,
)
from .lab import FuzzCase, fuzz_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


def _add_solver_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--abs-tol", type=float, default=DEFAULT_CONFIG.abs_tol,
                        help="absolute solver tolerance (default 1e-12)")
    parser.add_argument("--rel-tol", type=float, default=DEFAULT_CONFIG.rel_tol,
                        help="relative solver tolerance (default 1e-10)")
    parser.add_argument("--max-iter", type=int, default=DEFAULT_CONFIG.max_iter,
                        help="iteration budget (default 10000)")


def _solver_config(args) -> SolverConfig:
    return SolverConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol, max_iter=args.max_iter)


# The flags that describe a mean; --descriptor replaces them all.
_MEAN_FLAGS = ("kind", "arity", "dim", "p", "q", "f", "fs", "weights", "exprs", "domain")


def _add_descriptor_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--descriptor", help="mean descriptor as a JSON string or file path")
    parser.add_argument("--kind", help="mean family kind (alternative to --descriptor)")
    parser.add_argument("--arity", type=int, help="number of arguments")
    parser.add_argument("--dim", type=int, help="point dimension for vector kinds")
    parser.add_argument("--p", type=float, help="exponent (holder, gini)")
    parser.add_argument("--q", type=float, help="second exponent (gini)")
    parser.add_argument("--f", help="generator: named (log, exp, identity) or expression in u")
    parser.add_argument("--fs", help="semicolon-separated generators (matkowski)")
    parser.add_argument("--weights", help="semicolon-separated weights (numbers or expressions)")
    parser.add_argument("--exprs", help="semicolon-separated deviation/potential expressions")
    parser.add_argument("--domain", help="domain as 'lo,hi' (inf endpoints allowed)")


def _split_list(text: str, sep: str = ";") -> list:
    return [part.strip() for part in text.split(sep) if part.strip()]


def _descriptor_from_args(args) -> MeanDescriptor:
    if args.descriptor:
        given = [f"--{flag}" for flag in _MEAN_FLAGS if getattr(args, flag) is not None]
        if given:
            raise InvalidArgumentError(f"--descriptor excludes {', '.join(given)}")
        text = args.descriptor
        if text.strip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        return MeanDescriptor.from_json(data)
    if not args.kind:
        raise MeansError("either --descriptor or --kind is required")
    params: dict = {}
    if args.p is not None:
        params["p"] = args.p
    if args.q is not None:
        params["q"] = args.q
    if args.f:
        params["f"] = args.f
    if args.fs:
        params["fs"] = _split_list(args.fs)
    if args.weights:
        params["weights"] = [_number_or_text(w) for w in _split_list(args.weights)]
    if args.exprs:
        exprs = _split_list(args.exprs)
        if args.kind == "gen-deviation":
            params["exprs"] = [_split_list(e, "|") for e in exprs]
        else:
            params["exprs"] = exprs
    if args.domain:
        entries = [None if "inf" in t.lower() else _number_or_text(t)
                   for t in args.domain.split(",")]
        try:
            params["domain"] = parse_domain(entries)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"--domain: {exc}") from None
    arity = args.arity
    if arity is None:
        if args.command == "reduce":
            raise InvalidArgumentError("reduce needs --arity, the number of arguments of the "
                                       "mean it reduces, or --descriptor")
        arity = len(_parse_data(args.x, args.dim))
    return MeanDescriptor(kind=args.kind, arity=arity, params=params, dim=args.dim)


def _number_or_text(token: str):
    try:
        return float(token)
    except ValueError:
        return token


def _parse_data(text: str, dim: Optional[int]):
    if dim is None:
        return tuple(_finite_entry(v) for v in text.split(",") if v.strip())
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            points.append(tuple(_finite_entry(v) for v in chunk.split(",")))
    return tuple(points)


def _finite_entry(token: str) -> float:
    """One --x entry as a float; NaN and infinities are invalid data."""
    value = float(token)
    if not math.isfinite(value):
        raise InvalidArgumentError(f"--x entry {token.strip()!r} is not a finite number")
    return value


def _emit(payload: dict, fmt: str, output: Optional[str], csv_rows=None):
    if fmt == "csv" and csv_rows is not None:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        for row in csv_rows:
            writer.writerow(row)
        text = buffer.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _value_columns(value):
    if isinstance(value, (list, tuple, np.ndarray)):
        values = [float(v) for v in value]
        header = [f"v{i + 1}" for i in range(len(values))]
        return header, values
    return ["value"], [float(value)]


def cmd_mean(args) -> int:
    desc = _descriptor_from_args(args)
    x = _parse_data(args.x, desc.dim)
    cfg = _solver_config(args)
    value, report = evaluate_with_report(desc, x, cfg)
    payload = {"command": "mean", "kind": desc.kind, "x": _jsonable(x)}
    payload.update(report.to_json())
    header, values = _value_columns(value)
    rows = [header + ["residual", "iterations", "converged"],
            values + [report.residual, report.iterations, report.converged]]
    _emit(payload, args.format, args.output, csv_rows=rows)
    return EXIT_OK


def cmd_reduce(args) -> int:
    desc = _descriptor_from_args(args)
    chi = Injection.of([int(v) for v in args.chi.split(",")], n=desc.arity)
    x = _parse_data(args.x, desc.dim)
    cfg = _solver_config(args)
    M = build_mean(desc, cfg)
    result = reduce_mean(M, chi, x, cfg)
    _certified(result.certificate, f"{M.label} reduced by {chi.map}", x)
    payload = {"command": "reduce", "kind": desc.kind, "chi": list(chi.map),
               "x": _jsonable(x)}
    payload.update(result.to_json())
    header, values = _value_columns(payload["value"])
    rows = [header + ["residual", "iterations", "converged", "unique_flag"],
            values + [result.fixed_point_residual, result.certificate.iterations,
                      result.certificate.converged, result.unique_flag]]
    _emit(payload, args.format, args.output, csv_rows=rows)
    return EXIT_OK


def _suite_csv_rows(report: dict):
    rows = [["case", "kind", "expected", "ok", "error", "found_full",
             "found_reduced", "lhs", "rhs", "gap"]]
    for entry in report["cases"]:
        full = entry.get("full") or {}
        reduced = entry.get("reduced") or {}
        rows.append([
            entry.get("case"), entry.get("kind"), entry.get("expected", ""),
            entry.get("ok", ""), entry.get("error", ""),
            full.get("found", ""), reduced.get("found", ""),
            full.get("lhs", ""), full.get("rhs", ""), full.get("gap", ""),
        ])
    return rows


def _load_suite(args) -> dict:
    if not _is_count(args.trials):
        raise InvalidArgumentError(f"--trials: expected an integer of at least 1, "
                                   f"got {args.trials}")
    return load_suite(args.suite)


def cmd_verify(args) -> int:
    suite = _load_suite(args)
    report = run_suite(suite, seed=args.seed, trials=args.trials,
                       tol=args.tol, reduced_tol=args.reduced_tol)
    _emit(report, args.format, args.output, csv_rows=_suite_csv_rows(report))
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def cmd_fuzz(args) -> int:
    suite = _load_suite(args)
    runners = [_fuzz_runner(c, args) for c in suite["cases"]]
    report = fuzz_suite(runners, seed=args.seed, trials=args.trials)
    report["suite"] = suite["name"]
    _emit(report, args.format, args.output, csv_rows=_suite_csv_rows(report))
    return EXIT_OK


def _fuzz_runner(case: dict, args) -> FuzzCase:
    """The case's runner, or for a case that fails to build the entry of its
    build error, which ``fuzz_suite`` records as an error entry."""
    try:
        return build_runner(case, args.trials, args.tol, args.reduced_tol)
    except MeansError as exc:
        return exc.entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanreduce",
        description="deviation means, reductions of means, and inequality verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mean = sub.add_parser("mean", help="evaluate a mean")
    _add_descriptor_flags(p_mean)
    _add_solver_flags(p_mean)
    p_mean.add_argument("--x", required=True,
                        help="data tuple: '1,2,3' or '0,0;1,1' for points")
    p_mean.add_argument("--format", choices=("json", "csv"), default="json")
    p_mean.add_argument("--output", default=None)
    p_mean.set_defaults(func=cmd_mean)

    p_reduce = sub.add_parser("reduce", help="reduce a mean along an injection")
    _add_descriptor_flags(p_reduce)
    _add_solver_flags(p_reduce)
    p_reduce.add_argument("--chi", required=True, help="injection slots, e.g. '1,2'")
    p_reduce.add_argument("--x", required=True, help="k-tuple of data")
    p_reduce.add_argument("--format", choices=("json", "csv"), default="json")
    p_reduce.add_argument("--output", default=None)
    p_reduce.set_defaults(func=cmd_reduce)

    # Suites fix their own solver tolerances, so these commands take no
    # solver flags.
    for name, fn, blurb in (("verify", cmd_verify, "run a suite with expectations"),
                            ("fuzz", cmd_fuzz, "run a suite, report only")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("suite", help="suite file path or packaged suite name")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--reduced-tol", type=float, default=DEFAULT_REDUCED_TOL)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None)
        p.set_defaults(func=fn)

    return parser


def _glue_dash_values(argv: list) -> list:
    """Glue a value that starts with '-' to the long option before it
    ('--x -1,3' -> '--x=-1,3').  argparse reads such a value as an option
    unless it looks like a plain negative number; every long option of this
    CLI except --help takes one value, so the glued form means the same."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (tok.startswith("-") and not tok.startswith("--") and tok != "-h"
                and prev.startswith("--") and "=" not in prev and prev != "--help"):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_dash_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except NoConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (MeansError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
