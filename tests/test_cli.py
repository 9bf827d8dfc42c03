import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import meanreduce
import meanreduce.descriptors
import meanreduce.lab
import meanreduce.suites

from meanreduce.cli import main
from meanreduce.core import Injection, _read_fields
from meanreduce.descriptors import build_mean
from meanreduce.lab import CounterexampleReport
from meanreduce.reduction import OracleCheckReport
from meanreduce.suites import load_suite


def _pin_params(table):
    """(suite, seed) parameters of a table of pinned report hashes; seed 7,
    the first pinned, keeps the bare suite name as its test id."""
    return [pytest.param(suite, seed, id=suite if seed == 7 else f"{suite}-seed{seed}")
            for suite, seed in sorted(table)]


JENSEN_SQUARE = {"name": "jensen-square", "type": "convexity", "f": "u^2",
                 "M": {"kind": "arithmetic", "arity": 2},
                 "N": {"kind": "arithmetic", "arity": 2}}
_WEIGHTS = {"type": "weighted-arith-reduction", "weights": ["u", 1.0, 2.0], "chi": [1, 2]}
_POINTS = {"type": "deviation-reduction", "dim": 2, "weights": [1.0, 2.0], "chi": [1]}

# Cases with one malformed field; a suite that has one exits 2 naming it.
MALFORMED = {
    "chi-number": dict(JENSEN_SQUARE, chi=3),
    "weights-number": dict(_WEIGHTS, weights=5),
    "domain-list": dict(JENSEN_SQUARE, domain=[1, 2]),
    "trials-text": dict(JENSEN_SQUARE, trials="many"),
    "samples-text": dict(_WEIGHTS, samples="x"),
    "domain-low-text": dict(JENSEN_SQUARE, domain={"low": "a", "high": 4}),
    "low-text": dict(_POINTS, low="a"),
    # Its one weight cannot be repeated for 10**20 slots.
    "arity-beyond-an-index": {"type": "comparison", "chi": [1],
                              "G": {"kind": "weighted-arithmetic", "arity": 10**20,
                                    "params": {"weights": [1.0]}},
                              "E": {"kind": "arithmetic", "arity": 10**20}},
}
# Cases that would run no trial or sample, and so pass whatever they test.
NO_TRIALS = {
    "concave-jensen": dict(JENSEN_SQUARE, f="-(u^2)", trials=0),
    "false-comparison": {"type": "comparison", "trials": -5, "chi": [1],
                         "G": {"kind": "holder", "arity": 2, "params": {"p": 2}},
                         "E": {"kind": "holder", "arity": 2, "params": {"p": 1}}},
    "no-samples": dict(_WEIGHTS, samples=0),
}
BAD_CASES = {**MALFORMED, **NO_TRIALS}
_DEVIATIONS = {"type": "deviation-reduction", "name": "exprs", "exprs": ["u - v", "u - v"],
               "chi": [1]}
_COUNT = "expected an integer of at least 1"
# Per case id: a case with one misspelled or mistyped field, the name its
# error gives the case, and the message after the name.
REFUSED = {
    "chii": (dict(JENSEN_SQUARE, chii=[1, 2]), "jensen-square", "unknown field 'chii'"),
    "domian": (dict(JENSEN_SQUARE, domian={"low": -1, "high": 1}), "jensen-square",
               "unknown field 'domian'"),
    "trails": (dict(JENSEN_SQUARE, trails=5), "jensen-square", "unknown field 'trails'"),
    "logUniform": (dict(JENSEN_SQUARE, domain={"low": 0.1, "high": 4, "logUniform": True}),
                   "jensen-square", "field 'domain': unknown field 'logUniform'"),
    "box-dim": (dict(JENSEN_SQUARE, domain={"low": -1, "high": 1, "dim": 3}), "jensen-square",
                "field 'domain': unknown field 'dim'"),
    "domain-open": (dict(_WEIGHTS, name="w", domain={"lo": 0.2, "hi": 6, "open": True}), "w",
                    "field 'domain': unknown field 'open'"),
    "trials-true": (dict(JENSEN_SQUARE, trials=True), "jensen-square",
                    f"field 'trials': {_COUNT}, got True"),
    "trials-float": (dict(JENSEN_SQUARE, trials=2.7), "jensen-square",
                     f"field 'trials': {_COUNT}, got 2.7"),
    "samples-float": (dict(_WEIGHTS, name="w", samples=2.7), "w",
                      f"field 'samples': {_COUNT}, got 2.7"),
    "name-list": (dict(JENSEN_SQUARE, name=[1]), "convexity",
                  "field 'name': expected a string, got [1]"),
    "f-number": (dict(JENSEN_SQUARE, f=3), "jensen-square",
                 "field 'f': expected an expression in u, or in u1..ud, got 3"),
    "weights-text": (dict(_WEIGHTS, name="w", weights="uu"), "w",
                     "field 'weights': expected a list of numbers and expressions, got 'uu'"),
    "chi-number": (dict(JENSEN_SQUARE, chi=3), "jensen-square", "field 'chi': expected a list "
                   "of slots, integers of at least 1, or null, got 3"),
    "domain-triple": (dict(_WEIGHTS, name="w", domain=[0, 5, 9]), "w",
                      "field 'domain': expected [lo, hi] or an object with lo, hi, lo_open and "
                      "hi_open, got [0, 5, 9]"),
    "arity-float": (dict(JENSEN_SQUARE, M={"kind": "arithmetic", "arity": 2.7}), "jensen-square",
                    f"field 'M': field 'arity': {_COUNT}, got 2.7"),
    "domains-and-domain": ({"type": "holder-minkowski", "name": "hm", "chi": [1],
                            "M": {"kind": "arithmetic", "arity": 2},
                            "N": [{"kind": "holder", "arity": 2, "params": {"p": 2}}] * 2,
                            "domain": {"low": 0.2, "high": 4},
                            "domains": [{"low": 0.2, "high": 4}] * 2},
                           "hm", "field 'domains': excludes field 'domain'"),
    **{f"exprs-with-{key}": (dict(_DEVIATIONS, **{key: value}), "exprs",
                             f"unknown field {key!r}")
       for key, value in [("dim", 2), ("weights", [1.0]), ("low", -1.0), ("high", 1.0)]},
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


class TestMeanCommand:
    def test_holder(self, capsys):
        data = run_json(capsys, "mean", "--kind", "holder", "--p", "2", "--x", "1,7")
        assert data["value"] == pytest.approx(5.0)
        assert data["converged"] is True

    def test_arithmetic_constant(self, capsys):
        data = run_json(capsys, "mean", "--kind", "arithmetic", "--x", "4,4,4")
        assert data["value"] == pytest.approx(4.0)

    def test_gini(self, capsys):
        data = run_json(capsys, "mean", "--kind", "gini", "--p", "2", "--q", "1",
                        "--x", "1,3")
        assert data["value"] == pytest.approx(2.5)

    def test_vector_arithmetic(self, capsys):
        data = run_json(capsys, "mean", "--kind", "arithmetic", "--dim", "2",
                        "--x", "0,0;2,2")
        assert data["value"] == pytest.approx([1.0, 1.0])

    @pytest.mark.parametrize("argv,expected", [
        (["--kind", "deviation-custom", "--exprs", "u*(u - v)", "--domain", "0.05,30",
          "--x", "1,3"], 2.5),
        (["--descriptor", json.dumps({"kind": "gen-deviation", "arity": 2, "dim": 2,
                                      "params": {"exprs": [["2*(u1 - v1)", "2*(u2 - v2)"]]}}),
          "--x", "0,0;2,4"], [1.0, 2.0]),
        (["--descriptor", json.dumps({"kind": "norm-squared-potential", "arity": 2, "dim": 2,
                                      "params": {"weights": [1.0, 3.0]}}),
          "--x", "0,0;2,4"], [1.5, 3.0]),
    ], ids=["deviation-custom", "gen-deviation", "norm-squared-potential"])
    def test_custom_deviation_reports_solver_diagnostics(self, capsys, argv, expected):
        data = run_json(capsys, "mean", *argv)
        assert data["value"] == pytest.approx(expected, abs=1e-9)
        assert data["converged"] is True
        assert data["iterations"] > 0

    def test_budget_exhaustion_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "mean", "--kind", "deviation-custom", "--exprs", "u^3-v^3",
                                 "--domain", "0.1,10", "--x", "0.5,4,2", "--max-iter", "1")
        assert (code, out) == (3, "")
        assert err == "no convergence: deviation-custom mean did not converge at [0.5, 4.0, 2.0]\n"

    @pytest.mark.parametrize("argv", [
        ["--kind", "matkowski", "--fs", "u;u^3"],
        ["--kind", "quasi-arithmetic", "--f", "u^3+u"],
    ], ids=["matkowski", "expression-generator"])
    def test_numeric_solve_without_a_report_prints_null(self, capsys, argv):
        # Both means are found by a numeric root search that keeps neither a
        # residual nor an iteration count; 0.0 and 0 would claim an exact
        # closed form.
        data = run_json(capsys, "mean", *argv, "--x", "1,2")
        assert (data["residual"], data["iterations"], data["converged"]) == (None, None, True)
        assert 1.0 < data["value"] < 2.0

    def test_closed_form_with_a_named_generator_reports_zero(self, capsys):
        data = run_json(capsys, "mean", "--kind", "quasi-arithmetic", "--f", "log",
                        "--x", "1,4")
        assert (data["value"], data["residual"], data["iterations"]) == (2.0, 0.0, 0)

    def test_descriptor_json_string(self, capsys):
        desc = json.dumps({"kind": "holder", "arity": 2, "params": {"p": 2}})
        data = run_json(capsys, "mean", "--descriptor", desc, "--x", "1,7")
        assert data["value"] == pytest.approx(5.0)

    def test_descriptor_file(self, capsys, tmp_path):
        path = tmp_path / "gini.json"
        path.write_text(json.dumps({"kind": "gini", "arity": 2, "params": {"p": 2, "q": 1}}),
                        encoding="utf-8")
        data = run_json(capsys, "mean", "--descriptor", str(path), "--x", "1,3")
        assert (data["kind"], data["value"]) == ("gini", 2.5)

    @pytest.mark.parametrize("flags, named", [
        (["--p", "3", "--kind", "gini", "--arity", "5"], "--kind, --arity, --p"),
        (["--dim", "1"], "--dim"),
        (["--q", "1"], "--q"),
        (["--f", "log"], "--f"),
        (["--fs", "u;u"], "--fs"),
        (["--weights", "1;2"], "--weights"),
        (["--exprs", "u-v"], "--exprs"),
        (["--domain", "0,1"], "--domain"),
    ], ids=["kind-arity-p", "dim", "q", "f", "fs", "weights", "exprs", "domain"])
    def test_descriptor_excludes_the_mean_flags(self, capsys, flags, named):
        # A flag given with --descriptor would be silently dropped.
        desc = json.dumps({"kind": "holder", "arity": 2, "params": {"p": 1}})
        code, out, err = run_cli(capsys, "mean", "--descriptor", desc, *flags, "--x", "1,2")
        assert (code, out) == (2, "")
        assert err == f"error: --descriptor excludes {named}\n"

    def test_an_integer_past_the_float_range_exits_2(self, capsys):
        # A JSON integer that no float holds printed an OverflowError
        # traceback and exited 1.
        desc = json.dumps({"kind": "holder", "arity": 2, "params": {"p": 10**400}})
        code, out, err = run_cli(capsys, "mean", "--descriptor", desc, "--x", "1,2")
        assert (code, out) == (2, "")
        assert err == ("error: kind 'holder': field 'params': field 'p': expected a number, "
                       f"got {10**400}\n")

    @pytest.mark.parametrize("flags", [
        ["--kind", "quasi-arithmetic", "--f", "u^3+u"],
        ["--kind", "bajraktarevic", "--f", "u^3+u", "--weights", "u", "--domain", "0.5,3"],
    ], ids=["quasi-arithmetic", "bajraktarevic"])
    def test_expression_generator_inversion_honours_max_iter(self, capsys, flags):
        assert run_json(capsys, "mean", *flags, "--x", "1,2")["converged"] is True
        code, out, err = run_cli(capsys, "mean", *flags, "--x", "1,2", "--max-iter", "1")
        assert (code, out) == (3, "")
        assert err == "no convergence: generator inversion exhausted its iteration budget\n"

    def test_gen_deviation_takes_one_covector_per_slot(self, capsys):
        # ';' separates the slots' deviations, '|' the coordinates of one.
        data = run_json(capsys, "mean", "--kind", "gen-deviation", "--dim", "2", "--exprs",
                        "u1-v1|u2-v2;2*(u1-v1)|2*(u2-v2)", "--x", "0,0;2,4")
        assert data["converged"] is True
        assert data["value"] == pytest.approx([4 / 3, 8 / 3], abs=1e-9)
        assert data["x"] == [[0.0, 0.0], [2.0, 4.0]]

    @pytest.mark.parametrize("argv, message", [
        (("--x", "1,2"), "either --descriptor or --kind is required"),
        (("--kind", "gen-deviation", "--dim", "2", "--exprs", "u1-v1", "--x", "0,0;1,1"),
         "need 2 covector expressions, got 1"),
    ], ids=["no-kind", "covector-length"])
    def test_an_incomplete_mean_exits_2(self, capsys, argv, message):
        assert run_cli(capsys, "mean", *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("kind, message", [
        ("norm-squared-potential", "norm-squared: weight -1.0 at [1.0] is not finite and positive"),
        ("weighted-arithmetic", "weight -1.0 at [1.0] is not finite and positive"),
    ])
    def test_point_weight_not_positive_at_the_data_exits_2(self, capsys, kind, message):
        code, out, err = run_cli(capsys, "mean", "--kind", kind, "--arity", "2", "--dim", "1",
                                 "--weights", "0-u1", "--x", "1;2")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_invalid_input_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "mean", "--kind", "holder", "--p", "1",
                               "--x", "1,-3")
        assert code == 2
        assert err

    def test_non_finite_literal_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "mean", "--kind", "quasi-arithmetic", "--arity", "2",
                                 "--f", "u*1e400", "--x", "1,2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "not finite" in err

    def test_complex_operand_exits_2(self, capsys):
        # exp of the complex u^0.5 at a negative sample of the generator.
        code, out, err = run_cli(capsys, "mean", "--kind", "quasi-arithmetic", "--arity", "2",
                                 "--f", "exp(u^0.5)", "--x=-1,2")
        assert code == 2
        assert out == ""
        assert err == ("error: evaluating 'exp(u^0.5)': must be real number, not complex\n")

    def test_matkowski_generators_with_log_share_a_given_domain(self, capsys):
        # Swapping the generators and the data gives the same mean; a given
        # domain inside (0, inf) leaves it as it is.
        values = [run_json(capsys, "mean", "--kind", "matkowski", "--fs", fs, "--x", x,
                           *domain)["value"]
                  for fs, x in (("log;exp", "1,2"), ("exp;log", "2,1"))
                  for domain in ((), ("--domain", "0.2,6"))]
        assert values == [pytest.approx(1.908468589758539)] * 4

    def test_numeric_inverse_is_relative_below_1(self, capsys):
        # ((1e-10^0.3 + 2e-10^0.3) / 2)^(1 / 0.3), mpmath; the absolute stop
        # of 1e-14 printed 1.4398618483614798e-10.
        data = run_json(capsys, "mean", "--kind", "quasi-arithmetic", "--f", "u^0.3",
                        "--domain", "0,inf", "--arity", "2", "--x", "1e-10,2e-10")
        assert abs(data["value"] - 1.4398777445801272e-10) <= 1e-12 * 1.4398777445801272e-10

    @pytest.mark.parametrize("argv, exact", [
        (("--kind", "quasi-arithmetic"), -800.693147180559945),
        (("--kind", "bajraktarevic", "--weights", "1;3"), -801.386294361119891),
    ], ids=["quasi-arithmetic", "bajraktarevic"])
    def test_exp_generator_values_that_underflow(self, capsys, argv, exact):
        # Every exp of the data is 0: the average was 0 and log(0) a bare
        # "math domain error".  The exact means are from mpmath.
        data = run_json(capsys, "mean", *argv, "--f", "exp", "--x=-800,-900")
        assert abs(data["value"] - exact) <= 1e-15 * abs(exact)

    def test_generator_values_that_underflow_exit_2(self, capsys):
        # The expression exp(u) is not the named generator: its average 0 has
        # no inverse in the hull of the data, which printed -900 as the mean.
        code, out, err = run_cli(capsys, "mean", "--kind", "quasi-arithmetic", "--f", "exp(u)",
                                 "--x=-800,-900")
        assert (code, out) == (2, "")
        assert err.startswith("error: the generator's values underflow on the data")

    @pytest.mark.parametrize("argv", [
        ("--kind", "quasi-arithmetic"),
        ("--kind", "bajraktarevic", "--weights", "1;3"),
    ], ids=["quasi-arithmetic", "bajraktarevic"])
    def test_subnormal_generator_average_exits_2(self, capsys, argv):
        # exp(u) of the data is about 4e-322: the average keeps a few bits,
        # and the mean printed was -740.3762023611497 where the exact one is
        # -740.3798854930417, which the named exp prints.
        code, out, err = run_cli(capsys, "mean", *argv, "--f", "exp(u)", "--x=-740,-741")
        assert (code, out) == (2, "")
        assert err.startswith("error: the generator's values underflow on the data "
                              "[-740.0, -741.0]")
        # The exact means, from mpmath.
        exact = -740.379885493041722 if len(argv) == 2 else -740.642625980491211
        named = run_json(capsys, "mean", *argv, "--f", "exp", "--x=-740,-741")
        assert abs(named["value"] - exact) <= 1e-15 * abs(exact)

    def test_identity_generator_keeps_a_subnormal_mean(self, capsys):
        # The average of subnormal data is the mean itself: its neighbours
        # move it by 2^-1074, within the inverse's stop.
        data = run_json(capsys, "mean", "--kind", "quasi-arithmetic", "--f", "identity",
                        "--x", "1e-320,3e-320")
        assert data["value"] == 2e-320

    @pytest.mark.parametrize("f", ["u^3", "u^5", "u*abs(u)"])
    def test_generator_values_that_cancel_keep_their_mean(self, capsys, f):
        # f(-1) + f(1) cancels to 0 from normal values: the average is not
        # an underflow, and its inverse 0 is the mean.
        data = run_json(capsys, "mean", "--kind", "quasi-arithmetic", "--f", f, "--x=-1,1")
        assert data["value"] == 0.0

    def test_log_generator_outside_the_positive_reals_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "mean", "--kind", "quasi-arithmetic", "--f", "log",
                                 "--domain", "-1,2", "--x", "1,2")
        assert (code, out) == (2, "")
        assert err.startswith("error: the log generator needs a domain inside (0, inf)")

    def test_parameter_the_kind_does_not_read_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "mean", "--kind", "holder", "--p", "2", "--q", "3",
                                 "--domain", "0,5", "--x", "1,7")
        assert code == 2
        assert out == ""
        assert err == "error: kind 'holder': field 'params': unknown field 'q'\n"

    def test_arity_beyond_an_index_exits_2(self, capsys):
        # The numpy form of the arithmetic mean built a tuple of 10**20
        # unit weights: a traceback, exit 1.
        code, out, err = run_cli(capsys, "mean", "--kind", "arithmetic", "--arity", str(10**20),
                                 "--x", "1,2")
        assert (code, out, err) == (2, "", f"error: arithmetic expects {10**20} arguments, "
                                           "got 2\n")

    @pytest.mark.parametrize("flags, what", [
        (["--kind", "weighted-arithmetic", "--weights", "1"], "weights"),
        (["--kind", "bajraktarevic", "--f", "log", "--weights", "1"], "weights"),
        (["--kind", "matkowski", "--fs", "u"], "generators"),
    ], ids=["weighted-arithmetic", "bajraktarevic", "matkowski"])
    def test_one_entry_for_an_arity_beyond_an_index_exits_2(self, capsys, flags, what):
        # Repeating the one weight or generator for every slot raised
        # OverflowError: a traceback, exit 1.
        code, out, err = run_cli(capsys, "mean", *flags, "--arity", str(10**20), "--x", "1,2")
        assert (code, out, err) == (2, "", f"error: cannot repeat one of the {what} for an "
                                           f"arity of {10**20}\n")

    @pytest.mark.parametrize("descriptor, message", [
        ({"kind": "holder", "arity": 2.7, "params": {"p": 2}},
         "field 'arity': expected an integer of at least 1, got 2.7"),
        ({"kind": "holder", "arity": "2", "params": {"p": 2}},
         "field 'arity': expected an integer of at least 1, got '2'"),
        ({"kind": "holder", "arity": 2, "params": [["p", 3]]},
         "field 'params': expected an object, got [['p', 3]]"),
        ({"kind": "holder", "arity": 2, "params": {"p": True}},
         "kind 'holder': field 'params': field 'p': expected a number, got True"),
        ({"kind": "quasi-arithmetic", "arity": 2,
          "params": {"f": "u^3", "domain": {"lo": 0.1, "hi": 9, "lo_open": "no"}}},
         "kind 'quasi-arithmetic': field 'params': field 'domain': field 'lo_open': expected "
         "true or false, got 'no'"),
        ({"kind": "holder", "arity": 2, "dim": 1, "params": {"p": 2}},
         "field 'dim': kind 'holder' takes no points"),
    ], ids=["arity-float", "arity-text", "params-pairs", "p-bool", "lo-open-text", "scalar-dim"])
    def test_descriptor_field_of_the_wrong_type_exits_2_naming_it(self, capsys, descriptor,
                                                                   message):
        # A value of the wrong type is refused, never cast; a scalar kind
        # takes no dim rather than failing later on its data.
        code, out, err = run_cli(capsys, "mean", "--descriptor", json.dumps(descriptor),
                                 "--x", "1,7")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("domain, given", [("1,2,3", "[1.0, 2.0, 3.0]"),
                                               ("x,2", "['x', 2.0]")])
    def test_malformed_domain_flag_exits_2_naming_it(self, capsys, domain, given):
        # The error names the flag, not Python's unpacking or float().
        code, out, err = run_cli(capsys, "mean", "--kind", "quasi-arithmetic", "--f", "u^3",
                                 "--domain", domain, "--x", "1,2")
        assert (code, out) == (2, "")
        assert err == ("error: --domain: expected [lo, hi] or an object with lo, hi, lo_open "
                       f"and hi_open, got {given}\n")

    @pytest.mark.parametrize("argv", [
        ["--kind", "arithmetic", "--arity", "2"],
        ["--kind", "weighted-arithmetic", "--weights", "1;1"],
        ["--kind", "weighted-arithmetic", "--weights", "2;2"],
    ], ids=["arithmetic", "weighted-arithmetic", "weighted-products"])
    def test_sum_beyond_the_float_range_is_no_crash(self, capsys, argv):
        # 1e308 + 1e308 overflows, so math.fsum raises; the mean does not.
        # With weights 2, each product 2 * 1e308 is already inf.
        data = run_json(capsys, "mean", *argv, "--x", "1e308,1e308")
        assert data["value"] == 1e308

    def test_weighted_products_of_both_signs_beyond_the_float_range(self, capsys):
        # The products overflow to inf and -inf, which math.fsum rejects.
        data = run_json(capsys, "mean", "--kind", "weighted-arithmetic", "--arity", "2",
                        "--weights", "2;2", "--x", "1e308,-1e308")
        assert data["value"] == 0.0

    def test_weighted_point_products_beyond_the_float_range(self, capsys):
        data = run_json(capsys, "mean", "--kind", "weighted-arithmetic", "--arity", "2",
                        "--dim", "2", "--weights", "2;3", "--x", "1e308,1;1e308,-2")
        assert data["value"] == [1e308, pytest.approx(-0.8)]

    @pytest.mark.parametrize("flags", [
        ("--kind", "weighted-arithmetic", "--x", "1,2"),
        ("--kind", "weighted-arithmetic", "--dim", "1", "--x", "1;2"),
        ("--kind", "bajraktarevic", "--f", "u", "--x", "1,2"),
    ], ids=["scalars", "points", "bajraktarevic"])
    def test_weight_sum_beyond_the_float_range(self, capsys, flags):
        # The weights sum to 2e308; scaled by a power of two, their mean
        # is exact.
        code, out, err = run_cli(capsys, "mean", "--arity", "2", "--weights", "1e308", *flags)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] in (1.5, [1.5])

    @pytest.mark.filterwarnings("error")
    def test_point_sum_beyond_the_float_range(self, capsys):
        # np.mean overflowed to [inf, 1.0] with a RuntimeWarning; each
        # coordinate is rescaled on its own, so the small one keeps its digits.
        code, out, err = run_cli(capsys, "mean", "--kind", "arithmetic", "--arity", "2",
                                 "--dim", "2", "--x", "1e308,1;1e308,1")
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == [1e308, 1.0]

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "--kind", "holder", "--p", "1",
                               "--x", "1,3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[0] == "value"
        assert float(lines[1].split(",")[0]) == pytest.approx(2.0)


class TestReduceCommand:
    def test_arithmetic_reduction(self, capsys):
        data = run_json(capsys, "reduce", "--kind", "arithmetic", "--arity", "3",
                        "--chi", "1,2", "--x", "1,5")
        assert data["value"] == pytest.approx(3.0, abs=1e-9)
        assert data["unique_flag"] == "unique"

    def test_geometric_reduction(self, capsys):
        data = run_json(capsys, "reduce", "--kind", "quasi-arithmetic", "--f", "log",
                        "--arity", "3", "--chi", "1,2", "--x", "2,8")
        assert data["value"] == pytest.approx(4.0, abs=1e-8)

    def test_bijective_injection(self, capsys):
        data = run_json(capsys, "reduce", "--kind", "arithmetic", "--arity", "3",
                        "--chi", "1,2,3", "--x", "1,2,3")
        assert data["value"] == pytest.approx(2.0, abs=1e-10)

    def test_vector_reduction(self, capsys):
        data = run_json(capsys, "reduce", "--kind", "arithmetic", "--arity", "4",
                        "--dim", "2", "--chi", "1,3", "--x", "0,0;2,2")
        assert data["value"] == pytest.approx([1.0, 1.0], abs=1e-9)

    @pytest.mark.parametrize("chi", ["2,1", "1,3"])
    def test_the_arity_of_the_mean_is_required(self, capsys, chi):
        # --x holds the k-tuple, whose length is not the mean's arity n.
        code, out, err = run_cli(capsys, "reduce", "--kind", "arithmetic", "--chi", chi,
                                 "--x", "1,5")
        assert (code, out) == (2, "")
        assert err == ("error: reduce needs --arity, the number of arguments of the mean it "
                       "reduces, or --descriptor\n")
        data = run_json(capsys, "reduce", "--kind", "arithmetic", "--arity", "3", "--chi", chi,
                        "--x", "1,5")
        assert data["value"] == pytest.approx(3.0, abs=1e-9)
        desc = json.dumps({"kind": "arithmetic", "arity": 3})
        data = run_json(capsys, "reduce", "--descriptor", desc, "--chi", chi, "--x", "1,5")
        assert data["value"] == pytest.approx(3.0, abs=1e-9)
        # mean still reads its arity from --x.
        assert run_json(capsys, "mean", "--kind", "arithmetic", "--x", "1,5")["value"] == 3.0

    def test_budget_exhaustion_exits_3(self, capsys):
        # One step solves the arithmetic reduction (its section is affine),
        # so the budget runs out on a curved one.
        code, out, err = run_cli(capsys, "reduce", "--kind", "holder", "--p", "3",
                                 "--arity", "4", "--chi", "1,2,3", "--x", "1,2,4",
                                 "--max-iter", "1", "--abs-tol", "1e-13")
        assert (code, out) == (3, "")
        assert "converge" in err
        # Five steps settle the outer search, but 14 inner deviation-mean
        # solves do not converge in five: no certificate, no value.
        code, out, err = run_cli(capsys, "reduce", "--kind", "deviation-custom", "--exprs",
                                 "u^3-v^3", "--arity", "3", "--domain", "0.1,10", "--chi", "1,3",
                                 "--x", "0.5,4", "--max-iter", "5")
        assert (code, out) == (3, "")
        assert err.startswith("no convergence: custom deviation mean did not converge at [0.5, ")


# Three gen-deviation means (d = 1, 2, 3; n = 3, 3, 5), with skew and
# nonlinear covectors: (dim, covectors, n-tuple, chi, k-tuple).  No packaged
# suite holds a vector mean, so the report pins do not cover this path.
GEN_DEVIATION_INPUTS = {
    "d1-n3": ("1", "(u1-v1)*exp(0.5*u1);(u1-v1)*(1+(u1-v1)^2);(u1-v1)*(2+u1^2)",
              "0.5;2.5;-1", "3,1", "-0.5;2"),
    "d2-n3": ("2", "(u1-v1)*(1+0.3*((u1-v1)^2+(u2-v2)^2)) + 0.4*(u2-v2)"
                   "|(u2-v2)*(1+0.3*((u1-v1)^2+(u2-v2)^2)) - 0.4*(u1-v1)"
                   ";2*(u1-v1)|2*(u2-v2);(u1-v1)*exp(0.2*u2)|(u2-v2)*exp(0.2*u1)",
              "0,0;2,1;-1,3", "1,3", "0,0;2,1"),
    "d3-n5": ("3", "u1-v1|u2-v2|u3-v3"
                   ";(u1-v1)*exp(0.1*u3)|(u2-v2)*exp(0.1*u3)|(u3-v3)*exp(0.1*u1)"
                   ";(u1-v1) + 0.5*(u2-v2)|(u2-v2) - 0.5*(u1-v1)|2*(u3-v3)"
                   ";(u1-v1)*(1+(u1-v1)^2)|(u2-v2)*(1+(u2-v2)^2)|(u3-v3)*(1+(u3-v3)^2)"
                   ";3*(u1-v1)|(u2-v2)*(2+u1^2)|(u3-v3) + 0.2*(u1-v1)",
              "0,0,0;1,2,0;-1,0.5,1;2,-1,1.5;0.5,1,-2", "2,4,5", "1,2,0;2,-1,1.5;0,0,1"),
}
# sha256 of the JSON stdout of each input's mean and reduce, taken before
# the covectors of a mean were bound as one family.  The vector solves run
# numpy's BLAS, so a BLAS that sums in another order may move their bits.
PINNED_GEN_DEVIATION = {
    ("d1-n3", "mean"): "04c7510033729d4a44b109e3f1354906cd066c4f63cd372ab23e7b888abe9f14",
    ("d1-n3", "reduce"): "f1532e745e5050915bf4c4829d7f8925d0acd78d28e164667197869021fe1248",
    ("d2-n3", "mean"): "1b061c2f108a1c1932aec8f713bdd0f62f7d851c36ae995cb1e02ef37b771345",
    ("d2-n3", "reduce"): "e80b88542a3992154e5fad42837759c62581b143d6e70bc690551cca3371c701",
    ("d3-n5", "mean"): "6d1bdfa32771ab3e1d75010e7172d89a394f73fb463c199f037bc78b1368c7c3",
    ("d3-n5", "reduce"): "3a8ffedf5d3fa137b00165e5c451f52f8b9ed7946707337e3e30c88b6f39cbd8",
}


@pytest.mark.parametrize("name, command", sorted(PINNED_GEN_DEVIATION))
def test_gen_deviation_outputs_are_pinned(capsys, name, command):
    dim, exprs, x, chi, xk = GEN_DEVIATION_INPUTS[name]
    flags = ["--kind", "gen-deviation", "--dim", dim, "--exprs", exprs]
    if command == "mean":
        argv = ["mean", *flags, "--x", x]
    else:
        argv = ["reduce", *flags, "--arity", str(len(x.split(";"))), "--chi", chi, "--x", xk]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["converged"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_GEN_DEVIATION[name, command]


class TestValuesStartingWithMinus:
    # argparse takes only '-1' and '-.5' shapes as values on its own.
    @pytest.mark.parametrize("argv,expected", [
        (["mean", "--kind", "arithmetic", "--arity", "2", "--x", "-1,3"], 1.0),
        (["reduce", "--kind", "arithmetic", "--arity", "3", "--chi", "1,2",
          "--x", "-1,5"], 2.0),
        (["mean", "--kind", "arithmetic", "--dim", "2", "--x", "-1,0;2,2"], [0.5, 1.0]),
        (["mean", "--kind", "deviation-custom", "--exprs", "u - v", "--domain", "-5,5",
          "--x", "-1,3"], 1.0),
    ], ids=["mean-x", "reduce-x", "point-x", "domain"])
    def test_dash_value_parses(self, capsys, argv, expected):
        data = run_json(capsys, *argv)
        assert data["value"] == pytest.approx(expected, abs=1e-9)


class TestVerifyCommand:
    def test_jensen_suite_passes(self, capsys):
        report = run_json(capsys, "verify", "jensen", "--trials", "10")
        assert report["passed"] is True

    def test_reduction_oracles_pass(self, capsys):
        report = run_json(capsys, "verify", "reduction-oracles")
        assert report["passed"] is True

    def test_failing_suite_records_expected_failures(self, capsys):
        report = run_json(capsys, "verify", "failing", "--trials", "60")
        assert report["passed"] is True
        reversed_case = next(c for c in report["cases"]
                             if c["case"] == "power-order-reversed")
        assert reversed_case["full"]["found"] is True
        assert reversed_case["expected"] == "fail"
        assert reversed_case["ok"] is True

    def test_weight_sum_beyond_the_float_range(self, capsys, tmp_path):
        # Weights that sum past the float range aborted the whole run.
        suite = tmp_path / "huge.json"
        suite.write_text(json.dumps({"name": "huge", "cases": [
            {"type": "weighted-arith-reduction", "name": "huge-weights", "chi": [1, 3],
             "weights": [1e308, 1e308, 1.0], "domain": [0.2, 6.0]}]}))
        report = run_json(capsys, "verify", str(suite), "--seed", "7")
        assert report["passed"] is True
        assert report["cases"][0]["ok"] is True

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "no-such-suite")
        assert code == 2
        assert "suite" in err

    def test_malformed_suite_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"name\": \"broken\"}")
        code, _, _ = run_cli(capsys, "verify", str(bad))
        assert code == 2

    @pytest.mark.parametrize("command", ["verify", "fuzz"])
    def test_solver_flags_rejected(self, capsys, command):
        # Suites fix their own solver tolerances; a flag they would ignore
        # is refused instead.
        with pytest.raises(SystemExit) as exc:
            main([command, "jensen", "--max-iter", "1"])
        assert exc.value.code == 2
        assert "--max-iter" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "fuzz"])
    def test_zero_trials_exits_2(self, capsys, command):
        code, out, err = run_cli(capsys, command, "jensen", "--trials", "0")
        assert code == 2
        assert out == ""
        assert err == "error: --trials: expected an integer of at least 1, got 0\n"

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--reduced-tol", "nan"), ("--tol", "-1"),
        ("--reduced-tol", "-1e-9"), ("--tol", "inf"), ("--reduced-tol", "inf"),
    ])
    def test_bad_tolerance_exits_2(self, capsys, flag, value):
        # A NaN slack passed every check (exit 0) and a negative one failed
        # every case (exit 1).
        code, out, err = run_cli(capsys, "verify", "jensen", "--trials", "5", flag, value)
        assert code == 2
        assert out == ""
        field = flag[2:].replace("-", "_")
        assert err == (f"error: case 'square-arith-3to2': field '{field}': expected a finite "
                       f"number of at least 0, got {float(value)!r}\n")

    @pytest.mark.parametrize("field, value", [("tol", -1.0), ("reduced_tol", float("nan"))])
    def test_bad_case_tolerance_exits_2(self, capsys, tmp_path, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"cases": [{
            "name": "jensen-square", "type": "convexity", "f": "u^2", field: value,
            "M": {"kind": "arithmetic", "arity": 2},
            "N": {"kind": "arithmetic", "arity": 2}}]}))
        code, out, err = run_cli(capsys, "verify", str(bad))
        assert code == 2
        assert out == ""
        assert err == (f"error: case 'jensen-square': field '{field}': expected a finite number "
                       f"of at least 0, got {value!r}\n")

    @pytest.mark.parametrize("name", sorted(MALFORMED) + sorted(NO_TRIALS))
    def test_malformed_case_exits_2_naming_it(self, capsys, tmp_path, name):
        # A malformed field printed a traceback (exit 1) or an error that
        # named no case; a case that runs no trial passed.
        suite = tmp_path / "bad.json"
        suite.write_text(json.dumps({"cases": [JENSEN_SQUARE, {**BAD_CASES[name],
                                                               "name": name}]}))
        code, out, err = run_cli(capsys, "verify", str(suite), "--trials", "5")
        assert (code, out) == (2, "")
        line, = err.splitlines()
        assert line.startswith(f"error: case '{name}': ")

    @staticmethod
    def _drawn_case_entry(capsys, tmp_path, command, arity):
        # A comparison whose full search draws tuples of the given arity.
        suite = tmp_path / "wide.json"
        suite.write_text(json.dumps({"cases": [{
            "type": "comparison", "name": "wide", "chi": [1],
            "G": {"kind": "arithmetic", "arity": arity},
            "E": {"kind": "holder", "arity": arity, "params": {"p": 2}}}]}))
        code, out, err = run_cli(capsys, command, str(suite), "--trials", "5")
        entry, = json.loads(out)["cases"]
        assert (code, err) == ({"verify": 1, "fuzz": 0}[command], "")
        return entry

    @pytest.mark.parametrize("command", ["verify", "fuzz"])
    def test_an_arity_beyond_an_index_is_the_case_error(self, capsys, tmp_path, command):
        # numpy refuses a block of 10**20 entries before allocating any:
        # verify exited 2 with numpy's words alone, naming no case.
        entry = self._drawn_case_entry(capsys, tmp_path, command, 10**20)
        assert entry["error"] == ("InvalidArgumentError: wide (full): cannot draw its trials: "
                                  "Maximum allowed dimension exceeded")

    @pytest.mark.parametrize("command", ["verify", "fuzz"])
    def test_trials_beyond_memory_are_the_case_error(self, capsys, tmp_path, monkeypatch,
                                                     command):
        # The bounds of 2**40 entries raised numpy's MemoryError through the
        # draw: a traceback, exit 1.  The draw is patched to raise it, as a
        # host that overcommits memory could grant the 8 TiB instead.
        def beyond_memory(sampler, count):
            raise MemoryError(f"Unable to allocate {8 * count} bytes")

        monkeypatch.setattr(meanreduce.lab.BoxSampler, "entry_bounds", beyond_memory)
        entry = self._drawn_case_entry(capsys, tmp_path, command, 2**40)
        assert entry["error"] == ("InvalidArgumentError: wide (full): cannot draw its trials: "
                                  f"Unable to allocate {8 * 2**40} bytes")

    def test_suite_without_cases_exits_2(self, capsys, tmp_path):
        suite = tmp_path / "empty.json"
        suite.write_text(json.dumps({"name": "empty", "cases": []}))
        code, out, err = run_cli(capsys, "verify", str(suite))
        assert (code, out) == (2, "")
        assert err == "error: field 'cases': expected a nonempty list of cases, got []\n"

    @pytest.mark.parametrize("field, message", [
        ({"schema": 99}, "field 'schema': expected 1, got 99"),
        ({"nmae": "typo"}, "unknown field 'nmae'"),
    ], ids=["schema", "nmae"])
    def test_suite_file_field_is_read_not_ignored(self, capsys, tmp_path, field, message):
        # Neither is ignored: the report would say schema 1 and suite "suite".
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"cases": [JENSEN_SQUARE], **field}))
        code, out, err = run_cli(capsys, "verify", str(suite), "--trials", "5")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_case_field_is_refused_naming_it(self, capsys, tmp_path, name):
        # A misspelled field is refused, not ignored; a value of the wrong
        # type is refused, not coerced, and named by its field.
        case, label, message = REFUSED[name]
        suite = tmp_path / "bad.json"
        suite.write_text(json.dumps({"cases": [JENSEN_SQUARE, case]}))
        code, out, err = run_cli(capsys, "verify", str(suite), "--trials", "5")
        assert (code, out, err) == (2, "", f"error: case '{label}': {message}\n")

    @pytest.mark.parametrize("kind", ["weighted-arith-reduction", "deviation-reduction"])
    @pytest.mark.parametrize("expected", ["pass", "fail"])
    @pytest.mark.parametrize("failures", [0, 1])
    def test_oracle_verdict(self, capsys, tmp_path, monkeypatch, kind, expected, failures):
        # An oracle case passes where its failed samples meet its
        # expectation: none for "pass", some for "fail".
        report = OracleCheckReport(samples=3, tol=1e-8, max_abs_error=0.5 * failures,
                                   failures=({"error": 0.5},) * failures)
        oracle = {"weighted-arith-reduction": "weighted_arith_oracle",
                  "deviation-reduction": "deviation_oracle"}[kind]
        monkeypatch.setattr(meanreduce.suites, oracle,
                            lambda *args, **kwargs: lambda samples, seed: report)
        case = {"weighted-arith-reduction": {"weights": [1.0, 2.0, 3.0], "chi": [1, 2]},
                "deviation-reduction": {"exprs": ["u - v", "u - v"], "chi": [2]}}[kind]
        suite = tmp_path / "oracle.json"
        suite.write_text(json.dumps({"cases": [dict(case, type=kind, name="planted",
                                                    expected=expected)]}))
        code, out, err = run_cli(capsys, "verify", str(suite))
        entry, = json.loads(out)["cases"]
        ok = (failures == 0) == (expected == "pass")
        assert (code, err) == (0 if ok else 1, "")
        assert entry["ok"] is ok
        assert (entry["failures"], entry["passed"]) == (failures, failures == 0)

    @pytest.mark.parametrize("case", [
        {"type": "weighted-arith-reduction", "weights": [1.0, 2.0, 3.0], "chi": [1, 2]},
        {"type": "deviation-reduction", "exprs": ["u - v", "u^2 - v^2"], "chi": [2]},
    ])
    def test_zero_oracle_tolerance_exits_2(self, capsys, tmp_path, case):
        # The oracles derive the abs_tol of their solves from tol: at 0 the
        # case was an error entry about an abs_tol the suite never set.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"cases": [dict(case, name="zero-tol", tol=0)]}))
        code, out, err = run_cli(capsys, "verify", str(bad))
        assert (code, out) == (2, "")
        assert err == ("error: case 'zero-tol': field 'tol': expected a positive finite number, "
                       "got 0\n")

    # A point oracle's box: empty, or wider than the float range.  numpy
    # refused the first in the draw (exit 2, naming no case, no entry for
    # any case), and the second printed an OverflowError traceback.
    BOXES = {"flipped": ({"low": 3, "high": 1}, "'low' and 'high': expected low < high with a "
                         "finite high - low, got 3.0 and 1.0"),
             "wide": ({"low": -1e308, "high": 1e308}, "'low' and 'high': expected low < high "
                      "with a finite high - low, got -1e+308 and 1e+308"),
             "huge": ({"low": -10**400}, "field 'low': expected a finite number, got "
                      f"{-10**400}")}

    @staticmethod
    def _box_case(name):
        return {"type": "deviation-reduction", "name": name, "dim": 2, "chi": [1],
                "weights": [1.0, 2.0], "samples": 2, **TestVerifyCommand.BOXES[name][0]}

    @pytest.mark.parametrize("name", sorted(BOXES))
    def test_a_bad_point_box_exits_2_naming_the_case(self, capsys, tmp_path, name):
        suite = tmp_path / "box.json"
        suite.write_text(json.dumps({"cases": [self._box_case(name)]}))
        code, out, err = run_cli(capsys, "verify", str(suite))
        assert (code, out) == (2, "")
        assert err == f"error: case '{name}': {self.BOXES[name][1]}\n"

    def test_fuzz_runs_the_other_cases_past_a_bad_point_box(self, capsys, tmp_path):
        good = {"type": "weighted-arith-reduction", "name": "good", "weights": [1.0, 2.0],
                "chi": [1], "samples": 3}
        suite = tmp_path / "box.json"
        suite.write_text(json.dumps({"cases": [*map(self._box_case, sorted(self.BOXES)), good]}))
        code, out, err = run_cli(capsys, "fuzz", str(suite))
        report = json.loads(out)
        assert (code, err, report["errors"]) == (0, "", 3)
        *bad, entry = report["cases"]
        assert [e["error"] for e in bad] == [
            f"InvalidArgumentError: case '{name}': {self.BOXES[name][1]}"
            for name in sorted(self.BOXES)]
        assert (entry["case"], entry["passed"]) == ("good", True)

    # A JSON integer that no float holds, in a field that reads a number:
    # each printed an OverflowError traceback and exited 1.
    HUGE = {"tol": (dict(_WEIGHTS, tol=10**400),
                    f"field 'tol': expected a positive finite number, got {10**400}"),
            "weights": (dict(_WEIGHTS, weights=[10**400, 1.0]), "field 'weights': expected a "
                        f"list of numbers and expressions, got [{10**400}, 1.0]"),
            "holder-p": ({"type": "comparison", "chi": [1], "E": {"kind": "arithmetic", "arity": 2},
                          "G": {"kind": "holder", "arity": 2, "params": {"p": 10**400}}},
                         "field 'G': kind 'holder': field 'params': field 'p': expected a "
                         f"number, got {10**400}")}

    @pytest.mark.parametrize("name", sorted(HUGE))
    def test_an_integer_past_the_float_range_exits_2_naming_the_field(self, capsys, tmp_path,
                                                                       name):
        suite = tmp_path / "huge.json"
        suite.write_text(json.dumps({"cases": [dict(self.HUGE[name][0], name=name)]}))
        code, out, err = run_cli(capsys, "verify", str(suite))
        assert (code, out) == (2, "")
        assert err == f"error: case '{name}': {self.HUGE[name][1]}\n"

    def test_fuzz_records_an_integer_past_the_float_range_as_an_error_entry(self, capsys,
                                                                             tmp_path):
        suite = tmp_path / "huge.json"
        suite.write_text(json.dumps({"cases": [
            *(dict(self.HUGE[name][0], name=name) for name in sorted(self.HUGE)),
            dict(_WEIGHTS, name="good", samples=3)]}))
        code, out, err = run_cli(capsys, "fuzz", str(suite))
        report = json.loads(out)
        assert (code, err, report["errors"]) == (0, "", 3)
        *bad, entry = report["cases"]
        assert [e["error"] for e in bad] == [
            f"InvalidArgumentError: case '{name}': {self.HUGE[name][1]}"
            for name in sorted(self.HUGE)]
        assert (entry["case"], entry["passed"]) == ("good", True)

    def test_case_missing_a_field_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"cases": [{"name": "no-M", "type": "convexity",
                                              "f": "u^2"}]}))
        code, _, err = run_cli(capsys, "verify", str(bad))
        assert code == 2
        assert "'M'" in err

    @pytest.mark.parametrize("weight", [0.0, -2.0])
    def test_nonpositive_vector_weight_exits_2(self, capsys, tmp_path, weight):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"cases": [{
            "name": "bad-weight", "type": "deviation-reduction", "expected": "pass",
            "dim": 2, "weights": [1.0, weight], "chi": [1], "samples": 1}]}))
        code, out, err = run_cli(capsys, "verify", str(bad))
        assert code == 2
        assert out == ""
        assert "weight must be positive" in err

    def test_output_file_and_determinism(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["verify", "failing", "--seed", "7", "--trials", "40",
                     "--output", str(out1)]) == 0
        assert main(["verify", "failing", "--seed", "7", "--trials", "40",
                     "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    # sha256 of the seed-1, -7 and -1001 reports of the packaged suites with
    # no vector case, whose bytes depend on no BLAS kernel; together they
    # run every scalar closed form.
    PINNED_REPORTS = {
        ("comparisons", 1): "90a3159b4f16437f7c9d518d226e72c9f0d8a9c2370ca504c341d8f8f4c0a9f6",
        ("comparisons", 7): "2aee7215143ad7c0b37728ab983025cd195ce7a0dec03bb2b0d8c07daa685eca",
        ("comparisons", 1001): "828944dc1cb74aec0e853afad02e0444d065d306cf21cfaeac8fb4153b050422",
        ("failing", 1): "733d8fb1b2b0291fff3cdadbe8a5e6db689aded35c8c1f4331265151342d8c3d",
        ("failing", 7): "08b4e2ec73a41b1ed695a8cff7644c41edd2a73a44be74735922594013e7883e",
        ("failing", 1001): "6bdc66f73d883feef990fa5c50d6cf68aef59f494adb6413adfb941753c09343",
        ("holder-minkowski", 1):
            "2328fdf4dd4595b0b317c3ec248601b1fc07cd7545162a7de52e37c5c3f91d49",
        ("holder-minkowski", 7):
            "43561db0ad064c97733bd69e64879d48949dfd57c01acfc215c4dda7ab87f6c0",
        ("holder-minkowski", 1001):
            "7e7959d37b9f27f09e30988f4a32ae35ec6948028bb3814d88f501cc4fbe7d47",
    }

    @pytest.mark.parametrize("suite,seed", _pin_params(PINNED_REPORTS))
    def test_scalar_suite_reports_are_pinned(self, capsys, suite, seed):
        code, out, _ = run_cli(capsys, "verify", suite, "--seed", str(seed))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_REPORTS[suite, seed]

    # The same for the scalar cases of the suites with vector cases, those
    # whose case or domain-side mean names no "dim": jensen's convexity
    # verdicts and the scalar reduction oracles.
    PINNED_SCALAR_CASES = {
        ("jensen", 1): "312f4d6e2f4bf66b8f0c491a915997d7d033fb512abb4e3ccbfa04fc1d47acfe",
        ("jensen", 7): "44e9add07a88978c8bc14ddb23504fc8678a0405cda837bd40b1690423354215",
        ("jensen", 1001): "93e97f9666d1c124b240435a405b6a9c6b8fcca853cff8a97f2fa108dbf24222",
        ("reduction-oracles", 1):
            "c58147c1ce302b73a29dfc1fba2fcb54aaa2fbe86ccc9a4028e3a210a981ea70",
        ("reduction-oracles", 7):
            "d3f3c67e8f0f1a047883dc78231db3550f616f899c20cf39f2db18a6babdd0ec",
        ("reduction-oracles", 1001):
            "4f95e4907f33eeb42ac9f993abed0452e31794343758b56bee8b2df899c9cba6",
    }

    @pytest.mark.parametrize("suite,seed", _pin_params(PINNED_SCALAR_CASES))
    def test_scalar_case_reports_are_pinned(self, capsys, tmp_path, suite, seed):
        data = load_suite(suite)
        data["cases"] = [c for c in data["cases"]
                         if "dim" not in c and "dim" not in c.get("M", {})]
        path = tmp_path / f"{suite}.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "verify", str(path), "--seed", str(seed))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_SCALAR_CASES[suite, seed]

    @pytest.mark.filterwarnings("error")
    def test_suite_over_a_box_wider_than_the_float_range(self, capsys, tmp_path):
        # The boxes' widths overflow.  At some witness of the full check the
        # deviation sum holds +inf and -inf, a DomainError of the mean at a
        # witness inside the box: that case reports the mean's own error,
        # and the next cases still run.
        box = {"low": -1.7e308, "high": 1.7e308}
        deviations = {"kind": "deviation-custom", "arity": 3, "params": {
            "exprs": ["u-v", "3*(u-v)", "u-v"], "domain": [-1.7e308, 1.7e308]}}
        arithmetic = {"kind": "arithmetic", "arity": 3}
        suite = tmp_path / "wide.json"
        suite.write_text(json.dumps({"cases": [
            {"name": "overflowing-deviations", "type": "comparison", "chi": [1, 3],
             "domain": box, "G": deviations, "E": arithmetic},
            {"name": "arithmetic", "type": "comparison", "chi": [1, 3],
             "domain": box, "E": arithmetic, "G": arithmetic},
            {"name": "weighted-reduction", "type": "weighted-arith-reduction",
             "weights": [1.0, 2.0, 1.0], "chi": [1, 3], "domain": [-1.7e308, 1.7e308],
             "samples": 3},
        ]}))
        code, out, err = run_cli(capsys, "verify", str(suite), "--trials", "20")
        assert (code, err) == (1, "")
        first, second, third = json.loads(out)["cases"]
        assert first["error"].startswith("DomainError: custom deviation mean at (")
        assert "both infinities" in first["error"] and "sampler" not in first["error"]
        assert second["ok"] is True and second["full"]["found"] is False
        assert "error" not in third and third["samples"] == 3

    def test_selection_of_the_wrong_slots_fails_the_recheck(self, capsys, tmp_path,
                                                            monkeypatch):
        # G and E are one weighted arithmetic mean, once as a Bajraktarevic
        # mean with the identity generator.  G's selection hook reverses the
        # slots chi picks, so the reduced search finds G_chi > E_chi; the
        # fixed-point recheck of that witness disagrees with it, also where
        # a zero reduced tolerance leaves the fixed point's own as the floor.
        def build_with_reversed_slots(desc, cfg):
            M = build_mean(desc, cfg)
            if desc.kind != "weighted-arithmetic":
                return M
            return replace(M, select=lambda chi: M.select(
                Injection.of(tuple(reversed(chi.map)), n=chi.n)))

        monkeypatch.setattr(meanreduce.suites, "build_mean", build_with_reversed_slots)
        weights = [1.0, 9.0, 1.0]
        suite = tmp_path / "wrong-slots.json"
        suite.write_text(json.dumps({"cases": [
            {"name": "wrong-slots", "type": "comparison", "chi": [1, 2],
             "G": {"kind": "weighted-arithmetic", "arity": 3, "params": {"weights": weights}},
             "E": {"kind": "bajraktarevic", "arity": 3,
                   "params": {"f": "u", "weights": weights}}},
        ]}))
        for flags in ((), ("--reduced-tol", "0")):
            code, out, err = run_cli(capsys, "verify", str(suite), "--trials", "20", *flags)
            assert (code, err) == (1, "")
            case, = json.loads(out)["cases"]
            assert case["error"].startswith(
                "ReductionMismatchError: wrong-slots (reduced): at (")
            assert "by selection and" in case["error"]

    def test_reduced_find_after_a_full_pass_fails_the_case(self, capsys, tmp_path,
                                                           monkeypatch):
        # The reduced check is planted to find a witness.  A convexity case
        # without chi has no reduced check and reports the flag false; with
        # chi, the full pass and the reduced find flag an implication
        # violation, which fails the case.
        found = CounterexampleReport(found=True, trials=1, witness=(1.0, 2.0), lhs=2.0,
                                     rhs=1.0, gap=1.0, case="planted")
        monkeypatch.setattr(meanreduce.suites, "check_reduced_convexity",
                            lambda *args, **kwargs: found)
        arithmetic = {"kind": "arithmetic", "arity": 3}
        case = {"type": "convexity", "M": arithmetic, "N": arithmetic, "f": "u^2",
                "domain": {"low": -4.0, "high": 4.0}}
        suite = tmp_path / "planted.json"
        suite.write_text(json.dumps({"cases": [dict(case, name="no-chi"),
                                               dict(case, name="chi", chi=[1, 2])]}))
        code, out, err = run_cli(capsys, "verify", str(suite), "--trials", "10")
        assert (code, err) == (1, "")
        no_chi, with_chi = json.loads(out)["cases"]
        assert (no_chi["ok"], no_chi["implication_violated"]) == (True, False)
        assert "reduced" not in no_chi
        assert (with_chi["ok"], with_chi["implication_violated"]) == (False, True)
        assert with_chi["reduced"]["found"] is True

    def test_zero_reduced_tolerance_asks_no_more_than_the_fixed_point(self, capsys):
        # Selection and the fixed point differ by 1 ulp on log-not-convex and
        # by 2e-11 relative on lehmer-le-arith-reversed; they are compared at
        # the fixed point's residual tolerance, 1e-10.
        code, out, _ = run_cli(capsys, "verify", "failing", "--seed", "7", "--reduced-tol", "0")
        assert code == 0
        assert not any("error" in case for case in json.loads(out)["cases"])

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "reduction-oracles", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("case,kind,expected,ok")

    def test_csv_columns_of_an_inequality_suite_are_its_full_reports(self, capsys):
        # Every entry of an inequality suite carries its reports under
        # "full" (and "reduced"); the CSV reads the found flags and sides
        # from there.
        entries = run_json(capsys, "verify", "failing", "--seed", "7")["cases"]
        code, out, _ = run_cli(capsys, "verify", "failing", "--seed", "7", "--format", "csv")
        assert code == 0
        header, *rows = [line.split(",") for line in out.splitlines()]
        assert header[5:] == ["found_full", "found_reduced", "lhs", "rhs", "gap"]
        assert [row[5:7] for row in rows] == [
            ["True", "False"], ["True", "False"], ["True", "True"], ["True", "False"],
            ["True", "True"], ["True", "False"], ["True", "False"]]
        assert [row[7:] for row in rows] == [
            [str(e["full"][key]) for key in ("lhs", "rhs", "gap")] for e in entries]
        assert all(float(row[9]) > 0.0 for row in rows)


class TestFuzzCommand:
    def test_fuzz_reports_without_expectations(self, capsys):
        report = run_json(capsys, "fuzz", "failing", "--trials", "40")
        assert report["counterexamples"] >= 5
        assert report["errors"] == 0

    def test_fuzz_same_seed_identical(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["fuzz", "failing", "--seed", "3", "--trials", "30",
                     "--output", str(a)]) == 0
        assert main(["fuzz", "failing", "--seed", "3", "--trials", "30",
                     "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nan_tolerance_is_an_error_in_every_case(self, capsys):
        report = run_json(capsys, "fuzz", "jensen", "--trials", "5", "--tol", "nan")
        assert report["errors"] == len(report["cases"]) > 0
        assert all(entry["error"].endswith(
            "field 'tol': expected a finite number of at least 0, got nan")
            for entry in report["cases"])

    def test_malformed_case_becomes_an_error_entry(self, capsys, tmp_path):
        suite = {"name": "mixed", "cases": [
            {"name": "bogus", "type": "no-such-type"},
            {"name": "no-M", "type": "convexity", "f": "u^2"},
            "not-an-object",
            {"name": "jensen-square", "type": "convexity", "f": "u^2",
             "M": {"kind": "arithmetic", "arity": 2},
             "N": {"kind": "arithmetic", "arity": 2}},
        ]}
        names = sorted(MALFORMED) + sorted(NO_TRIALS)
        suite["cases"] += [{**BAD_CASES[name], "name": name} for name in names]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(suite))
        report = run_json(capsys, "fuzz", str(path), "--trials", "5")
        bogus, no_m, not_object, good, *bad = report["cases"]
        assert bogus["error"] == "InvalidArgumentError: case 'bogus': unknown type 'no-such-type'"
        assert no_m["error"] == "InvalidArgumentError: case 'no-M': missing field 'M'"
        assert "must be an object" in not_object["error"]
        assert "error" not in good and good["full"]["found"] is False
        assert [entry["case"] for entry in bad] == names
        for name, entry in zip(names, bad):
            assert entry["error"].startswith(f"InvalidArgumentError: case '{name}': ")
        assert report["errors"] == 3 + len(names)


def test_scalar_commands_do_not_import_scipy():
    # scipy is needed only by the vector hull solves and checks;
    # importing it costs most of a scalar command's start-up.
    script = ("import sys, meanreduce, meanreduce.cli, meanreduce.suites\n"
              "assert meanreduce.cli.main(['mean', '--kind', 'holder', '--p', '2',"
              " '--x', '1,2,3']) == 0\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(meanreduce.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [
    ["reduce", "--kind", "arithmetic", "--arity", "3", "--chi", "1,3"],
    ["mean", "--kind", "deviation-custom", "--exprs", "u-v"],
    ["mean", "--kind", "matkowski", "--fs", "u;u"],
    ["reduce", "--kind", "matkowski", "--fs", "u;u;u", "--arity", "3", "--chi", "1,3"],
], ids=["arithmetic-reduction", "deviation-mean", "matkowski-mean", "matkowski-reduction"])
def test_bracket_wider_than_the_float_range(capsys, argv):
    # max x - min x = 2e308 overflows; so did every tolerance scaled by it.
    code, out, err = run_cli(capsys, *argv, "--x", "-1e308,1e308")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["value"] == 0.0 and data["converged"] is True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags, code", [
    (["--kind", "deviation-custom", "--exprs", "u-v"], 0),
    (["--kind", "weighted-arithmetic", "--weights", "u^2+1"], 2),
    (["--kind", "quasi-arithmetic", "--f", "u^3"], 2),
], ids=["deviation", "weight", "generator"])
def test_sampling_box_wider_than_the_float_range(capsys, flags, code):
    # 1.7e308 - -1.7e308 overflows, and numpy's uniform raised OverflowError
    # while the axioms were sampled.  The weight and the generator then
    # overflow at samples near 1.7e308, a typed error.
    got, out, err = run_cli(capsys, "mean", *flags, "--domain=-1.7e308,1.7e308", "--x", "1,2")
    assert got == code
    if code == 0:
        assert (json.loads(out)["value"], err) == (1.5, "")
    else:
        assert err.startswith(f"error: evaluating {flags[-1]!r}: ")
        assert "Numerical result out of range" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("domain", ["-1.7e308,1.7e308", "-1e300,1e300"])
def test_increasing_deviation_fails_at_construction_on_any_domain(capsys, domain):
    # On the wider domain the sampled span overflows; uncapped it switched
    # the monotonicity and sign tests off, and the solve failed instead.
    code, out, err = run_cli(capsys, "mean", "--kind", "deviation-custom", "--exprs", "v-u",
                             f"--domain={domain}", "--x", "1,2")
    assert (code, out) == (2, "")
    assert err.startswith("error: deviation 'v-u': section not strictly decreasing on (")


def test_deviation_sum_over_both_infinities_exits_2(capsys):
    # At a probe y one term 3 (x_i - y) is +inf and another -inf; math.fsum
    # raised a bare ValueError.
    code, out, err = run_cli(capsys, "reduce", "--kind", "deviation-custom",
                             "--exprs", "u-v;3*(u-v);u-v", "--arity", "3", "--chi", "1,3",
                             "--x=-1.7e308,1.7e308")
    assert (code, out) == (2, "")
    assert err == "error: terms overflow to both infinities: their sum is undefined\n"


@pytest.mark.parametrize("command,entry", [
    ("mean", "nan"), ("mean", "inf"), ("mean", "-1e400"), ("reduce", "inf"),
])
def test_non_finite_data_exits_2(capsys, command, entry):
    extra = ["--arity", "3", "--chi", "1,3"] if command == "reduce" else []
    code, out, err = run_cli(capsys, command, "--kind", "arithmetic", *extra,
                             "--x", f"{entry},1")
    assert (code, out) == (2, "")
    assert err == f"error: --x entry {entry!r} is not a finite number\n"


# Per case: the scalar kind, its fixed parameters, and whether it takes data
# of both signs.  The exponents below 0.5 run the expm1/log1p form of small
# exponents on close data; on data far apart, q < 0 puts the weights x^q on
# the smallest entry.
EXTREME_CASES = {
    "arithmetic": ("arithmetic", [], True),
    "weighted-arithmetic": ("weighted-arithmetic", ["--weights", "1;2.5;u^2+1"], True),
    "holder": ("holder", ["--p", "0.25"], False),
    "holder-small-negative": ("holder", ["--p=-0.4"], False),
    "gini": ("gini", ["--p", "2", "--q", "1"], False),
    "gini-small-gap": ("gini", ["--p", "0.3", "--q=-0.1"], False),
    "quasi-arithmetic": ("quasi-arithmetic", ["--f", "exp"], True),
    "bajraktarevic": ("bajraktarevic", ["--f", "u", "--weights", "1;2;0.5"], True),
    "matkowski": ("matkowski", ["--fs", "u;2*u;u"], True),
    "deviation-custom": ("deviation-custom", ["--exprs", "u-v;2*(u-v);u-v"], True),
}
# The ends of the float range, subnormals and the smallest normal (the open
# end 0 of the positive kinds), and ordinary values.
EXTREME_MAGNITUDES = [1e308, sys.float_info.max, 5e-324, 1e-320, sys.float_info.min,
                      1e-300, 0.5, 1.0, 3.0]


def _extreme_values(signed: bool):
    magnitude = st.one_of(st.sampled_from(EXTREME_MAGNITUDES),
                          st.floats(min_value=5e-324, max_value=sys.float_info.max))
    values = st.one_of(magnitude, magnitude.map(lambda v: -v), st.just(0.0)) if signed \
        else magnitude
    return st.one_of(values, st.sampled_from([math.nan, math.inf, -math.inf]))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("case", sorted(EXTREME_CASES))
@pytest.mark.parametrize("command", ["mean", "reduce"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_extreme_data_exits_cleanly(case, command, data):
    """Data at the ends of the float range, subnormal, at the open end of the
    domain or not finite: every run ends in exit 0 with valid JSON (no NaN,
    no Infinity), 2 or 3, never a traceback."""
    kind, flags, signed = EXTREME_CASES[case]
    count = 3 if command == "mean" else 2
    x = data.draw(st.lists(_extreme_values(signed), min_size=count, max_size=count))
    argv = [command, "--kind", kind, "--arity", "3", *flags,
            "--x", ",".join(repr(v) for v in x)]
    if command == "reduce":
        argv += ["--chi", "1,3"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def _readme_section(title: str) -> str:
    """The text of README's section ``## <title>``, up to the next section."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    return text.split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def _readme_suite() -> dict:
    """The example suite of README's suite schema section."""
    block = _readme_section("Suite schema").split("```json\n", 1)[1].split("```", 1)[0]
    return json.loads(block)


def test_readme_schema_sections_name_every_field():
    # Every table of fields that the readers of suites and descriptors use.
    suites, descriptors = meanreduce.suites, meanreduce.descriptors
    tables = {"Suite schema": [suites._SUITE, suites._BOX,
                               suites._POINT_DEVIATIONS, *suites._CASES.values()],
              "Descriptor schema": [descriptors._DESCRIPTOR, descriptors._DOMAIN,
                                    *descriptors._PARAMS.values()]}
    for title, records in tables.items():
        text = _readme_section(title)
        missing = {key for record in records for key in record if f"`{key}`" not in text}
        assert missing == set(), (title, missing)
    suite, descriptor = _readme_section("Suite schema"), _readme_section("Descriptor schema")
    assert all(f"| `{kind}` |" in suite for kind in suites._CASES)
    assert all(f"| `{kind}` |" in descriptor for kind in descriptors.KINDS)


def _reads(build: Callable) -> dict:
    """The calls made while ``build`` runs: of MeanDescriptor.from_json
    ("descriptor"), of parse_domain ("domain") and of _read_fields on a
    sampler box ("box") and on the fields of a descriptor ("descriptor
    fields")."""
    suites, descriptors = meanreduce.suites, meanreduce.descriptors
    names = {descriptors.MeanDescriptor.from_json.__func__.__code__: "descriptor",
             descriptors.parse_domain.__code__: "domain"}
    tables = {id(suites._BOX): "box", id(descriptors._DESCRIPTOR): "descriptor fields"}
    counts = dict.fromkeys(("descriptor", "domain", "box", "descriptor fields"), 0)

    def count(frame, event, arg):
        if event != "call":
            return
        if frame.f_code in names:
            counts[names[frame.f_code]] += 1
        elif frame.f_code is _read_fields.__code__ and id(frame.f_locals["fields"]) in tables:
            counts[tables[id(frame.f_locals["fields"])]] += 1

    sys.setprofile(count)
    try:
        build()
    finally:
        sys.setprofile(None)
    return counts


def test_build_runner_reads_each_record_once():
    # Every descriptor of a packaged case (each entry of an N list too),
    # every domain and every sampler box, given or the field's default, is
    # read once, into what the case is built from; so is each field of a
    # descriptor.
    suites = meanreduce.suites
    cases = [case for source in suites.packaged_suite_names()
             for case in load_suite(source)["cases"]]
    expected = dict.fromkeys(("descriptor", "domain", "box", "descriptor fields"), 0)
    for case in cases:
        descs = [d for key in ("M", "N", "G", "E") if key in case
                 for d in (case[key] if isinstance(case[key], list) else [case[key]])]
        fields = suites._CASES[case["type"]]
        if case["type"] == "deviation-reduction" and "exprs" not in case:
            fields = suites._POINT_DEVIATIONS
        expected["descriptor"] += len(descs)
        expected["domain"] += (sum("domain" in d.get("params", {}) for d in descs)
                               + (fields.get("domain") is suites._INTERVAL))
        expected["box"] += (fields.get("domain") is suites._SAMPLER) + len(case.get("domains", []))
    expected["descriptor fields"] = expected["descriptor"]
    assert min(expected.values()) > 0
    assert _reads(lambda: [suites.build_runner(c, 40, 1e-9, 1e-8) for c in cases]) == expected


README_CASES = _readme_suite()["cases"]
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=4)


def _field_paths(record: dict, path: tuple = ()):
    """The path of every field of a JSON record and of the records nested in
    it: keys, and the index of a record in a list."""
    for key, value in record.items():
        yield path + (key,)
        nested = enumerate(value) if isinstance(value, list) else [(None, value)]
        for i, entry in nested:
            if isinstance(entry, dict):
                yield from _field_paths(entry, path + (key,) + (() if i is None else (i,)))


def _table(case: dict, parents: list) -> dict:
    """The table of fields of the record at ``parents`` in a case."""
    keys = [step for step in parents if isinstance(step, str)]
    if not keys:
        return meanreduce.suites._CASES[case["type"]]
    if keys[-1] == "params":
        descriptor = case
        for step in parents[:-1]:
            descriptor = descriptor[step]
        return meanreduce.descriptors._PARAMS[descriptor["kind"]]
    if keys[-1] in ("domain", "domains"):
        inequality = "trials" in meanreduce.suites._CASES[case["type"]]
        return meanreduce.suites._BOX if len(keys) == 1 and inequality \
            else meanreduce.descriptors._DOMAIN
    return meanreduce.descriptors._DESCRIPTOR


def _refused(field, value) -> bool:
    """Whether a field's test refuses the value: it fails, or it raises, as
    the reader of a nested record does."""
    try:
        return not field.test(value)
    except meanreduce.MeansError:
        return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(index=st.integers(0, len(README_CASES) - 1), data=st.data())
def test_suite_reader_names_the_case_of_every_build_error(index, data):
    """A README example case with one field replaced by a small JSON value,
    a field of the case or of a record nested in it (a descriptor, a box or
    a domain), builds, or raises a MeansError that names the case, never
    another exception.  A value that the field's test refuses is named by
    its full path: ``case '<name>': field 'M': field 'arity': ...``."""
    case = copy.deepcopy(README_CASES[index])
    *parents, key = data.draw(st.sampled_from(list(_field_paths(case))))
    table = None if key == "type" else _table(case, parents)
    record = case
    for step in parents:
        record = record[step]
    record[key] = value = data.draw(_SMALL_JSON)
    name = case["name"] if isinstance(case["name"], str) else case["type"]
    path, record = f"case {name!r}: ", case
    for depth, step in enumerate(parents + [key]):
        if step == "params" and depth < len(parents):  # the kind's parameters name their kind
            path += f"kind {record['kind']!r}: "
        path += "" if isinstance(step, int) else f"field {step!r}: "
        record = record[step]
    try:
        meanreduce.suites.build_runner(case, 40, 1e-9, 1e-8)
    except meanreduce.MeansError as exc:
        assert str(exc).startswith(f"case {name!r}: "), exc
        if table is not None and _refused(table[key], value):
            assert str(exc).startswith(path), exc


_BOUNDED = "(u1-v1)/(1+abs(u1-v1))"


@pytest.mark.parametrize("argv, message", [
    (["mean", "--kind", "gen-deviation", "--dim", "1", "--exprs", f"{_BOUNDED};" * 2 + _BOUNDED,
      "--x", "1e200;0;0"], "gen-deviation mean did not converge at [[1e+200], [0.0], [0.0]]"),
    (["reduce", "--kind", "gen-deviation", "--arity", "3", "--dim", "1",
      "--exprs", f"{_BOUNDED};3*{_BOUNDED};{_BOUNDED}", "--chi", "1,2", "--x", "1e200;0"],
     "generalized deviation mean did not converge at [[1e+200], [0.0], [5e+199]]"),
], ids=["mean", "reduce"])
def test_a_hull_solve_past_1e154_is_not_converged_by_an_infinite_tolerance(capsys, argv, message):
    # |x|^2 overflows at |x| > 1.34e154, and so did the hull solve's slack
    # tolerance and the reduction's spread: the mean converged at once at the
    # centroid 3.3e199, the reduction at 5e199; the means are near 1 and 0.5.
    # The local step test of vector._slack_step still overflows at this scale.
    with np.errstate(over="ignore"):
        code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", f"no convergence: {message}\n")
