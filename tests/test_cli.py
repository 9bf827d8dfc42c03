import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import meanreduce
import meanreduce.suites

from meanreduce.cli import main
from meanreduce.core import Injection
from meanreduce.descriptors import build_mean
from meanreduce.lab import CounterexampleReport
from meanreduce.suites import load_suite


def _pin_params(table):
    """(suite, seed) parameters of a table of pinned report hashes; seed 7,
    the first pinned, keeps the bare suite name as its test id."""
    return [pytest.param(suite, seed, id=suite if seed == 7 else f"{suite}-seed{seed}")
            for suite, seed in sorted(table)]


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
        assert err == "error: kind 'holder' does not take parameters ['domain', 'q']\n"

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

    def test_budget_exhaustion_exits_3(self, capsys):
        # One step solves the arithmetic reduction (its section is affine),
        # so the budget runs out on a curved one.
        code, _, err = run_cli(capsys, "reduce", "--kind", "holder", "--p", "3",
                               "--arity", "4", "--chi", "1,2,3", "--x", "1,2,4",
                               "--max-iter", "1", "--abs-tol", "1e-13")
        assert code == 3
        assert "converge" in err


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
        assert "trials must be at least 1" in err

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
        assert "must be finite and nonnegative" in err

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
        assert f"{field} must be finite and nonnegative" in err

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
        ("failing", 7): "f35ccb1f44f7d0acbb7e779be42fb212286252e0bbaa9d7d8b4c79bad90e7f4c",
        ("failing", 1001): "3d30cdabd29bacfa1994fde579312008484ac8f3a3825e41cd57839b818e2285",
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
            "d13b5cb780f44fb2872081994eaffd29cabbf2a43a3d40e4ce0c9cc73e302672",
        ("reduction-oracles", 7):
            "57bdd231ad24ddb63cd6406e98269aec4dedea4b8578b63226847758114a93ba",
        ("reduction-oracles", 1001):
            "0426f5d94921793134392bfa536db636bccb564e8bd4b08d87fe558bd3d72278",
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
        assert all("tol must be finite" in entry["error"] for entry in report["cases"])

    def test_malformed_case_becomes_an_error_entry(self, capsys, tmp_path):
        suite = {"name": "mixed", "cases": [
            {"name": "bogus", "type": "no-such-type"},
            {"name": "no-M", "type": "convexity", "f": "u^2"},
            "not-an-object",
            {"name": "jensen-square", "type": "convexity", "f": "u^2",
             "M": {"kind": "arithmetic", "arity": 2},
             "N": {"kind": "arithmetic", "arity": 2}},
        ]}
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(suite))
        report = run_json(capsys, "fuzz", str(path), "--trials", "5")
        bogus, no_m, not_object, good = report["cases"]
        assert "unknown type" in bogus["error"]
        assert "'M'" in no_m["error"]
        assert "must be an object" in not_object["error"]
        assert "error" not in good and good["full"]["found"] is False
        assert report["errors"] == 3


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
