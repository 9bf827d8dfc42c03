import json
import os
import subprocess
import sys

import pytest

import meanreduce

from meanreduce.cli import main


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
