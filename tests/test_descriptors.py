import json

import numpy as np
import pytest

from meanreduce.core import SolverConfig
from meanreduce.descriptors import (
    MeanDescriptor,
    build_mean,
    evaluate_with_report,
    parse_domain,
)
from meanreduce.errors import InvalidArgumentError


DESCRIPTORS = [
    {"kind": "arithmetic", "arity": 3},
    {"kind": "arithmetic", "arity": 3, "dim": 2},
    {"kind": "weighted-arithmetic", "arity": 3,
     "params": {"weights": [2.0, 1.0, 1.0]}},
    {"kind": "weighted-arithmetic", "arity": 2,
     "params": {"weights": ["u", "1"], "domain": [0, None]}},
    {"kind": "holder", "arity": 4, "params": {"p": 2.0}},
    {"kind": "holder", "arity": 3, "params": {"p": 0.0}},
    {"kind": "gini", "arity": 3, "params": {"p": 2.0, "q": 1.0}},
    {"kind": "quasi-arithmetic", "arity": 3, "params": {"f": "log"}},
    {"kind": "quasi-arithmetic", "arity": 2,
     "params": {"f": "u^3", "domain": [0.05, 20]}},
    {"kind": "bajraktarevic", "arity": 2,
     "params": {"f": "u", "weights": ["u", "1"], "domain": [0.05, 20]}},
    {"kind": "matkowski", "arity": 2,
     "params": {"fs": ["u", "2*u"], "domain": [-20, 20]}},
    {"kind": "deviation-custom", "arity": 2,
     "params": {"exprs": ["u*(u - v)"], "domain": [0.05, 30]}},
    {"kind": "gen-deviation", "arity": 2, "dim": 2,
     "params": {"exprs": [["2*(u1 - v1)", "2*(u2 - v2)"]]}},
    {"kind": "norm-squared-potential", "arity": 3, "dim": 2,
     "params": {"weights": [1.0, 1.0, 2.0]}},
    {"kind": "custom-potential", "arity": 2, "dim": 1,
     "params": {"exprs": ["(v1 - u1)^2"]}},
]

# For each kind, one parameter that it does not read, and a value of the
# kind that parameter takes where it is read.
UNREAD = {
    "arithmetic": "weights",
    "weighted-arithmetic": "p",
    "holder": "q",
    "gini": "domain",
    "quasi-arithmetic": "weights",
    "bajraktarevic": "fs",
    "matkowski": "f",
    "deviation-custom": "weights",
    "gen-deviation": "domain",
    "norm-squared-potential": "exprs",
    "custom-potential": "weights",
}
UNREAD_VALUES = {"weights": [1.0], "p": 2.0, "q": 3.0, "domain": [0, 5], "fs": ["u"],
                 "f": "log", "exprs": ["(v1 - u1)^2"]}


def sample_inputs(desc: MeanDescriptor, rng):
    positive = desc.kind in ("holder", "gini", "quasi-arithmetic", "bajraktarevic",
                             "deviation-custom") or "domain" in desc.params
    if desc.dim is None:
        lo, hi = (0.2, 5.0) if positive else (-3.0, 3.0)
        return tuple(float(v) for v in rng.uniform(lo, hi, desc.arity))
    return tuple(rng.uniform(-2.0, 2.0, desc.dim) for _ in range(desc.arity))


class TestRoundTrip:
    @pytest.mark.parametrize("data", DESCRIPTORS, ids=lambda d: d["kind"] + str(d.get("dim", "")))
    def test_json_round_trip_preserves_values(self, data):
        desc = MeanDescriptor.from_json(data)
        rebuilt = MeanDescriptor.from_json(json.loads(json.dumps(desc.to_json())))
        M1 = build_mean(desc)
        M2 = build_mean(rebuilt)
        rng = np.random.default_rng(97)
        for _ in range(5):
            x = sample_inputs(desc, rng)
            v1, v2 = M1(x), M2(x)
            if desc.dim is None:
                assert v2 == pytest.approx(v1, abs=1e-12)
            else:
                np.testing.assert_allclose(v2, v1, atol=1e-12)


class TestKnownValues:
    def test_holder(self):
        M = build_mean(MeanDescriptor.from_json({"kind": "holder", "arity": 2, "params": {"p": 2}}))
        assert M((1.0, 7.0)) == pytest.approx(5.0)

    def test_gini(self):
        M = build_mean(MeanDescriptor.from_json(
            {"kind": "gini", "arity": 2, "params": {"p": 2, "q": 1}}))
        assert M((1.0, 3.0)) == pytest.approx(2.5)

    def test_quasi_arithmetic_log(self):
        M = build_mean(MeanDescriptor.from_json(
            {"kind": "quasi-arithmetic", "arity": 2, "params": {"f": "log"}}))
        assert M((2.0, 8.0)) == pytest.approx(4.0)

    def test_matkowski_mixed(self):
        M = build_mean(MeanDescriptor.from_json(
            {"kind": "matkowski", "arity": 2, "params": {"fs": ["u", "2*u"], "domain": [-20, 20]}}))
        assert M((0.0, 3.0)) == pytest.approx(2.0, abs=1e-9)

    def test_custom_deviation_solves(self):
        M = build_mean(MeanDescriptor.from_json(
            {"kind": "deviation-custom", "arity": 2,
             "params": {"exprs": ["u*(u - v)"], "domain": [0.05, 30]}}))
        assert M((1.0, 3.0)) == pytest.approx(2.5, abs=1e-9)

    def test_norm_squared_potential_matches_weighted_average(self):
        M = build_mean(MeanDescriptor.from_json(
            {"kind": "norm-squared-potential", "arity": 2, "dim": 1,
             "params": {"weights": [3.0, 1.0]}}))
        value = M(((0.0,), (4.0,)))
        assert value[0] == pytest.approx(1.0, abs=1e-9)

    def test_gen_deviation_expression(self):
        M = build_mean(MeanDescriptor.from_json(
            {"kind": "gen-deviation", "arity": 3, "dim": 2,
             "params": {"exprs": [["2*(u1 - v1)", "2*(u2 - v2)"]]}}))
        value = M(((0.0, 0.0), (2.0, 0.0), (0.0, 2.0)))
        np.testing.assert_allclose(value, [2 / 3, 2 / 3], atol=1e-9)

    def test_functional_weighted_arithmetic(self):
        M = build_mean(MeanDescriptor.from_json(
            {"kind": "weighted-arithmetic", "arity": 2,
             "params": {"weights": ["u", "u"], "domain": [0, None]}}))
        assert M((1.0, 3.0)) == pytest.approx(2.5)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidArgumentError):
            MeanDescriptor.from_json({"kind": "median", "arity": 3})

    def test_vector_kind_needs_dim(self):
        with pytest.raises(InvalidArgumentError):
            MeanDescriptor.from_json({"kind": "gen-deviation", "arity": 2})

    def test_missing_params(self):
        with pytest.raises(InvalidArgumentError):
            build_mean(MeanDescriptor.from_json({"kind": "holder", "arity": 2}))

    def test_unknown_fields_rejected(self):
        with pytest.raises(InvalidArgumentError):
            MeanDescriptor.from_json({"kind": "holder", "arity": 2, "power": 2})

    @pytest.mark.parametrize("kind, extra", sorted(UNREAD.items()))
    def test_parameter_the_kind_does_not_read_is_rejected(self, kind, extra):
        base = next(d for d in DESCRIPTORS if d["kind"] == kind)
        MeanDescriptor.from_json(base)
        data = dict(base, params={**base.get("params", {}), extra: UNREAD_VALUES[extra]})
        with pytest.raises(InvalidArgumentError, match=f"kind '{kind}'.*'{extra}'"):
            MeanDescriptor.from_json(data)

    def test_weight_count_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            build_mean(MeanDescriptor.from_json(
                {"kind": "weighted-arithmetic", "arity": 3, "params": {"weights": [1.0, 2.0]}}))

    def test_parse_domain_forms(self):
        d1 = parse_domain([0, None])
        assert d1.lo == 0.0 and d1.lo_open
        d2 = parse_domain({"lo": 0.0, "hi": 1.0, "lo_open": True})
        assert 0.0 not in d2 and 1.0 in d2
        d3 = parse_domain(None)
        assert 1e300 in d3


class TestEvaluateWithReport:
    def test_closed_form_reports_zero_iterations(self):
        desc = MeanDescriptor.from_json({"kind": "holder", "arity": 2, "params": {"p": 1}})
        value, report = evaluate_with_report(desc, (1.0, 3.0))
        assert value == pytest.approx(2.0)
        assert report.iterations == 0 and report.converged

    def test_solver_kind_carries_diagnostics(self):
        desc = MeanDescriptor.from_json(
            {"kind": "deviation-custom", "arity": 2,
             "params": {"exprs": ["u - v"], "domain": [0.05, 30]}})
        value, report = evaluate_with_report(desc, (1.0, 3.0), SolverConfig())
        assert value == pytest.approx(2.0, abs=1e-9)
        assert report.converged
        assert report.iterations > 0

    @pytest.mark.parametrize("data", DESCRIPTORS, ids=lambda d: d["kind"] + str(d.get("dim", "")))
    def test_report_value_matches_built_mean(self, data):
        desc = MeanDescriptor.from_json(data)
        x = sample_inputs(desc, np.random.default_rng(11))
        value, report = evaluate_with_report(desc, x)
        assert np.array_equal(value, build_mean(desc)(x))
        assert report.converged
        solver_kinds = ("deviation-custom", "gen-deviation", "norm-squared-potential",
                        "custom-potential")
        # Numeric inversions keep no count: they report None, not 0.
        numeric = desc.kind == "matkowski" or (
            desc.kind in ("quasi-arithmetic", "bajraktarevic")
            and data["params"]["f"] not in ("log", "exp", "identity", "id", "u"))
        if numeric:
            assert report.iterations is None and report.residual is None
        else:
            assert (report.iterations > 0) == (desc.kind in solver_kinds)
