import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import meanreduce.reduction

from meanreduce.core import Injection, Interval, POSITIVE_REALS, SolverConfig, splice
from meanreduce.descriptors import (
    arithmetic_mean_fn,
    gen_deviation_mean_fn,
    holder_mean_fn,
    quasi_arithmetic_mean_fn,
    weighted_arithmetic_mean_fn,
)
from meanreduce.errors import (
    HullViolationError,
    InvalidArgumentError,
    NotAMeanError,
)
from meanreduce.reduction import (
    MULTIPLE_SUSPECTED,
    MeanFn,
    UNIQUE,
    UNKNOWN,
    check_deviation_reduction,
    check_mean_function,
    check_uniqueness,
    check_weighted_arith_reduction,
    reduce_mean,
    reduce_scalar,
    reduce_vector,
    reduced_mean_fn,
    spliced_eval,
)
from meanreduce.scalar import (
    DeviationTuple,
    ScalarDeviation,
    constant_weight,
    deviation_mean,
    power_weight,
)
from meanreduce.suites import REDUCTION_CFG
from meanreduce.vector import gen_deviation_mean, inner_product_deviation as library_ipd


def gini_deviations(n):
    dev = ScalarDeviation(domain=POSITIVE_REALS, eval=lambda u, v: u * (u - v),
                          label="gini21", validate=False)
    return DeviationTuple((dev,) * n)


def inner_product_deviation(dim, weight=1.0):
    return library_ipd(weight, dim)


def counted_mean(M):
    """M with a counter of its evaluations."""
    calls = [0]

    def eval_counted(xs):
        calls[0] += 1
        return M(xs)

    return MeanFn(arity=M.arity, dim=M.dim, label=M.label, eval=eval_counted), calls


def two_roots_mean():
    # Two fixed points: 0.2 (for y < 0.7) and 0.9 (for y >= 0.7).
    return MeanFn(arity=3, eval=lambda xs: 0.2 if xs[2] < 0.7 else 0.9, label="two-roots")


def jump_mean():
    return MeanFn(arity=3, eval=lambda xs: 0.8 if xs[2] < 0.6 else 0.3, label="jump")


class TestSplicedEval:
    def test_three_slot_arithmetic(self):
        M = arithmetic_mean_fn(3)
        chi = Injection.of([1, 2], n=3)
        assert spliced_eval(M, chi, (1.0, 5.0), 2.0) == pytest.approx(8 / 3)

    def test_fixed_point_value(self):
        M = arithmetic_mean_fn(3)
        chi = Injection.of([1, 2], n=3)
        assert spliced_eval(M, chi, (1.0, 5.0), 3.0) == pytest.approx(3.0)

    def test_constant_tuple(self):
        M = arithmetic_mean_fn(2)
        chi = Injection.of([1], n=2)
        assert spliced_eval(M, chi, (4.0,), 4.0) == pytest.approx(4.0)

    def test_hull_violation_scalar(self):
        M = arithmetic_mean_fn(3)
        chi = Injection.of([1, 2], n=3)
        with pytest.raises(HullViolationError):
            spliced_eval(M, chi, (1.0, 5.0), 9.0)

    def test_hull_violation_vector(self):
        M = arithmetic_mean_fn(3, dim=2)
        chi = Injection.of([1, 2], n=3)
        with pytest.raises(HullViolationError):
            spliced_eval(M, chi, ((0.0, 0.0), (1.0, 0.0)), (0.5, 1.0))


class TestReduceScalar:
    def test_arithmetic_reduces_to_smaller_arithmetic(self):
        M = arithmetic_mean_fn(3)
        chi = Injection.of([1, 2], n=3)
        result = reduce_scalar(M, chi, (1.0, 5.0))
        assert result.reduced_value == pytest.approx(3.0, abs=1e-10)
        assert result.certificate.converged
        assert result.unique_flag == UNKNOWN
        assert reduce_mean(M, chi, (1.0, 5.0)).unique_flag == UNIQUE

    def test_geometric_reduction_closed_form(self):
        M = quasi_arithmetic_mean_fn("log", 3)
        chi = Injection.of([2, 3], n=3)
        result = reduce_scalar(M, chi, (2.0, 8.0))
        # (16 y)^(1/3) = y  =>  y = 4
        assert result.reduced_value == pytest.approx(4.0, abs=1e-9)

    def test_constant_tuple(self):
        M = arithmetic_mean_fn(4)
        chi = Injection.of([1, 3], n=4)
        result = reduce_scalar(M, chi, (2.5, 2.5))
        assert result.reduced_value == 2.5
        assert result.certificate.iterations == 0
        assert result.unique_flag == UNIQUE

    def test_not_a_mean_detected(self):
        fake = MeanFn(arity=3, eval=lambda xs: min(xs) - 1.0, label="below-hull")
        chi = Injection.of([1, 2], n=3)
        with pytest.raises(NotAMeanError):
            reduce_scalar(fake, chi, (1.0, 5.0))

    def test_vector_mean_rejected(self):
        M = arithmetic_mean_fn(3, dim=2)
        chi = Injection.of([1, 2], n=3)
        with pytest.raises(InvalidArgumentError):
            reduce_scalar(M, chi, (1.0, 5.0))

    def test_bijection_reduces_to_permuted_mean(self):
        M = weighted_arithmetic_mean_fn([2.0, 1.0, 1.0], 3)
        x = (1.0, 2.0, 3.0)
        chi = Injection.of([1, 2, 3], n=3)
        result = reduce_scalar(M, chi, x)
        assert result.reduced_value == pytest.approx(M(x), abs=1e-10)
        perm = Injection.of([2, 3, 1], n=3)
        result = reduce_scalar(M, perm, x)
        # Slot perm[j] holds x_j, so the mean sees the tuple (x_3, x_1, x_2).
        assert result.reduced_value == pytest.approx(M((3.0, 1.0, 2.0)), abs=1e-10)

    def test_jump_mean_flagged_as_continuity_suspect(self):
        M = jump_mean()
        chi = Injection.of([1, 2], n=3)
        result = reduce_scalar(M, chi, (0.0, 1.0))
        assert result.continuity_suspect
        assert not result.certificate.converged

    def test_multiple_fixed_points_suspected(self):
        M = two_roots_mean()
        chi = Injection.of([1, 2], n=3)
        result = reduce_mean(M, chi, (0.0, 1.0))
        assert result.unique_flag == MULTIPLE_SUSPECTED
        assert reduce_scalar(M, chi, (0.0, 1.0)).unique_flag == UNKNOWN

    def test_sign_law_around_reduction(self):
        rng = np.random.default_rng(71)
        n, k = 4, 2
        E = gini_deviations(n)
        M = MeanFn(arity=n, eval=lambda xs: deviation_mean(E, xs).value,
                   label="gini mean")
        chi = Injection.of([1, 3], n=n)
        for _ in range(20):
            x = tuple(rng.uniform(0.3, 4.0, k))
            result = reduce_scalar(M, chi, x)
            root = result.reduced_value
            lo, hi = min(x), max(x)
            if hi - lo < 1e-6:
                continue
            for y in np.linspace(lo, hi, 7):
                y = float(y)
                if abs(y - root) <= 1e-6:
                    continue
                mu = spliced_eval(M, chi, x, y) - y
                assert mu * (root - y) > 0

    def test_symmetric_mean_reduction_is_injection_independent(self):
        rng = np.random.default_rng(73)
        M = holder_mean_fn(2.0, 4)
        chis = [Injection.of(pair, n=4) for pair in ([1, 2], [3, 4], [2, 4], [4, 1])]
        for _ in range(10):
            x = tuple(rng.uniform(0.3, 5.0, 2))
            values = [reduce_scalar(M, chi, x).reduced_value for chi in chis]
            for v in values[1:]:
                assert v == pytest.approx(values[0], abs=1e-9)

    def test_json_round_trip(self):
        M = arithmetic_mean_fn(3)
        chi = Injection.of([1, 2], n=3)
        data = reduce_scalar(M, chi, (1.0, 5.0)).to_json()
        assert set(data) == {"value", "residual", "iterations", "converged",
                             "unique_flag", "continuity_suspect"}
        assert data["converged"] is True


class TestReduceVector:
    def test_four_slot_vector_arithmetic(self):
        M = arithmetic_mean_fn(4, dim=2)
        chi = Injection.of([1, 3], n=4)
        x = ((0.0, 0.0), (2.0, 2.0))
        result = reduce_vector(M, chi, x)
        np.testing.assert_allclose(result.reduced_value, [1.0, 1.0], atol=1e-10)
        assert result.unique_flag == UNKNOWN
        assert reduce_mean(M, chi, x).unique_flag == UNIQUE

    def test_constant_tuple(self):
        M = arithmetic_mean_fn(3, dim=2)
        chi = Injection.of([1, 2], n=3)
        result = reduce_vector(M, chi, ((1.0, 2.0), (1.0, 2.0)))
        np.testing.assert_allclose(result.reduced_value, [1.0, 2.0])
        assert result.unique_flag == UNIQUE

    def test_deviation_mean_reduction_hits_weighted_average(self):
        cfg = SolverConfig(abs_tol=1e-11)
        weights = (3.0, 1.0, 2.0, 1.0)
        E = [inner_product_deviation(2, w) for w in weights]
        M = gen_deviation_mean_fn(E, cfg)
        chi = Injection.of([2, 4], n=4)
        x = (np.array([0.0, 1.0]), np.array([2.0, -1.0]))
        result = reduce_vector(M, chi, x, cfg)
        # Reduction selects the weights riding along the injection.
        expected = (1.0 * x[0] + 1.0 * x[1]) / 2.0
        np.testing.assert_allclose(result.reduced_value, expected, atol=1e-8)

    def test_gen_deviation_mean_fn_is_a_function_of_its_arguments(self):
        # No state carries from one evaluation to the next: M(A) is the same
        # before and after M(B), and is the solver's own cold solve.
        E = [inner_product_deviation(2, lambda u, c=c: c + 0.5 * math.tanh(float(u[0])))
             for c in (1.0, 2.0, 3.0, 4.0)]
        M = gen_deviation_mean_fn(E)
        A = ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (1.5, 1.5))
        B = ((-3.0, 1.0), (4.0, -2.0), (0.5, 5.0), (-1.0, -4.0))
        first = M.report(A)
        M.report(B)
        again = M.report(A)
        cold = gen_deviation_mean(E, A)
        for report in (again, cold):
            assert np.array_equal(report.value, first.value)
            assert report.residual == first.residual
            assert report.iterations == first.iterations
            assert report.barycentric == first.barycentric

    def test_scalar_mean_rejected(self):
        M = arithmetic_mean_fn(3)
        chi = Injection.of([1, 2], n=3)
        with pytest.raises(InvalidArgumentError):
            reduce_vector(M, chi, ((0.0, 0.0), (1.0, 1.0)))

    def test_certificate_residual(self):
        M = arithmetic_mean_fn(5, dim=3)
        chi = Injection.of([1, 2], n=5)
        rng = np.random.default_rng(79)
        x = tuple(rng.uniform(-3, 3, 3) for _ in range(2))
        result = reduce_vector(M, chi, x)
        assert result.certificate.converged
        spread = float(np.linalg.norm(np.asarray(x[0]) - np.asarray(x[1])))
        assert result.fixed_point_residual <= 1e-12 * (1.0 + spread)

    def test_reduced_value_stays_in_hull(self):
        from meanreduce.vector import barycentric_feasibility

        rng = np.random.default_rng(83)
        M = arithmetic_mean_fn(4, dim=3)
        chi = Injection.of([2, 4], n=4)
        for _ in range(10):
            x = tuple(rng.uniform(-2, 2, 3) for _ in range(2))
            result = reduce_vector(M, chi, x)
            _, residual = barycentric_feasibility(x, result.reduced_value)
            scale = 1.0 + float(np.linalg.norm(result.reduced_value))
            assert residual <= 1e-9 * scale


SCALAR_CASES = [
    (arithmetic_mean_fn(3), Injection.of([1, 2], n=3), (1.0, 5.0)),
    (quasi_arithmetic_mean_fn("log", 3), Injection.of([2, 3], n=3), (2.0, 8.0)),
    (holder_mean_fn(3.0, 4), Injection.of([1, 3], n=4), (0.4, 2.9)),
    (two_roots_mean(), Injection.of([1, 2], n=3), (0.0, 1.0)),
    (jump_mean(), Injection.of([1, 2], n=3), (0.0, 1.0)),
    (arithmetic_mean_fn(4), Injection.of([1, 3], n=4), (2.5, 2.5)),
]


class TestCheckUniqueness:
    @pytest.mark.parametrize("M, chi, x", SCALAR_CASES)
    def test_reduce_mean_is_the_solve_plus_the_flag(self, M, chi, x):
        solved = reduce_scalar(M, chi, x)
        full = reduce_mean(M, chi, x)
        assert full.reduced_value == solved.reduced_value
        assert full.fixed_point_residual == solved.fixed_point_residual
        assert full.certificate == solved.certificate
        assert full.continuity_suspect == solved.continuity_suspect
        assert full == check_uniqueness(M, chi, x, solved)

    def test_vector_reduce_mean_is_the_solve_plus_the_flag(self):
        M = arithmetic_mean_fn(5, dim=3)
        chi = Injection.of([1, 4], n=5)
        x = ((0.0, 1.0, 2.0), (2.0, -1.0, 0.5))
        solved = reduce_vector(M, chi, x)
        full = reduce_mean(M, chi, x)
        np.testing.assert_array_equal(full.reduced_value, solved.reduced_value)
        assert full.fixed_point_residual == solved.fixed_point_residual
        assert full.certificate.iterations == solved.certificate.iterations
        assert full.unique_flag == UNIQUE

    def test_unconverged_scalar_result_stays_unknown(self):
        M, calls = counted_mean(jump_mean())
        chi = Injection.of([1, 2], n=3)
        result = reduce_scalar(M, chi, (0.0, 1.0))
        assert not result.certificate.converged
        calls[0] = 0
        assert check_uniqueness(M, chi, (0.0, 1.0), result).unique_flag == UNKNOWN
        assert calls[0] == 0

    def test_unconverged_vector_result_stays_unknown(self):
        M, calls = counted_mean(weighted_arithmetic_mean_fn([3.0, 1.0, 1.0, 1.0, 1.0], 5, dim=2))
        chi = Injection.of([1, 2], n=5)
        x = ((0.0, 0.0), (3.0, 1.0))
        cfg = SolverConfig(max_iter=1)
        result = reduce_vector(M, chi, x, cfg)
        assert not result.certificate.converged
        calls[0] = 0
        assert check_uniqueness(M, chi, x, result, cfg).unique_flag == UNKNOWN
        assert calls[0] == 0
        assert reduce_mean(M, chi, x, cfg).unique_flag == UNKNOWN


class TestReductionWorkCount:
    """The reductions pay for the solve only; uniqueness is a separate step."""

    @pytest.mark.parametrize("M, chi, x", SCALAR_CASES[:3])
    def test_reduced_mean_fn_evaluates_only_the_solve(self, M, chi, x):
        M, calls = counted_mean(M)
        iterations = reduce_scalar(M, chi, x).certificate.iterations
        calls[0] = 0
        reduced_mean_fn(M, chi)(x)
        assert calls[0] <= 2 + iterations

    def test_reduce_vector_runs_one_fixed_point_run(self, monkeypatch):
        runs = [0]
        original = meanreduce.reduction._fixed_point_run

        def counted_run(*args, **kwargs):
            runs[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(meanreduce.reduction, "_fixed_point_run", counted_run)
        M = arithmetic_mean_fn(4, dim=2)
        chi = Injection.of([1, 3], n=4)
        x = ((0.0, 0.0), (2.0, 1.0))
        reduce_vector(M, chi, x)
        assert runs[0] == 1
        reduced_mean_fn(M, chi)(x)
        assert runs[0] == 2
        # reduce_mean adds one restart per data point.
        reduce_mean(M, chi, x)
        assert runs[0] == 2 + 1 + len(x)


class TestReducedMeanFn:
    def test_wraps_reduction_as_mean(self):
        M = arithmetic_mean_fn(3)
        chi = Injection.of([1, 2], n=3)
        K = reduced_mean_fn(M, chi)
        assert K.arity == 2
        assert K((1.0, 5.0)) == pytest.approx(3.0, abs=1e-10)


@st.composite
def slot_selections(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    chi = Injection.of(draw(st.permutations(range(1, n + 1)))[:k], n=n)
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    x = tuple(draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k)))
    return chi, weights, x


class TestReductionSelectsSlots:
    # The configuration of check_weighted_arith_reduction at the tolerance of
    # the reduction-oracles suite.  The oracle compares on data of magnitude
    # about 1; the residual tolerance grows with the spread, so the agreement
    # bound is scaled by 1 + max(x) here.
    TOL = 1e-8
    CFG = SolverConfig(abs_tol=min(REDUCTION_CFG.abs_tol, TOL * 1e-3))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(slot_selections())
    def test_reducing_weighted_arithmetic_selects_weights(self, case):
        chi, weights, x = case
        M = weighted_arithmetic_mean_fn(weights, chi.n)
        reduced = reduced_mean_fn(M, chi, self.CFG)(x)
        w_sel = [weights[j - 1] for j in chi.map]
        direct = math.fsum(w * v for w, v in zip(w_sel, x)) / math.fsum(w_sel)
        assert abs(reduced - direct) <= self.TOL * (1.0 + max(x))


    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(slot_selections())
    def test_every_evaluation_sees_the_spliced_tuple(self, case):
        # The slot template of the reduction against core.splice.
        chi, weights, x = case
        seen = []
        M = weighted_arithmetic_mean_fn(weights, chi.n)
        recorded = MeanFn(arity=chi.n, label="recorded",
                          eval=lambda xs: seen.append(xs) or M(xs))
        reduce_scalar(recorded, chi, x)
        free = sorted(set(range(1, chi.n + 1)) - set(chi.map))
        for xs in seen:
            y = xs[free[0] - 1] if free else None
            assert type(xs) is tuple and xs == splice(x, chi, y)


class TestCheckMeanFunction:
    def test_accepts_valid_mean(self):
        M = holder_mean_fn(3.0, 3)
        check_mean_function(M, lambda rng: float(rng.uniform(0.2, 5.0)), samples=16)

    def test_rejects_non_mean(self):
        fake = MeanFn(arity=2, eval=lambda xs: xs[0] + xs[1], label="sum")
        with pytest.raises(NotAMeanError):
            check_mean_function(fake, lambda rng: float(rng.uniform(0.2, 5.0)), samples=16)


class TestWeightedArithReductionOracle:
    def test_unit_weights(self):
        w = [constant_weight(1.0)] * 3
        chi = Injection.of([1, 2], n=3)
        report = check_weighted_arith_reduction(w, chi, samples=40, tol=1e-9, seed=1)
        assert report.passed
        assert report.max_abs_error <= 1e-9

    def test_single_slot_reduction_is_reflexive(self):
        w = [power_weight(1.0), constant_weight(1.0, POSITIVE_REALS),
             constant_weight(1.0, POSITIVE_REALS)]
        chi = Injection.of([1], n=3)
        report = check_weighted_arith_reduction(w, chi, samples=40, tol=1e-9, seed=2)
        assert report.passed

    def test_constant_weight_hand_value(self):
        w = [constant_weight(2.0), constant_weight(1.0), constant_weight(1.0)]
        M = MeanFn(arity=3, eval=lambda xs: (2 * xs[0] + xs[1] + xs[2]) / 4.0,
                   label="w-arith")
        chi = Injection.of([1, 2], n=3)
        result = reduce_scalar(M, chi, (0.0, 3.0))
        # (2*0 + 1*3 + 1*y)/4 = y  =>  y = 1
        assert result.reduced_value == pytest.approx(1.0, abs=1e-10)
        report = check_weighted_arith_reduction(w, chi, samples=25, tol=1e-9, seed=3)
        assert report.passed

    def test_functional_weights(self):
        dom = POSITIVE_REALS
        w = [power_weight(1.0), constant_weight(2.0, dom), power_weight(0.5),
             constant_weight(1.0, dom)]
        chi = Injection.of([2, 3], n=4)
        report = check_weighted_arith_reduction(w, chi, samples=40, tol=1e-9, seed=4)
        assert report.passed


class TestDeviationReductionOracle:
    def test_scalar_arithmetic_case(self):
        dev = ScalarDeviation(domain=POSITIVE_REALS, eval=lambda u, v: u - v,
                              label="arith", validate=False)
        chi = Injection.of([1, 2], n=3)
        report = check_deviation_reduction([dev] * 3, chi, samples=30, tol=1e-8, seed=5)
        assert report.passed

    def test_scalar_gini_case_hand_value(self):
        E = gini_deviations(3)
        M = MeanFn(arity=3, eval=lambda xs: deviation_mean(E, xs).value, label="gini")
        chi = Injection.of([1, 2], n=3)
        result = reduce_scalar(M, chi, (1.0, 3.0))
        # Selected deviations solve 1(1-y) + 3(3-y) = 0  =>  y = 2.5
        assert result.reduced_value == pytest.approx(2.5, abs=1e-9)
        report = check_deviation_reduction(E, chi, samples=30, tol=1e-8, seed=6)
        assert report.passed

    def test_vector_inner_product_case(self):
        cfg = SolverConfig(abs_tol=1e-11)
        E = [inner_product_deviation(2, w) for w in (1.0, 2.0, 0.5, 1.5)]
        chi = Injection.of([2, 4], n=4)
        report = check_deviation_reduction(E, chi, samples=8, tol=1e-8, seed=7, cfg=cfg)
        assert report.passed
        assert report.max_abs_error <= 1e-8

    def test_nested_section_evaluations_per_reduction(self):
        # The deviation-lehmer case of the reduction-oracles suite.  With
        # chi = [1, 3] the direct route never sees slot 2, so the calls of
        # the slot-2 deviation count the summed-section evaluations of the
        # reduction route alone.  Bisection made 1,796 per reduction here.
        calls = [0]

        def counted(u, v):
            calls[0] += 1
            return u * (u - v)

        domain = Interval(0.2, 6.0)
        lehmer = ScalarDeviation(domain=domain, eval=lambda u, v: u * (u - v),
                                 label="lehmer", validate=False)
        middle = ScalarDeviation(domain=domain, eval=counted, label="lehmer-counted",
                                 validate=False)
        samples = 50
        report = check_deviation_reduction((lehmer, middle, lehmer), Injection.of([1, 3], n=3),
                                           samples=samples, tol=1e-8, seed=1, cfg=REDUCTION_CFG)
        assert report.passed
        assert calls[0] / samples <= 367
