import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import meanreduce.reduction

from meanreduce.core import Injection, Interval, POSITIVE_REALS, SolverConfig, splice
from meanreduce.descriptors import (
    MeanDescriptor,
    arithmetic_mean_fn,
    build_mean,
    gen_deviation_mean_fn,
    holder_mean_fn,
    quasi_arithmetic_mean_fn,
    weighted_arithmetic_mean_fn,
)
from meanreduce.errors import (
    InvalidArgumentError,
    NoConvergenceError,
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
    _oracle_check,
    fixed_point_mean_fn,
    reduce_mean,
    reduce_scalar,
    reduce_vector,
    reduced_mean_fn,
)
from meanreduce.scalar import (
    DeviationTuple,
    ScalarDeviation,
    constant_weight,
    deviation_mean,
    point_average,
    power_weight,
)
from meanreduce.suites import REDUCTION_CFG, build_runner
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
        fake = MeanFn(arity=3, eval=lambda xs: max(xs) + 1.0, label="above-hull")
        with pytest.raises(NotAMeanError, match=r"^mu\(max x\) = 1\.0 > 0: above-hull violates"):
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
                mu = M(splice(x, chi, y)) - y
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


@pytest.mark.parametrize("call, message", [
    (lambda: MeanFn(arity=0, eval=sum), "mean arity must be positive"),
    (lambda: MeanFn(arity=2, dim=0, eval=sum), "mean dimension must be positive"),
    (lambda: reduce_scalar(arithmetic_mean_fn(3), Injection.of([1, 2], n=3), (1.0,)),
     "tuple length 1 != injection arity 2"),
    (lambda: check_weighted_arith_reduction([constant_weight(1.0)] * 2, Injection.of([1], n=3),
                                            1, 1e-9),
     "need 3 weights, got 2"),
    (lambda: check_deviation_reduction([inner_product_deviation(2)] * 2, Injection.of([1], n=3),
                                       1, 1e-9),
     "need 3 deviations, got 2"),
], ids=["arity", "dim", "tuple-length", "weight-count", "deviation-count"])
def test_argument_guards(call, message):
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        call()


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

    def test_a_rejected_extrapolation_and_a_halved_step_reach_the_fixed_point(self):
        # M(a, b, c) = (e^(2 - 10c) a + e^(-7c) b + c) / (e^(2 - 10c) + e^(-7c) + 1),
        # a mean whose positive weights move steeply with its last argument.
        # Reduced along (1, 2) at (1, -1) from the centroid 0, the first
        # step overshoots to 0.68, where M(1, -1, y) is flat: the secant
        # extrapolation is rejected once, the tenth step that does not lower
        # the residual halves the plain step, and the iteration converges.
        def steep(a, b, c):
            wa, wb = math.exp(2.0 - 10.0 * c), math.exp(-7.0 * c)
            return (wa * a + wb * b + c) / (wa + wb + 1.0)

        calls = []

        def points(xs):
            a, b, c = (float(p[0]) for p in xs)
            value = np.array([steep(a, b, c)])
            calls.append((xs[2].copy(), value))
            return value

        chi = Injection.of([1, 2], n=3)
        certificate = reduce_vector(MeanFn(arity=3, dim=1, eval=points), chi,
                                    ((1.0,), (-1.0,))).certificate
        assert certificate.converged
        # One evaluation per iteration after the first, and one more for
        # each plain step that replaces a rejected extrapolation.
        assert len(calls) - 1 - certificate.iterations == 1
        # A halved plain step from y is y + (M(..., y) - y) / 2.
        assert any(np.array_equal(q, y + 0.5 * (m - y))
                   for i, (q, _) in enumerate(calls) for y, m in calls[:i])
        # The scalar reduction brackets the same fixed point.
        scalar = reduce_scalar(MeanFn(arity=3, eval=lambda xs: steep(*xs)), chi, (1.0, -1.0))
        assert abs(certificate.value[0] - scalar.reduced_value) <= 1e-11


def tilted_mean(k: float, centre: float):
    """M(a, b, c) = (e^(kt) a + e^(-kt) b + c) / (e^(kt) + e^(-kt) + 1) with
    t = tanh(k (c - centre)), coordinatewise: positive weights that swing
    from b to a as c crosses the centre."""
    def m(a, b, c):
        t = np.tanh(k * (c - centre))
        wa, wb = np.exp(k * t), np.exp(-k * t)
        return (wa * a + wb * b + c) / (wa + wb + 1.0)
    return m


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(1.0, 8.0), st.floats(-0.5, 0.5), st.sampled_from([1, 2]))
@example(5.0, 0.2, 1)
@example(3.0, 0.2, 2)
def test_a_cycle_of_steps_still_halves_the_step(k, centre, d):
    # At k = 5, centre = 0.2 the iteration fell into a 3-cycle: a plain step
    # and an accepted extrapolation that lowered the residual, then a
    # rejected extrapolation whose plain step raised it back.  Halving after
    # 10 such steps in a row never fired, and all 10,000 iterations ran out
    # at residual 0.97; halving on every tenth over the run converges.
    m = tilted_mean(k, centre)
    chi = Injection.of([1, 2], n=3)
    vector = reduce_vector(MeanFn(arity=3, dim=d, eval=lambda xs: m(*xs)), chi,
                           (np.zeros(d), np.ones(d)))
    assert vector.certificate.converged
    if d == 1:
        scalar = reduce_scalar(MeanFn(arity=3, eval=lambda xs: float(m(*xs))), chi, (0.0, 1.0))
        assert abs(vector.reduced_value[0] - scalar.reduced_value) <= 1e-9


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

    def test_a_probe_whose_inner_solve_does_not_converge_gives_unknown(self):
        # The solve finds the root 0.5 on its own; the probes below 0.4 raise.
        def arithmetic_above(xs):
            if 0.0 < xs[1] < 0.4:
                raise NoConvergenceError("inner solve out of iterations")
            return sum(xs) / 3.0

        M = MeanFn(arity=3, eval=arithmetic_above)
        chi = Injection.of([1, 3], n=3)
        result = reduce_scalar(M, chi, (0.0, 1.0))
        assert result.certificate.converged
        assert check_uniqueness(M, chi, (0.0, 1.0), result).unique_flag == UNKNOWN
        assert reduce_mean(arithmetic_mean_fn(3), chi, (0.0, 1.0)).unique_flag == UNIQUE

    def test_a_constant_vector_tuple_is_unique_without_a_restart(self):
        M, calls = counted_mean(arithmetic_mean_fn(3, dim=2))
        chi = Injection.of([1, 2], n=3)
        x = ((1.0, 2.0), (1.0, 2.0))
        result = reduce_vector(M, chi, x)
        calls[0] = 0
        assert check_uniqueness(M, chi, x, result).unique_flag == UNIQUE
        assert calls[0] == 0

    def test_a_vector_restart_out_of_budget_gives_unknown(self):
        # The solve converges; each restart gets one step from its start.
        M = weighted_arithmetic_mean_fn([3.0, 1.0, 1.0, 1.0, 1.0], 5, dim=2)
        chi = Injection.of([1, 2], n=5)
        x = ((0.0, 0.0), (3.0, 1.0))
        result = reduce_vector(M, chi, x)
        assert result.certificate.converged
        assert check_uniqueness(M, chi, x, result).unique_flag == UNIQUE
        flag = check_uniqueness(M, chi, x, result, SolverConfig(max_iter=1)).unique_flag
        assert flag == UNKNOWN

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
        # A point mean without a selection hook: reduced_mean_fn takes the
        # fixed point too.
        M = MeanFn(arity=4, dim=2, eval=point_average)
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
        # Every evaluation of the reduction is M at core.splice(x, chi, y).
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
        with pytest.raises(NotAMeanError, match=r"^sum: value \S+ outside \["):
            check_mean_function(fake, lambda rng: float(rng.uniform(0.2, 5.0)), samples=16)

    def test_rejects_a_point_outside_the_hull(self):
        fake = MeanFn(arity=2, dim=2, eval=lambda xs: xs[0] + xs[1], label="point sum")
        with pytest.raises(NotAMeanError, match=r"^point sum: value .* outside the hull$"):
            check_mean_function(fake, lambda rng: rng.uniform(0.2, 5.0, 2), samples=16)

    @pytest.mark.parametrize("dim", [None, 2])
    def test_rejects_a_mean_that_is_not_reflexive(self, dim):
        # The arithmetic mean, but one more at a tuple of equal entries: it
        # passes the mean property on distinct data, not reflexivity.
        average = arithmetic_mean_fn(2, dim)
        fake = MeanFn(arity=2, dim=dim, label="shifted",
                      eval=lambda xs: average(xs) + float(np.array_equal(xs[0], xs[1])))
        point = (lambda rng: float(rng.uniform(0.2, 5.0))) if dim is None \
            else (lambda rng: rng.uniform(0.2, 5.0, dim))
        with pytest.raises(NotAMeanError, match="^shifted: not reflexive at "):
            check_mean_function(fake, point, samples=16)


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

    def test_a_failure_records_the_draw_and_both_routes_as_plain_lists(self):
        # One point in [2, 3]^2 per draw, as an oracle on points draws it.
        # The routes differ by 0.25 in each coordinate where the first
        # coordinate exceeds 2.5, as on the first draw of seed 0, and agree
        # on the second: one failure, of error |(0.25, 0.25)|.  All values
        # lie in [2, 4), where adding 0.25 and taking it away are exact.
        first, second = np.random.default_rng(0).uniform(2.0, 3.0, (2, 2)).tolist()
        assert first[0] > 2.5 >= second[0]

        def reduced(xs):
            return xs[0] + (0.25 if xs[0][0] > 2.5 else 0.0)

        report = _oracle_check(1e-9, 2.0, 3.0, (1, 2), reduced, lambda xs: xs[0].copy(), 2, 0)
        error = math.sqrt(0.125)
        assert report.failures == ({"x": [first], "reduced": [v + 0.25 for v in first],
                                    "direct": first, "error": error},)
        failure, = report.failures
        assert all(type(failure[key]) is list for key in ("x", "reduced", "direct"))
        assert report.to_json() == {"samples": 2, "tol": 1e-9, "max_abs_error": error,
                                    "failures": 1, "passed": False}


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


class TestOracleSolverConfigs:
    # The configuration each route of a suite's oracle case is built with,
    # at REDUCTION_CFG (abs_tol 1e-10, rel_tol 1e-12): the weighted fixed
    # point at min(abs_tol, 1e-3 tol); the deviation means, inside the fixed
    # point and on the direct route, at min(abs_tol, 1e-4 tol) with rel_tol
    # 1e-13; the deviation fixed point at max(1e-3 tol, 10 inner).  At tol =
    # 1e-5 the two fixed points differ (1e-10 and 1e-8); at tol = 1e-10 the
    # deviation one is one ulp above 1e-3 tol = 1e-13.
    CASES = {
        "weighted": {"type": "weighted-arith-reduction", "weights": ["u", 1.0, 2.0],
                     "chi": [1, 3]},
        "scalar": {"type": "deviation-reduction", "exprs": ["u - v", "u*(u - v)"], "chi": [2]},
        "points": {"type": "deviation-reduction", "dim": 2, "weights": [1.0, 2.0], "chi": [1]},
    }
    EXPECTED = {
        (1e-5, "weighted"): [("fixed point", 1e-10, 1e-12)],
        (1e-5, "scalar"): [("deviation", 1e-10, 1e-13), ("fixed point", 1e-08, 1e-12),
                           ("deviation", 1e-10, 1e-13)],
        (1e-5, "points"): [("gen-deviation", 1e-10, 1e-13), ("fixed point", 1e-08, 1e-12),
                           ("gen-deviation", 1e-10, 1e-13)],
        (1e-10, "weighted"): [("fixed point", 1e-13, 1e-12)],
        (1e-10, "scalar"): [("deviation", 1.0000000000000002e-14, 1e-13),
                            ("fixed point", 1.0000000000000002e-13, 1e-12),
                            ("deviation", 1.0000000000000002e-14, 1e-13)],
        (1e-10, "points"): [("gen-deviation", 1.0000000000000002e-14, 1e-13),
                            ("fixed point", 1.0000000000000002e-13, 1e-12),
                            ("gen-deviation", 1.0000000000000002e-14, 1e-13)],
    }

    @pytest.mark.parametrize("tol, kind", sorted(EXPECTED))
    def test_each_route_is_built_once_at_its_configuration(self, monkeypatch, tol, kind):
        seen = []
        for name, label in (("fixed_point_mean_fn", "fixed point"),
                            ("deviation_mean_fn", "deviation"),
                            ("gen_deviation_mean_fn", "gen-deviation")):
            def recorded(*args, original=getattr(meanreduce.reduction, name), label=label):
                seen.append((label, args[-1]))
                return original(*args)

            monkeypatch.setattr(meanreduce.reduction, name, recorded)
        runner = build_runner(dict(self.CASES[kind], tol=tol, samples=2), 40, 1e-9, 1e-8).runner
        max_iter = REDUCTION_CFG.max_iter
        assert seen == [(label, SolverConfig(abs_tol=abs_tol, rel_tol=rel_tol, max_iter=max_iter))
                        for label, abs_tol, rel_tol in self.EXPECTED[tol, kind]]
        # A run builds no route.
        del seen[:]
        runner(7, 40)
        assert seen == []


# Reduction by selection (MeanFn.select) against the fixed point, at the
# configuration and the scaled tolerance of the reduction oracles: closed
# forms reduce at abs_tol = 1e-3 tol, solver-backed means solve at
# 1e-4 tol inside an outer fixed point at 1e-3 tol.
ORACLE_TOL = 1e-8
INNER_CFG = SolverConfig(abs_tol=ORACLE_TOL * 1e-4, rel_tol=1e-13)
OUTER_CFG = SolverConfig(abs_tol=ORACLE_TOL * 1e-3, rel_tol=REDUCTION_CFG.rel_tol)
# A custom potential's gradient is a central difference, which certifies a
# solve to about 1e-10 and no further: it solves at the suites' tolerances
# inside an outer fixed point at 1e-9.
DIFFERENCED_CFGS = (REDUCTION_CFG, SolverConfig(abs_tol=1e-9, rel_tol=REDUCTION_CFG.rel_tol))
SCALAR_DOMAIN = [0.2, 6.0]
GENERATORS = ("log", "exp", "u", "u^3")
# Matkowski's generators share one domain; the logarithm is drawn here as
# the expression "log(u)".
MATKOWSKI_GENERATORS = ("log(u)", "exp", "u", "u^3")
WEIGHTS = (1.0, 2.5, 0.5, "u", "1 + u^2")
DEVIATIONS = ("u - v", "u*(u - v)", "u^3 - v^3", "exp(u) - exp(v)", "(1 + u)*(log(u) - log(v))")


def _scalar_params(draw, kind, n):
    pick = lambda options: [draw(st.sampled_from(options)) for _ in range(n)]  # noqa: E731
    exponent = st.floats(-4.0, 4.0)
    return {
        "arithmetic": lambda: {},
        "weighted-arithmetic": lambda: {"weights": pick(WEIGHTS), "domain": SCALAR_DOMAIN},
        "holder": lambda: {"p": draw(exponent)},
        "gini": lambda: {"p": draw(exponent), "q": draw(exponent)},
        "quasi-arithmetic": lambda: {"f": draw(st.sampled_from(GENERATORS)),
                                     "domain": SCALAR_DOMAIN},
        "bajraktarevic": lambda: {"f": draw(st.sampled_from(GENERATORS)),
                                  "weights": pick(WEIGHTS), "domain": SCALAR_DOMAIN},
        "matkowski": lambda: {"fs": pick(MATKOWSKI_GENERATORS), "domain": SCALAR_DOMAIN},
        "deviation-custom": lambda: {"exprs": pick(DEVIATIONS), "domain": SCALAR_DOMAIN},
    }[kind]()


def _vector_params(draw, kind, n):
    weights = lambda: [draw(st.floats(0.5, 2.0)) for _ in range(n)]  # noqa: E731
    return {
        "arithmetic": lambda: {},
        "weighted-arithmetic": lambda: {"weights": [draw(st.sampled_from((w, "1 + u1*u1")))
                                                    for w in weights()]},
        "gen-deviation": lambda: {"exprs": [[f"{w}*(1 + u2*u2)*(u1 - v1)",
                                             f"{w}*(1 + u2*u2)*(u2 - v2)"] for w in weights()]},
        "norm-squared-potential": lambda: {"weights": weights()},
        "custom-potential": lambda: {"exprs": [f"{w}*(u1 - v1)^2 + (u2 - v2)^2"
                                               for w in weights()]},
    }[kind]()


@st.composite
def reductions(draw, kind, dim=None, max_n=5, cfg=INNER_CFG):
    """A mean of the kind built from its descriptor, an injection chi and
    k data entries: scalars in the domain, or points in [-2, 2]^dim."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    chi = Injection.of(draw(st.permutations(range(1, n + 1)))[:k], n=n)
    if dim is None:
        params = _scalar_params(draw, kind, n)
        x = tuple(draw(st.lists(st.floats(*SCALAR_DOMAIN), min_size=k, max_size=k)))
    else:
        params = _vector_params(draw, kind, n)
        coords = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
        x = tuple(np.array(draw(coords)) for _ in range(k))
    M = build_mean(MeanDescriptor(kind, n, params, dim), cfg)
    return M, chi, x


def _agree(selected, fixed):
    size = abs if np.ndim(selected) == 0 else np.linalg.norm
    return size(fixed - selected) <= ORACLE_TOL * (1.0 + size(selected))


class TestSelectionAgreesWithFixedPoint:
    @pytest.mark.parametrize("kind", ["arithmetic", "weighted-arithmetic", "holder", "gini",
                                      "quasi-arithmetic", "bajraktarevic", "matkowski",
                                      "deviation-custom"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_scalar_kinds(self, kind, data):
        M, chi, x = data.draw(reductions(kind))
        assert M.select is not None
        selected = reduced_mean_fn(M, chi, OUTER_CFG)(x)
        fixed = reduce_scalar(M, chi, x, OUTER_CFG)
        assert fixed.certificate.converged
        assert _agree(selected, fixed.reduced_value)

    @pytest.mark.parametrize("kind", ["arithmetic", "weighted-arithmetic", "gen-deviation",
                                      "norm-squared-potential", "custom-potential"])
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_vector_kinds(self, kind, data):
        inner, outer = DIFFERENCED_CFGS if kind == "custom-potential" else (INNER_CFG, OUTER_CFG)
        M, chi, x = data.draw(reductions(kind, dim=2, max_n=4, cfg=inner))
        assert M.select is not None
        selected = reduced_mean_fn(M, chi, outer)(x)
        fixed = reduce_vector(M, chi, x, outer)
        assert fixed.certificate.converged
        assert _agree(selected, fixed.reduced_value)

    def test_selection_of_a_selection_composes(self):
        M = weighted_arithmetic_mean_fn([1.0, 2.0, 3.0, 4.0], 4)
        once = reduced_mean_fn(reduced_mean_fn(M, Injection.of([4, 2, 1], n=4)),
                               Injection.of([3, 1], n=3))
        assert once((2.0, 5.0)) == reduced_mean_fn(M, Injection.of([1, 4], n=4))((2.0, 5.0))

    def test_selection_checks_the_injection(self):
        with pytest.raises(InvalidArgumentError, match="injection targets 4 slots"):
            reduced_mean_fn(holder_mean_fn(2.0, 3), Injection.of([1, 2], n=4))


def _forbidden(*args):
    raise AssertionError("the selection hook or the fixed point was consulted")


def test_selected_solve_out_of_iterations_raises(monkeypatch):
    # y^3 = mean of the selected cubes: one step of the root search is not
    # enough.  The selection route raises as the fixed-point route does.
    monkeypatch.setattr(meanreduce.reduction, "reduce_scalar", _forbidden)
    M = build_mean(MeanDescriptor("deviation-custom", 3, {"exprs": ["u^3 - v^3"],
                                                          "domain": SCALAR_DOMAIN}),
                   SolverConfig(max_iter=1))
    K = reduced_mean_fn(M, Injection.of([3, 1], n=3))
    message = r"custom deviation mean reduced by \(3, 1\) did not converge at \[0.5, 4.0\]"
    with pytest.raises(NoConvergenceError, match=message):
        K((0.5, 4.0))


POINTS = (np.array([0.0, 0.0]), np.array([2.0, 4.0]), np.array([1.0, -1.0]))


@pytest.mark.parametrize("desc, x", [
    (MeanDescriptor("deviation-custom", 3, {"exprs": ["u^3 - v^3"], "domain": SCALAR_DOMAIN}),
     (0.5, 4.0, 2.0)),
    (MeanDescriptor("gen-deviation", 3, {"exprs": [
        ["(1 + u2*u2)*(u1 - v1)", "(1 + u2*u2)*(u2 - v2)"], ["2*(u1 - v1)", "2*(u2 - v2)"],
        ["(1 + u1*u1)*(u1 - v1)", "(1 + u1*u1)*(u2 - v2)"]]}, 2), POINTS),
    (MeanDescriptor("norm-squared-potential", 3, {"weights": [1.0, 3.0, 2.0]}, 2), POINTS),
], ids=["deviation-custom", "gen-deviation", "norm-squared-potential"])
def test_a_solve_out_of_iterations_is_no_mean_value(desc, x):
    # One step of each solve is not enough for these data: the report says
    # so, and the mean and its selection raise, naming the mean and the data.
    M = build_mean(desc, SolverConfig(max_iter=1))
    assert not M.report(x).converged
    label, data = re.escape(M.label), re.escape(str(np.asarray(x, float).tolist()))
    with pytest.raises(NoConvergenceError, match=f"^{label} did not converge at {data}$"):
        M(x)
    K = reduced_mean_fn(M, Injection.of([3, 1, 2], n=3))
    with pytest.raises(NoConvergenceError, match=rf"by \(3, 1, 2\) did not converge at {data}$"):
        K(x)


class TestFixedPointRoutesIgnoreTheHook:
    def test_reduce_mean(self):
        M = replace(weighted_arithmetic_mean_fn([1.0, 3.0, 2.0], 3), select=_forbidden)
        result = reduce_mean(M, Injection.of([3, 1], n=3), (0.5, 2.0))
        assert result.certificate.converged and result.unique_flag == UNIQUE
        assert fixed_point_mean_fn(M, Injection.of([2], n=3))((4.0,)) == 4.0

    def test_oracles(self, monkeypatch):
        # Every MeanFn the oracles build carries a hook that fails the test.
        monkeypatch.setattr(meanreduce.reduction, "MeanFn",
                            lambda **fields: MeanFn(**{**fields, "select": _forbidden}))
        chi = Injection.of([1, 3], n=3)
        weights = [constant_weight(1.0, POSITIVE_REALS), power_weight(1.0),
                   constant_weight(2.0, POSITIVE_REALS)]
        assert check_weighted_arith_reduction(weights, chi, samples=5, tol=1e-8).passed
        assert check_deviation_reduction(gini_deviations(3), chi, samples=5, tol=1e-8).passed
        vector = [inner_product_deviation(2, w) for w in (1.0, 2.0, 0.5)]
        assert check_deviation_reduction(vector, chi, samples=2, tol=1e-8,
                                         cfg=SolverConfig(abs_tol=1e-11)).passed


class TestOraclesAtTheFloatRange:
    # The two routes agree to rounding at data of magnitude up to 1.7e308,
    # where an absolute tolerance failed the checks; the errors are judged
    # at tol (1 + |direct|).
    BOX = Interval(-1.7e308, 1.7e308)

    def test_weighted_arith_reduction(self):
        weights = [constant_weight(w, self.BOX) for w in (1.0, 2.0, 1.0)]
        report = check_weighted_arith_reduction(weights, Injection.of([1, 3], n=3),
                                                samples=40, tol=1e-9, seed=7)
        assert report.passed
        # The largest error is 2.0e292 here, 1.2e-16 of the data's magnitude.
        assert report.max_abs_error <= 1e-15 * 1.7e308

    def test_deviation_reduction(self):
        dev = ScalarDeviation(domain=self.BOX, eval=lambda u, v: u - v, label="arith",
                              validate=False)
        report = check_deviation_reduction([dev] * 3, Injection.of([1, 3], n=3),
                                           samples=40, tol=1e-9, seed=7, cfg=REDUCTION_CFG)
        assert report.passed
        # The largest error is 7.7e294 here, 4.5e-14 of the data's magnitude:
        # the inner solves stop at rel_tol = 1e-13.
        assert report.max_abs_error <= 1e-13 * 1.7e308
