import dataclasses
import math
import re
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanreduce.core import POSITIVE_REALS, SolverConfig, length
from meanreduce.errors import (
    DomainError,
    HullViolationError,
    InvalidArgumentError,
    InvalidDeviationError,
    InvalidPotentialError,
)
from meanreduce import vector
from meanreduce.reduction import gen_deviation_mean_fn
from meanreduce.scalar import ScalarDeviation, deviation_mean
from meanreduce.vector import (
    GenDeviation,
    PotentialFn,
    gen_deviation_mean,
    grid_oracle_mean,
    inner_product_deviation as library_ipd,
    lift_scalar_deviation,
    make_norm_sq_potential,
    make_potential_deviation,
    potential_mean,
    verify_vi,
)

import hull_corpora


def inner_product_deviation(dim: int, weight=1.0) -> GenDeviation:
    return library_ipd(weight, dim)


TRIANGLE = ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0))


class TestGenDeviationMean:
    def test_centroid_for_unit_weights(self):
        E = [inner_product_deviation(2)] * 3
        report = gen_deviation_mean(E, TRIANGLE)
        assert report.converged
        np.testing.assert_allclose(report.value, [2 / 3, 2 / 3], atol=1e-9)
        assert report.barycentric is not None

    def test_reflexive_on_constant_tuple(self):
        E = [inner_product_deviation(3)] * 4
        u = (0.3, -1.0, 2.0)
        report = gen_deviation_mean(E, (u, u, u, u))
        np.testing.assert_allclose(report.value, u, atol=1e-9)

    def test_weighted_closed_form(self):
        E = [inner_product_deviation(2, 3.0), inner_product_deviation(2, 1.0)]
        report = gen_deviation_mean(E, ((0.0, 0.0), (4.0, 0.0)))
        np.testing.assert_allclose(report.value, [1.0, 0.0], atol=1e-9)

    def test_single_point(self):
        E = [inner_product_deviation(2)]
        report = gen_deviation_mean(E, ((1.5, -0.5),))
        np.testing.assert_allclose(report.value, [1.5, -0.5])
        assert report.iterations == 0

    def test_empty_tuple_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gen_deviation_mean([], ())

    def test_uniqueness_across_initializations(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 5))
            weights = [float(c) for c in rng.uniform(0.5, 2.5, n)]
            E = [inner_product_deviation(d, w) for w in weights]
            x = tuple(rng.uniform(-2.0, 2.0, d) for _ in range(n))
            a = gen_deviation_mean(E, x).value
            init = rng.dirichlet(np.ones(n))
            b = gen_deviation_mean(E, x, init=init).value
            assert float(np.linalg.norm(a - b)) <= 1e-7

    def test_vi_slack_reverified_at_solution(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            E = [inner_product_deviation(2, float(c)) for c in rng.uniform(0.5, 2.0, n)]
            x = tuple(rng.uniform(-2.0, 2.0, 2) for _ in range(n))
            report = gen_deviation_mean(E, x)
            scale = 1.0 + max(float(np.linalg.norm(np.asarray(p))) for p in x)
            vi = verify_vi(E, x, report.value, 1e-8 * scale)
            assert vi.ok

    def test_scalar_consistency_in_dimension_one(self):
        rng = np.random.default_rng(47)
        dev = ScalarDeviation(domain=POSITIVE_REALS, eval=lambda u, v: u * (u - v),
                              label="gini21", validate=False)
        lifted = lift_scalar_deviation(dev)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            x = tuple(float(v) for v in rng.uniform(0.2, 4.0, n))
            scalar_value = deviation_mean([dev] * n, x).value
            vector_value = gen_deviation_mean([lifted] * n, [(v,) for v in x]).value
            assert vector_value[0] == pytest.approx(scalar_value, abs=1e-9)

    def test_monotonicity_violation_detected(self):
        # Reversed pairing: E(u, v) = v - u is anti-monotone the wrong way.
        # (Its zero happens to sit at the centroid, so start off-center.)
        bad = GenDeviation(
            dim=2,
            eval=lambda u, v: np.asarray(v, float) - np.asarray(u, float),
            label="reversed",
            validate=False,
        )
        with pytest.raises(InvalidDeviationError):
            gen_deviation_mean([bad] * 3, TRIANGLE, init=(0.7, 0.2, 0.1))

    def test_non_finite_covector_mid_solve_names_the_deviation(self):
        # Valid for 9 calls (three covector sums; the whole solve takes 27),
        # then NaN: only the first sum validates each term, so the later
        # failure must be caught on the summed covector.
        calls = [0]

        def flaky(u, v):
            calls[0] += 1
            if calls[0] > 9:
                return np.array([math.nan, math.nan])
            diff = np.asarray(u, float) - np.asarray(v, float)
            return 2.0 * diff * (1.0 + 0.1 * float(np.sum(np.asarray(v, float) ** 2)))

        dev = GenDeviation(dim=2, eval=flaky, label="flaky", validate=False)
        with pytest.raises(InvalidDeviationError, match="flaky"):
            gen_deviation_mean([dev] * 3, TRIANGLE)

    def test_non_finite_inner_weight_names_the_deviation(self):
        dev = library_ipd(lambda u: math.nan if u[0] > 1.5 else 1.0, 2)
        with pytest.raises(InvalidDeviationError, match=dev.label):
            gen_deviation_mean([dev] * 3, TRIANGLE)

    def test_overflowing_slacks_end_the_step_test(self):
        # Finite slacks whose difference overflows: tau |ds| is inf for every
        # tau > 0, so the local test fails until tau underflows to 0, where
        # 0 * inf is NaN.  The NaN must pass the test, not halve tau forever.
        # The iterate map is a stub, so the slacks stay finite and the NaN
        # reaches the comparison.  The alarm turns a hang into a failure.
        X = np.asarray(TRIANGLE)
        lam = np.full(3, 1.0 / 3.0)
        cur = vector._Iterate(lam, lam @ X, np.zeros(2), np.array([-1e300, 1e300, 0.0]))

        def point(lam):
            return vector._Iterate(lam, lam @ X, np.zeros(2), np.array([1e300, -1e300, 0.0]))

        def hang(signum, frame):
            raise TimeoutError("the local step test did not end")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(20)
        try:
            with np.errstate(all="ignore"):
                _, tau = vector._slack_step(point, cur, 1.0, 0.5)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert tau == 0.0

    def test_overflowing_slacks_name_the_unmarked_family(self):
        # The summed covector stays finite at the centroid; only the slacks
        # overflow.  The general branch names the family there, at a finite
        # point, before any step.
        E = [GenDeviation(dim=2, label="unmarked", validate=False,
                          eval=lambda u, v, w=k * 1e305: 2.0 * w * (u - v))
             for k in (1, 2, 3)]
        x = ((0.0, 0.0), (100.0, 0.0), (0.0, 100.0))
        with np.errstate(all="ignore"), pytest.raises(InvalidDeviationError) as info:
            gen_deviation_mean(E, x)
        assert str(info.value).startswith("unmarked: summed covector or its slacks")
        assert "nan" not in str(info.value)

    def test_non_finite_jacobian_skips_the_newton_candidate(self):
        # g is only summed, not checked, so a probe off the hull can return
        # inf; the Jacobian map must then give None, as for a failing probe.
        jac = vector._central_jacobian(
            lambda y: np.array([math.inf if y[0] > 1.0 else -y[0], 0.0]))
        assert jac(np.array([1.0, 0.0])) is None
        assert jac(np.array([0.0, 0.0])) == pytest.approx(np.array([[-1.0, 0.0], [0.0, 0.0]]))

    def test_overflowing_inner_weight_slacks_name_the_deviation(self):
        # The summed covector stays finite here; only the slacks overflow.
        E = [library_ipd(k * 1e305, 2) for k in (1, 2, 3)]
        x = ((0.0, 0.0), (100.0, 0.0), (0.0, 100.0))
        with np.errstate(all="ignore"), pytest.raises(InvalidDeviationError,
                                                      match=E[0].label):
            gen_deviation_mean(E, x)

    def test_non_finite_gradient_mid_solve_names_the_potential(self):
        # The potential route sums -grad_v F_i through the same covector sum;
        # its failure must name the potential, not an anonymous covector.
        calls = [0]

        def flaky(u, v):
            calls[0] += 1
            if calls[0] > 18:
                return np.array([math.nan, math.nan])
            return 2.0 * (1.0 + float(u[0])) * (np.asarray(v, float) - np.asarray(u, float))

        F = PotentialFn(dim=2, eval=lambda u, v: (1.0 + float(u[0])) * float((v - u) @ (v - u)),
                        grad_v=flaky, label="flaky", validate=False)
        with pytest.raises(InvalidPotentialError, match="flaky"):
            potential_mean([F] * 3, TRIANGLE)

    def test_certificate_is_the_last_iterates_own_slack(self):
        # The solve evaluates g 7 times, 3 slots each: 3 iterate-map
        # evaluations (the start, one Armijo step and one Newton candidate)
        # and the 4 probes of one central-difference Jacobian.  The final
        # certificate is the last iterate's own slack, not an 8th evaluation
        # at the same weights, which would make 24 calls.  The test above
        # turns grad_v to NaN from call 19, in the Newton candidate's
        # iterate-map evaluation after the probes, so that its solve fails
        # mid-way.
        calls = [0]

        def counted(u, v):
            calls[0] += 1
            return 2.0 * (1.0 + float(u[0])) * (np.asarray(v, float) - np.asarray(u, float))

        F = PotentialFn(dim=2, eval=lambda u, v: (1.0 + float(u[0])) * float((v - u) @ (v - u)),
                        grad_v=counted, label="counted", validate=False)
        report = potential_mean([F] * 3, TRIANGLE)
        assert report.converged and report.iterations == 3
        assert calls[0] == 21

    @staticmethod
    def _route(route, covector):
        """Solve on TRIANGLE with a family whose covector is constant."""
        if route == "vi":
            E = GenDeviation(dim=2, eval=lambda u, v: covector, label="broken",
                             validate=False)
            return gen_deviation_mean([E] * 3, TRIANGLE)
        F = PotentialFn(dim=2, eval=lambda u, v: float((v - u) @ (v - u)),
                        grad_v=lambda u, v: covector, label="broken", validate=False)
        return potential_mean([F] * 3, TRIANGLE)

    @pytest.mark.parametrize("route, error", [("vi", InvalidDeviationError),
                                              ("potential", InvalidPotentialError)])
    def test_non_finite_covector_at_first_call_names_the_family(self, route, error):
        with pytest.raises(error, match="broken"):
            self._route(route, (math.nan, 0.0))

    @pytest.mark.parametrize("route", ["vi", "potential"])
    def test_wrong_covector_dimension_rejected(self, route):
        with pytest.raises(InvalidArgumentError, match="covector dimension 3 != 2"):
            self._route(route, (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_init_rejected(self, bad):
        E = [inner_product_deviation(2)] * 3
        # Anchored: "non-finite" in the weight check's message contains "init".
        with pytest.raises(InvalidArgumentError, match=r"^init\b"):
            gen_deviation_mean(E, TRIANGLE, init=(bad, 0.5, 0.5))

    def test_init_of_another_length_rejected(self):
        E = [inner_product_deviation(2)] * 3
        with pytest.raises(InvalidArgumentError,
                           match="^init must be a barycentric vector of length n$"):
            gen_deviation_mean(E, TRIANGLE, init=(0.5, 0.5))

    @pytest.mark.parametrize("build, message", [
        (lambda: GenDeviation(dim=0, eval=lambda u, v: ()), "deviation dimension must be positive"),
        (lambda: PotentialFn(dim=0, eval=lambda u, v: 0.0), "potential dimension must be positive"),
    ], ids=["deviation", "potential"])
    def test_dimension_must_be_positive(self, build, message):
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            build()

    def test_a_jacobian_probe_off_the_hull_skips_the_newton_candidate(self):
        # The hull is a segment of the axis v2 = 0, where every iterate lies,
        # and the deviations are defined for v2 >= 0 only: the central
        # difference probe at v2 = -h raises, which skips that Newton
        # candidate, and the extragradient steps converge on their own.
        raised = [0]

        def upper(w):
            def ev(u, v):
                if v[1] < 0.0:
                    raised[0] += 1
                    raise DomainError("defined for v2 >= 0 only")
                return w * (np.asarray(u, float) - np.asarray(v, float))
            return GenDeviation(dim=2, eval=ev, label="upper half-plane", validate=False)

        value = gen_deviation_mean_fn([upper(1.0), upper(3.0)])(((0.0, 0.0), (2.0, 0.0)))
        assert raised[0] > 0
        np.testing.assert_allclose(value, [1.5, 0.0], rtol=0.0, atol=1e-11)

    def test_merit_growth_at_the_rounding_floor_halves_the_step(self, monkeypatch):
        # Gradient problem 95 of stream 15 (hull_corpora): six points in R^4
        # under quadratic and quartic potentials of condition numbers up to
        # 10^4.  On the VI route the merit falls to about 2e-22 and then
        # stays 16 times above that, at the rounding floor of the slacks.
        # The iterate stops there: 10 zero steps halve the step scale, and
        # so, once, do 12 iterations of merit growth.
        seen = []
        step = vector._Extragradient.step

        def recorded(rule, cur, scale):
            seen.append((scale, vector._merit(cur.slack)))
            return step(rule, cur, scale)

        monkeypatch.setattr(vector._Extragradient, "step", recorded)
        x, F = hull_corpora.gradient_problem(95, 15)
        report = gen_deviation_mean([make_potential_deviation(f) for f in F], x)
        tol = 1e-12 * (1.0 + max(float(np.linalg.norm(p)) for p in x))
        # The growth rule replayed on the merits the rule saw: 12 iterations
        # above 4 times the least merit halve the scale and restart the count.
        fired, streak, least = [], 0, math.inf
        for i, (_, merit) in enumerate(seen):
            least = min(least, merit)
            streak = streak + 1 if merit > 4.0 * least + tol ** 2 else 0
            if streak == 12:
                fired.append(i)
                streak, least = 0, merit
        assert len(fired) == 1
        assert seen[fired[0]][0] == 0.5 * seen[fired[0] - 1][0]
        # The certificate stays the slack's; the value is the potential
        # route's, which certifies it with residual 0.
        assert report.converged == (report.residual <= tol)
        pot = potential_mean(F, x)
        assert pot.converged
        np.testing.assert_allclose(report.value, pot.value, rtol=0.0, atol=1e-14)


class TestGenDeviationValidation:
    def test_rejects_reversed_sign(self):
        with pytest.raises(InvalidDeviationError):
            GenDeviation(dim=2, eval=lambda u, v: np.asarray(v, float) - np.asarray(u, float))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InvalidDeviationError):
            GenDeviation(dim=1, eval=lambda u, v: (u[0] - v[0] + 1.0,))

    def test_accepts_valid_deviation(self):
        GenDeviation(dim=2, eval=lambda u, v: 2.0 * (np.asarray(u, float) - np.asarray(v, float)))


class TestVerifyVi:
    def test_true_at_centroid(self):
        E = [inner_product_deviation(2)] * 3
        vi = verify_vi(E, TRIANGLE, (2 / 3, 2 / 3), 1e-9)
        assert vi.ok
        assert vi.worst_slack <= 1e-9

    def test_false_at_vertex(self):
        E = [inner_product_deviation(2)] * 3
        vi = verify_vi(E, TRIANGLE, (0.0, 0.0), 1e-9)
        assert not vi.ok
        # g at the origin is 2((2,0)+(0,2)) = (4,4); slack against (2,0) is 8.
        assert vi.worst_slack == pytest.approx(8.0)
        assert vi.worst_index in (1, 2)

    def test_non_finite_covector_rejected(self):
        E = [GenDeviation(dim=2, eval=lambda u, v: (math.nan, 0.0), validate=False)] * 3
        with pytest.raises(InvalidArgumentError, match="^covector entries must be finite$"):
            verify_vi(E, TRIANGLE, (2 / 3, 2 / 3), 1e-9)

    def test_single_point_hull(self):
        E = [inner_product_deviation(2)]
        vi = verify_vi(E, ((1.0, 1.0),), (1.0, 1.0), 1e-12)
        assert vi.ok

    def test_outside_hull_rejected(self):
        E = [inner_product_deviation(2)] * 3
        with pytest.raises(HullViolationError):
            verify_vi(E, TRIANGLE, (5.0, 5.0), 1e-9)
        # A point of another dimension than the family's.
        with pytest.raises(InvalidArgumentError, match="dimension 2, got 3"):
            verify_vi(E, TRIANGLE, (0.0, 0.0, 0.0), 1e-9)


class TestPointWeights:
    """A point weight that is not finite and positive at a data point raises
    its family's error, naming the value and the point, on either route."""

    X = ((-1.0, 0.0), (1.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize("w, named", [
        (lambda u: u[0], r"weight -1\.0 at \[-1\.0, 0\.0\]"),  # weights -1, 1, 0: sum 0
        (lambda u: math.nan, r"weight nan at \[-1\.0, 0\.0\]"),
        (lambda u: math.inf if u[1] > 0 else 1.0, r"weight inf at \[0\.0, 1\.0\]"),
    ], ids=["sum-zero", "nan", "inf"])
    def test_both_routes_raise(self, w, named):
        with pytest.raises(InvalidPotentialError, match=f"^norm-squared: {named}"):
            potential_mean([make_norm_sq_potential(w, 2)] * 3, self.X)
        with pytest.raises(InvalidDeviationError, match=f"^inner-product deviation: {named}"):
            gen_deviation_mean([library_ipd(w, 2)] * 3, self.X)
        # The same weight evaluated outside the solvers.
        with pytest.raises(InvalidDeviationError, match=named):
            verify_vi([library_ipd(w, 2)] * 3, self.X, (0.0, 0.5), 1e-9)
        with pytest.raises(InvalidPotentialError, match=named):
            grid_oracle_mean([make_norm_sq_potential(w, 2)] * 3, self.X, 4)


class TestPotentialDeviation:
    def test_unit_weight_gradient(self):
        F = make_norm_sq_potential(1.0, dim=2)
        E = make_potential_deviation(F)
        u, v = np.array([0.5, 0.5]), np.array([2.0, -1.0])
        np.testing.assert_allclose(E.grad(u, v), 2.0 * (u - v), atol=1e-12)

    def test_zero_on_diagonal(self):
        F = make_norm_sq_potential(2.5, dim=3)
        E = make_potential_deviation(F)
        u = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(E.grad(u, u), np.zeros(3), atol=1e-12)

    def test_one_dimensional_value(self):
        F = PotentialFn(dim=1, eval=lambda u, v: (v[0] - u[0]) ** 2,
                        grad_v=lambda u, v: (2.0 * (v[0] - u[0]),), validate=False)
        E = make_potential_deviation(F)
        assert E.grad(np.array([1.0]), np.array([3.0]))[0] == pytest.approx(-4.0)

    def test_covector_valued_gradient_solves_on_both_routes(self):
        F = PotentialFn(dim=2, eval=lambda u, v: float((v - u) @ (v - u)),
                        grad_v=lambda u, v: tuple(2.0 * (v - u)), label="covector")
        E = make_potential_deviation(F)
        for report in (potential_mean([F] * 3, TRIANGLE), gen_deviation_mean([E] * 3, TRIANGLE)):
            assert report.converged
            np.testing.assert_allclose(report.value, [2 / 3, 2 / 3], atol=1e-9)

    def test_concave_potential_rejected(self):
        with pytest.raises(InvalidPotentialError):
            F = PotentialFn(dim=1, eval=lambda u, v: -((v[0] - u[0]) ** 2),
                            grad_v=lambda u, v: (-2.0 * (v[0] - u[0]),))
            make_potential_deviation(F)


class TestNormSqPotential:
    def test_value(self):
        F = make_norm_sq_potential(1.0, dim=2)
        assert F.value(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_zero_on_diagonal(self):
        F = make_norm_sq_potential(1.0, dim=2)
        u = np.array([1.1, -0.3])
        assert F.value(u, u) == 0.0

    def test_weighted_value(self):
        F = make_norm_sq_potential(2.0, dim=1)
        assert F.value(np.array([1.0]), np.array([4.0])) == pytest.approx(18.0)

    def test_rejects_nonpositive_constant(self):
        with pytest.raises(InvalidArgumentError):
            make_norm_sq_potential(0.0, dim=2)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(53)
        F = make_norm_sq_potential(lambda u: 1.0 + 0.5 / (1.0 + float(u @ u)), dim=3)
        for _ in range(10):
            u = rng.uniform(-2, 2, 3)
            v = rng.uniform(-2, 2, 3)
            g = F.grad(u, v)
            for i in range(3):
                h = 1e-6
                vp, vm = v.copy(), v.copy()
                vp[i] += h
                vm[i] -= h
                fd = (F.value(u, vp) - F.value(u, vm)) / (2 * h)
                assert g[i] == pytest.approx(fd, abs=1e-6)


class TestPotentialMean:
    def test_centroid_least_squares(self):
        F = [make_norm_sq_potential(1.0, dim=2)] * 3
        report = potential_mean(F, TRIANGLE)
        assert report.converged
        np.testing.assert_allclose(report.value, [2 / 3, 2 / 3], atol=1e-9)

    def test_single_point(self):
        F = [make_norm_sq_potential(1.0, dim=2)]
        report = potential_mean(F, ((0.5, 0.5),))
        np.testing.assert_allclose(report.value, [0.5, 0.5])

    def test_weighted_one_dimensional_argmin(self):
        F = [make_norm_sq_potential(3.0, dim=1), make_norm_sq_potential(1.0, dim=1)]
        report = potential_mean(F, ((0.0,), (4.0,)))
        assert report.value[0] == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_deviation_route(self):
        rng = np.random.default_rng(59)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(1, 4))
            weights = [float(c) for c in rng.uniform(0.5, 2.0, n)]
            F = [make_norm_sq_potential(w, dim=d) for w in weights]
            E = [make_potential_deviation(f) for f in F]
            x = tuple(rng.uniform(-2.0, 2.0, d) for _ in range(n))
            a = potential_mean(F, x).value
            b = gen_deviation_mean(E, x).value
            assert float(np.linalg.norm(a - b)) <= 1e-8

    def test_closed_form_weighted_average(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 4))
            weights = [float(c) for c in rng.uniform(0.5, 3.0, n)]
            F = [make_norm_sq_potential(w, dim=d) for w in weights]
            x = [rng.uniform(-2.0, 2.0, d) for _ in range(n)]
            value = potential_mean(F, x).value
            closed = sum(w * p for w, p in zip(weights, x)) / sum(weights)
            assert float(np.linalg.norm(value - closed)) <= 1e-9

    def test_floor_limited_solve_gives_up(self):
        # Problem 80 of draw 40 of the gradient corpus: the slack tolerance
        # is 1.2e-18 of max_j |g(x_j)| diam(x), below the rounding floor of
        # the slacks, so no iterate certifies.  Armijo steps that only trade
        # float noise are zero steps, and the stagnation handling ends the
        # solve after 256 iterations.  Taking those steps instead ran it to
        # max_iter, 10,000 iterations.
        x, F = hull_corpora.gradient_problem(80, 40)
        report = potential_mean(F, x)
        assert not report.converged and report.iterations <= 400


class TestGridOracle:
    def test_centroid_within_lattice_spacing(self):
        F = [make_norm_sq_potential(1.0, dim=2)] * 3
        best = grid_oracle_mean(F, TRIANGLE, resolution=201)
        assert float(np.linalg.norm(best - np.array([2 / 3, 2 / 3]))) <= 0.02

    def test_single_point(self):
        F = [make_norm_sq_potential(1.0, dim=2)]
        np.testing.assert_allclose(grid_oracle_mean(F, ((1.0, 2.0),), 11), [1.0, 2.0])

    def test_weighted_one_dimensional(self):
        F = [make_norm_sq_potential(3.0, dim=1), make_norm_sq_potential(1.0, dim=1)]
        best = grid_oracle_mean(F, ((0.0,), (4.0,)), resolution=4001)
        assert best[0] == pytest.approx(1.0, abs=0.002)

    def test_resolution_too_small_rejected(self):
        F = [make_norm_sq_potential(1.0, dim=1)] * 2
        with pytest.raises(InvalidArgumentError):
            grid_oracle_mean(F, ((0.0,), (1.0,)), resolution=1)


@pytest.mark.parametrize("solve", [potential_mean, lambda F, x: grid_oracle_mean(F, x, 5)],
                         ids=["potential_mean", "grid_oracle_mean"])
@pytest.mark.parametrize("F, x, message", [
    ([], (), "empty potential tuple"),
    ([make_norm_sq_potential(1.0, dim=2), make_norm_sq_potential(1.0, dim=3)],
     ((0.0, 0.0), (1.0, 1.0)), "potentials must share one dimension"),
    ([make_norm_sq_potential(1.0, dim=2)] * 2, TRIANGLE, "tuple length 3 != potential count 2"),
], ids=["empty", "mixed-dimensions", "wrong-length"])
def test_potential_family_messages(solve, F, x, message):
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
        solve(F, x)


def _counted_weight(spec, calls):
    """A constant weight as itself; (a, b) as the callable b (1 + a tanh(u1)),
    which counts its calls in calls."""
    if isinstance(spec, float):
        return spec
    a, b = spec

    def weight(u):
        calls[0] += 1
        return b * (1.0 + a * math.tanh(float(u[0])))

    return weight


def _same_report(a, b):
    return (a.value.tolist(), a.residual, a.iterations, a.converged, a.barycentric) == (
        b.value.tolist(), b.residual, b.iterations, b.converged, b.barycentric)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 4), st.data())
def test_an_inner_product_mean_is_its_closed_form_in_one_iterate(n, d, data):
    # The zero of g(y) = 2 sum_i c_i (x_i - y), c_i = w_i(x_i), is the point
    # of barycentric weights c / sum(c); a solve without init evaluates it
    # once and returns it when its own slack certifies it.
    x = [np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
         for _ in range(n)]
    specs = data.draw(st.lists(st.one_of(
        st.floats(0.5, 3.0), st.tuples(st.floats(-0.9, 0.9), st.floats(0.5, 3.0))),
        min_size=n, max_size=n))
    calls = [0]
    E = [inner_product_deviation(d, _counted_weight(w, calls)) for w in specs]
    weighted = sum(not isinstance(w, float) for w in specs)
    tol = 1e-12 * (1.0 + max(map(length, x)))
    report = gen_deviation_mean(E, x)
    assert report.converged and report.iterations == (1 if n > 1 else 0)
    # Each weight is called once per solve, for the coefficients of g.
    assert calls[0] == (weighted if n > 1 else 0)
    # The loop, on the same deviations without their inner weights, agrees
    # within tol, and within the distance its own certificate allows: g is
    # strongly monotone with modulus mu = 2 sum_i c_i, so the loop's slack r
    # puts its point within sqrt(r / mu) of the mean (the gap bound, ROADMAP
    # item 17), which is the coarser where the points lie close together.
    loop = gen_deviation_mean([dataclasses.replace(e, inner_weight=None) for e in E], x)
    c = [w if isinstance(w, float) else w[1] * (1.0 + w[0] * math.tanh(p[0]))
         for w, p in zip(specs, x)]
    mu = 2.0 * sum(c)
    # The closed form itself is the weighted average to rounding.
    average = [math.fsum(ci * p[k] for ci, p in zip(c, x)) / math.fsum(c) for k in range(d)]
    np.testing.assert_allclose(report.value, average, rtol=0.0, atol=1e-3 * tol)
    assert loop.converged
    assert float(np.abs(report.value - loop.value).max()) <= tol + math.sqrt(
        max(loop.residual, 0.0) / mu)
    assert verify_vi(E, x, report.value, tol).ok
    # A tolerance the closed form's slack does not meet sends the solve to
    # the loop from the centroid, which returns its own report: the one a
    # solve given the centroid's weights as init returns.
    tiny = SolverConfig(abs_tol=5e-324, max_iter=20)
    calls[0] = 0
    fallback = gen_deviation_mean(E, x, tiny)
    assert calls[0] == (weighted if n > 1 else 0)
    if n > 1 and report.residual > 5e-324 * (1.0 + max(map(length, x))):
        assert _same_report(fallback, gen_deviation_mean(E, x, tiny, init=np.full(n, 1.0 / n)))
        assert fallback.iterations > 1


def test_a_solve_given_init_runs_the_loop():
    # The closed form is the start of a solve without init only.
    E = [inner_product_deviation(2, w) for w in (1.0, 2.0, 3.0)]
    closed = gen_deviation_mean(E, TRIANGLE)
    started = gen_deviation_mean(E, TRIANGLE, init=(1.0 / 3.0,) * 3)
    assert closed.iterations == 1 and started.iterations > 1
    assert closed.barycentric.weights == (1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0)
    np.testing.assert_allclose(started.value, closed.value, rtol=0.0, atol=1e-12)


class TestOverflowSafeTolerances:
    """Tolerances scaled by a length stay finite where the length's square
    leaves the float range, so that no iterate passes an infinite one."""

    def test_length_is_numpy_norm_within_range_and_hypot_beyond(self):
        rng = np.random.default_rng(3)
        for v in rng.normal(size=(200, 4)) * 10.0 ** rng.uniform(-100, 100, (200, 1)):
            assert length(v) == float(np.linalg.norm(v))
        assert length(np.array([1e200, -1e200])) == math.hypot(1e200, 1e200)
        assert length(np.array([3e300, 4e300])) == 5e300

    def test_a_hull_solve_at_1e200_is_not_converged_at_the_centroid(self):
        E = [GenDeviation(dim=1, eval=lambda u, v: (u - v) / (1.0 + abs(u - v)),
                          validate=False)] * 3
        x = ((1e200,), (0.0,), (0.0,))
        # _slack_step's |s(lam') - s(lam)| still overflows at this scale.
        with np.errstate(over="ignore"):
            report = gen_deviation_mean(E, x, SolverConfig(max_iter=200))
        assert not report.converged

    def test_a_huge_tolerance_does_not_overflow_the_merit_floor(self):
        E = [GenDeviation(dim=2, eval=lambda u, v: (u - v) * (1.0 + float(u @ u)),
                          validate=False)] * 3
        report = gen_deviation_mean(E, TRIANGLE, SolverConfig(abs_tol=1e200))
        assert report.converged

    def test_the_hull_check_of_verify_vi_scales_past_1e154(self):
        E = [inner_product_deviation(1)] * 2
        x = ((2e200,), (0.0,))
        assert verify_vi(E, x, (1e200,), 1e-12).hull_residual >= 0.0
        with pytest.raises(HullViolationError):
            verify_vi(E, x, (3e200,), 1e-12)
