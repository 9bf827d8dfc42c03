import functools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from meanreduce.core import Interval, POSITIVE_REALS, REALS, SolverConfig, bracketed_root
from meanreduce.descriptors import (
    KINDS,
    _VECTOR_KINDS,
    MeanDescriptor,
    build_generator,
    build_mean,
)
from meanreduce.errors import (
    DomainError,
    InvalidArgumentError,
    InvalidDeviationError,
)
from meanreduce.reduction import check_mean_function, deviation_mean_fn
from meanreduce.scalar import (
    DeviationTuple,
    GeneratorFn,
    ScalarDeviation,
    WeightFn,
    average,
    bajraktarevic_mean,
    constant_weight,
    deviation_mean,
    deviation_sign,
    e_sum,
    gini_mean,
    holder_mean,
    identity_generator,
    log_generator,
    make_bajraktarevic_deviation,
    matkowski_mean,
    numeric_inverse,
    point_average,
    power_generator,
    power_weight,
    quasi_arithmetic_mean,
    weighted_arith_mean,
)


def arithmetic_deviation(domain=REALS) -> ScalarDeviation:
    return ScalarDeviation(domain=domain, eval=lambda u, v: u - v,
                           label="arithmetic", validate=False)


def gini_21_deviation(domain=POSITIVE_REALS) -> ScalarDeviation:
    # E(u, v) = u (u - v): generates the Gini mean with exponents (2, 1).
    return ScalarDeviation(domain=domain, eval=lambda u, v: u * (u - v),
                           label="gini21", validate=False)


class TestESum:
    def test_centered_at_arithmetic_mean(self):
        E = DeviationTuple((arithmetic_deviation(),) * 3)
        assert e_sum(E, (1.0, 2.0, 3.0), 2.0) == 0.0

    def test_linear_offset(self):
        E = DeviationTuple((arithmetic_deviation(),) * 3)
        assert e_sum(E, (1.0, 2.0, 3.0), 0.0) == 6.0

    def test_gini_type_hand_value(self):
        E = DeviationTuple((gini_21_deviation(),) * 2)
        # 1*(1 - 2.5) + 3*(3 - 2.5) = 0
        assert e_sum(E, (1.0, 3.0), 2.5) == 0.0

    def test_length_mismatch(self):
        E = DeviationTuple((arithmetic_deviation(),) * 2)
        with pytest.raises(InvalidArgumentError):
            e_sum(E, (1.0, 2.0, 3.0), 0.0)

    def test_domain_violation(self):
        E = DeviationTuple((gini_21_deviation(),) * 2)
        with pytest.raises(InvalidArgumentError):
            e_sum(E, (1.0, -3.0), 1.0)


class TestDeviationMean:
    def test_arithmetic_deviations_give_arithmetic_mean(self):
        E = DeviationTuple((arithmetic_deviation(),) * 3)
        report = deviation_mean(E, (1.0, 2.0, 3.0))
        assert report.converged
        assert report.value == pytest.approx(2.0, abs=1e-10)

    def test_constant_tuple_short_circuits(self):
        E = DeviationTuple((arithmetic_deviation(),) * 4)
        report = deviation_mean(E, (0.7, 0.7, 0.7, 0.7))
        assert report.value == 0.7
        assert report.iterations == 0
        assert report.residual == 0.0

    def test_gini_deviation_solves_to_ratio_of_power_sums(self):
        E = DeviationTuple((gini_21_deviation(),) * 2)
        report = deviation_mean(E, (1.0, 3.0))
        # sum x_i^2 = y sum x_i  =>  y = 10/4
        assert report.value == pytest.approx(2.5, abs=1e-10)

    def test_mean_property_and_report_invariant(self):
        rng = np.random.default_rng(7)
        E = DeviationTuple((gini_21_deviation(),) * 4)
        for _ in range(50):
            x = tuple(rng.uniform(0.2, 5.0, 4))
            report = deviation_mean(E, x)
            assert report.converged
            assert min(x) <= report.value <= max(x)

    def test_invalid_deviation_detected_at_bracket(self):
        # Reversed sign: E(u, v) = v - u increases in v.
        bad = ScalarDeviation(domain=REALS, eval=lambda u, v: v - u,
                              label="reversed", validate=False)
        with pytest.raises(InvalidDeviationError):
            deviation_mean(DeviationTuple((bad, bad)), (0.0, 1.0))

    def test_non_monotone_section_detected_in_loop(self):
        # Valid sign pattern at the endpoints but a hump peaking mid-bracket.
        def hump(u, v):
            return (u - v) + 40.0 * math.sin(math.pi * v)

        bad = ScalarDeviation(domain=Interval(-0.5, 1.5), eval=hump,
                              label="hump", validate=False)
        with pytest.raises(InvalidDeviationError):
            deviation_mean(DeviationTuple((bad, bad)), (0.0, 1.0))

    def test_sum_over_both_infinities_is_a_domain_error(self):
        # At an inner probe y, 3 (x_1 - y) is -inf and 3 (x_2 - y) is +inf:
        # math.fsum raised a bare ValueError, which no search caught.
        tripled = ScalarDeviation(domain=REALS, eval=lambda u, v: 3.0 * (u - v),
                                  label="tripled", validate=False)
        with pytest.raises(DomainError, match="both infinities"):
            deviation_mean(DeviationTuple((tripled, tripled)), (-1.7e308, 1.7e308))

    def test_budget_exhaustion_reports_no_convergence(self):
        E = DeviationTuple((arithmetic_deviation(),) * 2)
        cfg = SolverConfig(abs_tol=1e-300, rel_tol=1e-300, max_iter=3)
        report = deviation_mean(E, (0.1, 1.0), cfg)
        assert not report.converged
        assert report.iterations == 3

    def test_construction_validation_rejects_reversed_sign(self):
        with pytest.raises(InvalidDeviationError):
            ScalarDeviation(domain=REALS, eval=lambda u, v: v - u)

    def test_construction_validation_rejects_nonzero_diagonal(self):
        with pytest.raises(InvalidDeviationError):
            ScalarDeviation(domain=REALS, eval=lambda u, v: u - v + 1.0)


class TestDeviationSign:
    def test_below_mean(self):
        E = DeviationTuple((arithmetic_deviation(),) * 2)
        assert deviation_sign(E, (1.0, 3.0), 1.5) == 1

    def test_at_mean(self):
        E = DeviationTuple((arithmetic_deviation(),) * 2)
        assert deviation_sign(E, (1.0, 3.0), 2.0) == 0

    def test_above_mean(self):
        E = DeviationTuple((gini_21_deviation(),) * 2)
        assert deviation_sign(E, (1.0, 3.0), 3.0) == -1

    def test_matches_sign_of_mean_minus_u(self):
        rng = np.random.default_rng(11)
        E = DeviationTuple((gini_21_deviation(),) * 3)
        for _ in range(100):
            x = tuple(rng.uniform(0.2, 5.0, 3))
            mean = deviation_mean(E, x).value
            lo, hi = min(x), max(x)
            if hi - lo < 1e-6:
                continue
            u = float(rng.uniform(lo, hi))
            if abs(u - mean) <= 1e-9:
                continue
            assert deviation_sign(E, x, u) == (1 if mean > u else -1)


class TestBajraktarevicDeviation:
    def test_arithmetic_deviation_values(self):
        dev = make_bajraktarevic_deviation(identity_generator(), constant_weight(1.0))
        assert dev(3.0, 1.0) == 2.0

    def test_log_generator(self):
        dev = make_bajraktarevic_deviation(log_generator(),
                                           constant_weight(1.0, POSITIVE_REALS))
        assert dev(math.e, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_identity_with_linear_weight(self):
        w = WeightFn(eval=lambda u: u, domain=POSITIVE_REALS)
        dev = make_bajraktarevic_deviation(identity_generator(POSITIVE_REALS), w)
        assert dev(2.0, 5.0) == 2.0 * (2.0 - 5.0)

    def test_domain_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_bajraktarevic_deviation(log_generator(), constant_weight(1.0, REALS))


class TestBajraktarevicMean:
    def test_unit_weights_identity_generator(self):
        f = identity_generator()
        w = [constant_weight(1.0)] * 3
        assert bajraktarevic_mean(f, w, (1.0, 2.0, 3.0)) == pytest.approx(2.0)

    def test_linear_weight_matches_gini(self):
        f = identity_generator(POSITIVE_REALS)
        w = [WeightFn(eval=lambda u: u, domain=POSITIVE_REALS)] * 2
        assert bajraktarevic_mean(f, w, (1.0, 3.0)) == pytest.approx(2.5)

    def test_constant_weights(self):
        f = identity_generator()
        w = [constant_weight(2.0), constant_weight(1.0)]
        assert bajraktarevic_mean(f, w, (0.0, 3.0)) == pytest.approx(1.0)


class TestQuasiArithmeticMean:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=6),
           st.sampled_from(["identity", "log", "exp", "sq"]))
    def test_is_the_unit_weight_bajraktarevic_mean_bit_for_bit(self, x, name):
        f = {"identity": identity_generator(POSITIVE_REALS), "log": log_generator(),
             "exp": build_generator("exp", POSITIVE_REALS), "sq": power_generator(2.0)}[name]
        ones = [constant_weight(1.0, f.domain)] * len(x)
        assert quasi_arithmetic_mean(f, x) == bajraktarevic_mean(f, ones, x)

    @pytest.mark.parametrize("x, message", [
        ((), "empty tuple"), ((1.0, -2.0), "outside the domain"),
    ])
    def test_errors_are_the_bajraktarevic_mean_errors(self, x, message):
        ones = [constant_weight(1.0, POSITIVE_REALS)] * len(x)
        for call in (lambda: quasi_arithmetic_mean(log_generator(), x),
                     lambda: bajraktarevic_mean(log_generator(), ones, x)):
            with pytest.raises(InvalidArgumentError, match=message):
                call()

    def test_generator_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="generator overflows"):
            quasi_arithmetic_mean(build_generator("exp"), (0.0, 1e308))

    def test_sum_of_generator_values_beyond_the_float_range(self):
        assert quasi_arithmetic_mean(identity_generator(), (1e308, 1.5e308)) == pytest.approx(
            1.25e308, rel=1e-15)


class TestMatkowskiMean:
    def test_identity_generators(self):
        fs = [identity_generator()] * 3
        assert matkowski_mean(fs, (1.0, 2.0, 3.0)) == pytest.approx(2.0, abs=1e-9)

    def test_log_generators_give_geometric_mean(self):
        fs = [log_generator()] * 2
        assert matkowski_mean(fs, (2.0, 8.0)) == pytest.approx(4.0, abs=1e-9)

    def test_mixed_linear_generators(self):
        f1 = identity_generator()
        f2 = GeneratorFn(eval=lambda u: 2.0 * u, inverse=lambda t: t / 2.0,
                         domain=REALS, validate=False)
        # y + 2y = 0 + 6  =>  y = 2
        assert matkowski_mean((f1, f2), (0.0, 3.0)) == pytest.approx(2.0, abs=1e-9)

    def test_quasi_arithmetic_alias(self):
        assert quasi_arithmetic_mean(log_generator(), (2.0, 8.0)) == pytest.approx(4.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(0.1, 50.0), min_size=2, max_size=5), st.data())
    def test_scaled_terms_keep_every_iterate(self, x, data):
        # The reference: the generator values summed unscaled, as before the
        # terms were scaled by 2^-k; the scaling is exact, so are the roots.
        kinds = data.draw(st.lists(st.sampled_from(["id", "log", "sq"]),
                                   min_size=len(x), max_size=len(x)))
        table = {"id": identity_generator(POSITIVE_REALS), "log": log_generator(),
                 "sq": power_generator(2.0)}
        fs = [table[k] for k in kinds]
        evals = [f.eval for f in fs]
        target = math.fsum(ev(xi) for ev, xi in zip(evals, x))

        def g(y):
            return math.fsum(ev(y) for ev in evals) - target

        a, b = min(x), max(x)
        cfg = SolverConfig()
        if a == b or g(a) >= 0.0 or g(b) <= 0.0:
            return
        root = bracketed_root(g, a, b, g(a), g(b), cfg.rel_tol * (b - a) + cfg.abs_tol,
                              cfg.max_iter)
        assert matkowski_mean(fs, x) == 0.5 * (root.a + root.b)

    @pytest.mark.parametrize("slopes, x", [
        ((1.0, 1.0), (-1e308, 1e308)),
        ((1.0, 2.0, 1.0), (0.0, 0.0, 1e308)),
        ((1.0, 1.0, 1.0), (1e308, 1.7e308, 1.7e308)),
    ])
    def test_sums_beyond_the_float_range(self, slopes, x):
        # Generators c_i u: the mean is sum c_i x_i / sum c_i, while the
        # sums of generator values overflow.  The search stops once its
        # bracket is rel_tol (max x - min x) wide.
        gens = [build_generator(f"{c}*u") for c in slopes]
        expected = math.fsum(c / sum(slopes) * v for c, v in zip(slopes, x))
        tol = SolverConfig().rel_tol * max(x) - SolverConfig().rel_tol * min(x)
        assert matkowski_mean(gens, x) == pytest.approx(expected, abs=tol)


def _mp_gini(p, q, x):
    """The Gini mean (the Holder mean for q = 0) in mpmath at 80 digits: the
    ratio of power sums to the power 1 / (p - q) for |p - q| >= 1e-30, where
    80 digits resolve that power; for smaller gaps the same from expm1 and
    log1p, which keep x^(p - q) - 1 to full precision; for p = q the limit
    exp(sum x^p log x / sum x^p)."""
    with mpmath.workdps(80):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        xs = [mpmath.mpf(v) for v in x]
        d = p - q
        if d == 0:
            w = [v ** p for v in xs]
            value = mpmath.exp(mpmath.fsum(wi * mpmath.log(v) for wi, v in zip(w, xs))
                               / mpmath.fsum(w))
        elif abs(d) < mpmath.mpf("1e-30"):
            w = [v ** q for v in xs]
            z = (mpmath.fsum(wi * mpmath.expm1(d * mpmath.log(v)) for wi, v in zip(w, xs))
                 / mpmath.fsum(w))
            value = mpmath.exp(mpmath.log1p(z) / d)
        else:
            value = (mpmath.fsum(v ** p for v in xs) / mpmath.fsum(v ** q for v in xs)) ** (1 / d)
        return float(value)


class TestSmallExponents:
    """Where x^p is within |p log x| of 1, forming it rounds away what the
    mean is made of: holder_mean(1e-17, x) used to return max x.  Every
    comparison is relative only (abs=0): approx's default absolute
    tolerance of 1e-12 would pass any mean below 1e-12."""

    X = (0.5, 2.0, 7.0)

    @pytest.mark.parametrize("p", [1e-300, -1e-300, 1e-17, -1e-17, 1e-12, -1e-12, 0.3, -0.49])
    def test_holder_against_mpmath(self, p):
        assert holder_mean(p, self.X) == pytest.approx(_mp_gini(p, 0.0, self.X), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p, q", [(1.0 + 1e-14, 1.0), (1.0, 1.0 + 1e-14), (-2.0 + 1e-14, -2.0)])
    def test_gini_against_mpmath(self, p, q):
        assert gini_mean(p, q, self.X) == pytest.approx(_mp_gini(p, q, self.X), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p, q, x", [
        (-0.4, 0.0, (1e-100, 1.0)),
        (-0.45, 0.0, (1e-30, 1.0)),
        (-0.004, 0.0, (1e-100, 1.0)),
        (-1e-12, 0.0, (1e-100, 1.0, 3.0)),
        (0.3, -0.1, (1e-100, 1.0)),
        (-0.1, -0.1 - 1e-14, (1e-100, 1.0, 3.0)),
        (0.9195232128986474, 0.9195232128971784, (1.174363136753047e+289, 7.244264145575631e-14)),
    ])
    def test_wide_data_against_mpmath(self, p, q, x):
        # Weights x^q that pile onto min x: a sum of powers of x / max x
        # would cancel toward 0.  The last case has its weights all on max x.
        mean = holder_mean(p, x) if q == 0.0 else gini_mean(p, q, x)
        assert mean == pytest.approx(_mp_gini(p, q, x), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p", [5e-324, -1e-320, 1e-306])
    def test_underflowing_products_give_the_geometric_mean(self, p):
        # p log(x_i / max x) underflows; the mean is the p -> 0 limit.
        assert holder_mean(p, self.X) == pytest.approx(holder_mean(0.0, self.X), rel=1e-15, abs=0.0)


class TestHolderMean:
    def test_arithmetic_case(self):
        assert holder_mean(1.0, (1.0, 2.0, 3.0)) == pytest.approx(2.0)

    def test_quadratic_case(self):
        assert holder_mean(2.0, (1.0, 7.0)) == pytest.approx(5.0)

    def test_geometric_extension(self):
        assert holder_mean(0.0, (2.0, 8.0)) == pytest.approx(4.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidArgumentError):
            holder_mean(1.0, (1.0, -2.0))
        with pytest.raises(InvalidArgumentError):
            holder_mean(2.0, (0.0, 1.0))

    def test_extreme_exponents_stable(self):
        # Exponents at which the naive power sum would overflow; the exact
        # value follows from factoring out the extreme element.
        x = (0.5, 2.0, 7.0)
        assert holder_mean(600.0, x) == pytest.approx(7.0 * 3.0 ** (-1 / 600), rel=1e-12)
        assert holder_mean(-600.0, x) == pytest.approx(0.5 * 3.0 ** (1 / 600), rel=1e-12)

    def test_monotone_in_exponent(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = tuple(rng.uniform(0.2, 6.0, 4))
            p, q = sorted(rng.uniform(-4.0, 4.0, 2))
            assert holder_mean(p, x) <= holder_mean(q, x) + 1e-10


class TestGiniMean:
    def test_arithmetic_case(self):
        assert gini_mean(1.0, 0.0, (1.0, 2.0, 3.0)) == pytest.approx(2.0)

    def test_ratio_of_power_sums(self):
        assert gini_mean(2.0, 1.0, (1.0, 3.0)) == pytest.approx(2.5)

    def test_reflexive_on_constant_tuple(self):
        assert gini_mean(0.0, -1.0, (2.0, 2.0)) == pytest.approx(2.0, abs=1e-12)

    def test_equal_exponents_limit(self):
        x = (1.0, 2.0, 5.0)
        for p in (0.0, 1.0, -2.0):
            direct = gini_mean(p, p, x)
            nearby = gini_mean(p + 1e-7, p, x)
            assert direct == pytest.approx(nearby, rel=1e-5)

    def test_symmetric_in_exponent_order(self):
        x = (0.7, 1.9, 3.1)
        assert gini_mean(2.0, 1.0, x) == pytest.approx(gini_mean(1.0, 2.0, x), rel=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        x = tuple(rng.uniform(0.3, 4.0, 5))
        perm = tuple(np.asarray(x)[rng.permutation(5)])
        assert gini_mean(1.7, -0.4, x) == pytest.approx(gini_mean(1.7, -0.4, perm), abs=1e-12)
        assert holder_mean(2.3, x) == pytest.approx(holder_mean(2.3, perm), abs=1e-12)


class TestClosedFormExtremes:
    """Inputs where a direct power sum overflows or underflows.  numpy
    returned 0.0, nan or a value outside the hull at these; plain ``**``
    raises OverflowError or ZeroDivisionError.  Expected values computed
    with mpmath at 80 digits."""

    @pytest.mark.parametrize("p, q, x, expected", [
        (3.0, -300.0, (1e-5, 1e300), 0.010466512108254267),
        (1.0, -2.0, (1e-320, 1e10), 9.999925781080176e-211),
        (-300.0, -300.0, (1e-5, 2.0), 1e-5),
    ])
    def test_gini_log_space_fallback(self, p, q, x, expected):
        y = gini_mean(p, q, x)
        assert min(x) <= y <= max(x)
        assert y == pytest.approx(expected, rel=1e-12)

    def test_holder_ratio_underflow(self):
        # 1e-320 / 1e300 underflows to 0, but (1e-620)^1e-4 is about 0.87.
        y = holder_mean(1e-4, (1e-320, 1e300))
        assert y == pytest.approx(11.338002027712097, rel=1e-11)

    @pytest.mark.parametrize("call", [
        lambda: holder_mean(math.nan, (1.0, 2.0)),
        lambda: gini_mean(math.nan, 1.0, (1.0, 2.0)),
        lambda: gini_mean(1.0, math.nan, (1.0, 2.0)),
        lambda: gini_mean(math.inf, 1.0, (1.0, 2.0)),
        lambda: gini_mean(1.0, -math.inf, (1.0, 2.0)),
    ])
    def test_bad_exponents_rejected(self, call):
        with pytest.raises(InvalidArgumentError):
            call()

    @pytest.mark.parametrize("x", [(), (1.0, math.nan), (1.0, math.inf), (0.0, 1.0)])
    def test_bad_tuples_keep_their_messages(self, x):
        message = "empty tuple" if not x else "strictly positive"
        for call in (lambda: holder_mean(1.0, x), lambda: gini_mean(2.0, 1.0, x)):
            with pytest.raises(InvalidArgumentError, match=message):
                call()

    def test_infinite_holder_exponents_are_max_and_min(self):
        x = (1e-320, 3.0, 1e308)
        assert holder_mean(math.inf, x) == 1e308
        assert holder_mean(-math.inf, x) == 1e-320


def _numpy_holder(p, x):
    """The numpy implementation the plain-float ``holder_mean`` replaced, or
    None where its power sum is not a normal float."""
    arr = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        if p == 0.0:
            return float(np.exp(np.mean(np.log(arr))))
        m = float(arr.max()) if p > 0 else float(arr.min())
        mean = np.mean((arr / m) ** p)
        if not _normal(mean):
            return None
        return m * float(mean ** (1.0 / p))


def _numpy_gini(p, q, x):
    """The numpy implementation the plain-float ``gini_mean`` replaced, or
    None where one of its power sums is not a normal float."""
    arr = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        if p == q:
            wp = arr ** p
            if not _normal(np.sum(wp)):
                return None
            return float(np.exp(np.sum(wp * np.log(arr)) / np.sum(wp)))
        if p < q:
            p, q = q, p
        m = float(arr.max())
        scaled = arr / m
        ratio = np.sum(scaled ** p) / np.sum(scaled ** q)
        if not _normal(ratio):
            return None
        return m * float(ratio ** (1.0 / (p - q)))


def _normal(v) -> bool:
    return sys.float_info.min <= v <= sys.float_info.max


# Exponents come from [-50, 50] with 0 and p = q drawn on purpose, data from
# [0.1, 10] times 1e-8, 1 or 1e8.
EXPONENT = st.one_of(st.just(0.0), st.floats(-50.0, 50.0))
CLOSED_FORM_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def closed_form_inputs(draw):
    n = draw(st.integers(1, 8))
    scale = draw(st.sampled_from([1e-8, 1.0, 1e8]))
    x = tuple(scale * v for v in draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    p = draw(EXPONENT)
    q = draw(st.one_of(st.just(p), EXPONENT))
    return p, q, x


class TestClosedFormsAgainstNumpy:
    """``holder_mean`` and ``gini_mean`` are means, and agree with the numpy
    implementation they replaced wherever its power sums are normal floats
    and its value is in the hull.

    The bound is 4 ulp (relative) times the condition number of the form
    with respect to the rounding of its sums: 1/|p| (Hölder) or 1/|p - q|
    (Gini) where these exceed 1, since an error in the power sum is taken to
    that root; and max |log x_i| for the geometric mean and the Gini limit,
    since they exponentiate a mean of logs.  numpy's vectorized pow and exp
    differ from libm's by about an ulp, so near p = 0 or p = q the two sides
    cannot agree more closely than that condition number allows.
    """

    @staticmethod
    def _check(y, ref, x, kappa):
        assert min(x) <= y <= max(x)
        if ref is not None and min(x) <= ref <= max(x):
            assert abs(y - ref) <= 4.0 * kappa * sys.float_info.epsilon * ref

    @CLOSED_FORM_SETTINGS
    @given(closed_form_inputs())
    def test_holder_mean(self, inputs):
        p, _, x = inputs
        kappa = max(1.0, 1.0 / abs(p)) if p else max(1.0, *(abs(math.log(v)) for v in x))
        self._check(holder_mean(p, x), _numpy_holder(p, x), x, kappa)

    @CLOSED_FORM_SETTINGS
    @given(closed_form_inputs())
    def test_gini_mean(self, inputs):
        p, q, x = inputs
        if p != q:
            kappa = max(1.0, 1.0 / abs(p - q))
        else:
            kappa = max(1.0, *(abs(math.log(v)) for v in x))
        self._check(gini_mean(p, q, x), _numpy_gini(p, q, x), x, kappa)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(min_value=5e-324, max_value=sys.float_info.max),
                    min_size=1, max_size=6),
           st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_input_gives_a_value_in_the_hull(self, x, p, q):
        for y in (holder_mean(p, x), gini_mean(p, q, x), gini_mean(p, p, x)):
            assert min(x) <= y <= max(x)


# Exponent gaps from 0 (the Gini limit) to 3, on both sides of the small-gap
# bound 0.5; data m 2^e with m in [1, 2) and e from a window of [-1074,
# 1023], so that they sit in clusters as well as across the whole float
# range.
GAPS = (0.0, 1e-300, 1e-12, 1e-3, 0.4, 0.6, 3.0)
WIDE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
# One subnormal and 99 values near the float max: log(G / min x) is about
# 1440, and e^(1440 / 2) overflows.
SPAN_ALL = (5e-324,) + (1.7e308,) * 99


@st.composite
def wide_data(draw):
    n = draw(st.sampled_from((2, 3, 100)))
    lo = draw(st.integers(-1074, 1023))
    hi = draw(st.integers(lo, 1023))
    mantissas = draw(st.lists(st.floats(1.0, 2.0, exclude_max=True), min_size=n, max_size=n))
    exponents = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    return tuple(math.ldexp(m, e) for m, e in zip(mantissas, exponents))


@st.composite
def holder_inputs(draw):
    return draw(st.sampled_from(GAPS[1:])) * draw(st.sampled_from((1.0, -1.0))), draw(wide_data())


@st.composite
def gini_inputs(draw):
    q = draw(st.one_of(st.sampled_from((0.0, -1.0, 1.0)), st.floats(-3.0, 3.0)))
    return q + draw(st.sampled_from(GAPS)), q, draw(wide_data())


class TestClosedFormsAgainstMpmath:
    """``holder_mean`` and ``gini_mean`` return a value on any positive
    data, within 1e-12 of mpmath (relative), or within 4 units of the
    smallest subnormal 2^-1074 where the mean is that small."""

    @staticmethod
    def _check(y, ref):
        assert y == pytest.approx(ref, rel=1e-12, abs=4.0 * 2.0 ** -1074)

    @WIDE_SETTINGS
    @given(holder_inputs())
    @example((-1e-5, SPAN_ALL))
    def test_holder_mean(self, inputs):
        p, x = inputs
        self._check(holder_mean(p, x), _mp_gini(p, 0.0, x))

    @WIDE_SETTINGS
    @given(gini_inputs())
    @example((-1e-4, -2e-4, SPAN_ALL))
    # Data spanning ~1e480 with a gap of ~1e-3: the weights sit on one
    # element, and the mean is that element to the float, while p log x
    # reaches ~600 and an error of 1e-13 there is divided by the gap.
    @example((1.079199254442797, 1.0777925542456153,
              (4.217281962297645e-223, 4.2680216398376415e+258)))
    @example((-2.6242674804094333, -2.6265004570325643, (0.0485, 3.41e172, 1.47e-184)))
    def test_gini_mean(self, inputs):
        p, q, x = inputs
        self._check(gini_mean(p, q, x), _mp_gini(p, q, x))


class TestAverages:
    def test_unit_point_average_is_np_mean_bitwise(self):
        pts = [np.array([-0.0, 0.1, 1e-300]), np.array([-0.0, 0.2, 3.0]),
               np.array([-0.0, 0.7, -2.5])]
        out = point_average(pts)
        assert out.tobytes() == np.mean(np.stack(pts), axis=0).tobytes()

    def test_weighted_averages_sum_in_order(self):
        xs, ws = [0.1, 0.2, 0.7], [3.0, 1.0, 2.0]
        assert average(xs, ws) == math.fsum([w * v for w, v in zip(ws, xs)]) / 6.0
        acc = np.zeros(2)
        for w, v in zip(ws, xs):
            acc = acc + w * np.array([v, -v])
        assert point_average([np.array([v, -v]) for v in xs], ws).tobytes() == (
            acc / 6.0).tobytes()


class TestWeightedArithMean:
    def test_unit_weights(self):
        w = [constant_weight(1.0)] * 3
        assert weighted_arith_mean(w, (1.0, 2.0, 3.0)) == pytest.approx(2.0)

    def test_point_entries(self):
        w = [constant_weight(3.0), constant_weight(1.0)]
        out = weighted_arith_mean(w, [(0.0, 0.0), (4.0, 4.0)])
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_functional_weights_match_gini(self):
        w = [power_weight(1.0)] * 2
        assert weighted_arith_mean(w, (1.0, 3.0)) == pytest.approx(2.5)

    def test_nonpositive_weight_rejected(self):
        w = [lambda u: 0.0, lambda u: 1.0]
        with pytest.raises(InvalidArgumentError):
            weighted_arith_mean(w, (1.0, 2.0))


# Expression generators on the open half-line, with their exact inverses.
OPEN_GENERATORS = {"log(u)": math.exp, "u^0.3": lambda t: t ** (1.0 / 0.3)}


@functools.lru_cache(maxsize=None)
def open_generator(text: str) -> GeneratorFn:
    return build_generator(text, POSITIVE_REALS)


class TestGeneratorFn:
    def test_inverse_roundtrip_validation(self):
        with pytest.raises(InvalidArgumentError):
            GeneratorFn(eval=lambda u: u ** 3, inverse=lambda t: t,
                        domain=Interval(0.5, 2.0))

    def test_monotonicity_validation(self):
        with pytest.raises(InvalidArgumentError):
            GeneratorFn(eval=lambda u: -u, inverse=lambda t: -t, domain=REALS)

    def test_numeric_inverse_matches_analytic(self):
        dom = POSITIVE_REALS
        inv = numeric_inverse(lambda u: u ** 3, dom)
        for t in (0.001, 1.0, 27.0, 12345.0):
            assert inv(t) == pytest.approx(t ** (1 / 3), rel=1e-9)

    @pytest.mark.parametrize("fn,domain,target,side", [
        # The bracket end reaches an open finite endpoint.
        (lambda u: u, Interval(1.0, 3.0, lo_open=True), 0.5, "below"),
        (lambda u: u, Interval(1.0, 3.0, hi_open=True), 4.0, "above"),
        # It stops at a closed one once the end no longer moves.
        (lambda u: u, Interval(1.0, 3.0), 0.5, "below"),
        (lambda u: u, Interval(1.0, 3.0), 4.0, "above"),
        # It doubles its steps toward an infinite one, under a bounded range.
        (math.exp, REALS, -1.0, "below"),
        (lambda u: -math.exp(-u), REALS, 1.0, "above"),
    ], ids=["open-lo", "open-hi", "closed-lo", "closed-hi", "infinite-lo", "infinite-hi"])
    def test_numeric_inverse_rejects_targets_outside_the_range(self, fn, domain, target, side):
        inv = numeric_inverse(fn, domain)
        with pytest.raises(DomainError, match=rf"^target {target} {side} the generator's range$"):
            inv(target)

    @pytest.mark.parametrize("domain,target,most", [
        # At a closed endpoint the end cannot move: fn at the two window
        # ends, then the error (the end was re-evaluated 256 times before).
        (Interval(1.0, 3.0), 0.5, 3),
        (Interval(1.0, 3.0), 4.0, 3),
        # Toward an open one the end halves its distance until it lands on
        # the endpoint, as before.
        (Interval(1.0, 3.0, lo_open=True), 0.5, 35),
        (Interval(1.0, 3.0, hi_open=True), 4.0, 34),
    ], ids=["closed-lo", "closed-hi", "open-lo", "open-hi"])
    def test_bracket_expansion_stops_where_the_end_cannot_move(self, domain, target, most):
        calls = []

        def fn(u):
            calls.append(u)
            return u

        with pytest.raises(DomainError):
            numeric_inverse(fn, domain)(target)
        assert len(calls) <= most

    @pytest.mark.parametrize("text,target", [("log(u)", 300.0), ("log(u)", 700.0),
                                             ("u^0.3", 1e30)])
    def test_bracket_expansion_reaches_the_top_of_the_float_range(self, text, target):
        # A cap of 256 doublings stopped the bracket end near 9e77 (log
        # 179.5), short of the inverses 1.9e130, 1e304 and 1e100.
        exact = OPEN_GENERATORS[text](target)
        assert abs(open_generator(text).inverse(target) - exact) <= 1e-10 * exact

    def test_bracket_expansion_stops_where_the_end_overflows(self):
        # exp(710) is above the largest float.
        with pytest.raises(DomainError, match=r"^target 710 above the generator's range$"):
            open_generator("log(u)").inverse(710)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(OPEN_GENERATORS)), st.floats(-12.0, 12.0))
    def test_open_endpoint_targets_round_trip(self, text, e):
        # Data from 1e-12 to 1e12 on (0, inf): targets near both ends of the
        # generator's range, inverted by numeric_inverse, at the tolerance
        # GeneratorFn checks round trips with.
        g, exact_inverse = open_generator(text), OPEN_GENERATORS[text]
        u = 10.0 ** e
        back = g.inverse(g.eval(u))
        assert 0.0 < back < math.inf
        assert abs(back - u) <= 1e-10 * (1.0 + u)
        x = (u, 3.0 * u)
        y = quasi_arithmetic_mean(g, x)
        exact = exact_inverse(math.fsum(g.eval(v) for v in x) / 2.0)
        assert u <= y <= 3.0 * u
        assert abs(y - exact) <= 1e-10 * (1.0 + exact)

    def test_power_generator_requires_positive_exponent(self):
        with pytest.raises(InvalidArgumentError):
            power_generator(-1.0)


class TestOracleEquivalence:
    """The root-finding route must agree with the closed forms."""

    def test_bajraktarevic_oracle(self):
        rng = np.random.default_rng(17)
        dom = Interval(0.1, 10.0)
        pool = [
            identity_generator(dom),
            power_generator(2.0, dom),
            power_generator(0.5, dom),
            GeneratorFn(eval=math.log, inverse=math.exp, domain=dom, validate=False),
        ]
        for _ in range(60):
            n = int(rng.integers(2, 6))
            f = pool[int(rng.integers(len(pool)))]
            consts = rng.uniform(0.5, 3.0, n)
            ws = [constant_weight(float(c), dom) for c in consts]
            devs = DeviationTuple(tuple(
                make_bajraktarevic_deviation(f, w) for w in ws
            ))
            x = tuple(rng.uniform(0.2, 8.0, n))
            solved = deviation_mean(devs, x).value
            closed = bajraktarevic_mean(f, ws, x)
            assert solved == pytest.approx(closed, rel=1e-9, abs=1e-9)

    def test_matkowski_oracle(self):
        rng = np.random.default_rng(23)
        dom = Interval(0.1, 10.0)
        pool = [
            identity_generator(dom),
            power_generator(3.0, dom),
            GeneratorFn(eval=math.log, inverse=math.exp, domain=dom, validate=False),
            exp_gen_on(dom),
        ]
        one = constant_weight(1.0, dom)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            fs = [pool[int(rng.integers(len(pool)))] for _ in range(n)]
            devs = DeviationTuple(tuple(
                make_bajraktarevic_deviation(f, one) for f in fs
            ))
            x = tuple(rng.uniform(0.2, 8.0, n))
            solved = deviation_mean(devs, x).value
            closed = matkowski_mean(fs, x)
            assert solved == pytest.approx(closed, rel=1e-9, abs=1e-9)

    def test_reflexivity_of_family_evaluators(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            u = float(rng.uniform(0.3, 5.0))
            n = int(rng.integers(2, 6))
            x = (u,) * n
            assert holder_mean(rng.uniform(-3, 3), x) == pytest.approx(u, abs=1e-12)
            assert gini_mean(rng.uniform(-2, 2), rng.uniform(-2, 2), x) == pytest.approx(u, abs=1e-12)
            w = [constant_weight(float(c)) for c in rng.uniform(0.5, 2.0, n)]
            assert weighted_arith_mean(w, x) == pytest.approx(u, abs=1e-12)


def exp_gen_on(dom: Interval) -> GeneratorFn:
    return GeneratorFn(eval=math.exp, inverse=math.log, domain=dom, validate=False)


class TestIntegralPotentialOracle:
    """Quadrature of a deviation yields a potential whose derivative in the
    second slot recovers the negated deviation (finite-difference check)."""

    def test_quadrature_potential_derivative(self):
        rng = np.random.default_rng(31)
        dev = gini_21_deviation()

        def F(u, v):
            value, _ = quad(lambda t: dev(u, t), u, v)
            return -value

        for _ in range(10):
            u = float(rng.uniform(0.5, 3.0))
            v = float(rng.uniform(0.5, 3.0))
            h = 1e-5
            fd = (F(u, v + h) - F(u, v - h)) / (2 * h)
            assert fd == pytest.approx(-dev(u, v), abs=1e-6)


# The mean property and reflexivity of every scalar kind, each checked by
# ``check_mean_function`` at its own tolerances.
MEAN_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
SCALAR_KINDS = [k for k in KINDS if k not in _VECTOR_KINDS]
GENERATORS = ["log", "u", "exp", "u^3", "sqrt(u)"]
WEIGHTS = [1.0, 2.5, "u", "1 + u^2", "exp(-u)"]
DEVIATIONS = ["u - v", "u*(u - v)", "log(u) - log(v)", "u^2 - v^2", "exp(u) - exp(v)"]
POSITIVE_DOMAIN = [0.05, 30.0]


def _entries(pool, n):
    return st.lists(st.sampled_from(pool), min_size=n, max_size=n)


def scalar_params(kind: str, n: int):
    exponent = st.floats(-4.0, 4.0)
    generator = st.sampled_from(GENERATORS)
    domain = st.just(POSITIVE_DOMAIN)
    return {
        "arithmetic": st.fixed_dictionaries({}),
        "weighted-arithmetic": st.fixed_dictionaries({"weights": _entries(WEIGHTS, n),
                                                      "domain": domain}),
        "holder": st.fixed_dictionaries({"p": exponent}),
        "gini": st.fixed_dictionaries({"p": exponent, "q": exponent}),
        "quasi-arithmetic": st.fixed_dictionaries({"f": generator, "domain": domain}),
        "bajraktarevic": st.fixed_dictionaries({"f": generator, "weights": _entries(WEIGHTS, n),
                                                "domain": domain}),
        "matkowski": st.fixed_dictionaries({"fs": _entries(GENERATORS[1:], n),
                                            "domain": domain}),
        "deviation-custom": st.fixed_dictionaries({"exprs": _entries(DEVIATIONS, n),
                                                   "domain": domain}),
    }[kind]


def _log_uniform(rng) -> float:
    return float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))


class TestMeanProperty:
    @pytest.mark.parametrize("kind", SCALAR_KINDS)
    @MEAN_SETTINGS
    @given(data=st.data())
    def test_built_scalar_means_are_means(self, kind, data):
        n = data.draw(st.integers(2, 5))
        params = data.draw(scalar_params(kind, n))
        M = build_mean(MeanDescriptor(kind=kind, arity=n, params=params))
        check_mean_function(M, _log_uniform, samples=8, seed=data.draw(st.integers(0, 2**16)))

    @MEAN_SETTINGS
    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from(range(4)), min_size=n, max_size=n),
        st.lists(st.sampled_from(range(3)), min_size=n, max_size=n))),
        st.integers(0, 2**16))
    def test_summed_bajraktarevic_deviations_are_means(self, families, seed):
        dom = Interval(0.05, 30.0)
        generators = [identity_generator(dom), power_generator(0.5, dom),
                      GeneratorFn(eval=math.log, inverse=math.exp, domain=dom,
                                  validate=False), exp_gen_on(dom)]
        weights = [constant_weight(2.5, dom), power_weight(1.0, dom), power_weight(-2.0, dom)]
        fs, ws = families
        devs = [make_bajraktarevic_deviation(generators[i], weights[j])
                for i, j in zip(fs, ws)]
        check_mean_function(deviation_mean_fn(devs), _log_uniform, samples=8, seed=seed)
