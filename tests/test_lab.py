import json
import math
from dataclasses import replace

import numpy as np
import pytest

from meanreduce.core import Injection, SolverConfig
from meanreduce.descriptors import (
    MeanDescriptor,
    arithmetic_mean_fn,
    bajraktarevic_mean_fn,
    build_mean,
    gini_mean_fn,
    holder_mean_fn,
    quasi_arithmetic_mean_fn,
    weighted_arithmetic_mean_fn,
)
from meanreduce.errors import (
    DomainError,
    InvalidArgumentError,
    InvalidSamplerError,
    NoConvergenceError,
    ReductionMismatchError,
)
from meanreduce.lab import (
    BoxSampler,
    ConvexityCase,
    CounterexampleReport,
    FuzzCase,
    HolderMinkowskiCase,
    check_convexity,
    check_holder_minkowski,
    check_reduced_convexity,
    combiner,
    compare_means,
    draw_witnesses,
    fuzz_suite,
    _lift,
    _search,
    _value,
)
from meanreduce.reduction import MeanFn, fixed_point_mean_fn, reduced_mean_fn
from meanreduce.suites import REDUCTION_CFG


def square(u):
    return float(u) ** 2


class TestBoxSampler:
    def test_scalar_draws_in_box(self):
        s = BoxSampler(low=-2.0, high=3.0)
        rng = np.random.default_rng(1)
        for (drawn,) in draw_witnesses((s,), rng, 50, 1):
            assert -2.0 <= drawn[0] <= 3.0

    def test_log_uniform_needs_positive_box(self):
        with pytest.raises(InvalidArgumentError):
            BoxSampler(low=-1.0, high=1.0, log_uniform=True)

    def test_needs_low_below_high(self):
        with pytest.raises(InvalidArgumentError, match="^sampler needs low < high$"):
            BoxSampler(low=1.0, high=(2.0, 1.0), dim=2)

    def test_vector_draws(self):
        s = BoxSampler(low=0.0, high=1.0, dim=3)
        rng = np.random.default_rng(2)
        (drawn,) = next(draw_witnesses((s,), rng, 1, 1))
        assert drawn[0].shape == (3,)


def _per_entry_draw(sampler, rng):
    """One tuple entry as drawn before tuples were drawn in blocks: the
    bounds rebuilt and one ``rng.uniform`` call per scalar or point."""
    lows = np.atleast_1d(np.asarray(sampler.low, dtype=float))
    highs = np.atleast_1d(np.asarray(sampler.high, dtype=float))
    if sampler.dim is not None:
        lows = np.broadcast_to(lows, (sampler.dim,))
        highs = np.broadcast_to(highs, (sampler.dim,))
    if sampler.log_uniform:
        value = np.exp(rng.uniform(np.log(lows), np.log(highs)))
    else:
        value = rng.uniform(lows, highs)
    return float(value[0]) if sampler.dim is None else value


STREAM_SAMPLERS = [
    BoxSampler(low=-2.0, high=3.0),
    BoxSampler(low=0.1, high=4.0, log_uniform=True),
    BoxSampler(low=-1.0, high=(0.5, 2.0, 4.0), dim=3),
    BoxSampler(low=(0.2, 0.1, 1.0), high=4.0, dim=3, log_uniform=True),
]
# Their test ids: each box as a JSON record, with its dim.
STREAM_IDS = ["{'low': -2.0, 'high': 3.0}", "{'low': 0.1, 'high': 4.0, 'log_uniform': True}",
              "{'low': -1.0, 'high': [0.5, 2.0, 4.0], 'dim': 3}",
              "{'low': [0.2, 0.1, 1.0], 'high': 4.0, 'dim': 3, 'log_uniform': True}"]


class TestBoxSamplerStream:
    """A block draw consumes the Generator exactly as sequential draws do, so
    every sampled tuple, witness and verdict is fixed by the seed alone."""

    @pytest.mark.parametrize("sampler", STREAM_SAMPLERS, ids=STREAM_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 1001])
    def test_draw_tuple_equals_sequential_draws(self, sampler, seed):
        # One sampler, one trial: the drawn count-tuple is the count
        # per-entry draws.
        for count in (1, 2, 3, 6):
            block_rng, entry_rng = (np.random.default_rng(seed) for _ in range(2))
            (block,) = next(draw_witnesses((sampler,), block_rng, 1, count))
            entries = tuple(_per_entry_draw(sampler, entry_rng) for _ in range(count))
            assert len(block) == count
            assert np.asarray(block).tobytes() == np.asarray(entries).tobytes()
            assert block_rng.bit_generator.state == entry_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("trials", [1, 5, 300])
    def test_joint_blocks_equal_per_trial_draws(self, seed, trials):
        # Several samplers, scalar and point, uniform and log-uniform: one
        # block per 256 trials, in the order of per-trial draws: trial, then
        # sampler, then entry.
        for count in (1, 3):
            block_rng, entry_rng = (np.random.default_rng(seed) for _ in range(2))
            witnesses = list(draw_witnesses(STREAM_SAMPLERS, block_rng, trials, count))
            assert len(witnesses) == trials
            for witness in witnesses:
                for sampler, drawn in zip(STREAM_SAMPLERS, witness):
                    entries = tuple(_per_entry_draw(sampler, entry_rng) for _ in range(count))
                    assert np.asarray(drawn).tobytes() == np.asarray(entries).tobytes()
            assert block_rng.bit_generator.state == entry_rng.bit_generator.state

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sampler", [
        BoxSampler(low=-1.7e308, high=1.7e308),
        BoxSampler(low=(-1.7e308, -1.0), high=(1.7e308, 2.0), dim=2),
    ], ids=["scalar", "point"])
    def test_boxes_wider_than_the_float_range(self, sampler):
        # hi - lo overflows, on which numpy's uniform raises OverflowError:
        # such entries are 2 uniform(lo / 2, hi / 2), the same values, and
        # an entry of finite width draws as before.
        lows, highs = sampler.entry_bounds(3)
        wide = lows == -1.7e308
        block_rng, entry_rng = (np.random.default_rng(7) for _ in range(2))
        (drawn,) = next(draw_witnesses((sampler,), block_rng, 1, 3))
        half = entry_rng.uniform(np.where(wide, lows / 2, lows), np.where(wide, highs / 2, highs))
        assert np.asarray(drawn).ravel().tobytes() == np.where(wide, 2 * half, half).tobytes()
        assert block_rng.bit_generator.state == entry_rng.bit_generator.state

    def test_scalar_entries_are_floats_and_points_are_arrays(self):
        rng = np.random.default_rng(3)
        scalars, points = next(draw_witnesses(STREAM_SAMPLERS[1::2], rng, 1, 4))
        assert all(type(v) is float for v in scalars)
        assert all(v.shape == (3,) for v in points)

    def test_scalar_sampler_needs_scalar_bounds(self):
        with pytest.raises(InvalidArgumentError):
            BoxSampler(low=(0.0, 1.0), high=2.0)

    @pytest.mark.parametrize("low, high", [(0.0, math.inf), (-math.inf, (0.0, 1.0))])
    def test_sampler_needs_finite_bounds(self, low, high):
        # numpy's uniform raised OverflowError on an infinite width.
        with pytest.raises(InvalidArgumentError, match="finite bounds"):
            BoxSampler(low=low, high=high, dim=None if isinstance(high, float) else 2)


_BOX = BoxSampler(low=0.2, high=4.0)
_A2, _A3, _P2 = arithmetic_mean_fn(2), arithmetic_mean_fn(3), arithmetic_mean_fn(2, dim=2)
_SUM, _ONE_OF_2, _ONE_OF_3 = combiner("sum"), Injection.of([1], n=2), Injection.of([1], n=3)


@pytest.mark.parametrize("build, message", [
    (lambda: ConvexityCase(M=_P2, N=_P2, f=square, sampler=_BOX),
     "the range-side mean must be scalar"),
    (lambda: HolderMinkowskiCase(N_list=(_A2,), M=_A2, f=_SUM, chi=_ONE_OF_2,
                                 samplers=(_BOX, _BOX)),
     "need one mean family and sampler per slot"),
    (lambda: HolderMinkowskiCase(N_list=(_A2, _A3), M=_A2, f=_SUM, chi=_ONE_OF_2,
                                 samplers=(_BOX, _BOX)),
     "all mean families must share the arity of M"),
    (lambda: HolderMinkowskiCase(N_list=(_P2,), M=_P2, f=_SUM, chi=_ONE_OF_2, samplers=(_BOX,)),
     "the outer mean must be scalar"),
    (lambda: HolderMinkowskiCase(N_list=(_A2,), M=_A2, f=_SUM, chi=_ONE_OF_3, samplers=(_BOX,)),
     "injection does not match the case arity"),
    (lambda: compare_means(_A2, _A3, _ONE_OF_2, 1, 1e-9),
     "comparison needs two scalar means of one arity"),
    (lambda: compare_means(_P2, _P2, _ONE_OF_2, 1, 1e-9),
     "comparison needs two scalar means of one arity"),
    (lambda: compare_means(_A2, _A2, _ONE_OF_3, 1, 1e-9),
     "injection does not match the means' arity"),
], ids=["convexity-vector-range", "hm-sampler-count", "hm-arity", "hm-vector-outer",
        "hm-injection", "comparison-arity", "comparison-vector", "comparison-injection"])
def test_cases_refuse_means_that_do_not_fit(build, message):
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        build()


def test_a_numpy_form_of_integers_leaves_its_trials_to_the_scalar_sides():
    def floor(u):
        return float(math.floor(u))

    def floor_screened(u):
        return float(math.floor(u))

    floor_screened.batch = lambda u: np.floor(u).astype(np.int64)
    with pytest.raises(TypeError, match="^a numpy form returned int64$"):
        _lift(floor_screened.batch, np.array([0.5, 1.5]))
    reports = [check_convexity(ConvexityCase(M=_A2, N=_A2, f=f, sampler=BoxSampler(-4.0, 4.0)),
                               trials=60, tol=1e-9, seed=3).to_json()
               for f in (floor, floor_screened)]
    assert reports[0]["found"] and reports[0] == reports[1]


def test_a_report_writes_numpy_scalars_as_numbers():
    report = CounterexampleReport(found=True, trials=1, witness=(np.float32(0.5), np.int64(2)))
    assert report.to_json()["witness"] == [0.5, 2.0]


class TestConvexity:
    def test_jensen_square_passes(self):
        case = ConvexityCase(M=arithmetic_mean_fn(2), N=arithmetic_mean_fn(2),
                             f=square, sampler=BoxSampler(low=-4.0, high=4.0),
                             name="jensen-square")
        report = check_convexity(case, trials=200, tol=1e-9, seed=3)
        assert not report.found

    def test_exp_geometric_equality_case(self):
        case = ConvexityCase(M=arithmetic_mean_fn(2), N=holder_mean_fn(0.0, 2),
                             f=math.exp, sampler=BoxSampler(low=-2.0, high=2.0),
                             name="exp-geometric")
        report = check_convexity(case, trials=200, tol=1e-9, seed=4)
        assert not report.found

    def test_square_vs_harmonic_fails(self):
        case = ConvexityCase(M=arithmetic_mean_fn(2), N=holder_mean_fn(-1.0, 2),
                             f=square, sampler=BoxSampler(low=0.5, high=5.0),
                             name="square-harmonic")
        report = check_convexity(case, trials=300, tol=1e-9, seed=5)
        assert report.found
        # The recorded witness re-evaluates to a strict violation.
        lhs = square(case.M(report.witness))
        rhs = case.N(tuple(square(v) for v in report.witness))
        assert lhs > rhs + 1e-9

    def test_sampler_domain_mismatch_detected(self):
        case = ConvexityCase(M=holder_mean_fn(2.0, 2), N=arithmetic_mean_fn(2),
                             f=square, sampler=BoxSampler(low=-1.0, high=1.0), name="bad-sampler")
        with pytest.raises(InvalidSamplerError):
            check_convexity(case, trials=100, tol=1e-9, seed=6)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ConvexityCase(M=arithmetic_mean_fn(2), N=arithmetic_mean_fn(3),
                          f=square, sampler=BoxSampler())

    def test_a_mean_without_a_certificate_stops_the_search(self):
        # One step of the inner solve gives M((0.5, 4, 2)) = 1.81 for 2.89:
        # the search raises rather than compare uncertified values.
        M = build_mean(MeanDescriptor("deviation-custom", 3, {"exprs": ["u^3 - v^3"],
                                                              "domain": [0.1, 10.0]}),
                       SolverConfig(max_iter=1))
        case = ConvexityCase(M=M, N=arithmetic_mean_fn(3), f=square,
                             sampler=BoxSampler(low=0.1, high=10.0))
        with pytest.raises(NoConvergenceError, match="custom deviation mean did not converge"):
            check_convexity(case, trials=40, tol=1e-9, seed=3)


class TestReducedConvexity:
    def test_jensen_reduction_passes(self):
        case = ConvexityCase(M=arithmetic_mean_fn(3), N=arithmetic_mean_fn(3),
                             f=square, sampler=BoxSampler(low=-4.0, high=4.0), name="jensen-3")
        chi = Injection.of([1, 2], n=3)
        full = check_convexity(case, trials=60, tol=1e-9, seed=7)
        reduced = check_reduced_convexity(case, chi, trials=60, tol=1e-8, seed=7)
        assert not full.found and not reduced.found

    def test_bijection_matches_full_check(self):
        case = ConvexityCase(M=arithmetic_mean_fn(2), N=holder_mean_fn(-1.0, 2),
                             f=square, sampler=BoxSampler(low=0.5, high=5.0),
                             name="square-harmonic")
        chi = Injection.of([1, 2], n=2)
        full = check_convexity(case, trials=120, tol=1e-9, seed=8)
        reduced = check_reduced_convexity(case, chi, trials=120, tol=1e-9, seed=8)
        assert full.found and reduced.found

    def test_geometric_mean_range_side(self):
        # log-convexity: exp is (A, G)-convex; reductions stay 2-of-3.
        case = ConvexityCase(M=arithmetic_mean_fn(3),
                             N=quasi_arithmetic_mean_fn("log", 3),
                             f=math.exp, sampler=BoxSampler(low=-1.5, high=1.5),
                             name="exp-geometric-3")
        chi = Injection.of([1, 3], n=3)
        full = check_convexity(case, trials=40, tol=1e-9, seed=9)
        reduced = check_reduced_convexity(case, chi, trials=40, tol=1e-8, seed=9)
        assert not full.found and not reduced.found


class TestCompareMeans:
    def test_power_mean_order_passes_both(self):
        pair = compare_means(holder_mean_fn(1.0, 3), holder_mean_fn(2.0, 3),
                             Injection.of([1, 2], n=3), trials=120, tol=1e-9,
                             seed=10)
        assert not pair.full.found and not pair.reduced.found
        assert not pair.implication_violated

    def test_identical_means_gap_zero(self):
        M = holder_mean_fn(1.5, 3)
        pair = compare_means(M, holder_mean_fn(1.5, 3),
                             Injection.of([2, 3], n=3), trials=60, tol=1e-9,
                             seed=11)
        assert not pair.full.found and not pair.reduced.found

    def test_reversed_order_found(self):
        pair = compare_means(holder_mean_fn(2.0, 2), holder_mean_fn(1.0, 2),
                             Injection.of([1, 2], n=2), trials=120, tol=1e-9,
                             seed=12)
        assert pair.full.found
        lhs, rhs = pair.full.lhs, pair.full.rhs
        assert lhs > rhs + 1e-9


class FixedSampler:
    """Sampler stub that replays a preset tuple (its prefix for reductions):
    each entry is drawn from the one-point range [v, v]."""

    def __init__(self, values):
        self.values = tuple(values)

    def entry_bounds(self, count):
        assert count <= len(self.values)
        values = np.asarray(self.values[:count], dtype=float)
        return values, values

    def drawn(self, block, count):
        return block

    def tuples(self, block, count):
        return map(tuple, block.tolist())


class TestHolderMinkowski:
    def test_cauchy_schwarz_instance_values(self):
        case = HolderMinkowskiCase(
            N_list=(holder_mean_fn(2.0, 2), holder_mean_fn(2.0, 2)),
            M=arithmetic_mean_fn(2),
            f=combiner("product"),
            chi=Injection.of([1], n=2),
            samplers=(FixedSampler((1.0, 2.0)), FixedSampler((2.0, 1.0))),
            name="cauchy-schwarz",
        )
        report = check_holder_minkowski(case, trials=1, tol=1e-9, seed=13)
        # lhs = A(1*2, 2*1) = 2; rhs = sqrt(2.5) * sqrt(2.5) = 2.5
        assert not report.full.found
        # Reductions of one slot replay the single-slot tuple directly.

    def test_cauchy_schwarz_randomized(self):
        s = BoxSampler(low=0.2, high=4.0, log_uniform=True)
        case = HolderMinkowskiCase(
            N_list=(holder_mean_fn(2.0, 3), holder_mean_fn(2.0, 3)),
            M=arithmetic_mean_fn(3),
            f=combiner("product"),
            chi=Injection.of([1, 2], n=3),
            samplers=(s, s),
        )
        pair = check_holder_minkowski(case, trials=60, tol=1e-9, seed=14)
        assert not pair.full.found and not pair.reduced.found
        assert not pair.implication_violated

    def test_minkowski_randomized(self):
        s = BoxSampler(low=0.2, high=4.0, log_uniform=True)
        case = HolderMinkowskiCase(
            N_list=(holder_mean_fn(2.0, 3), holder_mean_fn(2.0, 3)),
            M=holder_mean_fn(2.0, 3),
            f=combiner("sum"),
            chi=Injection.of([2, 3], n=3),
            samplers=(s, s),
        )
        pair = check_holder_minkowski(case, trials=60, tol=1e-9, seed=15)
        assert not pair.full.found and not pair.reduced.found

    def test_single_slot_identity_is_equality(self):
        s = BoxSampler(low=0.2, high=4.0)
        M = holder_mean_fn(1.0, 3)
        case = HolderMinkowskiCase(
            N_list=(holder_mean_fn(1.0, 3),), M=M,
            f=lambda u: u, chi=Injection.of([1, 2], n=3), samplers=(s,),
        )
        pair = check_holder_minkowski(case, trials=40, tol=1e-9, seed=16)
        assert not pair.full.found and not pair.reduced.found

    def test_reversed_outer_mean_fails(self):
        s = BoxSampler(low=0.2, high=4.0, log_uniform=True)
        case = HolderMinkowskiCase(
            N_list=(holder_mean_fn(1.0, 2), holder_mean_fn(1.0, 2)),
            M=holder_mean_fn(2.0, 2),
            f=combiner("sum"),
            chi=Injection.of([1], n=2),
            samplers=(s, s),
            name="reversed-minkowski",
        )
        report = check_holder_minkowski(case, trials=120, tol=1e-9, seed=17)
        assert report.full.found

    def test_unknown_combiner_rejected(self):
        with pytest.raises(InvalidArgumentError):
            combiner("max")


class TestFuzzSuite:
    def _cases(self):
        pass_case = ConvexityCase(M=arithmetic_mean_fn(2), N=arithmetic_mean_fn(2),
                                  f=square, sampler=BoxSampler(low=-4.0, high=4.0),
                                  name="jensen")
        fail_case = ConvexityCase(M=arithmetic_mean_fn(2), N=holder_mean_fn(-1.0, 2),
                                  f=square, sampler=BoxSampler(low=0.5, high=5.0),
                                  name="square-harmonic")
        return [
            FuzzCase(name="jensen", kind="convexity",
                     runner=lambda seed, trials, c=pass_case:
                     check_convexity(c, trials, 1e-9, seed=seed).to_json()),
            FuzzCase(name="square-harmonic", kind="convexity",
                     runner=lambda seed, trials, c=fail_case:
                     check_convexity(c, trials, 1e-9, seed=seed).to_json()),
        ]

    def test_empty_suite(self):
        report = fuzz_suite([], seed=1, trials=10)
        assert report["cases"] == []
        assert report["counterexamples"] == 0

    def test_one_pass_one_fail(self):
        report = fuzz_suite(self._cases(), seed=21, trials=150)
        found = [c for c in report["cases"] if c.get("found")]
        assert len(found) == 1
        assert found[0]["case"] == "square-harmonic"

    def test_deterministic_bytes(self):
        a = json.dumps(fuzz_suite(self._cases(), seed=5, trials=80), sort_keys=True)
        b = json.dumps(fuzz_suite(self._cases(), seed=5, trials=80), sort_keys=True)
        assert a == b

    def test_errors_collected_not_raised(self):
        bad = FuzzCase(name="boom", kind="convexity",
                       runner=lambda seed, trials: (_ for _ in ()).throw(
                           InvalidSamplerError("out of domain")))
        report = fuzz_suite([bad], seed=0, trials=5)
        assert report["errors"] == 1
        assert "InvalidSamplerError" in report["cases"][0]["error"]


class TestSamplerBlame:
    def test_holds_checks_every_entry(self):
        box = BoxSampler(low=(0.0, -1.0), high=(1.0, 1.0), dim=2)
        assert box.holds((np.array([0.5, -1.0]), np.array([1.0, 0.0])))
        assert not box.holds((np.array([0.5, -1.0]), np.array([1.0, 1.5])))
        assert BoxSampler(low=0.1, high=4.0, log_uniform=True).holds((0.1, 4.0))
        assert not BoxSampler(low=0.1, high=4.0).holds((0.1, 4.5))

    def test_domain_error_inside_the_box_is_the_means(self):
        def overflow(xs):
            raise DomainError("overflowed")

        G = MeanFn(arity=2, eval=overflow, label="overflowing")
        with pytest.raises(DomainError, match=r"^overflowing at \(.*\): overflowed$"):
            compare_means(G, arithmetic_mean_fn(2), Injection.of([1], n=2), trials=5, tol=1e-9)

    def test_domain_error_outside_the_box_is_the_samplers(self):
        def below_one(xs):
            if min(xs) < 1.0:
                raise DomainError("below 1")
            return xs[0]

        M = MeanFn(arity=2, eval=below_one)
        sampler = BoxSampler(low=1.0, high=2.0)
        with pytest.raises(InvalidSamplerError, match=r"out-of-domain input \(0.5, 1.5\)"):
            _search([(None, iter([(1.5, 1.5), (0.5, 1.5)]))], lambda xs: (_value(M, xs), 2.0),
                    2, 1e-9, "case", sampler.holds)


def _reversed_slots(M):
    """M with a selection hook that picks chi's slots in reverse order."""
    return replace(M, select=lambda chi: M.select(
        Injection.of(tuple(reversed(chi.map)), n=chi.n)))


class TestFixedPointRecheck:
    # One weighted arithmetic mean twice, once as a Bajraktarevic mean with
    # the identity generator: the full checks tie, and a wrong selection
    # hook on one side makes the reduced search find a violation, which the
    # fixed-point recheck rejects.
    WEIGHTS = [1.0, 9.0, 1.0]
    CHI = Injection.of([1, 2], n=3)

    def means(self):
        return (_reversed_slots(weighted_arithmetic_mean_fn(self.WEIGHTS, 3)),
                bajraktarevic_mean_fn("u", self.WEIGHTS, 3))

    def test_comparison(self):
        G, E = self.means()
        with pytest.raises(ReductionMismatchError, match=r"at \(.*\) the lhs is .* by selection"):
            compare_means(G, E, self.CHI, trials=40, tol=1e-9, seed=3)

    def test_convexity(self):
        M, N = self.means()
        case = ConvexityCase(M=M, N=N, f=float, sampler=BoxSampler(low=0.5, high=4.0))
        assert not check_convexity(case, trials=40, tol=1e-9, seed=3).found
        with pytest.raises(ReductionMismatchError):
            check_reduced_convexity(case, self.CHI, trials=40, tol=1e-9, seed=3)

    def test_holder_minkowski(self):
        wrong, right = self.means()
        case = HolderMinkowskiCase(N_list=(right,), M=wrong, f=combiner("sum"),
                                   chi=self.CHI, samplers=(BoxSampler(low=0.5, high=4.0),))
        with pytest.raises(ReductionMismatchError):
            check_holder_minkowski(case, trials=40, tol=1e-9, seed=3)

    def test_a_right_hook_reports_the_fixed_point_sides(self):
        # The lehmer-le-arith-reversed case of the failing suite, whose
        # reduced lhs differs between the routes in the 11th digit: the
        # witness is found by selection, its sides are the fixed point's.
        G, E = gini_mean_fn(2.0, 1.0, 3), gini_mean_fn(1.0, 0.0, 3)
        pair = compare_means(G, E, self.CHI, trials=200, tol=1e-9,
                             sampler=BoxSampler(low=0.2, high=4.0, log_uniform=True), seed=11,
                             cfg=REDUCTION_CFG, reduced_tol=1e-8)
        assert pair.reduced.found
        w = pair.reduced.witness
        sides = (pair.reduced.lhs, pair.reduced.rhs)
        assert sides == (fixed_point_mean_fn(G, self.CHI, REDUCTION_CFG)(w),
                         fixed_point_mean_fn(E, self.CHI, REDUCTION_CFG)(w))
        assert sides[0] != reduced_mean_fn(G, self.CHI)(w)
