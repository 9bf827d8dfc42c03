"""Property tests of the shared root finder ``core.bracketed_root``:
Chandrupatla's step (regula falsi first, then inverse quadratic
interpolation or bisection) inside ITP's projection, which keeps every
search within one step of bisection's count."""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from meanreduce.core import ITP_N0, REALS, Injection, Interval, bracketed_root, wide_fsum
from meanreduce.descriptors import arithmetic_mean_fn
from meanreduce.errors import DomainError, InvalidDeviationError
from meanreduce.reduction import MeanFn, reduce_scalar
from meanreduce.scalar import DeviationTuple, ScalarDeviation, deviation_mean

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

# Brackets [lo, lo + span] at three magnitudes; the width tolerance is a
# fraction of the span, kept well above float resolution at every scale.
scales = st.sampled_from([1e-8, 1.0, 1e8])
brackets = st.tuples(scales, st.floats(-1.0, 1.0), st.floats(0.5, 2.0),
                     st.integers(1, 12)).map(
    lambda t: (t[0] * t[1], t[0] * t[2], t[0] * t[2] * 10.0 ** -t[3]))


def smooth_shape(kind: str, p: float):
    """A strictly increasing continuous function on [0, 1]."""
    if kind == "cubic":
        return lambda t: (t - p) ** 3 + 1e-3 * t
    if kind == "exp":
        return lambda t: math.exp(8.0 * p * t)
    if kind == "atan":
        return lambda t: math.atan(50.0 * (t - p)) + 0.01 * t
    return lambda t: t + p * t * t


monotone = st.tuples(st.sampled_from(["cubic", "exp", "atan", "quadratic"]),
                     st.floats(0.05, 0.95), st.floats(0.01, 0.99), st.booleans())

steps = st.tuples(st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(0.1, 5.0)),
                           min_size=1, max_size=6),
                  st.floats(0.01, 0.99), st.booleans())


def checked_search(f, lo, span, width_tol, root=None, done=None):
    """Run bracketed_root and assert the bracket invariant on every step."""
    a, b = lo, lo + span
    fa, fb = f(a), f(b)
    assert fa * fb < 0
    seen = []

    def check(x, fx, a, fa, b, fb):
        assert a < x < b
        assert fa * fb < 0
        assert fa == f(a) and fb == f(b)
        if root is not None:
            assert a <= root <= b
        seen.append(b - a)

    result = bracketed_root(f, a, b, fa, fb, width_tol, 10_000, check=check, done=done)
    bound = math.ceil(math.log2(span / width_tol)) + ITP_N0
    assert result.converged
    assert result.iterations == len(seen) <= bound
    if result.fx != 0.0 and done is None:
        assert result.b - result.a <= width_tol
        assert result.a <= result.x <= result.b
    return result


@SETTINGS
@given(brackets, monotone)
def test_monotone_continuous_functions(bracket, shape):
    lo, span, width_tol = bracket
    kind, p, t_root, increasing = shape
    g = smooth_shape(kind, p)
    sign = 1.0 if increasing else -1.0
    level = g(t_root)

    def f(x):
        return sign * (g((x - lo) / span) - level)

    result = checked_search(f, lo, span, width_tol, root=lo + t_root * span)
    assert abs(result.x - (lo + t_root * span)) <= width_tol + 4e-16 * (abs(lo) + span)


@SETTINGS
@given(brackets, steps)
def test_monotone_step_functions(bracket, shape):
    jumps, share, increasing = shape
    lo, span, width_tol = bracket
    total = sum(w for _, w in jumps)
    sign = 1.0 if increasing else -1.0

    def f(x):
        t = (x - lo) / span
        return sign * (sum(w for c, w in jumps if t >= c) - share * total)

    checked_search(f, lo, span, width_tol)


def test_smooth_section_beats_bisection():
    # A smooth, nonlinear section: bisection needs ~34 steps for this width.
    result = checked_search(lambda x: math.exp(x) - 3.0, 0.0, 2.0, 1e-10)
    assert result.iterations <= 7


@SETTINGS
@given(brackets, st.floats(0.01, 0.99), st.floats(-3.0, 3.0), st.booleans())
def test_affine_section_takes_at_most_two_steps(bracket, t_root, log_slope, increasing):
    # Regula falsi lands on the root up to rounding, unless ITP's projection
    # pulls the first estimate in from a root near an end; then the
    # interpolation finishes.  The stop is on the residual, as in
    # deviation_mean and reduce_scalar: a width stop needs a second probe on
    # the root's far side, which the projection can refuse.
    lo, span, width_tol = bracket
    root = lo + t_root * span
    slope = math.copysign(10.0 ** log_slope, 1.0 if increasing else -1.0)

    def f(x):
        return slope * (x - root)

    tol = 1e-12 * abs(slope) * span
    result = checked_search(f, lo, span, width_tol, root=root,
                            done=lambda x, fx, a, b: abs(fx) <= tol)
    assert result.iterations <= 2
    assert abs(result.x - root) <= max(width_tol, 1e-12 * span)


def test_affine_sections_of_the_callers_take_one_step():
    # Seven and eight steps under ITP's truncation.
    reduced = reduce_scalar(arithmetic_mean_fn(4), Injection.of([1, 2, 3], n=4), (1.0, 2.0, 4.0))
    assert reduced.certificate.converged
    assert reduced.certificate.iterations == 1
    assert reduced.reduced_value == pytest.approx(7.0 / 3.0, abs=1e-12)
    dev = ScalarDeviation(domain=REALS, eval=lambda u, v: u - v, label="arithmetic",
                          validate=False)
    report = deviation_mean(DeviationTuple((dev, dev, dev)), (1.0, 2.0, 4.0))
    assert report.converged
    assert report.iterations == 1
    assert report.value == pytest.approx(7.0 / 3.0, abs=1e-12)


@SETTINGS
@given(st.floats(-5.0, 5.0), st.floats(0.01, 10.0), st.floats(10.0, 100.0),
       st.sampled_from([1.0, -1.0]))
def test_non_monotone_section_still_raises(lo, spread, amplitude, hump_sign):
    hi = lo + spread

    def hump(u, v, lo=lo, spread=spread):
        return (u - v) + hump_sign * amplitude * spread * math.sin(math.pi * (v - lo) / spread)

    dev = ScalarDeviation(domain=Interval(lo - spread, hi + spread), eval=hump,
                          label="hump", validate=False)
    with pytest.raises(InvalidDeviationError):
        deviation_mean(DeviationTuple((dev, dev)), (lo, hi))


@SETTINGS
@given(st.floats(-10.0, 10.0), st.floats(1e-6, 1e6),
       st.floats(0.01, 0.99) | st.sampled_from([0.5, 0.25, 0.75, 0.375, 0.625]),
       st.floats(0.001, 1.0), st.floats(0.001, 1.0))
def test_jump_mean_still_flagged(lo, spread, at, up, down):
    # Cuts on dyadic points, where midpoint steps land, included: a jump
    # sitting exactly on a probe is caught by the final bracket's ends.
    cut = lo + at * spread
    high, low = cut + up * spread, cut - down * spread

    def jump(xs):
        return high if xs[2] < cut else low

    M = MeanFn(arity=3, eval=jump, label="jump")
    result = reduce_scalar(M, Injection.of([1, 2], n=3), (lo, lo + spread))
    assert result.continuity_suspect
    assert not result.certificate.converged


def test_jump_on_a_probed_point_is_flagged():
    # The first probe lands on the cut at 0.5 and every later one left of
    # it, so no two consecutive probes straddle the jump.
    M = MeanFn(arity=3, eval=lambda xs: 1.5 if xs[2] < 0.5 else -0.5, label="jump")
    result = reduce_scalar(M, Injection.of([1, 2], n=3), (0.0, 1.0))
    assert result.continuity_suspect
    assert not result.certificate.converged


def test_search_ends_at_float_resolution():
    # The zero sits between two adjacent floats and width_tol is below one
    # ulp: once the bracket holds no float strictly inside, the search stops
    # instead of spending its budget.
    r1 = 1e5 + 1e-3 / 3.0
    r2 = math.nextafter(r1, math.inf)

    def f(x):
        return (x - r1) + (x - r2)

    lo, hi = 1e5, 1e5 + 1e-3
    result = bracketed_root(f, lo, hi, f(lo), f(hi), 1e-20, 10_000)
    assert not result.converged
    assert result.iterations <= 100
    assert (result.a, result.b) == (r1, r2)
    assert result.x in (r1, r2)


def test_deviation_mean_stops_at_float_resolution():
    # rel_tol * span + abs_tol is below one ulp at 1e5, so the width
    # tolerance is never met: the search has to end at float resolution.
    dev = ScalarDeviation(domain=REALS, eval=lambda u, v: 3.0 * (u - v) + (u - v) ** 3,
                          label="cubic", validate=False)
    report = deviation_mean(DeviationTuple((dev, dev, dev)), (1e5, 1e5 + 1e-3, 1e5 + 3e-4))
    assert report.iterations <= 100
    assert not report.converged
    assert abs(report.value - (1e5 + 1.3e-3 / 3.0)) <= 1e-10


@pytest.mark.parametrize("root", [-3e307, 0.0, 1.5e308, 1.7e308])
def test_bracket_wider_than_the_float_range(root):
    # b - a overflows, and so does f near one end: the search bisects at
    # 0.5 a + 0.5 b until the width is a float, then goes on as usual.
    lo, hi = -sys.float_info.max, sys.float_info.max
    width_tol = 1e-10 * hi

    def f(x):
        return root - x

    result = bracketed_root(f, lo, hi, f(lo), f(hi), width_tol, 10_000)
    assert result.converged
    assert result.a <= root <= result.b and result.b - result.a <= width_tol
    # Bisection's count from the true width 2 max / width_tol, plus n_0.
    assert result.iterations <= math.ceil(math.log2(2e10)) + ITP_N0


@pytest.mark.parametrize("terms, expected", [
    ([1e308, 1e308, -1e308], 1e308),
    ([1e308, 1e308], math.inf),
    ([-1e308, -1e308, 1.0], -math.inf),
    ([1.0, 1e-17, -1.0], 1e-17),
    ([1e308, -1e308, 1e308, 5e307], 1.5e308),
])
def test_wide_fsum_beyond_the_float_range(terms, expected):
    # math.fsum raises OverflowError once a partial sum overflows.
    assert wide_fsum(terms) == expected


def test_wide_fsum_of_both_infinities_is_a_domain_error():
    # math.fsum raises a bare ValueError.
    with pytest.raises(DomainError, match="both infinities"):
        wide_fsum([math.inf, 1.0, -math.inf])
