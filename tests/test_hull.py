"""The two hull solves: a thin-simplex regression and property tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import root

from meanreduce import vector
from meanreduce.core import SolverConfig
from meanreduce.vector import (
    GenDeviation,
    PotentialFn,
    _project_simplex,
    barycentric_feasibility,
    gen_deviation_mean,
    inner_product_deviation,
    make_norm_sq_potential,
    make_potential_deviation,
    potential_mean,
    verify_vi,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def quadratic_potential(A: np.ndarray) -> PotentialFn:
    """F(u, v) = (v - u)' A (v - u) with A symmetric positive definite."""
    d = A.shape[0]
    return PotentialFn(dim=d,
                       eval=lambda u, v: float((v - u) @ A @ (v - u)),
                       grad_v=lambda u, v: 2.0 * A @ (np.asarray(v) - np.asarray(u)),
                       label="quadratic", validate=False)


def quartic_potential(c: float, d: int) -> PotentialFn:
    """F(u, v) = c |v - u|^4: strictly convex, not quadratic."""

    def grad(u, v):
        diff = np.asarray(v) - np.asarray(u)
        return 4.0 * c * float(diff @ diff) * diff

    return PotentialFn(dim=d, eval=lambda u, v: c * float((v - u) @ (v - u)) ** 2,
                       grad_v=grad, label="quartic", validate=False)


def thin_simplex_problem():
    """n = 5 points in R^4 squeezed to centred singular value 0.02 in one
    direction, one quartic and four quadratic potentials."""
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2.0, 2.0, (5, 4))
    centre = pts.mean(axis=0)
    U, S, Vt = np.linalg.svd(pts - centre, full_matrices=False)
    S[-1] = 0.02
    pts = centre + (U * S) @ Vt
    F = [quartic_potential(0.5, 4)]
    for _ in range(4):
        B = rng.uniform(-1.0, 1.0, (4, 4))
        F.append(quadratic_potential(B @ B.T + np.eye(4) * rng.uniform(0.5, 1.5)))
    return [p for p in pts], F


def test_thin_simplex_both_routes_converge_fast_and_agree():
    x, F = thin_simplex_problem()
    E = [make_potential_deviation(f) for f in F]
    # The premises: a thin hull, and g's unconstrained zero outside it, so
    # the mean sits on a face that lam's support has to find.
    centred = np.stack(x) - np.mean(x, axis=0)
    assert abs(np.linalg.svd(centred, compute_uv=False)[-1] - 0.02) < 1e-12

    def g(y):
        return sum(e.grad(p, y) for e, p in zip(E, x))

    free = root(g, np.mean(x, axis=0), tol=1e-13)
    assert free.success
    assert barycentric_feasibility(x, free.x)[1] > 0.1

    cfg = SolverConfig(max_iter=500)
    vi = gen_deviation_mean(E, x, cfg)
    pot = potential_mean(F, x, cfg)
    assert vi.converged and pot.converged
    assert float(np.linalg.norm(vi.value - pot.value)) <= 1e-8
    scale = 1.0 + max(float(np.linalg.norm(p)) for p in x)
    assert verify_vi(E, x, vi.value, 1e-10 * scale).ok
    assert min(vi.barycentric.weights) == 0.0


def test_twenty_points_both_routes_converge_and_agree():
    # n = 20 weights: the simplex projection well past the small tuples of
    # the other problems.
    rng = np.random.default_rng(20)
    x = [rng.uniform(-2.0, 2.0, 2) for _ in range(20)]
    F = []
    for i in range(20):
        if i % 3 == 0:
            F.append(quartic_potential(rng.uniform(0.2, 1.0), 2))
        else:
            B = rng.uniform(-1.0, 1.0, (2, 2))
            F.append(quadratic_potential(B @ B.T + rng.uniform(0.5, 1.5) * np.eye(2)))
    E = [make_potential_deviation(f) for f in F]
    vi = gen_deviation_mean(E, x)
    pot = potential_mean(F, x)
    for report in (vi, pot):
        assert report.converged
        assert_barycentric(report, 20)
    assert float(np.linalg.norm(vi.value - pot.value)) <= 1e-8


@SETTINGS
@given(st.integers(1, 40).flatmap(
    lambda n: st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
def test_project_simplex_is_the_euclidean_projection(values):
    v = np.asarray(values, dtype=float)
    p = _project_simplex(v)
    tol = 1e-12 * (1.0 + float(np.abs(v).max()))
    assert p.shape == v.shape
    assert np.all(p >= 0.0)
    assert abs(math.fsum(p) - 1.0) <= tol
    # Optimality: p = max(v - theta, 0) for one threshold theta, i.e.
    # v_i - p_i = theta on the support and v_i <= theta off it.
    support = p > 0.0
    shifts = v[support] - p[support]
    theta = float(shifts.mean())
    assert np.all(np.abs(shifts - theta) <= tol)
    assert np.all(v[~support] <= theta + tol)


def test_project_simplex_keeps_the_simplex_at_large_input():
    # Without the shift by the largest entry, theta cancelled against these
    # entries: the weights summed to 0.875 at b = 1e15 and were all zero at
    # b = 1e16, where b - 1 rounds to b.
    for b, want in ((1e15, [0.5625, 0.4375, 0.0]), (1e16, [1.0, 0.0, 0.0]),
                    (1e300, [1.0, 0.0, 0.0])):
        assert _project_simplex(np.array([b, b * (1.0 - 1e-16), 0.0])).tolist() == want


@SETTINGS
@given(st.integers(-8, 16), st.integers(1, 16).flatmap(
    lambda n: st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)),
    st.floats(-1.0, 1.0))
def test_project_simplex_sums_to_one_at_every_scale(exponent, values, offset):
    # Entries of size 10^exponent, shifted by a common offset of the same
    # size: the weights sum to 1 within 4 ulp of 1.
    scale = 10.0 ** exponent
    v = np.asarray(values) * scale + offset * scale
    p = _project_simplex(v)
    assert np.all(p >= 0.0)
    assert abs(math.fsum(p.tolist()) - 1.0) <= 4.0 * 2.0 ** -52


# Small problems: n in 2..6 points of R^d, d in 1..3, with repeats so that
# coincident points and n > d + 1 both occur.
coords = st.integers(-8, 8).map(lambda k: k / 4.0)


@st.composite
def clouds(draw, max_n=6):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, max_n))
    distinct = draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    return d, [np.asarray(distinct[i], dtype=float) for i in picks]


@st.composite
def potential_families(draw, d: int, n: int):
    family = []
    for _ in range(n):
        if draw(st.booleans()):
            family.append(quartic_potential(draw(st.floats(0.2, 1.0)), d))
        else:
            B = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d,
                                         max_size=d * d))).reshape(d, d)
            family.append(quadratic_potential(B @ B.T + draw(st.floats(0.5, 1.5)) * np.eye(d)))
    return family


def assert_barycentric(report, n: int):
    weights = np.asarray(report.barycentric.weights)
    assert weights.shape == (n,)
    assert np.all(weights >= 0.0)
    assert abs(math.fsum(weights) - 1.0) <= 1e-12


@SETTINGS
@given(st.data())
def test_inner_product_vi_certificate(data):
    d, x = data.draw(clouds())
    weights = data.draw(st.lists(st.floats(0.5, 3.0), min_size=len(x), max_size=len(x)))
    E = [inner_product_deviation(w, d) for w in weights]
    report = gen_deviation_mean(E, x)
    assert report.converged
    assert_barycentric(report, len(x))
    scale = 1.0 + max(float(np.linalg.norm(p)) for p in x)
    assert verify_vi(E, x, report.value, 1e-10 * scale).ok
    closed = sum(w * p for w, p in zip(weights, x)) / sum(weights)
    assert float(np.linalg.norm(report.value - closed)) <= 1e-9 * scale


@SETTINGS
@given(st.data())
def test_potential_family_certificates(data):
    d, x = data.draw(clouds(max_n=5))
    F = data.draw(potential_families(d, len(x)))
    E = [make_potential_deviation(f) for f in F]
    vi = gen_deviation_mean(E, x)
    pot = potential_mean(F, x)
    for report in (vi, pot):
        assert report.converged
        assert_barycentric(report, len(x))
    scale = 1.0 + max(float(np.linalg.norm(p)) for p in x)
    assert verify_vi(E, x, vi.value, 1e-10 * scale).ok
    assert float(np.linalg.norm(vi.value - pot.value)) <= 1e-8


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(coords, min_size=d, max_size=d), st.integers(1, 6))), st.data())
def test_identical_points_return_that_point(case, data):
    d, point, n = case
    u = np.asarray(point, dtype=float)
    x = [u.copy() for _ in range(n)]
    F = data.draw(potential_families(d, n))
    E = [make_potential_deviation(f) for f in F]
    for report in (gen_deviation_mean(E, x), potential_mean(F, x)):
        assert report.converged
        np.testing.assert_allclose(report.value, u, rtol=0.0,
                                   atol=1e-14 * (1.0 + float(np.linalg.norm(u))))
        assert_barycentric(report, n)


@SETTINGS
@given(st.data(), st.sampled_from([1e-4, 1e-2, 1.0, 1e2]))
def test_both_routes_hit_the_weighted_mean_at_every_data_scale(data, s):
    # The local step test first tries a unit step whatever the data scale.
    d, cloud = data.draw(clouds())
    x = [s * p for p in cloud]
    consts = data.draw(st.lists(st.floats(0.5, 3.0), min_size=len(x), max_size=len(x)))
    if data.draw(st.booleans()):
        weights = [lambda u, c=c: c * (1.0 + 0.5 * math.tanh(float(u[0]) / s)) for c in consts]
        at_data = [w(p) for w, p in zip(weights, x)]
    else:
        weights = at_data = consts
    closed = sum(w * p for w, p in zip(at_data, x)) / sum(at_data)
    vi = gen_deviation_mean([inner_product_deviation(w, d) for w in weights], x)
    pot = potential_mean([make_norm_sq_potential(w, d) for w in weights], x)
    scale = s * (1.0 + max(float(np.linalg.norm(p)) for p in cloud))
    for report in (vi, pot):
        assert report.converged
        assert float(np.linalg.norm(report.value - closed)) <= 1e-8 * scale


def conditioned_matrices(rng, n: int, d: int, c: float) -> list:
    """n matrices A_i = Q_i diag(exp U(0, ln c)) Q_i' for random orthogonal
    Q_i: symmetric positive definite, condition numbers up to c."""
    family = []
    for _ in range(n):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A = (Q * np.exp(rng.uniform(0.0, math.log(c), d))) @ Q.T
        family.append(0.5 * (A + A.T))
    return family


def conditioned_quadratics(rng, n: int, d: int, c: float) -> list:
    """n quadratic potentials (v - u)' A_i (v - u) with the A_i of
    ``conditioned_matrices``."""
    return [quadratic_potential(A) for A in conditioned_matrices(rng, n, d, c)]


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(1, 4),
       st.floats(0.0, 3.0))
@example(98, 6, 2, 2.854103549916244)
@example(144, 6, 2, 2.907440474160952)
def test_ill_conditioned_quadratics_converge_on_both_routes(seed, n, d, log10_c):
    # The slow linear regime of first-order steps, which the Newton
    # candidate ends on both routes, also where the Armijo steps flip one
    # weight between 0 and ~1e-4 on every step (problem 144), so that the
    # support of the iterates never holds still.
    vi, pot = conditioned_quadratic_solves(seed, n, d, log10_c)
    assert vi.converged and vi.iterations <= 40
    assert pot.converged and pot.iterations <= 40
    assert float(np.linalg.norm(vi.value - pot.value)) <= 1e-10


def conditioned_quadratic_problem(seed: int, n: int, d: int, log10_c: float):
    """n points uniform in [-2, 2]^d and n ``conditioned_quadratics``, all
    drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    x = [p for p in rng.uniform(-2.0, 2.0, (n, d))]
    return x, conditioned_quadratics(rng, n, d, 10.0 ** log10_c)


def conditioned_quadratic_solves(seed: int, n: int, d: int, log10_c: float):
    x, F = conditioned_quadratic_problem(seed, n, d, log10_c)
    return gen_deviation_mean([make_potential_deviation(f) for f in F], x), potential_mean(F, x)


def linear_deviation(B: np.ndarray) -> GenDeviation:
    """E(u, v) = B (u - v): a generalized deviation when B + B' is positive
    definite, and the gradient of no potential when B is not symmetric."""
    return GenDeviation(dim=B.shape[0], eval=lambda u, v: B @ (np.asarray(u) - np.asarray(v)),
                        label="linear", validate=True)


def test_skewed_linear_family_converges_in_a_few_newton_steps():
    # A non-gradient family: the Newton step must linearize the field with
    # its skew part, or first-order steps crawl (max_iter at a slack of 1.4
    # with the symmetric part alone).  The mean is the zero of g, inside.
    Bs = [np.array([[100.0, 10.0], [-10.0, 10.0]]), np.array([[10.0, 1.0], [-1.0, 1.0]]),
          np.array([[10000.0, 3.0], [-3.0, 1.0]])]
    x = [np.array([1.1, 2.0]), np.array([-1.6, -0.4]), np.array([-1.3, -1.5])]
    E = [linear_deviation(B) for B in Bs]
    report = gen_deviation_mean(E, x)
    assert report.converged and report.iterations <= 10
    zero = np.linalg.solve(sum(Bs), sum(B @ p for B, p in zip(Bs, x)))
    assert float(np.linalg.norm(report.value - zero)) <= 1e-12
    assert verify_vi(E, x, report.value, 1e-10 * 3.0).ok


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), st.integers(2, 4),
       st.floats(0.0, 3.0), st.floats(0.0, 2.0))
def test_skewed_families_converge_and_certify(seed, n, d, log10_c, skew):
    # Non-gradient families (A_i + K_i + 0.3 tanh|u|^2 I)(u - v) with A_i of
    # condition up to c and a skew part K_i up to 2 sqrt(c) times a
    # standard normal difference: at most 5 iterations on 900 such problems.
    rng = np.random.default_rng(seed)
    E = []
    for A in conditioned_matrices(rng, n, d, 10.0 ** log10_c):
        K = rng.standard_normal((d, d))
        B = A + skew * 10.0 ** (0.5 * log10_c) * (K - K.T)
        E.append(GenDeviation(
            dim=d, eval=lambda u, v, B=B: (B + 0.3 * math.tanh(float(u @ u)) * np.eye(d)) @ (u - v),
            label="skewed", validate=False))
    x = [p for p in rng.uniform(-2.0, 2.0, (n, d))]
    report = gen_deviation_mean(E, x)
    assert report.converged and report.iterations <= 40
    assert_barycentric(report, n)
    assert verify_vi(E, x, report.value, 1e-10 * 3.0 * (1.0 + 2.0 * math.sqrt(d))).ok


# The active-set iteration of the projected-Newton candidate, on affine
# fields g(y) = g0 + J (y - y0) whose J has a negative-definite symmetric part
# and a skew part: g is its own linearization, so the weights it returns
# solve the hull problem of g itself.

def affine_problem(rng, n: int, d: int, log10_c: float, skew: float):
    """Points X uniform in [-2, 2]^d and an affine field g with
    J = -A + skew sqrt(c) (K - K'), A of ``conditioned_matrices``."""
    X = rng.uniform(-2.0, 2.0, (n, d))
    K = rng.standard_normal((d, d))
    J = -conditioned_matrices(rng, 1, d, 10.0 ** log10_c)[0] \
        + skew * 10.0 ** (0.5 * log10_c) * (K - K.T)
    g0, y0 = rng.standard_normal(d), rng.uniform(-3.0, 3.0, d)
    return X, J, lambda y: g0 + J @ (y - y0)


def affine_iterate(X: np.ndarray, field, lam: np.ndarray):
    """The hull loop's iterate at the weights lam for the field g."""
    y = lam @ X
    g = field(y)
    return vector._Iterate(lam, y, g, X @ g - float(y @ g))


def assert_solves_the_hull_problem(X: np.ndarray, field, weights: np.ndarray):
    """Weights on the simplex whose slacks g(y) (x_j - y) are at most
    1e-9 |g| diam(x), with equality on the support; |g| is the largest
    |g(x_j)|."""
    assert weights.min() >= 0.0 and abs(math.fsum(weights) - 1.0) <= 1e-12
    diam = max(float(np.linalg.norm(p - q)) for p in X for q in X)
    tol = 1e-9 * max(float(np.linalg.norm(field(p))) for p in X) * diam
    slack = affine_iterate(X, field, weights).slack
    assert slack.max() <= tol
    assert np.all(np.abs(slack[weights > 0.0]) <= tol)


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), st.integers(1, 4),
       st.floats(0.0, 3.0), st.floats(0.0, 2.0), st.booleans())
def test_newton_weights_solve_an_affine_problem(seed, n, d, log10_c, skew, partial):
    check_newton_weights(seed, n, d, log10_c, skew, partial)


@pytest.mark.xfail(strict=True, reason="the active-set iteration cycles through single "
                   "vertices until its 3n solves run out (CHANGES.md FOUND)")
def test_newton_weights_do_not_cycle_from_a_partial_support():
    check_newton_weights(386, 4, 3, 1.11, 1.11, True)


def check_newton_weights(seed, n, d, log10_c, skew, partial):
    """The weights of ``_newton_weights`` from weights lam, all positive or
    (``partial``) zero at 1 to n - 1 vertices, solve the affine problem."""
    rng = np.random.default_rng(seed)
    X, J, field = affine_problem(rng, n, d, log10_c, skew)
    lam = rng.dirichlet(np.ones(n))
    if partial:
        lam[rng.permutation(n)[:rng.integers(1, n)]] = 0.0
        lam /= lam.sum()
    weights = vector._newton_weights(X, affine_iterate(X, field, lam), J)
    # None means no step: d'Jd < 0 for every step d != 0, so lam is the answer.
    assert_solves_the_hull_problem(X, field, lam if weights is None else weights)


def hull_problem_by_supports(X: np.ndarray, J: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The weights solving the hull problem of g(y) = a + J y, found by
    trying every support S in order of size: on S the slacks are equal,
    (x_j - x_s) g(y) = 0 for j, s in S, and the weights sum to 1, a linear
    system solved by least squares.  The first solution that is
    nonnegative and has no positive slack is the answer."""
    n = len(X)
    for size in range(1, n + 1):
        for S in map(list, itertools.combinations(range(n), size)):
            D = X[S[1:]] - X[S[0]]
            M = np.vstack([D @ J @ X[S].T, np.ones(size)])
            rhs = np.append(-(D @ a), 1.0)
            lam = np.zeros(n)
            lam[S] = np.linalg.lstsq(M, rhs, rcond=None)[0]
            y = lam @ X
            g = a + J @ y
            if (lam.min() >= -1e-12 and float((X @ g - y @ g).max()) <= 1e-10
                    and np.allclose(M @ lam[S], rhs, rtol=0.0, atol=1e-12)):
                return lam
    raise AssertionError("no support solves the problem")


def test_newton_weights_from_a_full_and_a_partial_support():
    # Four affinely independent points of R^3, a skewed affine field whose
    # solution lies on the edge {x_1, x_4}.  From full support, most calls,
    # x_2 and x_3 leave; from the support {x_3, x_4}, on the general
    # active-set path, x_1 joins and x_3 leaves.
    rng = np.random.default_rng(2)
    X = rng.uniform(-2.0, 2.0, (4, 3))
    K = rng.standard_normal((3, 3))
    J = -conditioned_matrices(rng, 1, 3, 100.0)[0] + 3.0 * (K - K.T)
    a = rng.uniform(-20.0, 20.0, 3)
    expected = hull_problem_by_supports(X, J, a)
    assert np.flatnonzero(expected).tolist() == [0, 3]
    for lam in (np.full(4, 0.25), np.array([0.0, 0.0, 0.5, 0.5])):
        weights = vector._newton_weights(X, affine_iterate(X, lambda y: a + J @ y, lam), J)
        np.testing.assert_allclose(weights, expected, rtol=0.0, atol=1e-14)


# The step searches of the hull loop.  A failed trial of the local step test
# is cut to the bound it measured (at most half of it); a failed Armijo trial
# by the minimizer of its interpolating quadratic, clamped to [0.1, 0.5].
# The tests that accept a step are those of the halving searches before.

class StepContracts:
    """Wraps the step searches of ``vector`` and checks every step they
    take against its acceptance test and every cut against its range."""

    def __init__(self):
        self.khobotov_cuts = 0
        self.armijo_steps = self.armijo_cuts = 0

    def slack_step(self, original):
        def wrapped(point, cur, tau, nu):
            nxt, passed = original(point, cur, tau, nu)
            ds = nxt.slack - cur.slack
            dl = nxt.lam - cur.lam
            lhs = passed * math.sqrt(float(ds @ ds))
            assert lhs <= nu * math.sqrt(float(dl @ dl)) or math.isnan(lhs)
            assert passed <= tau
            return nxt, passed
        return wrapped

    def khobotov_cut(self, original):
        def wrapped(tau, bound):
            nxt = original(tau, bound)
            assert nxt <= 0.5 * tau
            self.khobotov_cuts += 1
            return nxt
        return wrapped

    def armijo_cut(self, original):
        def wrapped(decrease, rise):
            factor = original(decrease, rise)
            assert 0.1 <= factor <= 0.5
            self.armijo_cuts += 1
            return factor
        return wrapped

    def armijo_step(self, original):
        def wrapped(rule, cur, scale):
            value = rule.value
            nxt = original(rule, cur, scale)
            if nxt is not cur:
                # An accepted Armijo step, with the search's own arithmetic;
                # cur itself is the zero step.
                xg = rule.X @ cur.g
                decrease = float(xg @ (nxt.lam - cur.lam))
                assert rule.phi(nxt.y) <= value - 1e-4 * decrease
                self.armijo_steps += 1
            return nxt
        return wrapped

    def install(self, patch):
        patch(vector, "_slack_step", self.slack_step(vector._slack_step))
        patch(vector, "_khobotov_cut", self.khobotov_cut(vector._khobotov_cut))
        patch(vector, "_armijo_cut", self.armijo_cut(vector._armijo_cut))
        patch(vector._ArmijoDescent, "step", self.armijo_step(vector._ArmijoDescent.step))


def _solve_all_routes(d, x, weights, F):
    # The inner-product family starts from the centroid's weights, so that
    # its solve runs the loop rather than returning its closed form.
    gen_deviation_mean([inner_product_deviation(w, d) for w in weights], x,
                       init=np.full(len(x), 1.0 / len(x)))
    gen_deviation_mean([make_potential_deviation(f) for f in F], x)
    potential_mean(F, x)


@SETTINGS
@given(st.data(), st.integers(2, 5), st.integers(1, 4), st.sampled_from([1e-3, 1e-1, 1e1, 1e3]))
def test_every_step_passes_its_acceptance_test(data, n, d, s):
    x = [s * np.asarray(p) for p in data.draw(st.lists(
        st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d), min_size=n, max_size=n))]
    weights = data.draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n))
    F = data.draw(potential_families(d, n))
    contracts = StepContracts()
    with pytest.MonkeyPatch.context() as mp:
        contracts.install(mp.setattr)
        _solve_all_routes(d, x, weights, F)


def step_corpus():
    """Twelve fixed hull problems: n in 2..5, d in 1..4, points uniform in
    [-2, 2]^d, quadratic and quartic potentials, inner-product weights."""
    rng = np.random.default_rng(1405)
    corpus = []
    for k in range(12):
        n, d = 2 + k % 4, 1 + (k // 3) % 4
        x = [p for p in rng.uniform(-2.0, 2.0, (n, d))]
        weights = rng.uniform(0.5, 3.0, n).tolist()
        F = []
        for _ in range(n):
            if rng.random() < 0.3:
                F.append(quartic_potential(float(rng.uniform(0.2, 1.0)), d))
            else:
                B = rng.uniform(-1.0, 1.0, (d, d))
                F.append(quadratic_potential(B @ B.T + rng.uniform(0.5, 1.5) * np.eye(d)))
        corpus.append((d, x, weights, F))
    return corpus


# Iterate-map evaluations (y = lam X, g(y), slacks) over step_corpus() when a
# failed trial was halved: the step searches fell from 1 to the problem's
# scale afresh in every solve.
HALVING_ITERATE_EVALS = 750


def test_step_searches_spend_no_more_iterate_evaluations_than_halving(monkeypatch):
    evals = [0]
    sum_grad = vector._sum_grad

    def counted_sum_grad(*args):
        point, jac, zero = sum_grad(*args)

        def counted(lam):
            evals[0] += 1
            return point(lam)

        return counted, jac, zero

    monkeypatch.setattr(vector, "_sum_grad", counted_sum_grad)
    contracts = StepContracts()
    contracts.install(monkeypatch.setattr)
    for problem in step_corpus():
        _solve_all_routes(*problem)
    assert evals[0] <= HALVING_ITERATE_EVALS
    # The corpus exercises both cuts, so the contracts above are not vacuous.
    assert contracts.khobotov_cuts > 0 and contracts.armijo_cuts > 0
    assert contracts.armijo_steps > 0
