"""The lab's numpy screen: the ``MeanFn.batch`` contract of every kind that
sets it, and searches that report the same with and without the screen."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanreduce.core import BATCH_MARGIN, Injection
from meanreduce.descriptors import MeanDescriptor, build_mean, holder_mean_fn
from meanreduce.errors import DomainError, MeansError
from meanreduce.lab import (
    BoxSampler,
    ConvexityCase,
    HolderMinkowskiCase,
    check_convexity,
    check_holder_minkowski,
    check_reduced_convexity,
    combiner,
    compare_means,
    draw_witnesses,
)
from meanreduce.reduction import MeanFn
from meanreduce.suites import REDUCTION_CFG, _build_function

_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)

_EXPONENTS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.5, -0.5, 1e-3, -1e-3, 1e-300, -1e-300, 1e300,
                     -1e300, math.inf, -math.inf, math.nan]),
    st.floats(-60.0, 60.0))
_WEIGHTS = st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, 1e-3, 1e3]), min_size=1, max_size=4)
_GENERATORS = st.one_of(
    st.tuples(st.sampled_from(["log", "exp", "identity", "u", "id"]), st.none()),
    st.tuples(st.sampled_from(["exp", "identity"]), st.sampled_from([[-5.0, 5.0], [0.1, 10.0]])),
    st.tuples(st.just("log"), st.sampled_from([[0.1, 10.0], [1e-300, 1e300]])))


@st.composite
def batched_descriptors(draw, arity):
    """A descriptor of every kind whose built mean sets ``batch``."""
    kind = draw(st.sampled_from(["arithmetic", "weighted-arithmetic", "holder", "gini",
                                 "quasi-arithmetic"]))
    if kind == "weighted-arithmetic":
        weights = draw(_WEIGHTS)
        params = {"weights": weights if len(weights) == 1 else (weights * arity)[:arity]}
    elif kind == "holder":
        params = {"p": draw(_EXPONENTS)}
    elif kind == "gini":
        params = {"p": draw(_EXPONENTS), "q": draw(_EXPONENTS)}
    elif kind == "quasi-arithmetic":
        f, domain = draw(_GENERATORS)
        params = {"f": f} if domain is None else {"f": f, "domain": domain}
    else:
        params = {}
    return MeanDescriptor(kind=kind, arity=arity, params=params)


# Data across the float range: out of every domain (zero, negatives,
# infinities, NaN), subnormal, spread over 1e-300 .. 1e300, and clustered.
_SPECIALS = st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 1.7e308,
                             -1.7e308, 1.0, 2.0])
_WIDE = st.builds(lambda m, e, sign: sign * m * 10.0 ** e, st.floats(1.0, 9.99),
                  st.integers(-300, 300), st.sampled_from([1.0, 1.0, 1.0, -1.0]))


@st.composite
def data_rows(draw, arity):
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        style = draw(st.sampled_from(["wide", "box", "cluster", "special"]))
        if style == "wide":
            row = draw(st.lists(_WIDE, min_size=arity, max_size=arity))
        elif style == "box":
            row = draw(st.lists(st.floats(-5.0, 5.0), min_size=arity, max_size=arity))
        elif style == "cluster":
            base = draw(st.floats(1e-3, 1e3))
            row = [base * (1.0 + draw(st.floats(-1e-6, 1e-6))) for _ in range(arity)]
        else:
            row = draw(st.lists(st.one_of(_SPECIALS, _WIDE), min_size=arity, max_size=arity))
        rows.append(row)
    return np.array(rows, dtype=float)


@_SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(batched_descriptors(n), data_rows(n))))
def test_batch_values_lie_within_the_budget_of_eval(case):
    desc, X = case
    M = build_mean(desc)
    assert M.batch is not None
    values = M.batch(X)
    assert values.shape == (len(X),)
    for x, value in zip(X.tolist(), values.tolist()):
        try:
            expected = M(x)
        except Exception:  # noqa: BLE001 - any raise of eval asks for NaN
            assert math.isnan(value), (desc, x, value)
            continue
        if math.isfinite(value):
            assert abs(value - expected) <= BATCH_MARGIN / 4 * abs(expected), (desc, x)


def test_means_without_a_numpy_form_set_no_batch():
    for kind, params in [("quasi-arithmetic", {"f": "u^3"}), ("matkowski", {"fs": "u"}),
                         ("bajraktarevic", {"f": "log", "weights": [1.0]}),
                         ("weighted-arithmetic", {"weights": ["u^2 + 1"]}),
                         ("deviation-custom", {"exprs": "u - v", "domain": [0.1, 10.0]})]:
        assert build_mean(MeanDescriptor(kind=kind, arity=2, params=params)).batch is None
    vector = MeanDescriptor(kind="arithmetic", arity=2, dim=2)
    assert build_mean(vector).batch is None


def test_selection_keeps_the_numpy_form():
    chi = Injection.of([3, 1], n=3)
    M = build_mean(MeanDescriptor(kind="weighted-arithmetic", arity=3,
                                  params={"weights": [1.0, 2.0, 4.0]}))
    reduced = M.select(chi)
    X = np.array([[1.0, 3.0], [2.0, 5.0]])
    assert reduced.batch(X) == pytest.approx([(4.0 * 1 + 3.0) / 5, (4.0 * 2 + 5.0) / 5])


def unbatched(M: MeanFn) -> MeanFn:
    """M and every selection of it without a numpy form."""
    select = None if M.select is None else (lambda chi: unbatched(M.select(chi)))
    return replace(M, batch=None, select=select)


def plain(f):
    """f without its numpy form."""
    return lambda *args: f(*args)


def outcome(run):
    """The JSON of a search's report, or the error it raised."""
    try:
        return run().to_json()
    except MeansError as exc:
        return f"{type(exc).__name__}: {exc}"


_POSITIVE = BoxSampler(low=0.2, high=4.0, log_uniform=True)
_SAMPLERS = st.sampled_from([_POSITIVE, BoxSampler(low=0.5, high=3.0),
                             BoxSampler(low=1e-200, high=1e200, log_uniform=True)])
_POWER_MEANS = st.one_of(
    st.builds(lambda p: ("holder", {"p": p}), st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.0, 2.0])),
    st.builds(lambda p, q: ("gini", {"p": p, "q": q}), st.sampled_from([0.0, 1.0, 2.0]),
              st.sampled_from([-1.0, 0.0, 1.0])),
    st.just(("quasi-arithmetic", {"f": "log"})), st.just(("arithmetic", {})),
    st.just(("weighted-arithmetic", {"weights": [1.0, 3.0]})))


def _mean(spec, arity):
    kind, params = spec
    if kind == "weighted-arithmetic":
        params = {"weights": (params["weights"] * arity)[:arity]}
    return build_mean(MeanDescriptor(kind=kind, arity=arity, params=params), REDUCTION_CFG)


@st.composite
def comparisons(draw):
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n))
    chi = Injection.of(draw(st.permutations(range(1, n + 1)))[:k], n=n)
    return (_mean(draw(_POWER_MEANS), n), _mean(draw(_POWER_MEANS), n), chi,
            draw(_SAMPLERS), draw(st.integers(0, 2**16)), draw(st.integers(1, 70)))


@_SETTINGS
@given(comparisons())
def test_comparison_reports_are_those_of_the_scalar_means(case):
    G, E, chi, sampler, seed, trials = case

    def run(G, E):
        return lambda: compare_means(G, E, chi, trials, 1e-9, sampler=sampler, seed=seed,
                                     cfg=REDUCTION_CFG, reduced_tol=1e-8)

    assert outcome(run(G, E)) == outcome(run(unbatched(G), unbatched(E)))


@_SETTINGS
@given(comparisons(), st.sampled_from(["u^2", "exp(u)", "1/u", "log(u)", "sqrt(u)",
                                       "u*log(u)", "-log(u)", "2", "u^0.5 - u"]))
def test_convexity_reports_are_those_of_the_scalar_means(case, text):
    M, N, chi, sampler, seed, trials = case
    f = _build_function(text, None)

    def run(f, M, N):
        conv = ConvexityCase(M=M, N=N, f=f, sampler=sampler)
        return (lambda: check_convexity(conv, trials, 1e-9, seed=seed),
                lambda: check_reduced_convexity(conv, chi, trials, 1e-8, seed=seed,
                                                cfg=REDUCTION_CFG))

    screened = [outcome(r) for r in run(f, M, N)]
    assert screened == [outcome(r) for r in run(plain(f), unbatched(M), unbatched(N))]


@_SETTINGS
@given(comparisons(), st.integers(1, 3), st.sampled_from(["sum", "product"]))
def test_holder_minkowski_reports_are_those_of_the_scalar_means(case, ell, spec):
    M, N, chi, sampler, seed, trials = case
    f = combiner(spec)

    def run(f, N, M):
        hm = HolderMinkowskiCase(N_list=(N,) * ell, M=M, f=f, chi=chi,
                                 samplers=(sampler,) * ell)
        return lambda: check_holder_minkowski(hm, trials, 1e-9, seed=seed, cfg=REDUCTION_CFG,
                                              reduced_tol=1e-8)

    assert outcome(run(f, N, M)) == outcome(run(plain(f), unbatched(N), unbatched(M)))


def injected(base: MeanFn, violation: tuple, failure: tuple) -> MeanFn:
    """base, with a value far below it at the witness ``violation`` and a
    DomainError at ``failure``, in eval and, as the contract asks, in batch."""

    def eval_(xs):
        if xs == failure:
            raise DomainError("injected")
        value = base.eval(xs)
        return value / 4.0 if xs == violation else value

    def batch(X):
        values = base.batch(X)
        values = np.where(np.all(X == np.array(violation), axis=1), values / 4.0, values)
        return np.where(np.all(X == np.array(failure), axis=1), np.nan, values)

    return replace(base, eval=eval_, batch=batch)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**16), st.integers(2, 4), st.integers(0, 59), st.integers(0, 59),
       st.sampled_from(["comparison", "convexity", "holder-minkowski"]))
def test_an_injected_violation_and_failure_are_met_in_trial_order(seed, n, at, fail, check):
    # The witness of trial `at` violates the inequality and trial `fail`
    # raises a DomainError inside the box: the search reports whichever
    # comes first, with the screen as without it.
    trials = 60
    chi = Injection.of([1], n=n)
    witnesses = list(draw_witnesses((_POSITIVE,), np.random.default_rng(seed), trials, n))
    violation, failure = witnesses[at][0], witnesses[fail][0]
    G = holder_mean_fn(1.0, n)
    E = injected(holder_mean_fn(2.0, n), violation, failure)
    if check == "comparison":
        def run(G, E, f):
            return compare_means(G, E, chi, trials, 1e-9, sampler=_POSITIVE, seed=seed,
                                 cfg=REDUCTION_CFG).full
    elif check == "convexity":
        def run(G, E, f):
            conv = ConvexityCase(M=G, N=E, f=f, sampler=_POSITIVE)
            return check_convexity(conv, trials, 1e-9, seed=seed)
    else:
        def run(G, E, f):
            hm = HolderMinkowskiCase(N_list=(E,), M=G, f=f, chi=chi,
                                     samplers=(_POSITIVE,))
            return check_holder_minkowski(hm, trials, 1e-9, seed=seed, cfg=REDUCTION_CFG).full

    # The identity keeps the sides as the means give them: a convexity or
    # Hölder-Minkowski check of G against E is the comparison G <= E.
    identity = _build_function("u", None)
    screened = outcome(lambda: run(G, E, identity))
    assert screened == outcome(lambda: run(unbatched(G), unbatched(E), plain(identity)))
    if fail <= at:
        assert screened.startswith("DomainError: ") and "injected" in screened
    else:
        assert screened["found"] and screened["trials"] == at + 1


def test_a_violation_inside_the_budget_of_the_numpy_sides_is_not_skipped():
    # E violates G <= E by about 1e-15 beyond the tolerance at every witness,
    # and its numpy form, within its budget of eval, passes by 1e-13: the
    # screen's margin sends every trial to the scalar means, which find it.
    tol = 1e-9
    G = holder_mean_fn(1.0, 3)

    def e_eval(xs):
        g = G.eval(xs)
        return g - tol * (1.0 + 2.0 * g) * (1.0 + 1e-6)

    def e_batch(X):
        g = G.batch(X)
        return (g - tol * (1.0 + 2.0 * g) * (1.0 + 1e-6)) * (1.0 + BATCH_MARGIN / 8)

    E = replace(G, eval=e_eval, batch=e_batch)
    identity = _build_function("u", None)
    conv = ConvexityCase(M=G, N=E, f=identity, sampler=_POSITIVE)
    report = check_convexity(conv, 40, tol, seed=5)
    assert report.found and report.trials == 1
    plain_conv = replace(conv, M=unbatched(G), N=unbatched(E), f=plain(identity))
    assert report == check_convexity(plain_conv, 40, tol, seed=5)
