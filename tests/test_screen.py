"""The lab's numpy screen: the ``MeanFn.batch`` contract of every kind that
sets it, and searches that report the same with and without the screen."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import meanreduce.lab

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
from meanreduce.suites import (REDUCTION_CFG, _build_function, load_suite, packaged_suite_names,
                               run_suite)

_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)

_EXPONENTS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.5, -0.5, 1e-3, -1e-3, 1e-300, -1e-300, 1e300,
                     -1e300, math.inf, -math.inf, math.nan]),
    st.floats(-60.0, 60.0))
_NUMBERS = st.sampled_from([0.5, 1.0, 2.0, 3.0, 1e-3, 1e3])
_GENERATORS = st.one_of(
    st.tuples(st.sampled_from(["log", "exp", "identity", "u", "id"]), st.none()),
    st.tuples(st.sampled_from(["exp", "identity"]), st.sampled_from([[-5.0, 5.0], [0.1, 10.0]])),
    st.tuples(st.just("log"), st.sampled_from([[0.1, 10.0], [1e-300, 1e300]])))
# Domains with expression weights positive and finite on them.  On [1, 700]
# the products of exp(u) with the exp generator's values overflow in numpy,
# near 709.5 the sum of two exp(u) does, and on [1, 740] exp(-u) underflows
# to subnormal weights.
_WEIGHTED_DOMAINS = st.sampled_from([
    ([0.1, 10.0], ["u", "1 + u^2", "u^3", "sqrt(u)", "1/u", "exp(u)", "exp(-u)", "2"]),
    ([1.0, 700.0], ["exp(u)", "u^3", "u"]),
    ([1.0, 709.5], ["exp(u)"]),
    ([1.0, 740.0], ["exp(-u)", "1/u", "exp(-u/2)"])])


def _slots(draw, entries, arity):
    """One entry for every slot, or one for each."""
    entries = draw(st.lists(entries, min_size=1, max_size=4))
    return entries if len(entries) == 1 else (entries * arity)[:arity]


@st.composite
def weighted_params(draw, arity, generator):
    """The parameters of a scalar weighted mean: numeric weights on a domain
    of _GENERATORS, or numeric and expression weights on a domain of
    _WEIGHTED_DOMAINS; and a named generator f where ``generator``."""
    if draw(st.booleans()):
        f, domain = draw(_GENERATORS)
        params = {"weights": _slots(draw, _NUMBERS, arity)}
    else:
        domain, pool = draw(_WEIGHTED_DOMAINS)
        f = draw(st.sampled_from(["log", "exp", "identity"]))
        params = {"weights": _slots(draw, st.one_of(_NUMBERS, st.sampled_from(pool)), arity)}
    if generator:
        params["f"] = f
    return params if domain is None else dict(params, domain=domain)


@st.composite
def batched_descriptors(draw, arity):
    """A descriptor of every kind whose built mean sets ``batch``."""
    kind = draw(st.sampled_from(["arithmetic", "weighted-arithmetic", "holder", "gini",
                                 "quasi-arithmetic", "bajraktarevic"]))
    dim = None
    if kind in ("arithmetic", "weighted-arithmetic"):
        dim = draw(st.sampled_from([None, None, 1, 2, 3]))
    if kind == "weighted-arithmetic":
        if dim is None:
            params = draw(weighted_params(arity, False))
        else:
            params = {"weights": _slots(draw, st.sampled_from([0.5, 1.0, 3.0, 1e3]), arity)}
    elif kind == "bajraktarevic":
        params = draw(weighted_params(arity, True))
    elif kind == "holder":
        params = {"p": draw(_EXPONENTS)}
    elif kind == "gini":
        params = {"p": draw(_EXPONENTS), "q": draw(_EXPONENTS)}
    elif kind == "quasi-arithmetic":
        f, domain = draw(_GENERATORS)
        params = {"f": f} if domain is None else {"f": f, "domain": domain}
    else:
        params = {}
    return MeanDescriptor(kind=kind, arity=arity, params=params, dim=dim)


# Data across the float range: out of every domain (zero, negatives,
# infinities, NaN), subnormal, spread over 1e-300 .. 1e300, and clustered.
_SPECIALS = st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 1.7e308,
                             -1.7e308, 1.0, 2.0])
_WIDE = st.builds(lambda m, e, sign: sign * m * 10.0 ** e, st.floats(1.0, 9.99),
                  st.integers(-300, 300), st.sampled_from([1.0, 1.0, 1.0, -1.0]))


@st.composite
def data_rows(draw, arity, dim=None, domain=(0.1, 745.0)):
    """Rows of arity entries, or of arity points in R^dim (a (T, arity, dim)
    block): each row's entries in one style, one of them inside the domain
    and one near its upper end."""
    size = arity * (dim or 1)
    lo, hi = domain
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        style = draw(st.sampled_from(["wide", "box", "cluster", "special", "range", "edge",
                                      "cancel"]))
        if style == "wide":
            row = draw(st.lists(_WIDE, min_size=size, max_size=size))
        elif style == "box":
            row = draw(st.lists(st.floats(-5.0, 5.0), min_size=size, max_size=size))
        elif style == "cluster":
            base = draw(st.floats(1e-3, 1e3))
            row = [base * (1.0 + draw(st.floats(-1e-6, 1e-6))) for _ in range(size)]
        elif style == "range":
            row = draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size))
        elif style == "edge":
            row = draw(st.lists(st.floats(hi - 1e-3 * (hi - lo), hi), min_size=size,
                                max_size=size))
        elif style == "cancel":
            # The last entry, or point, nearly cancels the sum of the others.
            row = draw(st.lists(st.floats(-5.0, 5.0), min_size=size, max_size=size))
            width = dim or 1
            for c in range(width):
                column = row[c:size - width:width]
                row[size - width + c] = -math.fsum(column) * (1.0 + draw(st.floats(-1e-9, 1e-9)))
        else:
            row = draw(st.lists(st.one_of(_SPECIALS, _WIDE), min_size=size, max_size=size))
        rows.append(row)
    X = np.array(rows, dtype=float)
    return X if dim is None else X.reshape(len(X), arity, dim)


@st.composite
def batched_cases(draw):
    arity = draw(st.integers(1, 5))
    desc = draw(batched_descriptors(arity))
    domain = desc.params.get("domain")
    return desc, draw(data_rows(arity, desc.dim, *([tuple(domain)] if domain else [])))


def _exact_average(x: np.ndarray, weights) -> np.ndarray:
    """The weighted average of the entries of x, or of its points coordinate
    by coordinate, rounded once from exact rational arithmetic."""
    ws = [Fraction(w) for w in (weights * len(x))[:len(x)]]
    columns = x.reshape(len(x), -1).T.tolist()
    return np.array([float(sum(w * Fraction(v) for w, v in zip(ws, column)) / sum(ws))
                     for column in columns])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(batched_cases())
# Weights whose sum overflows though the weighted sum of log u does not.
@example((MeanDescriptor(kind="bajraktarevic", arity=2,
                         params={"f": "log", "weights": [1e308], "domain": [0.1, 10.0]}),
          np.array([[1.01, 1.02], [0.5, 2.0]])))
def test_batch_values_lie_within_the_budget_of_eval(case):
    # A point form's row is a point, each coordinate within the budget of
    # eval's, or NaN throughout.  A form of an average with numeric weights
    # is also held to its own half of the budget about the exact average.
    desc, X = case
    M = build_mean(desc)
    assert M.batch is not None
    values, radius = M.batch(X)
    assert radius == 0.0  # a closed form's
    assert values.shape == X.shape[:1] + X.shape[2:]
    weights = desc.params.get("weights", [1.0])
    rational = desc.kind in ("arithmetic", "weighted-arithmetic") and all(
        isinstance(w, float) for w in weights)
    for x, value in zip(X, values):
        try:
            expected = M(list(x) if desc.dim else x.tolist())
        except Exception:  # noqa: BLE001 - any raise of eval asks for NaN
            assert np.isnan(value).all(), (desc, x, value)
            continue
        if not np.isfinite(value).all():
            assert np.isnan(value).all(), (desc, x, value)
            continue
        assert (np.abs(value - expected) <= BATCH_MARGIN / 4 * np.abs(expected)).all(), (desc, x)
        if rational:
            exact = _exact_average(x, weights).reshape(np.shape(value))
            assert (np.abs(value - exact) <= BATCH_MARGIN / 8 * np.abs(exact)).all(), (desc, x)


# Means found by a solve, each kind with the domains its pool of
# expressions is defined and monotone on.  Deviations are steep and flat;
# "exp" overflows on [1, 720], and u^3 underflows on [1e-103, 1e-101], where
# the average of its values can be subnormal.
_DEVIATION_EXPRS = ["{c}*(u - v)", "{c}*u*(u - v)", "{c}*(u^3 - v^3)", "{c}*(exp(u) - exp(v))",
                    "{c}*(log(u) - log(v))", "{c}*(u - v)^3", "{c}*(sqrt(u) - sqrt(v))",
                    "{c}*(u - v)/u"]
_STEEPNESS = st.sampled_from([1.0, 1e-8, 1e-4, 3.0, 1e4, 1e8])
_NAMED_GENERATORS = ["u", "log", "exp"]
_EXPRESSION_GENERATORS = ["u^3", "u + u^3", "exp(u/3)", "sqrt(u)", "-1/u", "log(1 + u)", "u^7",
                          "1e8*u", "1e-08*u"]
_SOLVED_DOMAINS = st.sampled_from([(0.1, 10.0), (0.1, 10.0), (0.02, 80.0), (1.0, 720.0),
                                   (1e-103, 1e-101)])


@st.composite
def solved_descriptors(draw, arity):
    """A descriptor of a deviation, Matkowski or inverted-generator mean,
    and the domain its data are drawn about."""
    kind = draw(st.sampled_from(["deviation-custom", "matkowski", "quasi-arithmetic",
                                 "bajraktarevic"]))
    lo, hi = draw(_SOLVED_DOMAINS)
    if kind == "deviation-custom":
        lo, hi = draw(st.sampled_from([(0.1, 10.0), (0.02, 18.0)]))
        exprs = st.builds(str.format, st.sampled_from(_DEVIATION_EXPRS), c=_STEEPNESS)
        params = {"exprs": _slots(draw, exprs, arity)}
    elif kind == "matkowski":
        pool = _NAMED_GENERATORS if hi == 720.0 else _NAMED_GENERATORS + _EXPRESSION_GENERATORS
        pool = ["u^3", "u"] if lo == 1e-103 else pool
        params = {"fs": _slots(draw, st.sampled_from(pool), arity)}
    else:
        pool = ["u^3"] if lo == 1e-103 else _EXPRESSION_GENERATORS[:7]
        lo, hi = (lo, hi) if hi != 720.0 else (0.1, 10.0)
        params = {"f": draw(st.sampled_from(pool))}
        if kind == "bajraktarevic":
            params["weights"] = _slots(draw, st.sampled_from(["u", "1 + u^2", 2.0, "1/u"]), arity)
    return MeanDescriptor(kind=kind, arity=arity, params=dict(params, domain=[lo, hi])), (lo, hi)


@st.composite
def hull_rows(draw, arity, domain):
    """Rows of arity entries: spread over the domain, clustered, at or next
    to either end, constant, or with one entry outside it."""
    lo, hi = domain
    inside = st.floats(lo, hi)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        style = draw(st.sampled_from(["spread", "cluster", "low", "high", "constant", "outside"]))
        if style == "cluster":
            base = draw(inside)
            row = [min(max(base * (1.0 + draw(st.floats(-1e-9, 1e-9))), lo), hi)
                   for _ in range(arity)]
        elif style in ("low", "high"):
            end, other = (lo, hi) if style == "low" else (hi, lo)
            row = draw(st.lists(st.sampled_from([end, math.nextafter(end, other)]) | inside,
                                min_size=arity, max_size=arity))
        elif style == "constant":
            row = [draw(inside)] * arity
        else:
            row = draw(st.lists(inside, min_size=arity, max_size=arity))
            if style == "outside":
                row[draw(st.integers(0, arity - 1))] = draw(st.sampled_from(
                    [0.0, -1.0, 2.0 * hi, math.nan, math.inf, math.nextafter(hi, math.inf)]))
        rows.append(row)
    return np.array(rows, dtype=float)


@st.composite
def solved_cases(draw):
    arity = draw(st.integers(1, 4))
    desc, domain = draw(solved_descriptors(arity))
    return desc, draw(hull_rows(arity, domain))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(solved_cases())
# exp overflows in math past 709.78, and 705 is lost beside exp(705) + 709.7.
@example((MeanDescriptor(kind="matkowski", arity=2,
                         params={"fs": ["exp", "u"], "domain": [1.0, 720.0]}),
          np.array([[700.0, 715.0], [705.0, 709.7], [709.9, 1.0], [709.0, 709.78]])))
# The average of u^3 underflows on the first row.
@example((MeanDescriptor(kind="quasi-arithmetic", arity=2,
                         params={"f": "u^3", "domain": [1e-103, 1e-101]}),
          np.array([[1e-103, 2e-103], [5e-102, 9e-102]])))
# (1e-110)^3 underflows: the section is 0 at min x, where the solve stops.
@example((MeanDescriptor(kind="deviation-custom", arity=2,
                         params={"exprs": ["(u - v)^3"], "domain": [-1.0, 1.0]}),
          np.array([[0.0, 1e-110], [0.5, -0.5], [0.3, 0.3]])))
def test_solved_batch_values_lie_within_their_radius_of_eval(case):
    # Every finite row lies within its radius, and the budget, of eval, and
    # is NaN where eval raises: a value out of the domain, an overflowing
    # generator, an average that underflows.
    desc, X = case
    M = build_mean(desc, REDUCTION_CFG)
    assert M.batch is not None
    values, radius = M.batch(X)
    assert values.shape == radius.shape == X.shape[:1]
    for x, value, r in zip(X.tolist(), values, radius):
        try:
            expected = M(x)
        except MeansError:
            assert np.isnan(value), (desc, x, value)
            continue
        if np.isnan(value):
            assert r == 0.0
            continue
        assert 0.0 <= r < math.inf
        assert abs(value - expected) <= r + BATCH_MARGIN / 4 * abs(expected), (desc, x, r)
        if min(x) == max(x):
            assert (value, r) == (x[0], 0.0)


def test_means_without_a_numpy_form_set_no_batch():
    # The vector means of a solve, and the point means with expression
    # weights.
    for kind, params in [("weighted-arithmetic", {"weights": ["1 + u1^2", 1.0]}),
                         ("gen-deviation", {"exprs": ["u1 - v1", "u2 - v2"]}),
                         ("norm-squared-potential", {"weights": [1.0]}),
                         ("custom-potential", {"exprs": ["(u1 - v1)^2 + (u2 - v2)^2"]})]:
        assert build_mean(MeanDescriptor(kind=kind, arity=2, dim=2, params=params)).batch is None


# The packaged cases with a mean that has no numpy form, each with the kind
# of that mean.  Every packaged mean has one: the lab screens every trial of
# every packaged case.
_UNSCREENED = {}


def _solved_kind(desc: dict) -> str:
    """The kind of a descriptor, or "expression generator" for a mean of
    one."""
    f = desc.get("params", {}).get("f")
    return desc["kind"] if f is None or f in ("log", "exp", "identity", "id", "u") else (
        "expression generator")


def test_only_the_means_of_a_solve_go_unscreened():
    unscreened = {}
    for source in packaged_suite_names():
        for case in load_suite(source)["cases"]:
            descs = [case[key] for key in ("M", "N", "G", "E") if isinstance(case.get(key), dict)]
            descs += case["N"] if isinstance(case.get("N"), list) else []
            kinds = {_solved_kind(desc) for desc in descs
                     if build_mean(MeanDescriptor.from_json(desc), REDUCTION_CFG).batch is None}
            if kinds:
                unscreened[case["name"]] = kinds
            if case["type"] == "convexity":
                assert _build_function(case["f"], case["M"].get("dim")).batch is not None
    assert unscreened == _UNSCREENED


def test_selection_keeps_the_numpy_form():
    chi = Injection.of([3, 1], n=3)
    M = build_mean(MeanDescriptor(kind="weighted-arithmetic", arity=3,
                                  params={"weights": [1.0, 2.0, 4.0]}))
    reduced = M.select(chi)
    X = np.array([[1.0, 3.0], [2.0, 5.0]])
    assert reduced.batch(X)[0] == pytest.approx([(4.0 * 1 + 3.0) / 5, (4.0 * 2 + 5.0) / 5])
    for desc in [MeanDescriptor(kind="arithmetic", arity=3, dim=2),
                 MeanDescriptor(kind="weighted-arithmetic", arity=3, dim=2,
                                params={"weights": [1.0, 2.0, 4.0]}),
                 MeanDescriptor(kind="bajraktarevic", arity=3,
                                params={"f": "log", "weights": ["u", 2.0, "1 + u^2"]}),
                 MeanDescriptor(kind="bajraktarevic", arity=3,
                                params={"f": "u^3", "weights": ["u", 2.0, "1 + u^2"],
                                        "domain": [0.1, 10.0]}),
                 MeanDescriptor(kind="quasi-arithmetic", arity=3, params={"f": "u^3"}),
                 MeanDescriptor(kind="matkowski", arity=3, params={"fs": ["u", "exp", "u^3"]}),
                 MeanDescriptor(kind="deviation-custom", arity=3,
                                params={"exprs": ["u - v", "u*(u - v)", "u^3 - v^3"],
                                        "domain": [0.1, 10.0]})]:
        assert build_mean(desc).select(chi).batch is not None, desc


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
# Bajraktarević means, the packaged Lehmer one first, and a weighted
# arithmetic mean with an expression weight, which shares their numpy form.
_BAJRAKTAREVIC_MEANS = st.sampled_from([
    ("bajraktarevic", {"f": "u", "weights": ["u"], "domain": [0.02, 18.0]}),
    ("bajraktarevic", {"f": "log", "weights": ["u"]}),
    ("bajraktarevic", {"f": "log", "weights": ["1 + u^2", 2.0]}),
    ("bajraktarevic", {"f": "exp", "weights": [1.0, 3.0]}),
    ("bajraktarevic", {"f": "identity", "weights": ["exp(-u)"]}),
    ("weighted-arithmetic", {"weights": ["1/u", 1.0], "domain": [0.0, None]})])


# Means of a solve: the packaged ones first, then steeper, flatter and
# mixed families.
_SOLVED_MEANS = st.sampled_from([
    ("deviation-custom", {"exprs": ["u - v"], "domain": [0.02, 18.0]}),
    ("deviation-custom", {"exprs": ["u*(u - v)"], "domain": [0.02, 18.0]}),
    ("matkowski", {"fs": ["u"], "domain": [-30.0, 30.0]}),
    ("quasi-arithmetic", {"f": "u^3", "domain": [0.02, 80.0]}),
    ("deviation-custom", {"exprs": ["exp(u) - exp(v)", "1e4*(u - v)", "1e-4*u*(u - v)"],
                          "domain": [0.02, 18.0]}),
    ("matkowski", {"fs": ["u", "exp", "u^3"], "domain": [0.01, 30.0]}),
    ("bajraktarevic", {"f": "u^3", "weights": ["u", 2.0], "domain": [0.02, 80.0]})])


def _mean(spec, arity, dim=None):
    """The mean of spec, each list of entries (but the domain) repeated to
    the arity."""
    kind, params = spec
    params = {key: (value * arity)[:arity] if isinstance(value, list) and key != "domain"
              else value for key, value in params.items()}
    return build_mean(MeanDescriptor(kind=kind, arity=arity, params=params, dim=dim),
                      REDUCTION_CFG)


def _injection(draw, n):
    k = draw(st.integers(1, n))
    return Injection.of(draw(st.permutations(range(1, n + 1)))[:k], n=n)


@st.composite
def comparisons(draw, first=_POWER_MEANS):
    n = draw(st.integers(2, 4))
    chi = _injection(draw, n)
    return (_mean(draw(first), n), _mean(draw(_POWER_MEANS), n), chi,
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
@given(comparisons(_BAJRAKTAREVIC_MEANS), st.booleans())
def test_bajraktarevic_comparison_reports_are_those_of_the_scalar_means(case, swap):
    # compare_means runs the full and the reduced comparison.
    B, P, chi, sampler, seed, trials = case
    G, E = (P, B) if swap else (B, P)

    def run(G, E):
        return lambda: compare_means(G, E, chi, trials, 1e-9, sampler=sampler, seed=seed,
                                     cfg=REDUCTION_CFG, reduced_tol=1e-8)

    assert outcome(run(G, E)) == outcome(run(unbatched(G), unbatched(E)))


@_SETTINGS
@given(comparisons(_SOLVED_MEANS), st.booleans())
def test_solved_comparison_reports_are_those_of_the_scalar_means(case, swap):
    S, P, chi, sampler, seed, trials = case
    G, E = (P, S) if swap else (S, P)

    def run(G, E):
        return lambda: compare_means(G, E, chi, trials, 1e-9, sampler=sampler, seed=seed,
                                     cfg=REDUCTION_CFG, reduced_tol=1e-8)

    assert outcome(run(G, E)) == outcome(run(unbatched(G), unbatched(E)))


def test_a_failing_deviation_comparison_reports_the_scalar_witness():
    # Lehmer's mean sum x^2 / sum x lies above the arithmetic mean: every
    # trial of Lehmer <= arithmetic that the tolerance does not hide
    # violates it, and reaches the scalar means through the screen.
    lehmer, arith = (_mean(("deviation-custom", {"exprs": [text], "domain": [0.02, 18.0]}), 3)
                     for text in ("u*(u - v)", "u - v"))
    chi = Injection.of([2, 3], n=3)

    def run(G, E):
        return lambda: compare_means(G, E, chi, 40, 1e-9, sampler=_POSITIVE, seed=3,
                                     cfg=REDUCTION_CFG, reduced_tol=1e-8)

    screened = outcome(run(lehmer, arith))
    assert screened == outcome(run(unbatched(lehmer), unbatched(arith)))
    assert screened["full"]["found"] and screened["reduced"]["found"]
    assert outcome(run(arith, lehmer)) == outcome(run(unbatched(arith), unbatched(lehmer)))


def _convexity_outcomes(f, M, N, chi, sampler, seed, trials):
    """The outcomes of the full and reduced convexity checks, screened, and
    of the scalar means alone."""

    def run(f, M, N):
        conv = ConvexityCase(M=M, N=N, f=f, sampler=sampler)
        return [outcome(lambda: check_convexity(conv, trials, 1e-9, seed=seed)),
                outcome(lambda: check_reduced_convexity(conv, chi, trials, 1e-8, seed=seed,
                                                        cfg=REDUCTION_CFG))]

    return run(f, M, N), run(plain(f), unbatched(M), unbatched(N))


@_SETTINGS
@given(comparisons(), st.sampled_from(["u^2", "exp(u)", "1/u", "log(u)", "sqrt(u)",
                                       "u*log(u)", "-log(u)", "2", "u^0.5 - u"]))
def test_convexity_reports_are_those_of_the_scalar_means(case, text):
    M, N, chi, sampler, seed, trials = case
    screened, scalar = _convexity_outcomes(_build_function(text, None), M, N, chi, sampler,
                                           seed, trials)
    assert screened == scalar


@_SETTINGS
@given(comparisons(_SOLVED_MEANS), st.booleans(),
       st.sampled_from(["u", "u^2", "exp(u)", "log(u)", "-log(u)"]))
def test_solved_convexity_reports_are_those_of_the_scalar_means(case, swap, text):
    # A solved M's radius does not pass f, unless f is the identity of a
    # comparison; a solved N's passes to its side.
    S, P, chi, sampler, seed, trials = case
    M, N = (P, S) if swap else (S, P)
    screened, scalar = _convexity_outcomes(_build_function(text, None), M, N, chi, sampler,
                                           seed, trials)
    assert screened == scalar


@_SETTINGS
@given(comparisons(_SOLVED_MEANS), st.integers(1, 2), st.sampled_from(["sum", "product"]),
       st.booleans())
def test_solved_holder_minkowski_reports_are_those_of_the_scalar_means(case, ell, spec, swap):
    # A solved N's radius does not pass the combiner; a solved M's passes.
    S, P, chi, sampler, seed, trials = case
    M, N = (P, S) if swap else (S, P)
    f = combiner(spec)

    def run(f, N, M):
        hm = HolderMinkowskiCase(N_list=(N,) * ell, M=M, f=f, chi=chi,
                                 samplers=(sampler,) * ell)
        return lambda: check_holder_minkowski(hm, trials, 1e-9, seed=seed, cfg=REDUCTION_CFG,
                                              reduced_tol=1e-8)

    assert outcome(run(f, N, M)) == outcome(run(plain(f), unbatched(N), unbatched(M)))


# The functions of the packaged vector cases, and their like in fewer
# dimensions, each with the dimension it needs; -exp(u1) is concave.
_POINT_FUNCTIONS = [("u1^2 + u2^2", 2), ("exp(u1 + u2)", 2), ("abs(u1) + abs(u2) + abs(u3)", 3),
                    ("u1^2", 1), ("exp(u1)", 1), ("abs(u1)", 1), ("-exp(u1)", 1)]


@st.composite
def point_convexity(draw):
    """A Jensen case on points: f of the point arithmetic mean, unit or
    weighted, against a scalar arithmetic mean of f."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    text = draw(st.sampled_from([text for text, need in _POINT_FUNCTIONS if need <= d]))
    M = _mean(draw(st.sampled_from([("arithmetic", {}),
                                    ("weighted-arithmetic", {"weights": [1.0, 3.0]})])), n, d)
    N = _mean(draw(st.sampled_from([("arithmetic", {}),
                                    ("weighted-arithmetic", {"weights": [2.0, 1.0, 0.5]})])), n)
    low, high = draw(st.sampled_from([(-2.0, 2.0), (-1.2, 1.2), (0.5, 3.0), (-800.0, 800.0)]))
    return (text, M, N, _injection(draw, n), BoxSampler(low=low, high=high, dim=d),
            draw(st.integers(0, 2**16)), draw(st.integers(1, 70)))


@_SETTINGS
@given(point_convexity())
def test_point_convexity_reports_are_those_of_the_scalar_means(case):
    text, M, N, chi, sampler, seed, trials = case
    screened, scalar = _convexity_outcomes(_build_function(text, M.dim), M, N, chi, sampler,
                                           seed, trials)
    assert screened == scalar


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
        values, radius = base.batch(X)
        values = np.where(np.all(X == np.array(violation), axis=1), values / 4.0, values)
        return np.where(np.all(X == np.array(failure), axis=1), np.nan, values), radius

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
        g, radius = G.batch(X)
        return (g - tol * (1.0 + 2.0 * g) * (1.0 + 1e-6)) * (1.0 + BATCH_MARGIN / 8), radius

    E = replace(G, eval=e_eval, batch=e_batch)
    identity = _build_function("u", None)
    conv = ConvexityCase(M=G, N=E, f=identity, sampler=_POSITIVE)
    report = check_convexity(conv, 40, tol, seed=5)
    assert report.found and report.trials == 1
    plain_conv = replace(conv, M=unbatched(G), N=unbatched(E), f=plain(identity))
    assert report == check_convexity(plain_conv, 40, tol, seed=5)


# Per seed, the searches of one verify pass of the jensen, comparisons,
# holder-minkowski and failing suites that call the scalar sides, and how
# often (the recheck of a found witness included): every other trial the
# numpy screen clears.  52 calls in all over seeds 7 and 1007.
_SCALAR_SIDES = {
    7: {
        "square-arith-4to2 (reduced)": 1, "exp-arith (reduced)": 1, "exp-arith-bijection": 1,
        "abs-arith": 1, "neglog-geometric-vs-arith": 1, "square-weighted-arith (reduced)": 1,
        "vector-norm-square": 1, "vector-abs-sum": 1, "vector-abs-sum (reduced)": 1,
        "sqrt-not-convex": 2, "square-vs-harmonic": 2, "log-not-convex": 2,
        "log-not-convex (reduced)": 1, "power-order-reversed (full)": 2,
        "lehmer-le-arith-reversed (full)": 2, "lehmer-le-arith-reversed (reduced)": 1,
        "hm-outer-mean-too-big (full)": 2, "minkowski-reversed (full)": 2,
    },
    1007: {
        "entropy-positives": 1, "exp-weighted-arith": 1, "exp-vs-quadratic-range (reduced)": 1,
        "vector-norm-square": 2, "vector-exp-sum": 1, "vector-exp-sum (reduced)": 1,
        "vector-abs-sum": 3, "vector-abs-sum (reduced)": 1, "sqrt-not-convex": 2,
        "square-vs-harmonic": 2, "log-not-convex": 2, "log-not-convex (reduced)": 1,
        "power-order-reversed (full)": 2, "lehmer-le-arith-reversed (full)": 2,
        "lehmer-le-arith-reversed (reduced)": 1, "hm-outer-mean-too-big (full)": 2,
        "minkowski-reversed (full)": 2,
    },
}
# The searches whose means include a mean of a solve: a deviation,
# Matkowski or expression generator's mean.
_SOLVED_SEARCHES = [
    "square-vs-cubic-power-range", "square-vs-cubic-power-range (reduced)",
    "square-vs-arith-deviation-range", "square-vs-arith-deviation-range (reduced)",
    *(f"{case} ({search})" for case in ("geometric-le-arith-deviation",
                                        "arith-deviation-le-lehmer",
                                        "matkowski-identity-vs-arith")
      for search in ("full", "reduced"))]


@pytest.mark.parametrize("seed", sorted(_SCALAR_SIDES))
def test_the_screen_leaves_the_same_trials_to_the_scalar_means(monkeypatch, seed):
    # A change that screens fewer trials fails here, not only in the
    # benchmark's timings.
    counts = {}
    search = meanreduce.lab._search

    def counted(blocks, sides, trials, tol, case_name, *args, **kwargs):
        counts.setdefault(case_name, 0)

        def scalar_sides(witness):
            counts[case_name] += 1
            return sides(witness)

        return search(blocks, scalar_sides, trials, tol, case_name, *args, **kwargs)

    monkeypatch.setattr(meanreduce.lab, "_search", counted)
    for suite in ("jensen", "comparisons", "holder-minkowski", "failing"):
        run_suite(load_suite(suite), seed=seed)
    assert len(counts) == 146
    assert {name: count for name, count in counts.items() if count} == _SCALAR_SIDES[seed]
    assert [counts[name] for name in _SOLVED_SEARCHES] == [0] * 10
