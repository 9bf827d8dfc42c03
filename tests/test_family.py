"""Expression families bound once: the compiled section of a deviation
family and the one shared-sample axiom check of its members.

The reference is the member-by-member path: each expression bound on its
own (``Expression.bind``), each deviation checked on its own callback
values, in member order.
"""

import gc
import math
import struct
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from meanreduce import expr, reduction, scalar
from meanreduce.core import Injection, wide_fsum
from meanreduce.descriptors import (
    build_deviations,
    build_weights,
    parse_domain,
)
from meanreduce.errors import InvalidArgumentError, MeansError
from meanreduce.expr import Member, parse_expression
from meanreduce.scalar import DeviationTuple, ScalarDeviation, WeightTuple, e_sum
from meanreduce.suites import build_runner, load_suite

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
DOMAIN = parse_domain([0.2, 6.0])


def _num(value: float) -> str:
    return f"{value:.4g}"


# The six deviation kinds w(u) (f(u) - f(v)) of the benchmark's nested
# reductions on [0.2, 6], each with its parameter's range.
KINDS = {
    "linear": ((0.5, 3.0), "{}*(u - v)"),
    "power-weight": ((0.0, 2.0), "u^{}*(u - v)"),
    "log": ((0.2, 2.0), "({} + u)*(log(u) - log(v))"),
    "exp": ((0.1, 0.6), "exp({0}*u) - exp({0}*v)"),
    "sqrt": ((0.1, 1.0), "(1 + {}*u^2)*(sqrt(u) - sqrt(v))"),
    "power": ((0.3, 2.5), "u^{0} - v^{0}"),
}


@st.composite
def deviation_texts(draw, min_size=1, max_size=6):
    n = draw(st.integers(min_size, max_size))
    texts = []
    for _ in range(n):
        (lo, hi), form = KINDS[draw(st.sampled_from(sorted(KINDS)))]
        texts.append(form.format(_num(draw(st.floats(lo, hi)))))
    return texts


points = st.floats(0.2, 6.0)


def _bits(values) -> list:
    return [struct.pack("<d", v) for v in values]


def _outcome(fn) -> str:
    try:
        fn()
    except MeansError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "accepted"


def _one_by_one(texts):
    """The member-by-member build: each text parsed, bound and checked on
    its own callback values, in order."""
    for text in texts:
        fn = parse_expression(str(text), allowed=("u", "v")).bind(("u", "v"))
        ScalarDeviation(domain=DOMAIN, eval=fn, label=f"deviation {text!r}")


@SETTINGS
@given(deviation_texts(), st.data())
def test_section_values_are_the_members_bit_for_bit(texts, data):
    E = build_deviations(texts, DOMAIN)
    xs = data.draw(st.lists(points, min_size=len(texts), max_size=len(texts)))
    y = data.draw(points)
    members = [parse_expression(t).bind(("u", "v")) for t in texts]
    expected = [fn(x, y) for fn, x in zip(members, xs)]
    values = E.values(y, *xs)
    assert all(type(v) is float for v in values)
    assert _bits(values) == _bits(expected)
    assert _bits([E.total(y, *xs)]) == _bits([wide_fsum(expected)])
    assert _bits([e_sum(E, xs, y)]) == _bits([math.fsum(expected)])


# Members that raise on part of [0.2, 6]: a math domain error, a division
# by zero, an overflow and a complex power.
RAISING = ["log(u - 3)*(u - v)", "(u - v)/(v - 3 + abs(v - 3))", "exp(300*u)*(u - v)",
           "(u - v)*(v - 3)^0.5"]


@SETTINGS
@given(deviation_texts(max_size=5), st.data())
def test_a_member_that_raises_is_named_as_on_its_own(texts, data):
    k = data.draw(st.integers(0, len(texts)))
    texts = texts[:k] + [data.draw(st.sampled_from(RAISING))] + texts[k:]
    xs = data.draw(st.lists(points, min_size=len(texts), max_size=len(texts)))
    y = data.draw(points)
    E = DeviationTuple(tuple(ScalarDeviation(domain=DOMAIN, validate=False,
                                             eval=Member(parse_expression(t), ("u", "v")))
                             for t in texts))
    members = [parse_expression(t).bind(("u", "v")) for t in texts]
    expected = _outcome(lambda: [fn(x, y) for fn, x in zip(members, xs)])
    assert _outcome(lambda: E.values(y, *xs)) == expected
    assert _outcome(lambda: E.total(y, *xs)) == _outcome(
        lambda: wide_fsum([fn(x, y) for fn, x in zip(members, xs)]))
    assert _outcome(lambda: scalar.deviation_mean(E, xs)) == _outcome(
        lambda: scalar.deviation_mean(DeviationTuple(tuple(
            ScalarDeviation(domain=DOMAIN, eval=fn, validate=False) for fn in members)), xs))


def _result(fn):
    try:
        return fn()
    except MeansError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("texts, args", [
    (["1e308*(u - v)", "1e308*(u - v)"], (0.0, 1.5, 1.9)),
    (["-1e308*(u - v)", "1e308*(u - v)", "u - v"], (0.0, 1.5e300, 1.9e300, 1.0)),
    (["u - v", "(u - v)*(v - 3)^0.5"], (1.0, 2.0, 3.0)),
    (["u - v", "log(u - 3)*(u - v)"], (1.0, 2.0, 3.0)),
], ids=["sum-past-the-float-range", "both-infinities", "complex-member", "math-error"])
def test_total_is_the_section_summed(texts, args):
    E = DeviationTuple(tuple(ScalarDeviation(domain=DOMAIN, validate=False,
                                             eval=Member(parse_expression(t), ("u", "v")))
                             for t in texts))
    members = [parse_expression(t).bind(("u", "v")) for t in texts]
    y, *xs = args
    expected = _result(lambda: wide_fsum([fn(x, y) for fn, x in zip(members, xs)]))
    assert _result(lambda: E.total(*args)) == expected
    assert _result(lambda: wide_fsum(E.values(*args))) == expected


# Members that break one axiom on [0.2, 6]: a diagonal that does not vanish,
# a section that does not decrease, and the wrong sign.
INVALID = ["{} + 0.01", "(u - v)*(v - 3)^2", "-({})"]
UNPARSED = ["u - * v", "log(u, v)", "w - v"]


@SETTINGS
@given(deviation_texts(max_size=5), st.data())
def test_an_invalid_member_raises_as_on_its_own(texts, data):
    k = data.draw(st.integers(0, len(texts)))
    invalid = data.draw(st.sampled_from(INVALID)).format(data.draw(deviation_texts(1, 1))[0])
    texts = texts[:k] + [invalid] + texts[k:]
    if data.draw(st.booleans()):
        later = data.draw(st.integers(k + 1, len(texts)))
        texts.insert(later, data.draw(st.sampled_from(UNPARSED)))
    family = _outcome(lambda: build_deviations(texts, DOMAIN))
    assert family == _outcome(lambda: _one_by_one(texts))
    assert family.startswith("InvalidDeviationError: deviation ")


@pytest.mark.parametrize("texts", [
    ["u - * v", "v - u"],
    ["u - v", "u - * v", "v - u"],
    ["u - v", "v - u", "u - * v"],
])
def test_a_text_that_does_not_parse_raises_in_member_order(texts):
    assert _outcome(lambda: build_deviations(texts, DOMAIN)) == _outcome(
        lambda: _one_by_one(texts))


@pytest.mark.parametrize("specs, expected", [
    (["u - 3", "u +"], "InvalidArgumentError: weight function is not positive at "),
    (["1 + u^2", -1.0, "u - 3"], "InvalidArgumentError: constant weight must be positive"),
    (["1 + u^2", "u +", "u - 3"], "ExpressionError: "),
    ([2.0, "exp(-u)", "u", "1/(1 + u)"], "accepted"),
])
def test_weight_errors_come_in_spec_order(specs, expected):
    assert _outcome(lambda: build_weights(specs, DOMAIN)).startswith(expected)


# The expression weights of the benchmark's weighted reductions, each with
# its parameter's range, and weights that are positive on [0.2, 6] but
# raise below 0: a math domain error and a complex power.
WEIGHT_KINDS = [((0.1, 1.0), "1 + {}*u^2"), ((0.1, 0.5), "exp(-{}*u)"),
                ((0.2, 2.0), "1/(1 + {}*u)"), ((0.1, 1.0), "sqrt(u) + {}"),
                ((1.7, 3.0), "log(u) + {}"), ((0.5, 1.5), "u^{}")]


@SETTINGS
@given(st.lists(st.tuples(st.sampled_from(WEIGHT_KINDS), st.floats(0.0, 1.0)),
                min_size=1, max_size=6),
       st.floats(-6.0, 6.0))
def test_each_weight_of_a_family_is_its_text_bound_alone(kinds, u):
    texts = [form.format(_num(lo + t * (hi - lo))) for ((lo, hi), form), t in kinds]
    for text, weight in zip(texts, build_weights(texts, DOMAIN)):
        alone = parse_expression(text).bind(("u",))
        expected = _result(lambda: alone(u))
        got = _result(lambda: weight(u))
        if isinstance(expected, float):
            assert type(got) is float and _bits([got]) == _bits([expected])
        else:
            assert got == expected and expected.startswith("DomainError: ")


@st.composite
def weight_specs(draw):
    """Expression weights of WEIGHT_KINDS mixed with numbers."""
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            specs.append(draw(st.floats(0.0, 1e308, exclude_min=True)))
        else:
            (lo, hi), form = draw(st.sampled_from(WEIGHT_KINDS))
            specs.append(form.format(_num(lo + draw(st.floats(0.0, 1.0)) * (hi - lo))))
    return specs


@SETTINGS
@given(weight_specs(), st.data())
def test_weight_values_are_the_members_called_in_turn(specs, data):
    # One call of the compiled family gives the floats that the members,
    # each bound alone, give one at a time; where one of them raises (a
    # math domain error or a complex power below 0), the family raises the
    # first member's error.
    w = build_weights(specs, DOMAIN)
    xs = data.draw(st.lists(st.floats(-6.0, 6.0), min_size=len(specs), max_size=len(specs)))
    alone = [parse_expression(s).bind(("u",)) if isinstance(s, str) else (lambda u, c=s: c)
             for s in specs]
    expected = _result(lambda: [fn(x) for fn, x in zip(alone, xs)])
    got = _result(lambda: w.values(*xs))
    if isinstance(expected, list):
        assert all(type(v) is float for v in got) and _bits(got) == _bits(expected)
    else:
        assert got == expected and expected.startswith("DomainError: ")


@pytest.mark.parametrize("specs, xs, expected", [
    (["1 + u", "log(u) + 1", "u^0.5"], (1.0, -1.0, -1.0),
     "DomainError: evaluating 'log(u) + 1': math domain error"),
    ([2.0, "u^0.5", "log(u) + 1"], (1.0, -1.0, -1.0),
     "DomainError: expression 'u^0.5' produced a complex value"),
])
def test_the_first_failing_weight_is_named(specs, xs, expected):
    assert _result(lambda: build_weights(specs, DOMAIN).values(*xs)) == expected


def _weight_calls(run) -> tuple:
    """The weights called as WeightFn while ``run`` runs, one entry per
    call, and its value."""
    calls = []
    original = scalar.WeightFn.__call__

    def counting(self, u):
        calls.append(self)
        return original(self, u)

    with mock.patch.object(scalar.WeightFn, "__call__", counting):
        value = run()
    return calls, value


def test_a_weighted_reduction_calls_only_the_selected_weights():
    # A family of numbers and expressions, and so its selection, is one
    # compiled call on both routes, which calls no weight on its own.  With
    # a power weight the tuple and its selection call each weight in turn:
    # every weight once per evaluation of the reduced route, and each of
    # the k weights that chi selects once more per sample, for the direct
    # route.
    specs = ["1 + 0.5*u^2", 2.0, "exp(-0.3*u)", "sqrt(u) + 0.2"]
    chi = Injection.of([3, 1], n=4)

    def check(w):
        calls, report = _weight_calls(lambda: reduction.check_weighted_arith_reduction(
            w, chi, samples=25, tol=1e-9, seed=5))
        assert report.passed
        return calls

    assert check(build_weights(specs, DOMAIN)) == []
    w = build_weights([scalar.power_weight(1.0, DOMAIN)] + specs[1:], DOMAIN)
    calls = check(w)
    counts = [sum(c is wi for c in calls) for wi in w]
    evaluations = counts[1]
    assert evaluations > 0
    assert counts == [evaluations + 25, evaluations, evaluations + 25, evaluations]


def test_the_weighted_reduction_oracles_call_only_the_selected_weights():
    # Every weighted case of the packaged oracles, numbers-only ones too:
    # the weights and the selected weights are families, so no route calls
    # a weight on its own.
    cases = [c for c in load_suite("reduction-oracles")["cases"]
             if c["type"] == "weighted-arith-reduction"]
    runners = [build_runner(c, 40, 1e-9, 1e-8) for c in cases]
    calls, reports = _weight_calls(lambda: [r.runner(7, 40) for r in runners])
    assert all(report["ok"] for report in reports)
    assert calls == []


def test_section_family_is_freed_by_reference_counting_alone():
    # A family whose members referred back to it would live until the cycle
    # collector ran, which raised peak memory.
    gc.disable()
    try:
        E = build_deviations(["u - v", "log(u) - log(v)", "u^2*(u - v)"], DOMAIN)
        E.values(1.0, 2.0, 3.0, 4.0)
        E[0](1.0, 2.0)  # binds one member on its own
        selected = E.select(Injection.of([2, 3], n=3))
        refs = [weakref.ref(obj) for obj in (E, E.values, E.total, E.batch, selected,
                                            selected.values, *E.members)]
        del E, selected
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _compiles(run) -> tuple:
    """The sources compiled as expressions while ``run`` runs, and its
    value: every compile of an expression goes through the builtin as expr
    sees it."""
    compiles = []

    def counting_compile(source, *args):
        compiles.append(source)
        return compile(source, *args)

    with mock.patch.object(expr, "compile", counting_compile, create=True):
        value = run()
    return compiles, value


def test_a_list_of_deviations_is_summed_member_by_member():
    # A plain sequence given to one evaluation runs member by member: no
    # family is compiled for it, and its value is the bound family's.  So
    # for a list of weights.  A member compiles itself on its first call
    # on its own, here before the evaluations.
    E = build_deviations(["u - v", "u*(u - v)", "log(u) - log(v)"], DOMAIN)
    w = build_weights(["1 + 0.5*u^2", 2.0, "exp(-0.3*u)"], DOMAIN)
    devs, weights = list(E), list(w)
    assert len(_compiles(lambda: [d(1.0, 2.0) for d in devs] + [wi(1.0) for wi in w])[0]) == 5
    assert DeviationTuple.of(devs, per_call=True).batch is None
    assert DeviationTuple.of(E, per_call=True) is E
    assert WeightTuple.of(weights, per_call=True).batch is None
    assert WeightTuple.of(w, per_call=True) is w
    xs = [1.0, 2.0, 4.0]
    gen = scalar.identity_generator(DOMAIN)
    compiles, got = _compiles(lambda: (
        scalar.deviation_mean(devs, xs), _bits([e_sum(devs, xs, 2.0)]),
        _bits([scalar.weighted_arith_mean(weights, xs)]),
        _bits([scalar.bajraktarevic_mean(gen, weights, xs)])))
    assert compiles == []
    assert got == (scalar.deviation_mean(E, xs), _bits([e_sum(E, xs, 2.0)]),
                   _bits([scalar.weighted_arith_mean(w, xs)]),
                   _bits([scalar.bajraktarevic_mean(gen, w, xs)]))


@pytest.mark.parametrize("build, compiled, run", [
    (lambda E, w, chi: reduction.deviation_mean_fn(E), 1, lambda mean: mean((1.0, 2.0, 4.0))),
    (lambda E, w, chi: reduction.deviation_oracle(E, chi, 1e-8), 2, lambda check: check(3, 0)),
    (lambda E, w, chi: reduction.weighted_arith_oracle(w, chi, 1e-8), 2,
     lambda check: check(3, 0)),
], ids=["deviation_mean_fn", "deviation_oracle", "weighted_arith_oracle"])
def test_a_list_given_at_build_is_compiled_once(build, compiled, run):
    # A plain sequence given when a mean is built is bound once, with the
    # mean: every family it needs, an oracle's selected one too, is
    # compiled then, and no evaluation compiles anything.
    E = build_deviations(["u - v", "u*(u - v)", "log(u) - log(v)"], DOMAIN)
    w = build_weights(["1 + 0.5*u^2", 2.0, "exp(-0.3*u)"], DOMAIN)
    compiles, built = _compiles(lambda: build(list(E), list(w), Injection.of([3, 1], n=3)))
    assert len(compiles) == compiled
    assert _compiles(lambda: run(built))[0] == []


@pytest.mark.parametrize("kind, name", [(WeightTuple, "weight"), (DeviationTuple, "deviation")],
                         ids=["weight", "deviation"])
def test_an_empty_family_is_refused(kind, name):
    with pytest.raises(InvalidArgumentError, match=f"^{name} tuple must be nonempty$"):
        kind(())
    with pytest.raises(InvalidArgumentError, match=f"^{name} tuple must be nonempty$"):
        kind.of([], per_call=True)


def test_reduction_oracles_bind_and_check_each_family_once():
    # Axiom samples are drawn once per deviation family and once per weight
    # family with an expression weight, and each family, selected families
    # too, is compiled once, when its case is built; a run compiles
    # nothing, and every deviation solve goes through a compiled section,
    # no member on its own.
    cases = load_suite("reduction-oracles")["cases"]
    deviation_cases = [c for c in cases if "exprs" in c]
    weight_cases = [c for c in cases
                    if c["type"] == "weighted-arith-reduction"
                    and any(isinstance(w, str) for w in c["weights"])]
    draws = []
    original_draw = scalar._validation_draw

    def counting_draw(domain, offset, k):
        draws.append(offset)
        return original_draw(domain, offset, k)

    # Every compile of an expression goes through the builtin as expr sees it.
    compiles = []

    def counting_compile(source, *args):
        compiles.append(source)
        return compile(source, *args)

    # The routes of a case keep the solve they are built with.
    member_calls, solves = [], []
    original_call, original_solve = Member.__call__, reduction.deviation_mean

    def counting_call(self, *args):
        member_calls.append(self.expression.text)
        return original_call(self, *args)

    def counting_solve(E, x, cfg):
        assert all(isinstance(d.eval, Member) for d in E)
        solves.append(len(E))
        return original_solve(E, x, cfg)

    with mock.patch.object(scalar, "_validation_draw", counting_draw), \
            mock.patch.object(reduction, "deviation_mean", counting_solve), \
            mock.patch.object(expr, "compile", counting_compile, create=True):
        runners = [build_runner(c, 40, 1e-9, 1e-8) for c in cases]
    assert draws.count(2) == len(deviation_cases) == 4
    assert draws.count(0) == len(weight_cases) == 2
    assert len(draws) == 6
    # Every family is compiled with its case: each deviation family and the
    # family its injection selects, each weight family and the one selected
    # weight family with an expression in it ("1 + u^2" of
    # weighted-arith-single-slot), and the one expression point weight of
    # the vector case.
    assert len(compiles) == 2 * len(deviation_cases) + len(weight_cases) + 1 + 1 == 12
    del compiles[:]

    with mock.patch.object(Member, "__call__", counting_call), \
            mock.patch.object(expr, "compile", counting_compile, create=True):
        assert all(runner.runner(7, 40)["ok"] for runner in runners)
    assert len(solves) > 1000
    assert member_calls == []
    # A run compiles nothing, whatever its case.
    assert compiles == []
