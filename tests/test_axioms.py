"""The batched axiom checks against the sample-by-sample evaluation.

``build_deviations``, ``build_gen_deviation`` and ``build_weights`` check
their samples on the expression's numpy form first.  That form may
only accept: every rejection, and its message, must be the one the values
of the callback itself give.  The reference here is the same builder with
the numpy values switched off, so both sides draw the same samples and are
judged by the same verdict function.
"""

import math
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from meanreduce import scalar, vector
from meanreduce.core import POSITIVE_REALS, REALS, Interval
from meanreduce.descriptors import (
    _of_points,
    build_deviations,
    build_gen_deviation,
    build_weights,
    parse_domain,
)
from meanreduce.errors import DomainError, MeansError
from meanreduce.expr import _bind_family, parse_expression

# The numpy values of each family; None sends the check to the callback.
_NUMPY_VALUES = {
    "scalar": (scalar, "sample_triples"),
    "gen": (vector, "sample_triples"),
    "weight": (scalar, "batch_values"),
}
_DOMAINS = [parse_domain([0.2, 6.0]), parse_domain([-1.0, 1.0]), REALS, POSITIVE_REALS,
            Interval(1e5, 1e5 + 1.0), Interval(-1e-8, 1e-8)]


@contextmanager
def _callback_values_only(kind: str):
    module, name = _NUMPY_VALUES[kind]
    with mock.patch.object(module, name, lambda *args: None):
        yield


def _outcome(build) -> str:
    try:
        build()
    except MeansError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "accepted"


def _both(kind: str, build) -> tuple[str, str]:
    """(batched outcome, callback-values outcome) of one build."""
    batched = _outcome(build)
    with _callback_values_only(kind):
        return batched, _outcome(build)


def _build(kind: str, case):
    if kind == "scalar":
        text, domain = case
        return lambda: build_deviations([text], domain)[0]
    if kind == "weight":
        text, domain = case
        return lambda: build_weights([text], domain)[0]
    exprs, low, high = case
    if (low, high) == (-2.0, 2.0):
        return lambda: build_gen_deviation(exprs, len(exprs))
    return lambda: _gen_deviation(exprs, low, high)


def _gen_deviation(exprs, low: float, high: float) -> vector.GenDeviation:
    """The deviation ``build_gen_deviation`` builds, with its axioms sampled
    on [low, high]^d instead of [-2, 2]^d."""
    d = len(exprs)
    names = tuple(f"u{i + 1}" for i in range(d)) + tuple(f"v{i + 1}" for i in range(d))
    family, _, batch = _bind_family([parse_expression(e, allowed=names) for e in exprs],
                                    [dict(zip(names, range(2 * d)))] * d, 2 * d)
    dev = vector.GenDeviation(dim=d, eval=_of_points(family),
                              label="custom generalized deviation", sample_low=low,
                              sample_high=high, validate=False)
    dev._check_axioms(batch)
    return dev


# Expression texts over the grammar.  Leaves include zero (division by
# zero), 400 (exp overflows), 1e-9 (small offsets of E(u, u)) and negative
# constants (complex powers such as (-8)^(1/3)); 1e308 products overflow to
# inf silently, and 0 * inf is NaN.
_NUMBERS = st.sampled_from(["0", "1", "2", "3", "0.5", "400", "1e-9", "1e308", "(-8)", "(1/3)"])
_UNARY = ("exp", "log", "sqrt", "abs", "-")
_BINARY = ("+", "-", "*", "/", "^", "pow")


def _texts(names):
    leaves = st.one_of(_NUMBERS, st.sampled_from(names))

    def extend(children):
        unary = st.tuples(st.sampled_from(_UNARY), children).map(
            lambda t: f"(-{t[1]})" if t[0] == "-" else f"{t[0]}({t[1]})")
        binary = st.tuples(st.sampled_from(_BINARY), children, children).map(
            lambda t: f"pow({t[1]}, {t[2]})" if t[0] == "pow" else f"({t[1]} {t[0]} {t[2]})")
        return st.one_of(unary, binary)

    return st.recursive(leaves, extend, max_leaves=6)


# Increasing functions, so that a difference f(u) - f(v) is often a
# deviation and the batched path gets to accept.
_MONOTONE = ["{}", "exp({})", "{}^3", "2*{} + {}^3", "-exp(-{})", "log(1 + exp({}))", "abs({})"]


@st.composite
def _difference(draw, u: str, v: str, factor_names):
    """A (factor) * (f(u) - f(v)) + scale * (offset) text.  Three in four f
    and factors come from the lists above, so many texts are deviations;
    the rest, and the offsets, are random and may break an axiom."""
    def often(choices, names):
        listed = draw(st.integers(0, 3)) > 0
        return draw(st.sampled_from(choices) if listed else _texts(names))

    f = often(_MONOTONE, ["{}"])
    factor = often(["1", "2", f"exp({factor_names[0]})", f"1 + {factor_names[0]}^2"],
                   factor_names)
    text = f"({factor}) * (({f.replace('{}', u)}) - ({f.replace('{}', v)}))"
    if draw(st.booleans()):
        scale = draw(st.sampled_from(["0", "1e-13", "1e-9", "1e-3", "1"]))
        text = f"{text} + {scale}*({draw(_texts(factor_names + [v]))})"
    return text


_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
                     report_multiple_bugs=False)


@_SETTINGS
@given(st.one_of(_difference("u", "v", ["u"]), _texts(["u", "v"])),
       st.sampled_from(range(len(_DOMAINS))))
# E(u, u) = 1e-6 passes against the magnitude of the later samples only: a
# batched check that took the largest magnitude of all samples, not the
# running one, would accept it.
@example("(u - v)*exp(u) + 1e-6", 0)
@example("(u - v)*exp(8*u) + 1e-6", 1)
@example("(u - v)*exp(2*u) + 1e-6", 2)
@example("(u - v) + 1e-9*exp(4*u)", 2)
@example("(-8)^(1/3)*(u - v)", 0)
@example("log(u - 1)*(u - v)", 0)
@example("(u - v)^3 - (u - v)^2", 0)
@example("exp(400*u)*(u - v)", 0)
@example("u - v + 1/(2 - 2)", 0)
# numpy turns these inf back into finite values where math raises.
@example("1/(1/(u - v))", 0)
@example("u - v + 1/exp(exp(400))", 0)
def test_scalar_deviation_checks_agree(text, domain):
    batched, reference = _both("scalar", _build("scalar", (text, _DOMAINS[domain])))
    assert batched == reference


@st.composite
def _gen_cases(draw):
    d = draw(st.integers(1, 4))
    us = [f"u{i + 1}" for i in range(d)]
    vs = [f"v{i + 1}" for i in range(d)]
    exprs = [draw(st.one_of(_difference(us[i], vs[i], us), _texts(us + vs))) for i in range(d)]
    low, high = draw(st.sampled_from([(-2.0, 2.0), (0.5, 3.0), (-1e-9, 1e-9), (1e6, 1e6 + 1)]))
    return exprs, low, high


@_SETTINGS
@given(_gen_cases())
@example((["(u1 - v1)*exp(4*u1) + 1e-6"], -2.0, 2.0))
@example((["u1 - v1", "(u2 - v2) + 1e-9*exp(3*u1)"], -2.0, 2.0))
@example((["(u1 - v1)*exp(u2)", "(u2 - v2)*exp(u1)"], -2.0, 2.0))
@example((["u1 - v1", "u1 - v1"], -2.0, 2.0))
@example((["(u1 - v1)^3 - (u1 - v1)^2"], -2.0, 2.0))
@example((["(u1 - v1)*sqrt(u1)", "u2 - v2"], -2.0, 2.0))
@example((["v1 - u1", "u2 - v2", "u3 - v3"], -2.0, 2.0))
@example((["1/(1/(u1 - v1))", "u2 - v2"], -2.0, 2.0))
def test_gen_deviation_checks_agree(case):
    batched, reference = _both("gen", _build("gen", case))
    assert batched == reference


@_SETTINGS
@given(st.one_of(_texts(["u"]), st.sampled_from(["1 + u^2", "exp(u)", "u", "u - 1e-300"])),
       st.sampled_from(range(len(_DOMAINS))))
@example("u", 1)
@example("u^2", 2)
@example("1e308*1e308*u", 0)
@example("1 + 1/exp(1000*u)", 0)
def test_weight_checks_agree(text, domain):
    batched, reference = _both("weight", _build("weight", (text, _DOMAINS[domain])))
    assert batched == reference


def _never(*args):
    raise AssertionError("the callback was evaluated")


def test_batched_path_accepts_valid_families():
    # The point of the batch: a family that satisfies the axioms is never
    # evaluated through its callback.
    domain = parse_domain([0.2, 6.0])
    texts = ("exp(u)*(log(u) - log(v))", "u - v", "u^2*(u - v)")
    batch = _bind_family([parse_expression(t) for t in texts],
                         [{"u": i + 1, "v": 0} for i in range(len(texts))], len(texts) + 1)[2]
    scalar.check_deviations([scalar.ScalarDeviation(domain=domain, eval=_never, validate=False)
                             for _ in texts], batch)
    weights = _bind_family([parse_expression(t) for t in ("1 + u^2", "2", "exp(-u)")],
                           [{"u": i} for i in range(3)], 3)[2]
    scalar.check_weights([scalar.WeightFn(eval=_never, domain=domain, validate=False)] * 3,
                         weights)
    names = ("u1", "u2", "v1", "v2")
    family = _bind_family([parse_expression(e) for e in
                           ("2*(1 + u2^2)*(u1 - v1)", "2*(1 + u2^2)*(u2 - v2)")],
                          [dict(zip(names, range(4)))] * 2, 4)[2]
    vector.GenDeviation(dim=2, eval=_never, sample_low=-2.0, sample_high=2.0,
                        validate=False)._check_axioms(family)


# Fallbacks: each outcome is the callback's, word for word as before the
# batched path existed.
@pytest.mark.parametrize("kind,case,expected", [
    # A constant coordinate is a float, broadcast over the samples.
    ("gen", (["0", "u2 - v2"], -2.0, 2.0), "accepted"),
    ("gen", (["1", "u2 - v2"], -2.0, 2.0),
     "InvalidDeviationError: custom generalized deviation: E(u,u) != 0 "
     "at u=[-1.72847616 -0.30133393]"),
    ("weight", ("2", parse_domain([0.2, 6.0])), "accepted"),
    # The numpy form raises as the scalar one does.
    ("scalar", ("u - v + 10^400", parse_domain([0.2, 6.0])),
     "DomainError: evaluating 'u - v + 10^400': (34, 'Numerical result out of range')"),
    ("gen", (["u1 - v1", "u2 - v2 + 1/(2 - 2)"], -2.0, 2.0),
     "DomainError: evaluating 'u2 - v2 + 1/(2 - 2)': float division by zero"),
    # NaN in one sample only: one drawn u lies above 5.9, one u1 above 1.75.
    ("scalar", ("u - v + 0*((u - 5.9 + abs(u - 5.9))*1e308*1e308)", parse_domain([0.2, 6.0])),
     "InvalidDeviationError: deviation 'u - v + 0*((u - 5.9 + abs(u - 5.9))*1e308*1e308)': "
     "E(u,u) = nan != 0 at u=5.9800293285289765"),
    # A covector that is not finite names the deviation and the sample.
    ("gen", (["u1 - v1 + 0*((u1 - 1.75 + abs(u1 - 1.75))*1e308*1e308)", "u2 - v2"], -2.0, 2.0),
     "InvalidDeviationError: custom generalized deviation: E(u,u) is not finite "
     "at u=[ 1.7906405  -1.73585383]"),
], ids=["constant-zero-coordinate", "constant-one-coordinate", "constant-weight",
        "scalar-overflow", "gen-division-by-zero", "scalar-nan-in-one-sample",
        "gen-nan-in-one-sample"])
def test_fallback_outcomes_are_the_scalar_loops(kind, case, expected):
    batched, reference = _both(kind, _build(kind, case))
    assert batched == reference == expected


def _nan_at(batch, index):
    def spoiled(*args):
        (value,) = batch(*args)
        value = np.array(value, dtype=float)
        value[index] = math.nan
        return (value,)
    return spoiled


def _raising(*args):
    raise FloatingPointError("numpy form failed")


@pytest.mark.parametrize("spoil", [_raising, "nan", "complex"],
                         ids=["raises", "nan-in-one-sample", "complex"])
def test_a_failing_batch_leaves_the_verdict_to_the_scalar_loop(spoil):
    expression = parse_expression("exp(u)*(log(u) - log(v))")
    fn = expression.bind(("u", "v"))
    batch = _bind_family([expression], [{"u": 1, "v": 0}], 2)[2]
    if spoil == "nan":
        spoil = _nan_at(batch, 17)
    elif spoil == "complex":
        spoil = lambda ys, xs: (batch(ys, xs)[0] + 0j,)  # noqa: E731
    by_callback = mock.Mock(wraps=fn)
    dev = scalar.ScalarDeviation(domain=parse_domain([0.2, 6.0]), eval=by_callback,
                                 validate=False)
    scalar.check_deviations([dev], spoil)  # accepted on the callback's values
    assert by_callback.called
    bad = scalar.ScalarDeviation(domain=parse_domain([0.2, 6.0]), eval=lambda u, v: v - u,
                                 label="reversed", validate=False)
    with pytest.raises(MeansError) as info:
        scalar.check_deviations([bad], spoil)
    with pytest.raises(MeansError) as direct:
        scalar.check_deviations([bad])
    assert str(info.value) == str(direct.value)


@pytest.mark.parametrize("build, text", [
    (lambda: build_weights(["u + (-8)^(1/3)"], _DOMAINS[0]), "u + (-8)^(1/3)"),
    (lambda: build_weights(["1 + u^2", 2.0, "u + (-8)^(1/3)"], _DOMAINS[0]), "u + (-8)^(1/3)"),
    (lambda: build_deviations(["u - v", "(u - v)*(1 + 0*(-8)^(1/3))"], _DOMAINS[0]),
     "(u - v)*(1 + 0*(-8)^(1/3))"),
], ids=["weight", "weight-family", "deviation-family"])
def test_a_complex_member_is_refused_with_warnings_ignored(build, text):
    # A constant complex power makes a member's numpy values complex.  The
    # members' stack must stay complex, so that the verdict falls to the
    # scalar loop, which refuses the member; cast to its real part, with no
    # more than a ComplexWarning, it would pass.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _outcome(build) == f"DomainError: expression {text!r} produced a complex value"


# Evaluation, then verdict: a callback that raises at sample k has the
# samples before k judged first, so the first failing sample wins as it did
# when each sample was judged as soon as it was evaluated.
class _Scripted:
    """``base``, except at the listed call numbers, where the listed value
    is returned or the listed exception raised."""

    def __init__(self, base, script: dict):
        self.base, self.script, self.calls = base, script, 0

    def __call__(self, *args):
        call, self.calls = self.calls, self.calls + 1
        planted = self.script.get(call, None)
        if planted is None:
            return self.base(*args)
        if isinstance(planted, Exception):
            raise planted
        return planted


def _scripted_build(kind: str, script: dict):
    if kind == "scalar":
        return lambda: scalar.ScalarDeviation(
            domain=Interval(0.2, 6.0), eval=_Scripted(lambda u, v: u - v, script),
            label="scripted")
    if kind == "gen":
        return lambda: vector.GenDeviation(
            dim=2, eval=_Scripted(lambda u, v: u - v, script), label="scripted")
    return lambda: scalar.WeightFn(eval=_Scripted(lambda u: 1.0 + u * u, script),
                                   domain=Interval(0.2, 6.0))


def _raise_at(call: int) -> dict:
    return {call: DomainError(f"planted at call {call}")}


@pytest.mark.parametrize("kind,script,expected", [
    # A failure at sample 2, then a raise at sample 5.
    ("scalar", {6: 1.0, **_raise_at(16)},
     "InvalidDeviationError: scripted: E(u,u) = 1.0 != 0 at u=2.4147351652630036"),
    ("gen", {6: np.array([1.0, 0.0]), **_raise_at(16)},
     "InvalidDeviationError: scripted: E(u,u) != 0 at u=[-0.15826304  0.61836941]"),
    ("weight", {2: -1.0, **_raise_at(5)},
     "InvalidArgumentError: weight function is not positive at u=4.934286948033111: -1.0"),
    # A raise at sample 5, every sample before it valid.
    ("scalar", _raise_at(16), "DomainError: planted at call 16"),
    ("gen", _raise_at(16), "DomainError: planted at call 16"),
    ("weight", _raise_at(5), "DomainError: planted at call 5"),
    # A bad first value at sample 2 whose next call raises: the sample was
    # never judged, unless the value was not finite.
    ("scalar", {6: 1.0, **_raise_at(7)}, "DomainError: planted at call 7"),
    ("gen", {6: np.array([1.0, 0.0]), **_raise_at(7)}, "DomainError: planted at call 7"),
    ("gen", {6: np.array([math.nan, 0.0]), **_raise_at(7)},
     "InvalidDeviationError: scripted: E(u,u) is not finite at u=[-0.15826304  0.61836941]"),
], ids=["scalar-fail-then-raise", "gen-fail-then-raise", "weight-fail-then-raise",
        "scalar-raise", "gen-raise", "weight-raise", "scalar-raise-in-failing-sample",
        "gen-raise-in-failing-sample", "gen-not-finite-then-raise"])
def test_the_first_failing_sample_wins_over_a_later_raise(kind, script, expected):
    assert _outcome(_scripted_build(kind, script)) == expected
