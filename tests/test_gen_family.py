"""Generalized deviation families bound once: the one compiled call per
iterate of a gen-deviation mean, and the one shared-draw axiom check of its
members.

The reference is the member-by-member path: each deviation called on its
own (``GenDeviationTuple.of(..., per_call=True)``), summed in member order
from +0.0 as ``total += E_i``.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanreduce import vector
from meanreduce.core import Injection
from meanreduce.descriptors import MeanDescriptor, build_gen_deviations, build_mean
from meanreduce.errors import InvalidArgumentError, MeansError
from meanreduce.expr import parse_expression
from meanreduce.vector import Covector, GenDeviation, GenDeviationTuple

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

# Leaves include signed zeros (-0 is -0.0, and 0*u1 is -0.0 at a negative
# u1), division by zero, exp and power overflow, 1e308 products that
# overflow to inf silently, and negative bases of complex powers.
_NUMBERS = ["0", "(-0)", "1", "2", "0.5", "1e308", "400", "(-8)", "(1/3)"]
_UNARY = ("exp", "log", "sqrt", "abs", "-")
_BINARY = ("+", "-", "*", "/", "^")
_POINT_VALUES = [0.0, -0.0, 1.0, -1.5, 2.0, 1e-300, -1e300, 0.5]


def _texts(names):
    leaves = st.one_of(st.sampled_from(_NUMBERS), st.sampled_from(names))

    def extend(children):
        unary = st.tuples(st.sampled_from(_UNARY), children).map(
            lambda t: f"(-{t[1]})" if t[0] == "-" else f"{t[0]}({t[1]})")
        binary = st.tuples(st.sampled_from(_BINARY), children, children).map(
            lambda t: f"({t[1]} {t[0]} {t[2]})")
        return st.one_of(unary, binary)

    return st.recursive(leaves, extend, max_leaves=5)


def _covector(d: int):
    names = [f"u{i + 1}" for i in range(d)] + [f"v{i + 1}" for i in range(d)]
    # Three in four coordinates are deviation-like, u_k - v_k times a factor.
    deviation_like = st.tuples(st.integers(0, d - 1), _texts(names)).map(
        lambda t: f"(u{t[0] + 1} - v{t[0] + 1})*({t[1]})")
    coordinate = st.one_of(deviation_like, deviation_like, deviation_like, _texts(names))
    return st.lists(coordinate, min_size=d, max_size=d)


def _point(d: int):
    return st.lists(st.one_of(st.sampled_from(_POINT_VALUES), st.floats(-3.0, 3.0)),
                    min_size=d, max_size=d).map(lambda p: np.array(p, dtype=float))


@st.composite
def _families(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    covectors = [draw(_covector(d)) for _ in range(n)]
    pts = [draw(_point(d)) for _ in range(n)]
    return covectors, pts, draw(_point(d))


def _members(covectors) -> list:
    """Fresh deviations, unchecked, each compiling its covector on its own."""
    d = len(covectors[0])
    names = [f"u{i + 1}" for i in range(d)] + [f"v{i + 1}" for i in range(d)]
    return [GenDeviation(dim=d, eval=Covector([parse_expression(t, allowed=names) for t in c]),
                         validate=False) for c in covectors]


def _outcome(call):
    """The bits of call()'s array, or the error it raised, as text."""
    try:
        return [struct.pack("<d", v) for v in call().tolist()]
    except MeansError as exc:
        return f"{type(exc).__name__}: {exc}"


@SETTINGS
@given(_families())
def test_a_bound_family_sums_as_its_members_in_turn(case):
    # g bit for bit, signed zeros included, or the same error: a
    # DomainError names the first failing member, in member order.
    covectors, pts, y = case
    X = np.stack(pts)
    bound = GenDeviationTuple(_members(covectors))
    in_turn = GenDeviationTuple.of(_members(covectors), per_call=True)
    assert bound.values is not None and in_turn.values is None
    assert (_outcome(lambda: bound.field(pts, X)(y))
            == _outcome(lambda: in_turn.field(pts, X)(y)))


@SETTINGS
@given(_families(), st.data())
def test_a_bound_family_iterates_as_its_members_in_turn(case, data):
    # The iterate map of a solve: the same g and slacks, or the same error;
    # a covector that is not finite raises the same InvalidDeviationError.
    covectors, pts, _ = case
    n, d = len(pts), len(pts[0])
    X = np.stack(pts)
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    lam = np.array(weights) / sum(weights) if sum(weights) > 0 else np.full(n, 1.0 / n)
    bound = GenDeviationTuple(_members(covectors))

    def iterate(E):
        point = vector._sum_grad(E, pts, X, d)[0](lam)
        return np.concatenate([point.g, point.slack])

    # The slacks of a g that is not finite make numpy warn, on both paths
    # alike (and the sum of members in turn warns where inf meets -inf);
    # what is compared is the values or the error.
    with np.errstate(all="ignore"):
        assert _outcome(lambda: iterate(bound)) == _outcome(lambda: iterate(_members(covectors)))


@pytest.mark.parametrize("covectors, y, expected", [
    # Every member's coordinate is -0.0: summed from +0.0, g is +0.0.
    ([["(-0)"], ["0*u1"]], [1.0], [0.0]),
    ([["log(u1 - v1)"], ["sqrt(u1 - v1)"], ["1/(u1 - u1)"]], [0.0],
     "DomainError: evaluating 'sqrt(u1 - v1)': math domain error"),
    ([["u1 - v1", "u2 - v2"], ["u1 - v1", "(-8)^(1/3)*(u2 - v2)"]], [0.0, 0.0],
     "DomainError: expression '(-8)^(1/3)*(u2 - v2)' produced a complex value"),
], ids=["signed-zero", "first-failing-member", "complex-member"])
def test_a_bound_family_keeps_each_members_outcome(covectors, y, expected):
    pts = [np.array([1.0] * len(covectors[0])), np.array([-1.0] * len(covectors[0]))]
    pts = (pts * 2)[:len(covectors)]
    got = GenDeviationTuple(_members(covectors)).field(pts, np.stack(pts))
    if not isinstance(expected, str):
        expected = _outcome(lambda: np.array(expected))
    assert _outcome(lambda: got(np.array(y))) == expected


COVECTORS = [
    ["(u1 - v1)*(1 + 0.3*((u1 - v1)^2 + (u2 - v2)^2)) + 0.4*(u2 - v2)",
     "(u2 - v2)*(1 + 0.3*((u1 - v1)^2 + (u2 - v2)^2)) - 0.4*(u1 - v1)"],
    ["2*(u1 - v1)", "2*(u2 - v2)"],
    ["(u1 - v1)*exp(0.2*u2)", "(u2 - v2)*exp(0.2*u1)"],
    ["(u1 - v1)*(2 + u2^2)", "(u2 - v2) + 0.5*(u1 - v1)"],
]
X = [(0.0, 0.0), (2.0, 1.0), (-1.0, 3.0), (0.5, -1.0)]


class _Counts:
    """Counts compiles, axiom-draw evaluations and the calls of each
    compiled function, by the functions ``vector`` calls for them."""

    def __init__(self, monkeypatch):
        self.calls = []  # per compile, in compile order
        self.draws = 0
        bind, triples = vector._bind_family, vector.sample_triples

        def counted_bind(*args):
            family, total, batch = bind(*args)
            index = len(self.calls)
            self.calls.append(0)

            def counted_family(*values):
                self.calls[index] += 1
                return family(*values)

            return counted_family, total, batch

        def counted_triples(*args):
            self.draws += 1
            return triples(*args)

        monkeypatch.setattr(vector, "_bind_family", counted_bind)
        monkeypatch.setattr(vector, "sample_triples", counted_triples)

    @property
    def compiles(self) -> int:
        return len(self.calls)


def test_a_built_mean_compiles_checks_and_calls_its_family_once(monkeypatch):
    counts = _Counts(monkeypatch)
    iterates = []
    sum_grad = vector._sum_grad

    def counted_sum_grad(E, pts, X, dim):
        point, jac, zero = sum_grad(E, pts, X, dim)

        def counted_point(lam):
            iterates.append("point")
            return point(lam)

        def counted_jac(y):
            J = jac(y)
            iterates.extend(["probe"] * (2 * dim) if J is not None else [])
            return J

        return counted_point, counted_jac, zero

    monkeypatch.setattr(vector, "_sum_grad", counted_sum_grad)
    M = build_mean(MeanDescriptor(kind="gen-deviation", arity=4, dim=2,
                                  params={"exprs": COVECTORS}))
    # One compile of all 4 x 2 coordinates, one numpy evaluation of the draw.
    assert (counts.calls, counts.draws) == ([0], 1)
    assert M.report(X).converged and "probe" in iterates
    # One family call per g, each iterate's and each of the Jacobian's 2d
    # probes': no member was called, or compiled, on its own.
    assert counts.calls == [len(iterates)]
    # A selection binds the members it picks as one family of its own.
    selected = M.select(Injection.of((1, 3), n=4))
    assert (counts.compiles, counts.draws) == (2, 1)
    iterates.clear()
    assert selected.report((X[0], X[2])).converged
    assert counts.calls[1] == len(iterates) > 0


def test_verify_vi_keeps_its_own_per_member_sum(monkeypatch):
    counts = _Counts(monkeypatch)
    family = build_gen_deviations(COVECTORS, 2)
    y = vector.gen_deviation_mean(family, X).value
    solve_calls = counts.calls[0]
    assert solve_calls > 0
    # verify_vi calls each member on its own, never the family function:
    # each member compiles itself, once.
    for _ in range(2):
        assert vector.verify_vi(family, X, y, 1e-8).ok
    assert counts.calls == [solve_calls] + [2] * len(COVECTORS)


def test_a_list_of_deviations_is_called_member_by_member(monkeypatch):
    # A plain sequence given to one solve binds no family: each member is
    # called, and compiled, on its own, as before the family existed.
    counts = _Counts(monkeypatch)
    members = list(build_gen_deviations(COVECTORS, 2))
    report = vector.gen_deviation_mean(members, X)
    assert report.converged
    assert counts.calls[0] == 0 and counts.compiles == 1 + len(COVECTORS)
    assert report.value.tolist() == vector.gen_deviation_mean(
        build_gen_deviations(COVECTORS, 2), X).value.tolist()


def test_a_family_of_one_lends_its_compile_to_its_member(monkeypatch):
    counts = _Counts(monkeypatch)
    (dev,) = build_gen_deviations(COVECTORS[1:2], 2)
    assert dev.grad(np.array([1.0, 2.0]), np.array([0.0, 0.0])).tolist() == [2.0, 4.0]
    assert counts.calls == [1]


def test_a_family_compiles_only_covectors_of_one_dimension():
    (plane,) = build_gen_deviations(COVECTORS[:1], 2)
    (line,) = build_gen_deviations([["u1 - v1"]], 1)
    for other in (vector.inner_product_deviation(1.0, 2), line):
        mixed = GenDeviationTuple([plane, other])
        assert mixed.values is None and mixed.batch is None
    with pytest.raises(InvalidArgumentError, match="^empty deviation tuple$"):
        GenDeviationTuple(())
