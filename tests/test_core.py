import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanreduce.core import (
    Barycentric,
    Injection,
    Interval,
    SolverConfig,
    _Field,
    _is_count,
    _is_number,
    _list_of,
    _read_fields,
    as_point,
    as_point_tuple,
    select,
    splice,
)
from meanreduce.errors import InvalidArgumentError


class TestSplice:
    def test_places_fixed_entries_along_injection(self):
        chi = Injection.of([2, 4], n=4)
        assert splice(("a", "b"), chi, "c") == ("c", "a", "c", "b")

    def test_surjective_injection_ignores_fill_value(self):
        chi = Injection.of([1, 2, 3], n=3)
        assert splice(("a", "b", "c"), chi, "z") == ("a", "b", "c")

    def test_single_substituted_slot(self):
        chi = Injection.of([3], n=3)
        assert splice((7.0,), chi, 1.0) == (1.0, 1.0, 7.0)

    def test_arity_mismatch_rejected(self):
        chi = Injection.of([1, 2], n=3)
        with pytest.raises(InvalidArgumentError):
            splice((1.0,), chi, 0.0)


class TestSelect:
    def test_picks_indexed_entries(self):
        chi = Injection.of([3, 1], n=3)
        assert select((10, 20, 30), chi) == (30, 10)

    def test_identity(self):
        chi = Injection.of([1], n=1)
        assert select((5,), chi) == (5,)

    def test_two_of_four(self):
        chi = Injection.of([2, 4], n=4)
        assert select((1, 2, 3, 4), chi) == (2, 4)

    def test_arity_mismatch_rejected(self):
        chi = Injection.of([1, 2], n=4)
        with pytest.raises(InvalidArgumentError):
            select((1, 2, 3), chi)


@st.composite
def tuple_and_injection(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=n))
    slots = draw(st.permutations(range(1, n + 1)))
    chi = Injection.of(slots[:k], n=n)
    x = tuple(draw(st.integers(min_value=-50, max_value=50)) for _ in range(n))
    y = draw(st.integers(min_value=-50, max_value=50))
    return x, chi, y


@settings(deadline=None, max_examples=80, derandomize=True)
@given(tuple_and_injection())
def test_select_splice_roundtrip(data):
    x, chi, y = data
    assert select(splice(select(x, chi), chi, y), chi) == select(x, chi)


@settings(deadline=None, max_examples=80, derandomize=True)
@given(tuple_and_injection())
def test_splice_fills_exactly_the_complement(data):
    x, chi, y = data
    fill = object()
    spliced = splice(select(x, chi), chi, fill)
    filled = [i + 1 for i, v in enumerate(spliced) if v is fill]
    assert len(filled) == chi.n - chi.k
    assert not set(filled) & set(chi.map)
    assert select(spliced, chi) == select(x, chi)


class TestInjection:
    def test_rejects_duplicates(self):
        with pytest.raises(InvalidArgumentError):
            Injection.of([1, 1], n=3)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            Injection.of([0], n=2)
        with pytest.raises(InvalidArgumentError):
            Injection.of([4], n=3)

    def test_rejects_k_greater_than_n(self):
        with pytest.raises(InvalidArgumentError):
            Injection.of([1, 2, 3], n=2)


_INNER = {"n": _Field(_is_count, "an integer of at least 1", 1)}
# A nested record's test is its reader; the field's value is the record read.
_OUTER = {"x": _Field(_is_number, "a number"),
          "inner": _Field(lambda record: _read_fields(record, _INNER), "a record", {})}
_OUTER["inners"] = _Field(_list_of(_OUTER["inner"].test), "a list of records", [])


class TestReadFields:
    def test_values_come_in_table_order_with_defaults(self):
        # A read value comes back read, a default is read too, a list of
        # records comes back as the records read, and an empty list is kept.
        assert _read_fields({"inner": {"n": 3}, "x": 2.5, "inners": [{}, {"n": 2}]},
                            _OUTER) == [2.5, [3], [[1], [2]]]
        assert _read_fields({"x": 1}, _OUTER) == [1, [1], []]
        assert _read_fields({}, _OUTER, defaults={"x": 4.0}) == [4.0, [1], []]
        # A list whose entries pass as they are passes as it is.
        assert _list_of(_is_count)([1, 2]) is True and _list_of(_is_count)([]) is True
        assert _list_of(_is_count)([1, 0]) is False
        # A numpy bool is a verdict, as a comparison of a numpy float gives it.
        positive = _Field(lambda t: np.float64(t) > 0.0, "a positive number")
        assert _read_fields({"t": 2.0}, {"t": positive}) == [2.0]
        assert _list_of(positive.test)([1.0, 2.0]) is True
        assert _list_of(positive.test)([1.0, -1.0]) is False
        with pytest.raises(InvalidArgumentError, match="^field 't': expected a positive number"):
            _read_fields({"t": -1.0}, {"t": positive})

    @pytest.mark.parametrize("record, message", [
        ([1], "at: expected an object, got [1]"),
        ({"x": 1, "y": 2}, "at: unknown field 'y'"),
        ({}, "at: missing field 'x'"),
        ({"x": True}, "at: field 'x': expected a number, got True"),
        ({"x": 1, "inner": {"n": 2.0}},
         "at: field 'inner': field 'n': expected an integer of at least 1, got 2.0"),
        ({"x": 1, "inner": {"m": 1}}, "at: field 'inner': unknown field 'm'"),
    ], ids=["not-an-object", "unknown", "missing", "bool-number", "nested-value",
            "nested-unknown"])
    def test_faults_name_the_field_path(self, record, message):
        with pytest.raises(InvalidArgumentError) as exc:
            _read_fields(record, _OUTER, "at: ")
        assert str(exc.value) == message

    def test_a_default_passes_its_test_too(self):
        finite = {"x": _Field(math.isfinite, "a finite number", 0.0)}
        with pytest.raises(InvalidArgumentError, match="^field 'x': expected a finite number, "
                                                       "got nan$"):
            _read_fields({}, finite, defaults={"x": math.nan})


class TestBarycentric:
    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidArgumentError):
            Barycentric((0.5, 0.4))
        with pytest.raises(InvalidArgumentError):
            Barycentric((0.6, 0.5))

    def test_accepts_sum_within_tolerance(self):
        Barycentric((0.5, 0.5 + 5e-13))

    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidArgumentError):
            Barycentric((1.5, -0.5))

    def test_rejects_no_weights(self):
        with pytest.raises(InvalidArgumentError, match="^barycentric weights must be nonempty$"):
            Barycentric(())


class TestInterval:
    def test_membership_flags(self):
        open_unit = Interval(0.0, 1.0, lo_open=True, hi_open=True)
        assert 0.5 in open_unit
        assert 0.0 not in open_unit
        assert 1.0 not in open_unit
        closed = Interval(0.0, 1.0)
        assert 0.0 in closed and 1.0 in closed

    def test_infinite_endpoints_forced_open(self):
        assert Interval().lo_open and Interval().hi_open
        assert math.inf not in Interval()

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            Interval(1.0, 1.0)
        for lo, hi in ((math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(InvalidArgumentError, match="^interval endpoints must not be NaN$"):
                Interval(lo, hi)

    def test_finite_window_is_inside(self):
        positive = Interval(0.0, math.inf, lo_open=True)
        lo, hi = positive.finite_window()
        assert lo > 0.0 and hi > lo
        # An infinite lower end: a window of width 8 below the upper end,
        # its open lower end shrunk inward.
        assert Interval(-math.inf, 2.0).finite_window() == (-6.0 + 8e-6, 2.0)


class TestPoint:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            as_point((1.0, math.nan))
        with pytest.raises(InvalidArgumentError):
            as_point((math.inf,))

    def test_dim_check(self):
        with pytest.raises(InvalidArgumentError):
            as_point((1.0, 2.0), dim=3)

    def test_a_number_is_a_point_and_a_matrix_is_not(self):
        assert as_point(3.0).tolist() == [3.0]
        with pytest.raises(InvalidArgumentError,
                           match=r"^a point must be a 1-d coordinate list, got shape \(2, 2\)$"):
            as_point([[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("points, message", [
        ((), "empty point tuple"),
        (((1.0, 2.0), (1.0, 2.0, 3.0)), "points in a tuple must share a dimension"),
    ], ids=["empty", "mixed-dimensions"])
    def test_point_tuple_guards(self, points, message):
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            as_point_tuple(points)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.abs_tol == 1e-12
        assert cfg.rel_tol == 1e-10
        assert cfg.max_iter == 10_000

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0},
        {"rel_tol": -1.0},
        {"max_iter": 0},
        {"abs_tol": math.nan},
        {"rel_tol": math.nan},
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            SolverConfig(**kwargs)
