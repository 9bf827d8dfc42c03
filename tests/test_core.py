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
    as_point,
    hull_combination,
    in_hull_1d,
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


@settings(deadline=None, max_examples=80)
@given(tuple_and_injection())
def test_select_splice_roundtrip(data):
    x, chi, y = data
    assert select(splice(select(x, chi), chi, y), chi) == select(x, chi)


@settings(deadline=None, max_examples=80)
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

    def test_bijection_flag(self):
        assert Injection.of([2, 1], n=2).is_bijection()
        assert not Injection.of([2], n=2).is_bijection()


class TestHullCombination:
    def test_centroid(self):
        x = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]
        lam = Barycentric((1 / 3, 1 / 3, 1 / 3))
        np.testing.assert_allclose(hull_combination(x, lam), [2 / 3, 2 / 3], rtol=1e-15)

    def test_vertex_weight_is_exact(self):
        x = [(1.0, 1.0), (5.0, 5.0)]
        lam = Barycentric((1.0, 0.0))
        assert hull_combination(x, lam).tolist() == [1.0, 1.0]

    def test_1d_interpolation(self):
        x = [(0.0,), (10.0,)]
        lam = Barycentric((0.25, 0.75))
        assert hull_combination(x, lam).tolist() == [7.5]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            hull_combination([(0.0, 0.0), (1.0,)], Barycentric((0.5, 0.5)))

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            hull_combination([(0.0,), (1.0,)], Barycentric((1.0,)))


class TestInHull1d:
    def test_interior(self):
        assert in_hull_1d((1, 5, 3), 4)

    def test_boundary(self):
        assert in_hull_1d((1, 5, 3), 5)

    def test_degenerate_hull(self):
        assert not in_hull_1d((2, 2), 2.0001)


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

    def test_finite_window_is_inside(self):
        positive = Interval(0.0, math.inf, lo_open=True)
        lo, hi = positive.finite_window()
        assert lo > 0.0 and hi > lo


class TestPoint:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            as_point((1.0, math.nan))
        with pytest.raises(InvalidArgumentError):
            as_point((math.inf,))

    def test_dim_check(self):
        with pytest.raises(InvalidArgumentError):
            as_point((1.0, 2.0), dim=3)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.abs_tol == 1e-12
        assert cfg.rel_tol == 1e-10
        assert cfg.max_iter == 10_000
        assert cfg.damping == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0},
        {"rel_tol": -1.0},
        {"max_iter": 0},
        {"damping": 0.0},
        {"damping": 1.5},
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            SolverConfig(**kwargs)
