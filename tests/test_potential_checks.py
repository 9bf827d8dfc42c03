"""The sampled checks of Python-callable potentials and deviations.

``PotentialFn._check_property`` and the scalar loop of
``GenDeviation._check_axioms`` run on plain floats, with one gradient per
sample point.  The reference here is a copy of the numpy loops they replace,
kept verbatim but for three marked translations, the only outcomes that are
meant to differ:

- a covector or gradient that is not finite at a sample was the unnamed
  ``InvalidArgumentError: covector entries must be finite``; it now names
  the family and the sample;
- a finite difference that is not finite at a sample passed the agreement
  test (NaN compares false); it is now rejected, naming the sample;
- a value of F that is not finite failed the convexity test and was reported
  as a section that is not strictly convex; it is now named as not finite.

Everything else (order of the tests, thresholds, messages) must agree.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from meanreduce import vector
from meanreduce.descriptors import build_custom_potential
from meanreduce.errors import (
    InvalidArgumentError,
    InvalidDeviationError,
    InvalidPotentialError,
    MeansError,
)
from meanreduce.expr import Expression, point_vars
from meanreduce.vector import GenDeviation, PotentialFn, make_potential_deviation


# ---- Reference: the numpy loops the float loops replace ----------------------

def _ref_as_grad(value, dim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.shape[0] != dim:
        raise InvalidArgumentError(f"covector dimension {arr.shape[0]} != {dim}")
    if not math.isfinite(float(arr.sum())) and not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("covector entries must be finite")
    return arr


def _ref_central_differences(fn, v: np.ndarray) -> np.ndarray:
    cols = []
    for i in range(v.size):
        h = 6e-6 * (1.0 + abs(float(v[i])))
        vp, vm = v.copy(), v.copy()
        vp[i] += h
        vm[i] -= h
        cols.append((fn(vp) - fn(vm)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _ref_fd_grad(feval, u, v):
    return _ref_central_differences(lambda w: feval(u, w), v)


def _named(error, message: str, call):
    # Translation 1: the unnamed non-finite error now names the sample.
    try:
        return call()
    except InvalidArgumentError as exc:
        if str(exc) != "covector entries must be finite":
            raise
        raise error(message) from None


def _ref_potential_check(F: PotentialFn, grad_v, reject_nan_fd: bool = True) -> None:
    """The parent's ``PotentialFn._check_property``, with ``grad_v`` the
    gradient it used (its own central differences when F has none);
    ``reject_nan_fd=False`` leaves out translation 2."""
    def grad(u, v):
        return _ref_as_grad(grad_v(u, v), F.dim)

    rng = np.random.default_rng(vector._VALIDATION_SEED + 1)
    shape = (vector._VALIDATION_SAMPLES, F.dim)
    us = rng.uniform(F.sample_low, F.sample_high, shape)
    vs = rng.uniform(F.sample_low, F.sample_high, shape)
    ws = rng.uniform(F.sample_low, F.sample_high, shape)
    for u, v, w in zip(us, vs, ws):
        g0 = _named(InvalidPotentialError,
                    f"{F.label}: grad_v(u,u) is not finite at u={u}", lambda: grad(u, u))
        guv = _named(InvalidPotentialError,
                     f"{F.label}: grad_v(u,v) is not finite at ({u}, {v})", lambda: grad(u, v))
        if np.abs(g0).max() > 1e-6 * (1.0 + np.abs(guv).max()):
            raise InvalidPotentialError(
                f"{F.label}: gradient does not vanish on the diagonal at u={u}"
            )
        if np.linalg.norm(v - w) > 1e-9:
            fmid = F.value(u, 0.5 * (v + w))
            favg = 0.5 * (F.value(u, v) + F.value(u, w))
            if not fmid < favg + 1e-12 * (1.0 + abs(favg)):
                # Translation 3: a value of F that is not finite is named.
                if not (math.isfinite(fmid) and math.isfinite(favg)):
                    raise InvalidPotentialError(
                        f"{F.label}: F(u,.) is not finite at u={u} between {v} and {w}")
                raise InvalidPotentialError(
                    f"{F.label}: section not strictly convex between {v} and {w}"
                )
        fd = _ref_fd_grad(F.eval, u, v)
        # Translation 2: a finite difference that is not finite is rejected.
        if reject_nan_fd and not np.all(np.isfinite(fd)):
            raise InvalidPotentialError(
                f"{F.label}: finite differences of F(u,.) are not finite at ({u}, {v})")
        gv = grad(u, v)
        if np.abs(fd - gv).max() > 1e-6 * (1.0 + np.abs(gv).max()):
            raise InvalidPotentialError(
                f"{F.label}: grad_v disagrees with finite differences at ({u}, {v})"
            )


def _ref_gen_loop(E: GenDeviation) -> None:
    """The parent's scalar loop of ``GenDeviation._check_axioms``."""
    def grad(u, v):
        return _ref_as_grad(E.eval(u, v), E.dim)

    rng = np.random.default_rng(vector._VALIDATION_SEED)
    shape = (vector._VALIDATION_SAMPLES, E.dim)
    us = rng.uniform(E.sample_low, E.sample_high, shape)
    vs = rng.uniform(E.sample_low, E.sample_high, shape)
    ws = rng.uniform(E.sample_low, E.sample_high, shape)
    magnitude = 1.0
    for u, v, w in zip(us, vs, ws):
        euu = _named(InvalidDeviationError,
                     f"{E.label}: E(u,u) is not finite at u={u}", lambda: grad(u, u))
        euv = _named(InvalidDeviationError,
                     f"{E.label}: E(u,v) is not finite at ({u}, {v})", lambda: grad(u, v))
        euw = _named(InvalidDeviationError,
                     f"{E.label}: E(u,w) is not finite at ({u}, {w})", lambda: grad(u, w))
        magnitude = max(magnitude, np.abs(euv).max(), np.abs(euw).max())
        if np.abs(euu).max() > 1e-9 * magnitude:
            raise InvalidDeviationError(f"{E.label}: E(u,u) != 0 at u={u}")
        pairing = float((euv - euw) @ (v - w))
        if pairing >= 1e-12 * magnitude:
            raise InvalidDeviationError(
                f"{E.label}: second section not strictly monotone "
                f"decreasing: (E(u,v)-E(u,w))(v-w) = {pairing}"
            )
        sign_pairing = float(euv @ (u - v))
        if np.linalg.norm(u - v) > 1e-9 and sign_pairing <= 0.0:
            raise InvalidDeviationError(
                f"{E.label}: sign pairing E(u,v)(u-v) = {sign_pairing} <= 0"
            )


def _outcome(build) -> str:
    try:
        build()
    except MeansError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "accepted"


# ---- Generated families with planted failures ---------------------------------

_WINDOWS = [(-1.0, 1.0), (-2.0, 2.0), (0.5, 3.0), (-1e-9, 1e-9), (1e6, 1e6 + 1.0)]
_SIZES = [0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 0.1, 10.0]


@st.composite
def _bases(draw):
    """(d, F, grad_v F): a quadratic (v-u)'A(v-u), A = BB' + shift I, or a
    quartic c |v-u|^4, as plain numpy callables."""
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        B = np.array(draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.3, 1.0, 2.0]),
                                   min_size=d * d, max_size=d * d))).reshape(d, d)
        A = B @ B.T + draw(st.sampled_from([0.0, 1e-3, 0.5])) * np.eye(d)

        def feval(u, v, A=A):
            diff = v - u
            return float(diff @ A @ diff)

        def fgrad(u, v, A=A):
            return 2.0 * A @ (v - u)
    else:
        c = draw(st.sampled_from([0.1, 1.0, 3.0]))

        def feval(u, v, c=c):
            diff = v - u
            return c * float(diff @ diff) ** 2

        def fgrad(u, v, c=c):
            diff = v - u
            return 4.0 * c * float(diff @ diff) * diff
    return d, feval, fgrad


_POTENTIAL_FAULTS = ["none", "diagonal", "convexity", "grad_v", "central", "grad-not-finite",
                     "eval-nan-strip"]


@st.composite
def _potential_cases(draw):
    d, feval, fgrad = draw(_bases())
    low, high = draw(st.sampled_from(_WINDOWS))
    fault = draw(st.sampled_from(_POTENTIAL_FAULTS))
    size = draw(st.sampled_from(_SIZES))
    k = draw(st.integers(0, vector._VALIDATION_SAMPLES - 1))
    return d, feval, fgrad, low, high, fault, size, k


def _planted_potential(case):
    """(dim, eval, grad_v or None, window) with the case's fault planted."""
    d, feval, fgrad, low, high, fault, size, k = case
    ev, gv = feval, fgrad
    if fault == "diagonal":
        gv = lambda u, v: fgrad(u, v) + size  # noqa: E731
    elif fault == "convexity":
        # Minus size times the first coordinate squared, with its gradient.
        ev = lambda u, v: feval(u, v) - size * (v[0] - u[0]) ** 2  # noqa: E731

        def gv(u, v):
            g = np.array(fgrad(u, v), dtype=float)
            g[0] -= 2.0 * size * (v[0] - u[0])
            return g
    elif fault == "grad_v":
        gv = lambda u, v: (1.0 + size) * fgrad(u, v)  # noqa: E731
    elif fault == "central":
        gv = None
    elif fault == "grad-not-finite":
        cut = low + (high - low) * min(size, 1.0)
        bad = math.inf if size < 1e-6 else math.nan

        def gv(u, v):
            g = np.array(fgrad(u, v), dtype=float)
            if v[0] > cut:
                g[-1] = bad
            return g
    elif fault == "eval-nan-strip":
        # NaN on (c, c + 2h) above the k-th drawn v: that sample's forward
        # probe lands in it, the sample itself does not.
        rng = np.random.default_rng(vector._VALIDATION_SEED + 1)
        rng.uniform(low, high, (vector._VALIDATION_SAMPLES, d))
        c = float(rng.uniform(low, high, (vector._VALIDATION_SAMPLES, d))[k, 0])
        width = 12e-6 * (1.0 + abs(c))
        ev = lambda u, v: math.nan if c < v[0] < c + width else feval(u, v)  # noqa: E731
    return d, ev, gv, low, high


def _potential_outcomes(case) -> tuple[str, str]:
    d, ev, gv, low, high = _planted_potential(case)

    def build():
        return PotentialFn(dim=d, eval=ev, grad_v=gv, label="planted",
                           sample_low=low, sample_high=high)

    new = _outcome(build)
    F = PotentialFn(dim=d, eval=ev, grad_v=gv, label="planted", sample_low=low,
                    sample_high=high, validate=False)
    ref_grad = gv if gv is not None else (
        lambda u, v: _ref_fd_grad(ev, np.asarray(u, float), np.asarray(v, float)))
    return new, _outcome(lambda: _ref_potential_check(F, ref_grad))


_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                     phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
                     report_multiple_bugs=False)


@_SETTINGS
@given(_potential_cases())
def test_potential_checks_agree_with_the_numpy_loop(case):
    new, reference = _potential_outcomes(case)
    assert new == reference


_GEN_FAULTS = ["none", "diagonal", "monotone", "rotation", "not-finite", "wrong-dim"]


@st.composite
def _gen_cases(draw):
    d, feval, fgrad = draw(_bases())
    low, high = draw(st.sampled_from(_WINDOWS))
    fault = draw(st.sampled_from(_GEN_FAULTS))
    size = draw(st.sampled_from(_SIZES))
    if fault == "rotation":
        d = max(d, 2)
    return d, feval, fgrad, low, high, fault, size, draw(st.booleans())


def _planted_deviation(case):
    """(dim, eval, window) with the case's fault planted on E = -grad_v F."""
    d, feval, fgrad, low, high, fault, size, _ = case
    if fault == "rotation":
        # E(u, v) = J (u - v) + size (u - v): the pairings are rounding errors
        # at size 0, and the float sums may differ from numpy's dot there.
        def ev(u, v):
            diff = u - v
            out = size * diff
            out[0] -= diff[1]
            out[1] += diff[0]
            return out
        return d, ev, low, high
    ev = lambda u, v: -np.asarray(fgrad(u, v), dtype=float)  # noqa: E731
    if fault == "diagonal":
        return d, (lambda u, v: ev(u, v) + size), low, high
    if fault == "monotone":
        # Less size (u - v) in the first coordinate, and in all of them for u
        # in the upper half: not monotone once size outweighs A.
        def bent(u, v):
            e = ev(u, v)
            e[0] -= size * (u[0] - v[0])
            return e - size * (u - v) * (u[0] > 0.5 * (low + high))
        return d, bent, low, high
    if fault == "not-finite":
        cut = low + (high - low) * min(size, 1.0)

        def spoiled(u, v):
            e = ev(u, v)
            if u[-1] > cut:
                e[0] = math.inf if size < 1e-6 else math.nan
            return e
        return d, spoiled, low, high
    if fault == "wrong-dim":
        return d, (lambda u, v: np.append(ev(u, v), 0.0)), low, high
    return d, ev, low, high


def _gen_outcomes(case) -> tuple[str, str]:
    """(new, reference) outcomes of the case's deviation, built directly or,
    as E = -grad_v F, through ``make_potential_deviation``."""
    d, ev, low, high = _planted_deviation(case)
    if case[-1]:
        F = PotentialFn(dim=d, eval=lambda u, v: 0.0, grad_v=lambda u, v: -ev(u, v),
                        label="planted", sample_low=low, sample_high=high, validate=False)
        # make_potential_deviation samples the axioms of a validated
        # potential only; its own check is not the one under test here.
        object.__setattr__(F, "validate", True)
        E = vector._potential_deviation(F)

        def reference():
            try:
                _ref_gen_loop(E)
            except InvalidDeviationError as exc:
                raise InvalidPotentialError(str(exc)) from exc
        return _outcome(lambda: make_potential_deviation(F)), _outcome(reference)
    E = GenDeviation(dim=d, eval=ev, label="planted", sample_low=low, sample_high=high,
                     validate=False)
    new = _outcome(lambda: GenDeviation(dim=d, eval=ev, label="planted",
                                        sample_low=low, sample_high=high))
    return new, _outcome(lambda: _ref_gen_loop(E))


@_SETTINGS
@given(_gen_cases())
def test_deviation_checks_agree_with_the_numpy_loop(case):
    new, reference = _gen_outcomes(case)
    assert new == reference


def _quadratic(d):
    """(d, F, grad_v F) for F(u, v) = |v - u|^2."""
    return d, lambda u, v: float((v - u) @ (v - u)), lambda u, v: 2.0 * (v - u)


@pytest.mark.parametrize("fault,size,expected", [
    ("none", 0.0, "accepted"),
    ("diagonal", 1e-3, "gradient does not vanish on the diagonal"),
    ("convexity", 10.0, "section not strictly convex"),
    ("grad_v", 1e-3, "grad_v disagrees with finite differences"),
    ("central", 0.0, "accepted"),
    ("grad-not-finite", 0.5, "is not finite at"),
    ("eval-nan-strip", 0.0, "finite differences of F(u,.) are not finite"),
])
def test_each_potential_branch_is_planted(fault, size, expected):
    new, reference = _potential_outcomes((*_quadratic(2), -2.0, 2.0, fault, size, 5))
    assert new == reference
    assert expected in new


@pytest.mark.parametrize("via_potential", [False, True], ids=["direct", "potential"])
@pytest.mark.parametrize("fault,size,expected", [
    ("none", 0.0, "accepted"),
    ("diagonal", 1e-3, "E(u,u) != 0"),
    ("monotone", 10.0, "second section not strictly monotone"),
    ("rotation", 0.0, "sign pairing"),
    ("not-finite", 0.5, "E(u,u) is not finite"),
    ("wrong-dim", 0.0, "covector dimension 3 != 2"),
])
def test_each_deviation_branch_is_planted(fault, size, expected, via_potential):
    new, reference = _gen_outcomes((*_quadratic(2), -2.0, 2.0, fault, size, via_potential))
    assert new == reference
    assert expected in new


def _unclear(a, b, threshold):
    """Rows whose float sum is too close to the threshold to decide."""
    terms = a * b
    return ~(np.abs(terms.sum(axis=1) - threshold)
             > 1e-12 * np.abs(terms).sum(axis=1) + 1e-300)


def test_sums_near_a_threshold_are_left_to_numpy():
    # A rotation's pairings are rounding errors: the float sums are too close
    # to their thresholds to decide, and numpy's dot decides as before.
    unclear = []
    real_row_dots = vector._row_dots

    def recording(a, b, threshold):
        out = real_row_dots(a, b, threshold)
        rows = np.flatnonzero(_unclear(a, b, threshold))
        unclear.extend(rows)
        for k in rows:
            assert out[k] == a[k] @ b[k] or (np.isnan(out[k]) and np.isnan(a[k] @ b[k]))
        return out

    for d in (2, 3, 4):
        with mock.patch.object(vector, "_row_dots", recording):
            new, reference = _gen_outcomes((*_quadratic(d), -2.0, 2.0, "rotation", 0.0, False))
        assert new == reference
    assert unclear


def test_a_side_decided_in_floats_is_numpys():
    # Dot products that cancel to rounding level: numpy's BLAS may sum them
    # to another sign, so _row_dots must leave every such one to numpy.
    rng = np.random.default_rng(3)
    undecided = 0
    for _ in range(2000):
        d = int(rng.integers(2, 5))
        a, b = rng.standard_normal(d), rng.standard_normal(d)
        a[-1] = -float(a[:-1] @ b[:-1]) / b[-1]
        side = np.sign(vector._row_dots(a[None], b[None], 0.0)[0])
        dot = float(a @ b)
        assert side == np.sign(dot)
        undecided += int(_unclear(a[None], b[None], 0.0)[0])
    assert undecided > 0


def test_apart_is_numpys_norm_test():
    # Differences whose squared norm lies within a few ulps of 1e-18, where a
    # float sum of squares and numpy's norm can fall on either side.
    rng = np.random.default_rng(5)
    for _ in range(20000):
        d = int(rng.integers(2, 5))
        x = rng.uniform(0.1, 1.0, d - 1) * 1e-9 / math.sqrt(d)
        last = math.sqrt(1e-18 - float(x @ x)) * (1.0 + float(rng.integers(-3, 4)) * 1.1e-16)
        a = np.append(x, last)
        assert vector._separated(a[None])[0] == bool(np.linalg.norm(a) > 1e-9)


# ---- The two new rejections, the shared differences, point_vars ---------------

def test_a_gradient_that_is_not_finite_is_named():
    with pytest.raises(InvalidPotentialError,
                       match=r"^spoiled: grad_v\(u,u\) is not finite at u=\[") as info:
        PotentialFn(dim=2, eval=lambda u, v: float((v - u) @ (v - u)),
                    grad_v=lambda u, v: [math.inf, 0.0], label="spoiled")
    assert "covector entries" not in str(info.value)
    F = PotentialFn(dim=2, eval=lambda u, v: float((v - u) @ (v - u)),
                    grad_v=lambda u, v: [math.inf, 0.0], label="spoiled", validate=False)
    with pytest.raises(InvalidPotentialError,
                       match=r"^deviation of spoiled: E\(u,u\) is not finite at u=\["):
        object.__setattr__(F, "validate", True)
        make_potential_deviation(F)


def test_a_potential_value_that_is_not_finite_is_named():
    # F is NaN above 0.5: the convexity test compared NaN and reported a
    # section that is not strictly convex between [0.62704152] and
    # [0.19306243]; the value is now named as not finite at that sample.
    def feval(u, v):
        return math.nan if v[0] > 0.5 else float((v[0] - u[0]) ** 2)

    with pytest.raises(InvalidPotentialError) as info:
        PotentialFn(dim=1, eval=feval, grad_v=lambda u, v: 2.0 * (v - u))
    assert str(info.value) == ("potential: F(u,.) is not finite at u=[0.24855972] "
                               "between [0.62704152] and [0.19306243]")


def test_a_nan_finite_difference_is_rejected():
    # F(u, v) = (v - u)^2, NaN only on (v0, v0 + 1e-3) for v0 the first drawn
    # v: the forward probe of that sample lands there, nothing else does.
    rng = np.random.default_rng(vector._VALIDATION_SEED + 1)
    rng.uniform(-1.0, 1.0, (vector._VALIDATION_SAMPLES, 1))
    vs = rng.uniform(-1.0, 1.0, (vector._VALIDATION_SAMPLES, 1))
    v0 = float(vs[0, 0])

    def feval(u, v):
        return math.nan if v0 < v[0] < v0 + 1e-3 else float((v[0] - u[0]) ** 2)

    def fgrad(u, v):
        return [2.0 * (v[0] - u[0])]

    F = PotentialFn(dim=1, eval=feval, grad_v=fgrad, label="strip", validate=False)
    assert np.isnan(vector._fd_grad(feval, np.array([0.0]), vs[0])).all()
    # The agreement test compared NaN and passed: the numpy loop without
    # the new rejection accepts.
    _ref_potential_check(F, fgrad, reject_nan_fd=False)
    with pytest.raises(InvalidPotentialError,
                       match=r"^strip: finite differences of F\(u,\.\) are not finite at"):
        PotentialFn(dim=1, eval=feval, grad_v=fgrad, label="strip")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_custom_potential_computes_its_differences_once(d):
    # Per sample: 2d evaluations for grad_v(u, u), 2d for grad_v(u, v), which
    # are also the finite differences, and 3 for the convexity test.
    calls = [0]
    bind = Expression.bind

    def counting_bind(self, names):
        fn = bind(self, names)

        def counted(*args):
            calls[0] += 1
            return fn(*args)
        return counted

    terms = " + ".join(f"(v{i + 1} - u{i + 1})^2" for i in range(d))
    with mock.patch.object(Expression, "bind", counting_bind):
        build_custom_potential(terms, d)
    assert calls[0] == vector._VALIDATION_SAMPLES * (4 * d + 3)


def test_central_differences_keep_every_probe_bit():
    v = np.array([-0.0, 1.5, -2.25, 0.0])
    for fn in (lambda w: float(w @ w) + math.copysign(1.0, w[0]),
               lambda w: np.array([w[0] * w[1], math.copysign(w[3], w[0]) + w[2] ** 3])):
        seen, ref_seen = [], []
        out = vector._central_differences(lambda w: seen.append(w.tobytes()) or fn(w), v)
        ref = _ref_central_differences(lambda w: ref_seen.append(w.tobytes()) or fn(w), v)
        assert seen == ref_seen
        assert out.tobytes() == ref.tobytes() and out.shape == ref.shape


@pytest.mark.parametrize("point", [[1.0, 2.5, -3.0], (1.0, 2.5, -3.0),
                                   np.array([1.0, 2.5, -3.0]), np.array([1, 2, -3])],
                         ids=["list", "tuple", "float-array", "int-array"])
def test_point_vars_gives_python_floats(point):
    env = point_vars("u", point)
    assert list(env) == ["u1", "u2", "u3"]
    assert [type(x) for x in env.values()] == [float] * 3
    assert list(env.values()) == [float(c) for c in point]
