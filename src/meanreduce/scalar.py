"""Deviation functions on intervals and the means they generate.

A deviation is a two-place function E on an interval with E(u, u) = 0 whose
second-argument sections are continuous and strictly decreasing; the
deviation mean of a tuple x is the unique root y of

    E_1(x_1, y) + ... + E_n(x_n, y) = 0

inside [min(x), max(x)].  The root always exists because the summed section
is strictly decreasing with opposite signs at the endpoints, so the solver is
the bracketed search of ``core.bracketed_root``: Chandrupatla's step
(Adv. Eng. Software 28(3), 1997) inside ITP's projection (Oliveira &
Takahashi, ACM TOMS 2020).  Like bisection it keeps a sign change bracketed
and needs nothing beyond continuity and monotonicity; it never takes more
than one step over bisection's count, and on smooth sections it converges
superlinearly.

Classical families (Bajraktarevic, Matkowski, Gini, Holder / power means,
quasi-arithmetic means) are provided in closed form; they double as oracles
for the root-finding path in the test suite.

Every deviation mean, a classical family's included, is solved through the
same summed section: each deviation's ``eval`` at the fixed data points.

Deviation axioms cannot be proven for arbitrary callables, so constructors
check them on 64 randomized samples unless ``validate=False``; strictness
remains sampled, not proven.  A check evaluates, then judges: one verdict
function per family decides on arrays of values.  A builder that holds a
numpy form of the callback (see :mod:`meanreduce.expr`) passes it to the
check, which evaluates all samples in one call and may accept from those
values alone; otherwise the callback's own values, sample by sample, are
judged, and every rejection comes from them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import (
    BATCH_MARGIN,
    DEFAULT_CONFIG,
    Interval,
    POSITIVE_REALS,
    REALS,
    SolverConfig,
    SolverReport,
    as_point_tuple,
    batch_values,
    bracketed_root,
    first_failure,
    judge_samples,
    not_finite,
    running_magnitude,
    sample_triples,
    scaled_width,
    wide_fsum,
    wide_uniform,
)
from .errors import (
    DomainError,
    InvalidArgumentError,
    InvalidDeviationError,
    NoConvergenceError,
)

_VALIDATION_SAMPLES = 64
_VALIDATION_SEED = 20240901


def _sample_window(domain: Interval, rng: np.random.Generator, count: int) -> np.ndarray:
    lo, hi = domain.finite_window()
    return wide_uniform(rng, lo, hi, count)


def _weight_verdict(us: np.ndarray, values, clear: bool = False) -> Optional[str]:
    """WeightFn's verdict on the first len(w) samples, for (w,) = values:
    w(u) finite and above 0, or BATCH_MARGIN times the largest for
    ``clear``."""
    (w,) = values
    arr = np.asarray(w, dtype=float)
    floor = BATCH_MARGIN * np.abs(arr).max() if clear else 0.0
    return first_failure([(np.isfinite(arr) & (arr > floor),
                           lambda k: f"weight function is not positive at u={us[k]}: {w[k]}")])


def _deviation_verdict(label: str, us: np.ndarray, vs: np.ndarray, ws: np.ndarray,
                       span: float, values, clear: bool = False) -> Optional[str]:
    """ScalarDeviation's verdict on the first len(duu) samples, for (duu,
    duv, duw) = values, the E(u,u), E(u,v), E(u,w): |E(u,u)| <= 1e-9 m, for
    m the running magnitude max(1, |E(u,v)|, |E(u,w)|); where |v - w| > 1e-9
    span, E(u, min) > E(u, max) - 1e-12 m, unless both overflowed to one
    infinity, which orders nothing; where |u - v| > 1e-9 span, E(u,v) (u -
    v) > 0.  ``clear`` asks for BATCH_MARGIN m more."""
    duu, duv, _ = values  # as returned, for the messages
    euu, euv, euw = np.asarray(values, dtype=float)
    us, vs, ws = us[:len(duu)], vs[:len(duu)], ws[:len(duu)]
    # lo_e - hi_e may overflow to inf, and NaN values compare false.
    with np.errstate(all="ignore"):
        magnitude = running_magnitude(np.abs(euv), np.abs(euw))
        slack = BATCH_MARGIN * magnitude if clear else 0.0
        ordered = vs < ws
        lo_e, hi_e = np.where(ordered, euv, euw), np.where(ordered, euw, euv)
        gap = us - vs
        dist = np.abs(gap)
        return first_failure([
            (np.abs(euu) <= 1e-9 * magnitude - slack,
             lambda k: f"{label}: E(u,u) = {duu[k]} != 0 at u={us[k]}"),
            (~(np.abs(vs - ws) > 1e-9 * span) | (lo_e - (hi_e - 1e-12 * magnitude) > slack)
             | ((lo_e == hi_e) & np.isinf(lo_e)),
             lambda k: (f"{label}: section not strictly decreasing on "
                        f"({us[k]}; {min(vs[k], ws[k])}, {max(vs[k], ws[k])})")),
            (~(dist > 1e-9 * span) | ~(euv * gap <= slack * dist),
             lambda k: f"{label}: sign property fails at (u,v)=({us[k]},{vs[k]}): E={duv[k]}"),
        ])


@dataclass(frozen=True)
class WeightFn:
    """A positive weight function on an interval."""

    eval: Callable[[float], float]
    domain: Interval = REALS
    validate: bool = True

    def __post_init__(self):
        if self.validate:
            self._check()

    def _check(self, batch: Optional[Callable] = None):
        """Positivity on 64 samples, judged by ``_weight_verdict`` on the
        values of ``batch``, a numpy form of ``eval``, or else of ``eval``."""
        rng = np.random.default_rng(_VALIDATION_SEED)
        us = _sample_window(self.domain, rng, _VALIDATION_SAMPLES)
        w = None if batch is None else batch_values(batch, (us,), us.shape)
        judge_samples(partial(_weight_verdict, us), None if w is None else (w,),
                      self.eval, lambda: ((u,) for u in us.tolist()), 1, InvalidArgumentError)

    def __call__(self, u: float) -> float:
        return self.eval(u)


def constant_weight(c: float, domain: Interval = REALS) -> WeightFn:
    if not c > 0:
        raise InvalidArgumentError("constant weight must be positive")
    return WeightFn(eval=lambda u, c=float(c): c, domain=domain, validate=False)


def power_weight(q: float, domain: Interval = POSITIVE_REALS) -> WeightFn:
    return WeightFn(eval=lambda u, q=float(q): u ** q, domain=domain, validate=False)


@dataclass(frozen=True)
class GeneratorFn:
    """A strictly increasing continuous function together with its inverse."""

    eval: Callable[[float], float]
    inverse: Callable[[float], float]
    domain: Interval = REALS
    validate: bool = True

    def __post_init__(self):
        if self.validate:
            rng = np.random.default_rng(_VALIDATION_SEED + 1)
            us = np.sort(_sample_window(self.domain, rng, _VALIDATION_SAMPLES))
            prev_u, prev_f = None, None
            for u in us:
                u = float(u)
                fu = self.eval(u)
                if not math.isfinite(fu):
                    raise InvalidArgumentError(f"generator not finite at u={u}")
                if prev_f is not None and u > prev_u and not fu > prev_f:
                    raise InvalidArgumentError(
                        f"generator is not strictly increasing between {prev_u} and {u}"
                    )
                back = self.inverse(fu)
                if abs(back - u) > 1e-10 * (1.0 + abs(u)):
                    raise InvalidArgumentError(
                        f"generator inverse round-trip failed at u={u}: got {back}"
                    )
                prev_u, prev_f = u, fu

    def __call__(self, u: float) -> float:
        return self.eval(u)


def _expand_bracket(fn: Callable[[float], float], t: float, x: float, fx: float,
                    end: float, is_open: bool, step: float, below: bool) -> tuple[float, float]:
    """Move the bracket end x toward the endpoint ``end`` until fn(x) <= t
    (``below``) or fn(x) >= t: doubling steps toward an infinite endpoint
    until x is no longer finite, halving the distance to a finite one until
    x stops moving."""
    while True:
        if fx <= t if below else fx >= t:
            return x, fx
        if math.isinf(end):
            x = x - step if below else x + step
            step *= 2.0
            if math.isinf(x):
                break
        else:
            nxt = 0.5 * (x + end)
            if is_open and (nxt <= end if below else nxt >= end):
                break
            if nxt == x:
                # At a closed endpoint, or next to one: nothing left to try.
                break
            x = nxt
        fx = fn(x)
    raise DomainError(f"target {t} {'below' if below else 'above'} the generator's range")


def numeric_inverse(fn: Callable[[float], float], domain: Interval,
                    cfg: SolverConfig = DEFAULT_CONFIG) -> Callable[[float], float]:
    """Invert a strictly increasing function by bracket expansion and
    ``core.bracketed_root``.

    The bracket starts from the domain's finite window and grows outward
    (geometrically toward infinite endpoints, by endpoint-halving toward open
    finite ones) until it straddles the target value; ``core.bracketed_root``
    then narrows it with bisection's worst case plus one step.
    """
    lo0, hi0 = domain.finite_window()

    def inverse(t: float, fn=fn, domain=domain, cfg=cfg, lo0=lo0, hi0=hi0) -> float:
        step = (hi0 - lo0) or 1.0
        fa, fb = fn(lo0), fn(hi0)
        a, fa = _expand_bracket(fn, t, lo0, fa, domain.lo, domain.lo_open, step, True)
        b, fb = _expand_bracket(fn, t, hi0, fb, domain.hi, domain.hi_open, step, False)
        if fa == t:
            return a
        if fb == t:
            return b
        # Inverses feed round-trip checks at 1e-10; narrow to near machine
        # resolution.  Terms are halved (exactly) before sums that could
        # overflow near the largest float.
        root = bracketed_root(
            lambda u: fn(u) - t, a, b, fa - t, fb - t, 1e-14, cfg.max_iter,
            done=lambda u, fu, lo, hi: (0.5 * (hi - lo)
                                        <= 1e-14 * (0.5 + 0.5 * abs(lo) + 0.5 * abs(hi))))
        if not root.converged:
            raise NoConvergenceError("generator inversion exhausted its iteration budget")
        return 0.5 * root.a + 0.5 * root.b

    return inverse


def _identity(u: float) -> float:
    return u


def identity_generator(domain: Interval = REALS) -> GeneratorFn:
    return GeneratorFn(eval=_identity, inverse=_identity, domain=domain, validate=False)


def log_generator() -> GeneratorFn:
    return GeneratorFn(eval=math.log, inverse=math.exp, domain=POSITIVE_REALS, validate=False)


def exp_generator(domain: Interval = REALS) -> GeneratorFn:
    return GeneratorFn(eval=math.exp, inverse=math.log, domain=domain, validate=False)


def power_generator(p: float, domain: Interval = POSITIVE_REALS) -> GeneratorFn:
    """u -> u**p on the positive axis; strictly increasing needs p > 0."""
    if not p > 0:
        raise InvalidArgumentError("power generator requires a positive exponent")
    return GeneratorFn(
        eval=lambda u, p=p: u ** p,
        inverse=lambda t, p=p: t ** (1.0 / p),
        domain=domain,
        validate=False,
    )


@dataclass(frozen=True)
class ScalarDeviation:
    """A deviation function E(u, v) on an interval.

    Axioms checked on randomized triples at construction unless
    ``validate=False``: E(u, u) = 0, the sections v -> E(u, v) strictly
    decrease, and sgn E(u, v) = sgn(u - v).  The solvers read only ``eval``.
    """

    domain: Interval
    eval: Callable[[float, float], float]
    label: str = "deviation"
    validate: bool = True

    def __post_init__(self):
        if self.validate:
            self._check_axioms()

    def _check_axioms(self, batch: Optional[Callable] = None):
        """The axioms on 64 sampled triples (u, v, w), judged by
        ``_deviation_verdict`` on the values of ``batch``, a numpy form of
        ``eval``, or else of ``eval`` on floats (see ``judge_samples``)."""
        rng = np.random.default_rng(_VALIDATION_SEED + 2)
        us, vs, ws = (_sample_window(self.domain, rng, _VALIDATION_SAMPLES) for _ in range(3))
        # On Python floats a span past the float range is inf, with no
        # warning; capped, it still gates the monotonicity and sign tests.
        span = min(float(us.max()) - float(us.min()) + 1.0, sys.float_info.max)
        judge_samples(partial(_deviation_verdict, self.label, us, vs, ws, span),
                      None if batch is None else sample_triples(batch, us, vs, ws), self.eval,
                      lambda: ((u, x) for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist())
                               for x in (u, v, w)), 3, InvalidDeviationError)

    def __call__(self, u: float, v: float) -> float:
        return self.eval(u, v)


@dataclass(frozen=True)
class DeviationTuple:
    """A tuple of deviations sharing one interval."""

    deviations: tuple[ScalarDeviation, ...]
    common_domain: Interval = field(init=False)

    def __post_init__(self):
        devs = tuple(self.deviations)
        object.__setattr__(self, "deviations", devs)
        if len(devs) == 0:
            raise InvalidArgumentError("deviation tuple must be nonempty")
        dom = devs[0].domain
        for d in devs[1:]:
            if d.domain != dom:
                raise InvalidArgumentError("all deviations must share one domain")
        object.__setattr__(self, "common_domain", dom)

    def __len__(self) -> int:
        return len(self.deviations)

    def __iter__(self):
        return iter(self.deviations)

    def __getitem__(self, i):
        return self.deviations[i]


def as_deviation_tuple(E) -> DeviationTuple:
    if isinstance(E, DeviationTuple):
        return E
    return DeviationTuple(tuple(E))


def _check_in_domain(domain: Interval, values, what: str):
    for v in values:
        if float(v) not in domain:
            raise InvalidArgumentError(f"{what} {v} outside the domain {domain}")


def e_sum(E, x: Sequence[float], u: float) -> float:
    """The summed deviation sum_i E_i(x_i, u)."""
    E = as_deviation_tuple(E)
    if len(x) != len(E):
        raise InvalidArgumentError(f"tuple length {len(x)} != deviation count {len(E)}")
    _check_in_domain(E.common_domain, x, "data value")
    _check_in_domain(E.common_domain, (u,), "evaluation point")
    return math.fsum(d.eval(float(xi), u) for d, xi in zip(E.deviations, x))


def deviation_mean(E, x: Sequence[float], cfg: SolverConfig = DEFAULT_CONFIG) -> SolverReport:
    """Solve sum_i E_i(x_i, y) = 0 on [min(x), max(x)] by ``core.bracketed_root``.

    The search takes at most one step more than bisection would and
    needs only continuity and monotonicity of the sections.  The summed
    section decreases strictly from a nonnegative value at min(x) to a
    nonpositive value at max(x); a sign anomaly at the bracket endpoints or a
    value outside the range of the bracket's end values during the search
    raises InvalidDeviationError.  Exhausting the iteration budget returns a
    non-converged report with the last iterate.
    """
    E = as_deviation_tuple(E)
    if len(x) != len(E):
        raise InvalidArgumentError(f"tuple length {len(x)} != deviation count {len(E)}")
    xs = [float(v) for v in x]
    _check_in_domain(E.common_domain, xs, "data value")
    a, b = min(xs), max(xs)
    if a == b:
        return SolverReport(value=a, residual=0.0, iterations=0, converged=True)

    f = _summed_section(E, xs)

    fa = f(a)
    fb = f(b)
    neg_guard = cfg.abs_tol + 1e-12 * (1.0 + abs(fa) + abs(fb))
    if fa < -neg_guard:
        raise InvalidDeviationError(
            f"summed deviation is negative at the lower bracket endpoint: {fa}"
        )
    if fb > neg_guard:
        raise InvalidDeviationError(
            f"summed deviation is positive at the upper bracket endpoint: {fb}"
        )
    if fa <= 0.0:
        return SolverReport(value=a, residual=abs(fa), iterations=0, converged=True)
    if fb >= 0.0:
        return SolverReport(value=b, residual=abs(fb), iterations=0, converged=True)

    root = bracketed_root(f, a, b, fa, fb, scaled_width(cfg.rel_tol, a, b) + cfg.abs_tol,
                          cfg.max_iter, check=_check_monotone,
                          done=lambda y, fy, lo, hi, tol=cfg.abs_tol: abs(fy) <= tol)
    return SolverReport(value=root.x, residual=abs(root.fx), iterations=root.iterations,
                        converged=root.converged)


def _check_monotone(y: float, fy: float, a: float, fa: float, b: float, fb: float):
    guard = 1e-9 * (1.0 + abs(fa) + abs(fb) + abs(fy))
    if fy > fa + guard or fy < fb - guard:
        raise InvalidDeviationError(
            f"summed deviation is not monotone: f({a})={fa}, f({y})={fy}, f({b})={fb}"
        )


def _summed_section(E: DeviationTuple, xs: list) -> Callable[[float], float]:
    """The map y -> sum_i E_i(x_i, y) with x fixed, through each deviation's
    ``eval``.

    Classical families are summed here too, so that their closed forms stay
    independent oracles for this path.  A sum beyond the float range is an
    infinity of its sign (``core.wide_fsum``): only its sign moves the
    bracket.
    """
    evals = [d.eval for d in E.deviations]
    return lambda y, evals=evals, xs=xs: wide_fsum([ev(xi, y) for ev, xi in zip(evals, xs)])


def deviation_sign(E, x: Sequence[float], u: float,
                   cfg: SolverConfig = DEFAULT_CONFIG) -> int:
    """Sign of the summed deviation at u: +1, 0, or -1.

    Equals sgn(deviation_mean(E, x) - u) wherever the summed section does not
    vanish.
    """
    s = e_sum(E, x, u)
    if s > 0.0:
        return 1
    if s < 0.0:
        return -1
    return 0


def make_bajraktarevic_deviation(f: GeneratorFn, w: WeightFn,
                                 label: Optional[str] = None) -> ScalarDeviation:
    """The deviation E(u, v) = w(u) * (f(u) - f(v)).

    The axioms follow from f strictly increasing and w positive, so the
    sampled re-check is skipped.  ``deviation_mean`` sums these deviations
    like any other; ``bajraktarevic_mean`` is the independent closed form.
    """
    if f.domain != w.domain:
        raise InvalidArgumentError("generator and weight must share one domain")
    return ScalarDeviation(
        domain=f.domain,
        eval=lambda u, v, f=f.eval, w=w.eval: w(u) * (f(u) - f(v)),
        label=label or "bajraktarevic",
        validate=False,
    )


def bajraktarevic_mean(f: GeneratorFn, w: Sequence[WeightFn], x: Sequence[float]) -> float:
    """f^{-1}( sum_i w_i(x_i) f(x_i) / sum_i w_i(x_i) ).

    This is the closed form of the deviation mean generated by the deviations
    w_i(u)(f(u) - f(v)).  The weighted average of f-values is clamped into the
    hull of the sampled f-values to guard against rounding before inversion.
    """
    if len(w) != len(x):
        raise InvalidArgumentError(f"weight count {len(w)} != tuple length {len(x)}")
    if len(x) == 0:
        raise InvalidArgumentError("empty tuple")
    xs = [float(v) for v in x]
    _check_in_domain(f.domain, xs, "data value")
    weights = [wi(xi) for wi, xi in zip(w, xs)]
    for wi, xi in zip(weights, xs):
        if not wi > 0:
            raise InvalidArgumentError(f"weight {wi} not positive at {xi}")
    return _invert_average(f, xs, weights)


def _invert_average(f: GeneratorFn, xs: list, weights: Optional[list]) -> float:
    """f^{-1}(average(f-values of xs, weights)), the tail that
    ``bajraktarevic_mean`` and ``quasi_arithmetic_mean`` (weights None)
    share: the average is clamped into the hull of the f-values, its inverse
    checked against the generator domain and clamped into the hull of xs.  A
    generator that overflows on the data raises DomainError."""
    try:
        fw = [f.eval(xi) for xi in xs]
    except OverflowError as exc:
        raise DomainError(f"generator overflows on the data {xs}: {exc}") from None
    t = average(fw, weights)
    t = min(max(t, min(fw)), max(fw))
    y = f.inverse(t)
    if not math.isfinite(y) or (y not in f.domain and not _near_domain(y, f.domain)):
        raise DomainError(f"inverted value {y} escapes the generator domain")
    return min(max(y, min(xs)), max(xs))


def _near_domain(y: float, domain: Interval, slack: float = 1e-9) -> bool:
    lo, hi = domain.lo, domain.hi
    scale = 1.0 + abs(y)
    return (lo - slack * scale) <= y <= (hi + slack * scale)


def quasi_arithmetic_mean(f: GeneratorFn, x: Sequence[float]) -> float:
    """f^{-1} of the plain average of f-values.

    This is the Bajraktarevic mean with unit weights, bit for bit, with the
    same errors in the same order, but no weight is built or called: the
    f-values are averaged as sum / n (``average`` with unit weights), and
    the clamps, the inverse and the domain check are ``bajraktarevic_mean``'s
    own (``_invert_average``).
    """
    if len(x) == 0:
        raise InvalidArgumentError("empty tuple")
    xs = [float(v) for v in x]
    _check_in_domain(f.domain, xs, "data value")
    return _invert_average(f, xs, None)


# Numpy forms of the closed forms, the ``MeanFn.batch`` hooks (see
# :class:`meanreduce.reduction.MeanFn`): each maps the rows of a (T, n)
# array to T values.  A form bounds, row by row, how far its value and the
# scalar form's can each lie from the exact value of the formula they share,
# in ulps of the value, and returns NaN where twice that bound exceeds the
# budget BATCH_MARGIN / 4 relative, where the scalar form raises, and outside
# the regime the scalar form computes directly.  So each finite value lies
# within BATCH_MARGIN / 4 times |eval| of the scalar form's value.
_EPS = sys.float_info.epsilon
_BATCH_ULPS = BATCH_MARGIN / (8.0 * _EPS)


def _budgeted(ok: np.ndarray, values: np.ndarray, ulps) -> np.ndarray:
    """values where ok, finite and within the budget of ulps, else NaN."""
    return np.where(ok & np.isfinite(values) & (ulps <= _BATCH_ULPS), values, np.nan)


def _clip(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``_clamp`` row by row (np.clip's result, at less overhead)."""
    return np.minimum(np.maximum(values, lo), hi)


def _inside(domain: Interval, X: np.ndarray) -> np.ndarray:
    """Whether every entry of a row of X lies in the domain, row by row."""
    lo_ok = (X > domain.lo) | ((X == domain.lo) & (not domain.lo_open))
    hi_ok = (X < domain.hi) | ((X == domain.hi) & (not domain.hi_open))
    return (lo_ok & hi_ok).all(axis=1)


# The named generators' numpy forms, keyed by their scalar (eval, inverse):
# the eval, the inverse and the inverse's derivative.
_NAMED_FORMS = {
    (math.log, math.exp): (np.log, np.exp, np.exp),
    (math.exp, math.log): (np.exp, np.log, np.reciprocal),
    (_identity, _identity): (np.positive, np.positive, np.ones_like),
}


def quasi_arithmetic_batch(f: GeneratorFn) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """The numpy form of ``quasi_arithmetic_mean(f, .)`` for the named
    generators (log, exp, identity), or None for any other generator."""
    forms = _NAMED_FORMS.get((f.eval, f.inverse))
    return None if forms is None else partial(_quasi_arithmetic_rows, forms, f.domain)


def _quasi_arithmetic_rows(forms: tuple, domain: Interval, X: np.ndarray) -> np.ndarray:
    """h(average of g over the row), clamped as ``_invert_average`` clamps,
    for the numpy forms (g, h, h') of a named generator: NaN for rows outside
    the domain or where an average or a value is not a normal float.  An
    average of n values off by (n + 2) eps times their mean magnitude moves
    the value by h' times that."""
    g, h, dh = forms
    n = X.shape[1]
    with np.errstate(all="ignore"):
        fw = g(X)
        t = _clip(fw.sum(axis=1) / n, fw.min(axis=1), fw.max(axis=1))
        y = _clip(h(t), X.min(axis=1), X.max(axis=1))
        ok = _inside(domain, X) & (np.abs(t) >= _NORMAL_MIN) & (np.abs(y) >= _NORMAL_MIN)
        ulps = (n + 2) * np.abs(dh(t)) * np.abs(fw).mean(axis=1) / np.abs(y) + 3
        return _budgeted(ok, y, ulps)


def matkowski_mean(f: Sequence[GeneratorFn], x: Sequence[float],
                   cfg: SolverConfig = DEFAULT_CONFIG) -> float:
    """(f_1 + ... + f_n)^{-1}(f_1(x_1) + ... + f_n(x_n)).

    The sum of the generators has no closed-form inverse in general, so it is
    inverted by ``core.bracketed_root`` on [min(x), max(x)], where the
    strictly increasing sum always straddles the target.  Every generator
    value is scaled by 2^-k, 2^k >= 2n, before it is summed, so that neither
    sum nor their difference can overflow; the scaling is exact for normal
    floats and leaves the root and every iterate as they are.  A generator
    that is not finite on the data, or overflows, raises DomainError.
    """
    if len(f) != len(x):
        raise InvalidArgumentError(f"generator count {len(f)} != tuple length {len(x)}")
    if len(x) == 0:
        raise InvalidArgumentError("empty tuple")
    dom = f[0].domain
    for fi in f[1:]:
        if fi.domain != dom:
            raise InvalidArgumentError("all generators must share one domain")
    xs = [float(v) for v in x]
    _check_in_domain(dom, xs, "data value")
    a, b = min(xs), max(xs)
    if a == b:
        return a
    evals = [fi.eval for fi in f]
    scale = math.ldexp(1.0, -(2 * len(xs) - 1).bit_length())
    try:
        values = [ev(xi) for ev, xi in zip(evals, xs)]
        if not all(map(math.isfinite, values)):
            raise DomainError(f"a generator is not finite on the data {xs}")
        target = math.fsum([scale * v for v in values])

        def g(y: float) -> float:
            return math.fsum([scale * ev(y) for ev in evals]) - target

        ga, gb = g(a), g(b)
        if ga >= 0.0:
            return a
        if gb <= 0.0:
            return b
        root = bracketed_root(g, a, b, ga, gb, scaled_width(cfg.rel_tol, a, b) + cfg.abs_tol,
                              cfg.max_iter)
    except OverflowError as exc:
        raise DomainError(f"a generator overflows on [{a}, {b}]: {exc}") from None
    mid = 0.5 * (root.a + root.b)
    if math.isinf(mid):
        mid = 0.5 * root.a + 0.5 * root.b
    if not root.converged:
        raise NoConvergenceError("matkowski mean inversion exhausted its iteration budget",
                                 best=mid, residual=root.b - root.a)
    return mid


_NORMAL_MIN = sys.float_info.min
_NORMAL_MAX = sys.float_info.max


def _check_positive(x) -> list:
    try:
        xs = [float(v) for v in x]
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"power-type means need a tuple of reals: {exc}") from None
    if not xs:
        raise InvalidArgumentError("empty tuple")
    for v in xs:
        if not 0.0 < v < math.inf:
            raise InvalidArgumentError("power-type means require strictly positive inputs")
    return xs


def _check_exponent(p, finite: bool = False) -> float:
    p = float(p)
    if math.isnan(p) or (finite and math.isinf(p)):
        raise InvalidArgumentError(
            f"mean exponent must be {'finite' if finite else 'a number'}, got {p}")
    return p


def _clamp(y: float, lo: float, hi: float) -> float:
    return lo if y < lo else hi if y > hi else y


def _exp_clamped(log_y: float, lo: float, hi: float) -> float:
    """exp(log_y) clamped to [lo, hi]; an overflowing exp means the value is
    hi up to rounding."""
    try:
        return _clamp(math.exp(log_y), lo, hi)
    except OverflowError:
        return hi


# Below this exponent gap a power x^d of a ratio x near 1 can lie so close
# to 1 that forming it rounds away what carries the mean (``_gini_anchored``).
_SMALL_GAP = 0.5


def _is_small_gap(d: float, lo, hi, log: Callable = math.log):
    """Whether the mean of exponent gap d on data in [lo, hi] is formed by
    the small-gap form of ``_gini_anchored``: 0 < d < _SMALL_GAP and d
    log(hi / lo) <= 1.  Each power x_i^d then lies within a factor e of
    every other, so the weighted mean of them cannot cancel.  Outside that
    range d > 1 / log(hi / lo), and the direct and log-sum forms lose no
    more than the 1/d power of a rounded sum costs.  With ``log=np.log``
    and arrays lo, hi it answers row by row: False, or an array of bools."""
    return 0.0 < d < _SMALL_GAP and d * (log(hi) - log(lo)) <= 1.0


def _gini_anchored(p: float, q: float, xs: list, lo: float, hi: float) -> float:
    """The Gini mean G(p, q) for p >= q, formed in logs anchored at the
    element a where the weights x^q peak: a = max x for q >= 0, a = min x
    for q < 0.  The l_i = log(x_i / a) then share one sign, every weight w_i
    = exp(q l_i) is at most 1 and a's own is 1, and weights that all sit on
    a give a exactly.  For d = p - q, r = log(G / a) is

    - where every |d l_i| is below 1e-290 (d = 0 included), the mean of l
      under the weights w: the d -> 0 limit, off by less than d max l^2 <=
      1e-287;
    - for a small gap (``_is_small_gap``), log1p(sum w expm1(d l) / sum w) /
      d: each expm1(d l_i) keeps the deviation of exp(d l_i) from 1 to full
      relative precision, the terms share a sign, and their mean lies in
      [1/e - 1, e - 1];
    - otherwise, log(sum exp(p l) / sum w) / d, the first sum normalized by
      its largest term so that it lies in [1, n], with the exponents
      scaled by a power of two s near max(1, |p|, |q|) so that no product
      of an exponent and a log overflows.  The log of the ratio rounds
      once, where a difference of two logs would round twice, and each
      rounding is divided by d.

    G = a e^r is formed from factors whose partial products lie between a
    and G, inside [lo, hi]: e^r itself leaves the float range where r nears
    log(hi / lo), up to about 1454.  The Hölder mean of exponent p is
    G(max(p, 0), min(p, 0))."""
    a = hi if q >= 0.0 else lo
    log_a = math.log(a)
    ls = [math.log(v) - log_a for v in xs]
    ws = [math.exp(q * v) for v in ls]
    total = math.fsum(ws)
    d = p - q
    if d * max(map(abs, ls)) < 1e-290:
        r = math.fsum([w * v for w, v in zip(ws, ls)]) / total
    elif _is_small_gap(d, lo, hi):
        r = math.log1p(math.fsum([w * math.expm1(d * v) for w, v in zip(ws, ls)]) / total) / d
    else:
        s = math.ldexp(1.0, math.frexp(max(1.0, abs(p), abs(q)))[1] - 1)
        e = p / s
        c = max([e * v for v in ls])
        sp = math.fsum([math.exp(s * (e * v - c)) for v in ls])
        r = (c + math.log(sp / total) / s) / (e - q / s)
    if abs(r) <= 700.0:
        return _clamp(a * math.exp(r), lo, hi)
    # Four factors e^(r / 4): e^(r / 2) overflows once r passes 1420.
    f = math.exp(0.25 * r)
    return _clamp(a * f * f * f * f, lo, hi)


def holder_mean(p: float, x: Sequence[float]) -> float:
    """The power mean ((sum x_i^p) / n)^(1/p); the geometric mean for p = 0,
    and max x / min x for p = +inf / -inf.

    Plain ``math`` on a list of floats, the inputs normalized by the element
    where x^p peaks (the max for p > 0, the min for p < 0) before
    exponentiation, so that large |p| cannot overflow.  The mean is formed
    in logs anchored at the data instead (``_gini_anchored``) for 0 < |p| <
    0.5 with |p| log(max x / min x) <= 1, where a power of a ratio near 1
    would round the mean toward max x or min x, and where the direct form
    cannot hold its terms (min x / max x below the normal float range, or
    an overflowing power).  The value always lies in [min x, max x]; a NaN
    exponent raises InvalidArgumentError.
    """
    xs = _check_positive(x)
    p = _check_exponent(p)
    lo, hi = min(xs), max(xs)
    if p == 0.0:
        return _exp_clamped(sum([math.log(v) for v in xs]) / len(xs), lo, hi)
    if math.isinf(p):
        return hi if p > 0.0 else lo
    if lo / hi >= _NORMAL_MIN and not _is_small_gap(abs(p), lo, hi):
        m = hi if p > 0 else lo
        try:
            return _clamp(m * (sum([(v / m) ** p for v in xs]) / len(xs)) ** (1.0 / p), lo, hi)
        except OverflowError:
            pass
    return _gini_anchored(max(p, 0.0), min(p, 0.0), xs, lo, hi)


def _direct(ok: np.ndarray, d: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """ok, and not where gap d takes the small-gap form on [lo, hi]."""
    small = _is_small_gap(d, lo, hi, np.log)
    return ok if small is False else ok & ~small


def holder_batch(p: float, X: np.ndarray) -> np.ndarray:
    """``holder_mean(p, x)`` for each row x of X, in numpy: the direct form
    (p = 0 and p = +-inf included), NaN where ``holder_mean`` raises and
    where it takes ``_gini_anchored`` (a small gap, min x / max x below the
    normal range, an overflowing power).  The 1/p power of a sum of n
    powers carries its (n + 4) ulps up by 1/|p|; the exp of a mean of logs
    carries theirs up by max |log x|."""
    n = X.shape[1]
    if math.isnan(p):
        return np.full(len(X), np.nan)
    with np.errstate(all="ignore"):
        lo, hi = X.min(axis=1), X.max(axis=1)
        ok = (lo > 0.0) & (hi < math.inf)
        if math.isinf(p):
            return _budgeted(ok, hi if p > 0.0 else lo, 0)
        if p == 0.0:
            logs = np.log(X)
            values = _clip(np.exp(logs.sum(axis=1) / n), lo, hi)
            return _budgeted(ok, values, (n + 2) * np.abs(logs).max(axis=1) + 3)
        m = hi if p > 0.0 else lo
        power = (((X / m[:, None]) ** p).sum(axis=1) / n) ** (1.0 / p)
        ok &= (lo / hi >= _NORMAL_MIN) & np.isfinite(power)
        return _budgeted(_direct(ok, abs(p), lo, hi), _clip(m * power, lo, hi),
                         (n + 4) / abs(p) + 3)


def gini_mean(p: float, q: float, x: Sequence[float]) -> float:
    """The Gini mean (sum x^p / sum x^q)^(1/(p-q)); for p = q, the limiting
    form exp(sum x^p log x / sum x^p).

    For p != q, plain ``math`` on a list of floats, with the data normalized
    by its max.  The mean is formed in logs anchored at the data instead
    (``_gini_anchored``) for p = q; for 0 < |p - q| < 0.5 with |p - q|
    log(max x / min x) <= 1, where a power of a ratio near 1 would round the
    mean away; and where a direct power sum overflows or underflows (large
    |p| or |q|, or min x / max x below the normal float range).  The value
    always lies in [min x, max x]; a NaN or infinite exponent raises
    InvalidArgumentError.
    """
    xs = _check_positive(x)
    p = _check_exponent(p, finite=True)
    q = _check_exponent(q, finite=True)
    if p < q:
        p, q = q, p
    lo, hi = min(xs), max(xs)
    if p > q and lo / hi >= _NORMAL_MIN and not _is_small_gap(p - q, lo, hi):
        # With min x / max x normal no ratio v / hi is 0, so ``0.0 ** q``
        # cannot raise ZeroDivisionError; Python's ``**`` raises
        # OverflowError where numpy would return inf.
        scaled = [v / hi for v in xs]
        try:
            ratio = sum([v ** p for v in scaled]) / sum([v ** q for v in scaled])
            if _NORMAL_MIN <= ratio <= _NORMAL_MAX:
                return _clamp(hi * ratio ** (1.0 / (p - q)), lo, hi)
        except OverflowError:
            pass
    return _gini_anchored(p, q, xs, lo, hi)


def gini_batch(p: float, q: float, X: np.ndarray) -> np.ndarray:
    """``gini_mean(p, q, x)`` for each row x of X, in numpy: the direct form
    for p != q, NaN where ``gini_mean`` raises and where it takes
    ``_gini_anchored`` (p = q, a small gap, min x / max x below the normal
    range, a ratio of power sums outside it).  The ratio's 2n + 4 ulps are
    carried up by 1/(p - q)."""
    n = X.shape[1]
    if not (math.isfinite(p) and math.isfinite(q)) or p == q:
        return np.full(len(X), np.nan)
    p, q = max(p, q), min(p, q)
    d = p - q
    with np.errstate(all="ignore"):
        lo, hi = X.min(axis=1), X.max(axis=1)
        scaled = X / hi[:, None]
        ratio = (scaled ** p).sum(axis=1) / (scaled ** q).sum(axis=1)
        power = ratio ** (1.0 / d)
        ok = ((lo > 0.0) & (lo / hi >= _NORMAL_MIN) & (ratio >= _NORMAL_MIN)
              & (ratio <= _NORMAL_MAX) & np.isfinite(power))
        return _budgeted(_direct(ok, d, lo, hi), _clip(hi * power, lo, hi), (2 * n + 4) / d + 3)


def average(xs: Sequence[float], weights: Optional[Sequence[float]] = None) -> float:
    """sum_i w_i x_i / sum_i w_i for positive weights, by math.fsum; for
    unit weights (None) no product is formed and the mean is fsum(x) / n.
    Where a product w_i x_i or a partial sum of finite data leaves the float
    range, and the mean does not, the sum is formed again on x_i / m for m =
    max_i |x_i|."""
    if weights is None:
        terms, total = xs, len(xs)
    else:
        terms, total = [w * v for w, v in zip(weights, xs)], math.fsum(weights)
    try:
        s = math.fsum(terms)
    except OverflowError:
        s = math.inf
    except ValueError:
        # inf - inf: products w_i x_i overflowed both ways, or the data
        # hold both infinities.
        if not all(map(math.isfinite, xs)):
            raise
        s = math.inf
    if math.isinf(s) and all(map(math.isfinite, xs)):
        m = max(map(abs, xs))
        return math.fsum([w * (v / m) for w, v in zip(weights or [1.0] * len(xs), xs)]) / total * m
    return s / total


def average_batch(weights: tuple, X: np.ndarray) -> np.ndarray:
    """``average(x, weights)`` for each row x of X and constant positive
    weights, in numpy: NaN where a sum overflows and where the value is not
    a normal float.  The numpy sum of the n products is off by n eps times
    the sum of their magnitudes, which cancellation can make large against
    the value."""
    n = X.shape[1]
    with np.errstate(all="ignore"):
        terms = X * np.asarray(weights, dtype=float)
        s = terms.sum(axis=1)
        values = s / math.fsum(weights)
        ulps = n * np.abs(terms).sum(axis=1) / np.abs(s) + 3
        return _budgeted(np.abs(values) >= _NORMAL_MIN, values, ulps)


def point_average(pts: Sequence, weights: Optional[Sequence[float]] = None) -> np.ndarray:
    """The average of points, coordinate by coordinate.  For unit weights
    (None) it is the column sums of the stacked points over n, bitwise
    np.mean; otherwise sum_i w_i x_i / sum_i w_i, summed in order by a loop
    and not by a BLAS dot, whose last bits depend on the kernel OpenBLAS
    picks at run time.  Where a product or a partial sum of finite points
    overflows, the sum is formed again on x_i / m for m the largest |x_i| in
    each coordinate (1 where all are 0)."""
    with np.errstate(over="ignore"):
        if weights is None:
            acc, total = np.asarray(pts, dtype=float).sum(axis=0), len(pts)
        else:
            acc, total = np.zeros_like(pts[0]), math.fsum(weights)
            for w, pt in zip(weights, pts):
                acc = acc + w * pt
    if not_finite(acc.ravel()):
        arr = np.asarray(pts, dtype=float)
        if np.isfinite(arr).all():
            m = np.abs(arr).max(axis=0)
            m[m == 0.0] = 1.0
            return sum(w * (pt / m) for w, pt in zip(weights or [1.0] * len(arr), arr)) / total * m
    return acc / total


def weighted_arith_mean(w: Sequence, x: Sequence) -> Union[float, np.ndarray]:
    """sum_i w_i(x_i) x_i / sum_i w_i(x_i) for scalar or point entries, by
    ``average`` or ``point_average``.

    Weight entries may be WeightFn instances or plain callables; each must be
    positive at its argument.
    """
    if len(w) != len(x):
        raise InvalidArgumentError(f"weight count {len(w)} != tuple length {len(x)}")
    if len(x) == 0:
        raise InvalidArgumentError("empty tuple")
    scalar = np.isscalar(x[0]) or np.asarray(x[0]).ndim == 0
    values = [wi(xi) for wi, xi in zip(w, x)]
    for wv in values:
        if not (math.isfinite(wv) and wv > 0):
            raise InvalidArgumentError(f"weight {wv} not positive")
    if scalar:
        return average([float(xi) for xi in x], values)
    return point_average(as_point_tuple(x), values)
