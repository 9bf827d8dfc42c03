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
than ceil(log2(w / width_tol)) + 6 steps on a bracket of width w, six over
bisection's count, and on smooth sections it converges superlinearly.

Classical families (Bajraktarevic, Matkowski, Gini, Holder / power means,
quasi-arithmetic means) are provided in closed form; they double as oracles
for the root-finding path in the test suite.

Every deviation mean, a classical family's included, is solved through the
same summed section: one call of the ``DeviationTuple``'s section per
evaluation, which returns every E_i(x_i, y) at the fixed data points.  An
expression family's section is one compiled function (see
:mod:`meanreduce.expr`); any other family's, and a plain sequence's, calls
each deviation's ``eval``.

Deviation axioms cannot be proven for arbitrary callables, so constructors
check them on 64 randomized samples unless ``validate=False``; strictness
remains sampled, not proven.  A check evaluates, then judges: one verdict
function per kind of function decides on arrays of values.  The functions of
one kind on one domain share one sample draw, so a family is checked at
once (``check_deviations``, ``check_weights``): a builder that holds the
numpy form of the family passes it to the check, which evaluates every
member on all samples in one call and may accept members from those values
alone, judged along a member axis; every other member has its own values,
sample by sample, judged in member order, and every rejection comes from
them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass, field
from functools import partial, reduce
from operator import add
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import (
    BATCH_MARGIN,
    DEFAULT_CONFIG,
    ITP_N0,
    Injection,
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
    select,
    wide_fsum,
    wide_uniform,
)
from .errors import (
    DomainError,
    InvalidArgumentError,
    InvalidDeviationError,
    NoConvergenceError,
)
from .expr import Member, _bind_family

_VALIDATION_SAMPLES = 64
_VALIDATION_SEED = 20240901

_EPS = sys.float_info.epsilon
_NORMAL_MIN = sys.float_info.min
_NORMAL_MAX = sys.float_info.max
_TINY = math.ulp(0.0)


def _sample_window(domain: Interval, rng: np.random.Generator, count: int) -> np.ndarray:
    lo, hi = domain.finite_window()
    return wide_uniform(rng, lo, hi, count)


def _validation_draw(domain: Interval, offset: int, k: int) -> list[np.ndarray]:
    """k arrays of 64 samples of the domain's finite window, drawn in turn
    from the seed _VALIDATION_SEED + offset: 0 for weights, 1 for
    generators, 2 for deviations.  Every function of one kind on one domain
    is checked on the same draw."""
    rng = np.random.default_rng(_VALIDATION_SEED + offset)
    return [_sample_window(domain, rng, _VALIDATION_SAMPLES) for _ in range(k)]


def _stacked(values, shape: tuple) -> np.ndarray:
    """The values of a family's members, each broadcast to shape (a
    constant member returns a float), stacked on a first member axis.  The
    stack takes the type all the values share, as ``np.array`` of them
    would: complex where one is, so that ``core.batch_values`` refuses it."""
    out = np.empty((len(values),) + shape, dtype=np.result_type(*values))
    for i, value in enumerate(values):
        out[i] = value
    return out


def _weight_verdict(us: np.ndarray, values) -> Optional[str]:
    """The weight verdict on the first len(w) samples, for (w,) = values:
    w(u) is finite and above 0."""
    (w,) = values
    wf = np.asarray(w, dtype=float)
    return first_failure([(np.isfinite(wf) & (wf > 0.0),
                           lambda k: f"weight function is not positive at u={us[k]}: {w[k]}")])


def check_weights(weights: Sequence[WeightFn], batch: Optional[Callable] = None):
    """Positivity of each weight on the 64 samples that the weights of one
    domain share, each weight judged by ``_weight_verdict`` in turn.

    ``batch``, the numpy form of the family (``WeightTuple.batch``: arrays
    x_1, ..., x_n in, the tuple of the members' values out), evaluates every
    member on all samples in one call, and one verdict along a member axis
    accepts each member whose values clear the threshold by BATCH_MARGIN
    (see ``judge_samples``).  Each member it does not clear is judged on its
    own ``eval``, sample by sample, in member order, so every rejection and
    its message are the member's own."""
    (us,) = _validation_draw(weights[0].domain, 0, 1)
    n = len(weights)
    cleared = np.zeros(n, dtype=bool)
    if batch is not None:
        w = batch_values(lambda u: _stacked(batch(*[u] * n), u.shape), (us,), (n,) + us.shape)
        if w is not None:
            # Finite values, all above BATCH_MARGIN times the member's largest.
            cleared = w.min(axis=-1) > BATCH_MARGIN * np.abs(w).max(axis=-1)
    for weight, ok in zip(weights, cleared):
        if not ok:
            judge_samples(partial(_weight_verdict, us), weight.eval,
                          lambda: ((u,) for u in us.tolist()), 1, InvalidArgumentError)


def _deviation_passes(us: np.ndarray, vs: np.ndarray, ws: np.ndarray, span: float,
                      euu: np.ndarray, euv: np.ndarray, euw: np.ndarray,
                      clear: bool = False) -> tuple:
    """The pass masks of the deviation axioms at E(u,u), E(u,v), E(u,w),
    along the last (sample) axis, under any leading member axes:
    |E(u,u)| <= 1e-9 m, for m the running magnitude max(1, |E(u,v)|,
    |E(u,w)|); where |v - w| > 1e-9 span, E(u, min) > E(u, max) - 1e-12 m,
    unless both overflowed to one infinity, which orders nothing; where
    |u - v| > 1e-9 span, E(u,v) (u - v) > 0.  ``clear`` asks for
    BATCH_MARGIN m more."""
    # lo_e - hi_e may overflow to inf, and NaN values compare false.
    with np.errstate(all="ignore"):
        magnitude = running_magnitude(np.abs(euv), np.abs(euw))
        slack = BATCH_MARGIN * magnitude if clear else 0.0
        ordered = vs < ws
        lo_e, hi_e = np.where(ordered, euv, euw), np.where(ordered, euw, euv)
        gap = us - vs
        dist = np.abs(gap)
        return (np.abs(euu) <= 1e-9 * magnitude - slack,
                ~(np.abs(vs - ws) > 1e-9 * span) | (lo_e - (hi_e - 1e-12 * magnitude) > slack)
                | ((lo_e == hi_e) & np.isinf(lo_e)),
                ~(dist > 1e-9 * span) | ~(euv * gap <= slack * dist))


def _deviation_verdict(label: str, us: np.ndarray, vs: np.ndarray, ws: np.ndarray,
                       span: float, values) -> Optional[str]:
    """The deviation verdict (``_deviation_passes``) on the first len(duu)
    samples, for (duu, duv, duw) = values, the E(u,u), E(u,v), E(u,w)."""
    duu, duv, _ = values  # as returned, for the messages
    n = len(duu)
    us, vs, ws = us[:n], vs[:n], ws[:n]
    diagonal, decreasing, sign = _deviation_passes(us, vs, ws, span,
                                                   *np.asarray(values, dtype=float))
    return first_failure([
        (diagonal, lambda k: f"{label}: E(u,u) = {duu[k]} != 0 at u={us[k]}"),
        (decreasing, lambda k: (f"{label}: section not strictly decreasing on "
                                f"({us[k]}; {min(vs[k], ws[k])}, {max(vs[k], ws[k])})")),
        (sign, lambda k: f"{label}: sign property fails at (u,v)=({us[k]},{vs[k]}): E={duv[k]}"),
    ])


def check_deviations(devs: Sequence[ScalarDeviation], batch: Optional[Callable] = None):
    """The axioms of each deviation on the 64 sampled triples (u, v, w) that
    the deviations of one domain share, each deviation judged by
    ``_deviation_verdict`` in turn.

    ``batch``, the numpy form of the family's section (``DeviationTuple``:
    arrays y, x_1, ..., x_n in, the tuple of the members' values out),
    evaluates every member on all samples in one call, and one verdict
    along a member axis accepts each member whose values clear every
    threshold by BATCH_MARGIN (see ``judge_samples``).  Each member it does
    not clear is judged on its own ``eval``, sample by sample, in member
    order, so every verdict, error and message is the member's own."""
    us, vs, ws = _validation_draw(devs[0].domain, 2, 3)
    # On Python floats a span past the float range is inf, with no
    # warning; capped, it still gates the monotonicity and sign tests.
    span = min(float(us.max()) - float(us.min()) + 1.0, sys.float_info.max)
    n = len(devs)
    cleared = np.zeros(n, dtype=bool)
    if batch is not None:
        values = sample_triples(lambda u, v: _stacked(batch(v, *[u] * n), u.shape),
                                us, vs, ws, (n,))
        if values is not None:
            passes = _deviation_passes(us, vs, ws, span, values[:, 0], values[:, 1],
                                       values[:, 2], clear=True)
            cleared = (passes[0] & passes[1] & passes[2]).all(axis=-1)
    for dev, ok in zip(devs, cleared):
        if not ok:
            judge_samples(partial(_deviation_verdict, dev.label, us, vs, ws, span), dev.eval,
                          lambda: ((u, x) for u, v, w in zip(us.tolist(), vs.tolist(),
                                                             ws.tolist()) for x in (u, v, w)),
                          3, InvalidDeviationError)


@dataclass(frozen=True)
class WeightFn:
    """A positive weight function on an interval, checked on 64 samples at
    construction unless ``validate=False`` (``check_weights``).  A weighted
    mean reads its weights through a ``WeightTuple``: a family of numbers
    and expression weights, as ``descriptors.build_weights`` builds and
    checks it, and so each selection of it, is compiled as one function,
    with one numpy form, and each evaluation of it is one call, which calls
    no WeightFn."""

    eval: Callable[[float], float]
    domain: Interval = REALS
    validate: bool = True

    def __post_init__(self):
        if self.validate:
            check_weights((self,))

    def __call__(self, u: float) -> float:
        return self.eval(u)


def _constant(c: float, u) -> float:
    """A constant weight's value c, whatever u."""
    return c


def constant_weight(c: float, domain: Interval = REALS) -> WeightFn:
    if not 0.0 < c < math.inf:
        raise InvalidArgumentError("constant weight must be positive and finite")
    return WeightFn(eval=partial(_constant, float(c)), domain=domain, validate=False)


def power_weight(q: float, domain: Interval = POSITIVE_REALS) -> WeightFn:
    return WeightFn(eval=lambda u, q=float(q): u ** q, domain=domain, validate=False)


def _family_member(w) -> Union[float, Member, None]:
    """The member a weight is in a family of weights: the number of a
    constant weight, the ``expr.Member`` of an expression weight in one
    name; None for any other weight."""
    e = getattr(w, "eval", None)
    if isinstance(e, partial) and e.func is _constant:
        return e.args[0]
    return e if isinstance(e, Member) and len(e.names) == 1 else None


@dataclass(frozen=True)
class WeightTuple:
    """A tuple of weights, with the function of all their values.

    ``values(x_1, ..., x_n)`` returns the list [w_1(x_1), ..., w_n(x_n)],
    and ``batch`` is its numpy form, arrays x_1, ..., x_n in, the tuple of
    the members' values out (a constant weight's is a float): every
    evaluation of a weighted mean's weights is one call of either
    (``_weight_values``, ``_weight_rows``).  Where every weight is a
    ``constant_weight`` or has for its eval an ``expr.Member`` in one name,
    as ``descriptors.build_weights`` builds them, the weights are one
    family: numbers alone are their values, with nothing compiled; with
    expressions they are compiled as one function (``expr._bind_family``),
    in which a number is its float literal.  Otherwise ``values`` calls
    each weight in turn and ``batch`` is None.  ``select(chi)`` binds the
    weights that chi picks as one family of their own.
    """

    weights: tuple
    values: Callable[..., list] = field(init=False, repr=False, compare=False)
    batch: Optional[Callable] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ws = tuple(self.weights)
        object.__setattr__(self, "weights", ws)
        members = [_family_member(w) for w in ws]
        if None in members:
            def values(*xs):
                return [w(x) for w, x in zip(ws, xs)]

            batch = None
        elif Member in map(type, members):
            # Member i reads x_i, argument i, as its one name.
            values, _, batch = _bind_family(
                [m if isinstance(m, float) else m.expression for m in members],
                [{} if isinstance(m, float) else {m.names[0]: i} for i, m in enumerate(members)],
                len(ws))
        else:
            # Numbers alone: nothing to compile.
            def values(*xs):
                return list(members)

            def batch(*X):
                return tuple(members)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "batch", batch)

    def select(self, chi: Injection) -> WeightTuple:
        """The tuple of the weights chi picks."""
        return WeightTuple(select(self.weights, chi))

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, i):
        return self.weights[i]


def as_weight_tuple(w) -> WeightTuple:
    """w itself, or the WeightTuple of the weights in w."""
    return w if isinstance(w, WeightTuple) else WeightTuple(w)


@dataclass(frozen=True)
class GeneratorFn:
    """A strictly increasing continuous function together with its inverse.

    ``batch``, where it is set, is the numpy form of ``eval``, and
    ``inverse`` is ``numeric_inverse`` of ``eval``, which settles within its
    budget on every target of data in the domain's finite window
    (``numeric_generator``, which ``descriptors.build_generator`` calls for
    an expression generator)."""

    eval: Callable[[float], float]
    inverse: Callable[[float], float]
    domain: Interval = REALS
    validate: bool = True
    batch: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.validate:
            us = np.sort(_validation_draw(self.domain, 1, 1)[0])
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
    then narrows it, in at most bisection's count plus six steps, to a
    half-width of 2 eps min(|a|, |b|) + t, t = 2^-1074 the smallest positive
    float: its midpoint u, the value returned, lies within 2 eps |u| + t of
    the root (Brent's stop; Algorithms for Minimization without Derivatives,
    1973, ch. 4), a few ulps of u wherever the root is a normal float.
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
        root = bracketed_root(lambda u: fn(u) - t, a, b, fa - t, fb - t, 2.0 * _TINY,
                              cfg.max_iter, rel_tol=4.0 * _EPS)
        if not root.converged:
            raise NoConvergenceError("generator inversion exhausted its iteration budget")
        return 0.5 * root.a + 0.5 * root.b

    return inverse


def numeric_generator(fn: Callable[[float], float], form: Callable, domain: Interval,
                      cfg: SolverConfig = DEFAULT_CONFIG) -> GeneratorFn:
    """The generator fn, inverted by ``numeric_inverse`` on cfg's budget,
    with ``form``, the numpy form of fn, as its ``batch`` where every
    inversion of a target of data in the domain's finite window [lo, hi]
    settles within that budget.  That is so where fn(lo) and fn(hi) are
    finite, so that no bracket is expanded, and the search's count of steps
    on [lo, hi] (``core.bracketed_root``) is below cfg.max_iter: bisection's
    count to the first tolerance, plus ITP_N0, and, for a window that holds
    0, where the relative tolerance shrinks toward 2^-1073, the count of
    bisection steps down to that width."""
    lo, hi = domain.finite_window()
    try:
        ends = (fn(lo), fn(hi))
    except Exception:  # noqa: BLE001 - every inversion raises it: no numpy form
        ends = (math.nan,)
    span = math.log2(0.5 * hi - 0.5 * lo) + 1.0
    steps = math.ceil(span - math.log2(2.0 * _TINY + 4.0 * _EPS * min(abs(lo), abs(hi)))) + ITP_N0
    if lo < 0.0 < hi:
        steps += math.ceil(span - math.log2(2.0 * _TINY)) + ITP_N0
    settles = all(map(math.isfinite, ends)) and steps < cfg.max_iter
    return GeneratorFn(eval=fn, inverse=numeric_inverse(fn, domain, cfg), domain=domain,
                       batch=form if settles else None)


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
    ``validate=False`` (``check_deviations``): E(u, u) = 0, the sections v
    -> E(u, v) strictly decrease, and sgn E(u, v) = sgn(u - v).  The
    solvers read the deviation through the section of a ``DeviationTuple``;
    ``eval`` is what that section calls, unless the family is compiled as
    one (an ``expr.Member`` eval, as ``descriptors.build_deviations``
    builds it).
    """

    domain: Interval
    eval: Callable[[float, float], float]
    label: str = "deviation"
    validate: bool = True

    def __post_init__(self):
        if self.validate:
            check_deviations((self,))

    def __call__(self, u: float, v: float) -> float:
        return self.eval(u, v)


@dataclass(frozen=True)
class DeviationTuple:
    """A tuple of deviations sharing one interval, with its section.

    ``section(y, x_1, ..., x_n)`` returns the list [E_1(x_1, y), ...,
    E_n(x_n, y)], and ``total`` the same arguments' sum of it by
    ``core.wide_fsum``: every evaluation of the summed section is one call
    of either (``e_sum``, ``deviation_mean``).  Where every deviation's
    ``eval`` is an ``expr.Member`` in two names, as
    ``descriptors.build_deviations`` builds them, the section is compiled
    as one family (``expr._bind_family``) and ``batch`` is its numpy form;
    otherwise, or where ``compiled`` is False, the section calls each
    ``eval`` in turn and ``batch`` is None.  ``select(chi)`` binds the
    deviations that chi picks as one family of their own.
    """

    deviations: tuple[ScalarDeviation, ...]
    compiled: InitVar[bool] = True
    common_domain: Interval = field(init=False)
    section: Callable[..., list] = field(init=False, repr=False, compare=False)
    total: Callable[..., float] = field(init=False, repr=False, compare=False)
    batch: Optional[Callable] = field(init=False, repr=False, compare=False)

    def __post_init__(self, compiled: bool):
        devs = tuple(self.deviations)
        object.__setattr__(self, "deviations", devs)
        if len(devs) == 0:
            raise InvalidArgumentError("deviation tuple must be nonempty")
        dom = devs[0].domain
        for d in devs[1:]:
            if d.domain != dom:
                raise InvalidArgumentError("all deviations must share one domain")
        object.__setattr__(self, "common_domain", dom)
        evals = [d.eval for d in devs]
        if compiled and all(isinstance(e, Member) and len(e.names) == 2 for e in evals):
            # Member i reads x_i, argument i + 1, as u and y, argument 0, as v.
            section, total, batch = _bind_family(
                [e.expression for e in evals],
                [{e.names[0]: i + 1, e.names[1]: 0} for i, e in enumerate(evals)], len(evals) + 1)
        else:
            def section(y, *xs):
                return [e(x, y) for e, x in zip(evals, xs)]

            def total(y, *xs):
                return wide_fsum(section(y, *xs))

            batch = None
        object.__setattr__(self, "section", section)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "batch", batch)

    def select(self, chi: Injection) -> DeviationTuple:
        """The tuple of the deviations chi picks."""
        return DeviationTuple(select(self.deviations, chi))

    def __len__(self) -> int:
        return len(self.deviations)

    def __iter__(self):
        return iter(self.deviations)

    def __getitem__(self, i):
        return self.deviations[i]


def as_deviation_tuple(E) -> DeviationTuple:
    """E itself, or a tuple of the deviations in E whose section calls each
    ``eval`` in turn: a sequence is bound on every call that takes one, and
    a compiled section would cost more than it saves there."""
    if isinstance(E, DeviationTuple):
        return E
    return DeviationTuple(tuple(E), compiled=False)


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
    return E.total(u, *[float(xi) for xi in x])


def deviation_mean(E, x: Sequence[float], cfg: SolverConfig = DEFAULT_CONFIG) -> SolverReport:
    """Solve sum_i E_i(x_i, y) = 0 on [min(x), max(x)] by ``core.bracketed_root``.

    The search takes at most ceil(log2((max(x) - min(x)) / width_tol)) + 6
    steps, six more than bisection would, and needs only continuity and
    monotonicity of the sections.  The summed section decreases strictly
    from a nonnegative value at min(x) to a nonpositive value at max(x); a
    sign anomaly at the bracket endpoints or a value outside the range of
    the bracket's end values during the search raises
    InvalidDeviationError.

    A converged report carries one of two certificates: a residual
    |sum_i E_i(x_i, y)| within ``cfg.abs_tol``, or, where the width stop
    ends the search first, a sign change of the summed section across a
    final bracket that has the value as an end and is no wider than the
    width tolerance ``cfg.rel_tol (max(x) - min(x)) + cfg.abs_tol``.  On a
    steep section the second may leave a residual above ``abs_tol``, up to
    the section's slope times the width tolerance.  Exhausting the
    iteration budget returns a non-converged report with the last iterate.
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
    """The map y -> sum_i E_i(x_i, y) with x fixed, one call of the tuple's
    total per evaluation.

    Classical families are summed here too, so that their closed forms stay
    independent oracles for this path.  A sum beyond the float range is an
    infinity of its sign (``core.wide_fsum``): only its sign moves the
    bracket.
    """
    return lambda y, total=E.total, xs=xs: total(y, *xs)


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
    return _invert_average(f, xs, _weight_values(w, xs))


def _weight_values(w: Sequence[Callable], xs: Sequence) -> list:
    """The weights w_i(x_i), each finite and positive, or
    InvalidArgumentError: one call of a WeightTuple's ``values``, or of each
    weight of any other sequence in turn."""
    weights = w.values(*xs) if isinstance(w, WeightTuple) else [wi(xi) for wi, xi in zip(w, xs)]
    for wi, xi in zip(weights, xs):
        if not 0.0 < wi < math.inf:
            raise InvalidArgumentError(f"weight {wi} at {np.asarray(xi, float).tolist()} is not "
                                       "finite and positive")
    return weights


def _invert_average(f: GeneratorFn, xs: list, weights: Optional[list]) -> float:
    """f^{-1}(average(f-values of xs, weights)), the tail that
    ``bajraktarevic_mean`` and ``quasi_arithmetic_mean`` (weights None)
    share: the average is clamped into the hull of the f-values, its inverse
    checked against the generator domain and clamped into the hull of xs.  A
    generator that overflows on the data raises DomainError.

    Where the average underflows (is 0 or subnormal), the exp generator
    averages exp(x_i - max x) instead and adds max x back to the log.  For
    any other generator, DomainError is raised where the inverse raises
    there or leaves the hull of xs, and, where the f-values themselves
    underflowed, also where it moves by more than its own stop (2 eps |y| +
    2^-1074, see ``numeric_inverse``) between t and either neighbour t -
    2^-1074, t + 2^-1074: the few bits the average keeps do not determine
    the mean.  An average that cancels from normal f-values carries the
    usual rounding of order eps max |f(x_i)| and is inverted as it is, as
    is every other average."""
    fw, t = _average_target(f, xs, weights)
    if abs(t) >= _NORMAL_MIN:
        y = f.inverse(t)
    elif f.eval is math.exp and f.inverse is math.log:
        m = max(xs)
        y = math.log(_clamped_average([math.exp(xi - m) for xi in xs], weights)) + m
    else:
        try:
            y = f.inverse(t)
            stop = 2.0 * _EPS * abs(y) + _TINY
            determined = (max(map(abs, fw)) >= _NORMAL_MIN
                          or all(abs(f.inverse(s) - y) <= stop for s in (t - _TINY, t + _TINY)))
        except (ArithmeticError, ValueError, DomainError):
            y, determined = math.nan, False
        if not (determined and min(xs) <= y <= max(xs)):
            raise DomainError(f"the generator's values underflow on the data {xs}: their "
                              f"average {t} does not determine the mean")
    if not math.isfinite(y) or (y not in f.domain and not _near_domain(y, f.domain)):
        raise DomainError(f"inverted value {y} escapes the generator domain")
    return min(max(y, min(xs)), max(xs))


def _average_target(f: GeneratorFn, xs: list, weights: Optional[list]) -> tuple[list, float]:
    """The f-values of xs and the target ``_invert_average`` inverts: their
    average, clamped into their hull.  A generator that overflows on the
    data raises DomainError."""
    try:
        fw = [f.eval(xi) for xi in xs]
    except OverflowError as exc:
        raise DomainError(f"generator overflows on the data {xs}: {exc}") from None
    return fw, _clamped_average(fw, weights)


def _clamped_average(fw: list, weights: Optional[list]) -> float:
    """The average of fw, clamped into their hull against rounding."""
    return min(max(average(fw, weights), min(fw)), max(fw))


def _near_domain(y: float, domain: Interval) -> bool:
    lo, hi = domain.lo, domain.hi
    scale = 1.0 + abs(y)
    return (lo - 1e-9 * scale) <= y <= (hi + 1e-9 * scale)


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
# array to T values, and a point form the (T, n, d) block of T tuples of
# points to T points, each coordinate bounded as a value.  A form bounds,
# row by row, how far its value and the scalar form's can each lie from the
# exact value of the formula they share, in ulps of the value, and returns
# NaN where twice that bound exceeds the budget BATCH_MARGIN / 4 relative,
# where the scalar form raises, and outside the regime the scalar form
# computes directly.  So each finite value lies within BATCH_MARGIN / 4
# times |eval| of the scalar form's value.
_BATCH_ULPS = BATCH_MARGIN / (8.0 * _EPS)
# numpy's exp, log and power and math's differ by at most one ulp (measured
# over 200,000 draws of each across its range, numpy 2.4 on x86-64), so a
# weight expression of a few of them is taken within this many ulps of its
# math value.  An expression that cancels within itself can differ by more.
_WEIGHT_ULPS = 8


def _budgeted(ok: np.ndarray, values: np.ndarray, ulps) -> np.ndarray:
    """values where ok, finite and within the budget of ulps, else NaN."""
    return np.where(ok & np.isfinite(values) & (ulps <= _BATCH_ULPS), values, np.nan)


def _clip(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, out=None) -> np.ndarray:
    """``_clamp`` row by row (np.clip's result, at less overhead), into out
    where it is given."""
    return np.minimum(np.maximum(values, lo, out=out), hi, out=out)


def _inside(domain: Interval, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each row lies in the domain, from its least and greatest
    entries a and b (NaN, where a row holds one: outside)."""
    return ((a > domain.lo if domain.lo_open else a >= domain.lo)
            & (b < domain.hi if domain.hi_open else b <= domain.hi))


# The named generators' numpy forms, keyed by their scalar (eval, inverse):
# the eval, the inverse and the inverse's derivative.
_NAMED_FORMS = {
    (math.log, math.exp): (np.log, np.exp, np.exp),
    (math.exp, math.log): (np.exp, np.log, np.reciprocal),
    (_identity, _identity): (np.positive, np.positive, np.ones_like),
}


def _exact(form: Callable, X: np.ndarray) -> tuple:
    """A closed form's values, with radius 0 (see ``MeanFn.batch``)."""
    return form(X), 0.0


def quasi_arithmetic_batch(f: GeneratorFn, weights: Optional[Sequence[WeightFn]] = None
                           ) -> Optional[Callable[[np.ndarray], tuple]]:
    """The numpy form of ``quasi_arithmetic_mean(f, .)``, or of
    ``bajraktarevic_mean(f, weights, .)`` where weights are given, for
    weights that have a numpy form (``WeightTuple.batch``): a closed form,
    with radius 0, for the named generators (log, exp, identity), and the
    enclosure of the inverse (``_inverse_solve``) for a generator with a
    numpy form (``GeneratorFn.batch``); None for any other generator or
    weight."""
    forms = _NAMED_FORMS.get((f.eval, f.inverse))
    rows = None
    if weights is not None:
        weights = as_weight_tuple(weights)
        rows = weights.batch
        if rows is None:
            return None
    if forms is not None:
        return partial(_exact, partial(_quasi_arithmetic_rows, forms, f.domain, rows))
    if f.batch is None:
        return None
    return partial(_solved_rows, partial(_inverse_solve, f, weights, rows))


def _weight_rows(batch: Callable, X: np.ndarray) -> np.ndarray:
    """The (T, n) weights of the rows of X, from one call of the weights'
    numpy form ``WeightTuple.batch`` on the columns of X (a constant weight
    returns a float)."""
    return np.stack([np.broadcast_to(np.asarray(w, dtype=float), (len(X),))
                     for w in batch(*X.T)], axis=1)


def _quasi_arithmetic_rows(forms: tuple, domain: Interval, weights: Optional[Callable],
                           X: np.ndarray) -> np.ndarray:
    """h(average of g over the row), weighted where the numpy form of the
    weights is given, clamped as ``_invert_average`` clamps, for the
    numpy forms (g, h, h') of a named generator: NaN for rows outside the
    domain, where a weight, their sum or the weighted sum of g is not a
    normal float, or where an average or a value is not one.  An average of
    n values off by (n + 2) eps times their mean magnitude moves the value
    by h' times that.  A weighted average is off by (2n + 2) eps times the
    weighted mean magnitude, m = sum w |g| / sum w, and, as each weight may
    be _WEIGHT_ULPS off math's, by 2 _WEIGHT_ULPS eps m more: a relative
    change r of the weights moves it by at most r sum w |g - t| / sum w,
    which is at most 2 r m."""
    g, h, dh = forms
    n = X.shape[1]
    with np.errstate(all="ignore"):
        fw = g(X)
        lo, hi = X.min(axis=1), X.max(axis=1)
        ok = _inside(domain, lo, hi)
        if weights is None:
            t = fw.sum(axis=1) / n
            slack = (n + 2) * np.abs(fw).mean(axis=1)
        else:
            W = _weight_rows(weights, X)
            total, mass = (W * fw).sum(axis=1), W.sum(axis=1)
            t = total / mass
            ok &= (((W >= _NORMAL_MIN) & (W <= _NORMAL_MAX)).all(axis=1)
                   & (mass <= _NORMAL_MAX) & (np.abs(total) >= _NORMAL_MIN))
            slack = (2 * n + 2 + 2 * _WEIGHT_ULPS) * (W * np.abs(fw)).sum(axis=1) / mass
        t = _clip(t, fw.min(axis=1), fw.max(axis=1))
        y = _clip(h(t), lo, hi)
        ok &= (np.abs(t) >= _NORMAL_MIN) & (np.abs(y) >= _NORMAL_MIN)
        ulps = slack * np.abs(dh(t)) / np.abs(y) + 3
        return _budgeted(ok, y, ulps)


# The numpy forms of the means of a solve: deviation and Matkowski means,
# and the quasi-arithmetic and Bajraktarevic means of a generator inverted
# by ``numeric_inverse``.  One driver, ``_solved_rows``, runs them all, and
# each kind states only its own part: the monotone section h its scalar
# solve reads, in numpy (made increasing: a deviation's summed section is
# negated), its band, widths and reach, and its scalar check.  The driver
# narrows every row at once by one numpy search (``_enclose``) to an
# enclosure [alpha, beta] whose numpy values lie beyond a band +-thr about
# 0.  Then it calls the scalar section once at each end, and keeps the row
# where its values lie beyond the solve's own stop: beyond +-cfg.abs_tol
# for a deviation mean, of strictly opposite signs for a Matkowski section
# and for a generator against the scalar target of ``_invert_average``.  As
# the section is monotone, every value the scalar stop rule can return then
# lies within the solve's width tolerance w of [alpha, beta]: the row's
# value is the enclosure's midpoint and its radius the enclosure's reach
# plus w.  That rests on the scalar values alone, not on how far numpy's
# values lie from math's; a row that fails is NaN.  So are two kinds of row
# that the search never takes, and the lab evaluates them with the scalar
# mean, as it does every NaN row: a row whose root the numpy values place
# within the band of an end of the hull (where a solve returns that end),
# and a constant row of an expression generator's mean, whose scalar
# inverse can raise on an underflowing target.  A constant row of a
# deviation or Matkowski mean is its own value, radius 0.  The band,
# _BAND_ULPS ulps of the magnitudes a section sums, only spares the scalar
# check the rows it would fail.
_BAND_ULPS = 64
# The points of each step of ``_enclose`` that cut its bracket evenly, as
# fractions of its width.
_GRID = 6
_CUTS = np.arange(1, _GRID + 1)[:, None] / (_GRID + 1)
# The most steps of ``_enclose``, some twice the count that the cuts alone
# need to narrow a bracket by 2^-36; a row still open after them is NaN.
_ENCLOSE_STEPS = 24


def _enclose(h: Callable, rows: np.ndarray, a: np.ndarray, b: np.ndarray, ha: np.ndarray,
             hb: np.ndarray, thr: np.ndarray, width: np.ndarray,
             guard: bool = False) -> np.ndarray:
    """Enclosures [alpha, beta] of the roots of increasing sections, every
    row of rows at once.  ``h(rows, Y)`` is the numpy form of the sections
    of the given rows at the points Y, of shape (k, len(rows)); row r's
    bracket [a, b] has h(a) = ha < -thr and h(b) = hb > thr.

    Each step evaluates, in one call of h, two probes d either side of the
    row's estimate of the root, d = max(width / 2, 2 thr / s) for its
    estimate s of the slope, and the _GRID points that cut the bracket into
    _GRID + 1 equal parts.  It moves each end of the bracket to the nearest
    point beyond the band on its side, so that the bracket shrinks by that
    factor at least; a probe inside the band quadruples the row's d.  The
    first estimate is the root of the bracket's chord, each next the root
    of the secant through the probes where a probe is an end of the new
    bracket and that root falls inside it, and else of the new bracket's
    chord.  A row closes once its probes fall on either side of the band,
    or its bracket is at most width wide.

    Returns the (2, len(a)) array of alpha and beta, NaN off rows, on a row
    that a value not finite stops, or, for ``guard``, a point y with h(y)
    outside [h(a) - g, h(b) + g], g = 1e-9 (1 + |h(a)| + |h(b)| + |h(y)|),
    the guard of ``_check_monotone``; NaN too on a row still open after
    _ENCLOSE_STEPS steps."""
    out = np.full((2, len(a)), np.nan)
    # The open rows: every row as a view while none has closed.
    at = slice(None) if len(rows) == len(a) else rows
    a, b, ha, hb, thr, width = (v[at] for v in (a, b, ha, hb, thr, width))
    slope = (hb - ha) / (b - a)
    x, spread = a - ha / slope, np.ones(len(a))
    P = np.empty((2 + _GRID, len(a)))
    for _ in range(_ENCLOSE_STEPS):
        if not len(a):
            break
        d = spread * np.maximum(0.5 * width, 2.0 * thr / slope)
        np.subtract(x, d, out=P[0])
        np.add(x, d, out=P[1])
        _clip(P[:2], a, b, out=P[:2])
        np.add(a, _CUTS * (b - a), out=P[2:])
        H = h(at, P)
        below, above = H < -thr, H > thr
        bad = ~np.isfinite(H).all(axis=0)
        if guard and ((H < ha) | (H > hb)).any():
            g = 1e-9 * (1.0 + np.abs(ha) + np.abs(hb) + np.abs(H))
            bad |= ((H < ha - g) | (H > hb + g)).any(axis=0)
        closed = below[0] & above[1]
        if (closed & ~bad).all():
            out[:, at] = P[:2]
            break
        na, nb = np.where(below, P, a).max(axis=0), np.where(above, P, b).min(axis=0)
        nha, nhb = np.where(below, H, ha).max(axis=0), np.where(above, H, hb).min(axis=0)
        slope = (H[1] - H[0]) / (P[1] - P[0])
        x = P[0] - H[0] / slope
        near = ((P[:2] == na) | (P[:2] == nb)).any(axis=0) & (na < x) & (x < nb)
        x = np.where(near, x, na - nha * ((nb - na) / (nhb - nha)))
        spread = np.where((below[:2] | above[:2]).all(axis=0), spread, 4.0 * spread)
        a, b, ha, hb = na, nb, nha, nhb
        done = closed | (b - a <= width) | bad
        if done.any():
            at = np.arange(len(out[0]))[at]
            kept = done & ~bad
            out[:, at[kept]] = np.where(closed, P[:2], (a, b))[:, kept]
            keep = ~done
            at, a, b, ha, hb, thr, width, spread, x, slope = (
                v[keep] for v in (at, a, b, ha, hb, thr, width, spread, x, slope))
            P = P[:, keep]
    return out


def _settled(a: np.ndarray, b: np.ndarray, w: np.ndarray, max_iter: int) -> np.ndarray:
    """The rows whose ``core.bracketed_root`` on [a, b] at the width
    tolerance w (rel_tol 0) ends by that width within max_iter steps: its
    count ceil(log2((b - a) / w)) + ITP_N0, and one step spare, is at most
    max_iter; no two adjacent floats of [a, b] lie more than w apart, nor
    are a and b adjacent, where the search would stop at float resolution
    (adjacent floats of magnitude at most m lie at most eps m apart)."""
    ulp = _EPS * np.maximum(np.abs(a), np.abs(b))
    ok = (ulp <= w) & (b - a > ulp)
    steps = max_iter - ITP_N0 - 1
    return ok & (b - a <= math.ldexp(1.0, steps) * w) if steps < 1024 else ok


def _solved_rows(solve: Callable, X: np.ndarray) -> tuple:
    """The values and radii of a mean of a solve for each row of X (see the
    forms of a solve above).  ``solve(X, a, b)``, for the rows' least and
    greatest entries a and b, gives the kind's part: the rows on which a
    constant row is its own value; the rows it can promise; its numpy
    section at a and at b, and the band; the section h(rows, Y) of
    ``_enclose``, the width that closes a row there and whether to guard
    monotonicity; the solve's stop width (a float, or one per row) and the
    ulps of the ends that a radius adds; and the scalar check(x, alpha,
    beta).  A row's midpoint is clamped into its hull."""
    T = len(X)
    a, b = X.min(axis=1), X.max(axis=1)
    with np.errstate(all="ignore"):
        fixed, ok, lo, hi, thr, section, width, guard, stop, ulps, check = solve(X, a, b)
        values, radius = np.where(fixed & (a == b), a, np.nan), np.zeros(T)
        rows = np.flatnonzero(ok & (lo < -thr) & (hi > thr))
        ends = _enclose(section, rows, a, b, lo, hi, thr, width, guard)
        passed = []
        for x, lo, hi in zip(X[rows].tolist(), *ends[:, rows].tolist()):
            try:
                passed.append(lo == lo and check(x, lo, hi))  # a NaN enclosure stays NaN
            except Exception:  # noqa: BLE001 - the scalar path raises it again
                passed.append(False)
        rows = rows[np.array(passed, dtype=bool)]
        lo, hi = ends[:, rows]
        values[rows] = _clip(0.5 * lo + 0.5 * hi, a[rows], b[rows])
        radius[rows] = (0.5 * (hi - lo) + (stop[rows] if np.ndim(stop) else stop)
                        + ulps * _EPS * np.maximum(np.abs(lo), np.abs(hi)))
    return values, radius


def _summed(values, shape: tuple) -> np.ndarray:
    """The sum of a family's member values, as an array of shape."""
    total = reduce(add, values)
    return total if np.shape(total) == shape else np.broadcast_to(total, shape)


def deviation_batch(E: DeviationTuple, cfg: SolverConfig = DEFAULT_CONFIG
                    ) -> Optional[Callable[[np.ndarray], tuple]]:
    """The numpy form of ``deviation_mean(E, ., cfg)``, through the numpy
    form of E's section (``DeviationTuple.batch``); None where E has none.
    See ``_deviation_solve``."""
    return None if E.batch is None else partial(_solved_rows, partial(_deviation_solve, E, cfg))


def _deviation_solve(E: DeviationTuple, cfg: SolverConfig, X: np.ndarray, a: np.ndarray,
                     b: np.ndarray) -> tuple:
    """``deviation_mean(E, x, cfg)`` for each row x of X (see the forms of
    a solve above): a constant row is its value; NaN for rows outside the
    domain, where the section is not finite at an end of the hull, and
    where ``_settled`` cannot promise that ``deviation_mean``'s search ends
    by its width tolerance w = rel_tol (max x - min x) + abs_tol.  The
    search runs ``_check_monotone``'s guard on its own probes; the
    certificate is E.total beyond +-abs_tol at alpha and beta.  The band is
    2 abs_tol plus _BAND_ULPS n eps of the summed section's |values| at both
    ends of the hull, where its terms share their sign."""
    T, n = X.shape
    cols = tuple(X.T)
    inside = _inside(E.common_domain, a, b)
    tol, total = cfg.abs_tol, E.total
    lo, hi = -_summed(E.batch(np.stack((a, b)), *cols), (2, T))
    w = cfg.rel_tol * (b - a) + tol
    return (inside, inside & _settled(a, b, w, cfg.max_iter), lo, hi,
            2.0 * tol + _BAND_ULPS * n * _EPS * (np.abs(lo) + np.abs(hi)),
            lambda rows, Y: -_summed(E.batch(Y, *(c[rows] for c in cols)), Y.shape),
            w, True, w, 2, lambda x, lo, hi: total(lo, *x) > tol and total(hi, *x) < -tol)


def matkowski_batch(f: Sequence[GeneratorFn], cfg: SolverConfig = DEFAULT_CONFIG
                    ) -> Optional[Callable[[np.ndarray], tuple]]:
    """The numpy form of ``matkowski_mean(f, ., cfg)``, for generators of
    one domain that each have a numpy form: a named one (log, exp,
    identity) or ``GeneratorFn.batch``; None otherwise.  See
    ``_matkowski_solve``."""
    forms = [fi.batch or _NAMED_FORMS.get((fi.eval, fi.inverse), (None,))[0] for fi in f]
    if None in forms or any(fi.domain != f[0].domain for fi in f):
        return None
    return partial(_solved_rows, partial(_matkowski_solve, tuple(f), forms, cfg))


def _matkowski_solve(f: tuple, forms: list, cfg: SolverConfig, X: np.ndarray, a: np.ndarray,
                     b: np.ndarray) -> tuple:
    """``matkowski_mean(f, x, cfg)`` for each row x of X (see the forms of
    a solve above): a constant row is its value; NaN for rows outside the
    domain, where a generator's numpy value is not finite on the data or at
    an end of the hull, and where ``_settled`` cannot promise that the
    search ends by its width tolerance w.  The certificate is
    ``_matkowski_section``, built from the data as the solve builds it,
    below 0 at alpha and above 0 at beta.  The band is _BAND_ULPS n eps of
    the sum of the scaled |f_i| at both ends of the hull and of the
    target."""
    T, n = X.shape
    scale = math.ldexp(1.0, -(2 * n - 1).bit_length())
    inside = _inside(f[0].domain, a, b)
    evals = [fi.eval for fi in f]

    def terms(Y: np.ndarray) -> list:
        return [scale * form(Y) for form in forms]

    def check(x: list, lo: float, hi: float) -> bool:
        g = _matkowski_section(evals, x)
        return g(lo) < 0.0 < g(hi)

    target = _summed([scale * form(x) for form, x in zip(forms, X.T)], (T,))
    at_ends = terms(np.stack((a, b)))
    lo, hi = _summed(at_ends, (2, T)) - target
    w = cfg.rel_tol * (b - a) + cfg.abs_tol
    return (inside, inside & _settled(a, b, w, cfg.max_iter), lo, hi,
            _BAND_ULPS * n * _EPS * (_summed(map(np.abs, at_ends), (2, T)).sum(axis=0)
                                     + np.abs(target)),
            lambda rows, Y: _summed(terms(Y), Y.shape) - target[rows], w, False, w, 2, check)


def _inverse_solve(f: GeneratorFn, weights: Optional[WeightTuple], forms: Optional[Callable],
                   X: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """``quasi_arithmetic_mean(f, x)``, or ``bajraktarevic_mean(f, weights,
    x)`` where weights are given, with their numpy form ``forms``, for each
    row x of X (see the forms of a solve above), where f.inverse is
    ``numeric_inverse`` of f.eval and settles on the domain's finite window
    (``GeneratorFn.batch``).  NaN for constant rows and for rows outside
    that window, where the search would first widen its bracket.  The
    certificate is f.eval below the scalar target of ``_invert_average``
    (``_average_target``, the weights checked as ``bajraktarevic_mean``
    checks them) at alpha and above it at beta, a target at least the least
    normal float, where the inverse needs no underflow check.  The inverse
    ends on a bracket no wider than 2^-1073 + 4 eps of its ends, of which it
    returns the midpoint, clamped into the hull as the value here is: so the
    radius adds 8 eps of the ends and 2^-1072 to the enclosure's reach.  The
    band is _BAND_ULPS (n + 2) eps of |t| and of the (weighted) mean of
    |f(x_i)|, for the average t."""
    n = X.shape[1]
    window = f.domain.finite_window()

    def check(x: list, lo: float, hi: float) -> bool:
        _, target = _average_target(f, x, None if weights is None else _weight_values(weights, x))
        return abs(target) >= _NORMAL_MIN and f.eval(lo) < target < f.eval(hi)

    fw = np.broadcast_to(f.batch(X), X.shape)
    W = 1.0 if forms is None else _weight_rows(forms, X)
    mass = n if forms is None else W.sum(axis=1)
    t = _clip((W * fw).sum(axis=1) / mass, fw.min(axis=1), fw.max(axis=1))
    return (False, _inside(f.domain, a, b) & (a >= window[0]) & (b <= window[1]),
            fw.min(axis=1) - t, fw.max(axis=1) - t,
            _BAND_ULPS * (n + 2) * _EPS * (np.abs(t) + (W * np.abs(fw)).sum(axis=1) / mass),
            lambda rows, Y: np.broadcast_to(f.batch(Y), Y.shape) - t[rows],
            2.0 ** -36 * (b - a), False, 4.0 * _TINY, 8, check)


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
    try:
        g = _matkowski_section([fi.eval for fi in f], xs)
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


def _matkowski_section(evals: list, xs: list) -> Callable[[float], float]:
    """The section g(y) = sum_i s f_i(y) - sum_i s f_i(x_i) that
    ``matkowski_mean`` solves, for s = 2^-k, 2^k >= 2n; DomainError where a
    generator is not finite on the data.  A generator's OverflowError
    passes, here and in g."""
    scale = math.ldexp(1.0, -(2 * len(xs) - 1).bit_length())
    values = [ev(xi) for ev, xi in zip(evals, xs)]
    if not all(map(math.isfinite, values)):
        raise DomainError(f"a generator is not finite on the data {xs}")
    target = math.fsum([scale * v for v in values])
    return lambda y: math.fsum([scale * ev(y) for ev in evals]) - target


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


def _summable(weights: Sequence[float]) -> tuple:
    """Finite positive weights and their sum by math.fsum; where that sum
    leaves the float range, the weights times 2^-s instead, for s from the
    exponent of the largest and the count n, which brings each below
    2^1024 / n and so their sum below 2^1024.  A power of two scales every
    weight of at least 2^(s - 1022) exactly, and leaves the weighted mean as
    it is."""
    try:
        return weights, math.fsum(weights)
    except OverflowError:
        s = math.frexp(max(weights))[1] + len(weights).bit_length() - 1024
        weights = [math.ldexp(w, -s) for w in weights]
        return weights, math.fsum(weights)


def average(xs: Sequence[float], weights: Optional[Sequence[float]] = None) -> float:
    """sum_i w_i x_i / sum_i w_i for positive weights, by math.fsum; for
    unit weights (None) no product is formed and the mean is fsum(x) / n.
    Where a product w_i x_i or a partial sum of finite data leaves the float
    range, and the mean does not, the sum is formed again on x_i / m for m =
    max_i |x_i|; where the sum of the weights does, the weights are scaled
    (``_summable``)."""
    if weights is None:
        terms, total = xs, len(xs)
    else:
        weights, total = _summable(weights)
        terms = [w * v for w, v in zip(weights, xs)]
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


def average_batch(weights: Optional[tuple], X: np.ndarray) -> np.ndarray:
    """``average(x, weights)`` for each row x of X and constant positive
    weights, or unit weights (None), in numpy: NaN where a sum overflows and
    where the value is not a normal float.  The numpy sum of the n products
    is off by n eps times the sum of their magnitudes, which cancellation can
    make large against the value."""
    n = X.shape[1]
    with np.errstate(all="ignore"):
        if weights is None:
            terms, total = X, n
        else:
            weights, total = _summable(weights)
            terms = X * np.asarray(weights, dtype=float)
        s = terms.sum(axis=1)
        values = s / total
        ulps = n * np.abs(terms).sum(axis=1) / np.abs(s) + 3
        return _budgeted(np.abs(values) >= _NORMAL_MIN, values, ulps)


def _point_sum(pts, weights: Optional[Sequence[float]]) -> np.ndarray:
    """sum_i w_i x_i, summed in order by a loop, or for unit weights (None)
    the sum of the stacked x_i along their first axis, bitwise np.sum; each
    x_i is a point, or a block of points, one per row."""
    if weights is None:
        return np.asarray(pts, dtype=float).sum(axis=0)
    acc = np.zeros_like(pts[0])
    for w, pt in zip(weights, pts):
        acc = acc + w * pt
    return acc


def point_average(pts: Sequence, weights: Optional[Sequence[float]] = None) -> np.ndarray:
    """The average of points, coordinate by coordinate.  For unit weights
    (None) it is the column sums of the stacked points over n, bitwise
    np.mean; otherwise sum_i w_i x_i / sum_i w_i, summed in order by a loop
    and not by a BLAS dot, whose last bits depend on the kernel OpenBLAS
    picks at run time.  Where a product or a partial sum of finite points
    overflows, the sum is formed again on x_i / m for m the largest |x_i| in
    each coordinate (1 where all are 0); where the sum of the weights does,
    the weights are scaled (``_summable``)."""
    total = len(pts)
    if weights is not None:
        weights, total = _summable(weights)
    with np.errstate(over="ignore"):
        acc = _point_sum(pts, weights)
    if not_finite(acc.ravel()):
        arr = np.asarray(pts, dtype=float)
        if np.isfinite(arr).all():
            m = np.abs(arr).max(axis=0)
            m[m == 0.0] = 1.0
            return sum(w * (pt / m) for w, pt in zip(weights or [1.0] * len(arr), arr)) / total * m
    return acc / total


def point_average_batch(weights: Optional[tuple], X: np.ndarray) -> np.ndarray:
    """``point_average(x, weights)`` for each row x of the (T, n, d) block X
    of n-tuples of points and constant positive weights, or unit weights
    (None), by point_average's own sums (``_point_sum``) of every row at
    once: a (T, d) block whose row is NaN where a coordinate of it is, as
    ``average_batch`` bounds each coordinate (a sum that overflows, where
    point_average sums again, scaled, is NaN)."""
    n = X.shape[1]
    pts = X.swapaxes(0, 1)
    total = n
    if weights is not None:
        weights, total = _summable(weights)
    with np.errstate(all="ignore"):
        s = _point_sum(pts, weights)
        values = s / total
        ulps = n * _point_sum(np.abs(pts), weights) / np.abs(s) + 3
        values = _budgeted(np.abs(values) >= _NORMAL_MIN, values, ulps)
        return np.where(np.isnan(values).any(axis=1, keepdims=True), np.nan, values)


def weighted_arith_mean(w: Sequence, x: Sequence) -> Union[float, np.ndarray]:
    """sum_i w_i(x_i) x_i / sum_i w_i(x_i) for scalar or point entries, by
    ``average`` or ``point_average``.

    Weight entries may be WeightFn instances or plain callables, and a
    WeightTuple evaluates them all in one call; each must be finite and
    positive at its argument (``_weight_values``).
    """
    if len(w) != len(x):
        raise InvalidArgumentError(f"weight count {len(w)} != tuple length {len(x)}")
    if len(x) == 0:
        raise InvalidArgumentError("empty tuple")
    if isinstance(x[0], float) or np.isscalar(x[0]) or np.asarray(x[0]).ndim == 0:
        xs = [float(xi) for xi in x]
        return average(xs, _weight_values(w, xs))
    return point_average(as_point_tuple(x), _weight_values(w, x))
