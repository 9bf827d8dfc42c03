"""Reductions of means: solving M((x|chi)(y)) = y for y in the hull of x.

Given an n-variable mean M and an injection chi of k slots into n, the
reduction of M at a k-tuple x is a fixed point of the spliced evaluation
y -> M((x|chi)(y)).  For scalar means the mean property pins the sign of
mu(y) = M((x|chi)(y)) - y at the ends of [min(x), max(x)], so a bracketed
search on mu converges unconditionally; fixed-point iteration could cycle for
non-contractive maps.  The search is ``core.bracketed_root``: Chandrupatla's
interpolation step (Adv. Eng. Software 28(3), 1997) inside ITP's projection
(Oliveira & Takahashi, ACM TOMS 2020), never more than n_0 = 6 steps over
bisection's count ceil(log2(w / width_tol)), superlinear on smooth mu and
mostly one step on affine mu.  For vector means the solver is a damped
fixed-point iteration from the centroid, with a safeguarded secant
(Anderson depth-1) extrapolation layered on top: plain iteration contracts
arbitrarily slowly when the spliced slots dominate, and the extrapolated
iterate is only ever accepted when it reduces the fixed-point residual, so
certificates are unaffected.  The damping halves, down to 1/64, on every
tenth step of the run that does not lower the residual.

Uniqueness cannot be decided for a black-box mean; results carry a tri-state
flag ("unique" / "multiple-suspected" / "unknown"), never a silent claim.
The solves leave it "unknown" (except for a constant tuple, whose only fixed
point is that constant); the separate step ``check_uniqueness`` sets it from
sign probes in the scalar case and from multi-start disagreement in the
vector case.  ``reduce_mean``, and so ``meanreduce reduce``, runs that step;
``fixed_point_mean_fn`` and the reduction oracles read only the value and
skip it.

Families that reduce by selection (deviation means, by Daróczy's
reducibility theorem) carry a ``MeanFn.select`` hook, and
``reduced_mean_fn``, which the lab searches with, returns the selected mean
in place of the fixed point.  The routes stay independent: ``reduce_scalar``,
``reduce_vector``, ``reduce_mean``, ``fixed_point_mean_fn`` and the
reduction oracles never consult the hook, and the lab re-evaluates every
witness it records by ``fixed_point_mean_fn``.

A solver's report becomes a mean value only where the solve converged
(``core._certified``; NoConvergenceError otherwise): the solver-backed
means built here, their selections, ``fixed_point_mean_fn``, both sides of
the reduction oracles and ``meanreduce mean`` and ``reduce`` all pass
through it.  A fixed point cannot be more accurate than the inner solves it
iterates, so an inner solve that did not converge stops the reduction that
called it; ``check_uniqueness`` reads such a stop as "unknown".
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import (
    DEFAULT_CONFIG,
    Injection,
    SolverConfig,
    SolverReport,
    _certified,
    as_point_tuple,
    bracketed_root,
    length,
    not_finite,
    scaled_width,
    select,
    splice,
    wide_uniform,
)
from .errors import (
    InvalidArgumentError,
    NoConvergenceError,
    NotAMeanError,
)
from .scalar import (DeviationTuple, WeightTuple, deviation_batch, deviation_mean,
                     weighted_arith_mean)
from .vector import (
    GenDeviation,
    GenDeviationTuple,
    PotentialFn,
    barycentric_feasibility,
    gen_deviation_mean,
    potential_mean,
)

UNIQUE = "unique"
MULTIPLE_SUSPECTED = "multiple-suspected"
UNKNOWN = "unknown"

# A Python float: np.finfo(float).eps is a numpy scalar, which would carry
# numpy-scalar arithmetic into every tolerance derived from it.
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class MeanFn:
    """An n-variable mean as a callable with declared arity and dimension.

    ``dim`` is None for scalar means and the point dimension for vector
    means.  The mean property and reflexivity are not enforceable for a
    black-box callable; ``check_mean_function`` samples them on demand.

    ``report`` is set for solver-backed means: it maps a data tuple to the
    solver's ``SolverReport``, and ``eval`` returns that report's value where
    the solve converged and raises NoConvergenceError, naming the mean and
    the data, where it did not (``core._certified``).  It is None for closed
    forms.

    ``select`` is set for the means of a family that reduces by selection,
    the deviation means of Daróczy's reducibility theorem: on the unselected
    slots of (x|chi)(y) the deviations vanish, E_i(y, y) = 0, so the
    reduction along an injection chi of k slots into n = ``arity`` is the
    family's k-variable mean of the entries that chi picks (weights,
    generators, deviations or potentials).  ``select(chi)`` returns that
    mean.  ``reduced_mean_fn`` uses it after checking chi; it is None for a
    black-box mean, which reduces by the fixed point.

    ``batch`` is the mean's numpy form, where it has one (see
    :mod:`meanreduce.descriptors`).  It maps a (T, arity) array of data
    tuples to ``(values, radius)``: their T values and how far ``eval`` may
    lie from each, a float or an array of T.  A mean of points in R^d maps a
    (T, arity, d) block of tuples of points to their T points, shape
    (T, d).  Each finite value, or coordinate, lies within radius plus
    ``core.BATCH_MARGIN`` / 4 times its |eval| of ``eval`` on that row, and
    a row is NaN wherever ``eval`` raises or the form cannot promise that.
    A closed form's radius is 0.  A solve promises its value only to the
    width it stops at, so the form of a deviation, Matkowski or
    inverted-generator mean encloses the root of the solve's section in
    numpy and checks each end with one scalar call of that section: its
    radius is the enclosure's reach plus that width (see the forms of a
    solve in :mod:`meanreduce.scalar`).  That proof assumes the section
    monotone and finite on the hull of the data, as the deviation axioms
    and the generators' monotonicity, sampled at build, say.  The numpy
    search checks what it evaluates: ``_check_monotone``'s guard on its own
    points, finite values at the ends of the hull.  So the one case the
    form cannot see is a section that is not monotone, or not finite, only
    at or between the points the scalar solve itself evaluates: there the
    scalar path raises where the form gave a value.  Two kinds of row are
    NaN without a search: a row whose root lies within the band of an end
    of the hull, and a constant row of an expression generator's mean,
    whose scalar inverse can raise on an underflowing target.  The lab
    screens its trials with the form (see :mod:`meanreduce.lab`); every
    reported value still comes from ``eval``.  ``reduced_mean_fn`` keeps
    the selected mean's hook.  The vector means of a solve have none.
    """

    arity: int
    eval: Callable
    dim: Optional[int] = None
    label: str = "mean"
    report: Optional[Callable] = None
    select: Optional[Callable[[Injection], "MeanFn"]] = None
    batch: Optional[Callable[[np.ndarray], tuple]] = None

    def __post_init__(self):
        if self.arity <= 0:
            raise InvalidArgumentError("mean arity must be positive")
        if self.dim is not None and self.dim <= 0:
            raise InvalidArgumentError("mean dimension must be positive")

    def __call__(self, x: Sequence):
        if len(x) != self.arity:
            raise InvalidArgumentError(
                f"{self.label} expects {self.arity} arguments, got {len(x)}"
            )
        return self.eval(tuple(x))


def _solver_mean_fn(solve, entries, cfg: SolverConfig, label: str,
                    dim: Optional[int] = None, batch: Optional[Callable] = None) -> MeanFn:
    # Each evaluation is one solve of its own: the mean is a function of its
    # arguments alone.  batch(entries, cfg), where given, is the numpy form
    # of the solve, or None; a selection builds its own.
    report = lambda xs: solve(entries, xs, cfg)  # noqa: E731
    return MeanFn(arity=len(entries), dim=dim, label=label, report=report,
                  eval=lambda xs: _certified(report(xs), label, xs),
                  select=lambda chi: _solver_mean_fn(solve, _select_entries(entries, chi), cfg,
                                                     f"{label} reduced by {chi.map}", dim, batch),
                  batch=None if batch is None else batch(entries, cfg))


def _select_entries(entries, chi: Injection):
    """The entries chi picks: a DeviationTuple or a GenDeviationTuple binds
    them as one family (its ``select``), any other entries are a tuple."""
    if isinstance(entries, (DeviationTuple, GenDeviationTuple)):
        return entries.select(chi)
    return select(entries, chi)


def deviation_mean_fn(E, cfg: SolverConfig = DEFAULT_CONFIG,
                      label: str = "deviation mean") -> MeanFn:
    # Bound once here, for every solve of the mean.
    E = DeviationTuple.of(E)
    return _solver_mean_fn(deviation_mean, E, cfg, label, batch=deviation_batch)


def gen_deviation_mean_fn(E: Sequence[GenDeviation], cfg: SolverConfig = DEFAULT_CONFIG,
                          label: str = "generalized deviation mean") -> MeanFn:
    """MeanFn wrapper around the hull variational inequality solver
    ``gen_deviation_mean``, one cold solve per evaluation.  The deviations
    are bound once here as one family (``vector.GenDeviationTuple``), for
    every solve of the mean and its selections."""
    E = GenDeviationTuple.of(E)
    return _solver_mean_fn(gen_deviation_mean, E, cfg, label, E[0].dim)


def potential_mean_fn(F: Sequence[PotentialFn], cfg: SolverConfig = DEFAULT_CONFIG,
                      label: str = "potential mean") -> MeanFn:
    entries = tuple(F)
    return _solver_mean_fn(potential_mean, entries, cfg, label, entries[0].dim)


def check_mean_function(M: MeanFn, sample_point: Callable, samples: int = 32,
                        seed: int = 0, tol: float = 1e-9):
    """Sample the mean property and reflexivity of a MeanFn.

    ``sample_point(rng)`` draws one admissible point of the mean's domain.
    Raises NotAMeanError on a violation.
    """
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        xs = tuple(sample_point(rng) for _ in range(M.arity))
        value = M(xs)
        if M.dim is None:
            lo, hi = min(xs), max(xs)
            if not (lo - 1e-12 * (1 + abs(lo)) <= value <= hi + 1e-12 * (1 + abs(hi))):
                raise NotAMeanError(f"{M.label}: value {value} outside [{lo}, {hi}]")
        else:
            _, residual = barycentric_feasibility(xs, value)
            if residual > tol * (1.0 + float(np.linalg.norm(value))):
                raise NotAMeanError(f"{M.label}: value {value} outside the hull")
        u = sample_point(rng)
        refl = M((u,) * M.arity)
        gap = abs(refl - u) if M.dim is None else float(np.linalg.norm(refl - u))
        scale = 1.0 + (abs(u) if M.dim is None else float(np.linalg.norm(u)))
        if gap > 1e-12 * scale:
            raise NotAMeanError(f"{M.label}: not reflexive at {u}: {refl}")


@dataclass(frozen=True)
class ReductionResult:
    """A reduced mean value with its fixed-point certificate.

    The value and the fixed-point residual are the certificate's own, read
    through the properties ``reduced_value`` and ``fixed_point_residual``:
    one record holds them, so a reduction builds two small frozen records,
    not one record with the value and the residual twice.
    """

    certificate: SolverReport
    unique_flag: str = UNKNOWN
    continuity_suspect: bool = False

    @property
    def reduced_value(self) -> Union[float, np.ndarray]:
        return self.certificate.value

    @property
    def fixed_point_residual(self) -> float:
        return self.certificate.residual

    def to_json(self) -> dict:
        return {**self.certificate.to_json(), "unique_flag": self.unique_flag,
                "continuity_suspect": bool(self.continuity_suspect)}


def _check_target(M: MeanFn, chi: Injection):
    if chi.n != M.arity:
        raise InvalidArgumentError(f"injection targets {chi.n} slots, mean has {M.arity}")


def _check_chi(M: MeanFn, chi: Injection, x: Sequence):
    _check_target(M, chi)
    if len(x) != chi.k:
        raise InvalidArgumentError(f"tuple length {len(x)} != injection arity {chi.k}")


def _scalar_setup(M: MeanFn, chi: Injection, x: Sequence[float], cfg: SolverConfig):
    """Bracket ends, residual tolerance and spliced evaluation y ->
    M(splice(x, chi, y)) of a scalar reduction, as ``_vector_setup`` gives
    for points.  The residual tolerance abs_tol (1 + (b0 - a0)) is formed
    without overflow where b0 - a0 leaves the float range.
    """
    _check_chi(M, chi, x)
    if M.dim is not None:
        raise InvalidArgumentError("reduce_scalar needs a scalar mean")
    xs = [float(v) for v in x]
    a0, b0 = min(xs), max(xs)

    def m(y: float) -> float:
        return float(M(splice(xs, chi, y)))

    return a0, b0, scaled_width(cfg.abs_tol, a0, b0, 1.0), m


def reduce_scalar(M: MeanFn, chi: Injection, x: Sequence[float],
                  cfg: SolverConfig = DEFAULT_CONFIG) -> ReductionResult:
    """Reduce a scalar mean by ``core.bracketed_root`` on
    mu(y) = M((x|chi)(y)) - y, keeping the iterate of least |mu|.

    The mean property forces mu >= 0 at min(x) and mu <= 0 at max(x); a sign
    anomaly beyond abs_tol raises NotAMeanError.  Adjacent evaluations whose
    gap exceeds 1000 times their separation mark the result as continuity
    suspect, and so do the two ends of the final bracket.  The solve costs
    2 + iterations evaluations of M.

    The uniqueness flag is left "unknown" ("unique" for a constant tuple).
    ``check_uniqueness`` sets it; ``reduce_mean``, and so ``meanreduce
    reduce``, runs that step, while ``fixed_point_mean_fn`` (the lab's
    recheck) and the reduction oracles skip it.
    """
    a0, b0, res_tol, m = _scalar_setup(M, chi, x, cfg)

    if a0 == b0:
        report = SolverReport(value=a0, residual=0.0, iterations=0, converged=True)
        return ReductionResult(report, unique_flag=UNIQUE)

    means = {a0: m(a0), b0: m(b0)}
    mu_a = means[a0] - a0
    mu_b = means[b0] - b0
    if mu_a < -cfg.abs_tol:
        raise NotAMeanError(f"mu(min x) = {mu_a} < 0: {M.label} violates the mean property")
    if mu_b > cfg.abs_tol:
        raise NotAMeanError(f"mu(max x) = {mu_b} > 0: {M.label} violates the mean property")

    suspect = False
    prev_y: Optional[float] = None
    prev_m: Optional[float] = None
    root, residual = a0, abs(mu_a)

    def probe(y: float) -> float:
        nonlocal suspect, prev_y, prev_m, root, residual
        my = means[y] = m(y)
        if prev_y is not None and y != prev_y:
            if abs(my - prev_m) > 1e3 * abs(y - prev_y):
                suspect = True
        prev_y, prev_m = y, my
        mu = my - y
        if abs(mu) < residual:
            root, residual = y, abs(mu)
        return mu

    iterations = 0
    if mu_a > 0.0 and mu_b >= 0.0:
        root, residual = b0, abs(mu_b)
    elif mu_a > 0.0:
        # The bracket width floor only stops stagnation at float resolution;
        # convergence itself is judged by the fixed-point residual of the
        # best iterate.  It is 8 eps (|a0| + |b0| + 1), formed without
        # overflow.
        width_floor = scaled_width(8.0 * _EPS, -abs(a0), abs(b0), 1.0)
        search = bracketed_root(probe, a0, b0, mu_a, mu_b, width_floor, cfg.max_iter,
                                done=lambda *_: residual <= res_tol)
        iterations = search.iterations
        # A jump sitting exactly on a probed point is never straddled by two
        # consecutive probes; the final bracket's ends straddle it.
        if abs(means[search.b] - means[search.a]) > 1e3 * (search.b - search.a):
            suspect = True

    report = SolverReport(value=root, residual=residual, iterations=iterations,
                          converged=residual <= res_tol)
    return ReductionResult(report, continuity_suspect=suspect)


def _fixed_point_run(m: Callable, y0: np.ndarray, tol: float,
                     cfg: SolverConfig) -> tuple[np.ndarray, float, int, bool]:
    """Fixed-point iteration with safeguarded secant extrapolation: a plain
    step y + alpha (m(y) - y), alpha = 1, stands where the extrapolation is
    missing or does not lower the residual, and alpha halves, down to 1/64,
    on every tenth step of the run that does not lower it, so that no cycle
    of steps escapes the halving."""
    alpha = 1.0
    y = y0.copy()
    r = m(y) - y
    rnorm = math.sqrt(float(r @ r))
    prev: Optional[tuple[np.ndarray, np.ndarray]] = None
    no_progress = 0
    iterations = 0
    while rnorm > tol and iterations < cfg.max_iter:
        iterations += 1
        y_next = None
        if prev is not None:
            dr = r - prev[1]
            denom = float(dr @ dr)
            if denom > 0.0:
                theta = float(r @ dr) / denom
                if abs(theta) <= 8.0:
                    cand = (y + r) - theta * ((y - prev[0]) + dr)
                    if not not_finite(cand):
                        y_next = cand
        plain = y + alpha * r
        if y_next is None:
            y_next = plain
            accelerated = False
        else:
            accelerated = True
        r_next = m(y_next) - y_next
        rn = math.sqrt(float(r_next @ r_next))
        if accelerated and rn > rnorm:
            y_next = plain
            r_next = m(y_next) - y_next
            rn = math.sqrt(float(r_next @ r_next))
            prev = None
        else:
            prev = (y, r)
        if rn >= rnorm:
            no_progress += 1
            if no_progress % 10 == 0:
                alpha = max(alpha * 0.5, 1.0 / 64.0)
        y, r, rnorm = y_next, r_next, rn
    return y, rnorm, iterations, rnorm <= tol


def _vector_setup(M: MeanFn, chi: Injection, x: Sequence, cfg: SolverConfig):
    """Points, centroid, diameter, residual tolerance and spliced evaluation
    y -> M((x|chi)(y)) of a vector reduction."""
    _check_chi(M, chi, x)
    if M.dim is None:
        raise InvalidArgumentError("reduce_vector needs a vector mean")
    pts = as_point_tuple(x, M.dim)
    spread = max((length(p - q) for p in pts for q in pts), default=0.0)

    def m(y: np.ndarray) -> np.ndarray:
        return np.asarray(M(splice(pts, chi, y)), dtype=float)

    centroid = np.stack(pts, axis=0).mean(axis=0)
    return pts, centroid, spread, cfg.abs_tol * (1.0 + spread), m


def reduce_vector(M: MeanFn, chi: Injection, x: Sequence,
                  cfg: SolverConfig = DEFAULT_CONFIG) -> ReductionResult:
    """Reduce a vector mean by damped fixed-point iteration from the centroid.

    The uniqueness flag is left "unknown" ("unique" for a constant tuple).
    ``check_uniqueness`` sets it from restarts; ``reduce_mean``, and so
    ``meanreduce reduce``, runs that step, while ``fixed_point_mean_fn``
    (the lab's recheck) and the reduction oracles skip it.
    """
    pts, centroid, spread, tol, m = _vector_setup(M, chi, x, cfg)

    if spread == 0.0:
        report = SolverReport(value=pts[0].copy(), residual=0.0, iterations=0, converged=True)
        return ReductionResult(report, unique_flag=UNIQUE)

    y, rnorm, iterations, converged = _fixed_point_run(m, centroid, tol, cfg)
    report = SolverReport(value=y, residual=rnorm, iterations=iterations, converged=converged)
    return ReductionResult(report)


def _scalar_uniqueness(M: MeanFn, chi: Injection, x: Sequence[float], root: float,
                       cfg: SolverConfig) -> str:
    a0, b0, res_tol, m = _scalar_setup(M, chi, x, cfg)
    if a0 == b0:
        return UNIQUE
    band = max(16.0 * res_tol, scaled_width(1e-9, a0, b0))
    if b0 - a0 < math.inf:
        grid = np.linspace(a0, b0, 9)[1:-1].tolist()
    else:
        grid = [0.125 * (8 - i) * a0 + 0.125 * i * b0 for i in range(1, 8)]
    for y in grid:
        if abs(y - root) <= band:
            continue
        sign = m(y) - y
        if sign * (root - y) < 0 and abs(sign) > res_tol:
            return MULTIPLE_SUSPECTED
    return UNIQUE


def _vector_uniqueness(M: MeanFn, chi: Injection, x: Sequence, root: np.ndarray,
                       cfg: SolverConfig) -> str:
    pts, centroid, spread, tol, m = _vector_setup(M, chi, x, cfg)
    if spread == 0.0:
        return UNIQUE
    restart_tol = max(tol, 1e-8 * (1.0 + spread))
    results = [root]
    for p in pts:
        yj, _, _, ok = _fixed_point_run(m, 0.5 * p + 0.5 * centroid, restart_tol, cfg)
        if not ok:
            return UNKNOWN
        results.append(yj)
    worst = max(float(np.linalg.norm(p - q)) for p in results for q in results)
    return UNIQUE if worst <= 1e-6 else MULTIPLE_SUSPECTED


def check_uniqueness(M: MeanFn, chi: Injection, x: Sequence, result: ReductionResult,
                     cfg: SolverConfig = DEFAULT_CONFIG) -> ReductionResult:
    """Return ``result`` with its uniqueness flag set.

    ``result`` is what ``reduce_scalar`` or ``reduce_vector`` returned for the
    same M, chi, x and cfg.  Uniqueness cannot be decided for a black-box
    mean, so this is a guess:

    - scalar: sign probes of mu(y) = M((x|chi)(y)) - y at the 7 interior
      points of a uniform 9-point grid on [min(x), max(x)], skipping those
      within max(16 res_tol, 1e-9 spread) of the root; a probe whose sign
      contradicts a single crossing beyond res_tol gives "multiple-suspected";
      up to 7 evaluations of M.
    - vector: k restarts of the fixed-point iteration from 0.5 x_j +
      0.5 centroid; a restart that fails to converge gives "unknown", and
      converged runs that disagree with each other or with the root beyond
      1e-6 give "multiple-suspected".

    Otherwise the flag is "unique", as it is for a constant tuple.  An
    unconverged result stays "unknown" and costs no evaluation, and a probe
    or restart whose inner solve of M does not converge (NoConvergenceError)
    gives "unknown".
    ``reduce_mean`` runs this step; ``fixed_point_mean_fn`` and the
    reduction oracles skip it.
    """
    if not result.certificate.converged:
        return replace(result, unique_flag=UNKNOWN)
    try:
        if M.dim is None:
            flag = _scalar_uniqueness(M, chi, x, float(result.reduced_value), cfg)
        else:
            flag = _vector_uniqueness(M, chi, x, result.reduced_value, cfg)
    except NoConvergenceError:
        flag = UNKNOWN
    return replace(result, unique_flag=flag)


def reduce_mean(M: MeanFn, chi: Injection, x: Sequence,
                cfg: SolverConfig = DEFAULT_CONFIG) -> ReductionResult:
    """Dispatch to the scalar or vector reduction, then set the uniqueness
    flag with ``check_uniqueness``.

    This is the reduction ``meanreduce reduce`` prints, always by the fixed
    point: the selection hook is not consulted.  ``fixed_point_mean_fn``
    and the reduction oracles read only the value and call the solves
    directly, skipping the uniqueness step.
    """
    solve = reduce_scalar if M.dim is None else reduce_vector
    return check_uniqueness(M, chi, x, solve(M, chi, x, cfg), cfg)


def reduced_mean_fn(M: MeanFn, chi: Injection,
                    cfg: SolverConfig = DEFAULT_CONFIG) -> MeanFn:
    """The k-variable mean x -> reduction of M along chi at x.

    Where M reduces by selection (``M.select`` is set), this is
    ``M.select(chi)``: the family's k-variable mean of the selected entries,
    evaluated with the configuration M was built with, its ``report`` and
    ``batch`` hooks kept.  A solver-backed selection, as every solver-backed
    mean, raises NoConvergenceError on a solve that did not converge.
    Otherwise it is ``fixed_point_mean_fn(M, chi, cfg)``.  Either way chi
    must map into M's n slots (InvalidArgumentError otherwise).

    The lab reduces through this function and re-evaluates every witness it
    records by ``fixed_point_mean_fn``; ``reduce_mean`` and the reduction
    oracles never consult the hook.
    """
    _check_target(M, chi)
    if M.select is None:
        return fixed_point_mean_fn(M, chi, cfg)
    return replace(M.select(chi), label=f"{M.label} reduced by {chi.map}")


def fixed_point_mean_fn(M: MeanFn, chi: Injection,
                        cfg: SolverConfig = DEFAULT_CONFIG) -> MeanFn:
    """The k-variable mean x -> reduction of M along chi at x, by the fixed
    point whether or not M reduces by selection.

    Each evaluation runs ``reduce_scalar`` or ``reduce_vector``, whose
    fixed-point certificate is the mean's ``report``, and returns its value,
    or raises NoConvergenceError when the reduction, or an inner solve of M,
    does not converge.  It skips ``check_uniqueness``, which only
    ``reduce_mean`` (and so ``meanreduce reduce``) runs: the flag would be
    dropped here.
    """
    label = f"{M.label} reduced by {chi.map}"

    def report(xs):
        solve = reduce_scalar if M.dim is None else reduce_vector
        return solve(M, chi, xs, cfg).certificate

    return MeanFn(arity=chi.k, dim=M.dim, label=label, report=report,
                  eval=lambda xs: _certified(report(xs), label, xs))


@dataclass(frozen=True)
class OracleCheckReport:
    """Aggregate of a randomized two-route agreement check."""

    samples: int
    tol: float
    max_abs_error: float
    failures: tuple = ()

    @property
    def passed(self) -> bool:
        return len(self.failures) == 0

    def to_json(self) -> dict:
        return {
            "samples": int(self.samples),
            "tol": float(self.tol),
            "max_abs_error": float(self.max_abs_error),
            "failures": len(self.failures),
            "passed": self.passed,
        }


def _oracle_check(tol: float, low, high, shape: tuple, reduced: Callable, direct: Callable,
                  samples: int, seed: int) -> OracleCheckReport:
    """Compare reduced(x) with direct(x) on ``samples`` draws x from [low,
    high], each one ``core.wide_uniform`` call of a generator seeded with
    ``seed``: a k-tuple of floats for shape (k,), of points in R^dim for
    shape (k, dim).  Each draw whose error size(reduced - direct) exceeds
    tol (1 + size(direct)), the scaling the lab gives its slacks, is
    recorded; ``size`` is abs for scalars and the Euclidean norm for
    points.  The report's max_abs_error is the largest unscaled error."""
    rng = np.random.default_rng(seed)
    size = abs if len(shape) == 1 else _norm
    worst = 0.0
    failures = []
    for _ in range(samples):
        drawn = wide_uniform(rng, low, high, shape)
        xs = tuple(drawn.tolist() if len(shape) == 1 else drawn)
        lhs = reduced(xs)
        rhs = direct(xs)
        err = size(lhs - rhs)
        worst = max(worst, err)
        if err > tol * (1.0 + size(rhs)):
            plain = [np.asarray(v, dtype=float).tolist() for v in (xs, lhs, rhs)]
            failures.append({"x": plain[0], "reduced": plain[1], "direct": plain[2],
                             "error": err})
    return OracleCheckReport(samples=samples, tol=tol, max_abs_error=worst,
                             failures=tuple(failures))


def _norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def weighted_arith_oracle(w: Sequence, chi: Injection, tol: float,
                          cfg: SolverConfig = DEFAULT_CONFIG) -> Callable:
    """The two routes of ``check_weighted_arith_reduction``, built once, as
    the function of (samples, seed) that draws and compares them."""
    if len(w) != chi.n:
        raise InvalidArgumentError(f"need {chi.n} weights, got {len(w)}")
    w = WeightTuple.of(w)
    dom = getattr(w[0], "domain", None)
    lo, hi = dom.finite_window() if dom is not None else (-4.0, 4.0)
    M = MeanFn(arity=chi.n, eval=lambda xs: weighted_arith_mean(w, xs),
               label="weighted arithmetic")
    # The fixed-point residual amplifies into the value by the inverse slope
    # of mu, so the certificate must sit well below the agreement tolerance.
    run_cfg = replace(cfg, abs_tol=min(cfg.abs_tol, tol * 1e-3))
    w_sel = w.select(chi)
    return partial(_oracle_check, tol, lo, hi, (chi.k,), fixed_point_mean_fn(M, chi, run_cfg),
                   lambda xs: weighted_arith_mean(w_sel, xs))


def check_weighted_arith_reduction(w: Sequence, chi: Injection, samples: int,
                                   tol: float, seed: int = 0,
                                   cfg: SolverConfig = DEFAULT_CONFIG) -> OracleCheckReport:
    """Reducing a functionally weighted arithmetic mean must select weights.

    Over randomized k-tuples, the fixed-point reduction of the n-variable
    weighted arithmetic mean is compared with the k-variable weighted
    arithmetic mean built from the weights picked out by the injection.  A
    WeightTuple (``descriptors.build_weights``) evaluates the n weights of
    the reduced route in one call, and its selection (``WeightTuple.select``)
    the k weights of the direct route.  ``weighted_arith_oracle`` builds the
    two routes once, for any number of checks.
    """
    return weighted_arith_oracle(w, chi, tol, cfg)(samples, seed)


def deviation_oracle(E, chi: Injection, tol: float, cfg: SolverConfig = DEFAULT_CONFIG,
                     low: float = -2.0, high: float = 2.0) -> Callable:
    """The two routes of ``check_deviation_reduction``, built once, as the
    function of (samples, seed) that draws and compares them.  A box of
    points needs low < high and a finite high - low (InvalidArgumentError
    otherwise): the hull tolerances scale with the spread of the data."""
    entries = tuple(E)
    if len(entries) != chi.n:
        raise InvalidArgumentError(f"need {chi.n} deviations, got {len(entries)}")
    inner_abs = min(cfg.abs_tol, tol * 1e-4)
    inner = replace(cfg, abs_tol=inner_abs, rel_tol=min(cfg.rel_tol, 1e-13))
    outer = replace(cfg, abs_tol=max(tol * 1e-3, inner_abs * 10.0))
    if isinstance(entries[0], GenDeviation):
        low, high = float(low), float(high)
        if not 0.0 < high - low < math.inf:
            raise InvalidArgumentError("'low' and 'high': expected low < high with a finite "
                                       f"high - low, got {low!r} and {high!r}")
        family = GenDeviationTuple.of(E)
        return partial(_oracle_check, tol, low, high, (chi.k, entries[0].dim),
                       fixed_point_mean_fn(gen_deviation_mean_fn(family, inner), chi, outer),
                       gen_deviation_mean_fn(family.select(chi), inner))
    dev = DeviationTuple.of(E)
    lo, hi = dev.common_domain.finite_window()
    return partial(_oracle_check, tol, lo, hi, (chi.k,),
                   fixed_point_mean_fn(deviation_mean_fn(dev, inner), chi, outer),
                   deviation_mean_fn(dev.select(chi), inner))


def check_deviation_reduction(E, chi: Injection, samples: int, tol: float,
                              seed: int = 0, cfg: SolverConfig = DEFAULT_CONFIG,
                              low: float = -2.0, high: float = 2.0) -> OracleCheckReport:
    """Reducing a deviation mean must select deviations.

    The fixed-point reduction of the n-variable deviation mean is compared
    with the k-variable deviation mean of the selected deviations, over
    randomized k-tuples.  Accepts scalar deviation tuples or generalized
    deviations; for the latter the data is drawn from [low, high]^dim.
    ``deviation_oracle`` builds the two routes once, for any number of
    checks: a DeviationTuple binds its selection as one family
    (``DeviationTuple.select``).

    Inner mean solves and the outer fixed-point certificate both derive from
    the agreement tolerance: the outer residual amplifies into the reduced
    value by the inverse slope of mu and cannot beat the accuracy of the
    nested evaluations, so the chain is inner << outer << tol.
    """
    return deviation_oracle(E, chi, tol, cfg, low, high)(samples, seed)
