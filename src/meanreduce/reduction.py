"""Reductions of means: solving M((x|chi)(y)) = y for y in the hull of x.

Given an n-variable mean M and an injection chi of k slots into n, the
reduction of M at a k-tuple x is a fixed point of the spliced evaluation
y -> M((x|chi)(y)).  For scalar means the mean property pins the sign of
mu(y) = M((x|chi)(y)) - y at the ends of [min(x), max(x)], so a bracketed
search on mu converges unconditionally; fixed-point iteration could cycle for
non-contractive maps.  The search is ``core.bracketed_root``: Chandrupatla's
interpolation step (Adv. Eng. Software 28(3), 1997) inside ITP's projection
(Oliveira & Takahashi, ACM TOMS 2020), never more than one step over
bisection's count, superlinear on smooth mu and mostly one step on affine
mu.  For vector means the solver is a damped fixed-point iteration from the
centroid, with a safeguarded secant (Anderson depth-1) extrapolation layered
on top: plain iteration contracts arbitrarily slowly when the spliced slots
dominate, and the extrapolated iterate is only ever accepted when it reduces
the fixed-point residual, so certificates are unaffected.

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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import (
    DEFAULT_CONFIG,
    Injection,
    SolverConfig,
    SolverReport,
    as_point_tuple,
    bracketed_root,
    not_finite,
    scaled_width,
    select,
    splice,
    wide_uniform,
)
from .errors import (
    HullViolationError,
    InvalidArgumentError,
    NoConvergenceError,
    NotAMeanError,
)
from .scalar import as_deviation_tuple, deviation_mean, weighted_arith_mean
from .vector import (
    GenDeviation,
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
    """An n-variable mean as a callable with declared arity and kind.

    ``dim`` is None for scalar means and the point dimension for vector
    means.  The mean property and reflexivity are not enforceable for a
    black-box callable; ``check_mean_function`` samples them on demand.

    ``report`` is set for solver-backed means: it maps a data tuple to the
    solver's ``SolverReport``, and ``eval`` returns that report's value.  It
    is None for closed forms.

    ``select`` is set for the means of a family that reduces by selection,
    the deviation means of Daróczy's reducibility theorem: on the unselected
    slots of (x|chi)(y) the deviations vanish, E_i(y, y) = 0, so the
    reduction along an injection chi of k slots into n = ``arity`` is the
    family's k-variable mean of the entries that chi picks (weights,
    generators, deviations or potentials).  ``select(chi)`` returns that
    mean.  ``reduced_mean_fn`` uses it after checking chi; it is None for a
    black-box mean, which reduces by the fixed point.

    ``batch`` is set for the scalar closed forms that have a numpy form (see
    :mod:`meanreduce.descriptors`): it maps a (T, arity) array of data
    tuples to their T values in one call.  Each finite value lies within
    ``core.BATCH_MARGIN`` / 4 times |eval| of ``eval`` on that row, and a
    row is NaN wherever ``eval`` raises or the form cannot promise that
    budget.  The lab screens its trials with it (see :mod:`meanreduce.lab`);
    every reported value still comes from ``eval``.  ``reduced_mean_fn``
    keeps the selected mean's hook.
    """

    arity: int
    eval: Callable
    dim: Optional[int] = None
    label: str = "mean"
    report: Optional[Callable] = None
    select: Optional[Callable[[Injection], "MeanFn"]] = None
    batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.arity <= 0:
            raise InvalidArgumentError("mean arity must be positive")
        if self.dim is not None and self.dim <= 0:
            raise InvalidArgumentError("mean dimension must be positive")

    @property
    def kind(self) -> str:
        return "scalar" if self.dim is None else "vector"

    def __call__(self, x: Sequence):
        if len(x) != self.arity:
            raise InvalidArgumentError(
                f"{self.label} expects {self.arity} arguments, got {len(x)}"
            )
        return self.eval(tuple(x))


def _solver_mean_fn(solve, entries, cfg: SolverConfig, label: str,
                    dim: Optional[int] = None) -> MeanFn:
    # Each evaluation is one solve of its own: the mean is a function of its
    # arguments alone.  Selection keeps the container type of the entries
    # (a DeviationTuple or a tuple).
    report = lambda xs: solve(entries, xs, cfg)  # noqa: E731
    return MeanFn(arity=len(entries), dim=dim, label=label, report=report,
                  eval=lambda xs: report(xs).value,
                  select=lambda chi: _solver_mean_fn(solve, type(entries)(select(entries, chi)),
                                                     cfg, label, dim))


def deviation_mean_fn(E, cfg: SolverConfig = DEFAULT_CONFIG,
                      label: str = "deviation mean") -> MeanFn:
    return _solver_mean_fn(deviation_mean, as_deviation_tuple(E), cfg, label)


def gen_deviation_mean_fn(E: Sequence[GenDeviation], cfg: SolverConfig = DEFAULT_CONFIG,
                          label: str = "generalized deviation mean") -> MeanFn:
    """MeanFn wrapper around the hull variational inequality solver
    ``gen_deviation_mean``, one cold solve per evaluation."""
    entries = tuple(E)
    return _solver_mean_fn(gen_deviation_mean, entries, cfg, label, entries[0].dim)


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


def spliced_eval(M: MeanFn, chi: Injection, x: Sequence, y):
    """Evaluate M on the tuple that places x along chi and y elsewhere.

    y must lie in the hull of x (interval check for scalars, least-squares
    feasibility for points); otherwise HullViolationError.
    """
    _check_chi(M, chi, x)
    if M.dim is None:
        xs = [float(v) for v in x]
        spread = max(xs) - min(xs)
        slack = 1e-12 * (1.0 + spread + abs(float(y)))
        if not (min(xs) - slack <= float(y) <= max(xs) + slack):
            raise HullViolationError(f"{y} outside [{min(xs)}, {max(xs)}]")
        return M(splice(xs, chi, float(y)))
    pts = as_point_tuple(x, M.dim)
    _, residual = barycentric_feasibility(pts, y)
    if residual > 1e-9 * (1.0 + float(np.linalg.norm(np.asarray(y, float)))):
        raise HullViolationError(f"{y} outside conv(x): residual {residual:.3g}")
    return M(splice(pts, chi, np.asarray(y, dtype=float)))


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


def _fixed_point_run(m: Callable, y0: np.ndarray, tol: float, cfg: SolverConfig,
                     max_iter: int) -> tuple[np.ndarray, float, int, bool]:
    """Damped fixed-point iteration with safeguarded secant extrapolation."""
    alpha = cfg.damping
    y = y0.copy()
    r = m(y) - y
    rnorm = math.sqrt(float(r @ r))
    prev: Optional[tuple[np.ndarray, np.ndarray]] = None
    no_progress = 0
    iterations = 0
    while rnorm > tol and iterations < max_iter:
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
            if no_progress >= 10:
                alpha = max(alpha * 0.5, 1.0 / 64.0)
                no_progress = 0
        else:
            no_progress = 0
        y, r, rnorm = y_next, r_next, rn
    return y, rnorm, iterations, rnorm <= tol


def _vector_setup(M: MeanFn, chi: Injection, x: Sequence, cfg: SolverConfig):
    """Points, centroid, diameter, residual tolerance and spliced evaluation
    y -> M((x|chi)(y)) of a vector reduction."""
    _check_chi(M, chi, x)
    if M.dim is None:
        raise InvalidArgumentError("reduce_vector needs a vector mean")
    pts = as_point_tuple(x, M.dim)
    spread = max(
        (float(np.linalg.norm(p - q)) for p in pts for q in pts),
        default=0.0,
    )

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

    y, rnorm, iterations, converged = _fixed_point_run(m, centroid, tol, cfg, cfg.max_iter)
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
        yj, _, _, ok = _fixed_point_run(m, 0.5 * p + 0.5 * centroid, restart_tol, cfg,
                                        cfg.max_iter)
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
    unconverged result stays "unknown" and costs no evaluation.
    ``reduce_mean`` runs this step; ``fixed_point_mean_fn`` and the
    reduction oracles skip it.
    """
    if not result.certificate.converged:
        return replace(result, unique_flag=UNKNOWN)
    if M.dim is None:
        flag = _scalar_uniqueness(M, chi, x, float(result.reduced_value), cfg)
    else:
        flag = _vector_uniqueness(M, chi, x, result.reduced_value, cfg)
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
    evaluated with the configuration M was built with, its ``batch`` hook
    kept.  A solver-backed
    selection raises NoConvergenceError on a solve that did not converge.
    Otherwise it is ``fixed_point_mean_fn(M, chi, cfg)``.  Either way chi
    must map into M's n slots (InvalidArgumentError otherwise).

    The lab reduces through this function and re-evaluates every witness it
    records by ``fixed_point_mean_fn``; ``reduce_mean`` and the reduction
    oracles never consult the hook.
    """
    _check_target(M, chi)
    if M.select is None:
        return fixed_point_mean_fn(M, chi, cfg)
    selected = M.select(chi)
    label = f"{M.label} reduced by {chi.map}"
    if selected.report is None:
        return replace(selected, label=label)

    def eval_selected(xs):
        report = selected.report(xs)
        if not report.converged:
            raise NoConvergenceError(f"reduction of {M.label} did not converge at {xs}",
                                     best=report.value, residual=report.residual)
        return report.value

    return replace(selected, eval=eval_selected, label=label)


def fixed_point_mean_fn(M: MeanFn, chi: Injection,
                        cfg: SolverConfig = DEFAULT_CONFIG) -> MeanFn:
    """The k-variable mean x -> reduction of M along chi at x, by the fixed
    point whether or not M reduces by selection.

    Each evaluation runs ``reduce_scalar`` or ``reduce_vector`` and returns
    its value, or raises NoConvergenceError when the reduction does not
    converge.  It skips ``check_uniqueness``, which only ``reduce_mean``
    (and so ``meanreduce reduce``) runs: the flag would be dropped here.
    """

    def eval_reduced(xs):
        solve = reduce_scalar if M.dim is None else reduce_vector
        result = solve(M, chi, xs, cfg)
        if not result.certificate.converged:
            raise NoConvergenceError(
                f"reduction of {M.label} did not converge at {xs}",
                best=result.reduced_value,
                residual=result.fixed_point_residual,
            )
        return result.reduced_value

    return MeanFn(
        arity=chi.k,
        eval=eval_reduced,
        dim=M.dim,
        label=f"{M.label} reduced by {chi.map}",
    )


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


def _oracle_check(samples: int, tol: float, draw: Callable, reduced: Callable,
                  direct: Callable, size: Callable) -> OracleCheckReport:
    """Compare reduced(x) with direct(x) on ``samples`` draws x = draw(),
    recording each draw whose error size(reduced - direct) exceeds
    tol (1 + size(direct)), the scaling the lab gives its slacks; ``size``
    is abs for scalars and the Euclidean norm for points.  The report's
    max_abs_error is the largest unscaled error."""
    worst = 0.0
    failures = []
    for _ in range(samples):
        xs = draw()
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


def check_weighted_arith_reduction(w: Sequence, chi: Injection, samples: int,
                                   tol: float, seed: int = 0,
                                   cfg: SolverConfig = DEFAULT_CONFIG) -> OracleCheckReport:
    """Reducing a functionally weighted arithmetic mean must select weights.

    Over randomized k-tuples, the fixed-point reduction of the n-variable
    weighted arithmetic mean is compared with the k-variable weighted
    arithmetic mean built from the weights picked out by the injection.
    """
    if len(w) != chi.n:
        raise InvalidArgumentError(f"need {chi.n} weights, got {len(w)}")
    dom = getattr(w[0], "domain", None)
    lo, hi = dom.finite_window() if dom is not None else (-4.0, 4.0)
    M = MeanFn(
        arity=chi.n,
        eval=lambda xs, w=tuple(w): weighted_arith_mean(w, xs),
        label="weighted arithmetic",
    )
    # The fixed-point residual amplifies into the value by the inverse slope
    # of mu, so the certificate must sit well below the agreement tolerance.
    run_cfg = replace(cfg, abs_tol=min(cfg.abs_tol, tol * 1e-3))
    w_sel = select(tuple(w), chi)
    rng = np.random.default_rng(seed)
    return _oracle_check(
        samples, tol, lambda: tuple(float(v) for v in wide_uniform(rng, lo, hi, chi.k)),
        lambda xs: reduce_scalar(M, chi, xs, run_cfg).reduced_value,
        lambda xs: weighted_arith_mean(w_sel, xs), abs)


def check_deviation_reduction(E, chi: Injection, samples: int, tol: float,
                              seed: int = 0, cfg: SolverConfig = DEFAULT_CONFIG,
                              low: float = -2.0, high: float = 2.0) -> OracleCheckReport:
    """Reducing a deviation mean must select deviations.

    The fixed-point reduction of the n-variable deviation mean is compared
    with the k-variable deviation mean of the selected deviations, over
    randomized k-tuples.  Accepts scalar deviation tuples or generalized
    deviations; for the latter the data is drawn from [low, high]^dim.

    Inner mean solves and the outer fixed-point certificate both derive from
    the agreement tolerance: the outer residual amplifies into the reduced
    value by the inverse slope of mu and cannot beat the accuracy of the
    nested evaluations, so the chain is inner << outer << tol.
    """
    entries = tuple(E)
    if len(entries) != chi.n:
        raise InvalidArgumentError(f"need {chi.n} deviations, got {len(entries)}")
    rng = np.random.default_rng(seed)
    inner_abs = min(cfg.abs_tol, tol * 1e-4)
    inner = replace(cfg, abs_tol=inner_abs, rel_tol=min(cfg.rel_tol, 1e-13))
    outer = replace(cfg, abs_tol=max(tol * 1e-3, inner_abs * 10.0))
    if isinstance(entries[0], GenDeviation):
        dim = entries[0].dim
        selected = select(entries, chi)
        M = gen_deviation_mean_fn(entries, inner)
        return _oracle_check(
            samples, tol, lambda: tuple(rng.uniform(low, high, dim) for _ in range(chi.k)),
            lambda xs: reduce_vector(M, chi, xs, outer).reduced_value,
            lambda xs: gen_deviation_mean(selected, xs, inner).value, _norm)
    dev = as_deviation_tuple(entries)
    lo, hi = dev.common_domain.finite_window()
    selected = as_deviation_tuple(select(entries, chi))
    M = deviation_mean_fn(dev, inner)
    return _oracle_check(
        samples, tol, lambda: tuple(float(v) for v in wide_uniform(rng, lo, hi, chi.k)),
        lambda xs: reduce_scalar(M, chi, xs, outer).reduced_value,
        lambda xs: deviation_mean(selected, xs, inner).value, abs)
