"""Generalized deviation means on convex subsets of R^d.

A generalized deviation E maps a pair of points to a covector (the gradient
representation of a continuous linear functional); the generalized deviation
mean of x = (x_1, ..., x_n) is the unique point y in conv{x_1, ..., x_n}
satisfying the variational inequality

    (E_1(x_1, y) + ... + E_n(x_n, y)) (x_j - y) <= 0    for every j.

The companion route goes through potentials: for a family F with strictly
convex, differentiable sections and vanishing gradient at the diagonal,
E(u, v) = -dF(u, .)/dv is a generalized deviation and the mean is the unique
minimizer of sum_i F_i(x_i, v) over the hull.

Both routes share one front end and one projected-simplex loop.  The front
end checks the family against the tuple (``_check_family``), sets up the
points, their matrix X, the slack tolerance and the one-point answer
(``_hull_setup``), and sums the per-slot covectors in one place
(``_sum_grad``): the deviations E_i for the variational inequality, and
E_i = -grad_v F_i for the potential.  ``verify_vi`` and the lattice oracle
keep their own sums, so they check the solves independently.  The loop,
``_simplex_solve``, runs on barycentric coordinates over the unit simplex,
so every iterate carries hull membership by construction.  The routes
differ only in their covector field g (the summed deviation, or minus the
summed potential gradient) and their direction rule: extragradient steps
(Korpelevich 1976) for the variational inequality, projected gradient
descent with Armijo backtracking on the summed potential for the other.
The extragradient steps take a local step test (``_slack_step``, Khobotov
1987): a step along the slack vector passes when it is small against the
change of the slacks it causes, and the step that passed is tried first
next time.  A trial that fails is cut to the bound on the step that it
measured, or to half of it if that is smaller, rather than merely halved,
so the first step of a solve reaches the problem's scale in a few trials;
the Armijo search cuts a failed trial by quadratic interpolation.  No
global Lipschitz constant is estimated, and a solve depends on its
arguments alone.  The loop owns what they share: the simplex projection,
the positive-slack merit sum_j max(g (x_j - y), 0)^2, a projected-Newton
candidate, stagnation handling with step halving, and the final slack
certificate.

The projected-Newton candidate is Josephy's Newton step for variational
inequalities (Josephy 1979; Facchinei & Pang 2003, ch. 7): g is linearized
at the iterate, with J = Dg exact for inner-weight families and by central
differences otherwise, and the affine variational inequality over the hull
that results is solved by an active-set iteration on the barycentric
weights (see ``_newton_weights``).  J is not symmetrized, so the step is
exact for linear fields with a skew part too.  It needs no estimate of the
active face, and is tried after a wait that grows while its tries make no
progress; it is kept only when it, or a half or a quarter of it, lowers the
merit, so the plain step stands otherwise, and convergence is still decided
by the slack certificate alone.  It solves the thin hulls, where g's
unconstrained zero lies outside conv(x) and the first-order steps crawl
along a face, and the slow linear regimes of the first-order steps.  A
brute-force lattice search over barycentric coordinates serves as an
independent oracle for small tuples.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from operator import sub
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    BATCH_MARGIN,
    Barycentric,
    DEFAULT_CONFIG,
    SolverConfig,
    SolverReport,
    as_point,
    as_point_tuple,
    first_failure,
    judge_samples,
    not_finite,
    running_magnitude,
    sample_triples,
)
from .errors import (
    HullViolationError,
    InvalidArgumentError,
    InvalidDeviationError,
    InvalidPotentialError,
    MeansError,
)
from .scalar import ScalarDeviation

_VALIDATION_SEED = 20240902
_VALIDATION_SAMPLES = 32


def _as_shape(value, dim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.shape[0] != dim:
        raise InvalidArgumentError(f"covector dimension {arr.shape[0]} != {dim}")
    return arr


def _as_grad(value, dim: int, error: type = InvalidArgumentError,
             message: str = "covector entries must be finite", *args) -> np.ndarray:
    """A covector as an array, its shape checked as by ``_as_shape``; an
    entry that is not finite raises ``error(message.format(*args))``, so a
    sampled check's message can name the sample."""
    arr = _as_shape(value, dim)
    if not_finite(arr):
        raise error(message.format(*args))
    return arr


def _row_dots(a: np.ndarray, b: np.ndarray, threshold) -> np.ndarray:
    """The dot products of the rows of a and b, to be compared with
    threshold: the row sum where it clears the threshold by BATCH_MARGIN
    times the sum of |terms|, else numpy's dot.  numpy's BLAS may sum in
    another order and fuse multiply-adds, so the two may differ in the last
    bits, and every verdict and reported pairing stays numpy's."""
    terms = a * b
    sums = terms.sum(axis=1)
    clear = np.abs(sums - threshold) > BATCH_MARGIN * np.abs(terms).sum(axis=1) + 1e-300
    for k in np.flatnonzero(~clear):
        sums[k] = a[k] @ b[k]
    return sums


def _separated(diff: np.ndarray) -> np.ndarray:
    """np.linalg.norm(d) > 1e-9 for every row d of diff."""
    with np.errstate(all="ignore"):
        return np.sqrt(_row_dots(diff, diff, 1e-18)) > 1e-9


def _gen_verdict(label: str, us: np.ndarray, vs: np.ndarray, ws: np.ndarray,
                 values, clear: bool = False) -> Optional[str]:
    """GenDeviation's verdict on the first n samples, for values the rows
    of E(u,u), E(u,v), E(u,w): the three finite; max |E(u,u)| <= 1e-9 m, for
    m the running magnitude max(1, max |E(u,v)|, max |E(u,w)|);
    (E(u,v) - E(u,w)) (v - w) < 1e-12 m; where |u - v| > 1e-9,
    E(u,v) (u - v) > 0.  ``clear`` asks for BATCH_MARGIN m more."""
    n = len(values[0])
    us, vs, ws = us[:n], vs[:n], ws[:n]
    e = np.asarray(values, dtype=float).reshape(3, n, us.shape[1])
    euv, euw = e[1], e[2]
    with np.errstate(all="ignore"):
        finite = np.isfinite(e).all(axis=2)
        size = np.abs(e).max(axis=2)
        magnitude = running_magnitude(size[1], size[2])
        slack = BATCH_MARGIN * magnitude if clear else 0.0
        bound = 1e-12 * magnitude - slack
        return first_failure([
            (finite[0], lambda k: f"{label}: E(u,u) is not finite at u={us[k]}"),
            (finite[1], lambda k: f"{label}: E(u,v) is not finite at ({us[k]}, {vs[k]})"),
            (finite[2], lambda k: f"{label}: E(u,w) is not finite at ({us[k]}, {ws[k]})"),
            (size[0] <= 1e-9 * magnitude - slack, lambda k: f"{label}: E(u,u) != 0 at u={us[k]}"),
            (~(_row_dots(euv - euw, vs - ws, bound) >= bound),
             lambda k: (f"{label}: second section not strictly monotone decreasing: "
                        f"(E(u,v)-E(u,w))(v-w) = {(euv[k] - euw[k]) @ (vs[k] - ws[k])}")),
            (~_separated(us - vs) | ~(_row_dots(euv, us - vs, slack) <= slack),
             lambda k: f"{label}: sign pairing E(u,v)(u-v) = {euv[k] @ (us[k] - vs[k])} <= 0"),
        ])


@dataclass(frozen=True)
class GenDeviation:
    """A generalized deviation on R^d.

    ``eval(u, v)`` returns the covector E(u, v) (any array convertible).
    Unless ``validate=False``, sampled at 32 points of
    ``[sample_low, sample_high]^dim`` at construction: E(u, u) = 0, strict
    monotone decrease of the second section, and E(u, v)(u - v) > 0 off the
    diagonal.  A covector that is not finite at a sample is rejected, naming
    the sample.

    ``inner_weight`` marks the gradient-type family E(u, v) = 2 w(u) (u - v);
    solvers exploit the affine structure of its sums (the coefficients only
    involve the fixed data points) without changing any semantics.
    """

    dim: int
    eval: Callable
    label: str = "generalized deviation"
    sample_low: float = -1.0
    sample_high: float = 1.0
    validate: bool = True
    inner_weight: Optional[Callable] = None

    def __post_init__(self):
        if self.dim <= 0:
            raise InvalidArgumentError("deviation dimension must be positive")
        if self.validate:
            self._check_axioms()

    def grad(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _as_grad(self.eval(u, v), self.dim)

    def _check_axioms(self, batch: Optional[Callable] = None):
        """The axioms on 32 sampled triples of points (u, v, w), judged by
        ``_gen_verdict`` on the values of ``batch``, a numpy form of ``eval``
        in the layout of ``expr._bind_family`` (arrays of the coordinates
        u1..ud, v1..vd in, one array or constant per covector coordinate
        out), accepted where they clear every threshold by BATCH_MARGIN, or
        else of ``eval`` on array rows (see ``judge_samples``)."""
        rng = np.random.default_rng(_VALIDATION_SEED)
        shape = (_VALIDATION_SAMPLES, self.dim)
        us, vs, ws = (rng.uniform(self.sample_low, self.sample_high, shape) for _ in range(3))
        verdict = partial(_gen_verdict, self.label, us, vs, ws)
        if batch is not None:
            # Rows of us and vs are points; the covectors come back as rows.
            values = sample_triples(
                lambda us, vs: np.stack(np.broadcast_arrays(*batch(*us.T, *vs.T)), axis=-1),
                us, vs, ws)
            if values is not None and verdict(values, clear=True) is None:
                return
        # A covector that is not finite ends the evaluation: the checks of its
        # sample stop there.
        judge_samples(verdict, lambda a, b: _as_shape(self.eval(a, b), self.dim),
                      lambda: ((u, x) for u, v, w in zip(us, vs, ws) for x in (u, v, w)), 3,
                      InvalidDeviationError, stop=not_finite)


def lift_scalar_deviation(dev: ScalarDeviation, label: Optional[str] = None) -> GenDeviation:
    """View a scalar deviation as a 1-dimensional generalized deviation."""
    lo, hi = dev.domain.finite_window()
    return GenDeviation(
        dim=1,
        eval=lambda u, v, f=dev.eval: (f(float(u[0]), float(v[0])),),
        label=label or f"lifted {dev.label}",
        sample_low=lo,
        sample_high=hi,
        validate=False,
    )


def _weight_fn(weight, what: str) -> Callable:
    """A positive constant or a callable on points, as a callable."""
    if callable(weight):
        return weight
    c = float(weight)
    if not c > 0:
        raise InvalidArgumentError(f"{what} weight must be positive")
    return lambda u, c=c: c


def _weight_at(w: Callable, u, error: type, label: str) -> float:
    """The weight w(u) at the data point u; a value that is not finite and
    positive raises ``error`` naming it and the point."""
    c = float(w(u))
    if not 0.0 < c < math.inf:
        raise error(f"{label}: weight {c} at {np.asarray(u, float).tolist()} is not "
                    "finite and positive")
    return c


def inner_product_deviation(weight, dim: int,
                            label: str = "inner-product deviation") -> GenDeviation:
    """The gradient-type deviation E(u, v) = 2 w(u) (u - v).

    ``weight`` is a positive constant or a positive callable on points; a
    weight that is not finite and positive where it is evaluated raises
    InvalidDeviationError.  This is the deviation of the weighted
    squared-distance potential; its deviation mean is the functionally
    weighted arithmetic mean.
    """
    w = _weight_fn(weight, "inner-product deviation")
    return GenDeviation(
        dim=dim,
        eval=lambda u, v, w=w: (2.0 * _weight_at(w, u, InvalidDeviationError, label)
                                * (np.asarray(u, float) - np.asarray(v, float))),
        label=label,
        validate=False,
        inner_weight=w,
    )


def _check_family(fns: Sequence, x: Sequence,
                  what: str = "deviation") -> tuple[list[np.ndarray], int]:
    """The points of x and their dimension, checked against a family of
    deviations or potentials (``what`` names them in the messages)."""
    if len(fns) == 0:
        raise InvalidArgumentError(f"empty {what} tuple")
    dim = fns[0].dim
    for f in fns[1:]:
        if f.dim != dim:
            raise InvalidArgumentError(f"{what}s must share one dimension")
    pts = as_point_tuple(x, dim)
    if len(pts) != len(fns):
        raise InvalidArgumentError(f"tuple length {len(pts)} != {what} count {len(fns)}")
    return pts, dim


def _hull_setup(fns: Sequence, x: Sequence, cfg: SolverConfig, what: str):
    """The front end of both hull solves: the checked points, their
    dimension, the point matrix X, the slack tolerance
    abs_tol (1 + max_i |x_i|), and for a single point its report (else None).
    """
    pts, dim = _check_family(fns, x, what)
    X = np.stack(pts, axis=0)
    tol = cfg.abs_tol * (1.0 + max(math.sqrt(float(p @ p)) for p in pts))
    single = None
    if len(pts) == 1:
        single = SolverReport(value=pts[0].copy(), residual=0.0, iterations=0,
                              converged=True, barycentric=Barycentric((1.0,)))
    return pts, dim, X, tol, single


def _project_simplex(v: np.ndarray) -> np.ndarray:
    # Euclidean projection onto the probability simplex (sort-based).  Small
    # problems dominate this code path, where plain Python beats numpy's
    # sort/cumsum overhead by an order of magnitude.  Adding a constant to
    # every entry leaves the projection unchanged; shifting by the largest
    # entry keeps theta in [-1, 0), so that it cannot cancel against the
    # entries of a large input and the weights still sum to 1.
    vals = v.tolist()
    top = max(vals)
    w = [x - top for x in vals]
    css = 0.0
    theta = -1.0
    for i, ui in enumerate(sorted(w, reverse=True)):
        css += ui
        t = (css - 1.0) / (i + 1.0)
        if ui - t <= 0.0:
            break
        theta = t
    return np.array([max(x - theta, 0.0) for x in w])


class _Iterate(NamedTuple):
    """Barycentric weights lam, the point y = lam X, g(y) and the slacks
    g(y) (x_j - y)."""

    lam: np.ndarray
    y: np.ndarray
    g: np.ndarray
    slack: np.ndarray


def _labels(E: Sequence[GenDeviation]) -> str:
    return ", ".join(dict.fromkeys(e.label for e in E))


def _sum_grad(E: Sequence[GenDeviation], pts: Sequence[np.ndarray], X: np.ndarray,
              dim: int):
    """The iterate map lam -> (lam, y, g(y), slacks) for
    g(y) = sum_i E_i(x_i, y) at y = lam X, and the Jacobian map y -> Dg(y).

    Slacks g(y) (x_j - y) that are not finite raise InvalidDeviationError
    naming the family; they can overflow where g itself does not, and a
    non-finite g makes them non-finite too.
    """
    if all(e.inner_weight is not None for e in E):
        # Gradient-type family: sum_i 2 w_i(x_i) (x_i - y) is affine in y
        # with coefficients fixed by the data points.
        coeffs = np.asarray([_weight_at(e.inner_weight, xi, InvalidDeviationError, e.label)
                             for e, xi in zip(E, pts)])
        const = 2.0 * (coeffs @ X)
        total_w = 2.0 * float(coeffs.sum())

        def geval(y: np.ndarray) -> np.ndarray:
            return const - total_w * y

        jac_affine = -total_w * np.eye(dim)

        def jac(y: np.ndarray) -> np.ndarray:
            return jac_affine
    else:
        pairs = list(zip([e.eval for e in E], pts))
        checked = [False]

        def geval(y: np.ndarray) -> np.ndarray:
            total = np.zeros(dim)
            if checked[0]:
                for ev, xi in pairs:
                    total += np.asarray(ev(xi, y), dtype=float).reshape(-1)
            else:
                # Shapes are validated on the first call only.
                for ev, xi in pairs:
                    total += _as_shape(ev(xi, y), dim)
                checked[0] = True
            return total

        jac = _central_jacobian(geval)

    def point(lam: np.ndarray) -> _Iterate:
        y = lam @ X
        g = geval(y)
        slack = X @ g - float(y @ g)
        if not_finite(slack):
            raise InvalidDeviationError(
                f"{_labels(E)}: summed covector or its slacks are not finite at y={y}")
        return _Iterate(lam, y, g, slack)

    return point, jac


def _slack_step(point, cur: _Iterate, tau: float, nu: float) -> tuple[_Iterate, float]:
    """The projected step lam' = P(lam + tau s) along the slack vector s of
    cur that passes tau |s(lam') - s(lam)| <= nu |lam' - lam|: a local
    Lipschitz test on the slack map (Khobotov 1987).  Returns the point at
    lam' and the tau that passed.  A trial that fails measured the local
    bound nu |dl| / |ds| on the step, with ds and dl its changes of s and
    lam; the next trial is ``_khobotov_cut`` of it, that bound or half the
    trial, whichever is smaller.  Once tau s falls below the resolution of
    lam, lam' = lam and the test passes, so the cuts end on their own.  A NaN
    in the test passes it too: where P(lam) differs from lam in the last
    bits and the slack difference overflows, |ds| is inf, the bound cuts tau
    to 0, and 0 * inf is NaN; the cuts would otherwise never end.
    """
    while True:
        nxt = point(_project_simplex(cur.lam + tau * cur.slack))
        ds = nxt.slack - cur.slack
        dl = nxt.lam - cur.lam
        ds_norm = math.sqrt(float(ds @ ds))
        dl_norm = math.sqrt(float(dl @ dl))
        if not tau * ds_norm > nu * dl_norm:
            return nxt, tau
        tau = _khobotov_cut(tau, nu * dl_norm / ds_norm)


def _khobotov_cut(tau: float, bound: float) -> float:
    # The successor of a failed trial step: the local bound it measured, at
    # most half of it, so that the cuts end.
    return min(0.5 * tau, bound)


def _armijo_cut(decrease: float, rise: float) -> float:
    """The factor that cuts a failed Armijo trial: the minimizer of the
    quadratic through phi(lam), the predicted decrease xg (lam' - lam) and
    phi(lam'), in units of the trial (Nocedal & Wright 2006, sec. 3.5),
    clamped to [0.1, 0.5].  ``rise`` is phi(lam') - phi(lam); 0.5 when the
    decrease or the curvature rise + decrease is not positive."""
    curvature = rise + decrease
    if not (decrease > 0.0 and curvature > 0.0):
        return 0.5
    cut = 0.5 * decrease / curvature
    return min(cut, 0.5) if cut >= 0.1 else 0.1


def _merit(slack: np.ndarray) -> float:
    # Positive-slack merit: zero exactly at the solution, since the slacks
    # average to zero under the iterate's own barycentric weights.
    return sum(s * s for s in slack.tolist() if s > 0.0)


def _central_differences(fn, v: np.ndarray) -> np.ndarray:
    # Derivatives of fn in each coordinate of v, stacked on the last axis;
    # h balances truncation against rounding for double precision.  Each
    # probe is a copy of v with one coordinate set from its float, so the
    # others keep their bits, -0.0 included.  For 1-4 coordinates two copies
    # per coordinate cost less than adding h to the diagonals of tiled
    # copies, and np.array of float quotients less than np.stack.
    cols = []
    for i, c in enumerate(v.tolist()):
        h = 6e-6 * (1.0 + abs(c))
        vp = v.copy()
        vp[i] = c + h
        vm = v.copy()
        vm[i] = c - h
        cols.append((fn(vp) - fn(vm)) / (2.0 * h))
    if isinstance(cols[0], np.ndarray):
        return np.stack(cols, axis=-1)
    return np.array(cols)


def _central_jacobian(geval):
    """J = Dg by central differences, 2d calls to g per point.

    The probes step off the hull, where a family need not be defined; a
    probe that fails, or a J that is not finite, yields None, which only
    skips that Newton candidate.
    """

    def jac(y: np.ndarray) -> Optional[np.ndarray]:
        try:
            J = _central_differences(geval, y)
        except MeansError:
            return None
        return None if not_finite(J.reshape(-1)) else J

    return jac


def _newton_weights(X: np.ndarray, cur: _Iterate, J: np.ndarray) -> Optional[np.ndarray]:
    """Barycentric weights of the projected-Newton point from cur.

    Linearizing g at y, G(y') = g + J (y' - y), turns the hull variational
    inequality into an affine one: y' in conv(x) with G(y') (x_j - y') <= 0
    for every j, with equality where x_j has positive weight (Josephy 1979;
    Facchinei & Pang 2003, ch. 7).  J is not symmetrized: the skew part of
    a non-gradient field belongs to the linearization.  On a working
    support S the weights lam + delta, with delta_j = -lam_j off S, solve

        (x_j - y) G(y') = t  for j in S,    sum_j delta_j = 0

    for delta_S and t by least squares, which covers affinely dependent
    supports too; the right-hand side holds the slacks, so the correction
    keeps its digits near the solution.  S starts at the support of lam and
    changes once per solve, as in an active-set method (Nocedal & Wright
    2006, sec. 16.5): negative weights are approached from the current
    ones up to the first that reaches zero, whose vertex leaves S; else the
    vertex with the largest positive linearized slack joins S, and with
    none the weights are the answer; S holding every vertex, none can
    join.  After 3n solves the last weights stand.  None when the system is
    not finite, or when the step d from y has d'Jd >= 0: g is strictly
    monotone under the axioms, and a family that is not is left to the
    plain step, whose pairing check reports it.
    """
    from scipy.linalg.lapack import dgelsy  # imported on first use: scalar commands skip scipy

    n = X.shape[0]
    C = X - cur.y
    A = C @ J @ C.T
    lam = cur.lam
    inside = lam > 0.0
    for _ in range(3 * n):
        full = inside.all()
        if full:
            # Every vertex on S, most calls: no weight is off S, so the
            # system is A itself, bordered, and the right-hand side minus the
            # slacks; the same values as below, without the index copies.
            k = n
            K = np.ones((n + 1, n + 1))
            K[:n, :n] = A
            rhs = np.zeros(n + 1)
            rhs[:n] -= cur.slack
        else:
            S = np.flatnonzero(inside)
            k = len(S)
            K = np.ones((k + 1, k + 1))
            K[:k, :k] = A[S][:, S]
            off = np.where(inside, 0.0, cur.lam)
            rhs = np.append(A[S] @ off - cur.slack[S], off.sum())
        K[:k, k] = -1.0
        K[k, k] = 0.0
        # LAPACK's least squares by a rank-revealing QR, with numpy's
        # default rank cutoff: the minimum-norm solution when S is affinely
        # dependent, at a third of the cost of numpy's lstsq at these sizes.
        _, step, _, _, info = dgelsy(K, rhs, np.zeros(k + 1, dtype=np.int32),
                                     (k + 1) * sys.float_info.epsilon, 4 * k + 5)
        if info != 0:
            return None
        if full:
            target = cur.lam + step[:n]
        else:
            target = np.zeros(n)
            target[S] = cur.lam[S] + step[:k]
        target /= target.sum()
        if not_finite(target):
            return None
        if target.min() < 0.0:
            neg = np.flatnonzero(target < 0.0)
            ratios = lam[neg] / (lam[neg] - target[neg])
            first = int(np.argmin(ratios))
            lam = lam + ratios[first] * (target - lam)
            inside &= lam > 0.0
            inside[neg[first]] = False
            lam[~inside] = 0.0
            continue
        lam = target
        if k == n:
            break
        d = lam @ X - cur.y
        G = cur.g + J @ d
        sigma = C @ G - float(d @ G)
        sigma[inside] = -math.inf
        j = int(np.argmax(sigma))
        if not sigma[j] > 0.0:
            break
        inside[j] = True
    d = lam @ X - cur.y
    return lam if float(d @ J @ d) < 0.0 else None


def _simplex_solve(rule, point, jac, X: np.ndarray, lam: np.ndarray,
                   tol: float, max_iter: int) -> SolverReport:
    """The projected-simplex iteration shared by both hull routes.

    Iterates are barycentric weights lam on the unit simplex with point
    y = lam X; g is the route's covector field (the summed deviation, or
    minus the summed potential gradient) and the slack of vertex j is
    g(y) (x_j - y).  Each iteration asks ``rule.step(cur, scale)`` for the
    route's plain candidate.  A projected-Newton step from it is tried, and
    kept when it lowers the positive-slack merit below the plain step's;
    when it does not, half and then a quarter of it are tried.  It needs no
    estimate of the active face: ``_newton_weights`` finds that itself.
    The wait between tries, at first one iteration, drops back to one after
    a kept candidate that cuts the lowest merit of the solve by 4 and
    doubles after any other, so that the solve does not run to ``max_iter``
    on candidates that only trade rounding noise at the floor, or that
    cycle with the plain step.  ``rule.moved(plain, y)`` hears which
    candidate was kept.
    Material merit growth for 12 iterations, or 10 zero steps at a positive
    gap, halves the step scale handed to the rule; after 24 halvings the
    solve gives up.  Converged when max_j slack_j <= tol and the point moved
    less than tol; the last iterate's own slack, evaluated once with that
    iterate at the weights the report carries, decides ``converged``.
    """
    cur = point(lam)
    step = math.inf
    scale = 1.0
    merit_min = math.inf
    growth_streak = 0
    halvings = 0
    stagnant = 0
    since_newton = 0
    newton_wait = 1
    iterations = 0

    for iterations in range(1, max_iter + 1):
        gap = max(cur.slack.tolist())
        merit = _merit(cur.slack)
        merit_min = min(merit_min, merit)
        # Material growth only: noise-level wiggles on a plateau must not
        # count, or the step collapses while the iterate is still moving.
        if merit > 4.0 * merit_min + tol ** 2:
            growth_streak += 1
        else:
            growth_streak = 0
        if growth_streak >= 12:
            scale *= 0.5
            halvings += 1
            growth_streak = 0
            merit_min = merit
        if gap <= tol and step <= tol:
            break
        if halvings > 24:
            break
        plain = rule.step(cur, scale)
        chosen = plain
        since_newton += 1
        if since_newton >= newton_wait and max(plain.slack.tolist()) > tol:
            since_newton = 0
            J = jac(plain.y)
            lam_newton = None if J is None else _newton_weights(X, plain, J)
            merit_plain = _merit(plain.slack)
            merit_newton = math.inf
            # The full step, then a half and a quarter of it from the plain
            # point: the linearization overshoots where g bends.
            for _ in range(0 if lam_newton is None else 3):
                newton = point(lam_newton)
                merit_newton = _merit(newton.slack)
                if merit_newton < merit_plain:
                    chosen = newton
                    break
                lam_newton = 0.5 * (plain.lam + lam_newton)
            # Progress halves the gap; a candidate that trades rounding noise,
            # or nibbles at the merit in a cycle with the plain step, waits.
            progress = chosen is not plain and merit_newton < 0.25 * merit_min
            newton_wait = 1 if progress else 2 * newton_wait
        rule.moved(chosen is plain, chosen.y)
        dy = chosen.y - cur.y
        step = math.sqrt(float(dy @ dy))
        if step == 0.0:
            stagnant += 1
            if stagnant >= 10:
                # Pinned at a face with positive gap: the step overshot and
                # the projection absorbed it; retry smaller.
                scale *= 0.5
                halvings += 1
                stagnant = 0
        else:
            stagnant = 0
        cur = chosen

    # The certificate is the last iterate's own slack, evaluated once, at the
    # weights the report carries: every candidate keeps them nonnegative and
    # summing to 1 within rounding, which Barycentric checks.  Renormalizing
    # them would move y in the last bits, enough to move an ill-conditioned
    # slack across the tolerance after the loop stopped below it.
    bary = Barycentric(tuple(cur.lam.tolist()))
    gap = float(cur.slack.max())
    return SolverReport(
        value=cur.y,
        residual=gap,
        iterations=iterations,
        converged=gap <= tol,
        barycentric=bary,
    )


class _Extragradient:
    """Direction rule of the VI route: one extragradient step (Korpelevich
    1976) from lam along the slack vector.  The half step is
    ``_slack_step`` with nu = 1/2, tried first at the last step that
    passed (at first 1) times the loop's step scale; the full step from lam
    along the slacks at the half point takes the same step.

    Strict monotonicity demands (g(y) - g(y')) (y - y') < 0; three
    violations on observed iterate pairs mean the deviation axioms fail.
    """

    def __init__(self, point):
        self.point = point
        self.tau = 1.0
        self.wrong_pairings = 0

    def step(self, cur: _Iterate, scale: float) -> _Iterate:
        half, tau = _slack_step(self.point, cur, self.tau * scale, 0.5)
        self.tau = tau / scale
        g, g_half = cur.g, half.g
        dy = cur.y - half.y
        if dy @ dy > 0.0:
            pairing = float((g - g_half) @ dy)
            if pairing > 1e-12 * (1.0 + abs(float(g @ dy)) + abs(float(g_half @ dy))):
                self.wrong_pairings += 1
                if self.wrong_pairings >= 3:
                    raise InvalidDeviationError(
                        "the supplied deviations violate strict monotonicity on "
                        "sampled iterate pairs"
                    )
        return self.point(_project_simplex(cur.lam + tau * half.slack))

    def moved(self, plain: bool, y: np.ndarray):
        pass


def gen_deviation_mean(E: Sequence[GenDeviation], x: Sequence,
                       cfg: SolverConfig = DEFAULT_CONFIG,
                       init=None) -> SolverReport:
    """Solve the hull variational inequality by extragradient iteration.

    Runs the shared simplex loop (see ``_simplex_solve``) with g the summed
    deviation and the extragradient direction rule: at weights lam with point
    y = sum_j lam_j x_j, the search direction is the slack vector
    (g (x_j - y))_j, stepped and projected back onto the simplex.  The step
    passes the local test of ``_slack_step``,
    step |s(lam') - s(lam)| <= nu |lam' - lam| for the slacks s, nu = 1/2:
    first tried at 1, a step that fails is cut to the bound
    nu |lam' - lam| / |s(lam') - s(lam)| it measured, or to half
    of it if that is smaller, and the step that passed is kept for the next
    iteration.  The loop adds the safeguarded projected-Newton candidate,
    with the exact Jacobian -2 sum_i w_i(x_i) I for inner-weight families and
    central differences otherwise.  Converged when
    max_j g (x_j - y) <= abs_tol (1 + max_i |x_i|) and the point movement
    also falls below that scale; the slack criterion alone certifies the
    point only to the square root of the slack, which is too coarse for the
    downstream oracle comparisons.  Strict-monotonicity violations on
    observed iterate pairs, which the deviation axioms rule out, raise
    InvalidDeviationError.
    """
    pts, dim, X, tol, single = _hull_setup(E, x, cfg, "deviation")
    if single is not None:
        return single
    n = len(pts)
    if init is None:
        lam = np.full(n, 1.0 / n)
    else:
        lam = np.asarray(init, dtype=float)
        if lam.shape != (n,):
            raise InvalidArgumentError("init must be a barycentric vector of length n")
        if not all(map(math.isfinite, lam.tolist())):
            raise InvalidArgumentError("init entries must be finite")
        lam = _project_simplex(lam)

    point, jac = _sum_grad(E, pts, X, dim)
    rule = _Extragradient(point)
    return _simplex_solve(rule, point, jac, X, lam, tol, cfg.max_iter)


@dataclass(frozen=True)
class ViReport:
    """Outcome of checking the hull variational inequality at a point."""

    ok: bool
    slacks: tuple[float, ...]
    worst_index: int
    worst_slack: float
    hull_residual: float


def barycentric_feasibility(x: Sequence, y) -> tuple[np.ndarray, float]:
    """Least-squares barycentric coordinates of y over x and their residual."""
    pts = as_point_tuple(x)
    yv = as_point(y, pts[0].shape[0])
    X = np.stack(pts, axis=0)
    scale = 1.0 + float(np.abs(X).max())
    A = np.vstack([X.T, np.full((1, len(pts)), scale)])
    b = np.concatenate([yv, [scale]])
    from scipy.optimize import nnls  # imported on first use: scalar commands skip scipy

    lam, _ = nnls(A, b)
    residual = float(np.linalg.norm(A @ lam - b))
    return lam, residual


def verify_vi(E: Sequence[GenDeviation], x: Sequence, y, tol: float) -> ViReport:
    """Check the n hull inequalities at y, reporting the worst slack.

    y must be expressible in conv(x) within tol (small nonnegative
    least-squares feasibility solve); otherwise HullViolationError.
    """
    pts, dim = _check_family(E, x)
    yv = as_point(y, dim)
    _, hull_residual = barycentric_feasibility(pts, yv)
    feas_tol = tol * (1.0 + float(np.linalg.norm(yv)))
    if hull_residual > feas_tol:
        raise HullViolationError(
            f"point {yv} is {hull_residual:.3g} away from conv(x), beyond {feas_tol:.3g}"
        )
    g = sum(e.grad(p, yv) for e, p in zip(E, pts))
    slacks = tuple(float(g @ (p - yv)) for p in pts)
    worst = int(np.argmax(slacks))
    return ViReport(
        ok=slacks[worst] <= tol,
        slacks=slacks,
        worst_index=worst,
        worst_slack=slacks[worst],
        hull_residual=hull_residual,
    )


def _fd_grad(feval, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Central differences in the second argument.
    return _central_differences(lambda w: feval(u, w), v)


class _CentralDifferenceGrad:
    """The default grad_v of a PotentialFn: central differences of its
    eval in v."""

    __slots__ = ("feval",)

    def __init__(self, feval: Callable):
        self.feval = feval

    def __call__(self, u, v) -> np.ndarray:
        return _fd_grad(self.feval, np.asarray(u, float), np.asarray(v, float))


@dataclass(frozen=True)
class PotentialFn:
    """A potential F(u, v) whose section in v is strictly convex with a
    minimum at v = u.

    ``grad_v`` may be omitted, in which case central finite differences of
    ``eval`` are used.  Unless ``validate=False``, sampled at 32 points at
    construction: grad_v(u, u) = 0, strict midpoint convexity of the
    sections, and agreement of ``grad_v`` with finite differences.  Each
    sample calls ``grad_v`` twice, at (u, u) and (u, v), and checks on the
    plain floats of the results; a gradient, finite difference or value of
    F that is not finite is rejected, naming the sample.  Without a
    ``grad_v``, the finite differences are the gradient at (u, v) itself,
    computed once.
    """

    dim: int
    eval: Callable
    grad_v: Optional[Callable] = None
    label: str = "potential"
    sample_low: float = -1.0
    sample_high: float = 1.0
    validate: bool = True

    def __post_init__(self):
        if self.dim <= 0:
            raise InvalidArgumentError("potential dimension must be positive")
        if self.grad_v is None:
            object.__setattr__(self, "grad_v", _CentralDifferenceGrad(self.eval))
        if self.validate:
            self._check_property()

    def value(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(self.eval(u, v))

    def grad(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _as_grad(self.grad_v(u, v), self.dim)

    def _check_property(self):
        rng = np.random.default_rng(_VALIDATION_SEED + 1)
        shape = (_VALIDATION_SAMPLES, self.dim)
        us, vs, ws = (rng.uniform(self.sample_low, self.sample_high, shape) for _ in range(3))
        label, dim, gradient = self.label, self.dim, self.grad_v
        central = isinstance(gradient, _CentralDifferenceGrad) and gradient.feval is self.eval
        for u, v, w, separated in zip(us, vs, ws, _separated(vs - ws)):
            g0 = _as_grad(gradient(u, u), dim, InvalidPotentialError,
                          "{}: grad_v(u,u) is not finite at u={}", label, u).tolist()
            gv = _as_grad(gradient(u, v), dim, InvalidPotentialError,
                          "{}: grad_v(u,v) is not finite at ({}, {})", label, u, v).tolist()
            scale = 1e-6 * (1.0 + max(map(abs, gv)))
            if max(map(abs, g0)) > scale:
                raise InvalidPotentialError(
                    f"{label}: gradient does not vanish on the diagonal at u={u}"
                )
            if separated:
                fmid = self.value(u, 0.5 * (v + w))
                favg = 0.5 * (self.value(u, v) + self.value(u, w))
                if not fmid < favg + 1e-12 * (1.0 + abs(favg)):
                    if not (math.isfinite(fmid) and math.isfinite(favg)):
                        raise InvalidPotentialError(
                            f"{label}: F(u,.) is not finite at u={u} between {v} and {w}")
                    raise InvalidPotentialError(
                        f"{label}: section not strictly convex between {v} and {w}"
                    )
            # Without a grad_v, gv is these very differences.
            fd = gv if central else _as_grad(
                _fd_grad(self.eval, u, v), dim, InvalidPotentialError,
                "{}: finite differences of F(u,.) are not finite at ({}, {})", label, u, v).tolist()
            if max(map(abs, map(sub, fd, gv))) > scale:
                raise InvalidPotentialError(
                    f"{label}: grad_v disagrees with finite differences at ({u}, {v})"
                )


def _potential_deviation(F: PotentialFn) -> GenDeviation:
    # E(u, v) = -grad_v F(u, v), unchecked: the summed covector of a solve
    # is checked by _sum_grad, the axioms by make_potential_deviation.
    return GenDeviation(
        dim=F.dim,
        eval=lambda u, v, g=F.grad_v: -np.asarray(g(u, v), dtype=float),
        label=f"deviation of {F.label}",
        sample_low=F.sample_low,
        sample_high=F.sample_high,
        validate=False,
    )


def make_potential_deviation(F: PotentialFn) -> GenDeviation:
    """The generalized deviation E(u, v) = -grad_v F(u, v).

    The deviation axioms follow from the potential property; they are
    re-sampled here and a failure raises InvalidPotentialError.
    """
    dev = _potential_deviation(F)
    if F.validate:
        try:
            dev._check_axioms()
        except InvalidDeviationError as exc:
            raise InvalidPotentialError(str(exc)) from exc
    return dev


def make_norm_sq_potential(w, dim: int, label: str = "norm-squared") -> PotentialFn:
    """The potential F(u, v) = w(u) |v - u|^2 with Euclidean norm.

    ``w`` is a positive constant or a positive callable on points; a weight
    that is not finite and positive where it is evaluated raises
    InvalidPotentialError.  The gradient 2 w(u) (v - u) is supplied
    analytically.
    """
    weight = _weight_fn(w, "norm-squared")

    def feval(u, v, weight=weight):
        diff = np.asarray(v, float) - np.asarray(u, float)
        return _weight_at(weight, u, InvalidPotentialError, label) * float(diff @ diff)

    def fgrad(u, v, weight=weight):
        return (2.0 * _weight_at(weight, u, InvalidPotentialError, label)
                * (np.asarray(v, float) - np.asarray(u, float)))

    return PotentialFn(dim=dim, eval=feval, grad_v=fgrad, label=label, validate=False)


class _ArmijoDescent:
    """Direction rule of the potential route: projected gradient descent on
    phi(lam) = sum_i F_i(x_i, lam X) with Armijo backtracking (constant
    1e-4, first trial step ``scale``).  A trial step that fails the Armijo
    test is cut by ``_armijo_cut``, the minimizer of the quadratic through
    phi(lam), the predicted decrease and phi(lam'), clamped to [0.1, 0.5].

    When no trial passes, or the one that passes changes phi by no more
    than float noise (which caps point accuracy near sqrt(eps)), the step
    is zero: the rule returns cur itself.  The loop's Newton candidate then
    finishes the solve, or its stagnation handling ends it.
    """

    def __init__(self, phi, point, X: np.ndarray, y0: np.ndarray):
        self.phi = phi
        self.point = point
        self.X = X
        self.value = phi(y0)
        self.plain_value = self.value

    def step(self, cur: _Iterate, scale: float) -> _Iterate:
        lam = cur.lam
        xg = self.X @ cur.g  # minus the gradient of phi in lam
        self.plain_value = self.value
        t = scale
        while t > 1e-20:
            lam_plain = _project_simplex(lam + t * xg)
            plain_value = self.phi(lam_plain @ self.X)
            decrease = float(xg @ (lam_plain - lam))
            if plain_value <= self.value - 1e-4 * decrease:
                if abs(plain_value - self.value) <= 64.0 * 2.2e-16 * (1.0 + abs(self.value)):
                    return cur
                self.plain_value = plain_value
                return self.point(lam_plain)
            t *= _armijo_cut(decrease, plain_value - self.value)
        return cur

    def moved(self, plain: bool, y: np.ndarray):
        self.value = self.plain_value if plain else self.phi(y)


def potential_mean(F: Sequence[PotentialFn], x: Sequence,
                   cfg: SolverConfig = DEFAULT_CONFIG) -> SolverReport:
    """Minimize sum_i F_i(x_i, v) over conv(x) by projected gradient descent.

    Runs the shared simplex loop (see ``_simplex_solve``) with
    g = -sum_i grad_v F_i(x_i, .), summed by ``_sum_grad`` over
    E_i = -grad_v F_i, and the Armijo direction rule (backtracking with
    constant 1e-4 from an initial step 1.0, a failed trial cut by quadratic
    interpolation to between 0.1 and 0.5 of itself, and a zero step once phi
    has no decrease left above float noise).  The loop adds the
    safeguarded projected-Newton candidate, with a central-difference
    Jacobian of g, i.e. the Hessian of the summed potential.  The
    convergence certificate is the same hull slack as for the variational
    inequality, taken with this g; it comes from the potentials' gradients
    alone, independently of the deviation route.  A summed gradient that
    turns non-finite raises InvalidPotentialError naming the potentials.
    """
    pts, dim, X, tol, single = _hull_setup(F, x, cfg, "potential")
    if single is not None:
        return single
    fevals = [f.eval for f in F]

    def phi(y: np.ndarray) -> float:
        return math.fsum(float(fe(xi, y)) for fe, xi in zip(fevals, pts))

    point, jac = _sum_grad([_potential_deviation(f) for f in F], pts, X, dim)
    lam = np.full(len(pts), 1.0 / len(pts))
    rule = _ArmijoDescent(phi, point, X, lam @ X)
    try:
        return _simplex_solve(rule, point, jac, X, lam, tol, cfg.max_iter)
    except InvalidDeviationError as exc:
        raise InvalidPotentialError(str(exc)) from exc


def _lattice_weights(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _lattice_weights(total - head, parts - 1):
            yield (head,) + rest


def grid_oracle_mean(F: Sequence[PotentialFn], x: Sequence, resolution: int) -> np.ndarray:
    """Exhaustive minimizer of the summed potential on a barycentric lattice.

    Independent brute-force oracle: evaluates every weight vector with
    denominators resolution - 1 and returns the best lattice point.  The
    lattice size grows combinatorially; intended for small tuples.
    """
    if resolution < 2:
        raise InvalidArgumentError("grid resolution must be at least 2")
    pts, _ = _check_family(F, x, "potential")
    n = len(pts)
    if n == 1:
        return pts[0].copy()
    X = np.stack(pts, axis=0)
    m = resolution - 1
    fevals = [f.eval for f in F]
    best_y = None
    best_val = math.inf
    for counts in _lattice_weights(m, n):
        lam = np.asarray(counts, dtype=float) / m
        y = lam @ X
        val = math.fsum(float(fe(xi, y)) for fe, xi in zip(fevals, pts))
        if val < best_val:
            best_val = val
            best_y = y
    return best_y
