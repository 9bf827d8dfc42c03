"""Shared domain types, the splice/select operators, hull utilities, the
helpers of the sampled axiom checks, and the reader of JSON records.

Tuples of values are represented by plain Python sequences; points in R^d are
represented by read-only float64 numpy arrays produced by :func:`as_point`.
Injection maps are 1-based, matching the usual index notation for selecting
slots out of an n-tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, InvalidArgumentError, NoConvergenceError

BARY_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Interval:
    """A nonempty, nondegenerate real interval with optionally open endpoints.

    Endpoints may be ``-inf`` / ``+inf``; infinite endpoints are always open.
    """

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise InvalidArgumentError("interval endpoints must not be NaN")
        if not self.lo < self.hi:
            raise InvalidArgumentError(
                f"interval requires lo < hi, got [{self.lo}, {self.hi}]"
            )
        if math.isinf(self.lo) and not self.lo_open:
            object.__setattr__(self, "lo_open", True)
        if math.isinf(self.hi) and not self.hi_open:
            object.__setattr__(self, "hi_open", True)

    def __contains__(self, u: float) -> bool:
        if math.isnan(u):
            return False
        if u < self.lo or (u == self.lo and self.lo_open):
            return False
        if u > self.hi or (u == self.hi and self.hi_open):
            return False
        return True

    def finite_window(self) -> tuple[float, float]:
        """A closed finite subinterval usable for sampling and clipping.

        Infinite endpoints are clipped to a window of width 8 around the
        finite endpoint (or around 0 when both are infinite); open finite
        endpoints are shrunk inward by 1e-6 times the window span.
        """
        lo, hi = self.lo, self.hi
        if math.isinf(lo) and math.isinf(hi):
            lo, hi = -4.0, 4.0
        elif math.isinf(lo):
            lo = hi - 8.0
        elif math.isinf(hi):
            hi = lo + 8.0
        span = hi - lo
        if self.lo_open:
            lo += 1e-6 * span
        if self.hi_open:
            hi -= 1e-6 * span
        return lo, hi


REALS = Interval()
POSITIVE_REALS = Interval(0.0, math.inf, lo_open=True)


def not_finite(row: np.ndarray) -> bool:
    """Whether an entry of the 1-d array row is not finite.  A Python sum
    screens: on the short rows of points and covectors it costs a fraction
    of the elementwise test, and as it can overflow where no entry does,
    only a sum that is not finite has the entries looked at."""
    vals = row.tolist()
    return not math.isfinite(sum(vals)) and not all(map(math.isfinite, vals))


def as_point(p, dim: Optional[int] = None) -> np.ndarray:
    """Validate and normalize a point of R^d to a float64 numpy array.

    Rejects non-finite coordinates and, when ``dim`` is given, any dimension
    mismatch.
    """
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise InvalidArgumentError(f"a point must be a 1-d coordinate list, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise InvalidArgumentError(f"expected a point of dimension {dim}, got {arr.shape[0]}")
    if not_finite(arr):
        raise InvalidArgumentError("point coordinates must be finite")
    return arr


def as_point_tuple(xs, dim: Optional[int] = None) -> list[np.ndarray]:
    """Validate a nonempty sequence of points sharing one dimension."""
    if len(xs) == 0:
        raise InvalidArgumentError("empty point tuple")
    pts = [as_point(x, dim) for x in xs]
    d = pts[0].shape[0]
    for p in pts[1:]:
        if p.shape[0] != d:
            raise InvalidArgumentError("points in a tuple must share a dimension")
    return pts


@dataclass(frozen=True)
class Injection:
    """An injective map from slot indices 1..k into slot indices 1..n.

    ``k`` is ``len(map)``, set once at construction as a plain attribute.
    """

    n: int
    map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(int(j) for j in self.map))
        object.__setattr__(self, "k", len(self.map))
        if self.k <= 0 or self.n <= 0:
            raise InvalidArgumentError("injection arities must be positive")
        if self.k > self.n:
            raise InvalidArgumentError(f"injection needs k <= n, got k={self.k}, n={self.n}")
        if len(set(self.map)) != self.k:
            raise InvalidArgumentError("injection map entries must be pairwise distinct")
        for j in self.map:
            if not 1 <= j <= self.n:
                raise InvalidArgumentError(f"injection map entry {j} outside 1..{self.n}")

    @classmethod
    def of(cls, entries: Sequence[int], n: int) -> "Injection":
        return cls(n=n, map=tuple(entries))


@dataclass(frozen=True)
class Barycentric:
    """Nonnegative weights summing to 1, certifying hull membership."""

    weights: tuple[float, ...]

    def __post_init__(self):
        ws = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if len(ws) == 0:
            raise InvalidArgumentError("barycentric weights must be nonempty")
        for w in ws:
            if not math.isfinite(w) or w < 0.0:
                raise InvalidArgumentError(f"barycentric weight {w} is negative or non-finite")
        total = math.fsum(ws)
        if abs(total - 1.0) > BARY_SUM_TOL:
            raise InvalidArgumentError(f"barycentric weights sum to {total}, not 1")


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and budgets shared by every numerical solve."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_iter: int = 10_000

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise InvalidArgumentError("abs_tol must be positive")
        if not self.rel_tol > 0:
            raise InvalidArgumentError("rel_tol must be positive")
        if self.max_iter <= 0:
            raise InvalidArgumentError("max_iter must be positive")


DEFAULT_CONFIG = SolverConfig()

# ITP's projection constant of Oliveira & Takahashi (2020): n_0 = 6 steps of
# slack over bisection's count.  With n_0 = 1 an early step that shrinks the
# bracket by less than half (regula falsi on a curved section) spent the
# slack, and every later step was the midpoint; with 6 the projection moves
# none of the steps that the packaged suites and the nested-scalar
# benchmark take at seed 7, so it binds only where f is adversarial.
ITP_N0 = 6


class RootResult(NamedTuple):
    """Outcome of :func:`bracketed_root`.

    ``x``/``fx`` are the last evaluated point and its value, ``a``/``b`` the
    final bracket (both equal to ``x`` at an exact zero).  ``converged`` is
    False only when the iteration budget ran out or, before that, the
    bracket shrank to two adjacent floats without the caller's ``done``.
    The solvers read it and build their own reports, so it is a plain named
    tuple: immutable, and built without a frozen dataclass's per-field
    ``object.__setattr__``.
    """

    x: float
    fx: float
    a: float
    b: float
    iterations: int
    converged: bool


def bracketed_root(f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
                   width_tol: float, max_iter: int,
                   check: Optional[Callable] = None,
                   done: Optional[Callable] = None,
                   rel_tol: float = 0.0) -> RootResult:
    """Locate a sign change of f in [a, b] by Chandrupatla's step inside
    ITP's projection.

    ``fa`` and ``fb`` are f(a) and f(b): nonzero, of opposite signs; f may
    increase or decrease.  The first estimate is regula falsi.  Later ones
    interpolate x as a quadratic in f through both bracket ends and the end
    the last update dropped, when Chandrupatla's (xi, Phi) test says the
    quadratic is monotone there, and bisect otherwise (Chandrupatla, Adv.
    Eng. Software 28(3), 1997).  The width tolerance is tol = width_tol +
    rel_tol min(|a|, |b|) of the current bracket: with rel_tol > 0 it is
    relative, as in Brent's zero finder (Algorithms for Minimization without
    Derivatives, 1973, ch. 4).  Every estimate stays tol / 4 inside the
    bracket (Brent's minimum step), then is projected into a ball around the
    midpoint whose radius is the slack left in bisection's budget (ITP's
    projection; Oliveira & Takahashi, ACM TOMS 2020).  Only the sign of f(x)
    moves an endpoint, so the bracket always holds a sign change, and
    whatever f is, the width falls to tol within ceil(log2((b - a) / tol))
    + n_0 steps, n_0 = ``ITP_N0`` = 6 more than bisection, with tol taken
    at the first bracket.  On smooth sections convergence is superlinear,
    and the first step solves an affine one up to rounding unless the
    projection moves it.

    After each evaluation ``check(x, fx, a, fa, b, fb)`` sees the point with
    the bracket it was drawn from and may raise.  After the bracket update,
    ``done(x, fx, a, b)`` may end the search on the caller's own tolerance.
    The search also ends at an exact zero and once b - a <= tol.  It ends as
    well once no float lies strictly between a and b, which happens when tol
    is below the resolution of the data: the endpoint at the
    midpoint is reported, converged only if ``done`` accepts it, exactly as
    if the budget had been spent re-evaluating it.

    ``width_tol`` must be finite.  A bracket whose width b - a overflows is
    bisected, at 0.5 a + 0.5 b, until its width is a float; on any other
    bracket the steps are as above.  f may return an infinity: every
    estimate it would turn into NaN falls back to bisection.
    """
    tol = width_tol + rel_tol * min(abs(a), abs(b)) if rel_tol else width_tol
    ratio = (b - a) / tol  # inf once it leaves the float range
    if ratio < math.inf:
        log_ratio = math.log2(ratio)
    elif b - a < math.inf:
        log_ratio = math.log2(b - a) - math.log2(tol)
    else:
        log_ratio = math.log2(0.5 * b - 0.5 * a) + 1.0 - math.log2(tol)
    n_max = max(math.ceil(log_ratio), 0) + ITP_N0
    # The projection radius keeps 1/16 of the first tol in reserve so that
    # rounding cannot push the last bracket past it.  A relative tol is no
    # smaller on a sub-bracket of one sign, so the first is the least.
    reserve_tol = 0.9375 * tol
    # Brent's minimum step: a search converging from one side steps over the
    # root and closes its bracket.
    min_step = 0.25 * tol
    x, fx = a, fa
    x3, f3 = None, 0.0  # the end the last update dropped, and f there
    for it in range(1, max_iter + 1):
        width = b - a
        if width == math.inf:
            # A bracket wider than the float range is bisected, at a midpoint
            # formed without overflow, until it is not.
            x = 0.5 * a + 0.5 * b
        else:
            mid = a + 0.5 * width
            try:
                r = max(math.ldexp(reserve_tol, n_max - it) - 0.5 * width, 0.0)
            except OverflowError:
                r = math.inf
            if x3 is None:
                xt = a + width * (fa / (fa - fb))
            else:
                # Chandrupatla's step from the newest end x1 toward the other x2.
                x1, f1, x2, f2 = (a, fa, b, fb) if x == a else (b, fb, a, fa)
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (f3 - f2)
                if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                    t = (f1 / (f2 - f1) * (f3 / (f2 - f3))
                         + (x3 - x1) / (x2 - x1) * (f1 / (f3 - f1)) * (f2 / (f3 - f2)))
                    xt = x1 + t * (x2 - x1)
                else:
                    xt = mid
            lo, hi = a + min_step, b - min_step
            if not lo <= xt <= hi:
                xt = lo if xt < lo else hi if xt > hi else mid
            d = mid - xt
            x = xt if abs(d) <= r else mid - math.copysign(r, d)
            if not a < x < b:
                if math.nextafter(a, b) == b:
                    # No float lies strictly inside: every further step would
                    # re-evaluate the endpoint at mid and change nothing, so
                    # report now what the exhausted budget would have reported.
                    x, fx = (a, fa) if mid == a else (b, fb)
                    return RootResult(x, fx, a, b, it - 1, done is not None and done(x, fx, a, b))
                x = mid
        fx = f(x)
        if check is not None:
            check(x, fx, a, fa, b, fb)
        if fx == 0.0:
            return RootResult(x, fx, x, x, it, True)
        if (fx > 0.0) == (fa > 0.0):
            x3, f3 = a, fa
            a, fa = x, fx
        else:
            x3, f3 = b, fb
            b, fb = x, fx
        if rel_tol:
            tol = width_tol + rel_tol * min(abs(a), abs(b))
            min_step = 0.25 * tol
        if b - a <= tol or (done is not None and done(x, fx, a, b)):
            return RootResult(x, fx, a, b, it, True)
    return RootResult(x, fx, a, b, max_iter, False)


def scaled_width(c: float, a: float, b: float, pad: float = 0.0) -> float:
    """c (pad + (b - a)) for a <= b and c >= 0.  Where b - a overflows it is
    formed as c pad + c b - c a, so that a tolerance scaled by a bracket
    wider than the float range stays finite."""
    width = b - a
    return c * (pad + width) if width < math.inf else c * pad + c * b - c * a


def wide_fsum(terms: list) -> float:
    """math.fsum(terms), also where a partial sum of finite terms leaves the
    float range, which makes math.fsum raise OverflowError: the sum is then
    formed from the terms scaled by a power of two, and rounded to an
    infinity of its sign if it overflows, as IEEE addition would.  Terms
    that hold both infinities have no sum and raise DomainError."""
    try:
        return math.fsum(terms)
    except ValueError:
        raise DomainError("terms overflow to both infinities: their sum is undefined") from None
    except OverflowError:
        k = len(terms).bit_length()
        s = math.fsum([math.ldexp(t, -k) for t in terms])
        try:
            return math.ldexp(s, k)
        except OverflowError:
            return math.copysign(math.inf, s)


def wide_uniform(rng: np.random.Generator, lo, hi, size) -> np.ndarray:
    """rng.uniform(lo, hi, size) for float or array bounds, also where hi -
    lo overflows, which makes numpy raise OverflowError: those variates are
    drawn as 2 uniform(lo / 2, hi / 2), the same values, as halving such
    bounds is exact.  The stream is consumed as one rng.uniform call would,
    and bounds of finite width draw exactly what rng.uniform draws."""
    if isinstance(lo, float) and isinstance(hi, float):
        # Float bounds raise before any warning; this path is per sample.
        try:
            return rng.uniform(lo, hi, size)
        except OverflowError:
            pass
    with np.errstate(over="ignore"):
        wide = ~np.isfinite(np.subtract(hi, lo))
    if not wide.any():
        return rng.uniform(lo, hi, size)
    half = rng.uniform(np.where(wide, np.multiply(lo, 0.5), lo),
                       np.where(wide, np.multiply(hi, 0.5), hi), size)
    return np.where(wide, 2.0 * half, half)


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one numerical solve: value, residual, and iteration count.

    ``converged`` is set by the solver only when it holds a certificate for
    the value: the residual meets the tolerance it was asked for, or, for a
    bracketed scalar search (``bracketed_root``), the value is an end of a
    final bracket no wider than the width tolerance across which the
    function changes sign, whatever the residual there.  ``barycentric``
    carries the hull-membership certificate for vector solves.  A residual
    and iteration count of None (null in JSON) mark a value solved
    numerically by a solver that reports neither.
    """

    value: Union[float, np.ndarray]
    residual: Optional[float]
    iterations: Optional[int]
    converged: bool
    barycentric: Optional[Barycentric] = None

    def to_json(self) -> dict:
        value = self.value
        out = {
            "value": _jsonable(value) if isinstance(value, np.ndarray) else float(value),
            "residual": None if self.residual is None else float(self.residual),
            "iterations": None if self.iterations is None else int(self.iterations),
            "converged": bool(self.converged),
        }
        if self.barycentric is not None:
            out["barycentric"] = _jsonable(self.barycentric.weights)
        return out


def _jsonable(value):
    """value with its arrays, tuples and numpy scalars turned into JSON lists
    and numbers."""
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


# Every JSON record the package reads (a suite file, a suite case, a mean
# descriptor, a sampler box, a domain) is described once, as a table of its
# fields (key -> _Field), and read once, by _read_fields.

_REQUIRED = object()


class _Field(NamedTuple):
    """A field of a JSON record: ``test`` keeps its value (True), refuses it
    (False) or reads it as a nested record's reader does (any other result,
    the value read); ``expected`` says in words what the test accepts, and
    ``default`` is an absent field's value (_REQUIRED: it must be given)."""

    test: Callable[[object], object]
    expected: str
    default: object = _REQUIRED


def _read_fields(record, fields: dict, where: str = "", defaults: dict = {}) -> list:
    """The values of the fields of the JSON object ``record``, in the order
    of the table ``fields``, each, a default too, as its test keeps or reads
    it (``_Field``); an absent field's default is in ``defaults``, else the
    table's.  A record that is not an object, a key the table does not list,
    a missing required field and a refused value raise InvalidArgumentError,
    its message starting ``where``; a refused value names its field: ``field
    '<key>': expected <what>, got <value>``, or ``field '<key>': `` and the
    message of a test that raises InvalidArgumentError, as a reader does."""
    if not isinstance(record, dict):
        raise InvalidArgumentError(f"{where}expected an object, got {record!r}")
    for key in record:
        if key not in fields:
            raise InvalidArgumentError(f"{where}unknown field {key!r}")
    values = []
    for key, (test, expected, default) in fields.items():
        value = record.get(key, defaults.get(key, default))
        if value is _REQUIRED:
            raise InvalidArgumentError(f"{where}missing field {key!r}")
        try:
            read = test(value)
            judged = isinstance(read, (bool, np.bool_))  # kept or refused, not read
            if not judged or read:
                values.append(value if judged else read)
                continue
            message = f"expected {expected}, got {value!r}"
        except InvalidArgumentError as exc:
            message = str(exc)
        raise InvalidArgumentError(f"{where}field {key!r}: {message}")
    return values


def _is_text(value) -> bool:
    return isinstance(value, str)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _or_null(test: Callable[[object], object]) -> Callable[[object], object]:
    return lambda value: value is None or test(value)


def _list_of(test: Callable[[object], object]) -> Callable[[object], object]:
    """Each entry by ``test``, in order: True where all pass as they are, else the reads."""
    def read(value):
        if not isinstance(value, list):
            return False
        reads = []
        for entry in value:
            got = test(entry)
            judged = isinstance(got, (bool, np.bool_))
            if judged and not got:
                return False
            reads.append(entry if judged else got)
        return reads == value or reads
    return read


_FLAG = _Field(lambda value: isinstance(value, bool), "true or false", False)
_DIM = _Field(_or_null(_is_count), "an integer of at least 1, or null", None)


def _certified(report: SolverReport, label: str, x) -> Union[float, np.ndarray]:
    """The value of ``report``, the solve of ``label`` at the data ``x``,
    where the solve converged; NoConvergenceError otherwise.  Every report
    that becomes a mean value passes here: a value without a certificate is
    never returned as one, and a fixed point cannot be more accurate than
    the inner solves it iterates."""
    if not report.converged:
        raise NoConvergenceError(f"{label} did not converge at {np.asarray(x, float).tolist()}",
                                 best=report.value, residual=report.residual)
    return report.value


def splice(x: Sequence, chi: Injection, y) -> tuple:
    """Build the n-tuple placing ``x`` along the injection and ``y`` elsewhere.

    Slot ``chi.map[j]`` receives ``x[j]``; every slot outside the image of the
    injection receives ``y``.
    """
    if len(x) != chi.k:
        raise InvalidArgumentError(f"splice needs len(x) == chi.k, got {len(x)} != {chi.k}")
    out = [y] * chi.n
    for j, slot in enumerate(chi.map):
        out[slot - 1] = x[j]
    return tuple(out)


def select(x: Sequence, chi: Injection) -> tuple:
    """Select the k entries of an n-tuple indexed by the injection."""
    if len(x) != chi.n:
        raise InvalidArgumentError(f"select needs len(x) == chi.n, got {len(x)} != {chi.n}")
    return tuple(x[slot - 1] for slot in chi.map)


# Sampled axiom checks evaluate, then judge (``judge_samples``): one verdict
# function per family judges the values of a numpy form of the callback (see
# :mod:`meanreduce.expr`), all samples in one call, or of the callback itself,
# sample by sample.  numpy's exp and power may differ from math's in the last
# bit, so numpy values are accepted only when every threshold is cleared by
# BATCH_MARGIN times the magnitudes compared (some 4500 ulps).
BATCH_MARGIN = 1e-12


def batch_values(batch: Callable, args: tuple, shape: tuple) -> Optional[np.ndarray]:
    """batch(*args) as a float array of the given shape, or None when it
    raises, signals a floating-point error, is not real, does not broadcast
    or is not finite somewhere."""
    try:
        # Where math raises (division by zero, overflow, a domain error)
        # numpy signals instead, and a later 1/x or exp(-x) could turn the
        # inf or NaN back into a finite value: any signal but underflow, which
        # math lets pass too, leaves the verdict to the callback's values.
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            value = np.asarray(batch(*args))
        if value.dtype.kind != "f":
            return None
        if value.shape != shape:
            value = np.broadcast_to(value, shape)
    except Exception:  # noqa: BLE001 - the callback's evaluation reports it
        return None
    return value if np.isfinite(value).all() else None


def sample_triples(batch: Callable, us: np.ndarray, vs: np.ndarray, ws: np.ndarray,
                   lead: tuple = ()) -> Optional[np.ndarray]:
    """E(u, u), E(u, v) and E(u, w) of every sample from one call of
    batch(first points, second points), stacked on a new axis after the
    ``lead`` axes that batch returns first (one per member of a family);
    None as for batch_values."""
    m = us.shape[0]
    values = batch_values(batch, (np.concatenate((us, us, us)), np.concatenate((us, vs, ws))),
                          lead + (3 * m,) + us.shape[1:])
    return None if values is None else values.reshape(lead + (3,) + us.shape)


def running_magnitude(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The running magnitude max(1, |a_1|, |b_1|, ..., |a_k|, |b_k|) at every
    sample k along the last axis, for nonnegative a and b.  A NaN is passed
    over, as Python's ``max`` passes over it after its first argument."""
    return np.fmax.accumulate(np.fmax(np.fmax(a, b), 1.0), axis=-1)


def first_failure(checks: Sequence[tuple]) -> Optional[str]:
    """The message of the first sample failing a check, for the first check
    it fails, or None; ``checks`` are (pass mask, message of sample k)."""
    ok = checks[0][0]
    for passed, _ in checks[1:]:
        ok = ok & passed
    if ok.all():
        return None
    k = int(np.argmin(ok))
    return next(message(k) for passed, message in checks if not passed[k])


def judge_samples(judge: Callable, fn: Callable, calls: Callable[[], Iterable],
                  width: int, error: type, stop: Optional[Callable] = None):
    """Evaluate, then judge: ``judge(values)``, given one sequence of values
    per call position, words the first failing sample or returns None.
    fn(*args) runs for each args of ``calls()``, ``width`` calls per sample,
    up to a call that raises (its sample is left out) or whose value
    ``stop`` flags (that value fills its sample); the first failing sample
    raises ``error``, else the exception is re-raised.
    """
    values = []
    held = None
    try:
        for args in calls():
            values.append(fn(*args))
            if stop is not None and stop(values[-1]):
                values += values[-1:] * (-len(values) % width)
                break
    except Exception as exc:  # noqa: BLE001 - re-raised after the judging
        held = exc
        del values[len(values) - len(values) % width:]
    failure = judge([values[i::width] for i in range(width)])
    if failure is not None:
        raise error(failure)
    if held is not None:
        raise held
