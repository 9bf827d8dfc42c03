"""Randomized verification of convexity, comparison, and product/sum
inequalities between means, together with their reductions.

Each check samples tuples from a box sampler and hunts for a violation of the
stated inequality; the slack tolerance is scaled by (1 + |lhs| + |rhs|) to
stay unit-free.  Reported witnesses are re-evaluated freshly before they are
recorded.  The reduced checks search with the means reduced by selection
where a mean's family allows it (``reduced_mean_fn``), and re-evaluate the
witness they record with the fixed-point reductions
(``fixed_point_mean_fn``), all by ``_reduced_search``: each side must agree
within the reduced tolerance, at least cfg.abs_tol, or the check raises
ReductionMismatchError, and the fixed-point sides are the ones reported.
The reduction theorems are one-directional (an n-variable pass forces the
reduced k-variable pass), so a reduced failure after a full pass is
flagged by ``ReportPair.implication_violated``: a machinery defect, not a
counterexample.

Every search screens its trials in numpy first, as the axiom checks accept
in numpy and judge in scalar (``core.judge_samples``).  Where every mean of
the search has a ``MeanFn.batch`` form, and the case function f (or the
"sum" and "product" combiners) a ``batch`` attribute with its numpy form
(``suites`` sets it from ``Expression.bind_batch``), the sides of each block
of drawn trials are evaluated in one numpy pass under raising
``np.errstate``; a floating-point signal sends the whole block to the scalar
path.  A trial is skipped only when its numpy sides are finite and clear the
violation threshold by ``core.BATCH_MARGIN`` (1 + |lhs| + |rhs|); the scalar
sides run, in trial order, on every other trial.  So every witness, trial
count, side, error and recheck a search reports comes from the scalar
means, as without the screen.  A search with a mean or function that has no
numpy form (vector, deviation, Bajraktarevic and Matkowski means, expression
generators, a user callable) runs every trial through the scalar path.

Hypotheses on user-supplied means (continuity, unique reducibility) can only
be sampled, never proven; reports carry ``"hypotheses": "sampled"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate, repeat
from operator import add, itemgetter, mul
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .core import BATCH_MARGIN, DEFAULT_CONFIG, Injection, SolverConfig, wide_uniform
from .errors import (
    DomainError,
    InvalidArgumentError,
    InvalidSamplerError,
    MeansError,
    ReductionMismatchError,
)
from .reduction import MeanFn, fixed_point_mean_fn, reduced_mean_fn

# Trials drawn per rng.uniform call: however many trials a search runs, it
# holds at most this many drawn witnesses.
_BLOCK_TRIALS = 256


@dataclass(frozen=True)
class BoxSampler:
    """Uniform (or log-uniform) sampling from an interval or a box in R^d.

    ``dim`` of None draws scalars; otherwise points.  Log-uniform sampling
    needs a positive box and suits scale-sensitive power-type means.

    The bounds (their logs, for log-uniform sampling) are checked and stored
    once at construction.  A sampler does not draw by itself:
    ``draw_witnesses`` draws the tuples of many trials, of one or several
    samplers, with one ``rng.uniform`` call per block of trials.  A
    Generator fills an array of variates from its stream in order, so a
    block consumes the stream exactly as one ``rng.uniform`` call per scalar
    or point would, and a seed fixes the same tuples either way.
    """

    low: Union[float, tuple] = 0.0
    high: Union[float, tuple] = 1.0
    dim: Optional[int] = None
    log_uniform: bool = False

    def __post_init__(self):
        lows = np.atleast_1d(np.asarray(self.low, dtype=float))
        highs = np.atleast_1d(np.asarray(self.high, dtype=float))
        if self.dim is not None:
            lows = np.broadcast_to(lows, (self.dim,))
            highs = np.broadcast_to(highs, (self.dim,))
        elif lows.size != 1 or highs.size != 1:
            raise InvalidArgumentError("a scalar sampler needs scalar bounds; set dim for a box")
        if not np.all(lows < highs):
            raise InvalidArgumentError("sampler needs low < high")
        if not (np.isfinite(lows).all() and np.isfinite(highs).all()):
            raise InvalidArgumentError("sampler needs finite bounds")
        if self.log_uniform:
            if not np.all(lows > 0):
                raise InvalidArgumentError("log-uniform sampling needs a positive box")
            lows, highs = np.log(lows), np.log(highs)
        if self.dim is None:
            lows, highs = float(lows[0]), float(highs[0])
        object.__setattr__(self, "_bounds", (lows, highs))

    def entry_bounds(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The lows and highs (their logs, for log-uniform sampling) of the
        count * max(dim, 1) variates of one count-tuple, flat, in the order
        the tuple takes them."""
        lows, highs = self._bounds
        if self.dim is None:
            return np.full(count, lows), np.full(count, highs)
        return np.tile(lows, count), np.tile(highs, count)

    def drawn(self, block: np.ndarray, count: int) -> np.ndarray:
        """The drawn values of a block of rows of variates drawn within
        ``entry_bounds(count)``: shape (rows, count) for scalars, (rows,
        count, dim) for points."""
        if self.log_uniform:
            block = np.exp(block)
        return block if self.dim is None else block.reshape(len(block), count, self.dim)

    def tuples(self, values: np.ndarray, count: int) -> Iterator[tuple]:
        """The count-tuples of a block of ``drawn(block, count)``, one per
        row: floats for scalars, arrays of shape (dim,) for points."""
        if self.dim is None:
            return map(tuple, values.tolist())
        return map(tuple, values)

    def holds(self, entries: tuple) -> bool:
        """Whether every entry of a drawn tuple lies in the box."""
        values = np.asarray(entries, dtype=float)
        return bool(np.all((values >= np.asarray(self.low, dtype=float))
                           & (values <= np.asarray(self.high, dtype=float))))

    def to_json(self) -> dict:
        out = {"low": _jsonable(self.low), "high": _jsonable(self.high)}
        if self.dim is not None:
            out["dim"] = self.dim
        if self.log_uniform:
            out["log_uniform"] = True
        return out

    @classmethod
    def from_json(cls, data: dict) -> "BoxSampler":
        return cls(
            low=data.get("low", 0.0),
            high=data.get("high", 1.0),
            dim=data.get("dim"),
            log_uniform=bool(data.get("log_uniform", False)),
        )


def draw_blocks(samplers: Sequence[BoxSampler], rng: np.random.Generator, trials: int,
                count: int) -> Iterator[tuple[tuple, Iterator[tuple]]]:
    """Yield the ``trials`` witnesses in blocks of up to _BLOCK_TRIALS: per
    block, the tuple of each sampler's ``drawn`` values and an iterator of the
    block's witnesses, each one count-tuple per sampler, made of the same
    floats.

    The variates of a block come from one ``rng.uniform`` call, each row
    laid out as the per-trial draws would take them from the stream: the
    tuple of the first sampler, then of the next, entry by entry.  Once
    every trial is drawn, the Generator is left as those draws would leave
    it.  A search that stops early leaves the rest of its block unseen, and
    owns its Generator, so nothing else sees the extra draws.
    """
    bounds = [s.entry_bounds(count) for s in samplers]
    lows = np.concatenate([lo for lo, _ in bounds])
    highs = np.concatenate([hi for _, hi in bounds])
    edges = list(accumulate((lo.size for lo, _ in bounds), initial=0))
    if (lows == lows[0]).all() and (highs == highs[0]).all():
        # One pair of bounds for every entry: rng.uniform's scalar path
        # draws the same variates several times faster.
        lows, highs = float(lows[0]), float(highs[0])
    for start in range(0, trials, _BLOCK_TRIALS):
        block = wide_uniform(rng, lows, highs, (min(_BLOCK_TRIALS, trials - start), edges[-1]))
        values = tuple(s.drawn(np.ascontiguousarray(block[:, i:j]), count)
                       for s, i, j in zip(samplers, edges, edges[1:]))
        yield values, zip(*(s.tuples(v, count) for s, v in zip(samplers, values)))


def draw_witnesses(samplers: Sequence[BoxSampler], rng: np.random.Generator, trials: int,
                   count: int) -> Iterator[tuple]:
    """Yield the ``trials`` witnesses of ``draw_blocks`` one by one."""
    for _, witnesses in draw_blocks(samplers, rng, trials, count):
        yield from witnesses


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


@dataclass(frozen=True)
class CounterexampleReport:
    """Outcome of one randomized inequality search."""

    found: bool
    trials: int
    witness: Optional[tuple] = None
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    gap: Optional[float] = None
    case: str = ""

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "trials": int(self.trials),
            "found": bool(self.found),
            "witness": _jsonable(self.witness),
            "lhs": self.lhs if self.lhs is None else float(self.lhs),
            "rhs": self.rhs if self.rhs is None else float(self.rhs),
            "gap": self.gap if self.gap is None else float(self.gap),
            "hypotheses": "sampled",
        }


@dataclass(frozen=True)
class ReportPair:
    """Full (n-variable) and reduced (k-variable) reports for one case."""

    full: CounterexampleReport
    reduced: CounterexampleReport

    @property
    def implication_violated(self) -> bool:
        return (not self.full.found) and self.reduced.found

    def to_json(self) -> dict:
        return {
            "full": self.full.to_json(),
            "reduced": self.reduced.to_json(),
            "implication_violated": self.implication_violated,
        }


@dataclass(frozen=True)
class ConvexityCase:
    """A function f with a domain-side mean M and a range-side scalar mean N.

    The inequality under test is f(M(x)) <= N(f(x_1), ..., f(x_n)).
    """

    M: MeanFn
    N: MeanFn
    f: Callable
    sampler: BoxSampler
    seed: int = 0
    name: str = "convexity"

    def __post_init__(self):
        if self.M.arity != self.N.arity:
            raise InvalidArgumentError("domain and range means must share arity")
        if self.N.dim is not None:
            raise InvalidArgumentError("the range-side mean must be scalar")


@dataclass(frozen=True)
class HolderMinkowskiCase:
    """ell mean families N_i, one scalar mean M, and a combining function f.

    The inequality under test is M(f(x^1, ..., x^ell)) <=
    f(N_1(x^1), ..., N_ell(x^ell)) with f applied componentwise on the left.
    """

    ell: int
    N_list: tuple[MeanFn, ...]
    M: MeanFn
    f: Callable
    chi: Injection
    samplers: tuple[BoxSampler, ...]
    seed: int = 0
    name: str = "holder-minkowski"

    def __post_init__(self):
        if self.ell != len(self.N_list) or self.ell != len(self.samplers):
            raise InvalidArgumentError("need one mean family and sampler per slot")
        n = self.M.arity
        for N in self.N_list:
            if N.arity != n:
                raise InvalidArgumentError("all mean families must share the arity of M")
        if self.M.dim is not None:
            raise InvalidArgumentError("the outer mean must be scalar")
        if self.chi.n != n:
            raise InvalidArgumentError("injection does not match the case arity")


def _violates(lhs: float, rhs: float, tol: float) -> bool:
    return lhs > rhs + tol * (1.0 + abs(lhs) + abs(rhs))


def _value(M: MeanFn, xs):
    """M(xs); a DomainError of M is raised again naming M and its data."""
    try:
        return M(xs)
    except DomainError as exc:
        raise DomainError(f"{M.label} at {xs}: {exc}") from exc


def _search(blocks: Iterable, sides: Callable, trials: int, tol: float, case_name: str,
            inside: Callable[[tuple], bool], recheck: Optional[Callable] = None,
            screen: Optional[Callable] = None) -> CounterexampleReport:
    """Run the ``trials`` witnesses, drawn ahead in blocks of (values,
    witnesses) by ``draw_blocks``, and stop at the first one whose sides
    violate lhs <= rhs.

    ``screen(values)``, where it is given, returns the numpy sides of a
    block (see ``_with_batches``), and ``_cleared`` skips the trials they
    clear; ``sides`` runs on every other trial, in order.  The reported
    sides are evaluated afresh, by ``recheck(witness, lhs, rhs)`` where it
    is given (see ``_reduced_search``).  A witness outside the mean's domain
    (InvalidArgumentError), or one that a DomainError meets outside the
    sampler's box (``inside``), is the sampler's fault
    (InvalidSamplerError); a DomainError inside the box is the mean's own,
    and is raised as it is.
    """
    t = 0
    for values, witnesses in blocks:
        cleared = repeat(False) if screen is None else _cleared(screen, values, tol)
        for witness, clear in zip(witnesses, cleared):
            t += 1
            if clear:
                continue
            try:
                lhs, rhs = sides(witness)
            except (InvalidArgumentError, DomainError) as exc:
                if isinstance(exc, DomainError) and inside(witness):
                    raise
                raise InvalidSamplerError(
                    f"sampler produced out-of-domain input {witness}: {exc}"
                ) from exc
            if _violates(lhs, rhs, tol):
                lhs, rhs = sides(witness) if recheck is None else recheck(witness, lhs, rhs)
                return CounterexampleReport(found=True, trials=t, witness=witness,
                                            lhs=lhs, rhs=rhs, gap=lhs - rhs, case=case_name)
    return CounterexampleReport(found=False, trials=trials, case=case_name)


def _cleared(screen: Callable, values, tol: float) -> Iterable[bool]:
    """Per trial of a block, whether its numpy sides are finite and clear
    lhs <= rhs + tol (1 + |lhs| + |rhs|) by BATCH_MARGIN (1 + |lhs| +
    |rhs|); no trial where the screen raises or signals a floating-point
    error (underflow aside, as in ``core.batch_values``)."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            lhs, rhs = screen(values)
            slack = (rhs - lhs) - (BATCH_MARGIN - tol) * (1.0 + np.abs(lhs) + np.abs(rhs))
    except Exception:  # noqa: BLE001 - the scalar sides report it
        return repeat(False)
    # A NaN row compares false; comparing it may set the invalid flag.
    with np.errstate(invalid="ignore"):
        return (np.isfinite(lhs) & np.isfinite(rhs) & (slack >= 0.0)).tolist()


def _with_batches(batch_sides: Optional[Callable], fns: Sequence) -> Optional[Callable]:
    """``batch_sides`` with the numpy forms (the ``batch`` attributes) of
    the means and functions fns bound in front, or None where it is None
    or one of fns has none."""
    forms = [getattr(fn, "batch", None) for fn in fns]
    if batch_sides is None or any(form is None for form in forms):
        return None
    return partial(batch_sides, *forms)


def _lift(f: Callable, *arrays: np.ndarray) -> np.ndarray:
    """The numpy form f of a function on arrays of its arguments, as a float
    array of their shape (a constant expression returns a float)."""
    value = np.asarray(f(*arrays))
    if value.dtype.kind != "f":
        raise TypeError(f"a numpy form returned {value.dtype}")
    shape = arrays[0].shape
    return value if value.shape == shape else np.broadcast_to(value, shape)


def _reduced_search(sides: Callable, batch_sides: Optional[Callable], means: Sequence[MeanFn],
                    chi: Injection, cfg: SolverConfig, blocks: Iterable, trials: int,
                    tol: float, case_name: str,
                    inside: Callable[[tuple], bool]) -> CounterexampleReport:
    """``_search`` with the sides ``sides(*means, witness)`` of the means
    reduced along chi by ``reduced_mean_fn``, screened by ``batch_sides``
    with their numpy forms; the witness found reports the sides of
    ``fixed_point_mean_fn`` (``_recheck``), compared at max(tol,
    cfg.abs_tol): no closer than the fixed points' residual tolerance."""
    reduced = [reduced_mean_fn(M, chi, cfg) for M in means]
    fixed = partial(sides, *(fixed_point_mean_fn(M, chi, cfg) for M in means))
    return _search(blocks, partial(sides, *reduced), trials, tol, case_name, inside,
                   partial(_recheck, fixed, max(tol, cfg.abs_tol), case_name),
                   _with_batches(batch_sides, reduced))


def _recheck(fixed: Callable, tol: float, case_name: str, witness: tuple, lhs: float,
             rhs: float) -> tuple[float, float]:
    """``fixed(witness)``, each side within tol (1 + |a| + |b|) of the side
    a found by selection, or ReductionMismatchError."""
    values = fixed(witness)
    for side, found, value in zip(("lhs", "rhs"), (lhs, rhs), values):
        if abs(found - value) > tol * (1.0 + abs(found) + abs(value)):
            raise ReductionMismatchError(
                f"{case_name}: at {witness} the {side} is {found} by selection and "
                f"{value} by the fixed point"
            )
    return values


def check_convexity(case: ConvexityCase, trials: int, tol: float,
                    seed: Optional[int] = None) -> CounterexampleReport:
    """Search for x with f(M(x)) > N(f o x) + scaled tol, the full check of
    the case; ``check_reduced_convexity`` runs the reduced one."""
    rng = np.random.default_rng(case.seed if seed is None else seed)
    fns = (case.f, case.M, case.N)
    return _search(_single(case.sampler, rng, trials, case.M.arity),
                   partial(_convexity_sides, *fns), trials, tol, case.name,
                   case.sampler.holds, screen=_with_batches(_convexity_batch, fns))


def _single(sampler: BoxSampler, rng: np.random.Generator, trials: int,
            count: int) -> Iterator[tuple]:
    """The blocks of a search with one sampler: its values and its
    count-tuples."""
    for (values,), witnesses in draw_blocks((sampler,), rng, trials, count):
        yield values, map(itemgetter(0), witnesses)


def _convexity_sides(f: Callable, M: MeanFn, N: MeanFn, xs: tuple) -> tuple[float, float]:
    fx = tuple(float(f(xi)) for xi in xs)
    lhs = float(f(_value(M, xs)))
    rhs = float(_value(N, fx))
    return lhs, rhs


def _convexity_batch(f: Callable, M: Callable, N: Callable,
                     X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_convexity_sides`` of every row of X, from numpy forms."""
    return _lift(f, M(X)), N(_lift(f, X))


def check_reduced_convexity(case: ConvexityCase, chi: Injection, trials: int,
                            tol: float, seed: Optional[int] = None,
                            cfg: SolverConfig = DEFAULT_CONFIG) -> CounterexampleReport:
    """The k-variable inequality with both means replaced by reductions.

    The search reduces by selection where the means allow it
    (``reduced_mean_fn``); a witness it finds is evaluated again with the
    fixed-point reductions (``fixed_point_mean_fn``), which must agree
    within max(tol, cfg.abs_tol) on each side, and those sides are
    reported.  When the full n-variable check passes, a failure here
    indicates a defect in the reduction machinery, not a counterexample.
    """
    rng = np.random.default_rng(case.seed if seed is None else seed)
    return _reduced_search(partial(_convexity_sides, case.f),
                           _with_batches(_convexity_batch, (case.f,)), (case.M, case.N), chi,
                           cfg, _single(case.sampler, rng, trials, chi.k), trials, tol,
                           f"{case.name} (reduced)", case.sampler.holds)


def compare_means(G: MeanFn, E: MeanFn, chi: Injection, trials: int, tol: float,
                  sampler: Optional[BoxSampler] = None, seed: int = 0,
                  cfg: SolverConfig = DEFAULT_CONFIG,
                  reduced_tol: Optional[float] = None,
                  name: str = "comparison") -> ReportPair:
    """Search for violations of G <= E and of the reduced comparison.

    The reduced search reduces by selection where the means allow it
    (``reduced_mean_fn``), and reports a witness with the sides of the
    fixed-point reductions, which must agree within max(reduced_tol,
    cfg.abs_tol).  For deviation-family means an n-variable pass forces the
    k-variable pass, so ``implication_violated`` on the result is a
    machinery defect.
    """
    if G.arity != E.arity or G.dim is not None or E.dim is not None:
        raise InvalidArgumentError("comparison needs two scalar means of one arity")
    if chi.n != G.arity:
        raise InvalidArgumentError("injection does not match the means' arity")
    sampler = sampler or BoxSampler(low=0.1, high=4.0, log_uniform=True)
    full = _search(_single(sampler, np.random.default_rng(seed), trials, G.arity),
                   partial(_comparison_sides, G, E), trials, tol, f"{name} (full)",
                   sampler.holds, screen=_with_batches(_comparison_batch, (G, E)))
    reduced = _reduced_search(_comparison_sides, _comparison_batch, (G, E), chi, cfg,
                              _single(sampler, np.random.default_rng(seed + 1), trials, chi.k),
                              trials, reduced_tol if reduced_tol is not None else tol,
                              f"{name} (reduced)", sampler.holds)
    return ReportPair(full=full, reduced=reduced)


def _comparison_sides(G: MeanFn, E: MeanFn, xs: tuple) -> tuple[float, float]:
    return float(_value(G, xs)), float(_value(E, xs))


def _comparison_batch(G: Callable, E: Callable, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return G(X), E(X)


def _sum(*args: float) -> float:
    return math.fsum(args)


def _product(*args: float) -> float:
    return math.prod(args)


# The numpy forms of the combiners, on arrays of their arguments.
_sum.batch = lambda *args: reduce(add, args)
_product.batch = lambda *args: reduce(mul, args)
_BUILTIN_COMBINERS = {"sum": _sum, "product": _product}


def combiner(spec) -> Callable:
    """The componentwise combining function: "sum", "product", or callable.
    The named ones carry their numpy form as a ``batch`` attribute."""
    if callable(spec):
        return spec
    if spec in _BUILTIN_COMBINERS:
        return _BUILTIN_COMBINERS[spec]
    raise InvalidArgumentError(f"unknown combiner {spec!r}; use 'sum', 'product', or a callable")


def check_holder_minkowski(case: HolderMinkowskiCase, trials: int, tol: float,
                           seed: Optional[int] = None,
                           cfg: SolverConfig = DEFAULT_CONFIG,
                           reduced_tol: Optional[float] = None) -> ReportPair:
    """Search for violations of the n ell-variable inequality and of its
    k ell-variable reduction.  The reduced search reduces by selection where
    the means allow it, and reports a witness with the sides of the
    fixed-point reductions, as ``compare_means`` does."""
    base_seed = case.seed if seed is None else seed

    def inside(tuples):
        return all(s.holds(t) for s, t in zip(case.samplers, tuples))

    means = (*case.N_list, case.M)
    full = _search(draw_blocks(case.samplers, np.random.default_rng(base_seed), trials,
                               case.M.arity),
                   partial(_hm_sides, case.f, *means), trials, tol, f"{case.name} (full)",
                   inside, screen=_with_batches(_hm_batch, (case.f, *means)))
    reduced = _reduced_search(partial(_hm_sides, case.f), _with_batches(_hm_batch, (case.f,)),
                              means, case.chi, cfg,
                              draw_blocks(case.samplers, np.random.default_rng(base_seed + 1),
                                          trials, case.chi.k),
                              trials, reduced_tol if reduced_tol is not None else tol,
                              f"{case.name} (reduced)", inside)
    return ReportPair(full=full, reduced=reduced)


def _hm_sides(f: Callable, *args) -> tuple[float, float]:
    """M(f(x^1, ..., x^ell)) with f componentwise, and f(N_1(x^1), ...), for
    the arguments N_1, ..., N_ell, M, (x^1, ..., x^ell)."""
    *N_list, M, tuples = args
    fx = tuple(float(f(*column)) for column in zip(*tuples))
    lhs = float(_value(M, fx))
    rhs = float(f(*(_value(N, t) for N, t in zip(N_list, tuples))))
    return lhs, rhs


def _hm_batch(f: Callable, *args) -> tuple[np.ndarray, np.ndarray]:
    """``_hm_sides`` of every row of the arrays, from numpy forms, for the
    arguments f, N_1, ..., N_ell, M, (X^1, ..., X^ell)."""
    *N_list, M, arrays = args
    return M(_lift(f, *arrays)), _lift(f, *(N(X) for N, X in zip(N_list, arrays)))


@dataclass(frozen=True)
class FuzzCase:
    """A named, self-contained runnable for the fuzz aggregator."""

    name: str
    kind: str
    runner: Callable[[int, int], dict]


def fuzz_suite(cases: Sequence[FuzzCase], seed: int, trials: int) -> dict:
    """Run every case with per-case seeds seed + index; never abort.

    Individual case errors become report entries.  The aggregate is plain
    JSON-serializable data and is byte-deterministic for fixed inputs.
    """
    entries = []
    counterexamples = 0
    errors = 0
    for index, case in enumerate(cases):
        entry = {"case": case.name, "kind": case.kind, "seed": seed + index}
        try:
            result = case.runner(seed + index, trials)
            entry.update(result)
            counterexamples += _count_found(result)
        except MeansError as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
            errors += 1
        entries.append(entry)
    return {
        "seed": seed,
        "trials": trials,
        "cases": entries,
        "counterexamples": counterexamples,
        "errors": errors,
    }


def _count_found(result: dict) -> int:
    found = 0
    if result.get("found"):
        found += 1
    for key in ("full", "reduced"):
        sub = result.get(key)
        if isinstance(sub, dict) and sub.get("found"):
            found += 1
    return found
