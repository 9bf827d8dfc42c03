"""Randomized verification of convexity, comparison, and product/sum
inequalities between means, together with their reductions.

Each check samples tuples from a box sampler and hunts for a violation of the
stated inequality; the slack tolerance is scaled by (1 + |lhs| + |rhs|) to
stay unit-free.  Reported witnesses are re-evaluated freshly before they are
recorded.  The reduction theorems are one-directional (an n-variable pass
forces the reduced k-variable pass), so a reduced failure after a full pass
is flagged as an implication violation: a machinery defect, not a
counterexample.

Hypotheses on user-supplied means (continuity, unique reducibility) can only
be sampled, never proven; reports carry ``"hypotheses": "sampled"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import DEFAULT_CONFIG, Injection, SolverConfig
from .errors import (
    DomainError,
    InvalidArgumentError,
    InvalidSamplerError,
    MeansError,
)
from .reduction import MeanFn, reduced_mean_fn


@dataclass(frozen=True)
class BoxSampler:
    """Uniform (or log-uniform) sampling from an interval or a box in R^d.

    ``dim`` of None draws scalars; otherwise points.  Log-uniform sampling
    needs a positive box and suits scale-sensitive power-type means.

    The bounds (their logs, for log-uniform sampling) are checked and stored
    once at construction.  ``draw_tuple`` draws a whole tuple in one
    ``rng.uniform`` call of shape (count,) or (count, dim); that consumes the
    Generator stream exactly as ``count`` calls of ``draw`` would, so a seed
    fixes the same tuples either way.
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
        if self.log_uniform:
            if not np.all(lows > 0):
                raise InvalidArgumentError("log-uniform sampling needs a positive box")
            lows, highs = np.log(lows), np.log(highs)
        if self.dim is None:
            lows, highs = float(lows[0]), float(highs[0])
        object.__setattr__(self, "_bounds", (lows, highs))

    def draw(self, rng: np.random.Generator):
        return self.draw_tuple(rng, 1)[0]

    def draw_tuple(self, rng: np.random.Generator, count: int) -> tuple:
        lows, highs = self._bounds
        block = rng.uniform(lows, highs, size=count if self.dim is None else (count, self.dim))
        if self.log_uniform:
            block = np.exp(block)
        return tuple(block.tolist()) if self.dim is None else tuple(block)

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


def _search(draw, sides, rng, trials: int, tol: float,
            case_name: str) -> CounterexampleReport:
    """Draw a witness per trial and stop at the first one whose sides
    violate lhs <= rhs; the reported sides are evaluated afresh."""
    for t in range(trials):
        witness = draw(rng)
        try:
            lhs, rhs = sides(witness)
        except (InvalidArgumentError, DomainError) as exc:
            raise InvalidSamplerError(
                f"sampler produced out-of-domain input {witness}: {exc}"
            ) from exc
        if _violates(lhs, rhs, tol):
            lhs, rhs = sides(witness)
            return CounterexampleReport(found=True, trials=t + 1, witness=witness,
                                        lhs=lhs, rhs=rhs, gap=lhs - rhs, case=case_name)
    return CounterexampleReport(found=False, trials=trials, case=case_name)


def check_convexity(case: ConvexityCase, trials: int, tol: float,
                    seed: Optional[int] = None) -> CounterexampleReport:
    """Search for x with f(M(x)) > N(f o x) + scaled tol."""
    rng = np.random.default_rng(case.seed if seed is None else seed)
    n = case.M.arity
    return _search(lambda rng: case.sampler.draw_tuple(rng, n),
                   lambda xs: _convexity_sides(case, xs), rng, trials, tol, case.name)


def _convexity_sides(case: ConvexityCase, xs: tuple) -> tuple[float, float]:
    fx = tuple(float(case.f(xi)) for xi in xs)
    lhs = float(case.f(case.M(xs)))
    rhs = float(case.N(fx))
    return lhs, rhs


def check_reduced_convexity(case: ConvexityCase, chi: Injection, trials: int,
                            tol: float, seed: Optional[int] = None,
                            cfg: SolverConfig = DEFAULT_CONFIG) -> CounterexampleReport:
    """The k-variable inequality with both means replaced by reductions.

    When the full n-variable check passes, a failure here indicates a defect
    in the reduction machinery, not a counterexample.
    """
    K = reduced_mean_fn(case.M, chi, cfg)
    N_chi = reduced_mean_fn(case.N, chi, cfg)
    reduced = ConvexityCase(M=K, N=N_chi, f=case.f, sampler=case.sampler,
                            seed=case.seed, name=f"{case.name} (reduced)")
    return check_convexity(reduced, trials, tol, seed=seed)


def compare_means(G: MeanFn, E: MeanFn, chi: Injection, trials: int, tol: float,
                  sampler: Optional[BoxSampler] = None, seed: int = 0,
                  cfg: SolverConfig = DEFAULT_CONFIG,
                  reduced_tol: Optional[float] = None,
                  name: str = "comparison") -> ReportPair:
    """Search for violations of G <= E and of the reduced comparison.

    For deviation-family means an n-variable pass forces the k-variable pass,
    so ``implication_violated`` on the result is a machinery defect.
    """
    if G.arity != E.arity or G.dim is not None or E.dim is not None:
        raise InvalidArgumentError("comparison needs two scalar means of one arity")
    if chi.n != G.arity:
        raise InvalidArgumentError("injection does not match the means' arity")
    sampler = sampler or BoxSampler(low=0.1, high=4.0, log_uniform=True)
    rng = np.random.default_rng(seed)
    full = _search(lambda rng: sampler.draw_tuple(rng, G.arity),
                   lambda xs: (float(G(xs)), float(E(xs))),
                   rng, trials, tol, f"{name} (full)")
    G_chi = reduced_mean_fn(G, chi, cfg)
    E_chi = reduced_mean_fn(E, chi, cfg)
    rng = np.random.default_rng(seed + 1)
    reduced = _search(lambda rng: sampler.draw_tuple(rng, chi.k),
                      lambda xs: (float(G_chi(xs)), float(E_chi(xs))),
                      rng, trials, reduced_tol if reduced_tol is not None else tol,
                      f"{name} (reduced)")
    return ReportPair(full=full, reduced=reduced)


_BUILTIN_COMBINERS = {
    "sum": lambda *args: math.fsum(args),
    "product": lambda *args: math.prod(args),
}


def combiner(spec) -> Callable:
    """The componentwise combining function: "sum", "product", or callable."""
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
    k ell-variable reduction."""
    base_seed = case.seed if seed is None else seed
    rng = np.random.default_rng(base_seed)
    full = _search(lambda rng: tuple(s.draw_tuple(rng, case.M.arity) for s in case.samplers),
                   _hm_sides(case, case.N_list, case.M), rng, trials, tol, f"{case.name} (full)")
    K_list = tuple(reduced_mean_fn(N, case.chi, cfg) for N in case.N_list)
    M_chi = reduced_mean_fn(case.M, case.chi, cfg)
    rng = np.random.default_rng(base_seed + 1)
    reduced = _search(lambda rng: tuple(s.draw_tuple(rng, case.chi.k) for s in case.samplers),
                      _hm_sides(case, K_list, M_chi), rng, trials,
                      reduced_tol if reduced_tol is not None else tol, f"{case.name} (reduced)")
    return ReportPair(full=full, reduced=reduced)


def _hm_sides(case: HolderMinkowskiCase, N_list, M) -> Callable:
    """M(f(x^1, ..., x^ell)) with f componentwise, and f(N_1(x^1), ...)."""
    def sides(tuples):
        fx = tuple(float(case.f(*column)) for column in zip(*tuples))
        lhs = float(M(fx))
        rhs = float(case.f(*(N(t) for N, t in zip(N_list, tuples))))
        return lhs, rhs

    return sides


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
