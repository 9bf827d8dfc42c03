"""Serializable recipes for mean families and their construction.

A MeanDescriptor is the JSON-facing description of a mean: a kind, an arity,
a dimension for vector kinds, and kind-specific parameters.  Weight,
generator, deviation, and potential parameters are expression strings in the
shared grammar (see :mod:`meanreduce.expr`): variables ``u``/``v`` for scalar
kinds, ``u1..ud``/``v1..vd`` for vector kinds.

Plain-Python constructors for each family are also provided; they are what
the CLI, the verification suites, and the tests use to assemble MeanFn
objects.  The solver-backed ones (``deviation_mean_fn``,
``gen_deviation_mean_fn``, ``potential_mean_fn``) live in
:mod:`meanreduce.reduction` beside ``MeanFn`` and are re-exported here.
``build_mean`` is the one path from a descriptor to a mean;
``evaluate_with_report`` evaluates what it builds and takes the solver's
report from ``MeanFn.report``.  Every constructor sets ``MeanFn.select``:
each family reduces to its own k-variable mean of the selected weights,
generators, deviations or potentials.  The scalar closed forms with a numpy
form also set ``MeanFn.batch``: the arithmetic mean, the weighted arithmetic
mean with constant weights, the Hölder and Gini means, and the
quasi-arithmetic means of the named generators log, exp and identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_CONFIG,
    Interval,
    POSITIVE_REALS,
    REALS,
    SolverConfig,
    SolverReport,
    select,
)
from .errors import InvalidArgumentError
from .expr import bind_family, parse_expression
from .reduction import MeanFn, deviation_mean_fn, gen_deviation_mean_fn, potential_mean_fn
from .scalar import (
    GeneratorFn,
    ScalarDeviation,
    WeightFn,
    average,
    average_batch,
    bajraktarevic_mean,
    constant_weight,
    gini_batch,
    gini_mean,
    holder_batch,
    holder_mean,
    matkowski_mean,
    numeric_inverse,
    point_average,
    quasi_arithmetic_batch,
    quasi_arithmetic_mean,
    weighted_arith_mean,
)
from .vector import GenDeviation, PotentialFn, make_norm_sq_potential
from .vector import gen_deviation_mean  # noqa: F401  (perfbench's wrapper test rebinds it)

SCHEMA_VERSION = 1

# The parameters each kind reads; any other key is rejected.
_PARAMS = {
    "arithmetic": (),
    "weighted-arithmetic": ("weights", "domain"),
    "holder": ("p",),
    "gini": ("p", "q"),
    "quasi-arithmetic": ("f", "domain"),
    "bajraktarevic": ("f", "weights", "domain"),
    "matkowski": ("fs", "domain"),
    "deviation-custom": ("exprs", "domain"),
    "gen-deviation": ("exprs",),
    "norm-squared-potential": ("weights",),
    "custom-potential": ("exprs",),
}

KINDS = tuple(_PARAMS)

_VECTOR_KINDS = {"gen-deviation", "norm-squared-potential", "custom-potential"}


@dataclass(frozen=True)
class MeanDescriptor:
    """A serializable recipe for a mean family."""

    kind: str
    arity: int
    params: dict = field(default_factory=dict)
    dim: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgumentError(f"unknown mean kind {self.kind!r}")
        if self.arity <= 0:
            raise InvalidArgumentError("descriptor arity must be positive")
        if self.kind in _VECTOR_KINDS and (self.dim is None or self.dim <= 0):
            raise InvalidArgumentError(f"kind {self.kind!r} needs a positive dim")
        unread = sorted(set(self.params) - set(_PARAMS[self.kind]))
        if unread:
            raise InvalidArgumentError(f"kind {self.kind!r} does not take parameters {unread}")

    def to_json(self) -> dict:
        out = {"kind": self.kind, "arity": self.arity, "params": dict(self.params)}
        if self.dim is not None:
            out["dim"] = self.dim
        return out

    @classmethod
    def from_json(cls, data: dict) -> "MeanDescriptor":
        if not isinstance(data, dict) or "kind" not in data:
            raise InvalidArgumentError("a mean descriptor must be an object with a 'kind'")
        extra = set(data) - {"kind", "arity", "params", "dim"}
        if extra:
            raise InvalidArgumentError(f"unknown descriptor fields {sorted(extra)}")
        return cls(
            kind=data["kind"],
            arity=int(data.get("arity", 0)),
            params=dict(data.get("params", {})),
            dim=int(data["dim"]) if data.get("dim") is not None else None,
        )


def parse_domain(spec) -> Interval:
    """Interval from JSON: [lo, hi] with null for infinite, or an object with
    explicit open flags."""
    if spec is None:
        return REALS
    if isinstance(spec, Interval):
        return spec
    if isinstance(spec, dict):
        lo = spec.get("lo")
        hi = spec.get("hi")
        return Interval(
            lo=-math.inf if lo is None else float(lo),
            hi=math.inf if hi is None else float(hi),
            lo_open=bool(spec.get("lo_open", False)),
            hi_open=bool(spec.get("hi_open", False)),
        )
    lo, hi = spec
    lo = -math.inf if lo is None else float(lo)
    hi = math.inf if hi is None else float(hi)
    # A finite zero lower endpoint is by far most often a positivity
    # constraint; treat it as open so log-type expressions stay evaluable.
    return Interval(lo=lo, hi=hi, lo_open=(lo == 0.0))


_IDENTITY_NAMES = ("identity", "id", "u")


def build_generator(spec, domain: Optional[Interval] = None) -> GeneratorFn:
    """A GeneratorFn from a named generator or an expression in u.  The
    named "log" takes a domain inside (0, inf), by default (0, inf) itself;
    any other domain raises InvalidArgumentError."""
    from .scalar import exp_generator, identity_generator, log_generator

    if isinstance(spec, GeneratorFn):
        return spec
    text = str(spec).strip()
    if text in _IDENTITY_NAMES:
        return identity_generator(domain or REALS)
    if text == "log":
        if domain is not None and (domain.lo < 0.0 or 0.0 in domain):
            raise InvalidArgumentError(f"the log generator needs a domain inside (0, inf), "
                                       f"got {domain}")
        return replace(log_generator(), domain=domain or POSITIVE_REALS)
    if text == "exp":
        return exp_generator(domain or REALS)
    dom = domain or REALS
    feval = parse_expression(text, allowed=("u",)).bind(("u",))
    return GeneratorFn(eval=feval, inverse=numeric_inverse(feval, dom), domain=dom)


def build_weight(spec, domain: Interval) -> WeightFn:
    """A WeightFn from a positive number or an expression in u."""
    if isinstance(spec, WeightFn):
        return spec
    if isinstance(spec, (int, float)):
        return constant_weight(float(spec), domain)
    fn, batch = parse_expression(str(spec), allowed=("u",)).bind_batch(("u",))
    weight = WeightFn(eval=fn, domain=domain, validate=False)
    weight._check(batch)
    return weight


def build_scalar_deviation(expr_text: str, domain: Interval) -> ScalarDeviation:
    """A ScalarDeviation from an expression in u, v, its axioms checked on
    the expression's numpy form first."""
    fn, batch = parse_expression(str(expr_text), allowed=("u", "v")).bind_batch(("u", "v"))
    dev = ScalarDeviation(domain=domain, eval=fn, label=f"deviation {expr_text!r}",
                          validate=False)
    dev._check_axioms(batch)
    return dev


def _expand(entries, arity: int, what: str) -> list:
    if isinstance(entries, (str, int, float)) or not isinstance(entries, (list, tuple)):
        entries = [entries]
    entries = list(entries)
    if len(entries) == 1:
        entries = entries * arity
    if len(entries) != arity:
        raise InvalidArgumentError(f"need 1 or {arity} {what}, got {len(entries)}")
    return entries


def build_point_weight(spec, dim: int) -> Callable:
    """A positive weight on points from a number or an expression in u1..ud."""
    if callable(spec):
        return spec
    if isinstance(spec, (int, float)):
        c = float(spec)
        if not c > 0:
            raise InvalidArgumentError("weight must be positive")
        return lambda u, c=c: c
    allowed = tuple(f"u{i + 1}" for i in range(dim))
    fn = parse_expression(str(spec), allowed=allowed).bind(allowed)
    return lambda u, fn=fn: fn(*np.asarray(u, float).tolist())


def build_gen_deviation(exprs: Sequence[str], dim: int,
                        sample_low: float = -2.0, sample_high: float = 2.0) -> GenDeviation:
    """A GenDeviation whose covector coordinates are expressions in
    u1..ud, v1..vd."""
    if len(exprs) != dim:
        raise InvalidArgumentError(f"need {dim} covector expressions, got {len(exprs)}")
    allowed = tuple(f"u{i + 1}" for i in range(dim)) + tuple(f"v{i + 1}" for i in range(dim))
    family, batch = bind_family([parse_expression(str(e), allowed=allowed) for e in exprs],
                                allowed)

    def eval_cov(u, v, family=family):
        return family(*np.asarray(u, float).tolist(), *np.asarray(v, float).tolist())

    dev = GenDeviation(dim=dim, eval=eval_cov, label="custom generalized deviation",
                       sample_low=sample_low, sample_high=sample_high, validate=False)
    dev._check_axioms(batch)
    return dev


def build_custom_potential(expr_text: str, dim: int) -> PotentialFn:
    """A PotentialFn from an expression for F(u, v); gradient by central
    differences."""
    allowed = tuple(f"u{i + 1}" for i in range(dim)) + tuple(f"v{i + 1}" for i in range(dim))
    fn = parse_expression(str(expr_text), allowed=allowed).bind(allowed)

    def feval(u, v, fn=fn):
        return fn(*np.asarray(u, float).tolist(), *np.asarray(v, float).tolist())

    return PotentialFn(dim=dim, eval=feval, label=f"potential {expr_text!r}",
                       sample_low=-2.0, sample_high=2.0)


# Each constructor's selection hook rebuilds the family from the entries chi
# picks; build_weight, build_point_weight and build_generator pass built
# entries through, and numeric weights stay numbers, so that a selected
# weighted mean keeps its numpy form.


def arithmetic_mean_fn(arity: int, dim: Optional[int] = None) -> MeanFn:
    return MeanFn(arity=arity, dim=dim, label="arithmetic",
                  eval=average if dim is None else point_average,
                  select=lambda chi: arithmetic_mean_fn(chi.k, dim),
                  batch=partial(average_batch, (1.0,) * arity) if dim is None else None)


def weighted_arithmetic_mean_fn(weights: Sequence, arity: int,
                                dim: Optional[int] = None,
                                domain: Interval = REALS) -> MeanFn:
    specs = _expand(weights, arity, "weights")
    if dim is None:
        ws = tuple(build_weight(w, domain) for w in specs)
    else:
        ws = tuple(build_point_weight(w, dim) for w in specs)
    numeric = [isinstance(w, (int, float)) for w in specs]
    entries = tuple(w if plain else built for w, built, plain in zip(specs, ws, numeric))
    return MeanFn(arity=arity, dim=dim, label="weighted arithmetic",
                  eval=lambda xs, ws=ws: weighted_arith_mean(ws, xs),
                  select=lambda chi: weighted_arithmetic_mean_fn(select(entries, chi), chi.k,
                                                                 dim, domain),
                  batch=(partial(average_batch, tuple(map(float, specs)))
                         if dim is None and all(numeric) else None))


def holder_mean_fn(p: float, arity: int) -> MeanFn:
    return MeanFn(arity=arity, label=f"holder p={p}",
                  eval=lambda xs, p=float(p): holder_mean(p, xs),
                  select=lambda chi: holder_mean_fn(p, chi.k),
                  batch=partial(holder_batch, float(p)))


def gini_mean_fn(p: float, q: float, arity: int) -> MeanFn:
    return MeanFn(arity=arity, label=f"gini p={p} q={q}",
                  eval=lambda xs, p=float(p), q=float(q): gini_mean(p, q, xs),
                  select=lambda chi: gini_mean_fn(p, q, chi.k),
                  batch=partial(gini_batch, float(p), float(q)))


def quasi_arithmetic_mean_fn(f, arity: int, domain: Optional[Interval] = None) -> MeanFn:
    gen = build_generator(f, domain)
    return MeanFn(arity=arity, label="quasi-arithmetic",
                  eval=lambda xs, g=gen: quasi_arithmetic_mean(g, xs),
                  select=lambda chi: quasi_arithmetic_mean_fn(gen, chi.k),
                  batch=quasi_arithmetic_batch(gen))


def bajraktarevic_mean_fn(f, weights: Sequence, arity: int,
                          domain: Optional[Interval] = None) -> MeanFn:
    gen = build_generator(f, domain)
    ws = tuple(build_weight(w, gen.domain) for w in _expand(weights, arity, "weights"))
    return MeanFn(arity=arity, label="bajraktarevic",
                  eval=lambda xs, g=gen, ws=ws: bajraktarevic_mean(g, ws, xs),
                  select=lambda chi: bajraktarevic_mean_fn(gen, select(ws, chi), chi.k))


def matkowski_mean_fn(fs: Sequence, arity: int, domain: Optional[Interval] = None,
                      cfg: SolverConfig = DEFAULT_CONFIG) -> MeanFn:
    # The reduction solves sum_sel f_i(x_i) + sum_unsel f_i(y) = sum_i f_i(y),
    # that is sum_sel f_i(x_i) = sum_sel f_i(y): the mean of the selected
    # generators.
    gens = tuple(build_generator(f, domain) for f in _expand(fs, arity, "generators"))
    return MeanFn(arity=arity, label="matkowski",
                  eval=lambda xs, gs=gens, cfg=cfg: matkowski_mean(gs, xs, cfg),
                  select=lambda chi: matkowski_mean_fn(select(gens, chi), chi.k, cfg=cfg))


def _norm_sq_potentials(weights, arity: int, dim: int) -> tuple[PotentialFn, ...]:
    specs = _expand(weights if weights is not None else [1.0], arity, "weights")
    return tuple(make_norm_sq_potential(build_point_weight(w, dim), dim) for w in specs)


def build_mean(desc: MeanDescriptor, cfg: SolverConfig = DEFAULT_CONFIG) -> MeanFn:
    """Construct the MeanFn described by a descriptor."""
    kind, arity, dim = desc.kind, desc.arity, desc.dim
    param = partial(_param, desc)
    if kind == "arithmetic":
        return arithmetic_mean_fn(arity, dim)
    if kind == "weighted-arithmetic":
        return weighted_arithmetic_mean_fn(param("weights", [1.0]), arity, dim,
                                           parse_domain(param("domain", None)))
    if kind == "holder":
        return holder_mean_fn(param("p"), arity)
    if kind == "gini":
        return gini_mean_fn(param("p"), param("q"), arity)
    if kind == "quasi-arithmetic":
        f = param("f")
        return quasi_arithmetic_mean_fn(f, arity, _generator_domain(param("domain", None), [f]))
    if kind == "bajraktarevic":
        f = param("f")
        return bajraktarevic_mean_fn(f, param("weights", [1.0]), arity,
                                     _generator_domain(param("domain", None), [f]))
    if kind == "matkowski":
        fs = _expand(param("fs"), arity, "generators")
        return matkowski_mean_fn(fs, arity, _generator_domain(param("domain", None), fs), cfg)
    if kind == "deviation-custom":
        exprs = _expand(param("exprs"), arity, "deviation expressions")
        domain = parse_domain(param("domain", None))
        devs = [build_scalar_deviation(e, domain) for e in exprs]
        return deviation_mean_fn(devs, cfg, label="custom deviation mean")
    if kind == "gen-deviation":
        exprs = param("exprs")
        if exprs and isinstance(exprs[0], str):
            exprs = [exprs]
        exprs = _expand(exprs, arity, "covector expression lists")
        devs = [build_gen_deviation(e, dim) for e in exprs]
        return gen_deviation_mean_fn(devs, cfg)
    if kind == "norm-squared-potential":
        pots = _norm_sq_potentials(param("weights", None), arity, dim)
        return potential_mean_fn(pots, cfg, label="norm-squared potential mean")
    if kind == "custom-potential":
        exprs = _expand(param("exprs"), arity, "potential expressions")
        pots = tuple(build_custom_potential(e, dim) for e in exprs)
        return potential_mean_fn(pots, cfg, label="custom potential mean")
    raise InvalidArgumentError(f"unknown mean kind {kind!r}")


_REQUIRED = object()


def _param(desc: MeanDescriptor, key: str, default=_REQUIRED):
    # Only keys that _PARAMS lists for the kind may be read: it is the table
    # MeanDescriptor checks the given keys against.
    assert key in _PARAMS[desc.kind], f"_PARAMS[{desc.kind!r}] does not list {key!r}"
    if key in desc.params:
        return desc.params[key]
    if default is _REQUIRED:
        raise InvalidArgumentError(f"missing required parameter {key!r}")
    return default


def _generator_domain(spec, fs: list) -> Optional[Interval]:
    # Without a domain, generators that must share one take (0, inf) where
    # one of them is the named "log", which takes no wider domain.
    if spec is not None:
        return parse_domain(spec)
    return POSITIVE_REALS if "log" in (str(f).strip() for f in fs) else None


def evaluate_with_report(desc: MeanDescriptor, x: Sequence,
                         cfg: SolverConfig = DEFAULT_CONFIG) -> tuple:
    """Evaluate a descriptor-defined mean, returning (value, SolverReport).

    Solver-backed kinds return the solver's own report (``MeanFn.report``);
    closed-form kinds report zero residual and zero iterations.  Kinds
    solved numerically without a report (``_solved_numerically``) report
    None for both: their solvers keep neither.  The mean is
    built on every call: its expressions parsed and compiled, its axioms
    sampled.  For many tuples, call ``build_mean`` once and then
    ``M.report`` (or ``M``) per tuple.
    """
    M = build_mean(desc, cfg)
    if M.report is not None:
        report = M.report(tuple(x))
        return report.value, report
    value = M(tuple(x))
    # A numeric inversion that returns has converged: it raises otherwise.
    unknown = _solved_numerically(desc)
    return value, SolverReport(value=value, residual=None if unknown else 0.0,
                               iterations=None if unknown else 0, converged=True)


def _solved_numerically(desc: MeanDescriptor) -> bool:
    """Whether the mean is found by a numeric root search: a Matkowski mean
    (its summed generators inverted by ``core.bracketed_root``) or a
    quasi-arithmetic or Bajraktarevic mean whose generator is not named
    (inverted by ``numeric_inverse``)."""
    if desc.kind == "matkowski":
        return True
    if desc.kind in ("quasi-arithmetic", "bajraktarevic"):
        f = desc.params.get("f")
        return (not isinstance(f, GeneratorFn)
                and str(f).strip() not in _IDENTITY_NAMES + ("log", "exp"))
    return False
