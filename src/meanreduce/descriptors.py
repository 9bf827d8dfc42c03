"""Serializable recipes for mean families and their construction.

A MeanDescriptor is the JSON-facing description of a mean: a kind, an arity,
a dimension for vector kinds, and kind-specific parameters.  Weight,
generator, deviation, and potential parameters are expression strings in the
shared grammar (see :mod:`meanreduce.expr`): variables ``u``/``v`` for scalar
kinds, ``u1..ud``/``v1..vd`` for vector kinds.

Plain-Python constructors of each family assemble MeanFn objects; the
solver-backed ones (``deviation_mean_fn``, ``gen_deviation_mean_fn``,
``potential_mean_fn``) live in :mod:`meanreduce.reduction` beside ``MeanFn``
and are re-exported here.
``build_mean`` is the one path from a descriptor to a mean;
``evaluate_with_report`` evaluates what it builds and takes the solver's
report from ``MeanFn.report``.  Every constructor sets ``MeanFn.select``:
each family reduces to its own k-variable mean of the selected weights,
generators, deviations or potentials.  Every scalar mean also sets
``MeanFn.batch``, its numpy form with a radius (see ``MeanFn``).  The closed
forms have radius 0: the arithmetic and weighted arithmetic means, of
scalars with weights that are numbers or expressions and of points with
weights that are numbers; the Hölder and Gini means; and the
quasi-arithmetic and Bajraktarević means of the named generators log, exp
and identity.  The means of a solve enclose the solve's root and certify
the enclosure with the scalar section (``scalar.deviation_batch``,
``scalar.matkowski_batch`` and, for an expression generator, whose numpy
form comes from the compile of its expression, ``quasi_arithmetic_batch``).
The vector means of a solve and the weighted means of points with
expression weights have none: see :mod:`meanreduce.lab`.
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
    _certified,
    _DIM,
    _FLAG,
    _Field,
    _is_count,
    _is_number,
    _is_text,
    _list_of,
    _or_null,
    _read_fields,
    select,
)
from .errors import InvalidArgumentError, MeansError
from .expr import Member, _point_keys, _quote, parse_expression
from .reduction import MeanFn, deviation_mean_fn, gen_deviation_mean_fn, potential_mean_fn
from .scalar import (
    DeviationTuple,
    GeneratorFn,
    ScalarDeviation,
    WeightFn,
    WeightTuple,
    _exact,
    average,
    average_batch,
    bajraktarevic_mean,
    check_deviations,
    check_weights,
    constant_weight,
    gini_batch,
    gini_mean,
    holder_batch,
    holder_mean,
    identity_generator,
    matkowski_batch,
    matkowski_mean,
    numeric_generator,
    point_average,
    point_average_batch,
    quasi_arithmetic_batch,
    quasi_arithmetic_mean,
    weighted_arith_mean,
)
from .vector import (
    Covector,
    GenDeviation,
    GenDeviationTuple,
    PotentialFn,
    _weight_fn,
    check_gen_deviations,
    make_norm_sq_potential,
)
from .vector import gen_deviation_mean  # noqa: F401  (perfbench's wrapper test rebinds it)


def _one_or_list(test):
    """An entry that stands for every slot, or a list of entries."""
    return lambda value: test(value) or _list_of(test)(value)


# A domain is read into an Interval (parse_domain, below); absent, it stays None.
_DOMAIN_FIELD = _Field(_or_null(lambda spec: parse_domain(spec)), "a domain", None)
_WEIGHTS = _Field(_one_or_list(lambda w: _is_number(w) or _is_text(w)),
                  "a number or an expression, or a list of them", [1.0])
_EXPRS = _Field(_one_or_list(_is_text), "an expression, or a list of them")
_NUMBER = _Field(_is_number, "a number")
_GENERATOR = _Field(_is_text, "a generator: identity, log, exp or an expression in u")

# The parameters of each kind; any other key is refused.
_PARAMS = {
    "arithmetic": {},
    "weighted-arithmetic": {"weights": _WEIGHTS, "domain": _DOMAIN_FIELD},
    "holder": {"p": _NUMBER},
    "gini": {"p": _NUMBER, "q": _NUMBER},
    "quasi-arithmetic": {"f": _GENERATOR, "domain": _DOMAIN_FIELD},
    "bajraktarevic": {"f": _GENERATOR, "weights": _WEIGHTS, "domain": _DOMAIN_FIELD},
    "matkowski": {"fs": _Field(_one_or_list(_is_text), "a generator, or a list of them"),
                  "domain": _DOMAIN_FIELD},
    "deviation-custom": {"exprs": _EXPRS, "domain": _DOMAIN_FIELD},
    "gen-deviation": {"exprs": _Field(_one_or_list(_list_of(_is_text)),
                                      "a covector (a list of coordinates), or a list of them")},
    "norm-squared-potential": {"weights": _WEIGHTS},
    "custom-potential": {"exprs": _EXPRS},
}

KINDS = tuple(_PARAMS)

_VECTOR_KINDS = {"gen-deviation", "norm-squared-potential", "custom-potential"}
_POINT_KINDS = {"arithmetic", "weighted-arithmetic", *_VECTOR_KINDS}

_DESCRIPTOR = {
    "kind": _Field(lambda kind: _is_text(kind) and kind in _PARAMS, "one of " + ", ".join(KINDS)),
    "arity": _Field(_is_count, "an integer of at least 1"),
    "params": _Field(lambda params: isinstance(params, dict), "an object", {}),
    "dim": _DIM,
}


@dataclass(frozen=True)
class MeanDescriptor:
    """A serializable recipe for a mean family: the fields of the JSON
    record ``_DESCRIPTOR`` and the kind's parameters ``_PARAMS``, read once
    when the descriptor is made, from JSON or in Python, and kept as read
    for ``build_mean``.  ``dim`` is given for the vector kinds, and may be
    for the arithmetic means."""

    kind: str
    arity: int
    params: dict = field(default_factory=dict)
    dim: Optional[int] = None

    def __post_init__(self):
        _read_fields(vars(self), _DESCRIPTOR)
        self._read_params()

    def _read_params(self):
        """The checks across fields, and the read of the kind's parameters."""
        if self.kind in _VECTOR_KINDS and self.dim is None:
            raise InvalidArgumentError(f"kind {self.kind!r} needs a positive dim")
        if self.dim is not None and self.kind not in _POINT_KINDS:
            raise InvalidArgumentError(f"field 'dim': kind {self.kind!r} takes no points")
        object.__setattr__(self, "_values", _read_fields(self.params, _PARAMS[self.kind],
                                                         f"kind {self.kind!r}: field 'params': "))

    def to_json(self) -> dict:
        out = {"kind": self.kind, "arity": self.arity, "params": dict(self.params)}
        if self.dim is not None:
            out["dim"] = self.dim
        return out

    @classmethod
    def from_json(cls, data: dict) -> "MeanDescriptor":
        # The fields are read here, once: the constructor would read them again.
        desc = object.__new__(cls)
        for key, value in zip(_DESCRIPTOR, _read_fields(data, _DESCRIPTOR)):
            object.__setattr__(desc, key, value)
        desc._read_params()
        return desc


_BOUND = _Field(_or_null(_is_number), "a number, or null for an infinite end", None)
# The object form of a domain; its list form is [lo, hi].
_DOMAIN = {"lo": _BOUND, "hi": _BOUND, "lo_open": _FLAG, "hi_open": _FLAG}


def parse_domain(spec) -> Interval:
    """Interval from JSON: [lo, hi] with null for infinite, or an object with
    explicit open flags (``_DOMAIN``); None is the real line."""
    if spec is None or isinstance(spec, Interval):
        return REALS if spec is None else spec
    if isinstance(spec, dict):
        lo, hi, lo_open, hi_open = _read_fields(spec, _DOMAIN)
    elif isinstance(spec, list) and len(spec) == 2 and all(map(_BOUND.test, spec)):
        # A finite zero lower endpoint is by far most often a positivity
        # constraint; treat it as open so log-type expressions stay evaluable.
        (lo, hi), lo_open, hi_open = spec, spec[0] == 0, False
    else:
        raise InvalidArgumentError(f"expected [lo, hi] or an object with lo, hi, lo_open and "
                                   f"hi_open, got {spec!r}")
    return Interval(lo=-math.inf if lo is None else float(lo),
                    hi=math.inf if hi is None else float(hi), lo_open=lo_open, hi_open=hi_open)


_IDENTITY_NAMES = ("identity", "id", "u")


def build_generator(spec, domain: Optional[Interval] = None,
                    cfg: SolverConfig = DEFAULT_CONFIG) -> GeneratorFn:
    """A GeneratorFn from a named generator or an expression in u, whose
    inverse is a numeric one on cfg's iteration budget and whose numpy form
    comes from the same compile (``scalar.numeric_generator``).  The named
    "log" takes a domain inside (0, inf), by default (0, inf) itself; any
    other domain raises InvalidArgumentError."""
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
    # One compile gives the generator and its numpy form.
    return numeric_generator(*parse_expression(text, allowed=("u",)).bind_batch(("u",)),
                             domain or REALS, cfg)


def _build_family(kind: type, check: Callable, build: Callable, specs: Sequence):
    """The family ``kind`` of the members ``build`` makes of the specs, in
    spec order; ``check`` checks the members built here (not a member that
    passes through as its own spec) on the sample draw they share, by the
    numpy form of their family, where one of them is an expression (an
    ``expr.Member`` or a ``vector.Covector``).
    Errors come in spec order, as if each member were built and checked on
    its own: a spec that raises does so only after the members before it
    pass their check."""
    members: list = []
    error = None
    for spec in specs:
        try:
            members.append(build(spec))
        except MeansError as exc:
            error = exc
            break
    if members or error is None:
        family = kind(members)  # no specs at all: refused here
        own = [m for m, spec in zip(members, specs) if m is not spec]
        if any(isinstance(m.eval, (Member, Covector)) for m in own):
            checked = family if len(own) == len(members) else kind(own)
            check(checked.members, checked.batch)
    if error is not None:
        raise error
    return family


def _weight(domain: Interval, spec) -> WeightFn:
    if isinstance(spec, WeightFn):
        return spec
    if isinstance(spec, (int, float)):
        return constant_weight(float(spec), domain)
    return WeightFn(eval=Member(parse_expression(str(spec), allowed=("u",)), ("u",)),
                    domain=domain, validate=False)


def build_weights(specs: Sequence, domain: Interval) -> WeightTuple:
    """The WeightTuple of positive numbers and expressions in u: a number
    is a ``constant_weight``, an expression a weight whose eval is an
    ``expr.Member``, and a WeightFn passes through, not checked again
    (``_build_family``, ``scalar.check_weights``)."""
    return _build_family(WeightTuple, check_weights, partial(_weight, domain), specs)


def _deviation(domain: Interval, text) -> ScalarDeviation:
    expression = parse_expression(str(text), allowed=("u", "v"))
    return ScalarDeviation(domain=domain, eval=Member(expression, ("u", "v")),
                           label=f"deviation {_quote(str(text))}", validate=False)


def build_deviations(texts: Sequence[str], domain: Interval) -> DeviationTuple:
    """The DeviationTuple of expressions in u, v: each deviation's eval is
    an ``expr.Member``, and the family checks the axioms of every member
    at once (``_build_family``, ``scalar.check_deviations``)."""
    return _build_family(DeviationTuple, check_deviations, partial(_deviation, domain), texts)


def _expand(entries, arity: int, what: str) -> list:
    if isinstance(entries, (str, int, float)) or not isinstance(entries, (list, tuple)):
        entries = [entries]
    entries = list(entries)
    if len(entries) == 1:
        try:
            entries = entries * arity
        except OverflowError:
            raise InvalidArgumentError(f"cannot repeat one of the {what} for an arity of "
                                       f"{arity}") from None
    if len(entries) != arity:
        raise InvalidArgumentError(f"need 1 or {arity} {what}, got {len(entries)}")
    return entries


def _of_points(fn: Callable) -> Callable:
    """fn of the coordinates of the point u, then of the point v where one
    is given, as Python floats."""
    return lambda u, v=None: fn(*np.asarray(u, float).tolist(),
                                *(() if v is None else np.asarray(v, float).tolist()))


def _point_expression(text, dim: int, pair: bool = False) -> Callable:
    """The expression ``text`` in u1..ud, and v1..vd where ``pair``, as a
    function of the point u, and of the point v (``_of_points``)."""
    names = _point_keys("u", dim) + (_point_keys("v", dim) if pair else ())
    return _of_points(parse_expression(str(text), allowed=names).bind(names))


def build_point_weight(spec, dim: int) -> Callable:
    """A weight on points from an expression in u1..ud, else as
    ``vector._weight_fn`` takes it (a positive number or a callable)."""
    if isinstance(spec, str):
        return _point_expression(spec, dim)
    return _weight_fn(spec, "point")


def _gen_deviation(dim: int, exprs: Sequence[str]) -> GenDeviation:
    if len(exprs) != dim:
        raise InvalidArgumentError(f"need {dim} covector expressions, got {len(exprs)}")
    allowed = _point_keys("u", dim) + _point_keys("v", dim)
    return GenDeviation(dim=dim, eval=Covector([parse_expression(str(e), allowed=allowed)
                                                for e in exprs]),
                        label="custom generalized deviation", sample_low=-2.0, sample_high=2.0,
                        validate=False)


def build_gen_deviations(covectors: Sequence[Sequence[str]], dim: int) -> GenDeviationTuple:
    """The GenDeviationTuple of covectors whose coordinates are expressions
    in u1..ud, v1..vd: each deviation's eval is a ``vector.Covector``, and
    the family compiles all their coordinates in one call and checks the
    axioms of every member at once, on [-2, 2]^d (``_build_family``,
    ``vector.check_gen_deviations``)."""
    return _build_family(GenDeviationTuple, check_gen_deviations, partial(_gen_deviation, dim),
                         covectors)


def build_gen_deviation(exprs: Sequence[str], dim: int) -> GenDeviation:
    """A GenDeviation whose covector coordinates are expressions in
    u1..ud, v1..vd, its axioms sampled on [-2, 2]^d: the one member of a
    family (``build_gen_deviations``), compiled once."""
    return build_gen_deviations([exprs], dim)[0]


def build_custom_potential(expr_text: str, dim: int) -> PotentialFn:
    """A PotentialFn from an expression for F(u, v); gradient by central
    differences."""
    return PotentialFn(dim=dim, eval=_point_expression(expr_text, dim, pair=True),
                       label=f"potential {_quote(expr_text)}", sample_low=-2.0, sample_high=2.0)


# Each constructor's selection hook rebuilds the family from the entries chi
# picks; build_weights, build_point_weight and build_generator pass built
# entries through, and numeric weights stay numbers, so that a selected
# weighted mean keeps its numpy form: the WeightTuple of the selected
# weights binds them as one family again, as a deviation mean's
# DeviationTuple binds the selected deviations.


def arithmetic_mean_fn(arity: int, dim: Optional[int] = None) -> MeanFn:
    return MeanFn(arity=arity, dim=dim, label="arithmetic",
                  eval=average if dim is None else point_average,
                  select=lambda chi: arithmetic_mean_fn(chi.k, dim),
                  batch=partial(_exact, partial(average_batch if dim is None
                                                else point_average_batch, None)))


def weighted_arithmetic_mean_fn(weights: Sequence, arity: int,
                                dim: Optional[int] = None,
                                domain: Interval = REALS) -> MeanFn:
    specs = _expand(weights, arity, "weights")
    if dim is None:
        ws = build_weights(specs, domain)
    else:
        ws = WeightTuple([build_point_weight(w, dim) for w in specs])
    numeric = [isinstance(w, (int, float)) for w in specs]
    entries = tuple(w if plain else built for w, built, plain in zip(specs, ws, numeric))
    if all(numeric):
        batch = partial(_exact, partial(average_batch if dim is None else point_average_batch,
                                        tuple(map(float, specs))))
    else:
        # The Bajraktarevic mean of the identity, weighted as this mean is.
        batch = quasi_arithmetic_batch(identity_generator(domain), ws) if dim is None else None
    return MeanFn(arity=arity, dim=dim, label="weighted arithmetic",
                  eval=lambda xs, ws=ws: weighted_arith_mean(ws, xs),
                  select=lambda chi: weighted_arithmetic_mean_fn(select(entries, chi), chi.k,
                                                                 dim, domain),
                  batch=batch)


def holder_mean_fn(p: float, arity: int) -> MeanFn:
    return MeanFn(arity=arity, label=f"holder p={p}",
                  eval=lambda xs, p=float(p): holder_mean(p, xs),
                  select=lambda chi: holder_mean_fn(p, chi.k),
                  batch=partial(_exact, partial(holder_batch, float(p))))


def gini_mean_fn(p: float, q: float, arity: int) -> MeanFn:
    return MeanFn(arity=arity, label=f"gini p={p} q={q}",
                  eval=lambda xs, p=float(p), q=float(q): gini_mean(p, q, xs),
                  select=lambda chi: gini_mean_fn(p, q, chi.k),
                  batch=partial(_exact, partial(gini_batch, float(p), float(q))))


def quasi_arithmetic_mean_fn(f, arity: int, domain: Optional[Interval] = None,
                             cfg: SolverConfig = DEFAULT_CONFIG) -> MeanFn:
    gen = build_generator(f, domain, cfg)
    return MeanFn(arity=arity, label="quasi-arithmetic",
                  eval=lambda xs, g=gen: quasi_arithmetic_mean(g, xs),
                  select=lambda chi: quasi_arithmetic_mean_fn(gen, chi.k),
                  batch=quasi_arithmetic_batch(gen))


def bajraktarevic_mean_fn(f, weights: Sequence, arity: int,
                          domain: Optional[Interval] = None,
                          cfg: SolverConfig = DEFAULT_CONFIG) -> MeanFn:
    gen = build_generator(f, domain, cfg)
    ws = build_weights(_expand(weights, arity, "weights"), gen.domain)
    return MeanFn(arity=arity, label="bajraktarevic",
                  eval=lambda xs, g=gen, ws=ws: bajraktarevic_mean(g, ws, xs),
                  select=lambda chi: bajraktarevic_mean_fn(gen, select(ws, chi), chi.k),
                  batch=quasi_arithmetic_batch(gen, ws))


def matkowski_mean_fn(fs: Sequence, arity: int, domain: Optional[Interval] = None,
                      cfg: SolverConfig = DEFAULT_CONFIG) -> MeanFn:
    # The reduction solves sum_sel f_i(x_i) + sum_unsel f_i(y) = sum_i f_i(y),
    # that is sum_sel f_i(x_i) = sum_sel f_i(y): the mean of the selected
    # generators.
    gens = tuple(build_generator(f, domain, cfg) for f in _expand(fs, arity, "generators"))
    return MeanFn(arity=arity, label="matkowski",
                  eval=lambda xs, gs=gens, cfg=cfg: matkowski_mean(gs, xs, cfg),
                  select=lambda chi: matkowski_mean_fn(select(gens, chi), chi.k, cfg=cfg),
                  batch=matkowski_batch(gens, cfg))


def build_mean(desc: MeanDescriptor, cfg: SolverConfig = DEFAULT_CONFIG) -> MeanFn:
    """Construct the MeanFn described by a descriptor."""
    kind, arity, dim = desc.kind, desc.arity, desc.dim
    values = desc._values
    if kind == "arithmetic":
        return arithmetic_mean_fn(arity, dim)
    if kind == "weighted-arithmetic":
        return weighted_arithmetic_mean_fn(values[0], arity, dim, values[1] or REALS)
    if kind == "holder":
        return holder_mean_fn(*values, arity)
    if kind == "gini":
        return gini_mean_fn(*values, arity)
    if kind == "quasi-arithmetic":
        f, domain = values
        return quasi_arithmetic_mean_fn(f, arity, _generator_domain(domain, [f]), cfg)
    if kind == "bajraktarevic":
        f, weights, domain = values
        return bajraktarevic_mean_fn(f, weights, arity, _generator_domain(domain, [f]), cfg)
    if kind == "matkowski":
        fs = _expand(values[0], arity, "generators")
        return matkowski_mean_fn(fs, arity, _generator_domain(values[1], fs), cfg)
    if kind == "deviation-custom":
        exprs = _expand(values[0], arity, "deviation expressions")
        return deviation_mean_fn(build_deviations(exprs, values[1] or REALS), cfg,
                                 label="custom deviation mean")
    if kind == "gen-deviation":
        exprs, = values  # one covector for every slot, or a list of them
        exprs = _expand([exprs] if exprs and isinstance(exprs[0], str) else exprs, arity,
                        "covector expression lists")
        return gen_deviation_mean_fn(build_gen_deviations(exprs, dim), cfg)
    if kind == "norm-squared-potential":
        pots = tuple(make_norm_sq_potential(build_point_weight(w, dim), dim)
                     for w in _expand(values[0], arity, "weights"))
        return potential_mean_fn(pots, cfg, label="norm-squared potential mean")
    # custom-potential, the last of the KINDS
    pots = tuple(build_custom_potential(e, dim)
                 for e in _expand(values[0], arity, "potential expressions"))
    return potential_mean_fn(pots, cfg, label="custom potential mean")


def _generator_domain(domain: Optional[Interval], fs: list) -> Optional[Interval]:
    # Without a domain, generators that must share one take (0, inf) where
    # one of them is the named "log", which takes no wider domain.
    if domain is not None:
        return domain
    return POSITIVE_REALS if "log" in (f.strip() for f in fs) else None


def evaluate_with_report(desc: MeanDescriptor, x: Sequence,
                         cfg: SolverConfig = DEFAULT_CONFIG) -> tuple:
    """Evaluate a descriptor-defined mean, returning (value, SolverReport).

    Solver-backed kinds return the solver's own report (``MeanFn.report``)
    and its value where the solve converged; where it did not, they raise
    NoConvergenceError naming the kind and the data (``core._certified``).
    Closed-form kinds report zero residual and zero iterations.  Kinds
    solved numerically without a report (``_solved_numerically``) report
    None for both: their solvers keep neither.  The mean is
    built on every call: its expressions parsed and compiled, its axioms
    sampled.  For many tuples, call ``build_mean`` once and then
    ``M.report`` (or ``M``) per tuple.
    """
    M = build_mean(desc, cfg)
    if M.report is not None:
        report = M.report(tuple(x))
        return _certified(report, f"{desc.kind} mean", x), report
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
    return (desc.kind in ("quasi-arithmetic", "bajraktarevic")
            and desc.params["f"].strip() not in _IDENTITY_NAMES + ("log", "exp"))
