"""Small infix expression grammar for user-defined functions.

Grammar (recursive descent, ``^`` is right-associative and binds tighter
than unary minus)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?
    atom    := NUMBER | NAME | NAME "(" expr ("," expr)* ")" | "(" expr ")"

Functions: ``exp``, ``log``, ``sqrt``, ``abs``, ``pow``.  Constants: ``pi``,
``e``.  Any other name is a free variable; which variables are allowed is
decided by the caller (``u``/``v`` for scalar deviations and weights,
``u1..ud``/``v1..vd`` for vector potentials).  Everything is evaluated in
double precision, and a literal that overflows to infinity is rejected.

Each expression, and each family of expressions, is compiled once into one
Python function of positional floats; a keyword call runs the same kind of
function.  The binders:

- ``Expression.bind``: one expression;
- ``bind_family``: the d covector coordinates of a generalized deviation,
  one function returning all d values;
- ``bind_section``: a family of scalar deviations E_i(u, v) given as
  ``Member``s, one function of (y, x_1, ..., x_n) returning the n values
  E_i(x_i, y), the section that a deviation mean sums, and its sum;
- ``bind_members``: a family of weights w_i(u), each its own function, all
  from one compile.

Variables are checked when the function is built, not per call.  Every form
keeps one error contract: a math domain error, overflow or division by zero
raises DomainError naming the expression, so does a complex result or a
complex operand of a math function, and the value is a ``float``.  A family
function that fails is evaluated again one member at a time, in order, so
the error names the first member that fails.  A ``Member`` is compiled on
its own only when it is called on its own.

``Expression.bind_batch`` and the family binders return, besides the scalar
functions, a numpy form of the same compiled code: the ``_fn_*`` names map
to numpy's ufuncs, so it takes arrays of samples and evaluates them in one
call (a family's form returns the tuple of its members' values).  It has no
error contract of its own (numpy signals a floating-point error where
``math`` raises, and its ``exp`` and ``power`` may differ from ``math``'s in
the last bit); the axiom checks use it to accept every member of a family on
one sample set at once and leave every other verdict to the scalar
functions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .core import wide_fsum
from .errors import DomainError, ExpressionError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^(),]))"
)

_FUNCTIONS: dict[str, Callable] = {
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "pow": math.pow,
}
_ARITY = {"exp": 1, "log": 1, "sqrt": 1, "abs": 1, "pow": 2}
_CONSTANTS = {"pi": math.pi, "e": math.e}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExpressionError(f"unexpected character {rest[0]!r} in {text!r}")
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, text = self.advance()
        if kind != "op" or text != value:
            raise ExpressionError(f"expected {value!r} in {self.text!r}, found {text!r}")

    def parse(self):
        node = self.expr()
        kind, text = self.peek()
        if kind != "end":
            raise ExpressionError(f"trailing input {text!r} in {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.advance()
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.advance()
            node = (op, node, self.factor())
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.advance()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.advance()
            return ("^", base, self.factor())
        return base

    def atom(self):
        kind, text = self.advance()
        if kind == "num":
            value = float(text)
            if math.isinf(value):
                raise ExpressionError(f"numeric literal {text!r} in {self.text!r} is not finite")
            return ("const", value)
        if kind == "name":
            if self.peek() == ("op", "("):
                if text not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {text!r} in {self.text!r}")
                self.advance()
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != _ARITY[text]:
                    raise ExpressionError(
                        f"function {text!r} takes {_ARITY[text]} argument(s), got {len(args)}"
                    )
                return ("call", text, args)
            if text in _CONSTANTS:
                return ("const", _CONSTANTS[text])
            return ("var", text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExpressionError(f"unexpected token {text!r} in {self.text!r}")


def _free_variables(node, out: set[str]):
    tag = node[0]
    if tag == "var":
        out.add(node[1])
    elif tag == "neg":
        _free_variables(node[1], out)
    elif tag in ("+", "-", "*", "/", "^"):
        _free_variables(node[1], out)
        _free_variables(node[2], out)
    elif tag == "call":
        for arg in node[2]:
            _free_variables(arg, out)


def _emit(node, args: dict[str, str]) -> str:
    tag = node[0]
    if tag == "const":
        return repr(node[1])
    if tag == "var":
        return args[node[1]]
    if tag == "neg":
        return f"(-{_emit(node[1], args)})"
    if tag == "^":
        return f"({_emit(node[1], args)} ** {_emit(node[2], args)})"
    if tag in ("+", "-", "*", "/"):
        return f"({_emit(node[1], args)} {tag} {_emit(node[2], args)})"
    if tag == "call":
        inner = ", ".join(_emit(a, args) for a in node[2])
        return f"_fn_{node[1]}({inner})"
    raise AssertionError(f"unreachable node {tag}")


# One globals dict shared by every compiled lambda: a function whose globals
# hold nothing of its own forms no reference cycle, so it is freed as soon as
# its last user drops it.
_EVAL_GLOBALS = {"__builtins__": {}}
_EVAL_GLOBALS.update({f"_fn_{name}": fn for name, fn in _FUNCTIONS.items()})
# The same names for the numpy form of a compiled lambda.
_NUMPY_GLOBALS = {"__builtins__": {}, "_fn_exp": np.exp, "_fn_log": np.log,
                  "_fn_sqrt": np.sqrt, "_fn_abs": np.abs, "_fn_pow": np.power}


def _code(body: str, arity: int, label: str):
    """The code of ``lambda _a0, ..., _a{arity-1}: body``, to be evaluated
    against ``_EVAL_GLOBALS`` or ``_NUMPY_GLOBALS``.

    Arguments are named by position, never after a user variable, so no
    variable can collide with a generated name.
    """
    params = ", ".join(f"_a{i}" for i in range(arity))
    return compile(f"lambda {params}: {body}", label, "eval")


def _contract(text: str, raw: Callable, arity: int) -> Callable[..., float]:
    """``raw``, the compiled code of one expression, with the error contract
    of an expression call: the lambda itself cannot hold a ``try``."""

    def call(*args):
        try:
            value = raw(*args)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"evaluating {text!r}: {exc}") from exc
        except TypeError as exc:
            # With the right number of arguments, a complex intermediate
            # handed to a math function; a wrong count stays a TypeError.
            if len(args) != arity:
                raise
            raise DomainError(f"evaluating {text!r}: {exc}") from exc
        if isinstance(value, complex):
            raise DomainError(f"expression {text!r} produced a complex value")
        return float(value)

    return call


def _positional(names: Sequence[str]) -> dict[str, str]:
    """The argument name ``_a{i}`` of each name, i its index in names."""
    return {name: f"_a{i}" for i, name in enumerate(names)}


def _bound(text: str, code, arity: int) -> Callable[..., float]:
    """The compiled code of one expression, with its error contract."""
    return _contract(text, eval(code, _EVAL_GLOBALS), arity)  # noqa: S307


@dataclass(frozen=True)
class Expression:
    """A parsed expression.

    ``bind(names)`` compiles it into a function of positional floats, one per
    name, and ``bind_batch(names)`` also returns its numpy form; calling the
    expression on a keyword environment of floats runs the same kind of
    function, bound to the sorted variables on first use.  Its code is kept
    as a template whose i-th placeholder is the i-th sorted variable, so no
    parse tree outlives the parse.
    """

    text: str
    variables: frozenset[str]
    _template: str

    @cached_property
    def _order(self) -> tuple[str, ...]:
        return tuple(sorted(self.variables))

    def _missing(self, names) -> ExpressionError:
        missing = sorted(self.variables.difference(names))
        return ExpressionError(f"expression {self.text!r} needs variables {missing}")

    def _body(self, args: dict[str, str]) -> str:
        """The code of the expression with each variable replaced by its
        argument name in ``args``."""
        if not self.variables.issubset(args):
            raise self._missing(args)
        return self._template.format(*[args[v] for v in self._order])

    def _code_for(self, names: tuple[str, ...]):
        return _code(self._body(_positional(names)), len(names), f"<expr {self.text!r}>")

    def bind(self, names: Sequence[str]) -> Callable[..., float]:
        """A function of len(names) positional floats, in the order of names."""
        names = tuple(names)
        return _bound(self.text, self._code_for(names), len(names))

    def bind_batch(self, names: Sequence[str]) -> tuple[Callable[..., float], Callable]:
        """``bind(names)`` and its numpy form, from one compile."""
        names = tuple(names)
        code = self._code_for(names)
        return _bound(self.text, code, len(names)), eval(code, _NUMPY_GLOBALS)  # noqa: S307

    @cached_property
    def _by_keyword(self) -> Callable[..., float]:
        return self.bind(self._order)

    def __call__(self, **env: float) -> float:
        # A list, not a map iterator: CPython unpacks an iterator into a
        # tuple of guessed length and shrinks it, and every such tuple ends
        # in the free list of its final size, which so grows to its cap of
        # 2000 tuples per size.
        try:
            args = [env[name] for name in self._order]
        except KeyError:
            raise self._missing(env) from None
        return self._by_keyword(*args)


def bind_family(exprs: Sequence[Expression],
                names: Sequence[str]) -> tuple[Callable[..., list], Callable]:
    """One function of len(names) positional floats returning the list of
    the expressions' values, compiled as a single lambda, and its numpy
    form, which returns the tuple of the coordinates' values.

    A call that fails is evaluated again one coordinate at a time, in order,
    so the DomainError names the first coordinate that fails.
    """
    names = tuple(names)
    # Texts and code only: the Expression objects need not outlive the build.
    code = [(e.text, e._body(_positional(names))) for e in exprs]
    arity = len(names)
    family = _code(f"({', '.join(body for _, body in code)},)", arity,
                   f"<family {[text for text, _ in code]!r}>")
    raw = eval(family, _EVAL_GLOBALS)  # noqa: S307
    coordinates: list = []  # bound on the first failure only

    def call(*args):
        try:
            # float() of a complex coordinate raises TypeError.
            return list(map(float, raw(*args)))
        except (ValueError, OverflowError, ZeroDivisionError, TypeError):
            if not coordinates:
                coordinates.extend(_bound(text, _code(body, arity, f"<expr {text!r}>"), arity)
                                   for text, body in code)
            return [c(*args) for c in coordinates]

    return call, eval(family, _NUMPY_GLOBALS)  # noqa: S307


def bind_members(exprs: Sequence[Expression],
                 names: Sequence[str]) -> tuple[list[Callable[..., float]], Callable]:
    """Each expression as ``Expression.bind(names)`` binds it, and the numpy
    form of the family, which returns the tuple of the members' values: all
    from one compile."""
    names = tuple(names)
    args = _positional(names)
    bodies = [e._body(args) for e in exprs]
    params = ", ".join(args.values())
    lambdas = [f"lambda {params}: {body}" for body in bodies]
    lambdas.append(f"lambda {params}: ({', '.join(bodies)},)")
    code = compile(f"({', '.join(lambdas)},)", f"<family {[e.text for e in exprs]!r}>", "eval")
    raws = eval(code, _EVAL_GLOBALS)  # noqa: S307
    return ([_contract(e.text, raw, len(names)) for e, raw in zip(exprs, raws)],
            eval(code, _NUMPY_GLOBALS)[-1])  # noqa: S307


class Member:
    """An expression bound to names as ``Expression.bind(names)`` binds it,
    compiled on its first call.

    A family of members in two names, the first taking a data point x and
    the second the evaluation point y, is evaluated through its section
    (``bind_section``), one compiled function of all of them; a member is
    compiled only where it is called on its own.  It refers to nothing
    that refers back to it, so reference counting frees a family as soon
    as its users drop it.
    """

    __slots__ = ("expression", "names", "_fn")

    def __init__(self, expression: Expression, names: Sequence[str]):
        self.expression = expression
        self.names = tuple(names)
        self._fn = None

    def __call__(self, *args) -> float:
        if self._fn is None:
            self._fn = self.expression.bind(self.names)
        return self._fn(*args)


def bind_section(members: Sequence[Callable], compiled: bool = True
                 ) -> tuple[Callable[..., list], Callable[..., float], Optional[Callable]]:
    """The section y -> [E_1(x_1, y), ..., E_n(x_n, y)] of a family of
    two-place functions E_i(x, y), as one function of (y, x_1, ..., x_n);
    its total, the same function summed by ``core.wide_fsum``; and its
    numpy form, which returns the tuple of the members' values.

    Where every E_i is a ``Member`` in two names, the section is compiled as
    a single lambda, as ``bind_family`` compiles a family, with its
    fallback: a call that fails is evaluated again member by member, in
    order, so the DomainError names the first member that fails.  The total
    sums that lambda's values by ``math.fsum`` and takes the section's path
    wherever that raises, so its value and errors are those of the section
    summed.  Any other family, and every family where ``compiled`` is
    False, calls each E_i in turn, and has no numpy form (None).
    """
    members = tuple(members)
    if compiled and all(isinstance(m, Member) and len(m.names) == 2 for m in members):
        return _compiled_section(members)

    def section(y, *xs):
        return [m(x, y) for m, x in zip(members, xs)]

    def total(y, *xs):
        return wide_fsum(section(y, *xs))

    return section, total, None


def _compiled_section(members: tuple[Member, ...]) -> tuple:
    """``bind_section`` of a family of Members."""
    bodies = [m.expression._body({m.names[0]: f"_a{i + 1}", m.names[1]: "_a0"})
              for i, m in enumerate(members)]
    arity = len(members) + 1
    code = _code(f"({', '.join(bodies)},)", arity,
                 f"<section {[m.expression.text for m in members]!r}>")
    raw = eval(code, _EVAL_GLOBALS)  # noqa: S307

    def section(*args):
        try:
            # float() of a complex value raises TypeError.
            return list(map(float, raw(*args)))
        except (ValueError, OverflowError, ZeroDivisionError, TypeError):
            if len(args) != arity:
                raise
            return [m(x, args[0]) for m, x in zip(members, args[1:])]

    def total(*args):
        try:
            # math.fsum rejects a complex value with TypeError, a partial sum
            # past the float range with OverflowError and inf - inf with
            # ValueError.
            return math.fsum(raw(*args))
        except (ValueError, OverflowError, ZeroDivisionError, TypeError):
            return wide_fsum(section(*args))

    return section, total, eval(code, _NUMPY_GLOBALS)  # noqa: S307


def parse_expression(text: str, allowed: Sequence[str] | None = None) -> Expression:
    """Parse expression text, optionally restricting its free variables."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression text must be a nonempty string")
    node = _Parser(text).parse()
    free: set[str] = set()
    _free_variables(node, free)
    if allowed is not None:
        extra = free.difference(allowed)
        if extra:
            raise ExpressionError(
                f"expression {text!r} uses variables {sorted(extra)}; allowed: {sorted(allowed)}"
            )
    order = sorted(free)
    template = _emit(node, {name: f"{{{i}}}" for i, name in enumerate(order)})
    return Expression(text=text, variables=frozenset(free), _template=template)


@lru_cache(maxsize=64)
def _point_keys(prefix: str, d: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(d))


def point_vars(prefix: str, point) -> dict[str, float]:
    """Environment entries ``{prefix}1..{prefix}d`` for a point's coordinates."""
    if isinstance(point, np.ndarray) and point.ndim == 1:
        # tolist() of an int array gives ints; the values must be floats.
        values = np.asarray(point, float).tolist()
    else:
        values = [float(c) for c in point]
    return dict(zip(_point_keys(prefix, len(values)), values))
