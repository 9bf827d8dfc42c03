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
function.  ``Expression.bind`` compiles one expression.  A family is
compiled by one primitive, ``_bind_family``, from the members' expressions
and one argument map per member, which says which positional argument each
variable reads:

- the d covector coordinates of a generalized deviation all read the same
  (u1..ud, v1..vd);
- the section of a family of scalar deviations E_i(u, v), the function of
  (y, x_1, ..., x_n) that returns every E_i(x_i, y), has member i read x_i
  as u and the shared y as v;
- a family of weights, the function of (x_1, ..., x_n) that returns every
  w_i(x_i), has member i read x_i as u and takes a number as a member
  written as its literal.

Variables are checked when the function is built, not per call.  Every form
keeps one error contract: a math domain error, overflow or division by zero
raises DomainError naming the expression, so does a complex result or a
complex operand of a math function, and the value is a ``float``.  A family
function that fails is evaluated again one member at a time, in order, so
the error names the first member that fails.  A ``Member`` is one
expression compiled on its own only when it is called on its own: a
family compile gives its members nothing.

``Expression.bind_batch`` and ``_bind_family`` return, besides the scalar
functions, a numpy form of the same compiled code: the ``_fn_*`` names map
to numpy's ufuncs, so it takes arrays of samples and evaluates them in one
call (a family's form returns the tuple of its members' values).  It has no
error contract of its own (numpy signals a floating-point error where
``math`` raises, and its ``exp`` and ``power`` may differ from ``math``'s in
the last bit); the axiom checks use it to accept every member of a family on
one sample draw at once and leave every other verdict to the scalar
functions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

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


def _params(arity: int) -> str:
    """The parameters ``_a0, ..., _a{arity-1}`` of a compiled lambda.

    Arguments are named by position, never after a user variable, so no
    variable can collide with a generated name.
    """
    return ", ".join(f"_a{i}" for i in range(arity))


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

    def _body(self, args: dict[str, int]) -> str:
        """The code of the expression with each variable x replaced by the
        positional argument ``_a{args[x]}``."""
        if not self.variables.issubset(args):
            raise self._missing(args)
        return self._template.format(*[f"_a{args[v]}" for v in self._order])

    def _code_for(self, names: tuple[str, ...]):
        """The code of the expression as a lambda of len(names) positional
        arguments, to be evaluated against ``_EVAL_GLOBALS`` or
        ``_NUMPY_GLOBALS``."""
        body = self._body({name: i for i, name in enumerate(names)})
        return compile(f"lambda {_params(len(names))}: {body}", f"<expr {self.text!r}>", "eval")

    def bind(self, names: Sequence[str]) -> Callable[..., float]:
        """A function of len(names) positional floats, in the order of names."""
        return self.bind_batch(names)[0]

    def bind_batch(self, names: Sequence[str]) -> tuple[Callable[..., float], Callable]:
        """``bind(names)`` and its numpy form, from one compile."""
        names = tuple(names)
        code = self._code_for(names)
        return (_contract(self.text, eval(code, _EVAL_GLOBALS), len(names)),  # noqa: S307
                eval(code, _NUMPY_GLOBALS))  # noqa: S307

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


def _bind_family(exprs: Sequence[Expression | float], args: Sequence[dict[str, int]],
                 arity: int) -> tuple:
    """The expressions compiled as one family, in one ``compile`` call:
    exprs[i] reads each of its variables x as positional argument
    args[i][x] of a function of ``arity`` floats.  A float member is its
    value, written into the code as its ``repr``, which reads back as the
    same float: nothing is parsed for it.

    Returns the family function, which returns the list of the members'
    values as floats; its total, their sum; and the numpy form of the
    family, which returns the tuple of the members' values.

    A family call with a wrong argument count raises its TypeError at once;
    any other call that fails runs the members one at a time, in order, so
    the DomainError names the first member that fails (each member is
    compiled as a function of the family's arguments, all in one call, on
    the first failure).  The total sums the compiled values by
    ``math.fsum`` and takes the family's path wherever that raises, so its
    value and errors are those of the family summed by ``core.wide_fsum``.
    """
    texts = [e.text if isinstance(e, Expression) else repr(e) for e in exprs]
    bodies = [e._body(a) if isinstance(e, Expression) else text
              for e, a, text in zip(exprs, args, texts)]
    params = _params(arity)
    label = f"<family {texts!r}>"
    code = compile(f"lambda {params}: ({', '.join(bodies)},)", label, "eval")
    raw = eval(code, _EVAL_GLOBALS)  # noqa: S307
    fns: list = []

    def family(*values):
        try:
            # float() of a complex value raises TypeError.
            return list(map(float, raw(*values)))
        except (ValueError, OverflowError, ZeroDivisionError, TypeError):
            if len(values) != arity:
                raise
            if not fns:
                fresh = eval(compile(f"({', '.join(f'lambda {params}: {b}' for b in bodies)},)",
                                     label, "eval"), _EVAL_GLOBALS)  # noqa: S307
                fns.extend(_contract(text, fn, arity) for text, fn in zip(texts, fresh))
            return [fn(*values) for fn in fns]

    def total(*values):
        try:
            # math.fsum rejects a complex value with TypeError, a partial sum
            # past the float range with OverflowError and inf - inf with
            # ValueError.
            return math.fsum(raw(*values))
        except (ValueError, OverflowError, ZeroDivisionError, TypeError):
            return wide_fsum(family(*values))

    return family, total, eval(code, _NUMPY_GLOBALS)  # noqa: S307


class Member:
    """An expression bound to names as ``Expression.bind(names)`` binds it,
    compiled on its first call.

    A ``DeviationTuple`` of deviations whose evals are members in two
    names, the first taking a data point x and the second the evaluation
    point y, compiles their section as one family (``_bind_family``), and
    a ``WeightTuple`` of weights whose evals are members in one name
    compiles their values as one family in the same way; a member compiles
    only itself, where it is called on its own.  A member refers to nothing
    that refers back to it, so reference counting frees a family as soon
    as its users drop it.
    """

    __slots__ = ("expression", "names", "fn")

    def __init__(self, expression: Expression, names: Sequence[str]):
        self.expression = expression
        self.names = tuple(names)
        self.fn = None

    def __call__(self, *args) -> float:
        if self.fn is None:
            self.fn = self.expression.bind(self.names)
        return self.fn(*args)


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
