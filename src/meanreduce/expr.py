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

Each expression, and each family of d covector coordinates, is compiled once
into one Python function of positional floats (``Expression.bind``,
``bind_family``); a keyword call runs the same kind of function.  Variables
are checked when the function is built, not per call.  Every form keeps one
error contract: a math domain error, overflow or division by zero raises
DomainError naming the expression, so does a complex result or a complex
operand of a math function, and the value is a ``float``.  A family that
fails is evaluated again one coordinate at a time, so the error names the
failing coordinate.

``Expression.bind_batch`` and ``bind_family`` return, besides the scalar
function, a numpy form of the same compiled code: the ``_fn_*`` names map to
numpy's ufuncs, so it takes arrays of samples and evaluates them in one call.
It has no error contract of its own (numpy signals a floating-point error
where ``math`` raises, and its ``exp`` and ``power`` may differ from
``math``'s in the last bit); the axiom checks use it to accept a sample set
at once and leave every other verdict to the scalar function.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

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


def _bound(text: str, code, arity: int) -> Callable[..., float]:
    """The compiled code of one expression, with the error contract of an
    expression call: the lambda itself cannot hold a ``try``."""
    raw = eval(code, _EVAL_GLOBALS)  # noqa: S307

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

    def _body(self, names: tuple[str, ...]) -> str:
        """The code of the expression with its variables as arguments
        ``_a{i}``, i the variable's index in names."""
        if not self.variables.issubset(names):
            raise self._missing(names)
        position = {name: i for i, name in enumerate(names)}
        return self._template.format(*[f"_a{position[v]}" for v in self._order])

    def _code_for(self, names: tuple[str, ...]):
        return _code(self._body(names), len(names), f"<expr {self.text!r}>")

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
    code = [(e.text, e._body(names)) for e in exprs]
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
