"""Small infix expression grammar for user-defined functions.

Grammar (``^`` is right-associative and binds tighter than unary minus)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?
    atom    := NUMBER | NAME | NAME "(" expr ("," expr)* ")" | "(" expr ")"

These are Python's precedence and associativity, so the token stream is the
code: ``parse_expression`` reads the tokens once, with a stack of open groups
and calls, and writes each token's Python as it reads it.  Nothing recurses;
an expression too deep or too long for Python's compiler raises
ExpressionError where it is compiled.

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

- the n d covector coordinates of a family of generalized deviations
  (``vector.GenDeviationTuple``) have member i read u1..ud from x_i and
  v1..vd from the shared y, in a function of (x_1, ..., x_n, y);
- a family of weights or of scalar deviations (``scalar._Family``, one
  rule for both) has member i read x_i as its first name and the shared
  arguments as the rest: none for a weight w_i(u), the y of the section
  (y, x_1, ..., x_n) -> [E_i(x_i, y)] as v for a deviation E_i(u, v); a
  number is a member written as its literal.

Variables are checked when the function is built, not per call.  Every form
keeps one error contract: a math domain error, overflow or division by zero
raises DomainError naming the expression, so does a complex result or a
complex operand of a math function, and the value is a ``float``.  Every
message quotes an expression's text through ``_quote``: at most its first
_QUOTE_LIMIT characters, and its length.  A family function that fails is
evaluated again one member at a time, in order, so the error names the
first member that fails.  A ``Member`` is one expression compiled on its
own only when it is called on its own: a family compile gives its members
nothing (only a family of one covector is its member's own function, see
``vector.GenDeviationTuple``).

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

# A name before "(" and the "(" are one "call" token.  Any other character is
# a "bad" token, which the tokenizer refuses.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<call>[A-Za-z_][A-Za-z_0-9]*)\s*\(|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^(),])|(?P<bad>\S))"
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


# The most characters of a text that a message quotes.
_QUOTE_LIMIT = 200


def _quote(text: str) -> str:
    """``repr(text)``, or, for a text longer than _QUOTE_LIMIT characters,
    the repr of its first _QUOTE_LIMIT and its length: every message of this
    module quotes a text through it, so that a message stays short however
    long the text."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, tok = m.lastgroup, m.group(m.lastgroup)
        if kind == "bad":
            raise ExpressionError(f"unexpected character {tok!r} in {_quote(text)}")
        tokens.append((kind, "^" if tok == "**" else tok))
    tokens.append(("end", ""))
    return tokens


# One globals dict shared by every compiled lambda: a function whose globals
# hold nothing of its own forms no reference cycle, so it is freed as soon as
# its last user drops it.
_EVAL_GLOBALS = {"__builtins__": {}}
_EVAL_GLOBALS.update({f"_fn_{name}": fn for name, fn in _FUNCTIONS.items()})
# The same names for the numpy form of a compiled lambda.
_NUMPY_GLOBALS = {"__builtins__": {}, "_fn_exp": np.exp, "_fn_log": np.log,
                  "_fn_sqrt": np.sqrt, "_fn_abs": np.abs, "_fn_pow": np.power}


def _compile(source: str, label: str, what: str):
    """``compile(source, label, "eval")``, where what Python's compiler
    refuses as too deep or too long raises ExpressionError naming ``what``."""
    try:
        return compile(source, label, "eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        reason = exc.msg if isinstance(exc, SyntaxError) else type(exc).__name__
        raise ExpressionError(f"{what} is too deeply nested or too long to compile "
                              f"({reason})") from None


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
            raise DomainError(f"evaluating {_quote(text)}: {exc}") from exc
        except TypeError as exc:
            # With the right number of arguments, a complex intermediate
            # handed to a math function; a wrong count stays a TypeError.
            if len(args) != arity:
                raise
            raise DomainError(f"evaluating {_quote(text)}: {exc}") from exc
        if isinstance(value, complex):
            raise DomainError(f"expression {_quote(text)} produced a complex value")
        return float(value)

    return call


@dataclass(frozen=True)
class Expression:
    """A parsed expression.

    ``bind(names)`` compiles it into a function of positional floats, one per
    name, and ``bind_batch(names)`` also returns its numpy form; calling the
    expression on a keyword environment of floats runs the same kind of
    function, bound to the sorted variables on first use.  Its code is kept
    as a template, the Python the text reads as, in which each variable x
    is the placeholder ``{x}``.
    """

    text: str
    variables: frozenset[str]
    _template: str

    @cached_property
    def _order(self) -> tuple[str, ...]:
        return tuple(sorted(self.variables))

    def _missing(self, names) -> ExpressionError:
        missing = sorted(self.variables.difference(names))
        return ExpressionError(f"expression {_quote(self.text)} needs variables {missing}")

    def _body(self, args: dict[str, int]) -> str:
        """The code of the expression with each variable x replaced by the
        positional argument ``_a{args[x]}``."""
        if not self.variables.issubset(args):
            raise self._missing(args)
        return self._template.format_map({v: f"_a{args[v]}" for v in self.variables})

    def _code_for(self, names: tuple[str, ...]):
        """The code of the expression as a lambda of len(names) positional
        arguments, to be evaluated against ``_EVAL_GLOBALS`` or
        ``_NUMPY_GLOBALS``."""
        body = self._body({name: i for i, name in enumerate(names)})
        return _compile(f"lambda {_params(len(names))}: {body}", f"<expr {_quote(self.text)}>",
                        f"expression {_quote(self.text)}")

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
    quoted = f"[{', '.join(map(_quote, texts))}]"
    label, what = f"<family {quoted}>", f"the family of expressions {quoted}"
    code = _compile(f"lambda {params}: ({', '.join(bodies)},)", label, what)
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
                fresh = eval(_compile(f"({', '.join(f'lambda {params}: {b}' for b in bodies)},)",
                                      label, what), _EVAL_GLOBALS)  # noqa: S307
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

    A family of weights or deviations whose evals are members, in one
    name for a weight and two for a deviation (``scalar._Family``),
    compiles their values as one function (``_bind_family``); a member
    compiles only itself, where it is called on its own.  A member refers
    to nothing that refers back to it, so reference counting frees a
    family as soon as its users drop it.
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
    """Parse expression text, optionally restricting its free variables.

    Expecting an operand, the recognizer writes a number or constant as the
    ``repr`` of its float, a variable x as ``{x}`` and a call as
    ``_fn_<name>(``, and reads on past "-" and "("; expecting an operator,
    it writes ``^`` as ``**``, and "," and ")" close what the stack says.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression text must be a nonempty string")
    code: list[str] = []
    free: set[str] = set()
    groups: list[list] = []  # per open "(": [the function called, or None; its arguments]
    operand = True
    for kind, tok in _tokenize(text):
        if operand:
            if kind == "num":
                value = float(tok)
                if math.isinf(value):
                    raise ExpressionError(f"numeric literal {_quote(tok)} in {_quote(text)} "
                                          "is not finite")
                code.append(repr(value))
            elif kind == "call":
                if tok not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {_quote(tok)} in {_quote(text)}")
                groups.append([tok, 1])
                code.append(f"_fn_{tok}(")
                continue
            elif kind == "name" and tok in _CONSTANTS:
                code.append(repr(_CONSTANTS[tok]))
            elif kind == "name":
                free.add(tok)
                code.append(f"{{{tok}}}")
            elif tok == "-" or tok == "(":
                if tok == "(":
                    groups.append([None, 1])
                code.append(tok)
                continue
            else:
                raise ExpressionError(f"unexpected token {_quote(tok)} in {_quote(text)}")
            operand = False
        elif tok in ("+", "-", "*", "/", "^"):
            code.append("**" if tok == "^" else tok)
            operand = True
        elif tok == "," and groups and groups[-1][0]:
            groups[-1][1] += 1
            code.append(tok)
            operand = True
        elif tok == ")" and groups:
            name, count = groups.pop()
            if name and count != _ARITY[name]:
                raise ExpressionError(f"function {name!r} takes {_ARITY[name]} argument(s), "
                                      f"got {count}")
            code.append(tok)
        elif kind == "end" and not groups:
            break
        elif groups:
            raise ExpressionError(f"expected ')' in {_quote(text)}, found {_quote(tok)}")
        else:
            raise ExpressionError(f"trailing input {_quote(tok)} in {_quote(text)}")
    if allowed is not None:
        extra = free.difference(allowed)
        if extra:
            raise ExpressionError(
                f"expression {_quote(text)} uses variables {sorted(extra)}; "
                f"allowed: {sorted(allowed)}"
            )
    return Expression(text=text, variables=frozenset(free), _template="".join(code))


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
