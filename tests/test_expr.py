import gc
import math
import types
import weakref

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from meanreduce.descriptors import build_gen_deviation
from meanreduce.errors import DomainError, ExpressionError
from meanreduce.expr import _bind_family, parse_expression, point_vars


def _covectors(exprs, names):
    """The family of expressions that all read names, in order, and its
    numpy form, as a generalized deviation binds its covector."""
    family, _, batch = _bind_family(exprs, [dict(zip(names, range(len(names))))] * len(exprs),
                                    len(names))
    return family, batch


@pytest.mark.parametrize("text,env,expected", [
    ("2 + 3*4", {}, 14.0),
    ("(2 + 3)*4", {}, 20.0),
    ("2^3^2", {}, 512.0),          # right-associative power
    ("-2^2", {}, -4.0),            # unary minus binds looser than power
    ("2^-1", {}, 0.5),
    ("10/4", {}, 2.5),
    ("1 - 2 - 3", {}, -4.0),       # left-associative subtraction
    ("u - v", {"u": 3.0, "v": 1.0}, 2.0),
    ("u*(u - v)", {"u": 2.0, "v": 5.0}, -6.0),
    ("exp(1)", {}, math.e),
    ("log(e)", {}, 1.0),
    ("sqrt(16)", {}, 4.0),
    ("abs(-3)", {}, 3.0),
    ("pow(2, 10)", {}, 1024.0),
    ("pi", {}, math.pi),
    ("2e-3 + 1", {}, 1.002),
    ("u1 + 2*u2", {"u1": 1.0, "u2": 3.0}, 7.0),
    ("u + 1 ", {"u": 2.0}, 3.0),   # trailing whitespace
])
def test_evaluation(text, env, expected):
    fn = parse_expression(text)
    assert fn(**env) == pytest.approx(expected, rel=1e-15)


def test_double_star_power_alias():
    assert parse_expression("2**3")() == 8.0


def test_free_variables_tracked():
    fn = parse_expression("u*v + exp(u)")
    assert fn.variables == {"u", "v"}


def test_restricted_variables():
    with pytest.raises(ExpressionError):
        parse_expression("u + w", allowed=("u", "v"))


def test_missing_variable_at_call():
    fn = parse_expression("u + v")
    with pytest.raises(ExpressionError):
        fn(u=1.0)


@pytest.mark.parametrize("text", [
    "", "2 +", "(1", "1 2", "sin(1)", "pow(1)", "log(1, 2)", "@", "u +* v",
    # Python reads these; the grammar does not.
    "+u", "u-+v", "u,v", "(u,)", "exp(*u)", "exp(**u)", "pow(u,2,)", "(u)(2)", "2(3)",
    "exp(u)(2)", "0x10", "1_0", "1j", "u // v", "u and v", "u if v else u",
])
def test_malformed_expressions_rejected(text):
    with pytest.raises(ExpressionError):
        parse_expression(text)


def test_math_domain_errors_surface_as_domain_error():
    fn = parse_expression("log(u)")
    with pytest.raises(DomainError):
        fn(u=-1.0)
    with pytest.raises(DomainError):
        parse_expression("1/u")(u=0.0)


def test_complex_results_rejected():
    fn = parse_expression("u^0.5")
    with pytest.raises(DomainError):
        fn(u=-4.0)


def test_point_vars_naming():
    assert point_vars("v", (1.5, 2.5)) == {"v1": 1.5, "v2": 2.5}


@pytest.mark.parametrize("text", ["1e400", "u*1e400", "2 + 9e999*u"])
def test_non_finite_literal_rejected(text):
    with pytest.raises(ExpressionError, match="not finite"):
        parse_expression(text)


def test_missing_variable_at_bind():
    with pytest.raises(ExpressionError, match="needs variables"):
        parse_expression("u + v").bind(("u",))
    with pytest.raises(ExpressionError, match="needs variables"):
        _covectors([parse_expression("u"), parse_expression("w")], ("u", "v"))


def test_bound_arguments_follow_the_given_order():
    fn = parse_expression("u - 2*v").bind(("v", "w", "u"))
    assert fn(1.0, 100.0, 5.0) == 3.0


def test_variables_named_like_generated_names_do_not_collide():
    fn = parse_expression("_a1 - 10*_a0 + _fn_exp").bind(("_fn_exp", "_a0", "_a1"))
    assert fn(1.0, 2.0, 3.0) == 3.0 - 20.0 + 1.0
    assert parse_expression("_a0 - _a1")(_a0=5.0, _a1=2.0) == 3.0


def test_family_errors_name_the_failing_coordinate():
    family, _ = _covectors([parse_expression(t) for t in ("u1 - v1", "log(u2 - v2)")],
                           ("u1", "u2", "v1", "v2"))
    assert family(3.0, 4.0, 1.0, 3.0) == [2.0, 0.0]
    with pytest.raises(DomainError, match=r"evaluating 'log\(u2 - v2\)': math domain error"):
        family(3.0, 1.0, 1.0, 3.0)
    complex_first, _ = _covectors([parse_expression(t) for t in ("u^0.5", "log(u)")], ("u",))
    with pytest.raises(DomainError, match=r"expression 'u\^0.5' produced a complex value"):
        complex_first(-1.0)


# Random expression trees, generated fully parenthesized so that the text's
# structure is the tree's; an independent evaluator walks the tree.
_BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
           "/": lambda a, b: a / b, "^": lambda a, b: a ** b}
_UNARY = {"exp": math.exp, "log": math.log, "sqrt": math.sqrt, "abs": abs}
VARIABLES = ("u", "v", "u1", "v2", "_a0", "_a1")


# Zeros divide by zero, 400 overflows exp, a negated constant is a negative
# base for "^".
_FLOATS = st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 400.0]))


def _trees(names, numbers=_FLOATS.map(lambda c: ("num", c))):
    leaves = st.one_of(
        numbers,
        st.floats(0.5, 10.0).map(lambda c: ("neg", ("num", c))),
        st.sampled_from([("const", "pi"), ("const", "e")]),
        st.sampled_from(names).map(lambda n: ("var", n)),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(sorted(_BINARY)), children, children),
            st.tuples(st.just("neg"), children),
            st.tuples(st.sampled_from(sorted(_UNARY)), children),
            st.tuples(st.just("pow"), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _text(tree) -> str:
    tag = tree[0]
    if tag == "num":
        return repr(tree[1])
    if tag in ("const", "var"):
        return tree[1]
    if tag == "neg":
        return f"(-{_text(tree[1])})"
    if tag in _BINARY:
        return f"({_text(tree[1])} {tag} {_text(tree[2])})"
    return f"{tag}({', '.join(_text(t) for t in tree[1:])})"


def _reference(tree, env):
    tag = tree[0]
    if tag == "num":
        return tree[1]
    if tag == "const":
        return {"pi": math.pi, "e": math.e}[tree[1]]
    if tag == "var":
        return env[tree[1]]
    if tag == "neg":
        return -_reference(tree[1], env)
    if tag in _BINARY:
        return _BINARY[tag](_reference(tree[1], env), _reference(tree[2], env))
    if tag == "pow":
        return math.pow(_reference(tree[1], env), _reference(tree[2], env))
    return _UNARY[tag](_reference(tree[1], env))


def _outcome(call):
    """The float's repr (bit for bit, NaN and -0.0 included) or the error.

    A complex intermediate handed to a math function is a DomainError in
    every form, like a math domain error.
    """
    try:
        return repr(call())
    except DomainError as exc:
        return f"{type(exc).__name__}: {exc}"


def _reference_outcome(tree, env, text):
    try:
        value = _reference(tree, env)
    except (ValueError, OverflowError, ZeroDivisionError, TypeError) as exc:
        return f"DomainError: evaluating {text!r}: {exc}"
    if isinstance(value, complex):
        return f"DomainError: expression {text!r} produced a complex value"
    return repr(float(value))


@st.composite
def bound_cases(draw):
    names = draw(st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=4, unique=True))
    trees = draw(st.lists(_trees(names), min_size=1, max_size=3))
    order = draw(st.permutations(names))
    values = draw(st.lists(st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 1.0])),
                           min_size=len(names), max_size=len(names)))
    return trees, order, dict(zip(order, values))


# A failure is shrunk once and not explained: the explain phase traces every
# line of the parser and compiler, and shrinking each distinct error in turn
# took minutes where one takes seconds.
@settings(max_examples=200, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
          report_multiple_bugs=False)
@given(bound_cases())
@example(([("^", ("neg", ("num", 8.0)), ("/", ("num", 1.0), ("num", 3.0))), ("var", "u")],
          ["u"], {"u": 2.0}))
@example(([("var", "u"), ("exp", ("*", ("num", 400.0), ("var", "u")))], ["u"], {"u": 3.0}))
@example(([("exp", ("^", ("var", "u"), ("num", 0.5))), ("log", ("var", "u"))],
          ["u"], {"u": -1.0}))
def test_positional_and_keyword_forms_agree(case):
    trees, order, env = case
    args = [env[name] for name in order]
    exprs = [parse_expression(_text(t)) for t in trees]
    outcomes = []
    for tree, expr in zip(trees, exprs):
        keyword = _outcome(lambda: expr(**env))
        assert _outcome(lambda: expr.bind(order)(*args)) == keyword
        assert _reference_outcome(tree, env, expr.text) == keyword
        outcomes.append(keyword)
    family = _outcome(lambda: _covectors(exprs, order)[0](*args))
    failures = [o for o in outcomes if o.startswith("DomainError")]
    if failures:
        assert family == failures[0]
    else:
        assert family == repr([float(o) for o in outcomes])


# The grammar's own rules, for trees printed with the parentheses they need
# and some they do not: "+ -" bind loosest, then "* /", both left-associative,
# then unary minus, then "^" (or "**"), right-associative, whose base is an
# atom and whose exponent may start with a minus.
_NUMBERS = [".5", "1.e3", "07", "2E+05", "0", "3", "2.5", "1e-3", "400"]
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
# The least precedence of the left and of the right operand of an operator.
_OPERANDS = {"+": (1, 2), "-": (1, 2), "*": (2, 3), "/": (2, 3), "^": (5, 3)}
GRAMMAR_VARIABLES = ("u", "v", "u1", "_a0", "exp", "E")


@st.composite
def _printed(draw, tree):
    """tree's text: each node in the parentheses its place needs, and at
    random in redundant ones; "^" at random as "**"."""
    def show(node, need):
        tag = node[0]
        if tag == "num":
            text = node[2] if len(node) > 2 else repr(node[1])
        elif tag in ("const", "var"):
            text = node[1]
        elif tag == "neg":
            text = "-" + show(node[1], 3)
        elif tag in _OPERANDS:
            op = draw(st.sampled_from(["^", "**"])) if tag == "^" else tag
            space = draw(st.sampled_from(["", " "]))
            left, right = _OPERANDS[tag]
            text = f"{show(node[1], left)}{space}{op}{space}{show(node[2], right)}"
        else:
            text = f"{tag}({', '.join(show(arg, 1) for arg in node[1:])})"
        wraps = draw(st.sampled_from([0, 0, 0, 0, 1, 2]))
        if _PRECEDENCE.get(tag, 5) < need:
            wraps = max(wraps, 1)
        return "(" * wraps + text + ")" * wraps

    return show(tree, 1)


@settings(max_examples=300, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
          report_multiple_bugs=False)
@given(st.data())
def test_the_grammar_evaluates_as_its_rules_say(data):
    names = data.draw(st.lists(st.sampled_from(GRAMMAR_VARIABLES), min_size=1, max_size=3,
                               unique=True))
    numbers = st.one_of(st.sampled_from(_NUMBERS), st.floats(0.0, 10.0).map(repr))
    tree = data.draw(_trees(names, numbers.map(lambda text: ("num", float(text), text))))
    text = data.draw(_printed(tree))
    values = data.draw(st.lists(st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0])),
                                min_size=len(names), max_size=len(names)))
    expr = parse_expression(text)
    assert _outcome(lambda: expr.bind(names)(*values)) == \
        _reference_outcome(tree, dict(zip(names, values)), text)


@pytest.mark.parametrize("text,env", [("(-8)^(1/3)", {}), ("u^(1/3)", {"u": -8.0}),
                                      ("(u - v)^0.5", {"u": 1.0, "v": 2.0})])
def test_complex_values_rejected_in_every_form(text, env):
    expr = parse_expression(text)
    names = sorted(env)
    message = f"expression {text!r} produced a complex value"
    for call in (lambda: expr(**env), lambda: expr.bind(names)(*env.values()),
                 lambda: _covectors([expr, parse_expression("1")], names)[0](*env.values())):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("text,env", [("exp(u^0.5)", {"u": -1.0}),
                                      ("log((u - v)^0.5)", {"u": 1.0, "v": 2.0}),
                                      ("pow((-8)^(1/3), 2)", {})])
def test_complex_operands_of_math_functions_are_domain_errors(text, env):
    expr = parse_expression(text)
    names = sorted(env)
    message = f"evaluating {text!r}: must be real number, not complex"
    for call in (lambda: expr(**env), lambda: expr.bind(names)(*env.values()),
                 lambda: _covectors([parse_expression("1"), expr], names)[0](*env.values())):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


def test_a_wrong_argument_count_stays_a_type_error():
    single = parse_expression("exp(u^0.5)").bind(("u",))
    family, _ = _covectors([parse_expression("exp(u^0.5)")], ("u",))
    for call in (lambda: single(-1.0, 2.0), lambda: single(),
                 lambda: family(-1.0, 2.0), lambda: family()):
        with pytest.raises(TypeError, match="positional argument"):
            call()


def test_batch_forms_evaluate_arrays_with_numpy():
    expr = parse_expression("pow(u, 2)*log(v) + sqrt(abs(u)) - exp(-v)")
    fn, batch = expr.bind_batch(("u", "v"))
    us, vs = np.array([-2.0, 0.5, 3.0]), np.array([1.0, 2.0, 4.0])
    values = batch(us, vs)
    assert isinstance(values, np.ndarray) and values.shape == (3,)
    assert values == pytest.approx([fn(u, v) for u, v in zip(us, vs)], rel=1e-15)
    family, coordinates = _covectors([parse_expression("u1 - v1"), parse_expression("2")],
                                     ("u1", "v1"))
    first, second = coordinates(us, vs)
    assert list(first) == list(us - vs) and second == 2.0
    assert family(3.0, 1.0) == [2.0, 2.0]
    # No error contract: where math raises, numpy signals and returns NaN.
    with np.errstate(invalid="ignore"):
        assert np.isnan(parse_expression("log(u)").bind_batch(("u",))[1](np.array([-1.0])))[0]


def _functions(fn):
    """fn and every function held in its closure or defaults, transitively."""
    out = [fn]
    held = [cell.cell_contents for cell in fn.__closure__ or ()] + list(fn.__defaults__ or ())
    for value in held:
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, types.FunctionType):
                out.extend(_functions(item))
    return out


def test_bound_functions_are_freed_by_reference_counting_alone():
    # A compiled function whose globals referenced it back would live until
    # the cycle collector ran, which raised peak memory.
    names = ("u1", "u2", "v1", "v2")
    gc.disable()
    try:
        single = parse_expression("u1*v2 + log(u2)").bind(names)
        family, batch = _covectors([parse_expression("log(u1 - v1)"),
                                    parse_expression("u2 - v2")], names)
        with pytest.raises(DomainError):
            family(0.0, 0.0, 1.0, 0.0)  # binds the coordinates for the cold path
        dev = build_gen_deviation(["2*(u1 - v1)", "2*(u2 - v2)"], 2)
        refs = [weakref.ref(f) for f in _functions(single) + _functions(family)]
        refs += [weakref.ref(batch), weakref.ref(dev)]
        # The deviation's covector holds the compile of its family of one.
        refs += [weakref.ref(f) for f in _functions(dev.eval.fn)]
        assert len(refs) == 2 + 6 + 2 + 2
        del single, family, batch, dev
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
