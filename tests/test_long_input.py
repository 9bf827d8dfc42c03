"""Long and deep input: expressions past Python's compile limits and JSON
past the decoder's, through every route that reads them.

Each expression either evaluates or raises ExpressionError, and each run of
the CLI exits 0 or 2 with an ``error:`` line; none crashes.
"""

import json

import numpy as np
import pytest

from meanreduce.cli import main
from meanreduce.core import Interval
from meanreduce.descriptors import build_custom_potential, build_deviations, build_weights
from meanreduce.errors import DomainError, ExpressionError
from meanreduce.expr import _QUOTE_LIMIT, _quote, parse_expression

# Per input: its text in u and its value at u = 1.
EXPRESSIONS = {
    "sum-300": ("+".join(["u"] * 300), 300.0),
    "sum-3000": ("+".join(["u"] * 3000), 3000.0),
    "parentheses-250": ("(" * 250 + "u" + ")" * 250, 1.0),
    "minus-1000": ("-" * 1000 + "u", 1.0),
}
# The inputs that must evaluate; Python's compiler may refuse the others.
MUST_EVALUATE = {"sum-300"}
DOMAIN = Interval(0.5, 2.0)
TOO_LONG = "is too deeply nested or too long to compile"


def _value_or_refusal(name, evaluate):
    """evaluate()'s value, which must be the input's, or None where it
    raises ExpressionError, which only an input allowed to fail may do."""
    try:
        value = evaluate()
    except ExpressionError as exc:
        assert name not in MUST_EVALUATE, exc
        assert TOO_LONG in str(exc)
        return None
    assert value == EXPRESSIONS[name][1]
    return value


@pytest.mark.parametrize("name", sorted(EXPRESSIONS))
def test_an_expression_binds_or_raises_an_expression_error(name):
    text, _ = EXPRESSIONS[name]
    expression = parse_expression(text, allowed=("u",))
    assert expression.variables == {"u"}
    _value_or_refusal(name, lambda: expression.bind(("u",))(1.0))
    _value_or_refusal(name, lambda: float(expression.bind_batch(("u",))[1](np.ones(3))[0]))
    _value_or_refusal(name, lambda: expression(u=1.0))


@pytest.mark.parametrize("name", sorted(EXPRESSIONS))
def test_a_weight_family_binds_or_raises_an_expression_error(name):
    text, _ = EXPRESSIONS[name]
    _value_or_refusal(name, lambda: build_weights([text, 1.0], DOMAIN).values(1.0, 1.0)[0])


@pytest.mark.parametrize("name", sorted(EXPRESSIONS))
def test_a_deviation_family_binds_or_raises_an_expression_error(name):
    # (X(u)) - (X(v)) is c (u - v), a deviation wherever X(u) = c u.
    text, _ = EXPRESSIONS[name]
    deviation = f"({text})-({text.replace('u', 'v')})"
    _value_or_refusal(name, lambda: build_deviations([deviation, "u - v"], DOMAIN)
                      .values(1.0, 2.0, 0.5)[0])


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(EXPRESSIONS))
def test_mean_with_the_expression_as_generator_exits_0_or_2(capsys, name):
    text, _ = EXPRESSIONS[name]
    code, out, err = _run(capsys, "mean", "--kind", "quasi-arithmetic", f"--f={text}",
                          "--x", "1,2")
    if code == 0:
        assert json.loads(out)["value"] == pytest.approx(1.5, rel=1e-15)
    else:
        assert name not in MUST_EVALUATE
        assert (code, out) == (2, "")
        assert err.startswith(f"error: expression {_quote(text)} {TOO_LONG} (")


def _quoted(text: str) -> str:
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


# A 400 KB text, and texts that contain it: every message quotes the first
# _QUOTE_LIMIT characters of a text past that length, and the length.
LONG = "+".join(["u"] * 200_000)
SUM_300 = "+".join(["u"] * 300) + "+log(u - u)"
HUGE_LITERAL = "1" + "0" * 400


@pytest.mark.parametrize("call, message", [
    (lambda: parse_expression(LONG).bind(("u",)),
     f"expression {_quoted(LONG)} {TOO_LONG} (RecursionError)"),
    (lambda: parse_expression(LONG, allowed=("v",)),
     f"expression {_quoted(LONG)} uses variables ['u']; allowed: ['v']"),
    (lambda: parse_expression(LONG + ")"), f"trailing input ')' in {_quoted(LONG + ')')}"),
    (lambda: parse_expression(f"{LONG}+{HUGE_LITERAL}"),
     f"numeric literal {_quoted(HUGE_LITERAL)} in {_quoted(f'{LONG}+{HUGE_LITERAL}')} "
     "is not finite"),
    (lambda: build_weights([LONG, 1.0], DOMAIN),
     f"the family of expressions [{_quoted(LONG)}, '1.0'] {TOO_LONG} (RecursionError)"),
    (lambda: parse_expression(SUM_300).bind(("u",))(1.0),
     f"evaluating {_quoted(SUM_300)}: math domain error"),
], ids=["compile", "variables", "trailing", "literal", "family", "domain"])
def test_a_message_quotes_a_bounded_prefix_of_a_long_text(call, message):
    with pytest.raises((ExpressionError, DomainError)) as info:
        call()
    assert str(info.value) == message
    assert len(message) < 3 * _QUOTE_LIMIT + 200


@pytest.mark.parametrize("text", ["u)", "u" * (_QUOTE_LIMIT - 1) + ")"])
def test_a_text_within_the_bound_is_quoted_whole(text):
    assert _quote(text) == repr(text)
    with pytest.raises(ExpressionError, match=r"^trailing input '\)' in 'u+\)'$"):
        parse_expression(text)


# Valid deviations and potentials of 603, 759, 200 and 200 characters.
DEVIATION_603 = "0*u+" * 150 + "u-v"
POTENTIAL_759 = "0*u1+" * 150 + "(v1-u1)^2"
DEVIATION_200 = "0*u+" * 49 + "u-v "
POTENTIAL_200 = "0*u1+" * 38 + "(v1-u1)^2 "


@pytest.mark.parametrize("build, kind, text", [
    (lambda t: build_deviations([t], DOMAIN)[0], "deviation", DEVIATION_603),
    (lambda t: build_deviations([t], DOMAIN)[0], "deviation", DEVIATION_200),
    (lambda t: build_custom_potential(t, 1), "potential", POTENTIAL_759),
    (lambda t: build_custom_potential(t, 1), "potential", POTENTIAL_200),
], ids=["deviation-603", "deviation-200", "potential-759", "potential-200"])
def test_a_label_quotes_its_text_through_the_bound(build, kind, text):
    # A text of at most _QUOTE_LIMIT characters is quoted whole, as before.
    assert build(text).label == f"{kind} {_quote(text)}"
    assert _quote(text) == (repr(text) if len(text) <= _QUOTE_LIMIT else _quoted(text))


@pytest.mark.parametrize("kind, flags, text", [
    ("deviation", ["--kind", "deviation-custom", "--x", "1,2"], "0*u+" * 150 + "v-u"),
    ("potential", ["--kind", "custom-potential", "--dim", "1", "--x", "1;2"],
     "0*u1+" * 150 + "-(v1-u1)^2"),
], ids=["deviation", "potential"])
def test_an_axiom_failure_of_a_long_text_prints_a_bounded_line(capsys, kind, flags, text):
    # The label starts every InvalidDeviationError and InvalidPotentialError;
    # it quoted the whole text, so the line grew with it (718 characters for
    # the deviation).
    code, out, err = _run(capsys, "mean", *flags, "--exprs", text)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {kind} {_quoted(text)}: ")
    assert len(err) < _QUOTE_LIMIT + 200


def _suite(tmp_path, *cases):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"name": "long", "cases": list(cases)}))
    return str(path)


def _convexity(name, f):
    return {"name": name, "type": "convexity", "expected": "pass", "f": f,
            "M": {"kind": "arithmetic", "arity": 2}, "N": {"kind": "arithmetic", "arity": 2},
            "domain": {"low": 0.5, "high": 2.0}, "trials": 20}


@pytest.mark.parametrize("name", sorted(EXPRESSIONS))
def test_verify_exits_2_naming_the_case_or_runs_it(capsys, tmp_path, name):
    text, _ = EXPRESSIONS[name]
    code, out, err = _run(capsys, "verify", _suite(tmp_path, _convexity(name, text)))
    if code == 0:
        assert json.loads(out)["passed"] is True
    else:
        assert name not in MUST_EVALUATE
        assert (code, out) == (2, "")
        assert err.startswith(f"error: case {name!r}: expression {_quote(text)} {TOO_LONG} (")


@pytest.mark.parametrize("name", sorted(EXPRESSIONS))
def test_fuzz_records_the_case_as_an_error_entry_and_runs_the_others(capsys, tmp_path, name):
    text, _ = EXPRESSIONS[name]
    suite = _suite(tmp_path, _convexity(name, text), _convexity("square", "u^2"))
    code, out, err = _run(capsys, "fuzz", suite)
    assert (code, err) == (0, "")
    entry, square = json.loads(out)["cases"]
    assert "error" not in square and square["full"]["found"] is False
    if "error" in entry:
        assert name not in MUST_EVALUATE
        assert entry["error"].startswith(
            f"ExpressionError: case {name!r}: expression {_quote(text)} {TOO_LONG} (")
    else:
        assert entry["full"]["found"] is False


# JSON the decoder cannot read: per input, the text and the reason given.
DOCUMENTS = {
    "nested-100000": ('{"p": ' * 100_000, "JSON nested too deeply to read"),
    "integer-5001-digits": ('{"name": "big", "cases": [], "schema": 1' + "0" * 5000 + "}",
                            "a JSON integer has more than 4300 digits"),
    "malformed": ('{"name": ', "malformed JSON: Expecting value: line 1 column 10 (char 9)"),
}


@pytest.mark.parametrize("command", ["verify", "fuzz"])
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_an_unreadable_suite_file_exits_2_naming_it(capsys, tmp_path, command, name):
    text, reason = DOCUMENTS[name]
    path = tmp_path / "suite.json"
    path.write_text(text)
    code, out, err = _run(capsys, command, str(path))
    assert (code, out, err) == (2, "", f"error: suite {str(path)!r}: {reason}\n")


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_an_unreadable_descriptor_exits_2_naming_it(capsys, tmp_path, name):
    text, reason = DOCUMENTS[name]
    path = tmp_path / "descriptor.json"
    path.write_text(text)
    code, out, err = _run(capsys, "mean", "--descriptor", str(path), "--x", "1,2")
    assert (code, out, err) == (2, "", f"error: --descriptor file {str(path)!r}: {reason}\n")
    code, out, err = _run(capsys, "mean", "--descriptor", text, "--x", "1,2")
    assert (code, out, err) == (2, "", f"error: --descriptor: {reason}\n")
