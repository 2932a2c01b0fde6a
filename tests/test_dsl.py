import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ast
from presnov.dsl import (
    Binary,
    Const,
    ExpressionField,
    Norm2,
    Unary,
    Var,
    _Duals,
    _eval_raw,
    evaluate_ast,
    parse_expression,
    parse_expressions,
    parse_field,
    pretty,
)
from presnov.errors import DimensionMismatchError, NonFiniteValueError, ParseError


def test_parse_field_rotation_semantics():
    field = parse_field("-x2; x1", 2)
    assert np.allclose(field.evaluate([1.0, 0.0]), [0.0, 1.0])


def test_parse_field_square_example():
    field = parse_field("x1^2; x2", 2)
    assert np.allclose(field.evaluate([1.0, 1.0]), [1.0, 1.0])


def test_parse_field_arity_mismatch():
    with pytest.raises(ParseError, match="expected 2 expressions"):
        parse_field("x1; x2; x3", 2)


def test_parse_field_infers_dimension():
    field = parse_field("x1; x2; x3")
    assert field.dimension == 3


def test_evaluate_ast_product_plus_one():
    ast = parse_expression("x1*x2 + 1", 2)
    assert evaluate_ast(ast, [2.0, 3.0]) == 7.0


def test_evaluate_ast_sin_zero():
    ast = parse_expression("sin(x1)", 1)
    assert evaluate_ast(ast, [0.0]) == 0.0


def test_evaluate_ast_refuses_a_point_it_cannot_read():
    # Too few coordinates for x3, and a point that is not a vector.
    with pytest.raises(DimensionMismatchError):
        evaluate_ast(parse_expression("x3", 3), [1.0])
    with pytest.raises(DimensionMismatchError):
        evaluate_ast(parse_expression("x1", 1), [[1.0], [2.0]])
    # norm2 reads the coordinates of the dimension it was parsed for, and
    # only those, as x1 parsed for dimension 3 reads x1 alone.
    with pytest.raises(DimensionMismatchError):
        evaluate_ast(parse_expression("norm2", 3), [1.0])
    assert evaluate_ast(parse_expression("norm2", 3), [1.0, 2.0, 3.0, 4.0]) == 14.0
    # A scalar stays a point of a one-variable expression.
    assert evaluate_ast(parse_expression("x1 + 1", 1), 2.0) == 3.0


def test_expression_fields_refuse_variables_beyond_their_dimension():
    # Var(4) reads x5, which a point of R^2 does not have.
    with pytest.raises(DimensionMismatchError, match="x5"):
        ExpressionField(2, [Var(4), Const(1.0)])
    field = ExpressionField(2, [Var(1), Const(1.0)])
    assert np.array_equal(field.evaluate_many(np.ones((1, 2))), [[1.0, 1.0]])
    # A norm2 parsed for another dimension sums other coordinates than x1..x3.
    for dimension in (2, 4):
        with pytest.raises(DimensionMismatchError):
            ExpressionField(3, [Norm2(dimension), Const(1.0), Const(1.0)])
    assert ExpressionField(3, [Norm2(3), Const(1.0), Const(1.0)]).evaluate([1.0, 2.0, 3.0])[0] == 14.0


def test_evaluate_ast_division_by_zero_is_non_finite():
    ast = parse_expression("1/x1", 1)
    with pytest.raises(NonFiniteValueError):
        evaluate_ast(ast, [0.0])


@pytest.mark.parametrize(
    "text,point,expected",
    [
        ("-x1^2", [2.0], -4.0),  # unary minus binds looser than '^'
        ("(-x1)^2", [2.0], 4.0),
        ("2^3^2", [0.0], 512.0),  # right-associative
        ("6/3/2", [0.0], 1.0),  # left-associative
        ("2-3-4", [0.0], -5.0),
        ("2+3*4", [0.0], 14.0),
        ("x1^-1", [2.0], 0.5),
        ("2*-3", [0.0], -6.0),
        ("pi", [0.0], math.pi),
        ("e", [0.0], math.e),
        ("norm2", [3.0, 4.0], 25.0),
        ("1e-3", [0.0], 1e-3),
        (".5 + 2.5e+2", [0.0], 250.5),
        ("sqrt(abs(-x1))", [-4.0], 2.0),
        ("tanh(0) + cos(0) + exp(0)", [0.0], 2.0),
    ],
)
def test_evaluation_cases(text, point, expected):
    ast = parse_expression(text, len(point))
    assert evaluate_ast(ast, point) == pytest.approx(expected, rel=1e-15)


def test_negative_base_fractional_power_is_domain_error():
    ast = parse_expression("x1^0.5", 1)
    with pytest.raises(NonFiniteValueError):
        evaluate_ast(ast, [-2.0])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x3", "exceeds the field dimension"),
        ("foo(x1)", "unknown function"),
        ("y1 + 1", "unknown identifier"),
        ("(x1", "expected "),
        ("x1 x2", "unexpected"),
        ("1 + $", "unexpected character"),
        ("1 +", "unexpected end of input"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_expression(text, 2)


# Each parser path with the message and the position it reports: an
# unclosed parenthesis, an unknown function, a segment count, a token left
# after an expression, a separator where an operand belongs.
_PARSE_POSITIONS = {
    "unclosed call": (lambda: parse_expression("sin(x1", 1), "expected ')'", 1, 7),
    "unclosed group": (lambda: parse_expression("(x1 + 1", 1), "expected ')'", 1, 8),
    "two call arguments": (lambda: parse_expression("sin(x1 x1)", 1), "expected ')'", 1, 8),
    "unknown function": (
        lambda: parse_expression("foo(x1)", 1), "unknown function 'foo'", 1, 1
    ),
    "segment count": (
        lambda: parse_field("x1;;x2;", 3), "expected 3 expressions for dimension 3, found 2", 1, 8
    ),
    "trailing token": (
        lambda: parse_field("x1 x2; x1"), "unexpected 'x2' after expression", 1, 4
    ),
    "separator as operand": (
        lambda: parse_field("x1; 1 +\nx2"), "expected a number, identifier, or '(', got '\\n'", 1, 8
    ),
    "one expression": (
        lambda: parse_expression("x1; x1", 1), "expected exactly one expression", 1, 7
    ),
}


@pytest.mark.parametrize(
    "parse, message, line, column", _PARSE_POSITIONS.values(), ids=_PARSE_POSITIONS
)
def test_parse_errors_carry_message_and_position(parse, message, line, column):
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        parse()
    assert (info.value.line, info.value.column) == (line, column)


def test_blank_segments_between_and_around_expressions_are_skipped():
    assert parse_field("x1;;\n;x2").expressions == (Var(0), Var(1))
    assert parse_expression(";x1;", 1) == Var(0)


def test_empty_source_rejected():
    with pytest.raises(ParseError, match="empty field definition"):
        parse_field("  \n ; ")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_expressions("x1\n1 + * 2", 2)
    assert info.value.line == 2
    assert info.value.column == 5


def test_unknown_variable_position_points_at_token():
    with pytest.raises(ParseError) as info:
        parse_expressions("x1 + zz", 1)
    assert (info.value.line, info.value.column) == (1, 6)


def test_deep_nesting_is_a_parse_error_not_a_crash():
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_expression("(" * 500 + "1" + ")" * 500, 1)
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_expression("-" * 5000 + "1", 1)
    # Each operator of a '+' chain is a level, and so is the depth of its
    # parenthesized left operand.
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_expression("+".join(["x1"] * 3000), 1)
    chain = "+".join(["x1"] * 600)
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_field(f"({chain}) + {chain}")
    assert evaluate_ast(parse_expression("+".join(["x1"] * 100), 1), [0.5]) == 50.0


def test_deep_hand_built_trees_are_a_parse_error_not_a_crash():
    # A tree built without the parser meets the parser's height bound in
    # every entry that walks it recursively.
    node = Var(0)
    for _ in range(5000):
        node = Unary("neg", node)
    entries = (
        lambda: ExpressionField(1, [node]),
        lambda: evaluate_ast(node, [1.0]),
        lambda: pretty(node),
    )
    for entry in entries:
        with pytest.raises(ParseError, match="nests too deeply") as info:
            entry()
        assert (info.value.line, info.value.column) == (1, 1)
    shallow = Unary("neg", Var(0))
    assert pretty(shallow) == "-x1" and evaluate_ast(shallow, [2.0]) == -2.0


def _hand_built_entries(node):
    """Every entry a hand-built tree can take: a field, an evaluation, a
    printout."""
    return (
        lambda: ExpressionField(2, [node, Var(0)]),
        lambda: evaluate_ast(node, [2.0, 3.0]),
        lambda: pretty(node),
    )


@pytest.mark.parametrize("node", [Var(-1), Var(1.0), Var(True), Norm2(0), Norm2(-2)])
def test_hand_built_trees_read_only_variables_x1_x2_and_so_on(node):
    # Var(-1) would read the last coordinate where the monomial table
    # reads a constant, so the field's value, Jacobian and split disagreed.
    for entry in _hand_built_entries(Binary("+", Const(1.0), node)):
        with pytest.raises(ParseError, match="reads no variable") as info:
            entry()
        assert (info.value.line, info.value.column) == (1, 1)
    # A numpy integer is an index like any other.
    field = ExpressionField(2, [Var(np.int64(1)), Var(0)])
    assert np.array_equal(field.evaluate_many([[0.5, 2.0]]), [[2.0, 0.5]])


@pytest.mark.parametrize(
    "node,op",
    [
        (Unary("log", Var(0)), "log"),
        (Binary("%", Var(0), Var(0)), "%"),
        (Binary("+-", Var(0), Var(0)), "+-"),
        (Binary("*", Var(1), Unary("exp2", Var(0))), "exp2"),
    ],
)
def test_hand_built_operators_outside_the_grammar_are_refused(node, op):
    # They ended in a bare KeyError when evaluated, and pretty printed
    # log(x1), which does not reparse.
    for entry in _hand_built_entries(node):
        with pytest.raises(ParseError, match=f"unknown operator '{re.escape(op)}'") as info:
            entry()
        assert (info.value.line, info.value.column) == (1, 1)


@pytest.mark.parametrize(
    "parse,text,dimension",
    [
        (parse_expression, "1", -3),
        (parse_expression, "norm2", 0),
        (parse_expressions, "1", 0),
        (parse_expressions, "1", -3),
    ],
)
def test_dimensions_below_one_are_refused(parse, text, dimension):
    with pytest.raises(ParseError, match="field dimension must be at least 1"):
        parse(text, dimension)


def test_blank_segments_are_skipped():
    exprs = parse_expressions("x1;\n\n x2 ;\n", 2)
    assert len(exprs) == 2


def test_pretty_examples():
    assert pretty(parse_expression("-x1^2", 1)) == "-x1^2.0"
    assert pretty(parse_expression("(x1+1)*x1", 1)) == "(x1+1.0)*x1"
    assert pretty(parse_expression("x1^(2*x1)", 1)) == "x1^(2.0*x1)"
    assert pretty(parse_expression("x1^x2^x1", 2)) == "x1^x2^x1"
    assert pretty(parse_expression("(x1^x2)^x1", 2)) == "(x1^x2)^x1"


@pytest.mark.parametrize(
    "text",
    ["-x2; x1", "x1^2; x2", "x1*norm2 - sin(x2)/2; exp(-x1^2); x3", "pi*x1 + e"],
)
def test_round_trip_specific(text):
    exprs = parse_expressions(text)
    printed = "; ".join(pretty(e) for e in exprs)
    assert parse_expressions(printed) == exprs


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_random_asts(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    ast = random_ast(rng, 3, 5)
    assert parse_expression(pretty(ast), 3) == ast


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_precedence_property_random_asts(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    ast = random_ast(rng, 3, 5)
    reparsed = parse_expression(pretty(ast), 3)
    points = rng.uniform(-3.0, 3.0, size=(100, 3))
    with np.errstate(all="ignore"):
        original = _eval_raw(ast, points)
        roundtrip = _eval_raw(reparsed, points)
    assert np.array_equal(original, roundtrip, equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_parser_is_total(text):
    try:
        parse_field(text, 2)
    except ParseError:
        pass  # positioned rejection is the expected failure mode


@pytest.mark.parametrize(
    "text,table",
    [
        ("x1^(1+1)", None),  # a computed exponent, even a constant one
        ("x1^2.5", None),
        ("x1/x2", None),
        ("x1/(1-1)", None),
        ("x1/(1+1)", {(1, 0): 0.5}),
        ("-norm2", {(2, 0): -1.0, (0, 2): -1.0}),
        ("(x1-1)^20", {(k, 0): (-1.0) ** (20 - k) * math.comb(20, k) for k in range(21)}),
    ],
)
def test_which_expressions_get_a_table(text, table):
    # The first component's table, next to the second component x2.
    polynomial = parse_field(f"{text}; x2").polynomial
    if table is None:
        assert polynomial is None
        return
    rows = zip(map(tuple, polynomial.exponents.tolist()), polynomial.coefficients.tolist())
    assert {e: c[0] for e, c in rows} == table | {(0, 1): 0.0}


def test_expression_field_label_is_single_line():
    field = parse_field("x1\nx2")
    assert "\n" not in field.label


# Powers: '^' with an integer literal exponent 0..4 multiplies, and every
# other '^' calls np.power.

_EPS = np.finfo(float).eps


def _power_inputs():
    """Random inputs over many magnitudes, and extremes whose fourth
    power is still a normal number (no underflow, no overflow)."""
    rng = np.random.default_rng(25)
    random = rng.standard_normal(2000) * 10.0 ** rng.uniform(-70, 70, 2000)
    extremes = [
        0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
        1e77, -1e77, 2e-77, -2e-77, 3.0, 1.0 / 3.0, 2.0 ** 0.5, -(2.0 ** 0.5),
    ]
    return np.concatenate([random, extremes])


@pytest.mark.parametrize("k", range(5))
def test_integer_powers_are_within_their_rounding_bound(k):
    # Binary powering rounds at most k - 1 times: relative error
    # <= gamma_(k-1) <= (k-1) eps, and x^1, x^2 are correctly rounded.
    x = _power_inputs()
    node = parse_expression(f"x1^{k}", 1)
    got = _eval_raw(node, x[:, None])
    assert np.array_equal(_eval_raw(node, x[:, None], _Duals)[0], got)
    for a, value in zip(x.tolist(), got.tolist()):
        exact = Fraction(a) ** k
        if k <= 2:
            assert value == float(exact), (a, value)
        else:
            assert abs(Fraction(value) - exact) <= (k - 1) * _EPS * abs(exact), (a, value)


def test_integer_powers_keep_the_ieee_cases_of_pow():
    x0 = parse_expression("x1^0", 1)
    for a in (math.nan, math.inf, -math.inf, 0.0):
        assert evaluate_ast(x0, [a]) == 1.0 == math.pow(a, 0)
    cube = parse_expression("x1^3", 1)
    assert math.copysign(1.0, evaluate_ast(cube, [-0.0])) == -1.0
    assert math.copysign(1.0, evaluate_ast(parse_expression("x1^2", 1), [-0.0])) == 1.0
    assert evaluate_ast(cube, [-2.0]) == -8.0
    values = _eval_raw(parse_expression("x1^4", 1), np.array([[math.inf], [-math.inf], [math.nan]]))
    assert values[:2].tolist() == [math.inf, math.inf] and math.isnan(values[2])
    # Overflow by multiplication is still a non-finite value.
    with pytest.raises(NonFiniteValueError):
        evaluate_ast(parse_expression("x1^4", 1), [1e100])
    with pytest.raises(NonFiniteValueError):
        parse_field("x1^4; x2").evaluate_many([[1e100, 0.0]])
    # The walker overflows where the monomial table cancels x1^3 - x1^3.
    field = parse_field("x1^3 - x1^3; x2")
    for evaluate in (field.evaluate_many, field.value_and_jacobian_many):
        with pytest.raises(NonFiniteValueError):
            evaluate([[1e200, 0.0]])


@pytest.mark.parametrize("k", range(5))
def test_integer_powers_differentiate_to_k_a_to_the_k_minus_1(k):
    x = _power_inputs()
    x = x[np.abs(x) < 1e70]  # k a^(k-1) stays normal
    _, grad = _eval_raw(parse_expression(f"x1^{k}", 1), x[:, None], _Duals)
    if k == 0:
        assert grad is None  # a constant: structurally zero
        return
    for a, got in zip(x.tolist(), grad[0].tolist()):
        exact = k * Fraction(a) ** (k - 1)
        assert abs(Fraction(got) - exact) <= (k - 1) * _EPS * abs(exact), (a, got)


@pytest.mark.parametrize("text", ["(x1-1)^20", "x1^0.5", "x1^-2", "x1^(1+1)", "x1^5", "x1^2.5"])
def test_other_powers_keep_np_power(text):
    # Bitwise np.power of the base and exponent arrays, with its gradient
    # b a^(b-1) a' for a constant exponent.
    node = parse_expression(text, 1)
    assert type(node) is Binary and node.op == "^"
    x = np.random.default_rng(3).uniform(0.1, 3.0, (200, 1))
    base, exponent = _eval_raw(node.left, x), _eval_raw(node.right, x)
    assert np.array_equal(_eval_raw(node, x), np.power(base, exponent))
    value, grad = _eval_raw(node, x, _Duals)
    assert np.array_equal(value, np.power(base, exponent))
    base_grad = _eval_raw(node.left, x, _Duals)[1]
    assert np.array_equal(grad, base_grad * (exponent * np.power(base, exponent - 1.0)))
