"""Ray degrees: the static rule of the DSL, the catalog's declarations,
their propagation through combinators, and the exact homotopy route they
switch on."""

import copy

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from presnov import (
    BallRestrictedField,
    CallableField,
    ConservativePart,
    DEFAULT_QUADRATURE,
    ExpressionField,
    ScaledField,
    ShiftedField,
    SphereInvariantPart,
    SumField,
    catalog_field,
    gradient_potential_integral_many,
    parse_field,
    potential_many,
)
from presnov.dsl import Binary, Const, Norm2, Unary, Var, _ray_degree, parse_expression
from presnov.sampling import ball_points

_DIM = 3
_X = sympy.symbols(f"x1:{_DIM + 1}")
_T = sympy.Symbol("t")


def _polynomial_asts(signed):
    """Random polynomial ASTs over x1..x3.  Unsigned trees have positive
    literals and no negation or subtraction, so no terms cancel."""
    low = 0.0 if signed else 0.5
    literal = st.floats(min_value=low, max_value=3.0).map(lambda v: Const(round(v, 3)))
    leaves = st.one_of(literal, st.integers(0, _DIM - 1).map(Var), st.just(Norm2()))
    ops = ["+", "-", "*"] if signed else ["+", "*"]

    def extend(children):
        divisor = st.floats(min_value=0.5, max_value=3.0).map(lambda v: Const(round(v, 3)))
        power = st.integers(0, 3).map(lambda k: Const(float(k)))
        branches = [
            st.builds(Binary, st.sampled_from(ops), children, children),
            st.builds(Binary, st.just("/"), children, divisor),
            st.builds(Binary, st.just("^"), children, power),
        ]
        if signed:
            branches.append(st.builds(Unary, st.just("neg"), children))
        return st.one_of(branches)

    return st.recursive(leaves, extend, max_leaves=8)


def _sympy(node):
    if isinstance(node, Const):
        return sympy.Rational(str(node.value))
    if isinstance(node, Var):
        return _X[node.index]
    if isinstance(node, Norm2):
        return sum(x**2 for x in _X)
    if isinstance(node, Unary):
        return -_sympy(node.operand)
    left, right = _sympy(node.left), _sympy(node.right)
    return {
        "+": left + right,
        "-": left - right,
        "*": left * right,
        "/": left / right,
        "^": left**right,
    }[node.op]


def _degree_in_t(node):
    along_ray = sympy.expand(_sympy(node).subs({x: _T * x for x in _X}, simultaneous=True))
    return sympy.Poly(along_ray, _T).degree()  # -oo for the zero polynomial


@settings(max_examples=60, deadline=None)
@given(_polynomial_asts(signed=True))
def test_ray_degree_bounds_the_degree_along_rays(node):
    assert _ray_degree(node) >= _degree_in_t(node)


@settings(max_examples=60, deadline=None)
@given(_polynomial_asts(signed=False))
def test_ray_degree_is_exact_without_cancellation(node):
    assert _ray_degree(node) == _degree_in_t(node)


def _magnitude(node, x):
    """A bound on every intermediate value of evaluating ``node`` at x:
    the node with every literal and coordinate made non-negative."""
    if isinstance(node, Const):
        return abs(node.value)
    if isinstance(node, Var):
        return abs(x[node.index])
    if isinstance(node, Norm2):
        return float(x @ x)
    if isinstance(node, Unary):
        return _magnitude(node.operand, x)
    left, right = _magnitude(node.left, x), _magnitude(node.right, x)
    if node.op == "*":
        return left * right
    if node.op == "/":
        return left / right
    if node.op == "^":
        return left**right
    return left + right


_POINTS = ball_points(_DIM, 4, 2.0, seed=31)


@settings(max_examples=40, deadline=None)
@given(st.lists(_polynomial_asts(signed=True), min_size=_DIM, max_size=_DIM))
def test_potentials_of_polynomial_fields_match_exact_references(nodes):
    field = ExpressionField(_DIM, nodes)
    # Below this degree the integrand's first Gauss panel is exact.
    assume(field.ray_degree < 2 * DEFAULT_QUADRATURE.order)
    components = [_sympy(node) for node in nodes]
    along_ray = sum(c.subs({x: _T * x for x in _X}, simultaneous=True) * x
                    for c, x in zip(components, _X))
    integral = sympy.integrate(sympy.expand(along_ray), (_T, 0, 1))
    # H = sum_d <X_d(x), x> / (d + 1) over the homogeneous parts X_d.
    homogeneous = sum(
        coeff * sympy.prod(v**k for v, k in zip(_X, monom)) * x / (sum(monom) + 1)
        for c, x in zip(components, _X)
        for monom, coeff in sympy.Poly(sympy.expand(c), *_X).terms()
    )
    values = potential_many(field, _POINTS)[0]
    for point, value in zip(_POINTS, values):
        exact = dict(zip(_X, map(sympy.Rational, point)))
        scale = sum(_magnitude(node, point) * abs(x) for node, x in zip(nodes, point))
        for reference in (integral, homogeneous):
            assert abs(value - float(reference.subs(exact))) <= 1e-12 * scale


@pytest.mark.parametrize(
    "text,degree",
    [
        ("2.5", 0),
        ("x1", 1),
        ("norm2", 2),
        ("-x1^3", 3),
        ("x1^2 - x2", 2),
        ("x1*x2*norm2", 4),
        ("(x1 + 1)/(2*pi)", 1),
        ("x1^0", 0),
        ("(x1*x2)^3", 6),
        ("x1 - x1", 1),  # cancellation: a bound, not the exact degree
        ("abs(x1)", None),
        ("sqrt(norm2)", None),
        ("x1^0.5", None),
        ("x1^-1", None),
        ("x1^x2", None),
        ("1/x1", None),
        ("x1/(x2 - x2)", None),
        ("sin(x1)", None),
        ("exp(0)*x1", None),
    ],
)
def test_ray_degree_of_expressions(text, degree):
    assert _ray_degree(parse_expression(text, 2)) == degree


def test_a_field_takes_its_highest_component_degree():
    assert parse_field("x1; x2^3; 1").ray_degree == 3
    assert parse_field("x1^2; tanh(x2)").ray_degree is None


_CUBIC = parse_field("x1^3 + 0.3*x2; x2^3 + 0.3*x1")
_LINEAR = catalog_field("identity", 2).field
_OPAQUE = CallableField(2, np.cos)


@pytest.mark.parametrize(
    "field,degree",
    [
        (catalog_field("identity", 3).field, 1),
        (catalog_field("constant", value=[1.0, 2.0]).field, 1),
        (catalog_field("linear", matrix=[[1.0, 2.0], [0.0, 1.0]]).field, 1),
        (catalog_field("rotation2d").field, 1),
        (catalog_field("identity_plus_rotation2d").field, 1),
        (catalog_field("gradient_poly", 3).field, 3),
        (catalog_field("cubic_radial", 3).field, 3),
        (_OPAQUE, None),
        (CallableField(2, np.negative, ray_degree=1), 1),
        (SumField(_CUBIC, _LINEAR), 3),
        (SumField(_LINEAR, _OPAQUE), None),
        (ScaledField(-2.0, _CUBIC), 3),
        (ShiftedField(_LINEAR, [1.0, 0.0]), 1),
        (BallRestrictedField(_CUBIC, 2.0), 3),
        (BallRestrictedField(_OPAQUE, 2.0), None),
        (ConservativePart(_CUBIC), None),
        (SphereInvariantPart(_CUBIC), None),
    ],
)
def test_ray_degree_of_catalog_entries_and_combinators(field, degree):
    assert field.ray_degree == degree


def _adaptive_gradient(field, points):
    """The homotopy route with the adaptive scheme, whatever the degree."""
    undeclared = copy.copy(field)
    undeclared.ray_degree = None
    return gradient_potential_integral_many(undeclared, points)


@pytest.mark.parametrize(
    "field",
    [
        catalog_field("identity", 3).field,
        catalog_field("constant", value=[1.0, -2.0, 0.5]).field,
        catalog_field("linear", matrix=[[1.0, 2.0], [-3.0, 0.5]]).field,
        catalog_field("rotation2d").field,
        catalog_field("identity_plus_rotation2d").field,
        catalog_field("gradient_poly", 3).field,
        catalog_field("cubic_radial", 3).field,
        parse_field("x1^3 + 0.3*x2; x2^3 + 0.3*x1"),
        parse_field("x1^3 + 0.3*x2; x2^3 + 0.3*x3; x3^3 + 0.3*x1"),
        parse_field(
            "x1^3 + 0.3*x2; x2^3 + 0.3*x3; x3^3 + 0.3*x4; x4^3 + 0.3*x5; x5^3 + 0.3*x1"
        ),
        parse_field(
            "0.789924*x1 + 0.472268*x1*x3*x2 + -0.079313*x1*x1*x3; "
            "-0.960167*x3*x2 + 0.231121*x2 + 0.724423*x3*x2*x3; "
            "-0.579682*x1*x1*x1 + 0.390096*x3*x3*x3 + 0.900234*x3*x3*x3"
        ),
        parse_field(
            "1.057194*x1^3 + 0.116958*x1*x2^2 + -0.001267*x2; "
            "0.961582*x2^3 + -0.161531*x2*x1^2 + 0.099043*x1"
        ),
    ],
    ids=lambda field: field.label[:32],
)
def test_exact_route_agrees_with_the_adaptive_route(field):
    assert field.ray_degree is not None and field.exact_jacobian
    points = ball_points(field.dimension, 100, 3.0, seed=21)
    exact = gradient_potential_integral_many(field, points)
    adaptive = _adaptive_gradient(field, points)
    gap = np.linalg.norm(exact - adaptive, axis=1)
    assert np.all(gap <= 1e-13 * (1.0 + np.linalg.norm(adaptive, axis=1)))


def test_stencil_jacobians_keep_the_adaptive_route():
    # A declared degree does not help a field whose Jacobian is the
    # stencil: the stencil's step depends on t x, so the integrand is not
    # a polynomial in t.
    counted = [0]

    def cubic(p):
        counted[0] += p.shape[0]
        return _CUBIC.evaluate_many(p)

    field = CallableField(2, cubic, ray_degree=3)
    points = ball_points(2, 10, 3.0, seed=22)
    grads = gradient_potential_integral_many(field, points)
    # 48 adaptive nodes per ray, 2n + 1 stencil points per node.
    assert counted[0] >= 48 * 5 * len(points)
    assert np.allclose(grads, _adaptive_gradient(_CUBIC, points), rtol=1e-8, atol=1e-8)
