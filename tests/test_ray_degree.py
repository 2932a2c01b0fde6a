"""Monomial tables and their degrees: the DSL's expansion, the catalog's
tables, their propagation through combinators, and the closed-form
homotopy route they switch on.

The sympy references compute one operation per AST node, as
polynomials over the rationals.  Computing every operator at every node,
as they once did, raised rationals to rational powers, which sympy
simplifies by factoring integers: 2.4 s for the draw
2.383/1.861/1.861/1.861, and longer for larger literals.  The degree
along a generic ray is the total degree of the polynomial in x1..x3
(``_exact_poly``), with no four-variable ``sympy.expand`` in x and t,
which costs seconds for norm2^27.  Each reference is computed only for
a draw that has a table, so the expansion budget bounds its size too.
"""

import copy
import tracemalloc
from functools import partial

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from presnov import (
    BallRestrictedField,
    CallableField,
    ConfigError,
    ConservativePart,
    DEFAULT_QUADRATURE,
    ExpressionField,
    NonFiniteValueError,
    Polynomial,
    ScaledField,
    ShiftedField,
    SphereInvariantPart,
    SumField,
    catalog_field,
    decompose_many,
    find_equilibrium_conservative,
    gradient_potential_integral_many,
    parse_field,
    potential_many,
)
from presnov import dsl
from presnov.dsl import Binary, Const, Norm2, Unary, Var, parse_expression
from presnov.sampling import ball_points

_DIM = 3
_X = sympy.symbols(f"x1:{_DIM + 1}")
_T = sympy.Symbol("t")


def _polynomial_asts(signed):
    """Random polynomial ASTs over x1..x3.  Unsigned trees have positive
    literals and no negation or subtraction, so no terms cancel."""
    low = 0.0 if signed else 0.5
    literal = st.floats(min_value=low, max_value=3.0).map(lambda v: Const(round(v, 3)))
    leaves = st.one_of(literal, st.integers(0, _DIM - 1).map(Var), st.just(Norm2(_DIM)))
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


def _sympy(node, xs=_X, number=lambda q: q):
    """``node`` in sympy, one operation per node: over the coordinates
    ``xs``, with each rational literal q as ``number(q)``."""
    if isinstance(node, Const):
        return number(sympy.Rational(str(node.value)))
    if isinstance(node, Var):
        return xs[node.index]
    if isinstance(node, Norm2):
        return sum(x**2 for x in xs)
    if isinstance(node, Unary):
        return -_sympy(node.operand, xs, number)
    left = _sympy(node.left, xs, number)
    # The strategies' exponents are integer literals and their divisors literals.
    if node.op == "^":
        return left ** int(node.right.value)
    if node.op == "/":
        return left * number(1 / sympy.Rational(str(node.right.value)))
    right = _sympy(node.right, xs, number)
    return left + right if node.op == "+" else left - right if node.op == "-" else left * right


def _exact_poly(node):
    """``node`` as a sympy polynomial in x1..x3 over the rationals."""

    def poly(value):
        return sympy.Poly(value, *_X, domain="QQ")

    return _sympy(node, [poly(x) for x in _X], poly)


def _degree(field):
    """The degree of the field's monomial table, None when it has none."""
    return None if field.polynomial is None else field.polynomial.degree


def _table_degree(node):
    return _degree(ExpressionField(_DIM, [node] + [Const(0.0)] * (_DIM - 1)))


# The degree along a generic ray is the polynomial's total degree; sympy
# gives 0 for the zero polynomial, which every table's degree bounds.
# The slowest reference of 1500 draws of each strategy took 0.36 s.
@settings(max_examples=60, deadline=5000)
@given(_polynomial_asts(signed=True))
def test_ray_degree_bounds_the_degree_along_rays(node):
    degree = _table_degree(node)
    # The strategy draws only polynomial operations, so a missing table
    # is an expansion beyond the term budget, which claims nothing.
    if degree is not None:
        assert degree >= _exact_poly(node).total_degree()


@settings(max_examples=60, deadline=5000)
@given(_polynomial_asts(signed=False))
def test_ray_degree_is_exact_without_cancellation(node):
    degree = _table_degree(node)
    if degree is not None:
        assert degree == _exact_poly(node).total_degree()


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
    # Below this degree the integrand's first Gauss panel is exact.  An
    # expansion beyond the term budget has no table and is not drawn.
    degree = _degree(field)
    assume(degree is not None and degree < 2 * DEFAULT_QUADRATURE.order)
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
    assert _degree(ExpressionField(2, [parse_expression(text, 2), Const(0.0)])) == degree


def test_a_field_takes_its_highest_component_degree():
    assert _degree(parse_field("x1; x2^3; 1")) == 3
    assert parse_field("x1^2; tanh(x2)").polynomial is None


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
        (CallableField(2, np.negative, polynomial=-1.0 * _LINEAR.polynomial), 1),
        (SumField(_CUBIC, _LINEAR), 3),
        (SumField(_LINEAR, _OPAQUE), None),
        (ScaledField(-2.0, _CUBIC), 3),
        (ShiftedField(_LINEAR, [1.0, 0.0]), 1),
        (BallRestrictedField(_CUBIC, 2.0), 3),
        (BallRestrictedField(_OPAQUE, 2.0), None),
        (ConservativePart(_OPAQUE), None),
        (SphereInvariantPart(_OPAQUE), None),
        (ConservativePart(_CUBIC), 3),
        (SphereInvariantPart(_CUBIC), 3),
        (ConservativePart(catalog_field("rotation2d").field), 1),
    ],
)
def test_ray_degree_of_catalog_entries_and_combinators(field, degree):
    assert _degree(field) == degree


def _adaptive_gradient(field, points):
    """The homotopy route with the adaptive scheme, whatever the table."""
    undeclared = copy.copy(field)
    undeclared.polynomial = None
    return gradient_potential_integral_many(undeclared, points)


# Workload fields of the benchmark (seed 7) beyond those of the list below.
_WORKLOAD_FIELDS = [
    parse_field(
        "0.426618*x1 + 0.431193*x2*x2*x2 + -0.183664*x1*x2; "
        "0.156249*x2*x2 + -0.467628*x1*x2 + 0.985701*x2"
    ),
    parse_field(
        "1.057302*x1^3 + -0.068803*x1*x2^2 + -0.038371*x2; "
        "0.932932*x2^3 + -0.131217*x2*x3^2 + -0.225497*x3; "
        "1.105834*x3^3 + 0.122291*x3*x1^2 + -0.093178*x1"
    ),
    catalog_field(
        "linear",
        matrix=[
            [0.11451387427306225, -0.5525275246332351, -0.4133308437606371],
            [0.15951152179442674, 0.6236303112210091, 0.32732093390912764],
            [-0.5404909721209168, 0.5277472785503949, -0.9087905957903608],
        ],
    ).field,
]


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
        *_WORKLOAD_FIELDS,
    ],
    ids=lambda field: field.label[:32],
)
def test_exact_route_agrees_with_the_adaptive_route(field):
    assert field.polynomial is not None and field.exact_jacobian
    points = ball_points(field.dimension, 100, 3.0, seed=21)
    exact = gradient_potential_integral_many(field, points)
    adaptive = _adaptive_gradient(field, points)
    gap = np.linalg.norm(exact - adaptive, axis=1)
    assert np.all(gap <= 1e-13 * (1.0 + np.linalg.norm(adaptive, axis=1)))


def test_stencil_jacobians_keep_the_adaptive_route():
    # A field without a table, here one whose Jacobian is the stencil,
    # integrates adaptively, with the stencil's noise floors.
    counted = [0]

    def cubic(p):
        counted[0] += p.shape[0]
        return _CUBIC.evaluate_many(p)

    field = CallableField(2, cubic)
    points = ball_points(2, 10, 3.0, seed=22)
    grads = gradient_potential_integral_many(field, points)
    # 48 adaptive nodes per ray, 2n + 1 stencil points per node.
    assert counted[0] >= 48 * 5 * len(points)
    assert np.allclose(grads, _adaptive_gradient(_CUBIC, points), rtol=1e-8, atol=1e-8)


def _unsigned(node):
    """``node`` with every literal non-negative and every sign a plus: its
    coefficients bound the magnitude of every term that meets in one."""
    if isinstance(node, Const):
        return Const(abs(node.value))
    if isinstance(node, Unary):
        return _unsigned(node.operand)
    if isinstance(node, Binary):
        op = "+" if node.op == "-" else node.op
        return Binary(op, _unsigned(node.left), _unsigned(node.right))
    return node


@settings(max_examples=60, deadline=5000)
@given(_polynomial_asts(signed=True))
def test_tables_match_sympy_polynomials(node):
    table = ExpressionField(_DIM, [node] + [Const(0.0)] * (_DIM - 1)).polynomial
    if table is None:  # an expansion beyond the term budget claims nothing
        return
    exact, magnitude = _exact_poly(node), _exact_poly(_unsigned(node))
    got = {tuple(e): c[0] for e, c in zip(table.exponents.tolist(), table.coefficients)}
    assert set(dict(exact.terms())) <= set(got)
    # A row beyond the unsigned support, as x1 in 0*x1, holds an exact 0.
    for monomial in set(got) | set(dict(magnitude.terms())):
        want = float(exact.coeff_monomial(monomial))
        bound = float(magnitude.coeff_monomial(monomial))
        assert abs(got.get(monomial, 0.0) - want) <= 1e-13 * bound


_RATIONAL_POINTS = [
    [sympy.Rational(p, q) for p, q in point]
    for point in (((1, 2), (-3, 4), (5, 3)), ((-2, 1), (1, 7), (0, 1)))
]


def _exact_gradients(nodes, point):
    """Each d/dx_i of H(x) = int_0^1 <X(t x), x> dt at ``point``, exactly:
    the integrand on the line point + s e_i is a polynomial in t and s."""
    s = sympy.Symbol("s")

    def poly(value):
        return sympy.Poly(value, _T, s, domain="QQ")

    gradient = []
    for i in range(_DIM):
        line = [poly(p + s * int(i == j)) for j, p in enumerate(point)]
        along = [poly(_T) * x for x in line]
        integrand = sum((_sympy(node, along, poly) * x for node, x in zip(nodes, line)), poly(0))
        gradient.append(integrand.diff(s).eval(s, 0).integrate().eval(1))
    return np.array(gradient, dtype=float)


@settings(max_examples=40, deadline=5000)
@given(st.lists(_polynomial_asts(signed=True), min_size=_DIM, max_size=_DIM))
def test_gradient_tables_match_the_exact_potential(nodes):
    table = ExpressionField(_DIM, nodes).polynomial
    if table is None:
        return
    for point in _RATIONAL_POINTS:
        grad = table.gradient_potential(np.array(point, dtype=float)[None])[0]
        exact = _exact_gradients(nodes, point)
        # The same gradient of the unsigned field at |x| bounds every term.
        bound = _exact_gradients([_unsigned(node) for node in nodes], [abs(p) for p in point])
        assert np.all(np.abs(grad - exact) <= 1e-13 * bound)


_CATALOG = [
    catalog_field("identity", 3),
    catalog_field("constant", value=[1.0, -2.0, 0.5]),
    catalog_field("linear", matrix=[[1.0, 2.0], [-3.0, 0.5]]),
    catalog_field("rotation2d"),
    catalog_field("identity_plus_rotation2d"),
    catalog_field(
        "gradient_poly",
        3,
        coeffs=[[0.5, -1.0, 0.25, 2.0], [0.0, 1.0, -0.5, 1.0], [1.0, 0.0, 0.0, 0.5]],
    ),
    catalog_field("cubic_radial", 3),
]


@pytest.mark.parametrize("entry", _CATALOG, ids=lambda entry: entry.name)
def test_catalog_tables_match_the_closed_forms(entry):
    # The hand-written closed forms share no formula with the tables.
    points = ball_points(entry.dimension, 20, 3.0, seed=23)
    scale = 1e-14 * (1.0 + np.abs(entry.field.evaluate_many(points)).max())
    conservative, sphere_invariant = ConservativePart(entry.field), SphereInvariantPart(entry.field)
    for got, closed_form in (
        (entry.field.polynomial(points), entry.field.evaluate_many(points)),
        (conservative.evaluate_many(points), [entry.conservative(x) for x in points]),
        (sphere_invariant.evaluate_many(points), [entry.sphere_invariant(x) for x in points]),
    ):
        assert np.abs(got - closed_form).max() <= scale
    assert conservative.exact_jacobian and sphere_invariant.exact_jacobian


# Fields of every kind the remainder meets: catalog, tabled and tableless
# DSL, shifted, ball-restricted, and CallableFields on the stencil, the
# last with a declared table, so that only its conservative part's
# Jacobian is exact.
_REMAINDER_FIELDS = [
    catalog_field("identity_plus_rotation2d").field,
    catalog_field("cubic_radial", 3).field,
    parse_field("x1^3 + 0.3*x2 - x1*x2; x2^3 + 0.3*x1"),
    parse_field("sin(x1)*exp(-0.1*x2^2) + 0.5*x1; cos(x1 + x2) - 0.3*tanh(x2)"),
    ShiftedField(parse_field("x1^3 - x2; x2^3 + x1"), [0.5, -1.5]),
    BallRestrictedField(catalog_field("gradient_poly", 2).field, 3.0),
    CallableField(2, lambda p: np.column_stack((p[:, 0] ** 3 - p[:, 1], np.tanh(p[:, 0])))),
    CallableField(
        2,
        lambda p: p[:, ::-1] * [-1.0, 1.0],
        "declared rotation",
        polynomial=catalog_field("rotation2d").field.polynomial,
    ),
]


@pytest.mark.parametrize("field", _REMAINDER_FIELDS, ids=lambda field: field.label[:32])
def test_the_remainder_is_the_field_minus_its_conservative_part(field):
    points = ball_points(field.dimension, 20, 2.0, seed=26)
    remainder, conservative = SphereInvariantPart(field), ConservativePart(field)
    assert remainder.label == f"sphere_invariant_part({field.label})"
    values = remainder.evaluate_many(points)
    assert np.array_equal(values, decompose_many(field, points).sphere_invariant)
    assert np.array_equal(values, field.evaluate_many(points) - conservative.evaluate_many(points))
    jacobians = remainder.value_and_jacobian_many(points)[1]
    own = field.value_and_jacobian_many(points)[1]
    assert np.array_equal(jacobians, own - conservative.value_and_jacobian_many(points)[1])
    assert remainder.exact_jacobian == (field.exact_jacobian and conservative.exact_jacobian)


_AFFINE = ("identity", "constant", "linear", "rotation2d", "identity_plus_rotation2d")


@pytest.mark.parametrize(
    "entry", [e for e in _CATALOG if e.name in _AFFINE], ids=lambda entry: entry.name
)
def test_the_remainder_of_an_affine_entry_has_the_skew_part_as_jacobian(entry):
    points = ball_points(entry.dimension, 20, 3.0, seed=23)
    scale = 1e-14 * (1.0 + np.abs(entry.field.evaluate_many(points)).max())
    matrix = entry.field.value_and_jacobian_many(points[:1])[1][0]
    jacobians = SphereInvariantPart(entry.field).value_and_jacobian_many(points)[1]
    assert np.abs(jacobians - 0.5 * (matrix - matrix.T)).max() <= scale


def test_a_shift_leaves_the_table_of_the_remainder_as_it_is():
    # The shift's constant row of X cancels against that of grad H.
    field = parse_field("x1^3 - 2*x1*x2; x2^2 + x1")
    points = ball_points(2, 20, 2.0, seed=27)
    shifted = SphereInvariantPart(ShiftedField(field, [0.7, -1.3])).polynomial
    got, got_bound = shifted.value_and_bound(points)
    want, want_bound = SphereInvariantPart(field).polynomial.value_and_bound(points)
    assert np.all(np.abs(got - want) <= got_bound + want_bound)


@pytest.mark.parametrize(
    "field",
    [entry.field for entry in _CATALOG] + _WORKLOAD_FIELDS,
    ids=lambda field: field.label[:32],
)
def test_the_hessian_of_h_is_exact(field):
    # The stencil of a copy without a table differentiates grad H itself.
    points = ball_points(field.dimension, 20, 3.0, seed=24)
    tabled = ConservativePart(field)
    values, hessians = tabled.value_and_jacobian_many(points)
    plain = copy.copy(field)
    plain.polynomial = None
    stencil = ConservativePart(plain)
    assert tabled.exact_jacobian and not stencil.exact_jacobian
    reference = stencil.value_and_jacobian_many(points)[1]
    assert np.abs(hessians - reference).max() <= 1e-6 * (1.0 + np.abs(reference).max())
    assert np.allclose(hessians, hessians.transpose(0, 2, 1), rtol=1e-14, atol=1e-14)
    # The values are column 0 of grad H's jet, and the split's grad H is
    # grad H's own table: two contractions of one polynomial, each within
    # its rounding bound (Polynomial.value_and_bound) at points both serve.
    table, cfg = field.polynomial.gradient_potential, DEFAULT_QUADRATURE
    _, jet_bounds, jet_served = table.jet.value_within(points, cfg.abs_tol, cfg.rel_tol)
    _, bounds, served = table.value_within(points, cfg.abs_tol, cfg.rel_tol)
    assert jet_served.all() and served.all()
    gap = np.abs(values - gradient_potential_integral_many(field, points))
    assert np.all(gap <= jet_bounds[..., 0] + bounds)


def test_expansions_beyond_the_budget_keep_no_table(monkeypatch):
    # Each is refused before the product that would exceed the budget is
    # formed: the products formed multiply at most the budget's pairs.
    formed = []
    product = dsl._Expansion.product

    def counted(self, a, b):
        out = product(self, a, b)
        formed.append(len(a) * len(b))
        return out

    monkeypatch.setattr(dsl._Expansion, "product", counted)
    for text in ("(x1+x2+x3+x4+x5)^60; x1; x2; x3; x4", "x1^100000; x2; x3; x4; x5"):
        formed.clear()
        assert parse_field(text).polynomial is None
        assert 0 < sum(formed) <= dsl._MAX_TERM_PRODUCTS
    # Within it the table is the full expansion: C(12, 2) monomials of degree 10.
    assert parse_field("(x1+x2+x3)^10; x2; x3").polynomial.exponents.shape[0] == 66 + 2


def test_a_function_is_refused_before_any_expansion(monkeypatch):
    # The survey finds sin at parse time, so its operand is never expanded.
    formed = []
    product = dsl._Expansion.product

    def counted(self, a, b):
        formed.append(len(a) * len(b))
        return product(self, a, b)

    monkeypatch.setattr(dsl._Expansion, "product", counted)
    assert parse_field("sin((x1+x2+x3)^30); x2; x3").polynomial is None
    assert formed == []


def test_an_overflowing_coefficient_leaves_no_table():
    # (1e200*x1)^2 expands to 1e400*x1^2, which no double holds.  The
    # field is the gradient of 1e400*x1^3/3 + x2^2/2, and without a table
    # its split integrates, as any untabled field's does.
    field = parse_field("(1e200*x1)^2; x2")
    assert field.polynomial is None
    assert not ConservativePart(field).exact_jacobian
    split = decompose_many(field, np.array([[1e-160, 0.5]]))
    assert split.conservative[0] == pytest.approx([1e80, 0.5], rel=1e-12)
    assert split.potentials[0] == pytest.approx(0.125, rel=1e-12)
    assert np.abs(split.sphere_invariant).max() <= 1e-12


def test_constant_fields_have_an_empty_hessian_table():
    # grad H of a constant c is c itself, so the Hessian's table has no rows
    # and evaluates to zeros; so does the remainder X - grad H and its Jacobian.
    field = parse_field("1; 2")
    assert field.polynomial.gradient_potential.derivative.exponents.shape == (0, 2)
    points = ball_points(2, 5, 2.0, seed=25)
    values, hessians = ConservativePart(field).value_and_jacobian_many(points)
    assert np.array_equal(values, np.tile([1.0, 2.0], (5, 1)))
    assert np.array_equal(hessians, np.zeros((5, 2, 2)))
    values, jacobians = SphereInvariantPart(field).value_and_jacobian_many(points)
    assert not values.any() and not jacobians.any()
    result = find_equilibrium_conservative(field, 1.0, allow_uncertified=True)
    assert not result.success and result.residual == pytest.approx(np.sqrt(5.0))


def test_ill_conditioned_points_take_the_adaptive_route():
    # (x1 - 1)^20 expands to binomial coefficients up to 184756: at x1 = 2
    # the rounding bound, gamma 3^20, exceeds the tolerance and the point
    # integrates adaptively; at x1 = 0.1 the table serves it.
    field = parse_field("(x1 - 1)^20; x2")
    points = np.array([[0.1, 0.2], [2.0, 0.5]])
    table = field.polynomial.gradient_potential
    values, bounds = table.value_and_bound(points)
    tolerance = np.maximum(DEFAULT_QUADRATURE.abs_tol, DEFAULT_QUADRATURE.rel_tol * np.abs(values))
    assert np.all(bounds[0] <= tolerance[0]) and np.any(bounds[1] > tolerance[1])
    grads = gradient_potential_integral_many(field, points)
    assert np.array_equal(grads[0], values[0])
    adaptive = _adaptive_gradient(field, points[1:])[0]
    assert np.abs(grads[1] - adaptive).max() <= 1e-13 * np.abs(adaptive).max()
    # The split reports each route's own error estimate.
    estimate = decompose_many(field, points).estimated_errors
    potential_errors = potential_many(field, points)[1]
    assert estimate[0] == pytest.approx(potential_errors[0] + np.abs(points[0]) @ bounds[0])


def test_table_route_keeps_the_checks():
    # Points that overflow the table leave it to the quadrature, which
    # raises on the non-finite integrand as before.
    field = parse_field("x1^3; x2")
    with pytest.raises(NonFiniteValueError):
        gradient_potential_integral_many(field, [[1e120, 0.0]])
    refused = (([[-1, 0]], [[1.0, 0.0]]), ([[1, 0]], [[np.inf, 0.0]]), ([[1, 0]], []))
    for exponents, coefficients in refused:
        with pytest.raises(ConfigError):
            Polynomial(exponents, coefficients)


def _cyclic_cubic(n):
    """x_i^3 + 0.3 x_(i+1), indices mod n: H = sum x_i^4 / 4 + 0.15 x_i x_(i+1)."""
    return parse_field("; ".join(f"x{i + 1}^3 + 0.3*x{(i + 1) % n + 1}" for i in range(n)))


def test_a_table_costs_per_held_exponent_not_per_coordinate():
    # grad H of the cyclic cubic in 32 variables is x^3 plus 0.15 times the
    # two neighbours: 2n rows, x_i^3 and x_i, none of them zero.
    n = 32
    table = _cyclic_cubic(n).polynomial.gradient_potential
    points = ball_points(n, 512, 2.0, seed=5)
    assert table.exponents.shape == (2 * n, n)
    assert np.abs(table.coefficients).max(axis=1).min() > 0.0
    neighbours = np.roll(points, 1, axis=1) + np.roll(points, -1, axis=1)
    assert np.allclose(table(points), points**3 + 0.15 * neighbours, rtol=1e-14, atol=1e-14)
    # The 1,024 monomials x_i^2 x_j hold at most two variables each.
    # Gathering all 32 powers of each at 512 points would take one array
    # of 128 MiB.
    eye = np.eye(n, dtype=np.int64)
    wide = Polynomial((2 * eye[:, None] + eye[None, :]).reshape(-1, n), np.ones(n * n))
    assert wide.exponents.shape == (n * n, n)
    assert (wide.exponents != 0).sum(axis=1).max() == 2
    tracemalloc.start()
    try:
        values = wide(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # The sum of x_i^2 x_j over all i and j is |x|^2 times the sum of x_j.
    expected = (points**2).sum(axis=1) * points.sum(axis=1)
    assert np.allclose(values, expected, rtol=1e-12, atol=1e-12)


def _sympy_gradient_monomials(field):
    """The monomials of grad H, H(x) = int_0^1 <X(t x), x> dt, with X
    read exactly from the field's table."""
    table = field.polynomial
    xs = sympy.symbols(f"x1:{field.dimension + 1}")
    monomials = [sympy.Mul(*(x**int(e) for x, e in zip(xs, row))) for row in table.exponents]
    components = [
        sum(sympy.Rational(c) * m for c, m in zip(table.coefficients[:, i].tolist(), monomials))
        for i in range(field.dimension)
    ]
    along = {x: _T * x for x in xs}
    radial = sum(c.subs(along, simultaneous=True) * x for c, x in zip(components, xs))
    potential = sympy.integrate(sympy.expand(radial), (_T, 0, 1))
    return {m for x in xs for m in sympy.Poly(sympy.diff(potential, x), *xs).monoms()}


@pytest.mark.parametrize(
    "field",
    [pytest.param(_cyclic_cubic(n), id=f"cyclic_cubic({n})") for n in range(2, 9)]
    + [
        pytest.param(entry.field, id=entry.name)
        for entry in _CATALOG
        if entry.name in ("gradient_poly", "cubic_radial")
    ],
)
def test_the_gradient_table_holds_only_the_terms_of_grad_h(field):
    # None of these fields has terms that cancel, so every row of grad H's
    # table is a monomial of grad H with a non-zero coefficient.
    table = field.polynomial.gradient_potential
    assert np.abs(table.coefficients).max(axis=1).min() > 0.0
    rows = {tuple(row) for row in table.exponents.tolist()}
    assert rows == _sympy_gradient_monomials(field)


def test_a_cancelled_monomial_leaves_no_term_in_grad_h():
    # x1^3 - x1^3 expands to a zero coefficient, which puts no term in H:
    # grad H = (0, x2) is served by its table at (1e200, 0), where X
    # itself overflows and so does everything that evaluates X.
    field = parse_field("x1^3 - x1^3; x2")
    point = [[1e200, 0.0]]
    part = ConservativePart(field)
    assert np.array_equal(part.evaluate_many(point), [[0.0, 0.0]])
    values, hessians = part.value_and_jacobian_many(point)
    assert np.array_equal(values, [[0.0, 0.0]])
    assert np.array_equal(hessians, [[[0.0, 0.0], [0.0, 1.0]]])
    assert np.array_equal(gradient_potential_integral_many(field, point), [[0.0, 0.0]])
    remainder = SphereInvariantPart(field)
    for evaluate in (
        field.evaluate_many,
        field.value_and_jacobian_many,
        partial(decompose_many, field),
        remainder.evaluate_many,
        remainder.value_and_jacobian_many,
    ):
        with pytest.raises(NonFiniteValueError):
            evaluate(point)


# ---------------------------------------------------------------------------
# The jet: X and its Jacobian from one table
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=5000)
@given(st.lists(_polynomial_asts(signed=True), min_size=_DIM, max_size=_DIM))
def test_the_jet_agrees_with_the_walker_within_its_rounding_bound(nodes):
    field = ExpressionField(_DIM, nodes)
    table = field.polynomial
    if table is None:  # an expansion beyond the term budget claims nothing
        return
    jet, bound = table.jet.value_and_bound(_POINTS)
    values, jacobians = field._walked(_POINTS)
    walked = np.concatenate((values[..., None], jacobians), axis=-1)
    for i, node in enumerate(nodes):
        # Column 0 is X_i and column 1 + j its derivative in x_j.  The
        # unsigned polynomial at |x| bounds every term that meets in an
        # entry, so 1e-13 of it covers the rounding of the table's
        # coefficients and the walker's own rounding.
        exact, magnitude = _exact_poly(node), _exact_poly(_unsigned(node))
        columns = [(exact, magnitude)] + [(exact.diff(x), magnitude.diff(x)) for x in _X]
        for k, point in enumerate(_POINTS):
            at = [sympy.Rational(v) for v in point]
            for j, (reference, size) in enumerate(columns):
                slack = bound[k, i, j] + 1e-13 * float(size(*map(abs, at)))
                assert abs(jet[k, i, j] - float(reference(*at))) <= slack
                assert abs(jet[k, i, j] - walked[k, i, j]) <= slack


def test_ill_conditioned_jacobians_take_the_walker():
    # At x1 = 2 the jet's rounding bound, about gamma 3^20, misses the
    # tolerance, and the point takes the dual-number walker, bit for bit;
    # at x1 = 0.1 the jet serves it.
    field = parse_field("(x1 - 1)^20; x2")
    points = np.array([[2.0, 0.5], [0.1, 0.2]])
    cfg = DEFAULT_QUADRATURE
    served = field.polynomial.jet.value_within(points, cfg.abs_tol, cfg.rel_tol)[2]
    assert served.tolist() == [False, True]
    values, jacobians = field.value_and_jacobian_many(points)
    walked_values, walked_jacobians = field._walked(points)
    assert np.array_equal(values[0], walked_values[0])
    assert np.array_equal(jacobians[0], walked_jacobians[0])
    assert np.allclose(values[1], walked_values[1], rtol=1e-12, atol=0.0)
    assert np.allclose(jacobians[1], walked_jacobians[1], rtol=1e-12, atol=0.0)


def test_overflowing_points_leave_the_tables():
    # x1^3 - x1^3 expands to a zero coefficient, which times the
    # overflowing power is NaN: the walker takes the point and overflows
    # to inf - inf, as evaluate_many does.
    field = parse_field("x1^3 - x1^3; x2")
    assert field.polynomial is not None
    with pytest.raises(NonFiniteValueError):
        field.value_and_jacobian_many([[1e200, 0.0]])
    with pytest.raises(NonFiniteValueError):
        field.evaluate_many([[1e200, 0.0]])
    # x1^3 overflows at 1e105, where (1e-10 x1)^3 does not: the walker
    # takes the point, and grad H takes the adaptive route, with its
    # Hessian from the derivative's table alone, which holds no x1^3.
    field = parse_field("(1e-10*x1)^3; x2")
    point = np.array([[1e105, 0.0]])
    values, jacobians = field.value_and_jacobian_many(point)
    assert np.array_equal(values, field.evaluate_many(point))
    assert np.array_equal(jacobians, field._walked(point)[1])
    values, hessians = ConservativePart(field).value_and_jacobian_many(point)
    assert np.allclose(values, [[1e285, 0.0]], rtol=1e-12, atol=0.0)
    assert np.allclose(hessians, [[[3e180, 0.0], [0.0, 1.0]]], rtol=1e-12, atol=0.0)
    # In one dimension no zero coefficient turns the overflow into a NaN:
    # grad H's table reads inf with an infinite bound, which serves no
    # point, so the adaptive route returns the finite value.
    field = parse_field("(1e-10*x1)^3")
    assert np.allclose(gradient_potential_integral_many(field, [[1e105]]), 1e285, rtol=1e-12)
    assert np.allclose(ConservativePart(field).evaluate_many([[1e105]]), 1e285, rtol=1e-12)


def test_tabled_jacobian_calls_make_no_walk(monkeypatch):
    walks = []
    walk = dsl._eval_raw

    def counted(node, points, arith=dsl._Reals):
        walks.append(arith)
        return walk(node, points, arith)

    monkeypatch.setattr(dsl, "_eval_raw", counted)
    points = ball_points(2, 16, 3.0, seed=26)
    _CUBIC.value_and_jacobian_many(points)
    _CUBIC.value_and_jacobian_many(points[:1])
    assert walks == []
    # The field's own values stay on the walker.
    _CUBIC.evaluate_many(points)
    assert walks and set(walks) == {dsl._Reals}


def test_shifts_share_the_tables_of_their_field():
    # grad H of X + b is grad H of X plus b, and its Hessian is that of X,
    # so a shift builds no table: tracemalloc counted some 4.3 KB of
    # tables a shift, 4.7 KB in all, when each built its own.
    field = parse_field("x1^3 + 0.3*x2; x2^3 + 0.3*x3; x3^3 + 0.3*x1")
    offsets = ball_points(3, 50, 3.0, seed=27)
    points = ball_points(3, 4, 1.0, seed=28)

    def split(shifted):
        part = ConservativePart(shifted)
        return part.value_and_jacobian_many(points), part.evaluate_many(points)

    split(ShiftedField(field, offsets[0]))  # the inner field builds its tables once
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        shifts = [ShiftedField(field, b) for b in offsets]
        for shifted in shifts:
            split(shifted)
            gradient_potential_integral_many(shifted, points)
        per_shift = (tracemalloc.get_traced_memory()[0] - before) / len(shifts)
    finally:
        tracemalloc.stop()
    assert per_shift < 2048
    # The split agrees with the tables of X + b themselves.
    (values, hessians), plain = split(shifts[1])
    table = shifts[1].polynomial.gradient_potential
    assert np.allclose(values, table(points), rtol=1e-14, atol=1e-14)
    assert np.allclose(plain, values, rtol=1e-14, atol=1e-14)
    assert np.allclose(hessians, table.derivative(points), rtol=1e-14, atol=1e-14)
