"""Exact Jacobians: forward mode over the DSL, closed forms in the catalog,
propagation through the combinators, and the hot paths that use them."""

import mpmath
import numpy as np
import pytest
import sympy

from conftest import random_ast
from presnov import (
    BallRestrictedField,
    CallableField,
    ConservativePart,
    DimensionMismatchError,
    DomainError,
    NonFiniteValueError,
    ScaledField,
    ShiftedField,
    SumField,
    boundary_certificate,
    catalog_field,
    decompose_many,
    find_equilibrium,
    gradient_potential_integral_many,
    paired_probe,
    parse_field,
)
from presnov import decomposition, fields
from presnov.dsl import _Duals, _eval_raw
from presnov.fields import VectorField
from presnov.radial import ProbeConfig
from presnov.sampling import ball_points

# Every DSL function, both '^' forms (constant and varying exponent, with a
# constant and with a varying base), the integer powers that multiply, '/',
# and norm2.
_SYMPY_TABLE = [
    "sin(x1*x2) + cos(x2); exp(0.3*x1) - tanh(2*x2)",
    "abs(x1)*x2 + sqrt(1 + norm2); x1/(2 + x2^2)",
    "x1^3 - 0.5*x2^2 + x1^0; x2^0.5*x1 + x2^1",
    "(1 + x1^2)^x2; 2^x1 + e^(x1*x2)",
    "x1*norm2 - x3/(1 + x1^2); tanh(x2 - x3)*exp(-norm2/4); sqrt(x3^2 + 1)^3 - abs(x2 - x1)",
    "x1^3*x2^2 + x2^4; (x1 - 2*x2)^4 - exp(-0.1*x2^2)",
]


def _sympy_jacobian(text, dimension):
    syms = sympy.symbols(f"x1:{dimension + 1}", real=True)
    names = {str(s): s for s in syms}
    names["norm2"] = sum(s**2 for s in syms)
    names["abs"] = sympy.Abs
    names["e"] = sympy.E
    rows = [
        sympy.sympify(part.strip().replace("^", "**"), locals=names)
        for part in text.split(";")
    ]
    jac = sympy.Matrix(rows).jacobian(syms)
    return sympy.lambdify(syms, jac, modules="mpmath")


def _points(dimension, count, seed):
    # Positive second coordinate keeps x2^0.5 real; the first point puts a
    # zero under abs.
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, size=(count, dimension))
    pts[:, 1] = np.abs(pts[:, 1]) + 0.1
    pts[0, 0] = 0.0
    return pts


@pytest.mark.parametrize("text", _SYMPY_TABLE)
def test_dsl_jacobian_matches_sympy(text):
    field = parse_field(text)
    n = field.dimension
    reference = _sympy_jacobian(text, n)
    points = _points(n, 20, seed=n)
    _, jac = field.value_and_jacobian_many(points)
    with mpmath.workdps(40):
        for x, got in zip(points, jac):
            want = np.array(reference(*(mpmath.mpf(float(c)) for c in x)).tolist(), dtype=float)
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), (x, got, want)


def test_abs_differentiates_to_sign():
    _, jac = parse_field("abs(x1); abs(x2)").value_and_jacobian_many([[0.0, -2.0]])
    assert np.array_equal(jac[0], [[0.0, 0.0], [0.0, -1.0]])


def test_constant_exponent_zero_has_zero_derivative_at_zero_base():
    # 0 * 0^(-1) would be NaN; the rule for c = 0 is the derivative 0.
    _, jac = parse_field("x1^0; x2^2").value_and_jacobian_many([[0.0, 0.0]])
    assert np.array_equal(jac[0], np.zeros((2, 2)))


def test_infinite_derivative_raises():
    field = parse_field("sqrt(x1); x2")
    assert np.array_equal(field.evaluate_many([[0.0, 1.0]]), [[0.0, 1.0]])
    with pytest.raises(NonFiniteValueError):
        field.value_and_jacobian_many([[0.0, 1.0]])


def test_zero_tangent_times_infinite_derivative_is_zero():
    # |x| x written with sqrt or ^0.5 has Jacobian 0 at the origin, though
    # the local derivative of sqrt at 0 is infinite.
    for text in ("x1*sqrt(norm2); x2*sqrt(norm2)", "x1*norm2^0.5; x2*norm2^0.5"):
        _, jac = parse_field(text).value_and_jacobian_many([[0.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(jac[0], np.zeros((2, 2)))
        assert np.allclose(jac[1], [[2.0, 0.0], [0.0, 4.0]], rtol=1e-15, atol=0.0)
    # On a ray with x1 = 0 the tangent of x1^2 vanishes under the sqrt.
    _, jac = parse_field("sqrt(x1^2 + x2^2); x2").value_and_jacobian_many([[0.0, -3.0]])
    assert np.array_equal(jac[0], [[0.0, -1.0], [0.0, 1.0]])


@pytest.mark.parametrize("offset,zero,degenerate", [(1.0, [-1.0, 0.0], False), (0.0, [0.0, 0.0], True)])
def test_newton_from_the_origin_of_a_sqrt_field(offset, zero, degenerate):
    # Multistart tries the origin first, where sqrt(norm2) has an infinite
    # local derivative; with no offset the origin is the zero, and the
    # Jacobian there, 0, makes it degenerate.
    field = parse_field(f"x1*sqrt(norm2) + {offset}; x2*sqrt(norm2)")
    result = find_equilibrium(field, 3.0)
    assert result.success and result.degenerate is degenerate
    assert np.allclose(result.point, zero, atol=1e-12)


def test_dual_values_are_the_plain_values_bitwise():
    # Compared on the walker directly, so non-finite values and
    # derivatives are compared too, not skipped.
    for seed in range(200):
        rng = np.random.Generator(np.random.Philox(4000 + seed))
        exprs = [random_ast(rng, 3, 4) for _ in range(3)]
        pts = rng.uniform(-2.0, 2.0, size=(30, 3))
        with np.errstate(all="ignore"):
            for expr in exprs:
                plain = _eval_raw(expr, pts)
                value, _ = _eval_raw(expr, pts, _Duals)
                assert np.array_equal(value, plain, equal_nan=True)


def test_value_and_jacobian_checks_its_points():
    field = parse_field("x1; x2")
    with pytest.raises(DimensionMismatchError):
        field.value_and_jacobian_many([[1.0, 2.0, 3.0]])
    with pytest.raises(NonFiniteValueError):
        field.value_and_jacobian_many([[np.nan, 0.0]])
    with pytest.raises(DomainError):
        BallRestrictedField(field, 1.0).value_and_jacobian_many([[2.0, 0.0]])
    bad = CallableField(2, lambda p: p, jacobian=lambda p: np.zeros((len(p), 2)))
    with pytest.raises(DimensionMismatchError):
        bad.value_and_jacobian_many([[1.0, 0.0]])


_CATALOG = [
    ("identity", dict(dimension=3)),
    ("constant", dict(value=[1.0, -2.0, 0.5])),
    ("linear", dict(matrix=[[1.0, 2.0, 0.0], [0.0, 1.0, -3.0], [0.5, 0.0, 2.0]])),
    ("rotation2d", dict()),
    ("gradient_poly", dict(dimension=3)),
    ("cubic_radial", dict(dimension=3)),
    ("identity_plus_rotation2d", dict()),
]


def _stencil(field, points):
    """The central-difference fallback, whatever Jacobian the field has."""
    return VectorField._value_and_jacobian_many(field, np.asarray(points, dtype=float))


@pytest.mark.parametrize("name,kwargs", _CATALOG)
def test_catalog_jacobians_match_the_stencil(name, kwargs):
    kwargs = dict(kwargs)
    entry = catalog_field(name, kwargs.pop("dimension", None), **kwargs)
    assert entry.field.exact_jacobian
    points = ball_points(entry.dimension, 40, 3.0, seed=8)
    values, jac = entry.field.value_and_jacobian_many(points)
    assert np.array_equal(values, entry.field.evaluate_many(points))
    _, fd = _stencil(entry.field, points)
    assert np.max(np.abs(jac - fd)) <= 1e-6


def test_combinator_jacobians_propagate():
    ident = catalog_field("identity", 2).field
    rot = catalog_field("rotation2d").field
    dsl = parse_field("sin(x1)*x2; x1^3")
    opaque = CallableField(2, lambda p: np.cos(p))
    combos = [
        (SumField(ScaledField(2.0, ident), ShiftedField(rot, [1.0, 0.0])), True),
        (SumField(dsl, ScaledField(-0.5, rot)), True),
        (BallRestrictedField(dsl, 5.0), True),
        (SumField(dsl, opaque), False),
        (ShiftedField(opaque, [0.0, 1.0]), False),
    ]
    points = ball_points(2, 30, 3.0, seed=9)
    for field, exact in combos:
        assert field.exact_jacobian is exact
        values, jac = field.value_and_jacobian_many(points)
        assert np.array_equal(values, field.evaluate_many(points))
        assert np.max(np.abs(jac - _stencil(field, points)[1])) <= 1e-6


def test_hot_paths_never_call_the_stencil(monkeypatch):
    # Only the finite-difference gradient route and the Jacobian of
    # ConservativePart (the Hessian of H) still use the stencil.
    def forbidden(*args):
        raise AssertionError("central-difference stencil called")

    monkeypatch.setattr(fields, "_fd_probes", forbidden)
    monkeypatch.setattr(decomposition, "_fd_probes", forbidden)
    subjects = [
        parse_field("x1^3 + 0.3*x2; x2^3 - 0.3*x1"),
        parse_field("tanh(20*(x1-1)); x2"),
        catalog_field("cubic_radial", 2).field,
        catalog_field("identity_plus_rotation2d").field,
    ]
    fast = ProbeConfig(radius_count=4, directions=16)
    for field in subjects:
        points = ball_points(2, 20, 3.0, seed=10)
        split = decompose_many(field, points)
        assert np.all(np.isfinite(split.conservative))
        gradient_potential_integral_many(field, points)
        ConservativePart(field).evaluate_many(points)
        assert paired_probe(field, fast).verdicts_agree
        assert boundary_certificate(field, 2.0, check_conservative=True).conservative_min_radial is not None
        find_equilibrium(ShiftedField(field, [0.5, -0.25]), 3.0, allow_uncertified=True)
