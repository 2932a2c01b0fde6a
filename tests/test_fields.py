import numpy as np
import pytest

import presnov as pv
from presnov import (
    BallRestrictedField,
    CallableField,
    CatalogError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    ExpressionField,
    NonFiniteValueError,
    ParseError,
    Polynomial,
    ProbeConfig,
    ScaledField,
    ShiftedField,
    SolverConfig,
    SumField,
    catalog_field,
    catalog_names,
    decompose_many,
    parse_expression,
    parse_expressions,
    parse_field,
    perturbed_existence,
    potential_many,
)
from presnov import fields
from presnov.dsl import Const
from presnov.sampling import ball_points, unit_directions


def test_evaluate_identity():
    field = catalog_field("identity", 2).field
    assert np.array_equal(field.evaluate([3.0, -4.0]), [3.0, -4.0])


def test_evaluate_rotation2d():
    field = catalog_field("rotation2d").field
    assert np.array_equal(field.evaluate([1.0, 0.0]), [0.0, 1.0])


def test_evaluate_linear_hand_product():
    # A (1, 0)^T = first column of A.
    field = catalog_field("linear", matrix=[[1.0, 2.0], [0.0, 1.0]]).field
    assert np.array_equal(field.evaluate([1.0, 0.0]), [1.0, 0.0])


# The radial component <X(x), x>, at the rows of a batch (fields._radial_values).


def test_radial_component_identity():
    field = catalog_field("identity", 2).field
    assert fields._radial_values(field, np.array([[3.0, 4.0]]))[0] == 25.0


def test_radial_component_rotation_vanishes():
    field = catalog_field("rotation2d").field
    rng = np.random.Generator(np.random.Philox(7))
    x = rng.uniform(-5, 5, size=(20, 2))
    radial = fields._radial_values(field, x)
    assert np.all(np.abs(radial) <= 1e-12 * (1 + np.einsum("ij,ij->i", x, x)))


def test_radial_component_linear_hand_value():
    # A (1,1) = (3,1); <(3,1), (1,1)> = 4.
    field = catalog_field("linear", matrix=[[1.0, 2.0], [0.0, 1.0]]).field
    assert fields._radial_values(field, np.array([[1.0, 1.0]]))[0] == pytest.approx(4.0, abs=1e-14)


def test_radial_component_shift_rule():
    base = catalog_field("cubic_radial", 3).field
    b = np.array([0.5, -1.5, 2.0])
    shifted = ShiftedField(base, b)
    rng = np.random.Generator(np.random.Philox(9))
    x = rng.uniform(-3, 3, size=(25, 3))
    lhs = fields._radial_values(shifted, x)
    rhs = fields._radial_values(base, x) + x @ b
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_radial_component_overflow_is_a_non_finite_error():
    with pytest.raises(NonFiniteValueError, match="overflows"):
        fields._radial_values(parse_field("x1; x2"), np.array([[1e200, 1e200]]))


# ---------------------------------------------------------------------------
# Catalog ground truths
# ---------------------------------------------------------------------------

CATALOG_INSTANCES = [
    ("identity", dict(dimension=3)),
    ("constant", dict(value=[1.0, -2.0, 0.5])),
    ("linear", dict(matrix=[[1.0, 2.0], [0.0, 1.0]])),
    ("rotation2d", dict()),
    ("gradient_poly", dict(dimension=3)),
    ("cubic_radial", dict(dimension=3)),
    ("identity_plus_rotation2d", dict()),
    # Non-zero a and c exercise every term of the closed-form potential.
    ("gradient_poly", dict(dimension=2, coeffs=[[0.5, -1.0, 0.7, 0.3], [-0.4, 2.0, -0.6, 1.0]])),
]


def _instantiate(name, kwargs):
    kwargs = dict(kwargs)
    return catalog_field(name, kwargs.pop("dimension", None), **kwargs)


@pytest.mark.parametrize("name,kwargs", CATALOG_INSTANCES)
def test_catalog_closed_forms_sum_to_field(name, kwargs):
    entry = _instantiate(name, kwargs)
    points = ball_points(entry.dimension, 40, 4.0, seed=3)
    for x in points:
        value = entry.field.evaluate(x)
        total = entry.conservative(x) + entry.sphere_invariant(x)
        assert np.allclose(total, value, rtol=1e-12, atol=1e-12 * (1 + np.abs(value).max()))


@pytest.mark.parametrize("name,kwargs", CATALOG_INSTANCES)
def test_catalog_closed_forms_match_the_library(name, kwargs):
    # The closed forms are the benchmark's references, so they are checked
    # against the library's potentials and splits, not only against X.
    entry = _instantiate(name, kwargs)
    points = ball_points(entry.dimension, 30, 4.0, seed=5)
    split = decompose_many(entry.field, points)
    potentials, _ = potential_many(entry.field, points)
    for k, x in enumerate(points):
        vec_scale = 1.0 + np.linalg.norm(split.field_values[k])
        scale = (1.0 + np.linalg.norm(x)) * vec_scale
        assert abs(entry.potential(x) - potentials[k]) <= 1e-10 * scale
        assert np.abs(entry.conservative(x) - split.conservative[k]).max() <= 1e-10 * vec_scale
        assert np.abs(entry.sphere_invariant(x) - split.sphere_invariant[k]).max() <= 1e-10 * vec_scale


@pytest.mark.parametrize("name,kwargs", CATALOG_INSTANCES)
def test_catalog_sphere_invariant_orthogonal(name, kwargs):
    entry = _instantiate(name, kwargs)
    points = ball_points(entry.dimension, 40, 4.0, seed=4)
    for x in points:
        u = entry.sphere_invariant(x)
        bound = 1e-12 * (1.0 + np.linalg.norm(x) * np.linalg.norm(u))
        assert abs(float(u @ x)) <= bound


# The affine entries, X(x) = A x + c, with A, c, the coercivity flag, the
# label and the parameters written out.  The seeded matrix has a
# symmetric part with eigenvalues near -2.96, -1.62 and 1.49.
_SEEDED = np.random.default_rng(8).normal(size=(3, 3))
_ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
AFFINE_INSTANCES = [
    ("identity", dict(dimension=1), np.eye(1), np.zeros(1), True, "identity", {}),
    ("identity", dict(dimension=2), np.eye(2), np.zeros(2), True, "identity", {}),
    ("identity", dict(dimension=3), np.eye(3), np.zeros(3), True, "identity", {}),
    (
        "constant", dict(value=[1.0, -2.0, 0.5]), np.zeros((3, 3)), np.array([1.0, -2.0, 0.5]),
        False, "constant([1.0, -2.0, 0.5])", {"value": [1.0, -2.0, 0.5]},
    ),
    (
        "linear", dict(matrix=_SEEDED), _SEEDED, np.zeros(3),
        False, "linear(dim=3)", {"matrix": _SEEDED.tolist()},
    ),
    (
        "linear", dict(matrix=_SEEDED + 4.0 * np.eye(3)), _SEEDED + 4.0 * np.eye(3), np.zeros(3),
        True, "linear(dim=3)", {"matrix": (_SEEDED + 4.0 * np.eye(3)).tolist()},
    ),
    ("rotation2d", dict(), _ROTATION, np.zeros(2), False, "rotation2d", {}),
    (
        "identity_plus_rotation2d", dict(), np.eye(2) + _ROTATION, np.zeros(2),
        True, "identity_plus_rotation2d", {},
    ),
]


@pytest.mark.parametrize("name,kwargs,A,c,coercive,label,parameters", AFFINE_INSTANCES)
def test_affine_entries_match_their_matrix(name, kwargs, A, c, coercive, label, parameters):
    entry = _instantiate(name, kwargs)
    n = A.shape[0]
    points = ball_points(n, 40, 4.0, seed=6)
    points[0] = 0.0
    points[1, 0] = -0.0
    values, jac = entry.field.value_and_jacobian_many(points)
    close = dict(rtol=1e-14, atol=1e-13)
    np.testing.assert_allclose(values, np.einsum("ij,kj->ki", A, points) + c, **close)
    np.testing.assert_array_equal(jac, np.broadcast_to(A, (points.shape[0], n, n)))
    sym, skew = (A + A.T) / 2, (A - A.T) / 2
    for x in points:
        np.testing.assert_allclose(entry.potential(x), x @ sym @ x / 2 + c @ x, **close)
        np.testing.assert_allclose(entry.conservative(x), sym @ x + c, **close)
        np.testing.assert_allclose(entry.sphere_invariant(x), skew @ x, **close)
    assert entry.coercive is coercive
    assert (entry.name, entry.dimension, entry.field.label) == (name, n, label)
    assert entry.parameters == parameters


def test_catalog_identity_entry_ground_truth():
    entry = catalog_field("identity", 4)
    x = np.array([1.0, 2.0, -1.0, 0.5])
    assert entry.potential(x) == pytest.approx(0.5 * float(x @ x))
    assert np.array_equal(entry.sphere_invariant(x), np.zeros(4))
    assert entry.coercive is True


def test_catalog_linear_entry_conservative_is_symmetric_part():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    entry = catalog_field("linear", matrix=a)
    sym = 0.5 * (a + a.T)
    x = np.array([0.3, -1.7])
    assert np.allclose(entry.conservative(x), sym @ x, rtol=1e-14)
    assert entry.coercive is False  # sym(A) is singular


def test_catalog_rotation_entry_ground_truth():
    entry = catalog_field("rotation2d")
    x = np.array([0.6, -0.8])
    assert entry.potential(x) == 0.0
    assert np.array_equal(entry.sphere_invariant(x), entry.field.evaluate(x))
    assert entry.coercive is False


def test_catalog_coercivity_flags():
    assert catalog_field("identity", 2).coercive is True
    assert catalog_field("constant", value=[1.0, 0.0]).coercive is False
    assert catalog_field("cubic_radial", 5).coercive is True
    assert catalog_field("identity_plus_rotation2d").coercive is True
    assert catalog_field("gradient_poly", 2).coercive is True
    assert catalog_field("linear", matrix=[[2.0, 0.0], [0.0, 3.0]]).coercive is True
    # one coordinate with a negative cubic leading term grows to -infinity
    assert catalog_field(
        "gradient_poly", 2, coeffs=[[0, 1, 0, 1], [0, 1, 0, -1]]
    ).coercive is False
    # pure linear growth in every coordinate is enough
    assert catalog_field(
        "gradient_poly", 2, coeffs=[[0, 1, 0, 0], [1, 2, 0, 0]]
    ).coercive is True


def test_catalog_errors():
    with pytest.raises(CatalogError):
        catalog_field("no_such_field", 2)
    with pytest.raises(CatalogError):
        catalog_field("linear", 2)  # missing matrix
    with pytest.raises(CatalogError):
        catalog_field("rotation2d", 3)
    with pytest.raises(CatalogError):
        catalog_field("identity")  # dimension required
    with pytest.raises(CatalogError):
        catalog_field("linear", matrix=[[1.0, 2.0, 3.0]])
    with pytest.raises(CatalogError):
        catalog_field("gradient_poly", 2, coeffs=[[1.0, 2.0]])
    # Ragged nesting is a catalog error, not numpy's ValueError.
    with pytest.raises(CatalogError):
        catalog_field("linear", matrix=[[1, 2], [3]])
    with pytest.raises(CatalogError):
        catalog_field("constant", value=[[1], [2, 3]])
    with pytest.raises(CatalogError, match="needs a 'value' vector"):
        catalog_field("constant")
    with pytest.raises(CatalogError, match=r"does not accept parameter\(s\): foo"):
        catalog_field("identity", 2, foo=1)
    assert "identity" in catalog_names()


# ---------------------------------------------------------------------------
# Combinators and checks
# ---------------------------------------------------------------------------


def test_combinators_evaluate_structurally():
    ident = catalog_field("identity", 2).field
    rot = catalog_field("rotation2d").field
    combo = SumField(ScaledField(2.0, ident), ShiftedField(rot, [1.0, 0.0]))
    x = np.array([0.5, -1.0])
    expected = 2.0 * x + np.array([-x[1], x[0]]) + np.array([1.0, 0.0])
    assert np.allclose(combo.evaluate(x), expected, rtol=1e-15)


def test_sum_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        SumField(catalog_field("identity", 2).field, catalog_field("identity", 3).field)


@pytest.mark.parametrize("dimension", [0, -1])
def test_samplers_reject_a_dimension_below_one(dimension):
    with pytest.raises(DimensionMismatchError):
        unit_directions(dimension, 4)
    with pytest.raises(DimensionMismatchError):
        ball_points(dimension, 4, 1.0)


def test_unit_directions_are_fresh_copies_of_one_draw():
    # The draws are memoised; a caller that writes to its copy changes no
    # other caller's.
    drawn = pv.sampling._unit_directions.__wrapped__(3, 16, 5)
    first = unit_directions(3, 16, 5)
    first[:] = 0.0
    assert np.array_equal(unit_directions(np.int64(3), 16, 5), drawn)


def test_samplers_reject_non_integer_shapes():
    with pytest.raises(DimensionMismatchError):
        unit_directions(2.5, 3)
    with pytest.raises(DimensionMismatchError):
        ball_points(2.0, 3, 1.0)
    with pytest.raises(ConfigError):
        unit_directions(2, 3.0)
    with pytest.raises(ConfigError):
        ball_points(2, 3.0, 1.0)
    # Integer types that are not Python ints still pass.
    assert unit_directions(np.int64(2), np.int32(3)).shape == (3, 2)


def _identity(points):
    return points


def _identity_jacobian(points):
    return np.broadcast_to(np.eye(points.shape[1]), (*points.shape, points.shape[1]))


# Every integer argument follows one rule (operator.index), and a
# non-integer raises the error class its owner raises for an
# out-of-range value.
@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: ProbeConfig(seed=2.5), ConfigError),
        (lambda: SolverConfig(seed=1.5), ConfigError),
        (lambda: ball_points(2, 3, 1.0, 2.5), ConfigError),
        (lambda: unit_directions(2, 3, 0.5), ConfigError),
        (lambda: CallableField(2.5, _identity), DimensionMismatchError),
        (lambda: catalog_field("gradient_poly", 2.9), CatalogError),
        (lambda: parse_expression("x1", 1.9), ParseError),
        (lambda: parse_expressions("x1; x2", 2.0), ParseError),
        (lambda: Polynomial([[2.5, 0.0]], [[1.0, 0.0]]), ConfigError),
        (
            lambda: perturbed_existence(
                catalog_field("identity", 2).field, [1.0, 0.0], max_radius_exponent=3.0
            ),
            ConfigError,
        ),
    ],
    ids=[
        "ProbeConfig.seed",
        "SolverConfig.seed",
        "ball_points.seed",
        "unit_directions.seed",
        "CallableField.dimension",
        "catalog_field.dimension",
        "parse_expression.dimension",
        "parse_expressions.dimension",
        "Polynomial.exponents",
        "perturbed_existence.max_radius_exponent",
    ],
)
def test_integer_arguments_reject_non_integers(build, error):
    with pytest.raises(error, match="must be an integer"):
        build()


def test_integer_arguments_accept_numpy_integers():
    table = Polynomial(np.eye(2, dtype=np.int32), np.eye(2))
    field = CallableField(np.int64(2), _identity, jacobian=_identity_jacobian, polynomial=table)
    assert type(field.dimension) is int and type(field.polynomial.degree) is int
    assert type(CallableField(2, _identity, radius=np.int64(2)).radius) is float
    assert type(SolverConfig(seed=np.int64(3)).seed) is int


def test_callable_field_rejects_a_negative_ray_degree():
    # The degree is the table's: a negative exponent is refused.
    with pytest.raises(ConfigError, match="non-negative"):
        CallableField(2, _identity, polynomial=Polynomial([[-1, 0]], [[1.0, 0.0]]))


# Refusals of the field and expression constructors, each with its
# error class and message.
_NAN, _INF = float("nan"), float("inf")
_IDENTITY2 = catalog_field("identity", 2).field
_BALL_RADIUS = "ball radius must be finite and positive"
_TABLE = r"polynomial must be a Polynomial with \(2,\) coefficients"
_REFUSALS = {
    "CallableField.dimension": (
        lambda: CallableField(0, _identity),
        DimensionMismatchError,
        "field dimension must be at least 1",
    ),
    "CallableField.radius=0": (
        lambda: CallableField(2, _identity, radius=0.0), DomainError, _BALL_RADIUS
    ),
    "CallableField.radius=-1": (
        lambda: CallableField(2, _identity, radius=-1.0), DomainError, _BALL_RADIUS
    ),
    "CallableField.radius=inf": (
        lambda: CallableField(2, _identity, radius=_INF), DomainError, _BALL_RADIUS
    ),
    "CallableField.radius=nan": (
        lambda: CallableField(2, _identity, radius=_NAN), DomainError, _BALL_RADIUS
    ),
    # A table must be the field's: a vector of its dimension in its variables.
    "CallableField.polynomial=scalar": (
        lambda: CallableField(2, _identity, polynomial=Polynomial(np.eye(2, dtype=int), [1, 1])),
        ConfigError,
        _TABLE,
    ),
    "CallableField.polynomial=3d": (
        lambda: CallableField(2, _identity, polynomial=Polynomial(np.eye(3, dtype=int), np.eye(3))),
        ConfigError,
        _TABLE,
    ),
    "CallableField.polynomial=array": (
        lambda: CallableField(2, _identity, polynomial=np.eye(2)), ConfigError, _TABLE
    ),
    "ScaledField.factor": (
        lambda: ScaledField(_INF, _IDENTITY2), NonFiniteValueError, "scale factor must be finite"
    ),
    "ShiftedField.offset": (
        lambda: ShiftedField(_IDENTITY2, [_NAN, 0.0]),
        NonFiniteValueError,
        "shift vector must be finite",
    ),
    "parse_expression.segments": (
        lambda: parse_expression("x1; x2", 2), ParseError, "expected exactly one expression"
    ),
    "ExpressionField.expressions": (
        lambda: ExpressionField(2, [Const(1.0)]), ParseError, "expected 2 expressions, found 1"
    ),
}


@pytest.mark.parametrize("build, error, message", _REFUSALS.values(), ids=_REFUSALS)
def test_constructors_refuse_bad_arguments(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_all_of_rn_contains_every_point():
    # At any magnitude: the norm of these points overflows to inf, which
    # is outside every ball.
    points = np.full((4, 3), 1e308)
    assert np.array_equal(CallableField(3, _identity).evaluate_many(points), points)
    with pytest.raises(DomainError, match=r"outside the field's domain \(ball radius 1.0\)"):
        CallableField(3, _identity, radius=1.0).evaluate_many(points)


def test_evaluate_rejects_wrong_dimension_and_nonfinite():
    field = catalog_field("identity", 2).field
    with pytest.raises(DimensionMismatchError):
        field.evaluate([1.0, 2.0, 3.0])
    with pytest.raises(NonFiniteValueError):
        field.evaluate([np.nan, 0.0])


def test_shift_vector_must_be_a_real_vector():
    # numpy's own ValueError is no PresnovError.
    with pytest.raises(DimensionMismatchError):
        ShiftedField(catalog_field("identity", 2).field, [[1.0], 2.0])


@pytest.mark.parametrize("offset", ["ab", [1 + 2j, 0.0]], ids=["text", "complex"])
def test_perturbed_existence_refuses_a_malformed_offset_before_probing(offset, monkeypatch):
    # The offset is read by ShiftedField, before the coercivity probe runs.
    probed = []
    monkeypatch.setattr("presnov.equilibria.coercivity_probe", lambda *args: probed.append(args))
    with pytest.raises(DimensionMismatchError, match="shift vector dimension"):
        perturbed_existence(catalog_field("identity", 2).field, offset)
    assert probed == []


# A scale factor and a ball radius are one real number, by the rule of
# _float_array: numpy would parse text and drop an imaginary part.
_NOT_REAL = {"text": "2", "complex": 2 + 1j, "1-d": [2.0]}


@pytest.mark.parametrize("value", _NOT_REAL.values(), ids=_NOT_REAL)
def test_scale_factors_and_radii_must_be_real_numbers(value):
    with pytest.raises(ConfigError, match="scale factor must be a real number"):
        ScaledField(value, _IDENTITY2)
    with pytest.raises(DomainError, match="ball radius must be a real number"):
        BallRestrictedField(_IDENTITY2, value)
    with pytest.raises(DomainError, match="ball radius must be a real number"):
        CallableField(2, _identity, radius=value)


def test_a_ball_restriction_needs_a_radius():
    with pytest.raises(DomainError, match="ball radius must be finite"):
        BallRestrictedField(_IDENTITY2, None)


def test_real_scalars_keep_their_labels():
    assert ScaledField(np.int64(3), _IDENTITY2).label == "3.0*identity"
    assert BallRestrictedField(_IDENTITY2, 2).label == "restrict(identity, r=2.0)"
    restricted = BallRestrictedField(_IDENTITY2, np.float32(0.1))
    assert restricted.label == "restrict(identity, r=0.10000000149011612)"
    assert restricted.radius == float(np.float32(0.1))


# Every real and integer setting: its owner called on one value, the error
# the owner raises, and values out of its range.  A setting where None
# means a default (a sample count, a probe's directions, a field's radius,
# None for the whole space) is not tried with None.
_SETTINGS = {
    "QuadratureConfig.abs_tol": (lambda v: pv.QuadratureConfig(abs_tol=v), ConfigError, [0.0]),
    "QuadratureConfig.rel_tol": (lambda v: pv.QuadratureConfig(rel_tol=v), ConfigError, [-1.0]),
    "QuadratureConfig.order": (lambda v: pv.QuadratureConfig(order=v), ConfigError, [1, 101]),
    "QuadratureConfig.max_subdivisions": (
        lambda v: pv.QuadratureConfig(max_subdivisions=v), ConfigError, [0]
    ),
    "ProbeConfig.initial_radius": (lambda v: ProbeConfig(initial_radius=v), ConfigError, [0.0]),
    "ProbeConfig.radius_factor": (lambda v: ProbeConfig(radius_factor=v), ConfigError, [1.0]),
    "ProbeConfig.growth_floor_factor": (
        lambda v: ProbeConfig(growth_floor_factor=v), ConfigError, [-0.5]
    ),
    "ProbeConfig.radius_count": (lambda v: ProbeConfig(radius_count=v), ConfigError, [1]),
    "ProbeConfig.seed": (lambda v: ProbeConfig(seed=v), ConfigError, [-1]),
    "SolverConfig.residual_tol": (lambda v: SolverConfig(residual_tol=v), ConfigError, [0.0]),
    "SolverConfig.max_iterations": (lambda v: SolverConfig(max_iterations=v), ConfigError, [0]),
    "SolverConfig.multistart": (lambda v: SolverConfig(multistart=v), ConfigError, [-1]),
    "SolverConfig.seed": (lambda v: SolverConfig(seed=v), ConfigError, [-1]),
    "verify_decomposition.threshold": (
        lambda v: pv.verify_decomposition(_IDENTITY2, [[1.0, 0.5]], threshold=v),
        ConfigError,
        [0.0],
    ),
    "boundary_certificate.radius": (
        lambda v: pv.boundary_certificate(_IDENTITY2, v), ConfigError, [0.0, -1.0]
    ),
    "boundary_certificate.threshold": (
        lambda v: pv.boundary_certificate(_IDENTITY2, 1.0, threshold=v), ConfigError, []
    ),
    "perturbed_existence.margin_fraction": (
        lambda v: perturbed_existence(_IDENTITY2, [1.0, 0.0], margin_fraction=v),
        ConfigError,
        [-1.0],
    ),
    "perturbed_existence.threshold": (
        lambda v: perturbed_existence(_IDENTITY2, [1.0, 0.0], threshold=v), ConfigError, []
    ),
    "perturbed_existence.max_radius_exponent": (
        lambda v: perturbed_existence(_IDENTITY2, [1.0, 0.0], max_radius_exponent=v),
        ConfigError,
        [-1, 1024],
    ),
    "find_equilibrium.radius": (
        lambda v: pv.find_equilibrium(_IDENTITY2, v), ConfigError, [0.0]
    ),
    "ball_points.radius": (lambda v: ball_points(2, 3, v), ConfigError, [-1.0]),
    "ball_points.count": (lambda v: ball_points(2, v, 1.0), ConfigError, [0]),
    "radial_profile.radius": (
        lambda v: pv.radial_profile(_IDENTITY2, v, [[1.0, 0.0]]), ConfigError, [0.0]
    ),
    "BallRestrictedField.radius": (
        lambda v: BallRestrictedField(_IDENTITY2, v), DomainError, [0.0]
    ),
    # An infinite or NaN factor is a non-finite value.
    "ScaledField.factor": (
        lambda v: ScaledField(v, _IDENTITY2), (ConfigError, NonFiniteValueError), []
    ),
}
_DEFAULTED = {
    "ProbeConfig.directions": (lambda v: ProbeConfig(directions=v), ConfigError, [0]),
    "boundary_certificate.samples": (
        lambda v: pv.boundary_certificate(_IDENTITY2, 1.0, samples=v), ConfigError, [0]
    ),
    "perturbed_existence.certificate_samples": (
        lambda v: perturbed_existence(_IDENTITY2, [1.0, 0.0], certificate_samples=v),
        ConfigError,
        [0],
    ),
    "CallableField.radius": (
        lambda v: CallableField(2, _identity, radius=v), DomainError, [-1.0]
    ),
}
_NOT_A_SETTING = ["0.5", 1 + 2j, [0.5], _NAN, _INF, -_INF, True, np.True_]
_SETTING_CASES = [
    pytest.param(build, error, value, id=f"{name}={value!r}")
    for table, bad in ((_SETTINGS, [None, *_NOT_A_SETTING]), (_DEFAULTED, _NOT_A_SETTING))
    for name, (build, error, out_of_range) in table.items()
    for value in [*bad, *out_of_range]
]


@pytest.mark.parametrize("build, error, value", _SETTING_CASES)
def test_every_numeric_setting_is_converted_before_it_is_compared(build, error, value):
    with pytest.raises(error):
        build(value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: _IDENTITY2.evaluate([None, 1.0]),
        lambda: ShiftedField(_IDENTITY2, [None, 0.0]),
        lambda: pv.evaluate_ast(parse_expression("x1", 1), None),
        lambda: ScaledField(None, _IDENTITY2),
        lambda: _IDENTITY2.evaluate(np.array([0.5, "0.5"], dtype=object)),
    ],
    ids=["evaluate", "ShiftedField", "evaluate_ast", "ScaledField", "text in an object array"],
)
def test_none_and_text_are_not_numbers(build):
    # numpy reads None as NaN, which would raise NonFiniteValueError, and
    # parses text when it casts an object array.
    with pytest.raises((DimensionMismatchError, ConfigError)):
        build()


def test_numpy_settings_are_stored_and_used_as_python_numbers():
    def run(real, integer):
        quad = pv.QuadratureConfig(abs_tol=real(1e-9), order=integer(12))
        probe = ProbeConfig(
            initial_radius=real(0.5), radius_factor=real(3.0), radius_count=integer(4),
            growth_floor_factor=real(2.0), directions=integer(16),
        )
        solver = SolverConfig(residual_tol=real(1e-9), multistart=integer(2))
        for config in (quad, probe, solver):
            for name, value in vars(config).items():
                assert type(value) in (int, float), name
        field = parse_field("x1^3 + x2; x2^3 - x1")
        certificate = pv.boundary_certificate(
            field, real(2.0), integer(32), integer(5), real(0.1), quadrature=quad
        )
        found = pv.find_equilibrium(field, real(2.0), solver, certificate)
        shifted = perturbed_existence(
            field, [1.0, -1.0], solver, quad, max_radius_exponent=integer(6),
            margin_fraction=real(0.05), certificate_samples=integer(64), threshold=real(0.1),
        )
        return [
            repr(certificate),
            found.point.tobytes(),
            repr(shifted.rho),
            shifted.field_result.point.tobytes(),
            shifted.conservative_result.point.tobytes(),
            pv.coercivity_probe(field, probe).profiles.tobytes(),
            ball_points(2, integer(5), real(1.5), integer(3)).tobytes(),
            pv.radial_profile(field, real(1.5), [[0.6, 0.8]]).tobytes(),
        ]

    assert run(np.float64, np.int64) == run(float, int)


def test_ball_restriction_enforced():
    field = BallRestrictedField(catalog_field("identity", 2).field, 1.0)
    assert np.array_equal(field.evaluate([0.5, 0.5]), [0.5, 0.5])
    with pytest.raises(DomainError):
        field.evaluate([2.0, 0.0])


def test_nested_domains_keep_the_smaller_ball():
    identity = catalog_field("identity", 2).field
    inner = BallRestrictedField(identity, 2.0)
    assert identity.radius is None and inner.radius == 2.0
    assert BallRestrictedField(inner, 1.0).radius == 1.0
    assert BallRestrictedField(inner, 3.0).radius == 2.0
    assert SumField(inner, identity).radius == SumField(identity, inner).radius == 2.0
    assert SumField(inner, BallRestrictedField(identity, 1.5)).radius == 1.5
    assert SumField(identity, identity).radius is None
    # The other combinators, and the split's parts, pass on their part's.
    for wrapped in (ScaledField(2.0, inner), ShiftedField(inner, [1.0, 0.0])):
        assert wrapped.radius == 2.0
    assert pv.ConservativePart(inner).radius == pv.SphereInvariantPart(inner).radius == 2.0
    assert pv.ConservativePart(identity).radius is None


def test_ball_membership_does_not_overflow():
    # |(1e200, 1e200)| = 1.4e200 lies inside a ball of radius 1e300, though
    # the sum of squares overflows.
    field = BallRestrictedField(catalog_field("identity", 2).field, 1e300)
    assert np.array_equal(field.evaluate([1e200, 1e200]), [1e200, 1e200])
    with pytest.raises(DomainError):
        field.evaluate([1e300, 1e300])


def test_non_finite_output_reported():
    from presnov import parse_field

    field = parse_field("1/x1; x2")
    with pytest.raises(NonFiniteValueError):
        field.evaluate([0.0, 1.0])


# Each combinator around a leaf.  Unchecked, a shift or a sum would
# broadcast the leaf's (3, 1) values to (3, 2), and a sum its (3, 1, 2)
# Jacobians to (3, 2, 2).
_AROUND_A_LEAF = {
    "ShiftedField": lambda leaf: ShiftedField(leaf, [1.0, 2.0]),
    "ScaledField": lambda leaf: ScaledField(2.0, leaf),
    "SumField(leaf, X)": lambda leaf: SumField(leaf, _IDENTITY2),
    "SumField(X, leaf)": lambda leaf: SumField(_IDENTITY2, leaf),
    "BallRestrictedField": lambda leaf: BallRestrictedField(leaf, 10.0),
}


@pytest.mark.parametrize("wrap", _AROUND_A_LEAF.values(), ids=_AROUND_A_LEAF)
def test_a_leaf_output_of_the_wrong_shape_is_refused_inside_a_combinator(wrap):
    points = np.ones((3, 2))
    narrow = wrap(CallableField(2, lambda p: p[:, :1]))
    with pytest.raises(DimensionMismatchError, match=r"value of shape \(3, 1\)"):
        narrow.evaluate_many(points)
    narrow_jacobian = wrap(
        CallableField(2, _identity, jacobian=lambda p: np.zeros((p.shape[0], 1, 2)))
    )
    with pytest.raises(DimensionMismatchError, match=r"Jacobian of shape \(3, 1, 2\)"):
        narrow_jacobian.value_and_jacobian_many(points)


def test_batch_matches_single():
    entry = catalog_field("gradient_poly", 3)
    points = ball_points(3, 10, 2.0, seed=11)
    batch = entry.field.evaluate_many(points)
    for i, x in enumerate(points):
        assert np.array_equal(batch[i], entry.field.evaluate(x))
