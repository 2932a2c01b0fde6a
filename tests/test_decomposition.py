import numpy as np
import pytest

from presnov import (
    BallRestrictedField,
    CallableField,
    ConfigError,
    ConservativePart,
    DimensionMismatchError,
    DomainError,
    NonFiniteValueError,
    QuadratureConfig,
    ScaledField,
    ShiftedField,
    SphereInvariantPart,
    SumField,
    catalog_field,
    decompose_many,
    gradient_potential_integral_many,
    parse_field,
    potential_many,
    verify_decomposition,
)
from presnov import decomposition
from presnov.quadrature import DEFAULT_QUADRATURE
from presnov.radial import boundary_certificate
from presnov.sampling import ball_points


def test_potential_hand_integral():
    # integrand of "x1^2; x2" at (1,1) is t^2 + t, so H = 1/3 + 1/2 = 5/6.
    field = parse_field("x1^2; x2")
    value, err = potential_many(field, [[1.0, 1.0]])
    assert value[0] == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert err[0] >= 0.0


def test_potential_identity_norm_two():
    field = catalog_field("identity", 2).field
    value, _ = potential_many(field, [[1.2, 1.6]])  # |x| = 2
    assert value[0] == pytest.approx(2.0, abs=1e-12)


def test_potential_rotation_vanishes():
    field = catalog_field("rotation2d").field
    value, _ = potential_many(field, [[3.0, -7.0]])
    assert value[0] == pytest.approx(0.0, abs=1e-12)


def test_potential_origin_exact_zero():
    field = parse_field("exp(x1); sin(x2)")
    value, err = potential_many(field, [[0.0, 0.0]])
    assert value[0] == 0.0 and err[0] == 0.0
    # Only the origin itself is pinned: a point next to it integrates.
    near, _ = potential_many(field, [[1e-13, -1e-13]])
    assert near[0] == pytest.approx(1e-13, rel=1e-12)


def test_gradient_identity():
    field = catalog_field("identity", 2).field
    grad = decomposition.gradient_potential_many(field, [[3.0, -4.0]])[0]
    assert np.allclose(grad, [3.0, -4.0], atol=1e-9)


def test_gradient_linear_symmetric_part():
    field = catalog_field("linear", matrix=[[1.0, 2.0], [0.0, 1.0]]).field
    # sym(A) = [[1,1],[1,1]]; sym(A) (1,0) = (1,1).
    grad = decomposition.gradient_potential_many(field, [[1.0, 0.0]])[0]
    assert np.allclose(grad, [1.0, 1.0], atol=1e-9)


def test_gradient_expression_field():
    field = parse_field("x1^2; x2")
    grad = decomposition.gradient_potential_many(field, [[1.0, 1.0]])[0]
    assert np.allclose(grad, [1.0, 1.0], atol=1e-9)


def test_gradient_integral_route_examples():
    for field, point, expected in [
        (catalog_field("identity", 2).field, [3.0, -4.0], [3.0, -4.0]),
        (catalog_field("rotation2d").field, [0.3, 0.7], [0.0, 0.0]),
        (catalog_field("linear", matrix=[[1.0, 2.0], [0.0, 1.0]]).field, [0.0, 1.0], [1.0, 1.0]),
    ]:
        grad = gradient_potential_integral_many(field, [point])[0]
        assert np.allclose(grad, expected, atol=1e-9)


@pytest.mark.parametrize(
    "route",
    [
        # One point reaches every quantity through the field's own point
        # check and the batch function; the ids keep the names of the
        # single-point functions these routes replace.
        pytest.param(lambda f, p: potential_many(f, f._point_row(p))[0], id="compute_potential"),
        pytest.param(
            lambda f, p: decomposition.gradient_potential_many(f, f._point_row(p))[0],
            id="gradient_potential",
        ),
        pytest.param(
            lambda f, p: gradient_potential_integral_many(f, f._point_row(p))[0],
            id="gradient_potential_integral",
        ),
        pytest.param(lambda f, p: decompose_many(f, f._point_row(p)).sample(0), id="decompose"),
    ],
)
@pytest.mark.parametrize("point", [3.0, [[1.0, 2.0]]])
def test_single_point_wrappers_reject_other_shapes(route, point):
    # Of the entries that take a field's points, only the field's own
    # evaluate takes a single point; every function takes a batch.
    field = catalog_field("identity", 2).field
    with pytest.raises(DimensionMismatchError, match="single point"):
        field.evaluate(point)
    with pytest.raises(DimensionMismatchError, match="single point"):
        route(field, point)
    # The good shape goes through the same route.
    route(field, [1.0, 2.0])


def test_decompose_linear_example():
    field = catalog_field("linear", matrix=[[1.0, 2.0], [0.0, 1.0]]).field
    sample = decompose_many(field, [[1.0, 0.0]]).sample(0)
    assert sample.potential == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(sample.conservative, [1.0, 1.0], atol=1e-9)
    assert np.allclose(sample.sphere_invariant, [0.0, -1.0], atol=1e-9)
    assert abs(sample.orthogonality_residual) <= 1e-9


def test_decompose_gradient_field_has_no_residual_part():
    field = parse_field("x1^2; x2")
    sample = decompose_many(field, [[1.0, 1.0]]).sample(0)
    assert np.allclose(sample.sphere_invariant, [0.0, 0.0], atol=1e-8)


def test_decompose_rotation_is_purely_sphere_invariant():
    field = catalog_field("rotation2d").field
    sample = decompose_many(field, [[1.0, 0.0]]).sample(0)
    assert sample.potential == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sample.conservative, [0.0, 0.0], atol=1e-9)
    assert np.allclose(sample.sphere_invariant, [0.0, 1.0], atol=1e-9)


def test_split_reassembles_bitwise():
    field = parse_field("x1*x2; x1 - x2^2")
    points = ball_points(2, 16, 3.0, seed=5)
    split = decompose_many(field, points)
    assert np.array_equal(
        split.sphere_invariant, split.field_values - split.conservative
    )
    sample = split.sample(3)
    assert sample.potential == split.potentials[3]
    assert sample.potential_error == split.potential_errors[3]


def test_verify_identity_field_tight():
    field = catalog_field("identity", 3).field
    points = ball_points(3, 100, 5.0, seed=1)
    report = verify_decomposition(field, points)
    assert report.passed
    assert report.max_orthogonality <= 1e-8
    assert report.max_radial_equality <= 1e-8
    # Idempotence compares the FD-of-potential gradient with the integral
    # route; both sit near 1e-11 normalized here, far inside this bound.
    assert report.max_idempotence <= 1e-6
    assert report.max_residual_potential <= 1e-8


def test_verify_random_linear_against_sym_skew():
    rng = np.random.Generator(np.random.Philox(42))
    a = rng.uniform(-1.0, 1.0, size=(5, 5))
    entry = catalog_field("linear", matrix=a)
    points = ball_points(5, 60, 3.0, seed=2)
    split = decompose_many(entry.field, points)
    sym = 0.5 * (a + a.T)
    skew = 0.5 * (a - a.T)
    grad_oracle = points @ sym.T
    u_oracle = points @ skew.T
    scale = 1.0 + np.linalg.norm(grad_oracle, axis=1, keepdims=True)
    assert np.all(np.abs(split.conservative - grad_oracle) <= 1e-6 * scale)
    assert np.all(np.abs(split.sphere_invariant - u_oracle) <= 1e-6 * scale)
    report = verify_decomposition(entry.field, points)
    assert report.passed


def test_verify_rotation_residual_potential_vanishes():
    field = catalog_field("rotation2d").field
    points = ball_points(2, 30, 4.0, seed=3)
    report = verify_decomposition(field, points)
    assert report.passed
    assert report.max_residual_potential <= 1e-10


def _cyclic_cubic(p):
    return p**3 + 0.3 * np.roll(p, -1, axis=1)


def test_verify_catches_broken_splits(monkeypatch):
    field = CallableField(3, _cyclic_cubic)
    points = ball_points(3, 12, 3.0, seed=4)
    threshold = 1e-6
    assert verify_decomposition(field, points, DEFAULT_QUADRATURE, threshold).passed
    homotopy_gradient = decomposition._homotopy_gradient

    def broken(change):
        def gradient(field, pts, cfg):
            grads, errors = homotopy_gradient(field, pts, cfg)
            return change(grads, pts), errors

        monkeypatch.setattr(decomposition, "_homotopy_gradient", gradient)

    # A mis-scaled gradient breaks the radial identities.
    broken(lambda grads, pts: 1.01 * grads)
    report = verify_decomposition(field, points, DEFAULT_QUADRATURE, threshold)
    assert not report.passed
    assert report.max_radial_equality > threshold
    assert report.max_orthogonality > threshold

    # A tangential (curl) error is invisible to every radial check, and to
    # the residual potential, whose nodes t x are orthogonal to it too;
    # only the comparison with the finite-difference route sees it.
    def curled(grads, pts):
        return grads + 1e-3 * np.stack([-pts[:, 1], pts[:, 0], np.zeros(len(pts))], axis=1)

    broken(curled)
    report = verify_decomposition(field, points, DEFAULT_QUADRATURE, threshold)
    assert not report.passed
    assert report.max_idempotence > threshold
    assert report.max_orthogonality <= 1e-9
    assert report.max_radial_equality <= 1e-9


def test_verify_fails_on_a_nan_maximum(monkeypatch):
    # A NaN idempotence residual must fail verification, also when it is
    # not the first of the four maxima (Python's max skips such a NaN).
    field = catalog_field("identity", 2).field

    def gradient_with_nan_row(field, pts, cfg):
        return np.where(np.arange(len(pts))[:, None] == 1, np.nan, pts)

    monkeypatch.setattr(decomposition, "gradient_potential_many", gradient_with_nan_row)
    report = verify_decomposition(field, [[1.0, 0.5], [0.3, -2.0]], DEFAULT_QUADRATURE, 1e-6)
    assert np.isnan(report.max_idempotence)
    assert report.max_orthogonality <= 1e-12
    assert not report.passed


def test_stencil_noise_floor_lets_opaque_rays_converge():
    # An opaque field's homotopy integrand carries the stencil's rounding
    # noise, of order eps |X| / step, which no subdivision resolves.
    # Without the noise floor these rays of radius 30 exhaust 64
    # subdivisions and raise QuadratureError.
    field = CallableField(2, _cyclic_cubic)
    points = ball_points(2, 200, 30.0, seed=5)
    grads = gradient_potential_integral_many(field, points, QuadratureConfig(max_subdivisions=64))
    twin = gradient_potential_integral_many(parse_field("x1^3 + 0.3*x2; x2^3 + 0.3*x1"), points)
    gap = np.linalg.norm(grads - twin, axis=1) / (1.0 + np.linalg.norm(twin, axis=1))
    assert gap.max() <= 1e-9


def test_verify_cost_stays_flat():
    counted = [0]

    def counting(p):
        counted[0] += p.shape[0]
        return _cyclic_cubic(p)

    field = CallableField(3, counting)
    points = ball_points(3, 10, 3.0, seed=4)
    decompose_many(field, points)
    split_points = counted[0]
    counted[0] = 0
    assert verify_decomposition(field, points).passed
    # One split of the points, one FD gradient at the points and one
    # homotopy-route pass at the order-many stacked ray nodes; a check that
    # nested a quadrature inside another would cost hundreds of splits.
    assert counted[0] <= (DEFAULT_QUADRATURE.order + 4) * split_points


def test_converged_rays_stop_paying_for_sharp_ones():
    # One sharp tanh front: the rays that cross it need many panels, the
    # others three.  Every ray integral is refined as an active set; with
    # shared panels all 200 rays would pay the worst ray's 624 nodes
    # (124800 leaf points for the potentials, 688000 for the integral
    # route).
    sharp = parse_field("tanh(20*(x1-1)); x2")
    counted = [0]

    def counting(p):
        counted[0] += p.shape[0]
        return sharp.evaluate_many(p)

    field = CallableField(2, counting)
    points = ball_points(2, 200, 3.0, seed=5)
    values, _ = potential_many(field, points)
    assert counted[0] <= 40_000
    counted[0] = 0
    grads = gradient_potential_integral_many(field, points)
    assert counted[0] <= 250_000

    def within_tolerance(got, alone):
        cfg = DEFAULT_QUADRATURE
        return np.all(np.abs(got - alone) <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(alone)))

    for x, value, grad in zip(points, values, grads):
        assert within_tolerance(value, potential_many(field, [x])[0][0])
        assert within_tolerance(grad, gradient_potential_integral_many(field, [x])[0])


@pytest.mark.parametrize(
    "field",
    [
        parse_field("tanh(20*(x1-1)); x2"),
        parse_field("sin(x1)*exp(-0.1*x2^2) + 0.5*x1; cos(x1 + x2) - 0.3*tanh(x2)"),
        # The table misses the tolerance at 42 of these points, which integrate.
        ShiftedField(parse_field("(x1-1)^20 + x1; x2^3 + x2"), [0.5, -0.5]),
    ],
    ids=["sharp", "trig", "shifted-table"],
)
@pytest.mark.parametrize("t0", [0.25, 0.5, 0.9])
def test_a_start_integrates_only_the_outer_part_of_each_ray(field, t0):
    # grad H(x) = t0 grad H(t0 x) + the integral over t in [t0, 1], so the
    # two routes differ by at most their error estimates, the start's
    # scaled by t0, and the rounding of their sums.
    cfg = DEFAULT_QUADRATURE
    points = np.vstack([np.zeros((1, 2)), ball_points(2, 100, 4.0, seed=3)])
    full, full_err = decomposition._homotopy_gradient(field, points, cfg)
    start = (t0,) + decomposition._homotopy_gradient(field, t0 * points, cfg)
    grads, errors = decomposition._homotopy_gradient(field, points, cfg, start)
    assert np.all(errors >= t0 * start[2])
    slack = 4.0 * np.finfo(float).eps * (1.0 + np.abs(full))
    assert np.all(np.abs(grads - full) <= errors + full_err + slack)


def test_potential_linearity():
    f = parse_field("x1^2; x2")
    g = catalog_field("rotation2d").field
    both = SumField(f, g)
    scaled = ScaledField(-2.5, f)
    points = ball_points(2, 20, 3.0, seed=6)
    h_f, _ = potential_many(f, points)
    h_g, _ = potential_many(g, points)
    h_sum, _ = potential_many(both, points)
    h_scaled, _ = potential_many(scaled, points)
    tol = 2e-10 * (1.0 + np.abs(h_f) + np.abs(h_g))
    assert np.all(np.abs(h_sum - (h_f + h_g)) <= tol)
    assert np.all(np.abs(h_scaled - (-2.5) * h_f) <= tol)


def test_both_gradient_routes_return_the_field_at_the_origin():
    entry = catalog_field("constant", value=[1.0, -0.5])
    origin = np.zeros((1, 2))
    expected = entry.field.evaluate_many(origin)
    fd = decomposition.gradient_potential_many(entry.field, origin)
    assert np.allclose(fd, expected, atol=1e-9)
    assert np.allclose(gradient_potential_integral_many(entry.field, origin), expected, atol=1e-12)


def test_two_gradient_routes_agree():
    fields = [
        parse_field("x1^2 - x2*x1; x2^3 + x1"),
        catalog_field("cubic_radial", 3).field,
        catalog_field("identity_plus_rotation2d").field,
    ]
    for field in fields:
        points = ball_points(field.dimension, 40, 5.0, seed=7)
        fd = decomposition.gradient_potential_many(field, points)
        integral = gradient_potential_integral_many(field, points)
        bound = 1e-5 * (1.0 + np.linalg.norm(fd, axis=1))
        assert np.all(np.linalg.norm(fd - integral, axis=1) <= bound)


def test_conservative_part_field_view():
    field = catalog_field("identity_plus_rotation2d").field
    conservative = ConservativePart(field)
    residual = SphereInvariantPart(field)
    x = np.array([0.4, -1.1])
    assert np.allclose(conservative.evaluate(x), x, atol=1e-9)
    assert np.allclose(residual.evaluate(x), [1.1, 0.4], atol=1e-9)


def test_ball_domain_clearance():
    inner = catalog_field("identity", 2).field
    field = BallRestrictedField(inner, 1.0)
    value, _ = potential_many(field, [[1.0, 0.0]])  # boundary point is fine
    assert value[0] == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(DomainError):
        # No room for the FD route's stencil.
        decomposition.gradient_potential_many(field, [[1.0, 0.0]])
    with pytest.raises(DomainError):
        potential_many(field, [[2.0, 0.0]])
    # The Jacobian fallback of a field without a closed form shares the
    # stencil and its clearance rule.
    fallback = BallRestrictedField(CallableField(2, lambda p: p.copy()), 1.0)
    with pytest.raises(DomainError):
        fallback.value_and_jacobian_many([[1.0, 0.0]])
    # An exact Jacobian needs no clearance, so grad H exists up to the boundary.
    assert np.allclose(ConservativePart(field).evaluate([1.0, 0.0]), [1.0, 0.0], rtol=0.0, atol=1e-12)
    # Certificates sample the sphere itself: the boundary is inside the
    # domain, a larger sphere is not.
    assert boundary_certificate(field, 1.0, check_conservative=False).passed
    with pytest.raises(DomainError):
        boundary_certificate(field, 2.0, check_conservative=False)


def test_exact_route_rejects_rays_that_leave_the_ball():
    # One Gauss node at t = 0.5 lies inside the unit ball for x = (2, 0);
    # the endpoint check must reject the ray before the exact rule runs.
    field = BallRestrictedField(catalog_field("identity", 2).field, 1.0)
    assert field.polynomial.degree == 1 and field.exact_jacobian
    with pytest.raises(DomainError):
        gradient_potential_integral_many(field, [[2.0, 0.0]])


def test_potentials_reject_points_just_outside_the_ball():
    # The adaptive nodes stop at t = 0.9974, inside the unit ball for
    # x = (1.002, 0); the ray's endpoint must be checked as well.
    field = BallRestrictedField(catalog_field("identity", 2).field, 1.0)
    with pytest.raises(DomainError):
        potential_many(field, [[1.002, 0.0]])
    with pytest.raises(DomainError):
        decompose_many(field, [[0.5, 0.0], [1.002, 0.0]])


# Every entry point that takes a point array, as a call on (field, points)
# returning its main array, with that array's shape per point; None for
# verify_decomposition, whose report has no empty form.
_POINT_ENTRIES = {
    "evaluate_many": (lambda f, p: f.evaluate_many(p), (2,)),
    "value_and_jacobian_many": (lambda f, p: f.value_and_jacobian_many(p)[1], (2, 2)),
    "potential_many": (lambda f, p: potential_many(f, p)[0], ()),
    "gradient_potential_many": (decomposition.gradient_potential_many, (2,)),
    "gradient_potential_integral_many": (gradient_potential_integral_many, (2,)),
    "decompose_many": (lambda f, p: decompose_many(f, p).sphere_invariant, (2,)),
    "ConservativePart": (lambda f, p: ConservativePart(f).evaluate_many(p), (2,)),
    "SphereInvariantPart": (lambda f, p: SphereInvariantPart(f).evaluate_many(p), (2,)),
    "verify_decomposition": (verify_decomposition, None),
}

_POINT_DEFECTS = {
    "wrong shape": (np.zeros((1, 3)), DimensionMismatchError),
    "ragged": ([[0.0, 0.5], [0.5]], DimensionMismatchError),
    "not numeric": ([["a", 0.5]], DimensionMismatchError),
    "text": ([["0.5", "0.0"]], DimensionMismatchError),
    "complex": (np.array([[0.5j, 0.0]]), DimensionMismatchError),
    "NaN": (np.array([[np.nan, 0.0]]), NonFiniteValueError),
    "inf": (np.array([[0.0, -np.inf]]), NonFiniteValueError),
    "outside the domain": (np.array([[0.0, 2.0]]), DomainError),
    "empty": (np.zeros((0, 2)), None),
}


@pytest.mark.parametrize("defect", _POINT_DEFECTS)
@pytest.mark.parametrize("entry", _POINT_ENTRIES)
def test_every_point_array_follows_one_rule(entry, defect):
    call, shape = _POINT_ENTRIES[entry]
    points, error = _POINT_DEFECTS[defect]
    field = BallRestrictedField(catalog_field("identity", 2).field, 1.0)
    if error is None and shape is not None:
        assert call(field, points).shape == (0, *shape)
    else:
        # verify_decomposition refuses an empty sample: it has no worst residual.
        with pytest.raises(error or ConfigError):
            call(field, points)


def test_an_overflowing_potential_names_its_field():
    # <X(t x), x> overflows on the ray of (1e200, 1e200) where X does not:
    # every line integral of it raises the error of fields._radial_values.
    field = parse_field("x1; x2")
    for call in (potential_many, decomposition.gradient_potential_many, decompose_many):
        with pytest.raises(NonFiniteValueError, match=r"<X\(x\), x> of field 'x1; x2' overflows"):
            call(field, [[1e200, 1e200]])


def test_fd_route_refines_each_entry_on_its_own():
    # Each FD-route entry is one integral of a difference quotient, so
    # the entries whose rays miss the tanh front converge on the first
    # three panels.  Shared panels cost 499200 leaf points on the sharp
    # field; smooth fields need 48 nodes per probe ray either way.
    trig = "sin(x1)*exp(-0.1*x2^2) + 0.5*x1; cos(x1 + x2) - 0.3*tanh(x2)"
    points = ball_points(2, 200, 3.0, seed=5)
    for text, leaf_points in [
        ("tanh(20*(x1-1)); x2", 157_696),
        ("x1^3 + 0.3*x2; x2^3 + 0.3*x1", 38_400),
        (trig, 38_400),
    ]:
        inner = parse_field(text)
        counted = [0]

        def counting(p, inner=inner):
            counted[0] += p.shape[0]
            return inner.evaluate_many(p)

        grads = decomposition.gradient_potential_many(CallableField(2, counting), points)
        assert counted[0] == leaf_points, text
        exact = gradient_potential_integral_many(inner, points)
        assert np.allclose(grads, exact, rtol=1e-8, atol=1e-8), text


def test_estimated_error_is_reported():
    field = parse_field("x1^3; x2")
    sample = decompose_many(field, [[2.0, 1.0]]).sample(0)
    assert np.isfinite(sample.estimated_error)
    assert sample.estimated_error >= 0.0
