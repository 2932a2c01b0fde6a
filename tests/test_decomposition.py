import dataclasses

import numpy as np
import pytest

from presnov import (
    BallRestrictedField,
    CallableField,
    ConservativePart,
    DomainError,
    ScaledField,
    SphereInvariantPart,
    SumField,
    catalog_field,
    compute_potential,
    decompose,
    decompose_many,
    gradient_potential,
    gradient_potential_integral,
    gradient_potential_integral_many,
    gradient_potential_many,
    parse_field,
    potential_many,
    verify_decomposition,
)
from presnov.decomposition import _verify_split
from presnov.quadrature import DEFAULT_QUADRATURE
from presnov.radial import boundary_certificate
from presnov.sampling import ball_points


def test_potential_hand_integral():
    # integrand of "x1^2; x2" at (1,1) is t^2 + t, so H = 1/3 + 1/2 = 5/6.
    field = parse_field("x1^2; x2")
    value, err = compute_potential(field, [1.0, 1.0])
    assert value == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert err >= 0.0


def test_potential_identity_norm_two():
    field = catalog_field("identity", 2).field
    value, _ = compute_potential(field, [1.2, 1.6])  # |x| = 2
    assert value == pytest.approx(2.0, abs=1e-12)


def test_potential_rotation_vanishes():
    field = catalog_field("rotation2d").field
    value, _ = compute_potential(field, [3.0, -7.0])
    assert value == pytest.approx(0.0, abs=1e-12)


def test_potential_origin_exact_zero():
    field = parse_field("exp(x1); sin(x2)")
    value, err = compute_potential(field, [0.0, 0.0])
    assert value == 0.0 and err == 0.0
    near = compute_potential(field, [1e-13, -1e-13])
    assert near == (0.0, 0.0)


def test_gradient_identity():
    field = catalog_field("identity", 2).field
    assert np.allclose(gradient_potential(field, [3.0, -4.0]), [3.0, -4.0], atol=1e-9)


def test_gradient_linear_symmetric_part():
    field = catalog_field("linear", matrix=[[1.0, 2.0], [0.0, 1.0]]).field
    # sym(A) = [[1,1],[1,1]]; sym(A) (1,0) = (1,1).
    assert np.allclose(gradient_potential(field, [1.0, 0.0]), [1.0, 1.0], atol=1e-9)


def test_gradient_expression_field():
    field = parse_field("x1^2; x2")
    assert np.allclose(gradient_potential(field, [1.0, 1.0]), [1.0, 1.0], atol=1e-9)


def test_gradient_integral_route_examples():
    ident = catalog_field("identity", 2).field
    assert np.allclose(gradient_potential_integral(ident, [3.0, -4.0]), [3.0, -4.0], atol=1e-9)
    rot = catalog_field("rotation2d").field
    assert np.allclose(gradient_potential_integral(rot, [0.3, 0.7]), [0.0, 0.0], atol=1e-9)
    lin = catalog_field("linear", matrix=[[1.0, 2.0], [0.0, 1.0]]).field
    assert np.allclose(gradient_potential_integral(lin, [0.0, 1.0]), [1.0, 1.0], atol=1e-9)


def test_decompose_linear_example():
    field = catalog_field("linear", matrix=[[1.0, 2.0], [0.0, 1.0]]).field
    sample = decompose(field, [1.0, 0.0])
    assert sample.potential == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(sample.conservative, [1.0, 1.0], atol=1e-9)
    assert np.allclose(sample.sphere_invariant, [0.0, -1.0], atol=1e-9)
    assert abs(sample.orthogonality_residual) <= 1e-9


def test_decompose_gradient_field_has_no_residual_part():
    field = parse_field("x1^2; x2")
    sample = decompose(field, [1.0, 1.0])
    assert np.allclose(sample.sphere_invariant, [0.0, 0.0], atol=1e-8)


def test_decompose_rotation_is_purely_sphere_invariant():
    field = catalog_field("rotation2d").field
    sample = decompose(field, [1.0, 0.0])
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


def test_verify_catches_broken_splits():
    field = CallableField(3, _cyclic_cubic)
    points = ball_points(3, 12, 3.0, seed=4)
    split = decompose_many(field, points)
    threshold = 1e-6
    assert _verify_split(field, split, DEFAULT_QUADRATURE, threshold).passed

    # A mis-scaled gradient breaks the radial identities, even though the
    # split's stored residuals still describe the unscaled one.
    scaled = dataclasses.replace(split, conservative=1.01 * split.conservative)
    report = _verify_split(field, scaled, DEFAULT_QUADRATURE, threshold)
    assert not report.passed
    assert report.max_radial_equality > threshold
    assert report.max_orthogonality > threshold

    # A tangential (curl) error is invisible to every radial check; only
    # the comparison with the integral route sees it.
    curl = np.stack([-points[:, 1], points[:, 0], np.zeros(len(points))], axis=1)
    twisted = dataclasses.replace(split, conservative=split.conservative + 1e-3 * curl)
    report = _verify_split(field, twisted, DEFAULT_QUADRATURE, threshold)
    assert not report.passed
    assert report.max_idempotence > threshold
    assert report.max_orthogonality <= 1e-9
    assert report.max_radial_equality <= 1e-9


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
    # others three.  Shared refinement made all 200 rays pay the worst
    # ray's 624 nodes (124800 leaf points for the potentials, 688000 for
    # the integral route).
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
        assert within_tolerance(value, compute_potential(field, x)[0])
        assert within_tolerance(grad, gradient_potential_integral(field, x))


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
    assert np.allclose(gradient_potential_many(entry.field, origin), expected, atol=1e-9)
    assert np.allclose(gradient_potential_integral_many(entry.field, origin), expected, atol=1e-12)


def test_two_gradient_routes_agree():
    fields = [
        parse_field("x1^2 - x2*x1; x2^3 + x1"),
        catalog_field("cubic_radial", 3).field,
        catalog_field("identity_plus_rotation2d").field,
    ]
    for field in fields:
        points = ball_points(field.dimension, 40, 5.0, seed=7)
        fd = gradient_potential_many(field, points)
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
    value, _ = compute_potential(field, [1.0, 0.0])  # boundary point is fine
    assert value == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(DomainError):
        gradient_potential(field, [1.0, 0.0])  # no room for the FD route's stencil
    with pytest.raises(DomainError):
        compute_potential(field, [2.0, 0.0])
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


def test_estimated_error_is_reported():
    field = parse_field("x1^3; x2")
    sample = decompose(field, [2.0, 1.0])
    assert np.isfinite(sample.estimated_error)
    assert sample.estimated_error >= 0.0
