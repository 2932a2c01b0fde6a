from collections import Counter

import numpy as np
import pytest

from presnov import (
    CallableField,
    CertificateError,
    ConfigError,
    NoCertifiedRadiusError,
    NonFiniteValueError,
    ShiftedField,
    SolverConfig,
    catalog_field,
    find_equilibrium,
    find_equilibrium_conservative,
    parse_field,
    perturbed_existence,
)
from presnov import equilibria
from presnov.decomposition import ConservativePart
from presnov.equilibria import _ARMIJO, _MIN_STEP, _RUNGS, _newton_from, _norm, _project
from presnov.fields import VectorField
from presnov.radial import VERDICT_NOT_COERCIVE, boundary_certificate
from presnov.sampling import ball_points


def test_identity_equilibrium_at_origin():
    result = find_equilibrium(catalog_field("identity", 2).field, 1.0)
    assert result.success
    assert result.residual <= 1e-10
    assert np.linalg.norm(result.point) <= 1e-10
    assert result.inside_ball
    assert not result.degenerate
    assert result.certificate.passed


def test_complex_eigenvalue_linear_field():
    # eigenvalues 1 +- i; invertible, so the origin is the unique zero,
    # and <A x, x> = |x|^2 certifies any sphere.
    field = parse_field("x1 - x2; x1 + x2")
    result = find_equilibrium(field, 2.0)
    assert result.success
    assert np.linalg.norm(result.point) <= 1e-9


def test_shifted_identity_equilibrium():
    field = ShiftedField(catalog_field("identity", 2).field, [3.0, -4.0])
    result = find_equilibrium(field, 6.0)
    assert result.success
    assert np.allclose(result.point, [-3.0, 4.0], atol=1e-8)
    assert result.inside_ball
    # independent re-evaluation honors the residual contract
    assert np.linalg.norm(field.evaluate(result.point)) <= 1e-10


def test_rotation_certificate_blocks_solver():
    field = catalog_field("rotation2d").field
    with pytest.raises(CertificateError):
        find_equilibrium(field, 1.0)


def test_rotation_conservative_is_degenerate_success_under_override():
    field = catalog_field("rotation2d").field
    result = find_equilibrium_conservative(field, 1.0, allow_uncertified=True)
    assert result.success
    assert result.residual <= 1e-10
    assert result.degenerate  # grad H vanishes identically: a continuum
    assert result.certificate_overridden
    assert result.minimizer_check is True
    assert any("continuum" in w for w in result.warnings)


def test_singular_symmetric_part_fails_certificate():
    field = catalog_field("linear", matrix=[[1.0, 2.0], [0.0, 1.0]]).field
    with pytest.raises(CertificateError):
        find_equilibrium_conservative(field, 1.0)


def test_conservative_solve_of_shifted_gradient_field():
    # grad H of ("x1^2; x2") + b is (x1^2 - 0.25, x2 - 0.5): zeros at
    # (+-0.5, 0.5), both inside the ball of radius 2.  The certificate
    # fails on that sphere (the radial value is negative at (-2, 0)),
    # so the solve runs under an explicit override.
    field = ShiftedField(parse_field("x1^2; x2"), [-0.25, -0.5])
    result = find_equilibrium_conservative(field, 2.0, allow_uncertified=True)
    assert result.success
    assert result.residual <= 1e-10
    roots = np.array([[0.5, 0.5], [-0.5, 0.5]])
    assert min(np.linalg.norm(result.point - r) for r in roots) <= 1e-6
    assert result.inside_ball
    if np.allclose(result.point, [0.5, 0.5], atol=1e-3):
        assert result.minimizer_check is True


@pytest.mark.parametrize("text", ["x1^3 - x1; x2^3 - x2", "x1^3 - x1; x2^3 + x2"])
def test_minimizer_check_flags_a_maximum_and_a_saddle(text):
    # Both fields are gradients, of H = x1^4/4 - x1^2/2 + x2^4/4 -+ x2^2/2,
    # and the start at the origin is already a zero: a maximum of H for
    # the first field, a saddle for the second.
    result = find_equilibrium_conservative(parse_field(text), 2.0)
    assert result.success
    assert np.linalg.norm(result.point) <= 1e-10
    assert result.minimizer_check is False
    assert any("saddle or maximum" in w for w in result.warnings)


def test_minimizer_check_reads_the_hessian_not_a_probe_step():
    # H = x1^2/2 - 25000 x1^4 + x2^2/2 has a strict minimizer at the origin
    # with Hessian I, but its basin is only about 0.003 wide in x1: a
    # potential probe a step 1e-3 r = 0.01 away lands past the ridge.
    field = parse_field("x1 - 100000*x1^3; x2")
    result = find_equilibrium_conservative(field, 10.0, allow_uncertified=True)
    assert result.success
    assert np.linalg.norm(result.point) <= 1e-10
    assert result.minimizer_check is True
    assert not any("saddle or maximum" in w for w in result.warnings)


def test_a_certificate_for_another_sphere_is_refused():
    # The radius-10 certificate passes, but the unit ball holds no zero of
    # X = x + (3, 0); the solvers must not take it for the unit sphere's.
    field = ShiftedField(catalog_field("identity", 2).field, [3.0, 0.0])
    certificate = boundary_certificate(field, 10.0, check_conservative=False)
    assert certificate.passed
    for solver in (find_equilibrium, find_equilibrium_conservative):
        with pytest.raises(ConfigError, match="radius 10"):
            solver(field, 1.0, certificate=certificate)
        assert solver(field, 10, certificate=certificate).success


def test_failure_returns_best_residual():
    for value in ([1.0, 1.0], [1.0, 0.0]):
        field = catalog_field("constant", value=value).field
        result = find_equilibrium(field, 1.0, allow_uncertified=True)
        assert not result.success
        assert result.residual == pytest.approx(np.linalg.norm(value), rel=1e-12)
        assert result.certificate_overridden
        # The merit gradient of a constant field is zero, so every start
        # stops before its first Newton step.
        assert result.iterations == 0


def test_an_overflowing_merit_gradient_is_a_non_finite_error():
    # J^T X is 1e400 at the origin, the first start; numpy would warn and
    # the descent fallback would carry NaN into the next trial points.
    field = parse_field("1e200*x1 + 1e200; x2")
    with pytest.raises(NonFiniteValueError, match="merit gradient"):
        find_equilibrium(field, 3.0, allow_uncertified=True)


def test_a_start_returns_its_last_iterate_with_its_jacobian(monkeypatch):
    # exp(x1); x2^2 + 1 has no zero: shifted by this offset, the run ends
    # on a plateau of residual 1.40991 where accepted steps tie.  The start
    # must still return its last accepted point, count exactly its
    # accepted steps, and carry that point's own Jacobian.
    field = ShiftedField(parse_field("exp(x1); x2^2 + 1"), ball_points(2, 10, 2.0, 5)[0])
    accepted = []
    armijo_step = equilibria._armijo_step

    def recording(*args):
        outcome = armijo_step(*args)
        if outcome is not None:
            accepted.append(outcome)
        return outcome

    monkeypatch.setattr(equilibria, "_armijo_step", recording)
    x, res, jac, taken, converged = _newton_from(field, np.zeros(2), 3.0, SolverConfig())
    assert not converged and res == pytest.approx(1.40991, abs=1e-5)
    assert taken == len(accepted) > 100
    assert x is accepted[-1][0] and res == accepted[-1][2]
    assert np.array_equal(jac, field.value_and_jacobian_many(x[None, :])[1][0])


@pytest.mark.parametrize(
    "residuals,kept",
    [
        # Ties up to rounding keep the earliest start.
        ([1.0, 1.0 - 1e-15, 1.0 - 2e-15], 0),
        # A drop larger than residual_tol (1e-10) displaces it.
        ([1.0, 1.0 - 2e-10, 1.0 - 2e-10 - 1e-15], 1),
    ],
)
def test_failed_multistart_keeps_the_earliest_of_tied_starts(monkeypatch, residuals, kept):
    starts = []

    def newton_from(field, x0, radius, cfg):
        starts.append(np.array(x0))
        return starts[-1], residuals[len(starts) - 1], None, len(starts), False

    monkeypatch.setattr(equilibria, "_newton_from", newton_from)
    field = catalog_field("identity", 2).field
    cfg = SolverConfig(multistart=len(residuals) - 1)
    x, res, _, attempted, iters, converged = equilibria._solve_multistart(field, 1.0, cfg)
    assert not converged and attempted == len(residuals)
    assert x is starts[kept] and res == residuals[kept] and iters == kept + 1


def test_both_targets_report_failure_and_degeneracy_alike():
    # A constant field has no zero, and both it and its conservative part
    # have a singular Jacobian, so each solve fails at a degenerate point
    # and must say both.
    field = catalog_field("constant", value=[1.0, 0.0]).field
    for solver in (find_equilibrium, find_equilibrium_conservative):
        result = solver(field, 1.0, SolverConfig(multistart=2), allow_uncertified=True)
        assert not result.success and result.degenerate
        assert any("cannot guarantee the true boundary condition" in w for w in result.warnings)
        assert any("continuum" in w for w in result.warnings)


def test_perturbed_identity():
    out = perturbed_existence(catalog_field("identity", 2).field, [3.0, -4.0])
    assert out.rho == 8.0
    assert np.allclose(out.field_result.point, [-3.0, 4.0], atol=1e-8)
    assert np.allclose(out.conservative_result.point, [-3.0, 4.0], atol=1e-8)
    assert out.certificate.margin >= 0.1 * out.rho**2
    assert out.warnings == ()


def test_perturbed_cubic_radial():
    out = perturbed_existence(catalog_field("cubic_radial", 3).field, [0.0, 0.0, -8.0])
    assert np.allclose(out.field_result.point, [0.0, 0.0, 2.0], atol=1e-8)
    assert np.allclose(out.conservative_result.point, [0.0, 0.0, 2.0], atol=1e-8)
    assert out.field_result.inside_ball and out.conservative_result.inside_ball
    assert out.rho == 4.0


def test_perturbed_rotation_has_no_certified_radius():
    field = catalog_field("rotation2d").field
    with pytest.raises(NoCertifiedRadiusError) as info:
        perturbed_existence(field, [1.0, 0.0], max_radius_exponent=10)
    assert info.value.probe_verdict == VERDICT_NOT_COERCIVE


def test_translation_consistency_against_linear_solve():
    rng = np.random.Generator(np.random.Philox(21))
    a = np.eye(3) + 0.1 * rng.uniform(-1.0, 1.0, size=(3, 3))
    b = rng.uniform(-0.4, 0.4, size=3)
    field = ShiftedField(catalog_field("linear", matrix=a).field, b)
    result = find_equilibrium(field, 3.0)
    oracle = -np.linalg.solve(a, b)
    assert result.success
    assert np.linalg.norm(result.point - oracle) <= 1e-8


def test_solver_determinism():
    field = ShiftedField(catalog_field("cubic_radial", 2).field, [0.3, 0.4])
    cfg = SolverConfig(seed=5)
    r1 = find_equilibrium(field, 2.0, cfg)
    r2 = find_equilibrium(field, 2.0, cfg)
    assert np.array_equal(r1.point, r2.point)
    assert r1.residual == r2.residual
    assert r1.iterations == r2.iterations


def test_strict_ball_containment():
    field = ShiftedField(catalog_field("identity", 2).field, [3.0, -4.0])
    result = find_equilibrium(field, 5.5)
    assert result.success
    assert np.linalg.norm(result.point) < 5.5


def test_co_existence_across_certifiable_catalog():
    # Every catalog field whose certificate passes at some radius must
    # yield equilibria for both the field and its conservative part there.
    candidates = [
        (catalog_field("identity", 3).field, 1.0),
        (catalog_field("gradient_poly", 2).field, 1.0),
        (catalog_field("cubic_radial", 2).field, 1.0),
        (catalog_field("identity_plus_rotation2d").field, 1.0),
        (catalog_field("linear", matrix=[[2.0, 1.0], [-1.0, 3.0]]).field, 1.5),
    ]
    for field, radius in candidates:
        rx = find_equilibrium(field, radius)
        rg = find_equilibrium_conservative(field, radius)
        assert rx.certificate.passed
        assert rx.success and rg.success
        assert np.linalg.norm(rx.point) < radius
        assert np.linalg.norm(rg.point) < radius


def test_fd_jacobian_of_linear_field_is_exact():
    # Coordinates fall on both sides of |x_i| = 1, so both step regimes
    # (h = cbrt(eps) and h = cbrt(eps) |x_i|) of the shared stencil run.
    # The field has no closed-form Jacobian, so value_and_jacobian_many
    # falls back to the stencil.
    a = np.random.default_rng(4).normal(size=(4, 4))
    field = CallableField(4, lambda p: p @ a.T)
    assert not field.exact_jacobian
    points = ball_points(4, 200, 5.0, 3)
    assert (np.abs(points) < 1.0).any() and (np.abs(points) > 1.0).any()
    _, jac = field.value_and_jacobian_many(points)
    for x, jac_x in zip(points, jac):
        tol = 1e-9 * (1.0 + np.linalg.norm(a @ x))
        assert np.max(np.abs(jac_x - a)) <= tol


def _backtracking_newton(field, radius, cfg):
    """Newton from the origin with one Armijo trial per field call.

    Returns the point, the steps taken and the most halvings one step
    needed.
    """
    x = np.zeros(field.dimension)
    fx = field.evaluate(x)
    res = _norm(fx)
    taken = deepest = 0
    while taken < cfg.max_iterations and res > cfg.residual_tol:
        jac = field.value_and_jacobian_many(x[None, :])[1][0]
        step = np.linalg.solve(jac, -fx)
        directional = float((jac.T @ fx) @ step)
        merit = 0.5 * res * res
        alpha, halvings = 1.0, 0
        while True:
            assert alpha >= _MIN_STEP
            trial = _project(x + alpha * step, radius)
            trial_f = field.evaluate(trial)
            trial_res = _norm(trial_f)
            if 0.5 * trial_res * trial_res <= merit + _ARMIJO * alpha * directional:
                break
            alpha *= 0.5
            halvings += 1
        x, fx, res = trial, trial_f, trial_res
        taken += 1
        deepest = max(deepest, halvings)
    assert res <= cfg.residual_tol
    return x, taken, deepest


def test_batched_line_search_takes_the_first_armijo_step():
    # From the origin the Newton step of tanh(3 (x1 - 1)) overshoots the
    # zero (1, 0) by a factor of about 30, so the full step fails the
    # Armijo test for several halvings.
    field = parse_field("tanh(3*(x1-1)); x2")
    cfg = SolverConfig()
    point, taken, deepest = _backtracking_newton(field, 4.0, cfg)
    assert deepest >= 4
    result = find_equilibrium(field, 4.0, cfg)
    assert np.array_equal(result.point, point)
    assert result.iterations == taken
    assert result.starts_attempted == 1


class _CountingField(VectorField):
    """Delegates to a field and counts its calls by method."""

    def __init__(self, inner):
        super().__init__(inner.dimension, inner.label, inner.domain)
        self.inner = inner
        self.exact_jacobian = inner.exact_jacobian
        self.calls = Counter()

    def _evaluate_many(self, points):
        self.calls["evaluate_many"] += 1
        return self.inner.evaluate_many(points)

    def _value_and_jacobian_many(self, points):
        self.calls["value_and_jacobian_many"] += 1
        return self.inner.value_and_jacobian_many(points)


# Components of the offset below 1 keep grad H(+-h e_i) = b +- h^3 e_i
# apart in rounding, so the stencil Hessian of H at the origin is h^2 I.
_STALLING_OFFSET = [0.5, -0.75, 0.25]


def test_solver_call_counts_are_pinned():
    # Leaf field calls of a whole solve: the certificate, every start's
    # line searches and the degeneracy check, whose Jacobian (for grad H,
    # the Hessian of H) also decides the minimizer check.  A rise means
    # the solver lost a batch or a reused Jacobian.
    leaf = _CountingField(parse_field("tanh(3*(x1-1)); x2"))
    assert find_equilibrium(leaf, 4.0).success
    assert leaf.calls == {"evaluate_many": 3, "value_and_jacobian_many": 6}
    leaf = _CountingField(catalog_field("cubic_radial", 3).field)
    assert find_equilibrium_conservative(ShiftedField(leaf, _STALLING_OFFSET), 2.0).success
    assert leaf.calls == {"evaluate_many": 2, "value_and_jacobian_many": 14}


def test_a_stalled_line_search_costs_one_call_per_rung():
    # At the origin the stencil Hessian of H is about h^2 I = 3.7e-11 I,
    # so the Newton step is some 3e10 long and every trial of the ladder,
    # down to _MIN_STEP, projects to one boundary point, where the merit
    # is larger.  The 31 trials must cost one quadrature per rung, not
    # one each.
    leaf = _CountingField(catalog_field("cubic_radial", 3).field)
    target = ConservativePart(ShiftedField(leaf, _STALLING_OFFSET))
    value, jac = target.value_and_jacobian_many(np.zeros((1, 3)))
    assert _MIN_STEP * _norm(np.linalg.solve(jac[0], -value[0])) > 2.0
    leaf.calls.clear()
    point, _, _, taken, converged = _newton_from(target, np.zeros(3), 2.0, SolverConfig())
    assert taken == 0 and not converged
    assert np.array_equal(point, np.zeros(3))
    # The start's stencil: X(0) at its centre row, one quadrature for the
    # rest.  Then one quadrature per rung.
    assert leaf.calls == {"evaluate_many": 1, "value_and_jacobian_many": 1 + len(_RUNGS)}
    assert len(_RUNGS) == 5


def test_a_start_stopped_by_max_iterations_skips_the_unread_jacobian():
    # From the origin the full Newton step of tanh(3 (x1 - 1)) fails the
    # Armijo test (see above), so the one step allowed is accepted from a
    # later rung, whose call computes no Jacobian.  The run stops there,
    # and only a returned point gets its Jacobian, from one more call.
    leaf = _CountingField(parse_field("tanh(3*(x1-1)); x2"))
    cfg = SolverConfig(max_iterations=1, multistart=0)
    _, _, jac, taken, converged = _newton_from(leaf, np.zeros(2), 4.0, cfg)
    assert leaf.calls["value_and_jacobian_many"] == 2  # the start and the full step
    assert taken == 1 and not converged and jac is None
    leaf.calls.clear()
    assert not find_equilibrium(leaf, 4.0, cfg).success
    assert leaf.calls["value_and_jacobian_many"] == 3


def test_a_tabled_origin_start_stops_without_a_ladder():
    # With its table, cubic_radial's Hessian of H at the origin is exactly
    # 0, not the stencil's h^2 I, so J^T X = 0 and the origin start stops
    # before its first step, with no ladder call.
    shifted = ShiftedField(catalog_field("cubic_radial", 3).field, _STALLING_OFFSET)
    target = _CountingField(ConservativePart(shifted))
    assert target.exact_jacobian
    assert not target.value_and_jacobian_many(np.zeros((1, 3)))[1].any()
    target.calls.clear()
    point, _, _, taken, converged = _newton_from(target, np.zeros(3), 2.0, SolverConfig())
    assert taken == 0 and not converged and not point.any()
    assert target.calls == {"value_and_jacobian_many": 1}
    result = find_equilibrium_conservative(shifted, 2.0)
    assert result.success and result.minimizer_check and result.starts_attempted == 2


@pytest.mark.parametrize("sharpness", [20, 60])
def test_sharp_fronts_solve_as_before(sharpness):
    # grad H + b for X = (tanh(k (x1 - 1)), x2): a zero at
    # (1 + atanh(-b1) / k, -b2) when |b1| < 1, none otherwise, where the
    # best residual is |b1| - 1 on the flat side of the front.  The
    # offsets are three of a seeded sample of the radius-4 ball.
    field = parse_field(f"tanh({sharpness}*(x1-1)); x2")
    for b in ball_points(2, 60, 4.0, 11)[4:7]:
        result = find_equilibrium_conservative(
            ShiftedField(field, b), 4.0, allow_uncertified=True
        )
        if abs(b[0]) < 1.0:
            assert result.success
            zero = [1.0 + np.arctanh(-b[0]) / sharpness, -b[1]]
            assert np.allclose(result.point, zero, atol=1e-8)
        else:
            assert not result.success
            assert result.residual == pytest.approx(abs(b[0]) - 1.0, rel=1e-9)
            # The point is not critical, however flat H is around it.
            assert result.minimizer_check is False
