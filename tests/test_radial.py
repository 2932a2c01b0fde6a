import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presnov import (
    BallRestrictedField,
    CallableField,
    ConservativePart,
    DimensionMismatchError,
    DomainError,
    ProbeConfig,
    ScaledField,
    ShiftedField,
    SumField,
    boundary_certificate,
    catalog_field,
    coercivity_probe,
    paired_probe,
    parse_field,
    radial_profile,
)
from presnov.decomposition import _homotopy_gradient, gradient_potential_many
from presnov.fields import VectorField
from presnov.quadrature import DEFAULT_QUADRATURE
from presnov.radial import (
    _FLAT_TOL,
    VERDICT_COERCIVE,
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_COERCIVE,
    _find_witness,
)
from presnov.sampling import unit_directions

FAST_PROBE = ProbeConfig(radius_count=8, directions=64)


def test_radial_profile_identity():
    field = catalog_field("identity", 3).field
    dirs = unit_directions(3, 32, seed=0)
    assert np.allclose(radial_profile(field, 7.0, dirs), 7.0, atol=1e-12)


def test_radial_profile_constant_independent_of_radius():
    c = np.array([1.0, 0.0])
    field = catalog_field("constant", value=c).field
    dirs = unit_directions(2, 64, seed=1)
    small = radial_profile(field, 1.0, dirs)
    large = radial_profile(field, 1e6, dirs)
    assert np.allclose(small, dirs @ c, atol=1e-12)
    assert np.allclose(small, large, atol=1e-9)
    assert np.all(np.abs(small) <= 1.0 + 1e-12)


def test_radial_profile_cubic():
    field = catalog_field("cubic_radial", 3).field
    dirs = unit_directions(3, 16, seed=2)
    assert np.allclose(radial_profile(field, 3.0, dirs), 27.0, rtol=1e-12)


def test_radial_profile_refuses_ragged_directions():
    field = catalog_field("identity", 2).field
    with pytest.raises(DimensionMismatchError):
        radial_profile(field, 1.0, [[1.0, 0.0], [1.0]])


def test_probe_identity_coercive():
    report = coercivity_probe(catalog_field("identity", 2).field, FAST_PROBE)
    assert report.verdict == VERDICT_COERCIVE
    assert report.witness is None
    assert np.all(np.diff(report.min_per_radius) > 0)


def test_a_two_radius_schedule_has_no_bounded_witness():
    # The last third of two radii is empty, which bounds nothing: the
    # identity's profile doubles, short of the growth floor of 4.
    report = coercivity_probe(catalog_field("identity", 2).field, ProbeConfig(radius_count=2))
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.witness is None


def test_an_overflowing_growth_floor_is_never_met():
    # 1e308 times the first profile overflows; no profile meets that floor.
    cfg = ProbeConfig(initial_radius=2.0, radius_count=2, directions=1, growth_floor_factor=1e308)
    report = coercivity_probe(catalog_field("identity", 2).field, cfg)
    assert report.verdict == VERDICT_INCONCLUSIVE


def test_probe_rotation_not_coercive():
    report = coercivity_probe(catalog_field("rotation2d").field, FAST_PROBE)
    assert report.verdict == VERDICT_NOT_COERCIVE
    assert report.witness is not None
    assert np.allclose(report.profiles, 0.0, atol=1e-9)


def test_probe_constant_not_coercive():
    report = coercivity_probe(
        catalog_field("constant", value=[1.0, 0.0]).field, FAST_PROBE
    )
    assert report.verdict == VERDICT_NOT_COERCIVE
    assert report.witness.kind in ("non-increasing", "bounded")


def test_probe_finds_a_bounded_witness():
    # X(y) = sign(y) h(|y|) has the profile h(r) along both directions of
    # the line.  h rises and falls in turn, so no two steps in a row fail
    # to rise, but its tail 1.5, 2.5 stays below the ceiling 3 of the
    # first four radii.
    radii = 2.0 ** np.arange(6)
    h = np.array([0.0, 3.0, 1.0, 2.0, 1.5, 2.5])
    field = CallableField(1, lambda p: np.sign(p) * np.interp(np.abs(p), radii, h))
    report = coercivity_probe(field, ProbeConfig(radius_count=6, directions=2))
    assert report.verdict == VERDICT_NOT_COERCIVE
    witness = report.witness
    assert witness.kind == "bounded"
    assert witness.direction_index == 0
    assert np.array_equal(witness.radii, radii)
    assert np.array_equal(witness.profile, h)
    assert np.array_equal(np.abs(witness.point), [32.0])
    assert np.array_equal(witness.point, 32.0 * witness.direction)


def _reference_witness(radii, profiles, directions):
    """The witness search as a loop over directions with a run counter."""
    count = radii.size
    tail_start = max(2, (2 * count) // 3)
    for j in range(directions.shape[0]):
        p = profiles[:, j]
        slack = _FLAT_TOL * (1.0 + np.abs(p[:-1]))
        nonincr = p[1:] <= p[:-1] + slack
        run = 0
        for k, flag in enumerate(nonincr):
            run = run + 1 if flag else 0
            if run >= 2:
                window = slice(k - 1, k + 2)
                return ("non-increasing", j, radii[window], p[window], radii[k + 1] * directions[j])
        ceiling = p[:tail_start].max()
        tail = p[tail_start:]
        if tail.size and np.all(tail <= ceiling + _FLAT_TOL * (1.0 + abs(ceiling))):
            return ("bounded", j, radii, p, radii[-1] * directions[j])
    return None


def _column(moves):
    """A profile column: fresh values, exact slack ties with the previous
    value or with the running maximum, and values one ulp above a tie."""
    column = []
    for kind, value in moves:
        if not column or kind == "fresh":
            column.append(value)
            continue
        base = column[-1] if kind in ("tie", "above") else max(column)
        tie = base + _FLAT_TOL * (1.0 + abs(base))
        column.append(float(np.nextafter(tie, np.inf)) if kind == "above" else tie)
    return column


_MOVES = st.tuples(
    st.sampled_from(["fresh", "fresh", "tie", "ceiling", "above"]),
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 1e6]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 7).flatmap(
    lambda count: st.lists(st.lists(_MOVES, min_size=count, max_size=count), min_size=1, max_size=4)
))
def test_witness_search_matches_the_per_direction_loop(columns):
    profiles = np.array([_column(moves) for moves in columns]).T
    count, width = profiles.shape
    radii = 2.0 ** np.arange(count)
    directions = np.linspace(-1.0, 1.0, 2 * width).reshape(width, 2)
    expected = _reference_witness(radii, profiles, directions)
    got = _find_witness(radii, profiles, directions)
    if expected is None:
        assert got is None
        return
    kind, j, w_radii, w_profile, w_point = expected
    assert (got.kind, got.direction_index) == (kind, j)
    assert np.array_equal(got.direction, directions[j])
    assert np.array_equal(got.radii, w_radii)
    assert np.array_equal(got.profile, w_profile)
    assert np.array_equal(got.point, w_point)


def test_probe_rejects_ball_domains():
    field = BallRestrictedField(catalog_field("identity", 2).field, 3.0)
    with pytest.raises(DomainError):
        coercivity_probe(field, FAST_PROBE)


def test_probe_reports_are_deterministic():
    field = catalog_field("gradient_poly", 3).field
    a = coercivity_probe(field, FAST_PROBE)
    b = coercivity_probe(field, FAST_PROBE)
    assert np.array_equal(a.profiles, b.profiles)
    assert np.array_equal(a.directions, b.directions)
    assert a.verdict == b.verdict
    other = coercivity_probe(field, ProbeConfig(radius_count=8, directions=64, seed=9))
    assert not np.array_equal(a.directions, other.directions)


def test_paired_probe_identity_plus_rotation():
    paired = paired_probe(catalog_field("identity_plus_rotation2d").field, FAST_PROBE)
    assert paired.field_report.verdict == VERDICT_COERCIVE
    assert paired.conservative_report.verdict == VERDICT_COERCIVE
    assert paired.verdicts_agree
    assert paired.max_profile_discrepancy <= 1e-6


def test_paired_probe_rotation():
    paired = paired_probe(catalog_field("rotation2d").field, FAST_PROBE)
    assert paired.field_report.verdict == VERDICT_NOT_COERCIVE
    assert paired.conservative_report.verdict == VERDICT_NOT_COERCIVE
    assert np.allclose(paired.field_report.profiles, 0.0, atol=1e-9)
    assert np.allclose(paired.conservative_report.profiles, 0.0, atol=1e-6)


def test_paired_probe_singular_symmetric_part():
    # sym([[1,2],[0,1]]) has eigenvalues 0 and 2; the null direction
    # (1,-1)/sqrt(2) lies on the planar sampling grid, so the profile is
    # flat zero along it and both probes must report a witness.
    field = catalog_field("linear", matrix=[[1.0, 2.0], [0.0, 1.0]]).field
    paired = paired_probe(field, FAST_PROBE)
    assert paired.field_report.verdict == VERDICT_NOT_COERCIVE
    assert paired.conservative_report.verdict == VERDICT_NOT_COERCIVE
    assert paired.max_profile_discrepancy <= 1e-6


def test_paired_probe_sharp_field_fd_profile_matches_field_profile_at_largest_radius():
    # The paired probe takes grad H from the homotopy route.  The FD route,
    # kept as its cross-check, is a central difference of potentials
    # H(x +/- h e_i), integrated as one difference quotient per entry, so
    # the quadrature error is bounded on the derivative itself.  At the
    # probe's largest radius (2048, where the tanh front is sharpest along
    # a ray) the FD profile's gap is 1.7e-11.  Shared panels for all the
    # potentials gave 4.5e-11, and refining each potential on its own
    # panels, whose errors are then divided by 2h, gave 5.0e-8.
    field = parse_field("tanh(20*(x1-1)); x2; x3")
    paired = paired_probe(field)
    assert paired.verdicts_agree
    assert paired.max_profile_discrepancy <= 1e-8
    radius = paired.field_report.radii[-1]
    points = radius * paired.field_report.directions
    fd_profile = np.einsum("ij,ij->i", gradient_potential_many(field, points), points) / radius
    phi = paired.field_report.profiles[-1]
    assert np.max(np.abs(fd_profile - phi) / (1.0 + np.abs(phi))) <= 1e-8


def _sharp_front(p):
    return np.column_stack((np.tanh(20.0 * (p[:, 0] - 1.0)), p[:, 1]))


@pytest.mark.parametrize(
    "field",
    [
        parse_field("tanh(20*(x1-1)); x2"),
        parse_field("tanh(20*(x1-1)); x2; x3"),
        parse_field("sin(x1)*exp(-0.1*x2^2) + 0.5*x1; cos(x1 + x2) - 0.3*tanh(x2)"),
        # Its table misses the tolerance at some probe points beyond the
        # first radius, and those integrate from the start.
        ShiftedField(parse_field("(x1-1)^20 + x1; x2^3 + x2"), [0.5, -0.5]),
    ],
    ids=["sharp2", "sharp3", "trig", "shifted-table"],
)
def test_conservative_profiles_by_the_ray_recurrence_match_each_radius_alone(field):
    # The probe takes grad H(r_k d) as (r_{k-1} / r_k) grad H(r_{k-1} d)
    # plus the integral over the outer part of the ray.  Its profile
    # differs from grad H by the whole-ray integral, the route of
    # ConservativePart.evaluate_many, by at most the two error estimates,
    # the recurrence's propagated along the schedule, and the rounding of
    # the sums.
    config, quadrature = ProbeConfig(directions=32), DEFAULT_QUADRATURE
    profiles = coercivity_probe(ConservativePart(field, quadrature), config).profiles
    radii = config.radii()
    directions = unit_directions(field.dimension, 32, config.seed)
    slack = 4.0 * np.finfo(float).eps
    for k, radius in enumerate(radii):
        points = radius * directions
        start = None if k == 0 else (radii[k - 1] / radius, grads, errors)
        grads, errors = _homotopy_gradient(field, points, quadrature, start)
        assert np.array_equal(profiles[k], np.einsum("ij,ij->i", grads, points) / radius)
        alone, alone_errors = _homotopy_gradient(field, points, quadrature)
        bound = np.abs(directions) * (errors + alone_errors + slack * (1.0 + np.abs(alone)))
        gap = np.abs(profiles[k] - np.einsum("ij,ij->i", alone, points) / radius)
        assert np.all(gap <= bound.sum(axis=1))
    if isinstance(field, ShiftedField):
        outer = (radii[1:, None, None] * directions).reshape(-1, 2)
        table = field.inner.polynomial.gradient_potential
        tol = (quadrature.abs_tol, quadrature.rel_tol)
        assert not table.value_within(outer, *tol, field.offset)[2].all()


def test_the_ray_recurrence_takes_a_quarter_of_the_leaf_points():
    # Radius by radius, each ray through the front at t = 1 / (r d1) is
    # resolved again at every radius; by the recurrence only the first
    # radii see the front at all.
    counted = [0]

    def values(p):
        counted[0] += p.shape[0]
        return _sharp_front(p)

    def jacobian(p):
        jac = np.zeros((p.shape[0], 2, 2))
        jac[:, 0, 0] = 20.0 * (1.0 - np.tanh(20.0 * (p[:, 0] - 1.0)) ** 2)
        jac[:, 1, 1] = 1.0
        return jac

    part = ConservativePart(CallableField(2, values, jacobian=jacobian))
    config = ProbeConfig()
    radii, directions = config.radii(), unit_directions(2, config.direction_count(2), config.seed)
    by_radius = VectorField._radial_profiles(part, radii, directions)
    radius_by_radius, counted[0] = counted[0], 0
    report = coercivity_probe(part, config)
    assert 4 * counted[0] <= radius_by_radius
    assert report.verdict == coercivity_probe(parse_field("tanh(20*(x1-1)); x2"), config).verdict
    assert np.max(np.abs(report.profiles - by_radius) / (1.0 + np.abs(by_radius))) <= 1e-12


def test_a_stencil_field_probe_agrees_with_its_conservative_part():
    # Without a Jacobian the homotopy integrand is the central-difference
    # stencil's.  Radius by radius, the largest radii resolved the front
    # through that stencil again and the profiles differed by 4e-5, above
    # the flatness slack _FLAT_TOL; by the recurrence the front is resolved
    # at the first radii only.
    paired = paired_probe(CallableField(2, _sharp_front))
    assert paired.verdicts_agree
    assert paired.max_profile_discrepancy <= 1e-7


def test_boundary_certificate_identity():
    cert = boundary_certificate(catalog_field("identity", 2).field, 1.0)
    assert cert.passed
    assert cert.min_radial == pytest.approx(1.0, abs=1e-12)
    assert cert.margin == pytest.approx(1.0, abs=1e-12)
    assert cert.conservative_min_radial == pytest.approx(1.0, abs=1e-8)
    assert cert.conservative_discrepancy <= 1e-6


def test_boundary_certificate_shifted_identity():
    field = ShiftedField(catalog_field("identity", 2).field, [3.0, -4.0])
    passing = boundary_certificate(field, 6.0, check_conservative=False)
    assert passing.passed
    assert passing.min_radial == pytest.approx(6.0, abs=0.05)
    failing = boundary_certificate(field, 4.0, check_conservative=False)
    assert not failing.passed
    assert failing.min_radial == pytest.approx(-4.0, abs=0.05)


def test_boundary_certificate_respects_ball_domain():
    field = BallRestrictedField(catalog_field("identity", 2).field, 1.0)
    cert = boundary_certificate(field, 1.0, check_conservative=False)
    assert cert.passed
    with pytest.raises(DomainError):
        boundary_certificate(field, 2.0, check_conservative=False)


def test_certificate_monotone_under_radial_boost():
    base = catalog_field("rotation2d").field
    for lam in (0.5, 2.0):
        boosted = SumField(base, ScaledField(lam, catalog_field("identity", 2).field))
        plain = boundary_certificate(base, 3.0, seed=4, check_conservative=False)
        lifted = boundary_certificate(boosted, 3.0, seed=4, check_conservative=False)
        assert lifted.min_radial == pytest.approx(
            plain.min_radial + lam * 9.0, rel=1e-12, abs=1e-12
        )


def test_certificate_determinism():
    field = catalog_field("gradient_poly", 4).field
    a = boundary_certificate(field, 2.0, seed=11, check_conservative=False)
    b = boundary_certificate(field, 2.0, seed=11, check_conservative=False)
    assert a.min_radial == b.min_radial
    assert a.sample_count == b.sample_count == 1024


def test_profile_identity_pointwise_bound():
    # Restatement of the radial equality at sample level.
    field = catalog_field("cubic_radial", 2).field
    paired = paired_probe(field, FAST_PROBE)
    gap = np.abs(paired.field_report.profiles - paired.conservative_report.profiles)
    bound = 1e-6 * (1.0 + np.abs(paired.field_report.profiles))
    assert np.all(gap <= bound)
