import numpy as np
import pytest

from presnov import (
    BallRestrictedField,
    DomainError,
    ProbeConfig,
    ScaledField,
    ShiftedField,
    SumField,
    boundary_certificate,
    catalog_field,
    coercivity_probe,
    gradient_potential_many,
    paired_probe,
    parse_field,
    radial_profile,
)
from presnov.radial import VERDICT_COERCIVE, VERDICT_NOT_COERCIVE
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


def test_probe_identity_coercive():
    report = coercivity_probe(catalog_field("identity", 2).field, FAST_PROBE)
    assert report.verdict == VERDICT_COERCIVE
    assert report.witness is None
    assert np.all(np.diff(report.min_per_radius) > 0)


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


def test_paired_probe_sharp_field_keeps_fd_potentials_on_shared_panels():
    # The paired probe takes grad H from the homotopy route.  The FD route,
    # kept as its cross-check, is a central difference of potentials
    # H(x +/- h e_i).  They are integrated on shared panels, so their
    # quadrature errors cancel in the difference; refining each on its own
    # panels raises the FD profile's gap at the probe's largest radius
    # (2048, where the tanh front is sharpest along a ray) from 4.5e-11 to
    # 5.0e-8.
    field = parse_field("tanh(20*(x1-1)); x2; x3")
    paired = paired_probe(field)
    assert paired.verdicts_agree
    assert paired.max_profile_discrepancy <= 1e-8
    radius = paired.field_report.radii[-1]
    points = radius * paired.field_report.directions
    fd_profile = np.einsum("ij,ij->i", gradient_potential_many(field, points), points) / radius
    phi = paired.field_report.profiles[-1]
    assert np.max(np.abs(fd_profile - phi) / (1.0 + np.abs(phi))) <= 1e-8


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
