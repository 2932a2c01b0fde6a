"""Radial profiles, coercivity probing, and boundary certificates.

The radial profile of a field is phi(x) = <X(x), x> / |x|.  A field is
coercive when phi diverges to +infinity as |x| grows; that is a limit and
cannot be decided by finitely many evaluations, so the probe returns an
evidence-graded verdict over a geometric radius schedule and a fixed set
of seeded directions:

* ``empirically-coercive``: the per-radius minimum of the profile is
  strictly increasing along the whole schedule and the final minimum is
  positive and at least ``growth_floor_factor`` times the magnitude of
  the first (a heuristic growth floor, flagged as such in the report);
* ``not-coercive-witness``: some direction shows a profile that is
  non-increasing across at least three consecutive radii, or that stops
  making progress over the last third of the schedule (bounded above by
  the maximum of its earlier values);
* ``inconclusive`` otherwise.

Every verdict rests on one non-increase rule (``_no_rise``): a value b
does not rise above a value a when b <= a + _FLAT_TOL * (1 + |a|).  It is
applied as array tests over the whole (radius x direction) profile
table: a non-increasing witness is two consecutive steps along a
direction that do not rise, a bounded witness is a tail that does not
rise above the maximum of the earlier profile values, and the per-radius
minima increase strictly when every one of their steps rises.  The witness
is the first direction, in sample order, with either kind, and
non-increasing wins over bounded within it.  The slack is well above the
tolerance at which the profiles of a field and of its conservative part
agree, so the paired probe cannot split verdicts on numerical noise: the
two profiles are pointwise equal up to quadrature/differentiation error
because <X(x), x> = <grad H(x), x> everywhere.

The probe reads its table from the field (``VectorField._radial_profiles``).
A field evaluates radius by radius; a conservative part takes the ray
recurrence of ``decomposition``, grad H(r_k d) = (r_{k-1} / r_k)
grad H(r_{k-1} d) plus the integral over t in [r_{k-1} / r_k, 1] of its
ray, so each radius integrates only beyond the last one.  Every entry of
grad H stays its own integral under its own bound; the error estimate
grows by one integral's bound per radius while the earlier error shrinks
by r_{k-1} / r_k, so it stays below factor / (factor - 1) times one
integral's bound.

The boundary certificate samples one sphere and reports the minimum of
<X(x), x>; strict positivity of that minimum is sampled evidence (never
proof) for the boundary condition that guarantees an equilibrium inside
the ball, and the same samples certify the conservative part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decomposition import ConservativePart
from .errors import ConfigError, DimensionMismatchError, DomainError
from .fields import VectorField, _radial_values
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .sampling import _FINITE, _NON_NEGATIVE, _POSITIVE, DEFAULT_SEED, _as_integer, _as_real
from .sampling import _check_integer_fields, _check_real_fields, _check_seed, _float_array
from .sampling import default_direction_count, unit_directions

__all__ = [
    "ProbeConfig",
    "Witness",
    "RadialProbeReport",
    "PairedProbeReport",
    "BoundaryCertificate",
    "radial_profile",
    "coercivity_probe",
    "paired_probe",
    "boundary_certificate",
]

VERDICT_COERCIVE = "empirically-coercive"
VERDICT_NOT_COERCIVE = "not-coercive-witness"
VERDICT_INCONCLUSIVE = "inconclusive"

# Relative slack for monotonicity decisions; kept an order of magnitude
# above the profile-agreement tolerance so paired verdicts match.
_FLAT_TOL = 1e-5

# A certificate passes when min <X(x), x> over the sphere exceeds this.
DEFAULT_CERTIFICATE_THRESHOLD = 0.0

_HEURISTIC_NOTE = (
    "Coercivity is an asymptotic property; this verdict is sampled evidence "
    "over a finite radius schedule with a heuristic growth floor, not a proof."
)


@dataclass(frozen=True)
class ProbeConfig:
    """Radius schedule, direction sample, and verdict heuristics."""

    initial_radius: float = 1.0
    radius_factor: float = 2.0
    radius_count: int = 12
    directions: Optional[int] = None  # None: 256 if n <= 3 else 1024
    seed: int = DEFAULT_SEED
    growth_floor_factor: float = 4.0

    def __post_init__(self):
        _check_integer_fields(self, radius_count=(2, None), seed=(0, None))
        if self.directions is not None:  # None: the dimension's default count
            _check_integer_fields(self, directions=(1, None))
        _check_real_fields(
            self,
            initial_radius=_POSITIVE,
            radius_factor=(1.0, False, "finite and greater than 1"),
            growth_floor_factor=_NON_NEGATIVE,
        )
        # The schedule grows, so its last radius is its largest; one scalar
        # power avoids building a long schedule here.
        with np.errstate(over="ignore"):
            growth = np.float64(self.radius_factor) ** float(self.radius_count - 1)
            last = self.initial_radius * growth
        if not np.isfinite(last):
            raise ConfigError("every radius of the schedule must be finite")

    def radii(self) -> np.ndarray:
        return self.initial_radius * self.radius_factor ** np.arange(self.radius_count)

    def direction_count(self, dimension: int) -> int:
        return self.directions if self.directions is not None else default_direction_count(dimension)


@dataclass(frozen=True)
class Witness:
    """Evidence against coercivity along one probed direction."""

    kind: str  # 'non-increasing' or 'bounded'
    direction_index: int
    direction: np.ndarray
    radii: np.ndarray
    profile: np.ndarray
    point: np.ndarray  # a probe point realizing the witness


@dataclass(frozen=True)
class RadialProbeReport:
    field_label: str
    radii: np.ndarray
    directions: np.ndarray
    profiles: np.ndarray  # (radius_count, direction_count)
    min_per_radius: np.ndarray
    verdict: str
    witness: Optional[Witness]
    seed: int
    config: ProbeConfig
    note: str = _HEURISTIC_NOTE


@dataclass(frozen=True)
class PairedProbeReport:
    """Probes of a field and of its conservative part at identical points.

    ``max_profile_discrepancy`` is normalized by (1 + |phi|); the raw
    maximum is kept alongside because at large radii the profiles carry
    values far above the absolute resolution of doubles.
    """

    field_report: RadialProbeReport
    conservative_report: RadialProbeReport
    max_profile_discrepancy: float  # max |phi_X - phi_grad| / (1 + |phi_X|)
    max_profile_discrepancy_absolute: float
    verdicts_agree: bool


@dataclass(frozen=True)
class BoundaryCertificate:
    """Sampled check of strict radial positivity on one sphere.

    ``conservative_min_radial`` re-evaluates the same samples against the
    conservative part: the radial equality makes one certificate serve
    both fields, and the recorded discrepancy quantifies how well the
    numerics honor that.
    """

    radius: float
    sample_count: int
    min_radial: float
    threshold: float
    margin: float
    passed: bool
    seed: int
    conservative_min_radial: Optional[float] = None
    conservative_discrepancy: Optional[float] = None
    note: str = (
        "Sample-based evidence: necessary but not sufficient for the boundary "
        "condition on the whole sphere. The same samples certify the "
        "conservative part, by the radial equality."
    )


def _check_certificate_settings(threshold, samples):
    """The certificate arguments that ``perturbed_existence`` passes
    through, as a float and an int (samples None stays None)."""
    threshold = _as_real(threshold, "certificate threshold", _FINITE)
    if samples is not None:
        samples = _as_integer(samples, "certificate samples", (1, None))
    return threshold, samples


def radial_profile(field: VectorField, radius: float, directions) -> np.ndarray:
    """Profile values <X(r d), r d> / r for each unit direction d."""
    radius = _as_real(radius, "radius", _POSITIVE)
    message = "directions must be a rectangular array of real numbers"
    dirs = _float_array(directions, message, DimensionMismatchError)
    return _radial_values(field, radius * dirs) / radius


def _no_rise(before, after):
    """The one non-increase rule: True where ``after`` does not rise above ``before``."""
    return after <= before + _FLAT_TOL * (1.0 + np.abs(before))


def _find_witness(radii, profiles, directions):
    """The first direction whose profile column shows a witness, or None."""
    # Three consecutive radii means two consecutive steps that do not rise.
    fails = _no_rise(profiles[:-1], profiles[1:])
    runs = fails[:-1] & fails[1:]
    tail_start = max(2, (2 * radii.size) // 3)
    ceilings = profiles[:tail_start].max(axis=0)
    # A schedule too short to have a tail shows nothing bounded.
    bounded = (tail_start < radii.size) & _no_rise(ceilings, profiles[tail_start:]).all(axis=0)
    hits = np.flatnonzero(runs.any(axis=0) | bounded)
    if hits.size == 0:
        return None
    j = int(hits[0])
    if runs[:, j].any():
        k = int(np.argmax(runs[:, j]))
        kind, window = "non-increasing", slice(k, k + 3)
    else:
        kind, window = "bounded", slice(None)
    return Witness(
        kind=kind,
        direction_index=j,
        direction=directions[j],
        radii=radii[window].copy(),
        profile=profiles[window, j].copy(),
        point=radii[window][-1] * directions[j],
    )


def _verdict(mins, witness, cfg):
    if witness is not None:
        return VERDICT_NOT_COERCIVE
    strictly_increasing = not _no_rise(mins[:-1], mins[1:]).any()
    with np.errstate(over="ignore"):  # an overflowing floor is one no profile meets
        floor_ok = mins[-1] > 0.0 and mins[-1] >= cfg.growth_floor_factor * abs(mins[0])
    if strictly_increasing and floor_ok:
        return VERDICT_COERCIVE
    return VERDICT_INCONCLUSIVE


def _probe_with_directions(field, cfg, directions):
    radii = cfg.radii()
    profiles = field._radial_profiles(radii, directions)
    mins = profiles.min(axis=1)
    witness = _find_witness(radii, profiles, directions)
    return RadialProbeReport(
        field_label=field.label,
        radii=radii,
        directions=directions,
        profiles=profiles,
        min_per_radius=mins,
        verdict=_verdict(mins, witness, cfg),
        witness=witness,
        seed=cfg.seed,
        config=cfg,
    )


def _probe_directions(field, cfg):
    if not field.domain.is_full_space:
        raise DomainError(
            "coercivity probing needs a field defined on all of R^n "
            "(the radius schedule is unbounded)"
        )
    return unit_directions(field.dimension, cfg.direction_count(field.dimension), cfg.seed)


def coercivity_probe(field: VectorField, config: ProbeConfig = ProbeConfig()) -> RadialProbeReport:
    return _probe_with_directions(field, config, _probe_directions(field, config))


def paired_probe(
    field: VectorField,
    config: ProbeConfig = ProbeConfig(),
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
) -> PairedProbeReport:
    """Probe a field and its conservative part at identical probe points."""
    directions = _probe_directions(field, config)
    report_x = _probe_with_directions(field, config, directions)
    conservative = ConservativePart(field, quadrature)
    report_g = _probe_with_directions(conservative, config, directions)
    gap = np.abs(report_x.profiles - report_g.profiles)
    discrepancy = gap / (1.0 + np.abs(report_x.profiles))
    return PairedProbeReport(
        field_report=report_x,
        conservative_report=report_g,
        max_profile_discrepancy=float(discrepancy.max()),
        max_profile_discrepancy_absolute=float(gap.max()),
        verdicts_agree=report_x.verdict == report_g.verdict,
    )


def boundary_certificate(
    field: VectorField,
    radius: float,
    samples: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    threshold: float = DEFAULT_CERTIFICATE_THRESHOLD,
    check_conservative: bool = True,
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
) -> BoundaryCertificate:
    """Sample the sphere of the given radius and certify <X(x), x> > threshold."""
    radius, seed = _as_real(radius, "radius", _POSITIVE), _check_seed(seed)
    threshold, samples = _check_certificate_settings(threshold, samples)
    m = samples if samples is not None else default_direction_count(field.dimension)
    points = radius * unit_directions(field.dimension, m, seed)
    radial = _radial_values(field, points)
    min_radial = float(radial.min())
    conservative_min = None
    discrepancy = None
    if check_conservative:
        radial_g = _radial_values(ConservativePart(field, quadrature), points)
        conservative_min = float(radial_g.min())
        discrepancy = float(np.max(np.abs(radial - radial_g) / (1.0 + np.abs(radial))))
    return BoundaryCertificate(
        radius=radius,
        sample_count=m,
        min_radial=min_radial,
        threshold=threshold,
        margin=min_radial - threshold,
        passed=min_radial > threshold,
        seed=seed,
        conservative_min_radial=conservative_min,
        conservative_discrepancy=discrepancy,
    )
