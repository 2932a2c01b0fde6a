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
  the constant fitted to its earlier values);
* ``inconclusive`` otherwise.

Profile comparisons use a relative slack well above the tolerance at
which the profiles of a field and of its conservative part agree, so the
paired probe cannot split verdicts on numerical noise: the two profiles
are pointwise equal up to quadrature/differentiation error because
<X(x), x> = <grad H(x), x> everywhere.

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
from .errors import ConfigError, DomainError, NonFiniteValueError
from .fields import VectorField
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .sampling import DEFAULT_SEED, _check_integer_fields, _check_radius, _check_seed
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
        _check_integer_fields(self, "radius_count", "directions", "seed")
        if not self.initial_radius > 0.0:
            raise ConfigError("initial_radius must be positive")
        if not self.radius_factor > 1.0:
            raise ConfigError("radius_factor must exceed 1")
        if self.radius_count < 2:
            raise ConfigError("radius_count must be at least 2")
        # The schedule grows, so its last radius is its largest; one scalar
        # power avoids building a long schedule here.
        with np.errstate(over="ignore"):
            growth = np.float64(self.radius_factor) ** float(self.radius_count - 1)
            last = self.initial_radius * growth
        if not np.isfinite(last):
            raise ConfigError("every radius of the schedule must be finite")
        if self.directions is not None and self.directions < 1:
            raise ConfigError("directions must be at least 1")
        _check_seed(self.seed)
        if not 0.0 <= self.growth_floor_factor < np.inf:
            raise ConfigError("growth_floor_factor must be finite and non-negative")

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
    """The certificate arguments that ``perturbed_existence`` passes through."""
    if not np.isfinite(threshold):
        raise ConfigError("certificate threshold must be finite")
    if samples is not None and samples < 1:
        raise ConfigError("certificate samples must be at least 1")


def _radial_values(field, points):
    """<X(x), x> at the rows of ``points``; raises NonFiniteValueError on overflow."""
    radial = np.einsum("ij,ij->i", field.evaluate_many(points), points)
    if not np.isfinite(radial).all():
        raise NonFiniteValueError(f"<X(x), x> of field '{field.label}' overflows")
    return radial


def radial_profile(field: VectorField, radius: float, directions) -> np.ndarray:
    """Profile values <X(r d), r d> / r for each unit direction d."""
    _check_radius(radius)
    dirs = np.asarray(directions, dtype=float)
    return _radial_values(field, radius * dirs) / radius


def _profile_table(field, radii, directions):
    profiles = np.empty((radii.size, directions.shape[0]))
    for k, r in enumerate(radii):
        profiles[k] = radial_profile(field, float(r), directions)
    return profiles


def _find_witness(radii, profiles, directions):
    count = radii.size
    tail_start = max(2, (2 * count) // 3)
    for j in range(directions.shape[0]):
        p = profiles[:, j]
        slack = _FLAT_TOL * (1.0 + np.abs(p[:-1]))
        nonincr = p[1:] <= p[:-1] + slack
        # Three consecutive radii means two consecutive non-increasing steps.
        run = 0
        for k, flag in enumerate(nonincr):
            run = run + 1 if flag else 0
            if run >= 2:
                window = slice(k - 1, k + 2)
                return Witness(
                    kind="non-increasing",
                    direction_index=j,
                    direction=directions[j],
                    radii=radii[window].copy(),
                    profile=p[window].copy(),
                    point=radii[k + 1] * directions[j],
                )
        ceiling = p[:tail_start].max()
        tail = p[tail_start:]
        tail_slack = _FLAT_TOL * (1.0 + abs(ceiling))
        # A schedule too short to have a tail shows nothing bounded.
        if tail.size and np.all(tail <= ceiling + tail_slack):
            return Witness(
                kind="bounded",
                direction_index=j,
                direction=directions[j],
                radii=radii.copy(),
                profile=p.copy(),
                point=radii[-1] * directions[j],
            )
    return None


def _verdict(radii, profiles, directions, cfg):
    witness = _find_witness(radii, profiles, directions)
    if witness is not None:
        return VERDICT_NOT_COERCIVE, witness
    mins = profiles.min(axis=1)
    slack = _FLAT_TOL * (1.0 + np.abs(mins[:-1]))
    strictly_increasing = bool(np.all(mins[1:] > mins[:-1] + slack))
    with np.errstate(over="ignore"):  # an overflowing floor is one no profile meets
        floor_ok = mins[-1] > 0.0 and mins[-1] >= cfg.growth_floor_factor * abs(mins[0])
    if strictly_increasing and floor_ok:
        return VERDICT_COERCIVE, None
    return VERDICT_INCONCLUSIVE, None


def _probe_with_directions(field, cfg, directions):
    radii = cfg.radii()
    profiles = _profile_table(field, radii, directions)
    verdict, witness = _verdict(radii, profiles, directions, cfg)
    return RadialProbeReport(
        field_label=field.label,
        radii=radii,
        directions=directions,
        profiles=profiles,
        min_per_radius=profiles.min(axis=1),
        verdict=verdict,
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
    _check_radius(radius)
    _check_certificate_settings(threshold, samples)
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
        radius=float(radius),
        sample_count=m,
        min_radial=min_radial,
        threshold=float(threshold),
        margin=min_radial - float(threshold),
        passed=min_radial > threshold,
        seed=seed,
        conservative_min_radial=conservative_min,
        conservative_discrepancy=discrepancy,
    )
