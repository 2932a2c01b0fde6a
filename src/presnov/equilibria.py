"""Locating equilibrium states inside certified balls.

A passing boundary certificate on a sphere (strict positivity of
<X(x), x> on sampled boundary points) is the numerical stand-in for the
hypothesis that guarantees a zero of the field inside the open ball, and
the radial equality makes the same certificate cover the conservative
part.  Both searches are therefore one search on different targets:
``_locate`` gates on the field's certificate, then looks for a zero of
the target (X itself, or grad H as ``ConservativePart``).  The solver
only has to find a witness: damped Newton with the central-difference
Jacobian of ``decomposition``'s stencil, Armijo backtracking on the
merit function |X(x)|^2 / 2 (fixed constants ``_ARMIJO`` and
``_MIN_STEP``), a gradient-descent fallback when the Jacobian is
unusable, and seeded multistart inside the ball.  Iterates that leave
the ball are pulled back radially to 0.999 of its radius.

Because certificates are sample-based, a passing certificate does not
guarantee the true boundary condition; when every start fails, the best
residual found is returned with a failure status instead of raising.

``perturbed_existence`` implements the constant-perturbation workflow:
for a (probed) coercive field X and a constant vector b, search a
geometric radius schedule for the first sphere on which the shifted
field X + b certifies with a safety margin, then solve both X + b = 0
and grad H + b = 0 inside that ball.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .decomposition import ConservativePart, _fd_derivatives, _fd_probes, compute_potential
from .decomposition import potential_many
from .errors import CertificateError, NoCertifiedRadiusError
from .fields import ShiftedField, VectorField
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .radial import (
    BoundaryCertificate,
    ProbeConfig,
    RadialProbeReport,
    VERDICT_COERCIVE,
    boundary_certificate,
    coercivity_probe,
)
from .sampling import ball_points, default_direction_count, unit_directions

__all__ = [
    "SolverConfig",
    "EquilibriumResult",
    "PerturbedExistenceResult",
    "find_equilibrium",
    "find_equilibrium_conservative",
    "perturbed_existence",
]

_PROJECTION = 0.999
_ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking line search
_MIN_STEP = 2.0**-30  # the line search stalls below this step fraction
_DEGENERATE_COND = 1e12


@dataclass(frozen=True)
class SolverConfig:
    """Damped-Newton settings.

    A start converges when |target(x)| <= ``residual_tol`` within
    ``max_iterations`` Newton steps.  The origin is tried first, then
    ``multistart`` seeded points of the ball.  The line-search constants
    are fixed module constants, not settings.
    """

    residual_tol: float = 1e-10
    max_iterations: int = 200
    multistart: int = 32
    seed: int = 0

    def __post_init__(self):
        # An infinite tolerance would accept every start where it begins.
        if not (0.0 < self.residual_tol < np.inf):
            raise ValueError("residual_tol must be positive and finite")
        if self.max_iterations < 1 or self.multistart < 0:
            raise ValueError("iteration and start counts must be positive")


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of one equilibrium search.

    ``degenerate`` flags a near-singular Jacobian at the solution
    (condition estimate above 1e12), which distinguishes isolated zeros
    from continua.  ``iterations`` counts the Newton steps taken from the
    start whose point is returned.  ``minimizer_check`` is set only by the
    conservative solve: True when the located point is a local
    near-minimizer of the potential along probe directions.
    """

    point: np.ndarray
    residual: float
    success: bool
    target: str
    ball_radius: Optional[float]
    inside_ball: bool
    starts_attempted: int
    iterations: int
    degenerate: bool
    certificate: Optional[BoundaryCertificate]
    certificate_overridden: bool
    minimizer_check: Optional[bool] = None
    warnings: tuple = ()


@dataclass(frozen=True)
class PerturbedExistenceResult:
    offset: np.ndarray
    rho: float
    certificate: BoundaryCertificate
    probe: RadialProbeReport
    field_result: EquilibriumResult
    conservative_result: EquilibriumResult
    warnings: tuple = ()


def _fd_jacobian(field, x):
    probes, steps = _fd_probes(field, x[None, :])
    values = field.evaluate_many(probes[0, 1:])
    # Column i is dX/dx_i.
    return _fd_derivatives(values[None], steps)[0].T


def _is_degenerate(jac):
    s = np.linalg.svd(jac, compute_uv=False)
    if s[0] == 0.0:
        return True
    return bool(s[-1] <= s[0] / _DEGENERATE_COND)


def _project(x, radius):
    if radius is None:
        return x
    norm = float(np.linalg.norm(x))
    limit = _PROJECTION * radius
    if norm > limit:
        return x * (limit / norm)
    return x


def _newton_from(field, x0, radius, cfg):
    """One damped-Newton run; returns (point, residual, steps taken, converged)."""
    x = _project(np.array(x0, dtype=float), radius)
    fx = field.evaluate(x)
    res = float(np.linalg.norm(fx))
    best_x, best_res = x.copy(), res
    taken = 0
    while taken < cfg.max_iterations and res > cfg.residual_tol:
        jac = _fd_jacobian(field, x)
        merit_grad = jac.T @ fx
        try:
            step = np.linalg.solve(jac, -fx)
            if not np.isfinite(step).all():
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            step = -merit_grad  # gradient descent on the merit function
        directional = float(merit_grad @ step)
        if not np.isfinite(directional) or directional >= 0.0:
            step = -merit_grad
            directional = -float(merit_grad @ merit_grad)
            if directional == 0.0:
                break  # stationary merit; nothing further to do
        merit = 0.5 * res * res
        alpha = 1.0
        moved = False
        while alpha >= _MIN_STEP:
            trial = _project(x + alpha * step, radius)
            trial_f = field.evaluate(trial)
            trial_res = float(np.linalg.norm(trial_f))
            if 0.5 * trial_res * trial_res <= merit + _ARMIJO * alpha * directional:
                x, fx, res = trial, trial_f, trial_res
                moved = True
                break
            alpha *= 0.5
        if not moved:
            break  # line search stalled
        taken += 1
        if res < best_res:
            best_x, best_res = x.copy(), res
    if res <= cfg.residual_tol:
        return x, res, taken, True
    return best_x, best_res, taken, False


def _solve_multistart(field, radius, cfg):
    starts = [np.zeros(field.dimension)]
    if cfg.multistart > 0:
        starts.extend(ball_points(field.dimension, cfg.multistart, radius, cfg.seed))
    best = None
    for index, start in enumerate(starts):
        x, res, iters, converged = _newton_from(field, start, radius, cfg)
        if converged:
            return x, res, index + 1, iters, True
        if best is None or res < best[1]:
            best = (x, res, iters)
    x, res, iters = best
    return x, res, len(starts), iters, False


def _locate(target, field, radius, cfg, certificate, allow_uncertified):
    """Gate on ``field``'s certificate, then search for a zero of ``target``.

    ``target`` is the field itself or its conservative part; by the
    radial equality the field's certificate covers both.
    """
    if certificate is None:
        certificate = boundary_certificate(field, radius, seed=cfg.seed, check_conservative=False)
    warnings = []
    overridden = not certificate.passed
    if overridden:
        if not allow_uncertified:
            raise CertificateError(
                f"boundary certificate failed at radius {radius}: min radial value "
                f"{certificate.min_radial:.6g} (threshold {certificate.threshold:.6g}); "
                "pass allow_uncertified=True to search anyway"
            )
        warnings.append(
            "certificate failed; search proceeded under an explicit override, "
            "so existence of an equilibrium is not guaranteed"
        )
    x, res, attempted, iters, success = _solve_multistart(target, radius, cfg)
    if not success:
        warnings.append(
            "no start reached the residual tolerance; best residual returned "
            "(sampled certificates cannot guarantee the true boundary condition)"
        )
    degenerate = _is_degenerate(_fd_jacobian(target, x))
    if degenerate:
        warnings.append(
            "near-singular Jacobian at the returned point: the equilibrium may "
            "belong to a continuum rather than being isolated"
        )
    return EquilibriumResult(
        point=x,
        residual=res,
        success=success,
        target=target.label,
        ball_radius=float(radius),
        inside_ball=bool(np.linalg.norm(x) < radius),
        starts_attempted=attempted,
        iterations=iters,
        degenerate=degenerate,
        certificate=certificate,
        certificate_overridden=overridden,
        warnings=tuple(warnings),
    )


def find_equilibrium(
    field: VectorField,
    radius: float,
    config: SolverConfig | None = None,
    certificate: Optional[BoundaryCertificate] = None,
    allow_uncertified: bool = False,
) -> EquilibriumResult:
    """Search for a zero of the field inside the ball of the given radius."""
    cfg = config if config is not None else SolverConfig()
    return _locate(field, field, radius, cfg, certificate, allow_uncertified)


def _near_minimizer_check(source, x, radius, quad_cfg, seed):
    """Is H(x) <= H(x + delta d) + tol along probe directions?"""
    n = x.size
    delta = 1e-3 * radius
    axes = np.vstack((np.eye(n), -np.eye(n)))
    extra = unit_directions(n, max(4, n), seed)
    directions = np.vstack((axes, extra))
    h0, _ = compute_potential(source, x, quad_cfg)
    probes = x[None, :] + delta * directions
    probes = probes[source.domain.contains(probes)]
    if probes.shape[0] == 0:
        return True
    values, _ = potential_many(source, probes, quad_cfg)
    tol = 1e-9 * (1.0 + abs(h0))
    return bool(np.all(h0 <= values + tol))


def find_equilibrium_conservative(
    field: VectorField,
    radius: float,
    config: SolverConfig | None = None,
    quadrature: QuadratureConfig | None = None,
    certificate: Optional[BoundaryCertificate] = None,
    allow_uncertified: bool = False,
) -> EquilibriumResult:
    """Search for a zero of the conservative part inside the ball.

    The certificate is evaluated on the original field: by the radial
    equality it certifies the conservative part simultaneously.  The
    located point is additionally checked to be a local near-minimizer
    of the potential.
    """
    cfg = config if config is not None else SolverConfig()
    quad_cfg = quadrature if quadrature is not None else DEFAULT_QUADRATURE
    result = _locate(
        ConservativePart(field, quad_cfg), field, radius, cfg, certificate, allow_uncertified
    )
    minimizer = _near_minimizer_check(field, result.point, radius, quad_cfg, cfg.seed)
    warnings = result.warnings
    if not minimizer:
        warnings += (
            "the located critical point is not a local near-minimizer of the "
            "potential along probe directions (saddle or maximum)",
        )
    return replace(result, minimizer_check=minimizer, warnings=warnings)


def perturbed_existence(
    field: VectorField,
    offset,
    config: SolverConfig | None = None,
    quadrature: QuadratureConfig | None = None,
    max_radius_exponent: int = 40,
    margin_fraction: float = 0.1,
    certificate_samples: Optional[int] = None,
    threshold: float = 0.0,
) -> PerturbedExistenceResult:
    """Equilibria of the field and of its conservative part, both shifted by a constant.

    Searches radii 2^k (k = 0..max_radius_exponent) for the first sphere
    where the shifted field certifies with margin at least
    ``margin_fraction`` times the squared radius (the certificate scale),
    then solves both targets inside that ball.  The margin and a denser
    default boundary sample guard against sampling gaps wrongly
    certifying a sphere that passes through or near an equilibrium.
    Raises NoCertifiedRadiusError when the schedule is exhausted, which
    for a genuinely coercive field should not happen.  The returned
    radius is the first certified one, not necessarily the smallest that
    would certify.
    """
    cfg = config if config is not None else SolverConfig()
    b = np.asarray(offset, dtype=float)
    shifted = ShiftedField(field, b)
    if certificate_samples is None:
        certificate_samples = 4 * default_direction_count(field.dimension)

    probe_report = coercivity_probe(field, ProbeConfig(seed=cfg.seed))
    warnings = []
    if probe_report.verdict != VERDICT_COERCIVE:
        warnings.append(
            f"coercivity probe verdict for the unperturbed field is "
            f"'{probe_report.verdict}'; the radius search may not terminate "
            "with a certificate"
        )

    rho = None
    for k in range(max_radius_exponent + 1):
        r = float(2.0**k)
        trial = boundary_certificate(
            shifted, r, samples=certificate_samples, seed=cfg.seed,
            threshold=threshold, check_conservative=False,
        )
        if trial.passed and trial.margin >= margin_fraction * r * r:
            rho = r
            break
    if rho is None:
        raise NoCertifiedRadiusError(
            f"no radius up to 2^{max_radius_exponent} certified the shifted field "
            f"(probe verdict: {probe_report.verdict})",
            probe_verdict=probe_report.verdict,
        )

    certificate = boundary_certificate(
        shifted, rho, samples=certificate_samples, seed=cfg.seed,
        threshold=threshold, check_conservative=True, quadrature=quadrature,
    )
    result_field = find_equilibrium(shifted, rho, cfg, certificate=certificate)
    result_conservative = find_equilibrium_conservative(
        shifted, rho, cfg, quadrature=quadrature, certificate=certificate
    )
    return PerturbedExistenceResult(
        offset=b,
        rho=rho,
        certificate=certificate,
        probe=probe_report,
        field_result=result_field,
        conservative_result=result_conservative,
        warnings=tuple(warnings),
    )
