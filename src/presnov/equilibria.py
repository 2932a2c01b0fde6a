"""Locating equilibrium states inside certified balls.

A passing boundary certificate on a sphere (strict positivity of
<X(x), x> on sampled boundary points) is the numerical stand-in for the
hypothesis that guarantees a zero of the field inside the open ball, and
the radial equality makes the same certificate cover the conservative
part.  Both searches are therefore one search on different targets:
``_locate`` gates on the field's certificate, then looks for a zero of
the target (X itself, or grad H as ``ConservativePart``).  The solver
only has to find a witness: damped Newton with the target's Jacobian
from ``value_and_jacobian_many`` (exact for DSL and catalog fields, the
central-difference stencil of ``fields`` otherwise; for
``ConservativePart`` it is the Hessian of H, exact from the monomial
table of a polynomial field and the stencil otherwise),
Armijo backtracking on the merit function |X(x)|^2 / 2 (fixed constants
``_ARMIJO`` and ``_MIN_STEP``), a gradient-descent fallback when the
Jacobian is unusable, and seeded multistart inside the ball, whose
points are drawn only once the origin start has failed.  Iterates
that leave the ball are pulled back radially to 0.999 of its radius.
A polynomial DSL field, and the conservative part of a tabled field,
return X and J from one evaluation of a table's jet; plain values, the
later rungs below, come from ``evaluate_many``, which for a DSL field
walks the expression.

The backtracking is batched.  Its ladder alpha = 1, 1/2, ...,
``_MIN_STEP`` (31 trials) is cut into rungs of 1, 2, 4, 8 and 16 trials,
each evaluated in one field call, and the first trial in ladder order
that passes the Armijo test is taken: the step one-at-a-time
backtracking would take, so iterates and step counts are the same.  The
first rung, the full step, is evaluated with its Jacobian, and most
steps (about 62% in the benchmark's ``solve`` workload) accept it; a
point accepted from a later rung gets its Jacobian from one more call,
so every iterate comes with its Jacobian.  For a ``ConservativePart``
without a table each call is one quadrature, which is what the
batching saves.  Every trial of a rung is evaluated, so a
non-finite value at any of them, or a non-finite Jacobian at an accepted
point, raises NonFiniteValueError, even where one-at-a-time backtracking
would never have evaluated it.

Armijo acceptance never raises the merit, so each start returns its last
iterate, whose residual is the lowest of its run up to rounding.
Because certificates are sample-based, a passing certificate does not
guarantee the true boundary condition; when every start fails, the
lowest of the starts' residuals (within ``residual_tol``, the earliest
start winning ties) is returned with a failure status instead of
raising.

A successful conservative solve also checks the second-order necessary
condition for a minimizer of H, which the existence argument provides:
the Hessian of H at the point (the target's Jacobian there) is
positive semidefinite up to ``_PSD_TOL``.  A failed solve fails it.

``perturbed_existence`` implements the constant-perturbation workflow:
for a (probed) coercive field X and a constant vector b, search a
geometric radius schedule for the first sphere on which the shifted
field X + b certifies with a safety margin, then solve both X + b = 0
and grad H + b = 0 inside that ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decomposition import ConservativePart
from .errors import CertificateError, ConfigError, NoCertifiedRadiusError, NonFiniteValueError
from .fields import ShiftedField, VectorField
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .radial import (
    DEFAULT_CERTIFICATE_THRESHOLD,
    BoundaryCertificate,
    ProbeConfig,
    RadialProbeReport,
    VERDICT_COERCIVE,
    _check_certificate_settings,
    boundary_certificate,
    coercivity_probe,
)
from .sampling import _NON_NEGATIVE, _POSITIVE, DEFAULT_SEED, _as_integer, _as_real, ball_points
from .sampling import _check_integer_fields, _check_real_fields, default_direction_count

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
# The Armijo ladder alpha = 1, 1/2, ..., _MIN_STEP, cut into rungs of
# 1, 2, 4, ... trials (the last rung takes what is left).
_LADDER = np.ldexp(1.0, -np.arange(1 - round(math.log2(_MIN_STEP))))
_RUNGS = tuple(_LADDER[2**k - 1 : 2 ** (k + 1) - 1] for k in range(_LADDER.size.bit_length()))
_DEGENERATE_COND = 1e12
# Above the noise of a stencil Hessian of H, quadrature tolerance /
# _FD_SCALE ~ 2e-5; the exact Hessian of a polynomial field's table
# carries only rounding.
_PSD_TOL = 1e-4

# By default perturbed_existence searches the radii 2^k, k = 0..40, for a
# sphere whose certificate margin is at least 0.1 r^2.
DEFAULT_MAX_RADIUS_EXPONENT = 40
DEFAULT_MARGIN_FRACTION = 0.1


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
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        _check_integer_fields(
            self, max_iterations=(1, None), multistart=(0, None), seed=(0, None)
        )
        # An infinite tolerance would accept every start where it begins.
        _check_real_fields(self, residual_tol=_POSITIVE)


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of one equilibrium search.

    ``degenerate`` flags a near-singular Jacobian at the solution
    (condition estimate above 1e12), which distinguishes isolated zeros
    from continua.  ``iterations`` counts the Newton steps taken from the
    start whose point is returned.  ``minimizer_check`` is set only by the
    conservative solve: True when it succeeded and the Hessian of H at
    the point (exact for a polynomial field, the stencil otherwise) meets
    the second-order necessary condition for a minimizer,
    min eig >= -1e-4 (1 + max |eig|) of its symmetric part.

    When no start converges, the result is the last iterate of a failed
    start: starts run in order (the origin first), and a later one
    replaces the kept one only when its residual is lower by more than
    ``residual_tol``, so starts whose residuals tie up to rounding return
    the earliest.
    """

    point: np.ndarray
    residual: float
    success: bool
    target: str
    ball_radius: float
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


def _is_degenerate(jac):
    s = np.linalg.svd(jac, compute_uv=False)
    return bool(s[-1] <= s[0] / _DEGENERATE_COND)


def _is_positive_semidefinite(jac):
    eigs = np.linalg.eigvalsh(0.5 * (jac + jac.T))
    return bool(eigs[0] >= -_PSD_TOL * (1.0 + np.abs(eigs).max()))


def _norm(x):
    """Euclidean norm of a vector, finite whenever the norm is.

    ``np.linalg.norm`` squares the entries, which overflows from about
    1e154 on; ``math.hypot`` does not, and is faster on short vectors.
    """
    return math.hypot(*x.tolist())


def _project(x, radius):
    norm = _norm(x)
    limit = _PROJECTION * radius
    if norm > limit:
        return x * (limit / norm)
    return x


def _armijo_step(field, x, step, merit, directional, radius):
    """The first trial of the Armijo ladder that passes, or None if none does.

    Returns the accepted point with its value, residual and Jacobian.
    Each rung of ``_RUNGS`` is one field call.  The full step's call also
    returns the Jacobian; a point accepted from a later rung keeps its
    rung's value and gets its Jacobian from one more call.
    """
    for rung in _RUNGS:
        trials = np.array([_project(x + alpha * step, radius) for alpha in rung])
        if rung is _RUNGS[0]:
            values, jacs = field.value_and_jacobian_many(trials)
        else:
            values = field.evaluate_many(trials)
        for k, alpha in enumerate(rung):
            res = _norm(values[k])
            if 0.5 * res * res <= merit + _ARMIJO * alpha * directional:
                if rung is not _RUNGS[0]:
                    jacs = field.value_and_jacobian_many(trials[k : k + 1])[1]
                # The first rung is one trial, so row 0 is the point's either way.
                return trials[k], values[k], res, jacs[0]
    return None


def _newton_from(field, x0, radius, cfg):
    """One damped-Newton run.

    Returns (point, residual, Jacobian at the point, steps taken,
    converged) for the last iterate.  Each step runs the Armijo ladder
    alpha = 1, 1/2, ..., ``_MIN_STEP`` in rungs of 1, 2, 4, ... trials,
    one field call per rung, and takes the first trial in ladder order
    that passes: the step one-at-a-time backtracking would take.  The
    line search runs only along a descent direction, so an accepted step
    never raises the merit |X|^2 / 2 and the last iterate has the lowest
    residual of the run, up to ties.  Every trial of a rung is
    evaluated, so a non-finite value at any of them, or a non-finite
    Jacobian, raises NonFiniteValueError, and so does a merit gradient
    J^T X that overflows.
    """
    x = _project(np.array(x0, dtype=float), radius)
    values, jacs = field.value_and_jacobian_many(x[None, :])
    fx, jac = values[0], jacs[0]
    res = _norm(fx)
    taken = 0
    while taken < cfg.max_iterations and res > cfg.residual_tol:
        with np.errstate(over="ignore", invalid="ignore"):
            merit_grad = jac.T @ fx
        if not np.isfinite(merit_grad).all():
            raise NonFiniteValueError(
                f"merit gradient J^T X of field '{field.label}' overflows at {x.tolist()}"
            )
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
        merit = 0.5 * res * res
        if merit + directional == merit:
            # Stationary merit: even a full step would lower it by less
            # than its rounding, so the line search could only crawl.
            break
        accepted = _armijo_step(field, x, step, merit, directional, radius)
        if accepted is None:
            break  # line search stalled
        x, fx, res, jac = accepted
        taken += 1
    return x, res, jac, taken, res <= cfg.residual_tol


def _starts(field, radius, cfg):
    """The origin, then ``cfg.multistart`` seeded points of the ball, drawn
    only when the origin's run has failed."""
    yield np.zeros(field.dimension)
    if cfg.multistart > 0:
        yield from ball_points(field.dimension, cfg.multistart, radius, cfg.seed)


def _solve_multistart(field, radius, cfg):
    """Newton from the origin, then from seeded points of the ball.

    Returns (point, residual, Jacobian at the point, starts attempted,
    steps taken, converged).
    """
    best = None
    for index, start in enumerate(_starts(field, radius, cfg)):
        x, res, jac, iters, converged = _newton_from(field, start, radius, cfg)
        # Residuals that tie up to rounding keep the earlier start.
        if converged or best is None or res < best[1] - cfg.residual_tol:
            best = (x, res, jac, iters)
        if converged:
            break
    x, res, jac, iters = best
    return x, res, jac, index + 1, iters, converged


def _locate(target, field, radius, cfg, certificate, allow_uncertified):
    """Gate on ``field``'s certificate, then search for a zero of ``target``.

    ``target`` is the field itself or its conservative part; by the
    radial equality the field's certificate covers both.
    """
    radius = _as_real(radius, "radius", _POSITIVE)
    if certificate is None:
        certificate = boundary_certificate(field, radius, seed=cfg.seed, check_conservative=False)
    elif certificate.radius != radius:
        raise ConfigError(
            f"the certificate covers the sphere of radius {certificate.radius}, "
            f"not the ball of radius {radius}"
        )
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
    x, res, jac, attempted, iters, success = _solve_multistart(target, radius, cfg)
    if not success:
        warnings.append(
            "no start reached the residual tolerance; best residual returned "
            "(sampled certificates cannot guarantee the true boundary condition)"
        )
    degenerate = _is_degenerate(jac)
    if degenerate:
        warnings.append(
            "near-singular Jacobian at the returned point: the equilibrium may "
            "belong to a continuum rather than being isolated"
        )
    minimizer = None
    if isinstance(target, ConservativePart):
        minimizer = success and _is_positive_semidefinite(jac)
        if success and not minimizer:
            warnings.append(
                "the Hessian of the potential at the located critical point has a "
                "negative eigenvalue: not a local minimizer (saddle or maximum)"
            )
    return EquilibriumResult(
        point=x,
        residual=res,
        success=success,
        target=target.label,
        ball_radius=radius,
        inside_ball=bool(_norm(x) < radius),
        starts_attempted=attempted,
        iterations=iters,
        degenerate=degenerate,
        certificate=certificate,
        certificate_overridden=overridden,
        minimizer_check=minimizer,
        warnings=tuple(warnings),
    )


def find_equilibrium(
    field: VectorField,
    radius: float,
    config: SolverConfig = SolverConfig(),
    certificate: Optional[BoundaryCertificate] = None,
    allow_uncertified: bool = False,
) -> EquilibriumResult:
    """Search for a zero of the field inside the ball of the given radius.

    A given ``certificate`` must be the one of the sphere of that radius.
    """
    return _locate(field, field, radius, config, certificate, allow_uncertified)


def find_equilibrium_conservative(
    field: VectorField,
    radius: float,
    config: SolverConfig = SolverConfig(),
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
    certificate: Optional[BoundaryCertificate] = None,
    allow_uncertified: bool = False,
) -> EquilibriumResult:
    """Search for a zero of the conservative part inside the ball.

    The certificate is evaluated on the original field: by the radial
    equality it certifies the conservative part simultaneously.  The
    point's Hessian of H decides ``minimizer_check``, False for a failed
    solve, whose point is not critical (see ``EquilibriumResult``).
    """
    return _locate(
        ConservativePart(field, quadrature), field, radius, config, certificate, allow_uncertified
    )


def perturbed_existence(
    field: VectorField,
    offset,
    config: SolverConfig = SolverConfig(),
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
    max_radius_exponent: int = DEFAULT_MAX_RADIUS_EXPONENT,
    margin_fraction: float = DEFAULT_MARGIN_FRACTION,
    certificate_samples: Optional[int] = None,
    threshold: float = DEFAULT_CERTIFICATE_THRESHOLD,
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
    # 2.0**1024 overflows a double.
    max_radius_exponent = _as_integer(max_radius_exponent, "max_radius_exponent", (0, 1023))
    margin_fraction = _as_real(margin_fraction, "margin_fraction", _NON_NEGATIVE)
    threshold, certificate_samples = _check_certificate_settings(threshold, certificate_samples)
    shifted = ShiftedField(field, offset)
    b = shifted.offset
    if certificate_samples is None:
        certificate_samples = 4 * default_direction_count(field.dimension)

    probe_report = coercivity_probe(field, ProbeConfig(seed=config.seed))
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
            shifted, r, samples=certificate_samples, seed=config.seed,
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
        shifted, rho, samples=certificate_samples, seed=config.seed,
        threshold=threshold, check_conservative=True, quadrature=quadrature,
    )
    result_field = find_equilibrium(shifted, rho, config, certificate=certificate)
    result_conservative = find_equilibrium_conservative(
        shifted, rho, config, quadrature=quadrature, certificate=certificate
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
