"""Splitting a field into a conservative part and a sphere-invariant part.

For a continuously differentiable field X on R^n (or on a closed ball
around the origin), the scalar potential

    H(x) = integral over t in [0, 1] of <X(t x), x> dt,   H(0) = 0

generates the conservative part grad H, and the remainder
u(x) = X(x) - grad H(x) is everywhere orthogonal to the position vector
(tangent to origin-centered spheres).  The split is unique under the
normalization H(0) = 0 and <u(x), x> = 0, and satisfies the radial
equality <X(x), x> = <grad H(x), x> at every point.

The conservative part comes from one route, the homotopy formula of the
Poincare lemma (differentiation under the integral sign):

    grad H(x) = integral over t in [0, 1] of X(t x) + t J(t x)^T x dt,

with the Jacobian J from ``VectorField.value_and_jacobian_many``: exact
for DSL and catalog fields, the central-difference stencil of ``fields``
otherwise.  ``gradient_potential_integral_many``, ``decompose_many``,
``ConservativePart`` and ``SphereInvariantPart`` all use it.

``gradient_potential_many`` (central finite differences of H) is kept
only as an independent cross-check of that route: it differentiates H
itself, so it shares no formula with the homotopy route.

``verify_decomposition`` checks a split with flat computations on the
sample points and on the Gauss nodes t_k x of their rays; no check
nests a quadrature inside another:

* orthogonality and radial equality are the same number,
  <X(x) - grad H(x), x>, computed once from the split's arrays;
* idempotence compares the split's grad H with the finite-difference
  gradient of H, which sees tangential (curl) errors no radial check
  can;
* the potential of u is sum_k (w_k / t_k) <u(t_k x), t_k x> over the
  Gauss-Legendre nodes of one panel on [0, 1], with u = X - grad H from
  one homotopy-route gradient over the stacked node points.

Both routes are batched over points: the integrand components are
stacked into one vector-valued adaptive quadrature so a single field
call covers all Gauss nodes of a panel.

Which integrals share quadrature panels:

* ``potential_many`` and the homotopy route refine each component on
  its own (the active set of ``integrate_unit``): one ray per potential,
  one (point, coordinate) entry per homotopy-route component.  These are
  independent integrals, so a ray that converges on the first panels
  stops being evaluated while a ray through a sharp feature is refined.
* The finite-difference route keeps all the potentials of a batch on
  shared panels.  Its derivative (H(x + h e_i) - H(x - h e_i)) / 2h is
  accurate only because the two potentials are integrated on the same
  nodes, so their quadrature errors, each up to the tolerance, cancel
  instead of being divided by the small step 2h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .fields import _FD_SCALE, VectorField, _fd_derivatives, _fd_probes
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, _unit_nodes, integrate_unit

__all__ = [
    "ORIGIN_RADIUS",
    "DecompositionSample",
    "DecompositionSet",
    "VerificationReport",
    "compute_potential",
    "potential_many",
    "gradient_potential",
    "gradient_potential_many",
    "gradient_potential_integral",
    "gradient_potential_integral_many",
    "decompose",
    "decompose_many",
    "verify_decomposition",
    "ConservativePart",
    "SphereInvariantPart",
]

# Below this norm the potential is pinned to exactly zero (its analytic
# value), which keeps normalized residuals away from 0/0.
ORIGIN_RADIUS = 1e-12

# Cap on simultaneous components of one vector-valued quadrature.
_MAX_COMPONENTS = 2048

# Pass bound of verify_decomposition on its normalized residuals.
DEFAULT_VERIFY_THRESHOLD = 1e-6


def _as_points(field, points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != field.dimension:
        raise DimensionMismatchError(
            f"expected points of shape (m, {field.dimension}), got {pts.shape}"
        )
    if pts.shape[0] == 0 or not np.isfinite(pts).all():
        raise ConfigError("points must be a non-empty array of finite coordinates")
    return pts


def _check_threshold(threshold):
    if not 0.0 < threshold < np.inf:
        raise ConfigError("threshold must be positive and finite")


def _chunks(total, size):
    for start in range(0, total, size):
        yield np.arange(start, min(start + size, total))


def _potential_integrand(field, base):
    """Integrand <X(t x), x> on the rays x = rows of ``base``, and its select."""
    n = field.dimension
    live = base

    def integrand(ts):
        probe = (ts[:, None, None] * live[None, :, :]).reshape(-1, n)
        vals = field.evaluate_many(probe).reshape(ts.size, live.shape[0], n)
        return np.einsum("qbn,bn->qb", vals, live)

    def select(rows):
        nonlocal live
        live = base[rows]

    return integrand, select


def _potentials(field, pts, cfg, shared):
    """Potentials and error estimates at the rows of ``pts``.

    Each ray is its own integral unless ``shared``, when the rays of a
    chunk are refined on common panels (see the module docstring).
    """
    m = pts.shape[0]
    values = np.zeros(m)
    errors = np.zeros(m)
    with np.errstate(over="ignore"):  # an overflowing norm is still off the origin
        off_origin = np.flatnonzero(np.linalg.norm(pts, axis=1) >= ORIGIN_RADIUS)
    for chunk in _chunks(off_origin.size, _MAX_COMPONENTS):
        integrand, select = _potential_integrand(field, pts[off_origin[chunk]])
        val, err = integrate_unit(integrand, cfg, select=None if shared else select)
        values[off_origin[chunk]] = val
        errors[off_origin[chunk]] = err
    return values, errors


def potential_many(field: VectorField, points, config: QuadratureConfig = DEFAULT_QUADRATURE):
    """Potential and quadrature error estimate at each row of ``points``."""
    return _potentials(field, _as_points(field, points), config, shared=False)


def compute_potential(field: VectorField, point, config: QuadratureConfig = DEFAULT_QUADRATURE):
    """Potential at one point; returns ``(value, error_estimate)``.

    The potential at the origin is exactly 0.0 without integrating.
    """
    x = np.asarray(point, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatchError("expected a single point of shape (n,)")
    values, errors = potential_many(field, x[None, :], config)
    return float(values[0]), float(errors[0])


def gradient_potential_many(
    field: VectorField, points, config: QuadratureConfig = DEFAULT_QUADRATURE
):
    """Gradient of the potential at each row of ``points``: central
    differences of H, the cross-check route."""
    pts = _as_points(field, points)
    m, n = pts.shape
    probes, steps = _fd_probes(field, pts)
    # Shared panels: the quadrature errors of H(x + h e_i) and H(x - h e_i)
    # cancel in their difference (module docstring).
    values, _ = _potentials(field, probes[:, 1:].reshape(m * 2 * n, n), config, shared=True)
    return _fd_derivatives(values.reshape(m, 2 * n), steps)


def gradient_potential(field: VectorField, point, config: QuadratureConfig = DEFAULT_QUADRATURE):
    x = np.asarray(point, dtype=float)
    return gradient_potential_many(field, x[None, :], config)[0]


def _homotopy_gradient(field, pts, cfg):
    """grad H and its quadrature error estimates at the rows of ``pts``.

    At the origin grad H is X(0) exactly, with no integral.
    """
    m, n = pts.shape
    grads = np.empty((m, n))
    errors = np.zeros((m, n))
    at_origin = ~pts.any(axis=1)
    if at_origin.any():
        grads[at_origin] = field.evaluate_many(pts[at_origin])
    rays = np.flatnonzero(~at_origin)
    # One quadrature component per gradient entry; keep batches bounded.
    per_point = max(1, _MAX_COMPONENTS // n)
    for chunk in _chunks(rays.size, per_point):
        rows = rays[chunk]
        integrand, noise_floor, select = _gradient_integrand(field, pts[rows])
        val, err = integrate_unit(integrand, cfg, noise_floor=noise_floor, select=select)
        grads[rows] = val.reshape(-1, n)
        errors[rows] = err.reshape(-1, n)
    return grads, errors


def gradient_potential_integral_many(
    field: VectorField, points, config: QuadratureConfig = DEFAULT_QUADRATURE
):
    """Gradient of the potential at each row of ``points`` by the homotopy
    formula: integrate X(t x) + t J(t x)^T x over t in [0, 1].

    With an exact Jacobian the integrand is as accurate as the field
    itself.  With the central-difference fallback it carries rounding
    noise of order eps * |X| / step, which the quadrature can never
    resolve below; the per-point noise estimate is then handed to the
    integrator as its acceptance floor.
    """
    return _homotopy_gradient(field, _as_points(field, points), config)[0]


def _gradient_integrand(field, base):
    """Integrand X(t x) + t J(t x)^T x on the rows x of ``base``, its noise
    floor (None for an exact Jacobian) and its select.

    Component b_i n + j is entry j at point b_i.  A point is evaluated
    while any of its entries is active.
    """
    n = base.shape[1]
    peaks = np.zeros(base.shape[0])  # largest |X| over each point's nodes
    noise_scale = 4.0 * (np.finfo(float).eps / _FD_SCALE) * np.abs(base).sum(axis=1)
    live = slice(None)  # points with an active entry
    cols = slice(None)  # the active entries among the live points' b n

    def integrand(ts):
        sub = base[live]
        q, b = ts.size, sub.shape[0]
        # Row k = q_i * b + b_i is node t_{q_i} sub[b_i].
        nodes = (ts[:, None, None] * sub[None, :, :]).reshape(q * b, n)
        vals, jac = field.value_and_jacobian_many(nodes)
        vals = vals.reshape(q, b, n)
        if not field.exact_jacobian:
            peaks[live] = np.maximum(peaks[live], np.abs(vals).max(axis=(0, 2)))
        # (J^T x)_i = sum_j x_j dX_j/dx_i, as the row vector x^T J.
        jac_t_x = np.matmul(sub[None, :, None, :], jac.reshape(q, b, n, n))[:, :, 0]
        g = vals + ts[:, None, None] * jac_t_x
        return g.reshape(q, b * n)[:, cols]

    def noise_floor():
        return np.repeat(noise_scale * peaks, n)

    def select(rows):
        nonlocal live, cols
        owners = rows // n
        live = np.unique(owners)
        cols = np.searchsorted(live, owners) * n + rows % n

    return integrand, None if field.exact_jacobian else noise_floor, select


def gradient_potential_integral(
    field: VectorField, point, config: QuadratureConfig = DEFAULT_QUADRATURE
):
    x = np.asarray(point, dtype=float)
    return gradient_potential_integral_many(field, x[None, :], config)[0]


# ---------------------------------------------------------------------------
# Assembled decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionSample:
    """The split at a single point, with diagnostic residuals.

    ``conservative + sphere_invariant`` equals the field value exactly by
    construction; ``orthogonality_residual`` and
    ``radial_equality_residual`` are both <u, x> = <X, x> - <grad H, x>.
    ``estimated_error`` propagates the quadrature error estimates of the
    potential and of the homotopy-route gradient into the radial
    diagnostics.  It is quadrature error only: with an exact Jacobian
    there is no finite-difference truncation to add, and with the
    central-difference fallback that truncation is not included.
    """

    point: np.ndarray
    potential: float
    conservative: np.ndarray
    sphere_invariant: np.ndarray
    orthogonality_residual: float
    radial_equality_residual: float
    estimated_error: float


@dataclass(frozen=True)
class DecompositionSet:
    """Vectorized decomposition over a batch of points."""

    points: np.ndarray
    field_values: np.ndarray
    potentials: np.ndarray
    potential_errors: np.ndarray
    conservative: np.ndarray
    sphere_invariant: np.ndarray
    orthogonality_residuals: np.ndarray
    radial_equality_residuals: np.ndarray
    estimated_errors: np.ndarray

    def sample(self, i: int) -> DecompositionSample:
        return DecompositionSample(
            point=self.points[i],
            potential=float(self.potentials[i]),
            conservative=self.conservative[i],
            sphere_invariant=self.sphere_invariant[i],
            orthogonality_residual=float(self.orthogonality_residuals[i]),
            radial_equality_residual=float(self.radial_equality_residuals[i]),
            estimated_error=float(self.estimated_errors[i]),
        )


def decompose_many(field: VectorField, points, config: QuadratureConfig = DEFAULT_QUADRATURE):
    pts = _as_points(field, points)
    values = field.evaluate_many(pts)
    potentials, pot_errors = potential_many(field, pts, config)
    grads, grad_errors = _homotopy_gradient(field, pts, config)
    residual = values - grads
    # <u, x> and <X, x> - <grad H, x> are one number.
    orth = np.einsum("ij,ij->i", residual, pts)
    est = pot_errors + np.einsum("ij,ij->i", np.abs(pts), grad_errors)
    return DecompositionSet(
        points=pts,
        field_values=values,
        potentials=potentials,
        potential_errors=pot_errors,
        conservative=grads,
        sphere_invariant=residual,
        orthogonality_residuals=orth,
        radial_equality_residuals=orth,
        estimated_errors=est,
    )


def decompose(field: VectorField, point, config: QuadratureConfig = DEFAULT_QUADRATURE):
    x = np.asarray(point, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatchError("expected a single point of shape (n,)")
    return decompose_many(field, x[None, :], config).sample(0)


class ConservativePart(VectorField):
    """The conservative part of a field, as a field itself.

    Each evaluation runs the homotopy route, so values carry that route's
    quadrature error.  Its own Jacobian, the Hessian of H, is the
    central-difference fallback.
    """

    def __init__(self, source: VectorField, config: QuadratureConfig = DEFAULT_QUADRATURE):
        super().__init__(
            source.dimension, f"conservative_part({source.label})", source.domain
        )
        self.source = source
        self.config = config

    def _evaluate_many(self, points):
        return gradient_potential_integral_many(self.source, points, self.config)


class SphereInvariantPart(VectorField):
    """The sphere-invariant remainder of a field, as a field itself."""

    def __init__(self, source: VectorField, config: QuadratureConfig = DEFAULT_QUADRATURE):
        super().__init__(
            source.dimension, f"sphere_invariant_part({source.label})", source.domain
        )
        self.source = source
        self.config = config

    def _evaluate_many(self, points):
        return self.source.evaluate_many(points) - gradient_potential_integral_many(
            self.source, points, self.config
        )


@dataclass(frozen=True)
class VerificationReport:
    """Worst normalized residuals of the split over a point sample.

    Every residual is divided by (1 + |x|) (1 + |X(x)|) at its point.
    ``max_orthogonality`` and ``max_radial_equality`` are both
    <X(x) - grad H(x), x>, recomputed from the split's field values and
    conservative part.  ``max_idempotence`` is |grad H(x) - G(x)|, where
    G is the finite-difference route ``gradient_potential_many``: a
    second split of grad H would return grad H itself, and G is that
    conservative part obtained by differentiating H, independently of
    the homotopy formula that produced the split.
    ``max_residual_potential`` is the potential of the sphere-invariant
    part, sum_k (w_k / t_k) <u(t_k x), t_k x> over one panel of
    ``config.order`` Gauss-Legendre nodes (t_k, w_k) on [0, 1], with u
    split off at the stacked points t_k x.
    """

    point_count: int
    threshold: float
    max_orthogonality: float
    max_radial_equality: float
    max_idempotence: float
    max_residual_potential: float
    passed: bool

    def as_dict(self):
        return {
            "point_count": self.point_count,
            "threshold": self.threshold,
            "max_orthogonality": self.max_orthogonality,
            "max_radial_equality": self.max_radial_equality,
            "max_idempotence": self.max_idempotence,
            "max_residual_potential": self.max_residual_potential,
            "passed": self.passed,
        }


def verify_decomposition(
    field: VectorField,
    points,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
    threshold: float = DEFAULT_VERIFY_THRESHOLD,
) -> VerificationReport:
    _check_threshold(threshold)
    return _verify_split(field, decompose_many(field, points, config), config, threshold)


def _verify_split(field, split, cfg, threshold):
    """The checks of ``verify_decomposition`` on a split already computed."""
    _check_threshold(threshold)
    pts = split.points
    m, n = pts.shape
    with np.errstate(over="ignore"):
        scale = (1.0 + np.linalg.norm(pts, axis=1)) * (
            1.0 + np.linalg.norm(split.field_values, axis=1)
        )
    radial = np.einsum("ij,ij->i", split.field_values - split.conservative, pts)
    max_orth = max_radial = float(np.max(np.abs(radial) / scale))

    grad_fd = gradient_potential_many(field, pts, cfg)
    idem = np.linalg.norm(split.conservative - grad_fd, axis=1)
    max_idem = float(np.max(idem / scale))

    # <u(t x), x> = <u(t x), t x> / t on every node of the ray.  The split
    # of the stacked nodes needs no potentials at the nodes themselves.
    ts, ws = _unit_nodes(cfg.order)
    nodes = (ts[:, None, None] * pts[None, :, :]).reshape(-1, n)
    u_nodes = field.evaluate_many(nodes) - gradient_potential_integral_many(field, nodes, cfg)
    on_rays = np.einsum("ij,ij->i", u_nodes, nodes).reshape(ts.size, m)
    residual_potentials = (ws / ts) @ on_rays
    max_res_pot = float(np.max(np.abs(residual_potentials) / scale))

    passed = max(max_orth, max_radial, max_idem, max_res_pot) <= threshold
    return VerificationReport(
        point_count=m,
        threshold=threshold,
        max_orthogonality=max_orth,
        max_radial_equality=max_radial,
        max_idempotence=max_idem,
        max_residual_potential=max_res_pot,
        passed=passed,
    )
