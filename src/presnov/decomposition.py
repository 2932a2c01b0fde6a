"""Splitting a field into a conservative part and a sphere-invariant part.

For a continuously differentiable field X on R^n (or on a closed ball
around the origin), the scalar potential

    H(x) = integral over t in [0, 1] of <X(t x), x> dt,   H(0) = 0

generates the conservative part grad H, and the remainder
u(x) = X(x) - grad H(x) is everywhere orthogonal to the position vector
(tangent to origin-centered spheres).  The split is unique under the
normalization H(0) = 0 and <u(x), x> = 0, and satisfies the radial
equality <X(x), x> = <grad H(x), x> at every point.

``verify_decomposition`` checks a split with flat computations on the
sample points and on the Gauss nodes t_k x of their rays; no check
nests a quadrature inside another:

* orthogonality and radial equality are the same number,
  <X(x) - grad H(x), x>, computed once from the split's arrays;
* idempotence compares the finite-difference gradient of H with the
  integral route (below), which recovers grad H without differentiating
  H and so sees tangential (curl) errors no radial check can;
* the potential of u is sum_k (w_k / t_k) <u(t_k x), t_k x> over the
  Gauss-Legendre nodes of one panel on [0, 1], with u = X - grad H from
  one finite-difference gradient over the stacked node points.

Two independent gradient routes are provided and cross-checked:

* ``gradient_potential``: central finite differences of the potential,
  one adaptive quadrature per shifted evaluation (the primary route);
* ``gradient_potential_integral``: differentiation under the integral
  sign, integrating X_i(t x) + t * <dX/dx_i(t x), x> over t in [0, 1].

Both routes are batched over points: the shifted potentials (or the
integrand components) are stacked into one vector-valued adaptive
quadrature so a single field call covers all Gauss nodes of a panel.
Both take their derivatives, as does the Newton Jacobian of
``equilibria``, from one central-difference stencil (``_fd_probes``,
``_fd_derivatives``).

Which integrals share quadrature panels:

* ``potential_many`` and the integral route refine each component on
  its own (the active set of ``integrate_unit``): one ray per potential,
  one (point, coordinate) entry per integral-route component.  These are
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

from .errors import ConfigError, DimensionMismatchError, DomainError
from .fields import VectorField
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

# Cube root of machine epsilon: the standard step for second-order
# central differences of values carrying relative rounding noise.
_FD_SCALE = float(np.cbrt(np.finfo(float).eps))

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


def _fd_probes(field, centers):
    """Probes (m, 2n + 1, n) around the rows x of ``centers`` and steps (m, n).

    Row 0 is x, rows 2i + 1 and 2i + 2 are x + h_i e_i and x - h_i e_i,
    with h_i = _FD_SCALE * max(1, |x_i|).  Probes outside the field's
    domain raise DomainError.
    """
    m, n = centers.shape
    steps = _FD_SCALE * np.maximum(1.0, np.abs(centers))
    probes = np.repeat(centers[:, None, :], 2 * n + 1, axis=1)
    # In a flattened (2n + 1, n) block, entry (2i + 1, i) sits at offset
    # n + i (2n + 1) and entry (2i + 2, i) at 2n + i (2n + 1).
    probes.reshape(m, -1)[:, n :: 2 * n + 1] += steps
    probes.reshape(m, -1)[:, 2 * n :: 2 * n + 1] -= steps
    if not field.domain.contains_all(probes):
        raise DomainError("insufficient clearance to the ball boundary for finite differences")
    return probes, steps


def _fd_derivatives(values, steps):
    """Derivatives (m, n, ...) from values (m, 2n, ...) at probe rows 1..2n."""
    steps = steps.reshape(steps.shape + (1,) * (values.ndim - 2))
    return (values[:, 0::2] - values[:, 1::2]) / (2.0 * steps)


def _gradient_with_errors(field, pts, cfg):
    m, n = pts.shape
    probes, steps = _fd_probes(field, pts)
    # Shared panels: the quadrature errors of H(x + h e_i) and H(x - h e_i)
    # cancel in their difference (module docstring).
    values, errors = _potentials(field, probes[:, 1:].reshape(m * 2 * n, n), cfg, shared=True)
    grads = _fd_derivatives(values.reshape(m, 2 * n), steps)
    errors = errors.reshape(m, 2 * n)
    return grads, (errors[:, 0::2] + errors[:, 1::2]) / (2.0 * steps)


def gradient_potential_many(
    field: VectorField, points, config: QuadratureConfig = DEFAULT_QUADRATURE
):
    """Gradient of the potential at each row of ``points`` (central FD route)."""
    pts = _as_points(field, points)
    return _gradient_with_errors(field, pts, config)[0]


def gradient_potential(field: VectorField, point, config: QuadratureConfig = DEFAULT_QUADRATURE):
    x = np.asarray(point, dtype=float)
    return gradient_potential_many(field, x[None, :], config)[0]


def gradient_potential_integral_many(
    field: VectorField, points, config: QuadratureConfig = DEFAULT_QUADRATURE
):
    """Second, independent gradient route: differentiate under the integral.

    For each point x the integrand over t is the vector
    X(t x) + t * J(t x)^T x, with the Jacobian columns dX/dx_i estimated
    by central differences at each Gauss node.  Those differences carry
    rounding noise of order eps * |X| / step, which the quadrature can
    never resolve below; the per-point noise estimate is handed to the
    integrator as its acceptance floor.
    """
    pts = _as_points(field, points)
    m, n = pts.shape
    out = np.zeros((m, n))
    # One quadrature component per gradient entry; keep batches bounded.
    # The origin is integrated too: its integrand is X(0) at every node.
    per_point = max(1, _MAX_COMPONENTS // max(n, 1))
    for chunk in _chunks(m, per_point):
        integrand, noise_floor, select = _gradient_integrand(field, pts[chunk])
        val, _ = integrate_unit(integrand, config, noise_floor=noise_floor, select=select)
        out[chunk] = val.reshape(-1, n)
    return out


def _gradient_integrand(field, base):
    """Integrand X(t x) + t J(t x)^T x on the rows x of ``base``, its noise
    floor and its select.

    Component b_i n + j is entry j at point b_i.  A point is evaluated
    while any of its entries is active.
    """
    n = base.shape[1]
    peaks = np.zeros(base.shape[0])  # largest |X| over each point's probes
    noise_scale = 4.0 * (np.finfo(float).eps / _FD_SCALE) * np.abs(base).sum(axis=1)
    live = slice(None)  # points with an active entry
    cols = slice(None)  # the active entries among the live points' b n

    def integrand(ts):
        sub = base[live]
        q, b = ts.size, sub.shape[0]
        # Row k = q_i * b + b_i is node t_{q_i} sub[b_i]; jac_t[k, i, j] is dX_j/dx_i there.
        centers = (ts[:, None, None] * sub[None, :, :]).reshape(q * b, n)
        probes, steps = _fd_probes(field, centers)
        vals = field.evaluate_many(probes.reshape(-1, n)).reshape(q * b, 2 * n + 1, n)
        peaks[live] = np.maximum(peaks[live], np.abs(vals).reshape(q, b, -1).max(axis=(0, 2)))
        jac_t = _fd_derivatives(vals[:, 1:], steps)
        jac_t_x = np.einsum("kij,kj->ki", jac_t, np.tile(sub, (q, 1)))
        g = vals[:, 0, :] + np.repeat(ts, b)[:, None] * jac_t_x
        return g.reshape(q, b * n)[:, cols]

    def noise_floor():
        return np.repeat(noise_scale * peaks, n)

    def select(rows):
        nonlocal live, cols
        owners = rows // n
        live = np.unique(owners)
        cols = np.searchsorted(live, owners) * n + rows % n

    return integrand, noise_floor, select


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
    potential and its finite-difference gradient into the radial
    diagnostics (it does not include FD truncation).
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
    grads, grad_errors = _gradient_with_errors(field, pts, config)
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

    Each evaluation runs the finite-difference-of-potential route, so
    values carry that route's numerical error.
    """

    def __init__(self, source: VectorField, config: QuadratureConfig = DEFAULT_QUADRATURE):
        super().__init__(
            source.dimension, f"conservative_part({source.label})", source.domain
        )
        self.source = source
        self.config = config

    def _evaluate_many(self, points):
        return gradient_potential_many(self.source, points, self.config)


class SphereInvariantPart(VectorField):
    """The sphere-invariant remainder of a field, as a field itself."""

    def __init__(self, source: VectorField, config: QuadratureConfig = DEFAULT_QUADRATURE):
        super().__init__(
            source.dimension, f"sphere_invariant_part({source.label})", source.domain
        )
        self.source = source
        self.config = config

    def _evaluate_many(self, points):
        return self.source.evaluate_many(points) - gradient_potential_many(
            self.source, points, self.config
        )


@dataclass(frozen=True)
class VerificationReport:
    """Worst normalized residuals of the split over a point sample.

    Every residual is divided by (1 + |x|) (1 + |X(x)|) at its point.
    ``max_orthogonality`` and ``max_radial_equality`` are both
    <X(x) - grad H(x), x>, recomputed from the split's field values and
    conservative part.  ``max_idempotence`` is |grad H(x) - G(x)|, where
    G is the integral route ``gradient_potential_integral_many``: a
    second split of grad H would return grad H itself, and G is that
    conservative part obtained without differentiating H.
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
    scale = (1.0 + np.linalg.norm(pts, axis=1)) * (
        1.0 + np.linalg.norm(split.field_values, axis=1)
    )
    radial = np.einsum("ij,ij->i", split.field_values - split.conservative, pts)
    max_orth = max_radial = float(np.max(np.abs(radial) / scale))

    grad_integral = gradient_potential_integral_many(field, pts, cfg)
    idem = np.linalg.norm(split.conservative - grad_integral, axis=1)
    max_idem = float(np.max(idem / scale))

    # <u(t x), x> = <u(t x), t x> / t on every node of the ray.  The split
    # of the stacked nodes needs no potentials at the nodes themselves.
    ts, ws = _unit_nodes(cfg.order)
    nodes = (ts[:, None, None] * pts[None, :, :]).reshape(-1, n)
    u_nodes = field.evaluate_many(nodes) - gradient_potential_many(field, nodes, cfg)
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
