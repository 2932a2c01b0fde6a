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

``gradient_potential_integral_many``, ``decompose_many``,
``ConservativePart`` and ``SphereInvariantPart`` all use it
(``_homotopy_gradient``).

A polynomial field X(x) = sum_k c_k x^E_k (a field with a monomial
table, ``VectorField.polynomial``) takes it in closed form: since
<X_d(t x), x> = t^d <X_d(x), x> on a homogeneous part X_d,

    H(x) = sum_k <c_k, x> x^E_k / (|E_k| + 1),

the Poincare homotopy operator on polynomial forms (Spivak, "Calculus on
Manifolds", ch. 4), so grad H and its Jacobian, the exact Hessian of H,
are monomial tables too (``Polynomial.gradient_potential`` and its
``derivative``), with no quadrature and no stencil.  The error estimate
is the table's rounding bound, gamma sum_k |c_k| |x^E_k|; where that
bound exceeds the quadrature tolerance max(abs_tol, rel_tol |grad H|),
as it can for an ill-conditioned expansion such as (x1 - 1)^20 at
x1 = 2, the point takes the adaptive route below.  Every other field
integrates the formula adaptively, with the Jacobian J from
``VectorField.value_and_jacobian_many``: exact for DSL and catalog
fields, the central-difference stencil of ``fields`` otherwise, whose
rounding noise sets the integrator's floor.  Potentials, and so the
finite-difference route, always integrate adaptively.

``gradient_potential_many`` (central finite differences of H) is kept
only as an independent cross-check of that route: it differentiates H
itself, so it shares no formula with the homotopy route.  Its entry i
at x is one integral of the difference quotient of the potential
integrand,

    (<X(t p), p> - <X(t q), q>) / 2 h_i,   p, q = x +/- h_i e_i,

which by linearity is (H(p) - H(q)) / 2 h_i, with the quadrature error
bounded on the quotient itself rather than on each potential.  The
quotient's rounding, 4 eps max |<X(t p), p>| / h_i over the nodes seen,
is its noise floor.

``verify_decomposition`` is the one check of a split.  It splits the
sample with ``decompose_many``, returns that split in its report, and
checks it with flat computations on the sample points and on the Gauss
nodes t_k x of their rays; no check nests a quadrature inside another:

* orthogonality and radial equality are the same number,
  <X(x) - grad H(x), x>, which the split already holds as its
  ``orthogonality_residuals``;
* idempotence compares the split's grad H with the finite-difference
  gradient of H, which sees tangential (curl) errors no radial check
  can;
* the potential of u is sum_k (w_k / t_k) <u(t_k x), t_k x> over the
  Gauss-Legendre nodes of one panel on [0, 1], with u = X - grad H from
  one homotopy-route gradient over the stacked node points.

Every route is a batch of line integrals along the rays [0, x], all
integrated by ``_ray_integrals``: one vector-valued adaptive quadrature per
batch, so a single field call covers all Gauss nodes of a panel, with
one component per potential, per homotopy-route entry or per
finite-difference entry.  Each component is refined on its own (the
active set of ``integrate_unit``): a component retires once it meets
its bound, and a ray is evaluated while any of its components is
active, so a ray that converges on the first panels stops paying for a
ray through a sharp feature.

The split functions check their points with the rule of field
evaluation, ``VectorField._checked_points``, so an empty array gives an
empty result.  The domain is R^n or an origin-centred ball, which holds
the segment [0, x] iff it holds x, so no ray integral checks its rays
again.  ``verify_decomposition`` alone refuses an empty sample
(ConfigError), since its report is a set of maxima.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .fields import _FD_SCALE, VectorField, _fd_derivatives, _fd_probes
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, _unit_nodes, integrate_unit

__all__ = [
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

# Cap on simultaneous components of one vector-valued quadrature.
_MAX_COMPONENTS = 2048

# Pass bound of verify_decomposition on its normalized residuals.
DEFAULT_VERIFY_THRESHOLD = 1e-6


def _ray_integrals(pts, rays, width, integrand, cfg, floors=None):
    """Integrals over t in [0, 1] of ``width`` components on the rays ``pts[rays]``.

    Returns values and error estimates of shape (m, width), zero on the
    rows of ``pts`` not listed in ``rays``.  ``integrand(ts, rows)``
    returns the components at the nodes ts on the rays of ``pts[rows]``,
    shape (ts.size, len(rows), width).  Nothing here checks the domain:
    the callers' points passed ``VectorField._checked_points``, the
    finite-difference route's stencil probes passed ``_fd_probes``, and a
    domain that holds x holds the ray [0, x].  An integrand that carries
    evaluation noise raises ``floors[rows]``, of shape (m, width), to the
    noise it has seen, and those are the components' acceptance floors.
    Each component is refined on its own (the active set of
    ``integrate_unit``), and a ray is evaluated while any of its
    components is active.
    """
    values = np.zeros((pts.shape[0], width))
    errors = np.zeros((pts.shape[0], width))
    per_chunk = max(1, _MAX_COMPONENTS // width)  # one quadrature component per entry
    for start in range(0, rays.size, per_chunk):
        chunk = rays[start : start + per_chunk]
        live = slice(None)  # rays with an active component
        cols = slice(None)  # the active components among the live rays' entries

        def f(ts):
            return integrand(ts, chunk[live]).reshape(ts.size, -1)[:, cols]

        def select(rows):
            nonlocal live, cols
            owners = rows // width
            live = np.unique(owners)
            if width > 1:  # with one component per ray, the live rays are the active ones
                cols = np.searchsorted(live, owners) * width + rows % width

        noise_floor = None if floors is None else lambda: floors[chunk].reshape(-1)
        val, err = integrate_unit(f, cfg, noise_floor=noise_floor, select=select)
        values[chunk] = val.reshape(-1, width)
        errors[chunk] = err.reshape(-1, width)
    return values, errors


def _ray_radial_values(field, ts, xs):
    """<X(t x), x> at the nodes ts on the rays x along the last axis of ``xs``."""
    nodes = ts.reshape((-1,) + (1,) * xs.ndim) * xs
    vals = field.evaluate_many(nodes.reshape(-1, xs.shape[-1])).reshape(nodes.shape)
    return np.einsum("q...n,...n->q...", vals, xs)


def _potentials(field, pts, cfg):
    """Potentials and error estimates at the rows of ``pts``.

    H(0) = 0 exactly, with no integral; every other point integrates.
    """

    def integrand(ts, rows):
        return _ray_radial_values(field, ts, pts[rows])[:, :, None]

    rays = np.flatnonzero(pts.any(axis=1))
    values, errors = _ray_integrals(pts, rays, 1, integrand, cfg)
    return values[:, 0], errors[:, 0]


def potential_many(field: VectorField, points, config: QuadratureConfig = DEFAULT_QUADRATURE):
    """Potential and quadrature error estimate at each row of ``points``."""
    return _potentials(field, field._checked_points(points), config)


def compute_potential(field: VectorField, point, config: QuadratureConfig = DEFAULT_QUADRATURE):
    """Potential at one point; returns ``(value, error_estimate)``.

    The potential at the origin is exactly 0.0 without integrating.
    """
    values, errors = potential_many(field, field._point_row(point), config)
    return float(values[0]), float(errors[0])


def gradient_potential_many(
    field: VectorField, points, config: QuadratureConfig = DEFAULT_QUADRATURE
):
    """Gradient of the potential at each row of ``points``: central
    differences of H, the cross-check route.

    Entry i at x is one integral of the difference quotient
    (<X(t p), p> - <X(t q), q>) / 2 h_i over p, q = x +/- h_i e_i, so the
    quadrature error is controlled on the derivative itself.  The
    quotient's rounding, 4 eps max |<X(t p), p>| / h_i over the nodes
    seen, is its noise floor.
    """
    pts = field._checked_points(points)
    m, n = pts.shape
    probes, steps = _fd_probes(field, pts)
    pairs = probes[:, 1:]
    floors = np.zeros((m, n))

    def integrand(ts, rows):
        radial = _ray_radial_values(field, ts, pairs[rows])
        peaks = np.abs(radial).max(axis=0).reshape(-1, n, 2).max(axis=2)
        floors[rows] = np.maximum(floors[rows], 4.0 * np.finfo(float).eps * peaks / steps[rows])
        # _fd_derivatives differences along axis 1, so the nodes go last.
        return _fd_derivatives(radial.transpose(1, 2, 0), steps[rows]).transpose(2, 0, 1)

    return _ray_integrals(pts, np.arange(m), n, integrand, config, floors=floors)[0]


def gradient_potential(field: VectorField, point, config: QuadratureConfig = DEFAULT_QUADRATURE):
    return gradient_potential_many(field, field._point_row(point), config)[0]


def _homotopy_gradient(field, pts, cfg):
    """grad H and its error estimates at the rows of ``pts``.

    A field with a monomial table takes the table of grad H, with its
    rounding bound as the error estimate, at every point where that
    bound meets the quadrature tolerance max(abs_tol, rel_tol |grad H|).
    The other points integrate X(t x) + t J(t x)^T x, one component per
    gradient entry; at the origin grad H is X(0) exactly, with no
    integral.
    """
    m, n = pts.shape
    floors = None if field.exact_jacobian else np.zeros((m, n))

    def integrand(ts, rows):
        xs = pts[rows]
        q, b = ts.size, xs.shape[0]
        # Row k = q_i * b + b_i is node t_{q_i} xs[b_i].
        nodes = (ts[:, None, None] * xs[None, :, :]).reshape(q * b, n)
        vals, jac = field.value_and_jacobian_many(nodes)
        vals = vals.reshape(q, b, n)
        # (J^T x)_i = sum_j x_j dX_j/dx_i, as the row vector x^T J.
        jac_t_x = np.matmul(xs[None, :, None, :], jac.reshape(q, b, n, n))[:, :, 0]
        if floors is not None:
            # The stencil's rounding, eps |X| / step, shared by a point's entries.
            noise_scale = 4.0 * (np.finfo(float).eps / _FD_SCALE) * np.abs(xs).sum(axis=1)
            noise = noise_scale * np.abs(vals).max(axis=(0, 2))
            floors[rows] = np.maximum(floors[rows], noise[:, None])
        return vals + ts[:, None, None] * jac_t_x

    table = field.polynomial
    if table is None:
        grads, errors = np.zeros((m, n)), np.zeros((m, n))
        pending = np.ones(m, dtype=bool)
    else:
        with np.errstate(all="ignore"):  # overflow leaves the point to the quadrature
            grads, errors = table.gradient_potential.value_and_bound(pts)
            tolerance = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(grads))
        pending = ~(errors <= tolerance).all(axis=1)
    at_origin = ~pts.any(axis=1)
    rays = np.flatnonzero(pending & ~at_origin)
    if rays.size:
        values, estimates = _ray_integrals(pts, rays, n, integrand, cfg, floors)
        grads[rays], errors[rays] = values[rays], estimates[rays]
    origin = pending & at_origin
    if origin.any():
        grads[origin], errors[origin] = field.evaluate_many(pts[origin]), 0.0
    return grads, errors


def gradient_potential_integral_many(
    field: VectorField, points, config: QuadratureConfig = DEFAULT_QUADRATURE
):
    """Gradient of the potential at each row of ``points`` by the homotopy
    formula: integrate X(t x) + t J(t x)^T x over t in [0, 1].

    A field with a monomial table takes it in closed form (module
    docstring).  With an exact Jacobian the integrand is as accurate as
    the field itself.  With the central-difference fallback it carries
    rounding noise of order eps * |X| / step, which the quadrature can
    never resolve below; the per-point noise estimate is then handed to
    the integrator as its acceptance floor.
    """
    return _homotopy_gradient(field, field._checked_points(points), config)[0]


def gradient_potential_integral(
    field: VectorField, point, config: QuadratureConfig = DEFAULT_QUADRATURE
):
    return gradient_potential_integral_many(field, field._point_row(point), config)[0]


# ---------------------------------------------------------------------------
# Assembled decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionSample:
    """The split at a single point, with diagnostic residuals.

    ``conservative + sphere_invariant`` equals the field value exactly by
    construction; ``orthogonality_residual`` and
    ``radial_equality_residual`` are both <u, x> = <X, x> - <grad H, x>.
    ``potential_error`` is the quadrature error estimate of ``potential``.
    ``estimated_error`` propagates the error estimates of the potential
    and of the homotopy-route gradient into the radial diagnostics,
    potential_error + sum_i |x_i| err_i.  The gradient's err_i is the
    table's rounding bound where grad H comes from a monomial table, and
    the quadrature error estimate elsewhere: with an exact Jacobian there
    is no finite-difference truncation to add, and with the
    central-difference fallback that truncation is not included.
    """

    point: np.ndarray
    potential: float
    potential_error: float
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
            potential_error=float(self.potential_errors[i]),
            conservative=self.conservative[i],
            sphere_invariant=self.sphere_invariant[i],
            orthogonality_residual=float(self.orthogonality_residuals[i]),
            radial_equality_residual=float(self.radial_equality_residuals[i]),
            estimated_error=float(self.estimated_errors[i]),
        )


def decompose_many(field: VectorField, points, config: QuadratureConfig = DEFAULT_QUADRATURE):
    pts = field._checked_points(points)
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
    return decompose_many(field, field._point_row(point), config).sample(0)


class _SplitPart(VectorField):
    """A part of the split of ``source`` as a field, named ``name``.

    Of a field with a monomial table the part is tabled too, and its
    Jacobian is that table's derivative: exact.  Otherwise the Jacobian
    is the central-difference fallback.
    """

    def __init__(self, source: VectorField, config: QuadratureConfig, name: str):
        super().__init__(source.dimension, f"{name}({source.label})", source.domain)
        self.source = source
        self.config = config
        self.exact_jacobian = self.polynomial is not None

    def _value_and_jacobian_many(self, points):
        if self.polynomial is None:
            return super()._value_and_jacobian_many(points)
        return self._evaluate_many(points), self.polynomial.derivative(points)


class ConservativePart(_SplitPart):
    """The conservative part of a field, as a field itself.

    Each evaluation runs the homotopy route (``_homotopy_gradient``), so
    values carry that route's error.  Of a field with a monomial table
    its table is that of grad H, and its Jacobian, the Hessian of H, is
    exact.
    """

    def __init__(self, source: VectorField, config: QuadratureConfig = DEFAULT_QUADRATURE):
        super().__init__(source, config, "conservative_part")

    @cached_property
    def polynomial(self):
        table = self.source.polynomial
        return None if table is None else table.gradient_potential

    def _evaluate_many(self, points):
        # The points passed this part's checks, and it shares the source's domain.
        return _homotopy_gradient(self.source, points, self.config)[0]


class SphereInvariantPart(_SplitPart):
    """The sphere-invariant remainder of a field, as a field itself.

    Of a field with a monomial table its table is that of X - grad H.
    """

    def __init__(self, source: VectorField, config: QuadratureConfig = DEFAULT_QUADRATURE):
        super().__init__(source, config, "sphere_invariant_part")

    @cached_property
    def polynomial(self):
        table = self.source.polynomial
        return None if table is None else table + -1.0 * table.gradient_potential

    def _evaluate_many(self, points):
        grads = _homotopy_gradient(self.source, points, self.config)[0]
        return self.source.evaluate_many(points) - grads


@dataclass(frozen=True)
class VerificationReport:
    """Worst normalized residuals of the split over a point sample.

    ``split`` is the split the report checked.  Every residual is divided
    by (1 + |x|) (1 + |X(x)|) at its point.  ``max_orthogonality`` and
    ``max_radial_equality`` are both <X(x) - grad H(x), x>, read from
    ``split.orthogonality_residuals``.  ``max_idempotence`` is
    |grad H(x) - G(x)|, where G is the finite-difference route
    ``gradient_potential_many``: a second split of grad H would return
    grad H itself, and G is that conservative part obtained by
    differentiating H, independently of the homotopy formula that
    produced the split.  ``max_residual_potential`` is the potential of
    the sphere-invariant part, sum_k (w_k / t_k) <u(t_k x), t_k x> over
    one panel of ``config.order`` Gauss-Legendre nodes (t_k, w_k) on
    [0, 1], with u split off at the stacked points t_k x.
    """

    point_count: int
    threshold: float
    max_orthogonality: float
    max_radial_equality: float
    max_idempotence: float
    max_residual_potential: float
    passed: bool
    split: DecompositionSet


def verify_decomposition(
    field: VectorField,
    points,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
    threshold: float = DEFAULT_VERIFY_THRESHOLD,
) -> VerificationReport:
    if not 0.0 < threshold < np.inf:
        raise ConfigError("threshold must be positive and finite")
    pts = field._checked_points(points)
    if pts.shape[0] == 0:
        # The report is a set of maxima, and an empty sample has none.
        raise ConfigError("verify_decomposition needs at least one point")
    split = decompose_many(field, pts, config)
    m, n = pts.shape
    # Row norms by hypot, which overflows only where the norm itself does;
    # np.linalg.norm squares the entries first.
    with np.errstate(over="ignore"):
        scale = (1.0 + np.hypot.reduce(pts, axis=1)) * (
            1.0 + np.hypot.reduce(split.field_values, axis=1)
        )
    max_orth = max_radial = float(np.max(np.abs(split.orthogonality_residuals) / scale))

    grad_fd = gradient_potential_many(field, pts, config)
    idem = np.hypot.reduce(split.conservative - grad_fd, axis=1)
    max_idem = float(np.max(idem / scale))

    # <u(t x), x> = <u(t x), t x> / t on every node of the ray.  The split
    # of the stacked nodes needs no potentials at the nodes themselves.
    ts, ws = _unit_nodes(config.order)
    nodes = (ts[:, None, None] * pts[None, :, :]).reshape(-1, n)
    u_nodes = field.evaluate_many(nodes) - gradient_potential_integral_many(field, nodes, config)
    on_rays = np.einsum("ij,ij->i", u_nodes, nodes).reshape(ts.size, m)
    residual_potentials = (ws / ts) @ on_rays
    max_res_pot = float(np.max(np.abs(residual_potentials) / scale))

    # Each maximum is tested on its own: a NaN fails its test, where
    # Python's max would skip a NaN that is not its first argument.
    passed = all(v <= threshold for v in (max_orth, max_radial, max_idem, max_res_pot))
    return VerificationReport(
        point_count=m,
        threshold=threshold,
        max_orthogonality=max_orth,
        max_radial_equality=max_radial,
        max_idempotence=max_idem,
        max_residual_potential=max_res_pot,
        passed=passed,
        split=split,
    )
