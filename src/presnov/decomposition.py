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

``gradient_potential_integral_many``, ``decompose_many`` and
``ConservativePart`` all use it (``_homotopy_gradient``).  The
remainder is then plain arithmetic, u = X - grad H: ``decompose_many``
subtracts the values, and ``SphereInvariantPart`` is the field sum of X
and -1 times ``ConservativePart(X)``, so its values are the split's
bit for bit and its Jacobian is J_X minus the Hessian of H.

A polynomial field X(x) = sum_k c_k x^E_k (a field with a monomial
table, ``VectorField.polynomial``) takes it in closed form: since
<X_d(t x), x> = t^d <X_d(x), x> on a homogeneous part X_d,

    H(x) = sum_k <c_k, x> x^E_k / (|E_k| + 1),

the Poincare homotopy operator on polynomial forms (Spivak, "Calculus on
Manifolds", ch. 4): a scalar table with one term x^E_k x_i for each
non-zero weight c_k,i / (|E_k| + 1).  grad H is that table's
``derivative`` (``Polynomial.gradient_potential``), and its Jacobian,
the exact Hessian of H, is the derivative of grad H's table (the two
held together in its ``jet``), with no quadrature and no stencil.  A
zero coefficient of X, such as the one x1^3 - x1^3 expands to, puts no
term in H.  A constant shift b adds b to grad H and nothing to its
Hessian, so grad H of X + b reads the tables of X.  The error estimate
is the rounding bound of grad H's table, gamma sum_k |g_k| |x^F_k| over
its terms g_k x^F_k; where that bound exceeds the quadrature tolerance
max(abs_tol, rel_tol |grad H|), as it can for an ill-conditioned
expansion such as (x1 - 1)^20 at x1 = 2, or overflows, the point takes
the adaptive route below.  Every other field integrates the formula
adaptively, with the Jacobian J from
``VectorField.value_and_jacobian_many``: exact for DSL and catalog
fields, the central-difference stencil of ``fields`` otherwise, whose
rounding noise sets the integrator's floor.  Potentials, and so the
finite-difference route, always integrate adaptively.

The formula scales along its ray: the change of variable t = s u in the
homotopy operator gives

    integral over t in [0, s] of X(t x) + t J(t x)^T x dt = s grad H(s x),

so grad H(x) = t0 grad H(t0 x) plus the integral over [t0, 1] alone.
``_homotopy_gradient`` takes such a start (t0, grad H(t0 x) and its
error estimates), integrates each entry over [t0, 1] under its own
bound, and returns the outer estimate plus t0 times the start's.
``ConservativePart._radial_profiles`` runs it along the probe's radius
schedule r_k = r_0 q^k, with t0 = r_{k-1} / r_k = 1 / q: each radius
adds at most the bound of its own integral and shrinks the earlier
error by 1 / q, so the estimate stays below q / (q - 1) times one
integral's bound (twice it at the default q = 2).  A sharp feature near
the origin is then resolved at the first radii, not again at each one.

``gradient_potential_many`` (central finite differences of H) is kept
only as an independent cross-check of that route, and so is not
exported: it differentiates H itself, so it shares no formula with the
homotopy route.  Its entry i at x is one integral of the difference
quotient of the potential integrand,

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
batch of up to ``_MAX_COMPONENTS`` components, so a single field call
covers all Gauss nodes of a panel, with one component per potential, per
homotopy-route entry or per finite-difference entry.  A larger batch is
integrated in chunks of whole rays, one quadrature each.  Each component
is refined on its own (the active set of ``integrate_unit``): a
component retires once it meets its bound, and a ray is evaluated while
any of its components is active, so a ray that converges on the first
panels stops paying for a ray through a sharp feature.

The module exports one name per quantity: H (``potential_many``), grad
H (``gradient_potential_integral_many``), the split
(``decompose_many``), its check (``verify_decomposition``), and the two
parts as fields (``ConservativePart``, and ``SphereInvariantPart``, the
field X - ``ConservativePart``(X)).  Every function takes a batch of
points, an (m, n) array, as only a field evaluates itself at one point
(``VectorField.evaluate``): one point x is the batch [x], and
``DecompositionSet.sample`` reads one point of a split.  The functions check their points with the rule of field
evaluation, ``VectorField._checked_points``, so an empty array gives an
empty result.  The domain is R^n or an origin-centred ball, which holds
the segment [0, x] iff it holds x, so no ray integral checks its rays
again.  ``verify_decomposition`` alone refuses an empty sample
(ConfigError), since its report is a set of maxima.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, partial

import numpy as np

from .errors import ConfigError
from .fields import _FD_SCALE, ScaledField, ShiftedField, SumField, VectorField, _fd_derivatives
from .fields import _fd_probes, _radial_values
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, _unit_nodes, integrate_unit
from .sampling import _POSITIVE, _as_real

__all__ = [
    "DecompositionSample",
    "DecompositionSet",
    "VerificationReport",
    "potential_many",
    "gradient_potential_integral_many",
    "decompose_many",
    "verify_decomposition",
    "ConservativePart",
    "SphereInvariantPart",
]

# Cap on simultaneous components of one vector-valued quadrature.  Every
# panel in its heap holds its value, its error estimate and its two
# half-panel values for each active component, so the cap bounds the
# memory of that store.  Measured with tracemalloc (2-vCPU Intel Xeon,
# numpy 2.4.6): a 1000-point split of tanh(20*(x1-1)); x2; x3 followed
# by its paired probe peaks at 7.2 MiB with the cap and 9.6 MiB without,
# the paired probe of tanh(20*(x1-1)); x2; x3; x4 at 7.3 and 14.0 MiB,
# in about the same time and with grad H within 2.2e-16.
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
    """<X(t x), x> at the nodes ts on the rays x along the last axis of ``xs``;
    raises NonFiniteValueError, naming the field, on overflow."""
    nodes = ts.reshape((-1,) + (1,) * xs.ndim) * xs
    vals = field.evaluate_many(nodes.reshape(-1, xs.shape[-1])).reshape(nodes.shape)
    return _radial_values(field, xs, vals)


def potential_many(field: VectorField, points, config: QuadratureConfig = DEFAULT_QUADRATURE):
    """Potential and quadrature error estimate at each row of ``points``.

    H(0) = 0 exactly, with no integral; every other point integrates.
    """
    pts = field._checked_points(points)

    def integrand(ts, rows):
        return _ray_radial_values(field, ts, pts[rows])[:, :, None]

    rays = np.flatnonzero(pts.any(axis=1))
    values, errors = _ray_integrals(pts, rays, 1, integrand, config)
    return values[:, 0], errors[:, 0]


def gradient_potential_many(
    field: VectorField, points, config: QuadratureConfig = DEFAULT_QUADRATURE
):
    """Gradient of the potential at each row of ``points``: central
    differences of H, the cross-check route of ``verify_decomposition``
    (not exported).

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


def _unshifted(field):
    """``field`` as (X, b) with field = X + b: X is the field under its
    constant shifts (``ShiftedField``), b their sum or None when there
    is none.  grad H of X + b is grad H of X plus b, and its Hessian is
    that of X, so a shift reads the tables of X and builds none."""
    shift = None
    while isinstance(field, ShiftedField):
        shift = field.offset if shift is None else shift + field.offset
        field = field.inner
    return field, shift


def _homotopy_gradient(field, pts, cfg, start=None):
    """grad H and its error estimates at the rows of ``pts``.

    A field with a monomial table takes the table of grad H, with its
    rounding bound as the error estimate, at every point where that
    bound meets the quadrature tolerance max(abs_tol, rel_tol |grad H|)
    (``Polynomial.value_within``); a shifted field takes its inner
    field's table plus the shift.  The other points integrate
    X(t x) + t J(t x)^T x, one component per gradient entry; at the
    origin grad H is X(0) exactly, with no integral.

    ``start``, a tuple (t0, grad H(t0 x), its error estimates) with rows
    matching ``pts``, restricts each integral to t in [t0, 1] (nodes
    t0 + (1 - t0) s, integrand and stencil noise floors scaled by
    1 - t0) and adds t0 grad H(t0 x) to the value and t0 times its
    estimates to the estimate: the ray recurrence of the module
    docstring.  Rows served by the table, and the origin, ignore it.
    """
    m, n = pts.shape
    floors = None if field.exact_jacobian else np.zeros((m, n))
    t0 = 0.0 if start is None else start[0]
    width = 1.0 - t0  # the length of the integrated part of each ray

    def integrand(ss, rows):
        xs = pts[rows]
        ts = t0 + width * ss
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
            noise = width * noise_scale * np.abs(vals).max(axis=(0, 2))
            floors[rows] = np.maximum(floors[rows], noise[:, None])
        return width * (vals + ts[:, None, None] * jac_t_x)

    inner, shift = _unshifted(field)
    table = inner.polynomial
    if table is None:
        grads, errors = np.zeros((m, n)), np.zeros((m, n))
        pending = np.ones(m, dtype=bool)
    else:
        with np.errstate(all="ignore"):  # overflow leaves the point to the quadrature
            grads, errors, served = table.gradient_potential.value_within(
                pts, cfg.abs_tol, cfg.rel_tol, shift
            )
        pending = ~served
    at_origin = ~pts.any(axis=1)
    rays = np.flatnonzero(pending & ~at_origin)
    if rays.size:
        values, estimates = _ray_integrals(pts, rays, n, integrand, cfg, floors)
        if start is not None:
            values[rays] += t0 * start[1][rays]
            estimates[rays] += t0 * start[2][rays]
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

    def columns(self) -> dict:
        """The arrays whose rows are the samples, keyed by the field names
        of DecompositionSample in their order: a sample's field is a row
        of this set's field of the same name, or of its plural."""
        mine = {f.name for f in fields(self)}
        return {
            f.name: getattr(self, f.name + "s" if f.name + "s" in mine else f.name)
            for f in fields(DecompositionSample)
        }

    def sample(self, i: int) -> DecompositionSample:
        return DecompositionSample(**{
            name: column[i] if column.ndim > 1 else float(column[i])
            for name, column in self.columns().items()
        })


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


class ConservativePart(VectorField):
    """The conservative part of a field, as a field itself.

    Each evaluation runs the homotopy route (``_homotopy_gradient``), so
    values carry that route's error.  Of a field with a monomial table
    its table is that of grad H, the derivative of H's table
    (``Polynomial.gradient_potential``), which holds no term for a zero
    coefficient of the field's: where the field's table cancels a
    monomial, as x1^3 - x1^3 does, the part is served by its table at
    points where the field itself overflows.  ``value_and_jacobian_many``
    takes grad H and its Jacobian, the exact Hessian of H, from one
    evaluation of that table's jet (``Polynomial.jet``).  Rows whose
    rounding bound misses the quadrature tolerance take their values from
    the homotopy route and their Jacobians from the table's
    ``derivative`` alone, where no overflowing power of the values meets
    a zero coefficient.
    Of a shifted source the part reads the tables of the inner field
    (``_unshifted``), so the shift builds none of its own.  Otherwise the
    Jacobian is the central-difference fallback.
    """

    def __init__(self, source: VectorField, config: QuadratureConfig = DEFAULT_QUADRATURE):
        super().__init__(source.dimension, f"conservative_part({source.label})", source.domain)
        self.source = source
        self.config = config
        self._inner, shift = _unshifted(source)
        self.exact_jacobian = self._inner.polynomial is not None
        # The shift adds to grad H, column 0 of the jet, and not to the Hessian.
        n = self.dimension
        self._jet_shift = None if shift is None else np.column_stack((shift, np.zeros((n, n))))

    @cached_property
    def polynomial(self):
        table = self.source.polynomial
        return None if table is None else table.gradient_potential

    def _evaluate_many(self, points):
        # The points passed this part's checks, and it shares the source's domain.
        return _homotopy_gradient(self.source, points, self.config)[0]

    def _value_and_jacobian_many(self, points):
        if not self.exact_jacobian:
            return super()._value_and_jacobian_many(points)
        table = self._inner.polynomial.gradient_potential
        jet, _, served = table.jet.value_within(
            points, self.config.abs_tol, self.config.rel_tol, self._jet_shift
        )
        values, jac = jet[..., 0], jet[..., 1:]
        if not served.all():
            rest = points[~served]
            values[~served], jac[~served] = self._evaluate_many(rest), table.derivative(rest)
        return values, jac

    def _radial_profiles(self, radii, directions):
        """The probe's table by the ray recurrence (module docstring): radius
        r_k integrates its ray only over t in [r_{k-1} / r_k, 1], from
        grad H at r_{k-1} d, and the first radius integrates its whole ray.
        Each radius passes the checks of ``evaluate_many``."""
        profiles = []
        for k, r in enumerate(radii):
            start = (radii[k - 1] / r, grads, errors) if k else None
            route = partial(_homotopy_gradient, self.source, cfg=self.config, start=start)
            pts, (grads, errors) = self._checked_call(r * directions, route)
            grads = self._checked_array(pts, grads, pts.shape, "value")
            profiles.append(_radial_values(self, pts, grads) / r)
        return np.stack(profiles)


class SphereInvariantPart(SumField):
    """The sphere-invariant remainder u = X - grad H of a field, as a field
    itself: the sum of X and -1 times its ``ConservativePart``.  Its
    values, Jacobian, table and exactness are those of the two parts, so
    its values are ``decompose_many``'s ``sphere_invariant`` bit for bit.
    """

    def __init__(self, source: VectorField, config: QuadratureConfig = DEFAULT_QUADRATURE):
        super().__init__(source, ScaledField(-1.0, ConservativePart(source, config)))
        self.label = f"sphere_invariant_part({source.label})"
        self.source = source
        self.config = config


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
    threshold = _as_real(threshold, "threshold", _POSITIVE)
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
