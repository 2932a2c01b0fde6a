"""Vector fields on R^n: evaluation, combinators, and an analytic catalog.

A field is an immutable object with a fixed dimension that maps points to
vectors.  Evaluation is batched: subclasses implement ``_evaluate_many`` on
an ``(m, n)`` array and the base class adds dimension, finiteness, and
domain checks.  Combinators (sum, scalar multiple, constant shift, ball
restriction) evaluate structurally, with no simplification.

``value_and_jacobian_many`` returns the values together with the
Jacobians ``jac[k, i, j] = dX_i/dx_j``, under the same checks.  Fields
that know their derivative (every catalog entry, ``CallableField`` given
a ``jacobian``, the DSL's ``ExpressionField``) return it exactly and set
``exact_jacobian``; every other field falls back to the one
central-difference stencil of the package (``_fd_probes``,
``_fd_derivatives``), which also serves the finite-difference gradient
route of ``decomposition``.  Combinators propagate both the Jacobian and
whether it is exact.

Domains are either all of R^n or a closed ball centered at the origin;
both contain the segment from the origin to any of their points, which is
what the line-integral potential machinery requires.

The catalog holds fields whose potential, conservative part, and
sphere-invariant part are known in closed form, for use as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .errors import CatalogError, DimensionMismatchError, DomainError, NonFiniteValueError

__all__ = [
    "Domain",
    "VectorField",
    "CallableField",
    "SumField",
    "ScaledField",
    "ShiftedField",
    "BallRestrictedField",
    "CatalogEntry",
    "catalog_field",
    "catalog_names",
    "radial_component",
]

_BALL_SLACK = 1e-9

# Cube root of machine epsilon: the standard step for second-order
# central differences of values carrying relative rounding noise.
_FD_SCALE = float(np.cbrt(np.finfo(float).eps))


@dataclass(frozen=True)
class Domain:
    """All of R^n (radius=None) or the closed origin-centered ball."""

    dimension: int
    radius: Optional[float] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise DimensionMismatchError("dimension must be at least 1")
        if self.radius is not None:
            r = float(self.radius)
            if not (np.isfinite(r) and r > 0.0):
                raise DomainError("ball radius must be finite and positive")
            object.__setattr__(self, "radius", r)

    @property
    def is_full_space(self) -> bool:
        return self.radius is None

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Mask over the last axis of ``points``: which points lie in the domain."""
        if self.radius is None:
            return np.ones(np.shape(points)[:-1], dtype=bool)
        return np.linalg.norm(points, axis=-1) <= self.radius * (1.0 + _BALL_SLACK)

    def contains_all(self, points: np.ndarray) -> bool:
        return self.radius is None or bool(np.all(self.contains(points)))

    def intersect(self, other: "Domain") -> "Domain":
        if self.dimension != other.dimension:
            raise DimensionMismatchError("domains have different dimensions")
        if self.radius is None:
            return other
        if other.radius is None:
            return self
        return Domain(self.dimension, min(self.radius, other.radius))


class VectorField:
    """Base class for immutable vector fields on R^n."""

    def __init__(self, dimension: int, label: str = "field", domain: Optional[Domain] = None):
        dimension = int(dimension)
        if dimension < 1:
            raise DimensionMismatchError("field dimension must be at least 1")
        if domain is not None and domain.dimension != dimension:
            raise DimensionMismatchError("domain dimension does not match field dimension")
        self.dimension = dimension
        self.label = label
        self.domain = domain if domain is not None else Domain(dimension)

    # True when value_and_jacobian_many is exact rather than the stencil.
    exact_jacobian = False

    def _evaluate_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _value_and_jacobian_many(self, points: np.ndarray):
        """Values and central-difference Jacobians: the fallback."""
        m, n = points.shape
        probes, steps = _fd_probes(self, points)
        values = self.evaluate_many(probes.reshape(-1, n)).reshape(m, 2 * n + 1, n)
        # _fd_derivatives gives dX_j/dx_i at [k, i, j]; the Jacobian is its transpose.
        return values[:, 0], _fd_derivatives(values[:, 1:], steps).transpose(0, 2, 1)

    def _checked_call(self, points, method):
        """Run ``method`` on checked points; returns the points and its output.

        Overflow and invalid operations inside the call are silent: every
        non-finite result is raised by the caller as NonFiniteValueError.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"expected points of shape (m, {self.dimension}), got {pts.shape}"
            )
        if not np.isfinite(pts).all():
            raise NonFiniteValueError("points contain NaN or infinite coordinates")
        with np.errstate(all="ignore"):
            if not self.domain.contains_all(pts):
                raise DomainError(
                    f"point outside the field's domain (ball radius {self.domain.radius})"
                )
            return pts, method(pts)

    def _checked_array(self, pts, out, shape, what):
        out = np.asarray(out, dtype=float)
        if out.shape != shape:
            raise DimensionMismatchError(
                f"field returned {what} of shape {out.shape} for points of shape {pts.shape}"
            )
        finite = np.isfinite(out)
        if not finite.all():
            bad = np.flatnonzero(~finite.all(axis=tuple(range(1, out.ndim))))[0]
            raise NonFiniteValueError(
                f"field '{self.label}' produced a non-finite {what} at {pts[bad].tolist()}"
            )
        return out

    def evaluate_many(self, points) -> np.ndarray:
        """Evaluate at each row of an (m, n) array; returns an (m, n) array."""
        pts, out = self._checked_call(points, self._evaluate_many)
        return self._checked_array(pts, out, pts.shape, "value")

    def value_and_jacobian_many(self, points):
        """Values (m, n) and Jacobians (m, n, n), ``jac[k, i, j] = dX_i/dx_j``."""
        pts, (values, jac) = self._checked_call(points, self._value_and_jacobian_many)
        m, n = pts.shape
        values = self._checked_array(pts, values, pts.shape, "value")
        return values, self._checked_array(pts, jac, (m, n, n), "Jacobian")

    def evaluate(self, point) -> np.ndarray:
        x = np.asarray(point, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"expected a point of shape ({self.dimension},), got {x.shape}"
            )
        return self.evaluate_many(x[None, :])[0]

    __call__ = evaluate

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dimension} '{self.label}'>"


class CallableField(VectorField):
    """Field backed by a vectorized callable ``(m, n) -> (m, n)``.

    ``jacobian``, if given, is a vectorized callable ``(m, n) -> (m, n, n)``
    returning ``dX_i/dx_j`` at ``[k, i, j]``; without it the Jacobian is
    the central-difference fallback.
    """

    def __init__(
        self,
        dimension,
        fn: Callable[[np.ndarray], np.ndarray],
        label="field",
        domain=None,
        jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        super().__init__(dimension, label, domain)
        self._fn = fn
        self._jacobian = jacobian
        self.exact_jacobian = jacobian is not None

    def _evaluate_many(self, points):
        return self._fn(points)

    def _value_and_jacobian_many(self, points):
        if self._jacobian is None:
            return super()._value_and_jacobian_many(points)
        return self._fn(points), self._jacobian(points)


class SumField(VectorField):
    def __init__(self, first: VectorField, second: VectorField):
        if first.dimension != second.dimension:
            raise DimensionMismatchError("cannot add fields of different dimensions")
        super().__init__(
            first.dimension,
            f"({first.label} + {second.label})",
            first.domain.intersect(second.domain),
        )
        self.first = first
        self.second = second
        self.exact_jacobian = first.exact_jacobian and second.exact_jacobian

    def _evaluate_many(self, points):
        return self.first.evaluate_many(points) + self.second.evaluate_many(points)

    def _value_and_jacobian_many(self, points):
        v1, j1 = self.first.value_and_jacobian_many(points)
        v2, j2 = self.second.value_and_jacobian_many(points)
        return v1 + v2, j1 + j2


class ScaledField(VectorField):
    def __init__(self, factor: float, inner: VectorField):
        factor = float(factor)
        if not np.isfinite(factor):
            raise NonFiniteValueError("scale factor must be finite")
        super().__init__(inner.dimension, f"{factor!r}*{inner.label}", inner.domain)
        self.factor = factor
        self.inner = inner
        self.exact_jacobian = inner.exact_jacobian

    def _evaluate_many(self, points):
        return self.factor * self.inner.evaluate_many(points)

    def _value_and_jacobian_many(self, points):
        values, jac = self.inner.value_and_jacobian_many(points)
        return self.factor * values, self.factor * jac


class ShiftedField(VectorField):
    """The field plus a constant vector."""

    def __init__(self, inner: VectorField, offset):
        b = np.asarray(offset, dtype=float)
        if b.ndim != 1 or b.shape[0] != inner.dimension:
            raise DimensionMismatchError("shift vector dimension does not match the field")
        if not np.isfinite(b).all():
            raise NonFiniteValueError("shift vector must be finite")
        super().__init__(inner.dimension, f"shift({inner.label}, {b.tolist()})", inner.domain)
        self.inner = inner
        self.offset = b
        self.exact_jacobian = inner.exact_jacobian

    def _evaluate_many(self, points):
        return self.inner.evaluate_many(points) + self.offset

    def _value_and_jacobian_many(self, points):
        values, jac = self.inner.value_and_jacobian_many(points)
        return values + self.offset, jac


class BallRestrictedField(VectorField):
    """Same values as the inner field, domain restricted to a closed ball."""

    def __init__(self, inner: VectorField, radius: float):
        super().__init__(
            inner.dimension,
            f"restrict({inner.label}, r={float(radius)!r})",
            inner.domain.intersect(Domain(inner.dimension, float(radius))),
        )
        self.inner = inner
        self.exact_jacobian = inner.exact_jacobian

    def _evaluate_many(self, points):
        return self.inner.evaluate_many(points)

    def _value_and_jacobian_many(self, points):
        if not self.exact_jacobian:
            # The stencil must respect this ball, not the inner domain.
            return super()._value_and_jacobian_many(points)
        return self.inner.value_and_jacobian_many(points)


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
    flat = probes.reshape(m, (2 * n + 1) * n)
    flat[:, n :: 2 * n + 1] += steps
    flat[:, 2 * n :: 2 * n + 1] -= steps
    if not field.domain.contains_all(probes):
        raise DomainError("insufficient clearance to the ball boundary for finite differences")
    return probes, steps


def _fd_derivatives(values, steps):
    """Derivatives (m, n, ...) from values (m, 2n, ...) at probe rows 1..2n."""
    steps = steps.reshape(steps.shape + (1,) * (values.ndim - 2))
    return (values[:, 0::2] - values[:, 1::2]) / (2.0 * steps)


def radial_component(field: VectorField, point) -> float:
    """Inner product of the field value with the position vector."""
    x = np.asarray(point, dtype=float)
    return float(field.evaluate(x) @ x)


# ---------------------------------------------------------------------------
# Catalog of fields with closed-form decompositions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """A field plus its closed-form ground truths.

    ``potential``, ``conservative`` and ``sphere_invariant`` take a single
    point of shape (n,).  ``coercive`` is True/False when known, None when
    the entry cannot decide it from its parameters.
    """

    name: str
    dimension: int
    field: VectorField
    potential: Callable[[np.ndarray], float]
    conservative: Callable[[np.ndarray], np.ndarray]
    sphere_invariant: Callable[[np.ndarray], np.ndarray]
    coercive: Optional[bool]
    parameters: dict = dc_field(default_factory=dict)
    description: str = ""


def _check_params(name, params, allowed=()):
    unexpected = set(params) - set(allowed)
    if unexpected:
        raise CatalogError(
            f"catalog entry '{name}' does not accept parameter(s): "
            f"{', '.join(sorted(unexpected))}"
        )


def _require_dim(name, dimension, expected=None):
    if dimension is None:
        if expected is None:
            raise CatalogError(f"catalog entry '{name}' needs an explicit dimension")
        return expected
    dimension = int(dimension)
    if dimension < 1:
        raise CatalogError("dimension must be at least 1")
    if expected is not None and dimension != expected:
        raise CatalogError(f"catalog entry '{name}' requires dimension {expected}")
    return dimension


def _constant_jacobian(matrix):
    """Jacobian callable of a field whose Jacobian is ``matrix`` everywhere.

    Like every catalog Jacobian, and the DSL's, it is built as an (n, n, m)
    array and returned as its (m, n, n) transposed view, contiguous along
    the points, which is the layout the homotopy route contracts fastest.
    """
    return lambda p: np.repeat(matrix[:, :, None], p.shape[0], axis=2).transpose(2, 0, 1)


def _identity_entry(dimension, params):
    _check_params("identity", params)
    n = _require_dim("identity", dimension)
    fld = CallableField(n, lambda p: p.copy(), label="identity", jacobian=_constant_jacobian(np.eye(n)))
    return CatalogEntry(
        name="identity",
        dimension=n,
        field=fld,
        potential=lambda x: 0.5 * float(x @ x),
        conservative=lambda x: np.asarray(x, dtype=float).copy(),
        sphere_invariant=lambda x: np.zeros(n),
        coercive=True,
        description="X(x) = x; purely conservative.",
    )


def _float_array(value, message):
    """``value`` as a float array; CatalogError(message) if ragged or not numeric."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise CatalogError(message) from None


def _constant_entry(dimension, params):
    _check_params("constant", params, allowed=("value",))
    value = params.get("value")
    if value is None:
        raise CatalogError("catalog entry 'constant' needs a 'value' vector")
    message = "'value' must be a finite vector"
    c = _float_array(value, message)
    if c.ndim != 1 or not np.isfinite(c).all():
        raise CatalogError(message)
    n = _require_dim("constant", dimension, c.shape[0])
    fld = CallableField(
        n,
        lambda p: np.tile(c, (p.shape[0], 1)),
        label=f"constant({c.tolist()})",
        jacobian=_constant_jacobian(np.zeros((n, n))),
    )
    return CatalogEntry(
        name="constant",
        dimension=n,
        field=fld,
        potential=lambda x: float(c @ x),
        conservative=lambda x: c.copy(),
        sphere_invariant=lambda x: np.zeros(n),
        coercive=False,
        parameters={"value": c.tolist()},
        description="X(x) = c; gradient of <c, x>, bounded radial profile.",
    )


def _linear_entry(dimension, params):
    _check_params("linear", params, allowed=("matrix",))
    matrix = params.get("matrix")
    if matrix is None:
        raise CatalogError("catalog entry 'linear' needs a 'matrix'")
    message = "'matrix' must be a finite square matrix"
    a = _float_array(matrix, message)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.isfinite(a).all():
        raise CatalogError(message)
    n = _require_dim("linear", dimension, a.shape[0])
    sym = 0.5 * (a + a.T)
    skew = 0.5 * (a - a.T)
    min_eig = float(np.linalg.eigvalsh(sym).min())
    fld = CallableField(n, lambda p: p @ a.T, label=f"linear(dim={n})", jacobian=_constant_jacobian(a))
    return CatalogEntry(
        name="linear",
        dimension=n,
        field=fld,
        potential=lambda x: 0.5 * float(x @ (sym @ x)),
        conservative=lambda x: sym @ np.asarray(x, dtype=float),
        sphere_invariant=lambda x: skew @ np.asarray(x, dtype=float),
        coercive=min_eig > 0.0,
        parameters={"matrix": a.tolist()},
        description="X(x) = A x; splits into sym(A) x + skew(A) x.",
    )


def _rotation2d_entry(dimension, params):
    _check_params("rotation2d", params)
    n = _require_dim("rotation2d", dimension, 2)
    fld = CallableField(
        n,
        lambda p: np.column_stack((-p[:, 1], p[:, 0])),
        label="rotation2d",
        jacobian=_constant_jacobian(np.array([[0.0, -1.0], [1.0, 0.0]])),
    )
    return CatalogEntry(
        name="rotation2d",
        dimension=n,
        field=fld,
        potential=lambda x: 0.0,
        conservative=lambda x: np.zeros(2),
        sphere_invariant=lambda x: np.array([-x[1], x[0]], dtype=float),
        coercive=False,
        description="X(x, y) = (-y, x); purely sphere-invariant.",
    )


def _gradient_poly_entry(dimension, params):
    # Separable polynomial potential: component i of X is
    # a + b*t + c*t^2 + d*t^3 in t = x_i, i.e. the gradient of
    # a*t + b*t^2/2 + c*t^3/3 + d*t^4/4 summed over coordinates.
    _check_params("gradient_poly", params, allowed=("coeffs",))
    n = _require_dim("gradient_poly", dimension)
    coeffs = params.get("coeffs")
    if coeffs is None:
        coeffs = np.tile(np.array([0.0, 1.0, 0.0, 1.0]), (n, 1))
    else:
        message = f"'coeffs' must be a finite ({n}, 4) array"
        coeffs = _float_array(coeffs, message)
        if coeffs.shape != (n, 4) or not np.isfinite(coeffs).all():
            raise CatalogError(message)
    a, b, c, d = (coeffs[:, j] for j in range(4))

    def evaluate(p):
        return a + p * (b + p * (c + p * d))

    def jacobian(p):
        jac = np.zeros((n, n, p.shape[0]))
        jac[np.arange(n), np.arange(n)] = (b + p * (2.0 * c + p * (3.0 * d))).T
        return jac.transpose(2, 0, 1)

    def potential(x):
        x = np.asarray(x, dtype=float)
        return float(np.sum(x * (a + x * (b / 2 + x * (c / 3 + x * d / 4)))))

    # Coordinate i grows radially iff d>0, or the cubic vanishes and the
    # linear coefficient is positive; every coordinate must grow.
    grows = (d > 0) | ((d == 0) & (c == 0) & (b > 0))
    fld = CallableField(n, evaluate, label=f"gradient_poly(dim={n})", jacobian=jacobian)
    return CatalogEntry(
        name="gradient_poly",
        dimension=n,
        field=fld,
        potential=potential,
        conservative=lambda x: evaluate(np.asarray(x, dtype=float)[None, :])[0],
        sphere_invariant=lambda x: np.zeros(n),
        coercive=bool(grows.all()),
        parameters={"coeffs": coeffs.tolist()},
        description="Gradient of a separable polynomial; sphere-invariant part is zero.",
    )


def _cubic_radial_entry(dimension, params):
    _check_params("cubic_radial", params)
    n = _require_dim("cubic_radial", dimension)

    def jacobian(p):
        # d(|x|^2 x_i)/dx_j = |x|^2 delta_ij + 2 x_i x_j
        pt = np.ascontiguousarray(p.T)
        jac = 2.0 * pt[:, None, :] * pt[None, :, :]
        jac[np.arange(n), np.arange(n)] += np.einsum("ij,ij->i", p, p)
        return jac.transpose(2, 0, 1)

    fld = CallableField(
        n,
        lambda p: np.einsum("ij,ij->i", p, p)[:, None] * p,
        label="cubic_radial",
        jacobian=jacobian,
    )
    return CatalogEntry(
        name="cubic_radial",
        dimension=n,
        field=fld,
        potential=lambda x: 0.25 * float(x @ x) ** 2,
        conservative=lambda x: float(x @ x) * np.asarray(x, dtype=float),
        sphere_invariant=lambda x: np.zeros(n),
        coercive=True,
        description="X(x) = |x|^2 x; gradient of |x|^4 / 4.",
    )


def _identity_plus_rotation2d_entry(dimension, params):
    _check_params("identity_plus_rotation2d", params)
    n = _require_dim("identity_plus_rotation2d", dimension, 2)
    fld = CallableField(
        n,
        lambda p: np.column_stack((p[:, 0] - p[:, 1], p[:, 1] + p[:, 0])),
        label="identity_plus_rotation2d",
        jacobian=_constant_jacobian(np.array([[1.0, -1.0], [1.0, 1.0]])),
    )
    return CatalogEntry(
        name="identity_plus_rotation2d",
        dimension=n,
        field=fld,
        potential=lambda x: 0.5 * float(x @ x),
        conservative=lambda x: np.asarray(x, dtype=float).copy(),
        sphere_invariant=lambda x: np.array([-x[1], x[0]], dtype=float),
        coercive=True,
        description="Coercive composite: identity plus a planar rotation.",
    )


_CATALOG = {
    "identity": _identity_entry,
    "constant": _constant_entry,
    "linear": _linear_entry,
    "rotation2d": _rotation2d_entry,
    "gradient_poly": _gradient_poly_entry,
    "cubic_radial": _cubic_radial_entry,
    "identity_plus_rotation2d": _identity_plus_rotation2d_entry,
}


def catalog_names():
    return sorted(_CATALOG)


def catalog_field(name: str, dimension: Optional[int] = None, **params) -> CatalogEntry:
    """Look up a catalog entry by name; returns the field with its ground truths."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise CatalogError(
            f"unknown catalog entry '{name}' (known: {', '.join(catalog_names())})"
        ) from None
    return builder(dimension, params)
