"""Vector fields on R^n: evaluation, combinators, and an analytic catalog.

A field is an immutable object with a fixed dimension that maps points to
vectors.  Evaluation is batched: subclasses implement ``_evaluate_many`` on
an ``(m, n)`` array and the base class adds dimension, finiteness, and
domain checks.  Combinators (sum, scalar multiple, constant shift, ball
restriction) evaluate structurally, with no simplification.

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

    def _evaluate_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate_many(self, points) -> np.ndarray:
        """Evaluate at each row of an (m, n) array; returns an (m, n) array."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"expected points of shape (m, {self.dimension}), got {pts.shape}"
            )
        if not np.isfinite(pts).all():
            raise NonFiniteValueError("points contain NaN or infinite coordinates")
        if not self.domain.contains_all(pts):
            raise DomainError(
                f"point outside the field's domain (ball radius {self.domain.radius})"
            )
        out = np.asarray(self._evaluate_many(pts), dtype=float)
        if out.shape != pts.shape:
            raise DimensionMismatchError(
                f"field returned shape {out.shape} for points of shape {pts.shape}"
            )
        if not np.isfinite(out).all():
            bad = np.flatnonzero(~np.isfinite(out).all(axis=1))[0]
            raise NonFiniteValueError(
                f"field '{self.label}' produced a non-finite value at {pts[bad].tolist()}"
            )
        return out

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
    """Field backed by a vectorized callable ``(m, n) -> (m, n)``."""

    def __init__(self, dimension, fn: Callable[[np.ndarray], np.ndarray], label="field", domain=None):
        super().__init__(dimension, label, domain)
        self._fn = fn

    def _evaluate_many(self, points):
        return self._fn(points)


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

    def _evaluate_many(self, points):
        return self.first.evaluate_many(points) + self.second.evaluate_many(points)


class ScaledField(VectorField):
    def __init__(self, factor: float, inner: VectorField):
        factor = float(factor)
        if not np.isfinite(factor):
            raise NonFiniteValueError("scale factor must be finite")
        super().__init__(inner.dimension, f"{factor!r}*{inner.label}", inner.domain)
        self.factor = factor
        self.inner = inner

    def _evaluate_many(self, points):
        return self.factor * self.inner.evaluate_many(points)


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

    def _evaluate_many(self, points):
        return self.inner.evaluate_many(points) + self.offset


class BallRestrictedField(VectorField):
    """Same values as the inner field, domain restricted to a closed ball."""

    def __init__(self, inner: VectorField, radius: float):
        super().__init__(
            inner.dimension,
            f"restrict({inner.label}, r={float(radius)!r})",
            inner.domain.intersect(Domain(inner.dimension, float(radius))),
        )
        self.inner = inner

    def _evaluate_many(self, points):
        return self.inner.evaluate_many(points)


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


def _identity_entry(dimension, params):
    _check_params("identity", params)
    n = _require_dim("identity", dimension)
    fld = CallableField(n, lambda p: p.copy(), label="identity")
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
    fld = CallableField(n, lambda p: np.tile(c, (p.shape[0], 1)), label=f"constant({c.tolist()})")
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
    fld = CallableField(n, lambda p: p @ a.T, label=f"linear(dim={n})")
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
    fld = CallableField(n, lambda p: np.column_stack((-p[:, 1], p[:, 0])), label="rotation2d")
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

    def potential(x):
        x = np.asarray(x, dtype=float)
        return float(np.sum(x * (a + x * (b / 2 + x * (c / 3 + x * d / 4)))))

    # Coordinate i grows radially iff d>0, or the cubic vanishes and the
    # linear coefficient is positive; every coordinate must grow.
    grows = (d > 0) | ((d == 0) & (c == 0) & (b > 0))
    fld = CallableField(n, evaluate, label=f"gradient_poly(dim={n})")
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
    fld = CallableField(
        n, lambda p: np.einsum("ij,ij->i", p, p)[:, None] * p, label="cubic_radial"
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
