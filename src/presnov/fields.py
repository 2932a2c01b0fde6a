"""Vector fields on R^n: evaluation, combinators, and an analytic catalog.

A field is an immutable object with a fixed dimension that maps points to
vectors.  Evaluation is batched: subclasses implement ``_evaluate_many`` on
an ``(m, n)`` array and the base class adds dimension, finiteness, and
domain checks (``_checked_points``, the package's one point-array check,
which the split functions of ``decomposition`` share).  Combinators
(sum, scalar multiple, constant shift, ball restriction) evaluate
structurally, with no simplification.

``value_and_jacobian_many`` returns the values together with the
Jacobians ``jac[k, i, j] = dX_i/dx_j``, under the same checks.  Fields
that know their derivative (every catalog entry, ``CallableField`` given
a ``jacobian``, the DSL's ``ExpressionField``) return it exactly and set
``exact_jacobian``; every other field falls back to the one
central-difference stencil of the package (``_fd_probes``,
``_fd_derivatives``), which also serves the finite-difference gradient
route of ``decomposition``.  Combinators propagate both the Jacobian and
whether it is exact.

``polynomial`` is the field's monomial table (``Polynomial``), or None
when the field is not known to be a polynomial.  The DSL expands it from
the expression, catalog entries declare it, ``CallableField`` takes it
as a keyword, and the combinators derive theirs lazily from their
parts'.  The table's ``degree`` bounds the degree of t -> X(t x).
From the table ``decomposition`` takes grad H, and the Hessian
of H, in closed form: the table of grad H and its derivative.  The
field's own values and Jacobians stay its own.

Domains are either all of R^n or a closed ball centered at the origin;
both contain the segment from the origin to any of their points, which is
what the line-integral potential machinery requires.

The catalog holds fields whose potential, conservative part, and
sphere-invariant part are known in closed form, for use as test oracles.
Five entries (identity, constant, linear, rotation2d and
identity_plus_rotation2d) are affine, X(x) = A x + c, built by
``_affine_entry``: the conservative part sym(A) x + c is the gradient of
H(x) = x^T sym(A) x / 2 + <c, x>, the sphere-invariant part is skew(A) x,
and X and grad H are coercive exactly when sym(A) is positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import CatalogError, ConfigError, DimensionMismatchError, DomainError
from .errors import NonFiniteValueError
from .sampling import _as_integer

__all__ = [
    "Domain",
    "Polynomial",
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

# Up to this many powers in a table, one pow call each is cheaper than
# the set-up of binary powering; beyond it products are (pow costs some
# 50 times a product).  Equilibrium solves make mostly such small calls:
# with binary powering alone they run about 20% slower.
_POW_CALLS = 128


def _float_array(value, message, error=CatalogError):
    """``value`` as a float array; ``error(message)`` unless it is a
    rectangular array of real numbers.  Complex numbers and text are
    refused, which numpy would convert by dropping imaginary parts or by
    parsing the text."""
    try:
        array = np.asarray(value)
        if array.dtype.kind in "cSU":
            raise TypeError
        return array.astype(float, copy=False)
    except (TypeError, ValueError):
        raise error(message) from None


@dataclass(frozen=True)
class Domain:
    """All of R^n (radius=None) or the closed origin-centered ball."""

    dimension: int
    radius: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(
            self, "dimension", _as_integer(self.dimension, "dimension", DimensionMismatchError)
        )
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
        # hypot overflows only where the norm itself does, and an infinite
        # norm is outside any ball; np.linalg.norm squares the entries first.
        with np.errstate(over="ignore"):
            norms = np.hypot.reduce(points, axis=-1)
        return norms <= self.radius * (1.0 + _BALL_SLACK)

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


class Polynomial:
    """The monomial table of a polynomial map, P(x) = sum_k C[k] x^E[k].

    ``exponents`` E is a (K, n) array of non-negative integers, row k the
    monomial x^E[k] = prod_j x_j^E[k, j], and ``coefficients`` C a (K,
    ...) array of finite floats: shape (K,) for a scalar polynomial, (K,
    n) for a vector field and (K, n, n) for its Jacobian.  Rows with equal
    exponents merge by summing their coefficients.  A zero coefficient
    keeps its row, so ``degree``, the largest |E[k]|, is the degree of
    t -> P(t x) unless terms cancel, and a bound on it when they do.

    Values come from one power table of the coordinates, x_j^u for the
    distinct exponents u, and ``derivative`` and ``gradient_potential``
    are tables themselves: the exponent rule, and the homotopy operator
    of the Poincare lemma (module docstring of ``decomposition``).
    """

    def __init__(self, exponents, coefficients):
        powers = np.asarray(exponents)
        if powers.ndim != 2 or powers.shape[1] < 1 or powers.dtype.kind not in "iu":
            raise ConfigError(
                "polynomial exponents must be a (K, n) array; each must be an integer"
            )
        if (powers < 0).any():
            raise ConfigError("polynomial exponents must be non-negative")
        coefs = _float_array(coefficients, "coefficients must be real numbers", ConfigError)
        if coefs.ndim < 1 or coefs.shape[0] != powers.shape[0] or not np.isfinite(coefs).all():
            raise ConfigError("coefficients must be finite, one row per row of exponents")
        # Merge rows with equal exponents: sort the rows, then sum each run.
        order = np.lexsort(powers.T)
        powers, coefs = powers[order].astype(np.int64), coefs[order]
        starts = np.ones(powers.shape[0], dtype=bool)
        starts[1:] = (powers[1:] != powers[:-1]).any(axis=1)
        starts = np.flatnonzero(starts)
        self.exponents = powers[starts]
        self.coefficients = np.add.reduceat(coefs, starts)
        self.dimension = powers.shape[1]
        self.degree = int(self.exponents.sum(axis=1).max(initial=0))
        # A power x_j^u rounds at most u - 1 times, a monomial's product
        # over its coordinates n - 1 times more, and its coefficient
        # product and its partial sum once each.
        self._gamma = (self.degree + self.dimension + starts.size) * np.finfo(float).eps

    def __add__(self, other):
        return Polynomial(
            np.concatenate((self.exponents, other.exponents)),
            np.concatenate((self.coefficients, other.coefficients)),
        )

    def __rmul__(self, factor):
        return Polynomial(self.exponents, factor * self.coefficients)

    @cached_property
    def _powers(self):
        """The distinct exponents u, and the row of x_j^E[k, j] among them at [k, j]."""
        # Sorted, not np.unique, whose first call maps some 1.5 MB more.
        values = np.sort(self.exponents, axis=None)
        distinct = values[np.flatnonzero(np.diff(values, prepend=-1))]
        return distinct, np.searchsorted(distinct, self.exponents)

    def _monomials(self, points):
        """x^E[k] at the rows of ``points``, shape (m, K), from the power table x_j^u."""
        distinct, index = self._powers
        coords = np.asarray(points, dtype=float).T
        if coords.size * distinct.size <= _POW_CALLS:
            table = coords ** distinct[:, None, None]
        else:  # binary powering: x^u is the product of the x^(2^b) over the bits b of u
            table = np.ones(distinct.shape + coords.shape)
            square = coords
            for b in range(int(distinct[-1]).bit_length()):
                if b:
                    square = square * square
                table[distinct >> b & 1 == 1] *= square
        return table[index, np.arange(self.dimension)].prod(axis=1).T

    def _contract(self, monomials, coefficients):
        # An empty table (K = 0) contracts to zeros.
        shape = coefficients.shape[1:]
        out = monomials @ coefficients.reshape(coefficients.shape[0], math.prod(shape))
        return out.reshape((monomials.shape[0],) + shape)

    def __call__(self, points):
        """P at the rows of an (m, n) array, shape (m, ...)."""
        return self._contract(self._monomials(points), self.coefficients)

    def value_and_bound(self, points):
        """P at the rows of ``points`` and a bound on its rounding error there,
        gamma sum_k |C[k]| |x^E[k]|.  The bound covers the evaluation of the
        table; coefficients are taken as exact."""
        monomials = self._monomials(points)
        bound = self._contract(np.abs(monomials), np.abs(self.coefficients))
        return self._contract(monomials, self.coefficients), self._gamma * bound

    @cached_property
    def derivative(self):
        """The table of the Jacobian: coefficients gain a last axis j, d/dx_j."""
        rows, cols = np.nonzero(self.exponents)  # one term per monomial and variable it holds
        lowered = self.exponents[rows]
        lowered[np.arange(rows.size), cols] -= 1
        shape = self.coefficients.shape[1:]
        size = math.prod(shape)
        coefs = np.zeros((rows.size, size, self.dimension))
        coefs[np.arange(rows.size), :, cols] = (
            self.coefficients[rows].reshape(rows.size, size) * self.exponents[rows, cols][:, None]
        )
        return Polynomial(lowered, coefs.reshape((rows.size,) + shape + (self.dimension,)))

    @cached_property
    def gradient_potential(self):
        """The table of grad H for this vector field X, H(x) = int_0^1 <X(t x), x> dt.

        Term C[k] x^E[k] contributes <C[k], x> x^E[k] / (|E[k]| + 1) to H,
        since <X_d(t x), x> = t^d <X_d(x), x> on a homogeneous part of
        degree d and the integral of t^d over [0, 1] is 1 / (d + 1).
        """
        n = self.dimension
        eye = np.eye(n, dtype=np.int64)
        raised = self.exponents[:, None, :] + eye  # [k, i]: the monomial x^E[k] x_i of H
        weights = self.coefficients / (self.exponents.sum(axis=1) + 1.0)[:, None]
        # d/dx_j of each monomial of H that holds x_j: component j of grad H.
        k, i, j = np.nonzero(raised)
        coefs = np.zeros((k.size, n))
        coefs[np.arange(k.size), j] = weights[k, i] * raised[k, i, j]
        return Polynomial(raised[k, i] - eye[j], coefs)


class VectorField:
    """Base class for immutable vector fields on R^n."""

    def __init__(self, dimension: int, label: str = "field", domain: Optional[Domain] = None):
        dimension = _as_integer(dimension, "field dimension", DimensionMismatchError)
        if dimension < 1:
            raise DimensionMismatchError("field dimension must be at least 1")
        if domain is not None and domain.dimension != dimension:
            raise DimensionMismatchError("domain dimension does not match field dimension")
        self.dimension = dimension
        self.label = label
        self.domain = domain if domain is not None else Domain(dimension)

    # True when value_and_jacobian_many is exact rather than the stencil.
    exact_jacobian = False
    # The field's monomial table, None when it is not known to be a polynomial.
    polynomial: Optional[Polynomial] = None

    def _evaluate_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _value_and_jacobian_many(self, points: np.ndarray):
        """Values and central-difference Jacobians: the fallback."""
        m, n = points.shape
        probes, steps = _fd_probes(self, points)
        values = self.evaluate_many(probes.reshape(-1, n)).reshape(m, 2 * n + 1, n)
        # _fd_derivatives gives dX_j/dx_i at [k, i, j]; the Jacobian is its transpose.
        return values[:, 0], _fd_derivatives(values[:, 1:], steps).transpose(0, 2, 1)

    def _checked_points(self, points) -> np.ndarray:
        """``points`` as an (m, n) float array of finite points of the domain.

        The package's one point-array check: a wrong shape, or anything but
        a rectangular array of real numbers, raises DimensionMismatchError,
        a NaN or infinite coordinate NonFiniteValueError, a point outside
        the domain DomainError, and an empty (0, n) array passes.  The domain holds the segment [0, x]
        whenever it holds x, so a checked point is also a checked ray.
        """
        expected = f"expected points of shape (m, {self.dimension})"
        pts = _float_array(points, f"{expected} of real numbers", DimensionMismatchError)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DimensionMismatchError(f"{expected}, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise NonFiniteValueError("points contain NaN or infinite coordinates")
        if not self.domain.contains_all(pts):
            raise DomainError(
                f"point outside the field's domain (ball radius {self.domain.radius})"
            )
        return pts

    def _checked_call(self, points, method):
        """Run ``method`` on checked points; returns the points and its output.

        Overflow and invalid operations inside the call are silent: every
        non-finite result is raised by the caller as NonFiniteValueError.
        """
        pts = self._checked_points(points)
        with np.errstate(all="ignore"):
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

    def _point_row(self, point) -> np.ndarray:
        """One point of shape (n,) as a (1, n) array."""
        expected = f"expected a single point of shape ({self.dimension},)"
        x = _float_array(point, f"{expected} of real numbers", DimensionMismatchError)
        if x.ndim != 1 or x.shape[0] != self.dimension:
            raise DimensionMismatchError(f"{expected}, got {x.shape}")
        return x[None, :]

    def evaluate(self, point) -> np.ndarray:
        return self.evaluate_many(self._point_row(point))[0]

    __call__ = evaluate

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dimension} '{self.label}'>"


class CallableField(VectorField):
    """Field backed by a vectorized callable ``(m, n) -> (m, n)``.

    ``jacobian``, if given, is a vectorized callable ``(m, n) -> (m, n, n)``
    returning ``dX_i/dx_j`` at ``[k, i, j]``; without it the Jacobian is
    the central-difference fallback.  ``polynomial``, if given, is the
    monomial table of ``fn``, a ``Polynomial`` with (K, n) coefficients.
    """

    def __init__(
        self,
        dimension,
        fn: Callable[[np.ndarray], np.ndarray],
        label="field",
        domain=None,
        jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        polynomial: Optional[Polynomial] = None,
    ):
        super().__init__(dimension, label, domain)
        self._fn = fn
        self._jacobian = jacobian
        self.exact_jacobian = jacobian is not None
        if polynomial is not None and not (
            isinstance(polynomial, Polynomial)
            and polynomial.coefficients.shape[1:] == (polynomial.dimension,) == (self.dimension,)
        ):
            raise ConfigError(
                f"polynomial must be a Polynomial with ({self.dimension},) coefficients"
            )
        self.polynomial = polynomial

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

    @cached_property
    def polynomial(self):
        tables = (self.first.polynomial, self.second.polynomial)
        return None if None in tables else tables[0] + tables[1]

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

    @cached_property
    def polynomial(self):
        table = self.inner.polynomial
        return None if table is None else self.factor * table

    def _evaluate_many(self, points):
        return self.factor * self.inner.evaluate_many(points)

    def _value_and_jacobian_many(self, points):
        values, jac = self.inner.value_and_jacobian_many(points)
        return self.factor * values, self.factor * jac


class ShiftedField(VectorField):
    """The field plus a constant vector."""

    def __init__(self, inner: VectorField, offset):
        message = "shift vector dimension does not match the field"
        b = _float_array(offset, message, DimensionMismatchError)
        if b.ndim != 1 or b.shape[0] != inner.dimension:
            raise DimensionMismatchError(message)
        if not np.isfinite(b).all():
            raise NonFiniteValueError("shift vector must be finite")
        super().__init__(inner.dimension, f"shift({inner.label}, {b.tolist()})", inner.domain)
        self.inner = inner
        self.offset = b
        self.exact_jacobian = inner.exact_jacobian

    @cached_property
    def polynomial(self):
        table = self.inner.polynomial
        offset = Polynomial(np.zeros((1, self.dimension), dtype=int), self.offset[None])
        return None if table is None else table + offset

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

    @cached_property
    def polynomial(self):
        return self.inner.polynomial

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


def _radial_values(field, points):
    """<X(x), x> at the rows of ``points``; raises NonFiniteValueError on overflow."""
    radial = np.einsum("ij,ij->i", field.evaluate_many(points), points)
    if not np.isfinite(radial).all():
        raise NonFiniteValueError(f"<X(x), x> of field '{field.label}' overflows")
    return radial


def radial_component(field: VectorField, point) -> float:
    """Inner product of the field value with the position vector.

    Raises NonFiniteValueError when it overflows.
    """
    return float(_radial_values(field, field._point_row(point))[0])


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
    dimension = _as_integer(dimension, "dimension", CatalogError)
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


def _affine_entry(name, n, A, c, label, description, parameters=None):
    """The affine field X(x) = A x + c with its closed forms (module docstring)."""
    sym, skew = 0.5 * (A + A.T), 0.5 * (A - A.T)
    # The table: c at the constant monomial, column j of A at x_j.
    table = Polynomial(np.eye(n + 1, n, -1, dtype=int), np.vstack((c, A.T)))
    return CatalogEntry(
        name=name,
        dimension=n,
        field=CallableField(
            n, lambda p: p @ A.T + c, label=label, jacobian=_constant_jacobian(A), polynomial=table
        ),
        potential=lambda x: 0.5 * float(x @ (sym @ x)) + float(c @ x),
        conservative=lambda x: sym @ np.asarray(x, dtype=float) + c,
        sphere_invariant=lambda x: skew @ np.asarray(x, dtype=float),
        coercive=bool(np.linalg.eigvalsh(sym).min() > 0.0),
        parameters=parameters or {},
        description=description,
    )


def _identity_entry(dimension, params):
    _check_params("identity", params)
    n = _require_dim("identity", dimension)
    return _affine_entry(
        "identity", n, np.eye(n), np.zeros(n), "identity", "X(x) = x; purely conservative."
    )


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
    return _affine_entry(
        "constant", n, np.zeros((n, n)), c, f"constant({c.tolist()})",
        "X(x) = c; gradient of <c, x>, bounded radial profile.", {"value": c.tolist()},
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
    return _affine_entry(
        "linear", n, a, np.zeros(n), f"linear(dim={n})",
        "X(x) = A x; splits into sym(A) x + skew(A) x.", {"matrix": a.tolist()},
    )


def _rotation2d_entry(dimension, params):
    _check_params("rotation2d", params)
    n = _require_dim("rotation2d", dimension, 2)
    return _affine_entry(
        "rotation2d", n, np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(n), "rotation2d",
        "X(x, y) = (-y, x); purely sphere-invariant.",
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
    # The table: a at the constant monomial, and b, c, d times e_i at x_i, x_i^2, x_i^3.
    powers = np.kron(np.arange(1, 4)[:, None], np.eye(n, dtype=int))
    table = Polynomial(
        np.vstack((np.zeros((1, n), dtype=int), powers)),
        np.vstack((a, *(np.diag(v) for v in (b, c, d)))),
    )
    fld = CallableField(
        n, evaluate, label=f"gradient_poly(dim={n})", jacobian=jacobian, polynomial=table
    )
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

    # The table: component i holds x_j^2 x_i for every j.
    eye = np.eye(n, dtype=int)
    table = Polynomial((2 * eye[:, None, :] + eye).reshape(-1, n), np.tile(eye, (n, 1)))
    fld = CallableField(
        n,
        lambda p: np.einsum("ij,ij->i", p, p)[:, None] * p,
        label="cubic_radial",
        jacobian=jacobian,
        polynomial=table,
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
    return _affine_entry(
        "identity_plus_rotation2d", n, np.array([[1.0, -1.0], [1.0, 1.0]]), np.zeros(n),
        "identity_plus_rotation2d", "Coercive composite: identity plus a planar rotation.",
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
