"""Adaptive composite Gauss-Legendre quadrature on [0, 1].

The integrand may be scalar- or vector-valued: ``f(t)`` receives a 1-d
array of nodes and returns values of shape ``(len(t),)`` or
``(len(t), k)``.  ``f`` is the only way the integrator evaluates anything.

Each panel is integrated at the configured order and re-integrated on
its two halves; the difference is the panel's error estimate and the
half-panel sum is kept as its value.  Panels are refined worst-first
until every component's accumulated estimate meets its own bound,
``max(abs_tol, rel_tol * |integral|)``, raised to a few ulps of the
largest integrand value seen and to an optional noise floor.

A vector integrand is refined as an active set: a component retires as
soon as it meets its bound.  Its value and error are frozen, and later
splits sum and re-estimate only the components still active, with panel
priorities taken over those, so a component that has converged stops
paying for the hard ones (Gander and Gautschi, "Adaptive Quadrature -
Revisited", BIT 2000).  A caller whose components are costly to evaluate
passes ``select`` and then evaluates only the active ones; otherwise
``f`` keeps returning every component and the inactive ones are dropped.
``max_subdivisions`` bounds the panel splits of the call.

A polynomial field reaches this module for grad H only at the points
where the rounding bound of its monomial table misses the tolerance, as
the cancelling expansion of (x1 - 1)^20 does at x1 = 2; ``decomposition``
takes grad H, and the Hessian of H, in closed form from the table at
every other point.  Potentials, and with them the finite-difference
gradient route, are integrated here for every field.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteValueError, QuadratureError
from .sampling import _POSITIVE, _check_integer_fields, _check_real_fields

__all__ = ["QuadratureConfig", "DEFAULT_QUADRATURE", "integrate_unit"]


# numpy documents leggauss as tested up to degree 100.
_MAX_ORDER = 100


@dataclass(frozen=True)
class QuadratureConfig:
    """Settings for the adaptive Gauss-Legendre scheme."""

    order: int = 16
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 4096

    def __post_init__(self):
        _check_integer_fields(self, order=(2, _MAX_ORDER), max_subdivisions=(1, None))
        # An infinite rel_tol times a zero integral is a NaN bound that never accepts.
        _check_real_fields(self, abs_tol=_POSITIVE, rel_tol=_POSITIVE)


DEFAULT_QUADRATURE = QuadratureConfig()


@lru_cache(maxsize=None)
def _unit_nodes(order):
    # leggauss works on [-1, 1]; map nodes and weights to [0, 1].
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _checked_values(f, ts):
    """``f(ts)`` as a float array, checked for its leading dimension and finiteness."""
    # Overflow inside f is silent: a non-finite value is raised below.
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.asarray(f(ts), dtype=float)
    if raw.shape[:1] != ts.shape:
        raise ValueError("integrand returned a mismatched leading dimension")
    if not np.isfinite(raw).all():
        raise NonFiniteValueError("non-finite integrand value")
    return raw


def integrate_unit(
    f, config: QuadratureConfig = DEFAULT_QUADRATURE, noise_floor=None, select=None
):
    """Integrate ``f`` over [0, 1].

    Returns ``(value, error_estimate)``; both are floats for scalar
    integrands and arrays of shape ``(k,)`` for vector integrands.
    Raises QuadratureError if the subdivision budget is exhausted and
    NonFiniteValueError if the integrand returns NaN or infinity.

    ``noise_floor`` (a zero-argument callable returning an array
    broadcastable to the components, called at every acceptance test)
    lowers the acceptance bar to that level: integrands that carry
    evaluation noise cannot be resolved below their noise, and insisting
    on it would subdivide forever.  In the package such integrands are
    the finite-difference route's difference quotients and the
    homotopy-route gradient of a field whose Jacobian is the
    central-difference fallback.  A built-in floor of a few ulps of the
    largest integrand value seen plays the same role for plain rounding
    noise.

    ``select`` (a callable taking an index array) lets a vector
    integrand evaluate only its active components (see the module
    docstring).  Whenever components retire and others remain,
    ``integrate_unit`` calls ``select(rows)`` with the sorted indices,
    among all ``k`` components, of those still active; every later
    ``f(ts)`` must return exactly those columns, in that order.  The
    returned arrays and ``noise_floor`` still cover all ``k`` components.
    Without ``select``, ``f`` returns all ``k`` columns on every call.
    """
    nodes, weights = _unit_nodes(config.order)
    scalar = None
    run_max = None  # per-active-component max |f| seen so far

    def evaluate(bounds):
        nonlocal scalar, run_max
        ts = np.concatenate([a + (b - a) * nodes for a, b in bounds])
        raw = _checked_values(f, ts)
        if scalar is None:
            scalar = raw.ndim == 1
        if raw.ndim == 1:
            raw = raw[:, None]
        if run_max is not None:
            if raw.shape[1] != (result.size if select is None else run_max.size):
                raise ValueError("integrand returned the wrong number of components")
            if select is None:
                raw = raw[:, rows]
        peak = np.abs(raw).max(axis=0)
        run_max = peak if run_max is None else np.maximum(run_max, peak)
        p = config.order
        return [(b - a) * (weights @ raw[j * p : (j + 1) * p]) for j, (a, b) in enumerate(bounds)]

    coarse, fine_l, fine_r = evaluate([(0.0, 1.0), (0.0, 0.5), (0.5, 1.0)])
    value = fine_l + fine_r
    err = np.abs(value - coarse)

    # total and err_total cover the active components only; rows maps them
    # to their place among all k, and a retired component's result waits
    # in result / result_err.
    total = value.copy()
    err_total = err.copy()
    rows = np.arange(total.size)
    result = np.empty_like(total)
    result_err = np.empty_like(total)
    counter = 0
    heap = [(-float(err.max()), counter, 0.0, 1.0, value, err, fine_l, fine_r)]
    splits = 0

    eps = np.finfo(float).eps

    def within_bound():
        with np.errstate(over="ignore"):  # a large rel_tol may overflow to an infinite bound
            bound = np.maximum(config.abs_tol, config.rel_tol * np.abs(total))
        bound = np.maximum(bound, 4.0 * eps * run_max)
        if noise_floor is not None:
            floor = np.broadcast_to(np.asarray(noise_floor(), dtype=float), result.shape)
            bound = np.maximum(bound, floor[rows])
        return np.maximum(err_total, 0.0) <= bound

    while not (done := within_bound()).all():
        if done.any():
            # Retire the converged components and drop them from every panel.
            result[rows[done]] = total[done]
            result_err[rows[done]] = err_total[done]
            keep = ~done
            rows, total, err_total, run_max = rows[keep], total[keep], err_total[keep], run_max[keep]
            heap = [
                (-float(e[keep].max()), c, a, b, v[keep], e[keep], l[keep], r[keep])
                for _, c, a, b, v, e, l, r in heap
            ]
            heapq.heapify(heap)
            if select is not None:
                select(rows)
        if splits >= config.max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge within {config.max_subdivisions} subdivisions "
                f"(error estimate {float(np.max(err_total)):.3e})"
            )
        _, _, a, b, value, err, fine_l, fine_r = heapq.heappop(heap)
        splits += 1
        mid = 0.5 * (a + b)
        q1 = 0.5 * (a + mid)
        q2 = 0.5 * (mid + b)
        s0, s1, s2, s3 = evaluate([(a, q1), (q1, mid), (mid, q2), (q2, b)])
        val_l = s0 + s1
        val_r = s2 + s3
        err_l = np.abs(val_l - fine_l)
        err_r = np.abs(val_r - fine_r)
        total += val_l + val_r - value
        err_total += err_l + err_r - err
        counter += 1
        heapq.heappush(heap, (-float(err_l.max()), counter, a, mid, val_l, err_l, s0, s1))
        counter += 1
        heapq.heappush(heap, (-float(err_r.max()), counter, mid, b, val_r, err_r, s2, s3))

    result[rows] = total
    result_err[rows] = err_total
    result_err = np.maximum(result_err, 0.0)
    if scalar:
        return float(result[0]), float(result_err[0])
    return result, result_err

