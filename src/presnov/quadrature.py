"""Adaptive composite Gauss-Legendre quadrature on [0, 1].

The integrand may be scalar- or vector-valued: ``f(t)`` receives a 1-d
array of nodes and returns values of shape ``(len(t),)`` or
``(len(t), k)``.  Vector integrands share one panel subdivision, so the
worst component drives refinement and every component's error estimate
ends up below the requested tolerance.

Each panel is integrated at the configured order and re-integrated on
its two halves; the difference is the panel's error estimate and the
half-panel sum is kept as its value.  Panels are refined worst-first
until the accumulated estimate satisfies
``max(abs_tol, rel_tol * |integral|)`` componentwise.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteValueError, QuadratureError

__all__ = ["QuadratureConfig", "DEFAULT_QUADRATURE", "integrate_unit"]


@dataclass(frozen=True)
class QuadratureConfig:
    """Settings for the adaptive Gauss-Legendre scheme."""

    order: int = 16
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 4096

    def __post_init__(self):
        # numpy documents leggauss as tested up to degree 100.
        if not 2 <= self.order <= 100:
            raise ValueError("panel order must be between 2 and 100")
        # An infinite rel_tol times a zero integral is a NaN bound that never accepts.
        if not (0.0 < self.abs_tol < np.inf and 0.0 < self.rel_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureConfig()


@lru_cache(maxsize=None)
def _unit_nodes(order):
    # leggauss works on [-1, 1]; map nodes and weights to [0, 1].
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def integrate_unit(f, config: QuadratureConfig | None = None, noise_floor=None):
    """Integrate ``f`` over [0, 1].

    Returns ``(value, error_estimate)``; both are floats for scalar
    integrands and arrays of shape ``(k,)`` for vector integrands.
    Raises QuadratureError if the subdivision budget is exhausted and
    NonFiniteValueError if the integrand returns NaN or infinity.

    ``noise_floor`` (an array broadcastable to the components, or a
    zero-argument callable returning one) lowers the acceptance bar to
    that level: integrands that carry evaluation noise (for example
    embedded finite differences) cannot be resolved below their noise,
    and insisting on it would subdivide forever.  A built-in floor of a
    few ulps of the largest integrand value seen plays the same role for
    plain rounding noise.
    """
    cfg = config if config is not None else DEFAULT_QUADRATURE
    nodes, weights = _unit_nodes(cfg.order)
    scalar = None
    run_max = None  # per-component max |f| seen so far

    def evaluate(bounds):
        nonlocal scalar, run_max
        ts = np.concatenate([a + (b - a) * nodes for a, b in bounds])
        raw = np.asarray(f(ts), dtype=float)
        if raw.shape[:1] != ts.shape:
            raise ValueError("integrand returned a mismatched leading dimension")
        if not np.isfinite(raw).all():
            raise NonFiniteValueError("non-finite integrand value")
        if scalar is None:
            scalar = raw.ndim == 1
        if raw.ndim == 1:
            raw = raw[:, None]
        peak = np.abs(raw).max(axis=0)
        run_max = peak if run_max is None else np.maximum(run_max, peak)
        p = cfg.order
        return [(b - a) * (weights @ raw[j * p : (j + 1) * p]) for j, (a, b) in enumerate(bounds)]

    coarse, fine_l, fine_r = evaluate([(0.0, 1.0), (0.0, 0.5), (0.5, 1.0)])
    value = fine_l + fine_r
    err = np.abs(value - coarse)

    total = value.copy()
    err_total = err.copy()
    counter = 0
    heap = [(-float(err.max()), counter, 0.0, 1.0, value, err, fine_l, fine_r)]
    splits = 0

    eps = np.finfo(float).eps

    def converged():
        bound = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        bound = np.maximum(bound, 4.0 * eps * run_max)
        if noise_floor is not None:
            floor = noise_floor() if callable(noise_floor) else noise_floor
            bound = np.maximum(bound, np.asarray(floor, dtype=float))
        return bool(np.all(np.maximum(err_total, 0.0) <= bound))

    while not converged():
        if splits >= cfg.max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge within {cfg.max_subdivisions} subdivisions "
                f"(error estimate {float(np.max(err_total)):.3e})"
            )
        if not heap:  # pragma: no cover - defensive; estimates exhausted
            break
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

    err_total = np.maximum(err_total, 0.0)
    if scalar:
        return float(total[0]), float(err_total[0])
    return total, err_total
