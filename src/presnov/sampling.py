"""Seeded isotropic sampling of unit directions and of balls.

All randomness comes from numpy's Philox bit generator (counter-based),
so identical seeds reproduce identical samples bit for bit regardless of
how many points other code has drawn.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ConfigError, DimensionMismatchError

__all__ = [
    "default_direction_count",
    "unit_directions",
    "ball_points",
]

# The seed of every seeded sample when the caller names none.
DEFAULT_SEED = 0


def _as_integer(value, name, error=ConfigError):
    """``value`` as a Python int; ``error`` (given the message) if it is not an integer.

    The package's one integer rule: ``operator.index`` accepts Python and
    numpy integers and rejects floats, even integral ones.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def _check_seed(seed):
    """``seed`` as a Python int, checked non-negative."""
    seed = _as_integer(seed, "seed")
    if seed < 0:
        raise ConfigError("seeds must be non-negative integers")
    return seed


def _check_integer_fields(config, *names):
    """Store the named fields of a frozen config as Python ints (None stays None)."""
    for name in names:
        value = getattr(config, name)
        if value is not None:
            object.__setattr__(config, name, _as_integer(value, name))


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_check_seed(seed)))


def _check_sample_shape(dimension, count):
    """``dimension`` and ``count`` as Python ints, each at least 1."""
    dimension = _as_integer(dimension, "dimension", DimensionMismatchError)
    if dimension < 1:
        raise DimensionMismatchError("dimension must be at least 1")
    count = _as_integer(count, "sample count")
    if count < 1:
        raise ConfigError("sample count must be at least 1")
    return dimension, count


def _check_radius(radius):
    if not 0.0 < radius < np.inf:
        raise ConfigError("radius must be positive and finite")


def default_direction_count(dimension: int) -> int:
    return 256 if dimension <= 3 else 1024


def _gaussian_directions(dimension, count, rng):
    vecs = rng.standard_normal((count, dimension))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    # A zero draw is essentially impossible; fall back to the first axis.
    bad = norms[:, 0] < 1e-12
    if bad.any():
        vecs[bad] = 0.0
        vecs[bad, 0] = 1.0
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs / norms


def unit_directions(dimension: int, count: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Deterministic isotropic unit vectors, shape (count, dimension).

    In the plane, half of the directions come from an equispaced angular
    grid (so symmetric features such as eigendirections are hit exactly)
    and the rest are normalized Gaussian draws; in higher dimensions all
    directions are normalized Gaussian draws.
    """
    dimension, count = _check_sample_shape(dimension, count)
    rng = _generator(seed)
    if dimension == 2 and count >= 2:
        k = count // 2
        angles = 2.0 * np.pi * np.arange(k) / k
        grid = np.column_stack((np.cos(angles), np.sin(angles)))
        rest = _gaussian_directions(2, count - k, rng) if count > k else np.zeros((0, 2))
        return np.vstack((grid, rest))
    return _gaussian_directions(dimension, count, rng)


def ball_points(dimension: int, count: int, radius: float, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Uniform seeded points in the open ball of the given radius."""
    dimension, count = _check_sample_shape(dimension, count)
    _check_radius(radius)
    rng = _generator(seed)
    directions = _gaussian_directions(dimension, count, rng)
    radii = radius * rng.random(count) ** (1.0 / dimension)
    return directions * radii[:, None]
