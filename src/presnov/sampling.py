"""Seeded isotropic sampling of unit directions and of balls, and the
package's rules for numeric settings.

All randomness comes from numpy's Philox bit generator (counter-based),
so identical seeds reproduce identical samples bit for bit regardless of
how many points other code has drawn.

Every integer setting is read by ``_as_integer`` and every real one by
``_as_real``: each converts the value first, refusing anything that is
not one number of its kind, and only then compares it with its range.
So a value of the wrong kind (text, a complex number, None, a list, a
bool) gets the owner's error, as an out-of-range value does, before any
numeric work.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .errors import CatalogError, ConfigError, DimensionMismatchError

__all__ = [
    "default_direction_count",
    "unit_directions",
    "ball_points",
]

# The seed of every seeded sample when the caller names none.
DEFAULT_SEED = 0

# Ranges of real settings: the lower end, whether the end itself is
# allowed, and the words a message uses.  No setting takes infinity.
_FINITE = (-np.inf, False, "finite")
_POSITIVE = (0.0, False, "finite and positive")
_NON_NEGATIVE = (0.0, True, "finite and non-negative")

# numpy reads None as NaN and parses text when it casts an object array.
_NOT_A_NUMBER = (type(None), str, bytes)
# Python and numpy read True as 1; a setting takes it as no number.
_BOOLS = (bool, np.bool_)


def _float_array(value, message, error=CatalogError):
    """``value`` as a float array; ``error(message)`` unless it is a
    rectangular array of real numbers.  Complex numbers, text and None are
    refused, which numpy would convert by dropping imaginary parts, by
    parsing the text or as NaN."""
    try:
        array = np.asarray(value)
        if array.dtype.kind in "cSU" or (
            array.dtype.kind == "O" and any(isinstance(v, _NOT_A_NUMBER) for v in array.flat)
        ):
            raise TypeError
        return array.astype(float, copy=False)
    except (TypeError, ValueError):
        raise error(message) from None


def _as_real(value, name, range=None, error=ConfigError):
    """``value`` as a Python float; ``error`` (given the message) unless it
    is one real number, by ``_float_array``'s rule, and not a bool, inside
    ``range``.

    The package's one real rule.  ``range`` is one of the tuples above
    (None takes every float, NaN and infinities too); it is checked only
    once the value is a float.
    """
    message = f"{name} must be a real number, got {value!r}"
    array = _float_array(value, message, error)
    if array.ndim != 0 or isinstance(value, _BOOLS):
        raise error(message)
    number = float(array)
    if range is not None:
        low, closed, words = range
        if not (number < np.inf and (low <= number if closed else low < number)):
            raise error(f"{name} must be {words}, got {number!r}")
    return number


def _as_integer(value, name, range=None, error=ConfigError):
    """``value`` as a Python int; ``error`` (given the message) unless it
    is an integer inside ``range``, a pair (low, high) of inclusive ends
    (a high of None is no upper end; a range of None takes every int).

    The package's one integer rule: ``operator.index`` accepts Python and
    numpy integers and rejects floats, even integral ones, and bools are
    refused too; the range is checked only once the value is an int.
    """
    try:
        if isinstance(value, _BOOLS):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if range is not None:
        low, high = range
        if not (low <= number and (high is None or number <= high)):
            bounds = f"at least {low}" if high is None else f"between {low} and {high}"
            raise error(f"{name} must be {bounds}, got {number}")
    return number


def _check_seed(seed):
    """``seed`` as a Python int, checked non-negative."""
    return _as_integer(seed, "seed", (0, None))


def _check_integer_fields(config, **ranges):
    """Store the named fields of a frozen config as Python ints, each
    checked to lie in its range (``_as_integer``)."""
    for name, range in ranges.items():
        object.__setattr__(config, name, _as_integer(getattr(config, name), name, range))


def _check_real_fields(config, **ranges):
    """Store the named fields of a frozen config as Python floats, each
    checked to lie in its range (``_as_real``)."""
    for name, range in ranges.items():
        object.__setattr__(config, name, _as_real(getattr(config, name), name, range))


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_check_seed(seed)))


def _check_sample_shape(dimension, count):
    """``dimension`` and ``count`` as Python ints, each at least 1."""
    dimension = _as_integer(dimension, "dimension", (1, None), DimensionMismatchError)
    return dimension, _as_integer(count, "sample count", (1, None))


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
    return _unit_directions(dimension, count, _check_seed(seed)).copy()


# Every certificate of a solve, and every radius of a perturbation search,
# draws the same few seeded samples; each caller gets its own copy.
@lru_cache(maxsize=8)
def _unit_directions(dimension, count, seed):
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
    radius = _as_real(radius, "radius", _POSITIVE)
    rng = _generator(seed)
    directions = _gaussian_directions(dimension, count, rng)
    radii = radius * rng.random(count) ** (1.0 / dimension)
    return directions * radii[:, None]
