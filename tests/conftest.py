"""Shared generators for the test suite (seeded, deterministic)."""

import os
from pathlib import Path

import numpy as np

from presnov.dsl import Binary, Const, Norm2, Unary, Var

ROOT = Path(__file__).resolve().parents[1]


def src_env():
    """Environment for a child interpreter that imports presnov from src/,
    whether or not the package is installed."""
    return os.environ | {"PYTHONPATH": str(ROOT / "src")}


_FUNC_NAMES = ("sin", "cos", "exp", "tanh", "abs", "sqrt")
_BINARY_OPS = ("+", "-", "*", "/", "^")


def random_ast(rng, dimension, depth):
    """Random expression tree; numeric literals are non-negative (the
    canonical form produced by the parser, which pretty() assumes)."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.4:
            return Const(float(np.round(rng.uniform(0.0, 4.0), 3)))
        if roll < 0.9:
            return Var(int(rng.integers(0, dimension)))
        return Norm2()
    roll = rng.random()
    if roll < 0.25:
        op = "neg" if rng.random() < 0.5 else _FUNC_NAMES[rng.integers(0, len(_FUNC_NAMES))]
        return Unary(op, random_ast(rng, dimension, depth - 1))
    op = _BINARY_OPS[rng.integers(0, len(_BINARY_OPS))]
    left = random_ast(rng, dimension, depth - 1)
    right = random_ast(rng, dimension, depth - 1)
    return Binary(op, left, right)


def random_polynomial_field_text(rng, dimension, max_degree=3, max_terms=3):
    """DSL source for a random polynomial field of degree <= max_degree
    with coefficients in [-1, 1] and at most max_terms terms per component."""
    components = []
    for _ in range(dimension):
        terms = []
        for _ in range(int(rng.integers(1, max_terms + 1))):
            degree = int(rng.integers(1, max_degree + 1))
            indices = rng.integers(1, dimension + 1, size=degree)
            coeff = float(np.round(rng.uniform(-1.0, 1.0), 6))
            monomial = "*".join(f"x{j}" for j in indices)
            terms.append(f"{coeff!r}*{monomial}")
        components.append(" + ".join(terms))
    return "; ".join(components)
