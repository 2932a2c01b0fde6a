"""Small expression language for defining vector fields in text.

A field on R^n is written as n expressions separated by semicolons or
newlines, over the variables x1..xn:

    -x2; x1                      planar rotation
    x1^2 - 0.5*x2; x2*norm2      any smooth-looking formula

Grammar (whitespace-insensitive; expressions may not span lines):

    field  := expr ((';' | NEWLINE) expr)*
    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := NUMBER | IDENT | '(' expr ')' | FUNC '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so -x1^2
means -(x1^2); write (-x1)^2 for the square of the negation.  Known
identifiers are the variables x1..xn, the literals pi and e, and norm2,
the squared Euclidean norm of the full variable vector.  Functions:
sin, cos, exp, tanh, abs, sqrt.

A tree built by hand from the node classes meets the parser's rules
wherever it enters (``evaluate_ast``, ``pretty``, ``ExpressionField``): a
tree nested too deeply, an operator the grammar lacks, a variable index
below 0 or a norm2 dimension below 1 raises ParseError at 1:1.

Evaluation follows IEEE-754 double semantics (division by zero gives an
infinity, sqrt of a negative number gives NaN, '^' of a negative base
with a non-integer exponent gives NaN); a NaN or infinite result raises
NonFiniteValueError at the evaluation boundary.  Differentiability of
user expressions is not checked; the decomposition machinery assumes
continuously differentiable fields as a documented precondition.

'^' with an integer literal exponent k, 0 <= k <= 4 (x1^3, x2^(2)),
multiplies by binary powering and keeps pow's IEEE cases (a^0 = 1 even
at NaN and +-inf, (-0)^3 = -0, overflow to inf).  A product of k factors
rounds k - 1 times, a relative error of at most
gamma_(k-1) = (k-1)u/(1-(k-1)u) for unit roundoff u, so a^2 is
correctly rounded where np.power may not be.  The cap is 4 because that
error grows with k: (x1-1)^20 multiplied out drifts beyond what the
split's checks allow.  Every other '^' (larger, negative, non-integer or
computed exponents) calls np.power.

Values come from one AST walker, generic over its arithmetic, on
floats.  Jacobians are exact.  A field with a monomial table (below)
takes X and J from the table's jet, one power table and one
contraction, at every point whose rounding bound meets the default
quadrature tolerances (``Polynomial.jet_within``, which hands every
other point to the walker below); every other field, and every other
point, runs the same walker on forward-mode duals (value, gradient)
(Griewank and Walther, "Evaluating Derivatives", 2nd ed., 2008).  abs
differentiates to sign, '^' with a constant exponent c to c a^(c-1) a'
(0 when c = 0; for the integer exponents above, a^(c-1) by the same
multiplication), and '^' with a varying exponent to b a^(b-1) a' +
a^b ln(a) b' under the same IEEE rules.  A zero tangent times an
infinite local derivative is 0, so x1*sqrt(norm2) differentiates to 0 at
the origin; a derivative that is still not finite, as that of sqrt(x1)
at x1 = 0, raises NonFiniteValueError.

A field's monomial table (``ExpressionField.polynomial``) is built when
first asked for, by the same walker in a third arithmetic, on tables
(``_Expansion``): a constant, a variable and norm2 are tables, negation,
'+', '-' and '*' combine them, '/' divides by a constant subexpression
and '^' raises to a non-negative integer literal exponent.  The walk
that checks every tree (``_survey``) also finds whether it holds only
these operations; a tree with a function or any other power (a
negative or non-integer exponent, or a computed one, as in x1^(1+1))
leaves the field without a table before anything is expanded.  The
expansion itself refuses only a division by anything but a non-zero
constant, and an expansion whose products would multiply more than
``_MAX_TERM_PRODUCTS`` pairs of terms in all.
Terms that cancel keep their row with a zero coefficient, so the table's
degree is never below the degree along rays and equals it unless terms
cancel.  The table evaluates the expanded form, which can differ from
the AST in IEEE edge cases: x1^3 - x1^3 expands to 0, where the AST
overflows at x1 = 1e200.  There the jet's zero coefficient times the
overflowing power is NaN, a bound no point meets, so the point takes
the walker and raises NonFiniteValueError, as ``evaluate_many`` does;
so does any point whose bound overflows.  grad H's table holds no term
for a zero coefficient (``Polynomial.gradient_potential``), so the
conservative part of x1^3 - x1^3; x2 is (0, x2), served by its table at
(1e200, 0); X itself, and every split that evaluates X, still raises
there.  ``evaluate_many`` always walks the AST, so the field's values,
and the checks that read them, stay independent of the table.

``pretty``, and the label of a field built from trees rather than text,
come from the same walker in a fourth arithmetic, on text (``_Text``):
a value is the subexpression's text and its precedence, and each
operator parenthesizes an operand only where its precedence is too low
to reparse identically.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, NonFiniteValueError, ParseError
from .fields import Polynomial, VectorField
from .quadrature import DEFAULT_QUADRATURE
from .sampling import _as_integer, _float_array

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Norm2",
    "FUNCTIONS",
    "parse_expressions",
    "parse_expression",
    "parse_field",
    "evaluate_ast",
    "pretty",
    "ExpressionField",
]


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 0-based; prints as x{index+1}


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'neg' or a function name
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Norm2(Expr):
    dimension: int  # sums the squares of x1..x{dimension}, the parser's dimension


FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "abs": np.abs,
    "sqrt": np.sqrt,
}

_UNARY_OPERATORS = {"neg", *FUNCTIONS}
_LITERALS = {"pi": math.pi, "e": math.e}
_VAR_RE = re.compile(r"x([1-9][0-9]*)\Z")
# The parser recurses once per parenthesis, unary minus and '^' it enters,
# and the AST walker (``_eval_raw``, for values, gradients, tables and
# text) once per level of the tree, where each operator of a '+ -' or
# '* /' chain is a level too.  ``_survey`` holds every tree to
# ``_MAX_HEIGHT`` before the walker enters it.  Both bounds leave headroom
# below Python's recursion limit of 1000 for the caller's own frames: the
# test suite, under pytest and hypothesis, starts a walker about 70 frames
# deep.
_MAX_DEPTH = 200
_MAX_HEIGHT = 500
# The expansion of a field into its monomial table stops, with no table,
# once its products of tables would multiply more than this many pairs
# of terms.  Measured: expansion costs about 2 us per pair, so ~10 ms at
# the cap, where grad H from the table still takes a quarter of the
# adaptive route's time on 100 points ((0.5 x1 + 0.5 x2 + 0.5 x3)^20);
# at 10^4 pairs it costs 20-30 ms and takes half.
_MAX_TERM_PRODUCTS = 4096


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>[-+*/^()])
    | (?P<sep>[;\n])
    | (?P<ws>[ \t\r]+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | op | sep | eof
    text: str
    line: int
    column: int
    value: float = 0.0


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "number":
            tokens.append(_Token("number", lexeme, line, col, value=float(lexeme)))
        elif kind != "ws":
            tokens.append(_Token(kind, lexeme, line, col))
        if lexeme == "\n":
            line += 1
            col = 1
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens, dimension):
        self.tokens = tokens
        self.pos = 0
        self.dimension = dimension
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok if tok is not None else self.peek()
        raise ParseError(message, tok.line, tok.column)

    def _enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.error("expression nests too deeply")

    def accept(self, ops):
        """The next token, consumed, if it is one of the operators ``ops``;
        else None."""
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.text in ops:
            self.pos += 1
            return tok
        return None

    def closed(self, node):
        """``node``, once the ')' that closes its parenthesis is consumed."""
        if not self.accept(")"):
            self.error("expected ')'")
        return node

    def expr(self):
        self._enter()
        try:
            node = self.term()
            while op := self.accept("+-"):
                node = Binary(op.text, node, self.term())
            return node
        finally:
            self.depth -= 1

    def term(self):
        node = self.factor()
        while op := self.accept("*/"):
            node = Binary(op.text, node, self.factor())
        return node

    def factor(self):
        self._enter()
        try:
            if self.accept("-"):
                return Unary("neg", self.factor())
            node = self.base()
            if self.accept("^"):
                return Binary("^", node, self.factor())
            return node
        finally:
            self.depth -= 1

    def base(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Const(tok.value)
        if self.accept("("):
            return self.closed(self.expr())
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.accept("("):
                if name not in FUNCTIONS:
                    self.error(f"unknown function '{name}'", tok)
                return self.closed(Unary(name, self.expr()))
            if name in _LITERALS:
                return Const(_LITERALS[name])
            if name == "norm2":
                return Norm2(self.dimension)
            m = _VAR_RE.match(name)
            if m:
                index = int(m.group(1))
                if index > self.dimension:
                    self.error(
                        f"variable {name} exceeds the field dimension {self.dimension}", tok
                    )
                return Var(index - 1)
            self.error(f"unknown identifier '{name}'", tok)
        self.error(f"expected a number, identifier, or '(', got {tok.text!r}" if tok.text else "unexpected end of input")


def _segments(tokens):
    """The non-blank segments of ``tokens``, in order: each a list of
    tokens that ends in the separator or end token closing it."""
    segments, start = [], 0
    for i, tok in enumerate(tokens):
        if tok.kind in ("sep", "eof"):
            if i > start:
                segments.append(tokens[start : i + 1])
            start = i + 1
    return segments


def _survey(node, line=1, column=1):
    """The number of coordinates ``node`` reads (its highest variable index
    + 1, or the dimension of a norm2 it holds), the dimensions of its
    norm2 nodes, and whether it holds only table operations (no function,
    and every '^' with a non-negative integer literal exponent: module
    docstring), from one walk of its tree without recursion.

    Refuses, with a ParseError at ``line``:``column`` (1:1 for a tree built
    by hand), a tree of more than ``_MAX_HEIGHT`` levels and a node the
    parser cannot produce: an unknown operator, a variable whose index is
    not a non-negative integer, a norm2 whose dimension is not a positive
    integer.
    """
    reads, dimensions, tabled, stack = 0, set(), True, [(node, 1)]
    while stack:
        n, height = stack.pop()
        if height > _MAX_HEIGHT:
            raise ParseError("expression nests too deeply", line, column)
        kind = type(n)
        if kind is Binary or kind is Unary:
            if n.op not in (_OPERATORS if kind is Binary else _UNARY_OPERATORS):
                raise ParseError(f"unknown operator {n.op!r}", line, column)
            if kind is Unary:
                tabled = tabled and n.op == "neg"
            elif n.op == "^":
                c = n.right.value if type(n.right) is Const else -1.0
                tabled = tabled and c >= 0 and float(c).is_integer()
            below = (n.left, n.right) if kind is Binary else (n.operand,)
            stack += [(child, height + 1) for child in below]
        elif kind is Var or kind is Norm2:
            last = n.index if kind is Var else n.dimension - 1
            if type(last) is not int and not isinstance(last, np.integer) or last < 0:
                raise ParseError(f"{n!r} reads no variable among x1, x2, ...", line, column)
            reads = max(reads, last + 1)
            if kind is Norm2:
                dimensions.add(n.dimension)
        elif kind is not Const:
            raise TypeError(f"not an expression node: {n!r}")
    return reads, dimensions, tabled


def _parse_segment(segment, dimension):
    """The expression of one segment (``_segments``)."""
    parser = _Parser(segment, dimension)
    node = parser.expr()
    _survey(node, segment[0].line, segment[0].column)
    trailing = parser.peek()
    if trailing.kind not in ("sep", "eof"):
        parser.error(f"unexpected {trailing.text!r} after expression")
    return node


def parse_expressions(text: str, dimension: Optional[int] = None):
    """Parse DSL source into a list of expression ASTs.

    With ``dimension=None`` the dimension is inferred from the number of
    expressions.  Blank segments (trailing separators, empty lines) are
    skipped.  Raises ParseError with a 1-based line/column position.
    """
    tokens = _tokenize(text)
    segments = _segments(tokens)
    if not segments:
        raise ParseError("empty field definition", 1, 1)
    if dimension is None:
        n = len(segments)
    else:
        n = _as_integer(dimension, "field dimension", (1, None), ParseError)
    if len(segments) != n:
        eof = tokens[-1]
        raise ParseError(
            f"expected {n} expressions for dimension {n}, found {len(segments)}",
            eof.line,
            eof.column,
        )
    return [_parse_segment(segment, n) for segment in segments]


def parse_expression(text: str, dimension: int) -> Expr:
    """Parse a single expression over x1..x{dimension} into an AST."""
    tokens = _tokenize(text)
    segments = _segments(tokens)
    if len(segments) != 1:
        eof = tokens[-1]
        raise ParseError("expected exactly one expression", eof.line, eof.column)
    n = _as_integer(dimension, "field dimension", (1, None), ParseError)
    return _parse_segment(segments[0], n)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


_OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
# '^' raises to these integer literal exponents by multiplication
# (``_power``, module docstring); every other exponent goes to np.power.
_POWERED = frozenset(range(5))


def _power(a, k):
    """a^k for an integer k in ``_POWERED``, by binary powering: a^0 = 1
    (also at NaN and +-inf, as for pow), a^2 = a*a, a^3 = a*(a*a) and
    a^4 = (a*a)*(a*a).  Relative error at most gamma_(k-1) = (k-1)u/(1-(k-1)u)
    where nothing underflows (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., ch. 3): a^1 is exact and a^2 correctly rounded."""
    if k == 0:
        return np.ones_like(a)
    result = None
    while True:
        if k & 1:
            result = a if result is None else result * a
        k >>= 1
        if not k:
            return result
        a = a * a


class _Reals:
    """Plain float arithmetic: a value is an (m,) array."""

    @staticmethod
    def const(value, points):
        return np.full(points.shape[0], value)

    @staticmethod
    def var(index, points):
        return points[:, index].copy()

    @staticmethod
    def norm2(points):
        return np.einsum("ij,ij->i", points, points)

    @staticmethod
    def unary(op, a):
        return -a if op == "neg" else FUNCTIONS[op](a)

    @staticmethod
    def binary(op, a, b):
        return _OPERATORS[op](a, b)

    @staticmethod
    def power(a, c):
        """a^c for a literal c: by ``_power`` for c in ``_POWERED``, else by
        np.power against a full array of c, as for a computed exponent (a
        scalar c would take numpy's sqrt and reciprocal shortcuts, whose
        bits differ)."""
        return _power(a, int(c)) if c in _POWERED else np.power(a, np.full(a.shape, c))


# d f(a) / da from a and f(a), for each function.
_FUNCTION_DERIVATIVES = {
    "sin": lambda a, f: np.cos(a),
    "cos": lambda a, f: -np.sin(a),
    "exp": lambda a, f: f,
    "tanh": lambda a, f: 1.0 / np.cosh(a) ** 2,
    "abs": lambda a, f: np.sign(a),
    "sqrt": lambda a, f: 0.5 / f,
}


@lru_cache(maxsize=None)
def _basis(n):
    """Gradients of x1..xn: row i is e_i as an (n, 1) column, read-only."""
    basis = np.eye(n)[:, :, None]
    basis.setflags(write=False)
    return basis


def _scaled(grad, factor, unbounded=False):
    """``grad`` (None, or broadcastable to (n, m)) times ``factor`` (m,).

    ``unbounded`` marks a factor that can be infinite where the value is
    finite: the local derivative of sqrt, or of a^b with b < 1, at a = 0.
    There a zero tangent stays zero (0 * inf = 0, the forward-mode
    convention), as the derivative of |x| x = x sqrt(norm2) at the
    origin is 0.
    """
    if grad is None:
        return None
    product = grad * factor
    if unbounded and np.isinf(factor).any():
        product = np.where(grad == 0.0, 0.0, product)
    return product


def _summed(first, second):
    if first is None:
        return second
    if second is None:
        return first
    return first + second


class _Duals:
    """Forward-mode arithmetic: a value is a pair (v, g) of the plain value
    v (m,) and its gradient g, broadcastable to (n, m) (one row per
    variable, so every operation runs along the points), or None where
    the gradient vanishes structurally (constant subexpressions).  The
    plain parts are computed exactly as by ``_Reals``.
    """

    @staticmethod
    def const(value, points):
        return _Reals.const(value, points), None

    @staticmethod
    def var(index, points):
        return _Reals.var(index, points), _basis(points.shape[1])[index]

    @staticmethod
    def norm2(points):
        return _Reals.norm2(points), 2.0 * np.ascontiguousarray(points.T)

    @staticmethod
    def unary(op, a):
        v, g = a
        if op == "neg":
            return -v, None if g is None else -g
        f = _Reals.unary(op, v)
        return f, _scaled(g, _FUNCTION_DERIVATIVES[op](v, f), op == "sqrt")

    @staticmethod
    def power(a, c):
        """a^c for a literal c; for c = k in ``_POWERED`` with gradient
        k a^(k-1) a' by the same kernel, and none for k = 0."""
        av, ag = a
        if c not in _POWERED:
            return _Duals.binary("^", a, (np.full(av.shape, c), None))
        k = int(c)
        return _power(av, k), _scaled(ag, k * _power(av, k - 1), True) if k else None

    @staticmethod
    def binary(op, a, b):
        (av, ag), (bv, bg) = a, b
        v = _Reals.binary(op, av, bv)
        if op == "+":
            return v, _summed(ag, bg)
        if op == "-":
            return v, _summed(ag, None if bg is None else -bg)
        if op == "*":
            return v, _summed(_scaled(ag, bv), _scaled(bg, av))
        if op == "/":
            return v, _scaled(_summed(ag, _scaled(bg, -v)), 1.0 / bv)
        if bg is None:  # '^' with a constant exponent c: c a^(c-1), and 0 when c = 0
            return v, _scaled(ag, bv * np.power(av, bv - 1.0), True) if bv.any() else None
        # '^' in general: b a^(b-1) a' + a^b ln(a) b', under IEEE rules
        return v, _summed(
            _scaled(ag, bv * np.power(av, bv - 1.0), True), _scaled(bg, v * np.log(av))
        )


def _eval_raw(node, points, arith=_Reals):
    """Evaluate on an (m, n) array of points in the given arithmetic.

    With ``_Reals`` (the default) returns the (m,) values, with ``_Duals``
    the (value, gradient) pair, with an ``_Expansion`` (on no points) the
    monomial table, and with ``_Text`` (on no points) the (text,
    precedence) pair.  IEEE semantics.  '^' with a literal exponent goes to
    the arithmetic's ``power``, every other operator to ``binary``.
    """
    kind = type(node)  # exact types, most frequent first: this runs per node per call
    if kind is Binary:
        left, right = _eval_raw(node.left, points, arith), node.right
        if node.op == "^" and type(right) is Const:
            return arith.power(left, right.value)
        return arith.binary(node.op, left, _eval_raw(right, points, arith))
    if kind is Var:
        return arith.var(node.index, points)
    if kind is Const:
        return arith.const(node.value, points)
    if kind is Unary:
        return arith.unary(node.op, _eval_raw(node.operand, points, arith))
    if kind is Norm2:
        return arith.norm2(points[:, : node.dimension])
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_ast(node: Expr, point) -> float:
    """Evaluate one AST at a point; raises NonFiniteValueError on NaN/inf.

    The point is a vector of real numbers (a scalar for one variable) with
    at least as many coordinates as the AST reads (``_survey``), and the
    AST reads only those: a norm2 parsed for dimension d sums x1..xd, as x1
    reads x1 alone.  Anything else raises DimensionMismatchError.
    """
    needed = _survey(node)[0]
    expected = f"expected a vector of at least {needed} real number(s)"
    x = np.atleast_1d(_float_array(point, expected, DimensionMismatchError))
    if x.ndim != 1 or x.size < needed:
        raise DimensionMismatchError(f"{expected}, got shape {x.shape}")
    with np.errstate(all="ignore"):
        value = float(_eval_raw(node, x[None, :])[0])
    if not math.isfinite(value):
        raise NonFiniteValueError(
            f"expression produced a non-finite value at {x.tolist()}"
        )
    return value


class _NotTabled(Exception):
    """The expression has no monomial table (module docstring)."""


class _Expansion:
    """Table arithmetic for ``_eval_raw``: a value is a monomial table
    {exponents: coefficient} over x1..xn, and one budget of
    ``_MAX_TERM_PRODUCTS`` term products is charged across its calls.
    It runs only on trees that ``_survey`` found to hold table operations
    alone; a division by anything but a non-zero constant, or a product
    beyond the budget, raises ``_NotTabled``."""

    def __init__(self, n):
        self.n = n
        self.budget = _MAX_TERM_PRODUCTS

    def product(self, a, b):
        self.budget -= len(a) * len(b)  # charged before any work
        if self.budget < 0:
            raise _NotTabled
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                out[e] = out.get(e, 0.0) + ca * cb
        return out

    def const(self, value, points):
        return {(0,) * self.n: value}

    def var(self, index, points):
        return {tuple(int(j == index) for j in range(self.n)): 1.0}

    def norm2(self, points):  # ExpressionField checked every norm2 against n
        return {tuple(2 * int(j == i) for j in range(self.n)): 1.0 for i in range(self.n)}

    def unary(self, op, a):  # negation: the survey refused every function
        return {e: -c for e, c in a.items()}

    def power(self, a, c):  # c is a non-negative integer literal (the survey)
        out = self.const(1.0, None)
        for _ in range(int(c)):
            out = self.product(out, a)
        return out

    def binary(self, op, a, b):
        if op == "*":
            return self.product(a, b)
        if op == "/":  # by a non-zero constant subexpression only
            divisor = b.get((0,) * self.n) if len(b) == 1 else None
            if not divisor:
                raise _NotTabled
            return {e: c / divisor for e, c in a.items()}
        out = dict(a)  # '+' or '-': the survey sent every '^' to power
        sign = 1.0 if op == "+" else -1.0
        for e, c in b.items():
            out[e] = out.get(e, 0.0) + sign * c
        return out


def _polynomial(expressions, n):
    """The monomial table of the field with these components, or None."""
    expansion, points = _Expansion(n), np.empty((0, n))
    exponents, components, values = [], [], []
    try:
        for i, node in enumerate(expressions):
            for e, c in _eval_raw(node, points, expansion).items():
                exponents.append(e)
                components.append(i)
                values.append(c)
    except _NotTabled:
        return None
    coefficients = np.zeros((len(values), n))
    coefficients[np.arange(len(values)), components] = values
    if not np.isfinite(coefficients).all():
        return None  # a coefficient overflowed: no finite table
    return Polynomial(np.array(exponents, dtype=np.int64), coefficients)


# ---------------------------------------------------------------------------
# Pretty-printing with minimal parentheses
# ---------------------------------------------------------------------------

_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5
# Per binary operator: its precedence, and the lowest precedences at which
# its left and its right operand print without parentheses.  '+ -' and
# '* /' chain to the left; the base of '^' must be an atom, its exponent
# at least a negation.
_PRINTED = {
    "+": (_ADD, _ADD, _MUL),
    "-": (_ADD, _ADD, _MUL),
    "*": (_MUL, _MUL, _NEG),
    "/": (_MUL, _MUL, _NEG),
    "^": (_POW, _ATOM, _NEG),
}


def _wrapped(a, lowest):
    text, prec = a
    return text if prec >= lowest else f"({text})"


class _Text:
    """Printing arithmetic for ``_eval_raw``: a value is a pair (text,
    precedence) of the subexpression printed with the fewest parentheses."""

    @staticmethod
    def const(value, points):
        return repr(float(value)), _ATOM

    @staticmethod
    def var(index, points):
        return f"x{index + 1}", _ATOM

    @staticmethod
    def norm2(points):
        return "norm2", _ATOM

    @staticmethod
    def unary(op, a):
        return ("-" + _wrapped(a, _NEG), _NEG) if op == "neg" else (f"{op}({a[0]})", _ATOM)

    @staticmethod
    def power(a, c):
        return _Text.binary("^", a, _Text.const(c, None))

    @staticmethod
    def binary(op, a, b):
        prec, left, right = _PRINTED[op]
        return f"{_wrapped(a, left)}{op}{_wrapped(b, right)}", prec


def _printed(node):
    """The text of a surveyed ``node`` (``pretty``)."""
    return _eval_raw(node, np.empty((0, 0)), _Text)[0]


def pretty(node: Expr) -> str:
    """Render an AST with the fewest parentheses that reparse identically.

    Assumes canonical ASTs as produced by the parser: numeric literals are
    non-negative (negation is an explicit node).
    """
    _survey(node)
    return _printed(node)


# ---------------------------------------------------------------------------
# Expression-backed fields
# ---------------------------------------------------------------------------


class ExpressionField(VectorField):
    """Vector field whose components are parsed expressions."""

    exact_jacobian = True

    def __init__(self, dimension, expressions, source=None):
        expressions = tuple(expressions)
        if len(expressions) != dimension:
            raise ParseError(
                f"expected {dimension} expressions, found {len(expressions)}", 1, 1
            )
        surveys = [_survey(e) for e in expressions]
        label = source if source is not None else "; ".join(map(_printed, expressions))
        super().__init__(dimension, label=" ".join(label.split("\n")))
        read = max(reads for reads, _, _ in surveys)
        if read > self.dimension:
            raise DimensionMismatchError(
                f"the expressions read x{read}, beyond the field dimension {self.dimension}"
            )
        stray = set().union(*(dimensions for _, dimensions, _ in surveys)) - {self.dimension}
        if stray:
            raise DimensionMismatchError(
                f"a norm2 over {min(stray)} variables in a field of dimension {self.dimension}"
            )
        self.expressions = expressions
        self.source = source
        self._tabled = all(tabled for _, _, tabled in surveys)

    @cached_property
    def polynomial(self):
        return _polynomial(self.expressions, self.dimension) if self._tabled else None

    def _evaluate_many(self, points):
        return np.column_stack([_eval_raw(expr, points) for expr in self.expressions])

    def _value_and_jacobian_many(self, points):
        """X and J from the table's jet where its rounding bound meets the
        default quadrature tolerances, from the dual-number walker elsewhere
        (``Polynomial.jet_within``)."""
        table = self.polynomial
        if table is None:
            return self._walked(points)
        cfg = DEFAULT_QUADRATURE
        return table.jet_within(points, cfg.abs_tol, cfg.rel_tol, self._walked)

    def _walked(self, points):
        m, n = points.shape
        jac = np.zeros((n, n, m))  # [i, j, k] = dX_i/dx_j at point k
        cols = []
        for i, expr in enumerate(self.expressions):
            value, grad = _eval_raw(expr, points, _Duals)
            cols.append(value)
            if grad is not None:
                jac[i] = grad
        return np.column_stack(cols), jac.transpose(2, 0, 1)


def parse_field(text: str, dimension: Optional[int] = None) -> ExpressionField:
    """Parse DSL source into an expression-backed vector field."""
    exprs = parse_expressions(text, dimension)
    return ExpressionField(len(exprs), exprs, source=text)
