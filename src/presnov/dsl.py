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

Evaluation follows IEEE-754 double semantics (division by zero gives an
infinity, sqrt of a negative number gives NaN, '^' of a negative base
with a non-integer exponent gives NaN); a NaN or infinite result raises
NonFiniteValueError at the evaluation boundary.  Differentiability of
user expressions is not checked; the decomposition machinery assumes
continuously differentiable fields as a documented precondition.

Jacobians are exact: one AST walker, generic over its arithmetic, runs
either on floats or on forward-mode duals (value, gradient) (Griewank
and Walther, "Evaluating Derivatives", 2nd ed., 2008).  abs
differentiates to sign, '^' with a constant exponent c to c a^(c-1) (0
when c = 0), and '^' with a varying exponent to b a^(b-1) a' +
a^b ln(a) b' under the same IEEE rules.  A zero tangent times an
infinite local derivative is 0, so x1*sqrt(norm2) differentiates to 0 at
the origin; a derivative that is still not finite, as that of sqrt(x1)
at x1 = 0, raises NonFiniteValueError.

A field's monomial table (``ExpressionField.polynomial``) is expanded
from the AST when first asked for: a constant, a variable and norm2 are
tables, negation, '+', '-' and '*' combine them, '/' divides by a
constant subexpression and '^' raises to a non-negative integer literal
exponent.  Anything else (functions, other divisions and powers) leaves
the field without a table, and so does an expansion whose products
would multiply more than ``_MAX_TERM_PRODUCTS`` pairs of terms in all.
Terms that cancel keep their row with a zero coefficient, so the table's
degree is never below the degree along rays and equals it unless terms
cancel.  The table evaluates the expanded form, which can differ from
the AST in IEEE edge cases: x1^3 - x1^3 expands to 0, where the AST
overflows at x1 = 1e200.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, NonFiniteValueError, ParseError
from .fields import Polynomial, VectorField, _float_array
from .sampling import _as_integer

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
    pass


FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "abs": np.abs,
    "sqrt": np.sqrt,
}

_LITERALS = {"pi": math.pi, "e": math.e}
_VAR_RE = re.compile(r"x([1-9][0-9]*)\Z")
# The parser recurses once per parenthesis, unary minus and '^' it enters,
# and every AST walker (evaluation, pretty-printing, the ray degree) once
# per level of the tree, where each operator of a '+ -' or '* /' chain is a
# level too.  Both bounds leave headroom below Python's recursion limit of
# 1000 for the caller's own frames: the test suite, under pytest and
# hypothesis, starts a walker about 70 frames deep.
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

    def expr(self):
        self._enter()
        try:
            node = self.term()
            while self.peek().kind == "op" and self.peek().text in "+-":
                op = self.advance().text
                node = Binary(op, node, self.term())
            return node
        finally:
            self.depth -= 1

    def term(self):
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.factor())
        return node

    def factor(self):
        self._enter()
        try:
            if self.peek().kind == "op" and self.peek().text == "-":
                self.advance()
                return Unary("neg", self.factor())
            node = self.base()
            if self.peek().kind == "op" and self.peek().text == "^":
                self.advance()
                return Binary("^", node, self.factor())
            return node
        finally:
            self.depth -= 1

    def base(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Const(tok.value)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            closing = self.peek()
            if not (closing.kind == "op" and closing.text == ")"):
                self.error("expected ')'")
            self.advance()
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.peek().kind == "op" and self.peek().text == "(":
                if name not in FUNCTIONS:
                    self.error(f"unknown function '{name}'", tok)
                self.advance()
                arg = self.expr()
                closing = self.peek()
                if not (closing.kind == "op" and closing.text == ")"):
                    self.error("expected ')'")
                self.advance()
                return Unary(name, arg)
            if name in _LITERALS:
                return Const(_LITERALS[name])
            if name == "norm2":
                return Norm2()
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


def _segment_count(tokens):
    count = 0
    in_segment = False
    for tok in tokens:
        if tok.kind in ("sep", "eof"):
            if in_segment:
                count += 1
            in_segment = False
        else:
            in_segment = True
    return count


def _height(node):
    """The number of levels of ``node``'s tree, counted without recursion."""
    height, level = 0, [node]
    while level:
        height += 1
        level = [child for n in level for child in vars(n).values() if isinstance(child, Expr)]
    return height


def _parse_segments(tokens, dimension):
    """The expressions of the non-blank segments of ``tokens``, in order."""
    parser = _Parser(tokens, dimension)
    exprs = []
    while True:
        while parser.peek().kind == "sep":
            parser.advance()
        if parser.peek().kind == "eof":
            return exprs
        first = parser.peek()
        exprs.append(parser.expr())
        if _height(exprs[-1]) > _MAX_HEIGHT:
            parser.error("expression nests too deeply", first)
        trailing = parser.peek()
        if trailing.kind not in ("sep", "eof"):
            parser.error(f"unexpected {trailing.text!r} after expression")


def parse_expressions(text: str, dimension: Optional[int] = None):
    """Parse DSL source into a list of expression ASTs.

    With ``dimension=None`` the dimension is inferred from the number of
    expressions.  Blank segments (trailing separators, empty lines) are
    skipped.  Raises ParseError with a 1-based line/column position.
    """
    tokens = _tokenize(text)
    found = _segment_count(tokens)
    if found == 0:
        raise ParseError("empty field definition", 1, 1)
    n = found if dimension is None else _as_integer(dimension, "field dimension", ParseError)
    if n < 1:
        raise ParseError("field dimension must be at least 1", 1, 1)
    if found != n:
        eof = tokens[-1]
        raise ParseError(
            f"expected {n} expressions for dimension {n}, found {found}",
            eof.line,
            eof.column,
        )
    return _parse_segments(tokens, n)


def parse_expression(text: str, dimension: int) -> Expr:
    """Parse a single expression over x1..x{dimension} into an AST."""
    tokens = _tokenize(text)
    if _segment_count(tokens) != 1:
        eof = tokens[-1]
        raise ParseError("expected exactly one expression", eof.line, eof.column)
    return _parse_segments(tokens, _as_integer(dimension, "dimension", ParseError))[0]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


_OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


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
    the (value, gradient) pair.  IEEE semantics.
    """
    kind = type(node)  # exact types, most frequent first: this runs per node per call
    if kind is Binary:
        left = _eval_raw(node.left, points, arith)
        return arith.binary(node.op, left, _eval_raw(node.right, points, arith))
    if kind is Var:
        return arith.var(node.index, points)
    if kind is Const:
        return arith.const(node.value, points)
    if kind is Unary:
        return arith.unary(node.op, _eval_raw(node.operand, points, arith))
    if kind is Norm2:
        return arith.norm2(points)
    raise TypeError(f"not an expression node: {node!r}")


def _variable_count(node):
    """The number of coordinates ``node`` reads: its highest variable index + 1."""
    kind = type(node)
    if kind is Var:
        return node.index + 1
    if kind is Unary:
        return _variable_count(node.operand)
    if kind is Binary:
        return max(_variable_count(node.left), _variable_count(node.right))
    return 0


def evaluate_ast(node: Expr, point) -> float:
    """Evaluate one AST at a point; raises NonFiniteValueError on NaN/inf.

    The point is a vector of real numbers (a scalar for one variable) with
    at least as many coordinates as the highest variable the AST reads;
    anything else raises DimensionMismatchError.
    """
    needed = _variable_count(node)
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
    """Expands ASTs over x1..xn into monomial tables {exponents: coefficient},
    within one budget of ``_MAX_TERM_PRODUCTS`` term products."""

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

    def expand(self, node):
        kind = type(node)
        if kind is Const:
            return {(0,) * self.n: node.value}
        if kind is Var:
            if node.index >= self.n:  # an AST built for more variables
                raise _NotTabled
            return {tuple(int(j == node.index) for j in range(self.n)): 1.0}
        if kind is Norm2:
            return {tuple(2 * int(j == i) for j in range(self.n)): 1.0 for i in range(self.n)}
        if kind is Unary:
            if node.op != "neg":
                raise _NotTabled
            return {e: -c for e, c in self.expand(node.operand).items()}
        left = self.expand(node.left)
        if node.op == "^":
            k = node.right
            if not (type(k) is Const and k.value >= 0 and float(k.value).is_integer()):
                raise _NotTabled
            out = {(0,) * self.n: 1.0}
            for _ in range(int(k.value)):
                out = self.product(out, left)
            return out
        right = self.expand(node.right)
        if node.op == "*":
            return self.product(left, right)
        if node.op == "/":  # by a non-zero constant subexpression only
            divisor = right.get((0,) * self.n) if len(right) == 1 else None
            if not divisor:
                raise _NotTabled
            return {e: c / divisor for e, c in left.items()}
        out = dict(left)
        sign = 1.0 if node.op == "+" else -1.0
        for e, c in right.items():
            out[e] = out.get(e, 0.0) + sign * c
        return out


def _polynomial(expressions, n):
    """The monomial table of the field with these components, or None."""
    expansion = _Expansion(n)
    exponents, components, values = [], [], []
    try:
        for i, node in enumerate(expressions):
            for e, c in expansion.expand(node).items():
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


def _prec(node):
    if isinstance(node, Binary):
        return {"+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL, "^": _POW}[node.op]
    if isinstance(node, Unary):
        return _NEG if node.op == "neg" else _ATOM
    return _ATOM


def _wrap(text, need):
    return f"({text})" if need else text


def pretty(node: Expr) -> str:
    """Render an AST with the fewest parentheses that reparse identically.

    Assumes canonical ASTs as produced by the parser: numeric literals are
    non-negative (negation is an explicit node).
    """
    if isinstance(node, Const):
        return repr(float(node.value))
    if isinstance(node, Var):
        return f"x{node.index + 1}"
    if isinstance(node, Norm2):
        return "norm2"
    if isinstance(node, Unary):
        if node.op == "neg":
            return "-" + _wrap(pretty(node.operand), _prec(node.operand) < _NEG)
        return f"{node.op}({pretty(node.operand)})"
    if isinstance(node, Binary):
        left, right = node.left, node.right
        if node.op in "+-":
            ls = pretty(left)
            rs = _wrap(pretty(right), _prec(right) <= _ADD)
        elif node.op in "*/":
            ls = _wrap(pretty(left), _prec(left) < _MUL)
            rs = _wrap(pretty(right), _prec(right) <= _MUL)
        else:  # '^': base must be an atom, exponent at least a factor
            ls = _wrap(pretty(left), _prec(left) < _ATOM)
            rs = _wrap(pretty(right), _prec(right) < _NEG)
        return f"{ls}{node.op}{rs}"
    raise TypeError(f"not an expression node: {node!r}")


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
        label = source if source is not None else "; ".join(pretty(e) for e in expressions)
        super().__init__(dimension, label=" ".join(label.split("\n")))
        self.expressions = expressions
        self.source = source

    @cached_property
    def polynomial(self):
        return _polynomial(self.expressions, self.dimension)

    def _evaluate_many(self, points):
        return np.column_stack([_eval_raw(expr, points) for expr in self.expressions])

    def _value_and_jacobian_many(self, points):
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
