"""Arithmetic expressions for scenario files.

A small Pratt parser over ``+ - * / ^``, unary minus, parentheses, float
literals, names, and a fixed set of unary functions (sin, cos, exp, tanh,
sqrt, abs). ``^`` binds tightest and associates right; unary minus sits
between ``^`` and ``* /``, so ``-x^2`` is ``-(x^2)``. Whitespace is ignored.

``parse`` is total: any input yields either an AST or an ExprSyntaxError with
a character offset. Evaluation is pointwise over numpy scalars or arrays and
has no side effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError, NonFiniteSampleError
from .grids import Grid, ScalarSampleField

__all__ = [
    "Expression",
    "parse",
    "evaluate",
    "sample",
    "to_source",
    "free_names",
    "references_time",
    "separate",
    "ONE",
    "FUNCTIONS",
]

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Number, Name, Unary, Binary, Call]


# --- tokenizer ---------------------------------------------------------------

_OPERATORS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | one of _OPERATORS | "end"
    text: str
    pos: int
    value: float = 0.0


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(f"malformed number {text!r}", i) from None
            tokens.append(_Token("num", text, i, value))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# --- parser ------------------------------------------------------------------

_BINARY_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BP = 30  # between * / and ^
_RIGHT_ASSOC = {"^"}


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse_expression(self, min_bp: int = 0) -> Expression:
        node = self.parse_prefix()
        while True:
            tok = self.peek()
            bp = _BINARY_BP.get(tok.kind)
            if bp is None or bp < min_bp:
                return node
            self.advance()
            next_bp = bp if tok.kind in _RIGHT_ASSOC else bp + 1
            rhs = self.parse_expression(next_bp)
            node = Binary(tok.kind, node, rhs)

    def parse_prefix(self) -> Expression:
        tok = self.advance()
        if tok.kind == "num":
            return Number(tok.value)
        if tok.kind == "-":
            return Unary("-", self.parse_expression(_UNARY_BP))
        if tok.kind == "(":
            node = self.parse_expression(0)
            self.expect(")")
            return node
        if tok.kind == "name":
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                arg = self.parse_expression(0)
                self.expect(")")
                return Call(tok.text, arg)
            return Name(tok.text)
        raise ExprSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def parse(source: str) -> Expression:
    """Parse expression source; raises ExprSyntaxError with an offset on failure."""
    if not isinstance(source, str):
        raise TypeError("expression source must be a string")
    parser = _Parser(source)
    node = parser.parse_expression(0)
    tail = parser.peek()
    if tail.kind != "end":
        raise ExprSyntaxError(f"trailing input {tail.text!r}", tail.pos)
    return node


# --- evaluation --------------------------------------------------------------


def evaluate(node: Expression, env: Mapping[str, object]):
    """Evaluate over scalars or numpy arrays. Unbound names raise ExprEvalError."""
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Name):
        try:
            return env[node.ident]
        except KeyError:
            raise ExprEvalError(f"unbound variable {node.ident!r}") from None
    if isinstance(node, Unary):
        return -evaluate(node.operand, env)
    if isinstance(node, Call):
        with np.errstate(all="ignore"):
            return FUNCTIONS[node.func](evaluate(node.arg, env))
    if isinstance(node, Binary):
        a = evaluate(node.left, env)
        b = evaluate(node.right, env)
        with np.errstate(all="ignore"):
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                return np.divide(a, b)
            if node.op == "^":
                return np.power(a, b)
    raise TypeError(f"not an expression node: {node!r}")


def free_names(node: Expression) -> set[str]:
    if isinstance(node, Name):
        return {node.ident}
    if isinstance(node, Unary):
        return free_names(node.operand)
    if isinstance(node, Call):
        return free_names(node.arg)
    if isinstance(node, Binary):
        return free_names(node.left) | free_names(node.right)
    return set()


def references_time(node: Expression) -> bool:
    return "t" in free_names(node)


_COORD_NAMES = ("x", "y", "z")
ONE = Number(1.0)


def _times(a: Expression, b: Expression) -> Expression:
    return b if a == ONE else a if b == ONE else Binary("*", a, b)


def separate(node: Expression) -> list[tuple[Expression, Expression]] | None:
    """``node`` as a sum of terms ``S_i(x) * g_i(t)``, or None where t and x do not separate.

    Each term is a pair (S_i, g_i): S_i does not reference t and g_i no
    coordinate, and either may be ``ONE``. A t-free node is the one term
    ``(node, ONE)`` and a coordinate-free one ``(ONE, node)``; unary minus, ``+``
    and ``-`` join the terms of their operands; ``*`` separates when one factor
    is a single term, and ``/`` when the divisor is t-free or coordinate-free.
    Nothing else separates, so there are never more terms than leaves.
    """
    names = free_names(node)
    if "t" not in names:
        return [(node, ONE)]
    if names.isdisjoint(_COORD_NAMES):
        return [(ONE, node)]
    if isinstance(node, Unary):
        terms = separate(node.operand)
        return None if terms is None else [(s, Unary("-", g)) for s, g in terms]
    if not isinstance(node, Binary) or node.op == "^":
        return None
    left = separate(node.left)
    if node.op == "/":
        divisor, names = node.right, free_names(node.right)
        if left is None:
            return None
        if "t" not in names:
            return [(Binary("/", s, divisor), g) for s, g in left]
        if names.isdisjoint(_COORD_NAMES):
            return [(s, Binary("/", g, divisor)) for s, g in left]
        return None
    right = separate(node.right)
    if left is None or right is None:
        return None
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left + [(s, Unary("-", g)) for s, g in right]
    if len(right) == 1:
        left, right = right, left
    if len(left) != 1:
        return None
    (s0, g0), = left
    return [(_times(s0, s), _times(g0, g)) for s, g in right]


def sample(
    node: Expression,
    grid: Grid,
    bindings: Mapping[str, float] | None = None,
    t: float = 0.0,
) -> ScalarSampleField:
    """Sample an expression onto a grid.

    Coordinates x (and y, z for higher dimensions) run over the grid sample
    points starting at 0; ``pi`` and ``t`` are always bound. Non-finite
    results anywhere on the grid are an error.
    """
    env: dict[str, object] = {"pi": np.pi, "t": float(t)}
    if bindings:
        env.update({k: v for k, v in bindings.items()})
    coords = grid.coordinate_arrays()
    for axis in range(grid.dims):
        env[_COORD_NAMES[axis]] = coords[axis]
    result = evaluate(node, env)
    arr = np.broadcast_to(np.asarray(result, dtype=np.float64), grid.shape).copy()
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0]
        where = ", ".join(
            f"{_COORD_NAMES[a]}={grid.axis_coordinates(a)[bad[a]]:g}" for a in range(grid.dims)
        )
        raise NonFiniteSampleError(f"expression is not finite at grid point ({where})")
    return ScalarSampleField(grid, arr)


# --- printing ----------------------------------------------------------------


def _prec(node: Expression) -> int:
    if isinstance(node, Binary):
        return _BINARY_BP[node.op]
    if isinstance(node, Unary):
        return _UNARY_BP
    if isinstance(node, Number) and (node.value < 0 or str(node.value).startswith("-")):
        return _UNARY_BP  # renders with a leading minus sign
    return 100


def to_source(node: Expression) -> str:
    """Render an AST back to parseable source (round-trips through parse)."""
    if isinstance(node, Number):
        return repr(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    if isinstance(node, Unary):
        inner = to_source(node.operand)
        if _prec(node.operand) < _UNARY_BP:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Binary):
        bp = _BINARY_BP[node.op]
        left = to_source(node.left)
        right = to_source(node.right)
        # left child needs parens if looser; equal precedence on the right
        # needs parens for left-associative ops, and vice versa for '^'
        if _prec(node.left) < bp or (node.op == "^" and _prec(node.left) == bp):
            left = f"({left})"
        right_min = bp if node.op in _RIGHT_ASSOC else bp + 1
        if _prec(node.right) < right_min:
            right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")
