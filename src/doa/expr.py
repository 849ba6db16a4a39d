"""Tiny expression language used to define field entries textually.

Grammar (whitespace-insensitive, left-associative binary operators):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' INT)?
    base   := NUMBER | 'pi' | 'lambda' | COORD | FUNC '(' expr ')' | '(' expr ')'
    COORD  := 'k' DIGITS                  (1-based coordinate index)
    FUNC   := sin | cos | exp | sqrt
    NUMBER := decimal or scientific literal in ASCII digits, with an optional
              trailing 'i' for a purely imaginary value (e.g. "2i", "1.5e-3i")
    INT    := DIGITS                      (unsigned integer exponent)

'^' binds tighter than unary minus, so "-k1^2" means -(k1^2).

``lambda`` is a free symbol (`Sym`) whose value `evaluate` takes from ``symbols``.

Trees are immutable.  Nesting has no fixed limit, but a tree deeper than
Python's recursion limit allows (a few hundred levels of parentheses, unary
minus or calls; a sum or product of about a thousand terms, which parses as
a left-leaning chain) raises "expression nested too deeply": ExprSyntaxError
from `parse`, ExprEvalError from `evaluate`.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FieldExpr",
    "Lit",
    "PiConst",
    "Coord",
    "Sym",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "ExprEvalError",
    "parse",
    "evaluate",
    "walk",
]

_FUNCS = ("sin", "cos", "exp", "sqrt")  # numpy ufunc names; sqrt is _sqrt


class ExprError(ValueError):
    """Base class for expression problems."""

    entry: tuple[int, int] | None = None  # (row, col) set by `doa.grid.sample`


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprEvalError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class FieldExpr:
    """Base class of expression-tree nodes."""

    pos: int

    def max_coord_index(self) -> int:
        """Largest coordinate index referenced, 0 if none."""
        return max((n.index for n in walk(self) if isinstance(n, Coord)), default=0)


@dataclass(frozen=True)
class Lit(FieldExpr):
    value: complex
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class PiConst(FieldExpr):
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Coord(FieldExpr):
    index: int
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Sym(FieldExpr):
    name: str  # "lambda", the only free symbol
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Neg(FieldExpr):
    operand: FieldExpr
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class BinOp(FieldExpr):
    op: str  # one of + - * /
    left: FieldExpr
    right: FieldExpr
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Pow(FieldExpr):
    base: FieldExpr
    exponent: int
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Call(FieldExpr):
    func: str
    arg: FieldExpr
    pos: int = field(default=0, compare=False, repr=False)


def walk(tree: FieldExpr):
    """Yield every node of a tree, parents before children."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed([c for c in vars(node).values() if isinstance(c, FieldExpr)]))


_NUMBER_RE = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?i?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _is_digit(c: str) -> bool:
    # ASCII only: str.isdigit and \d also accept other scripts' digits
    return "0" <= c <= "9"


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM IDENT + - * / ^ ( ) END
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            out.append(_Token(c, c, i))
            i += 1
            continue
        if _is_digit(c) or (c == "." and i + 1 < n and _is_digit(text[i + 1])):
            m = _NUMBER_RE.match(text, i)
            if m is None or (m.end() < n and text[m.end()] == "."):
                raise ExprSyntaxError("malformed number", i)
            out.append(_Token("NUM", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:  # ASCII only: a non-ASCII letter is an unexpected character
            out.append(_Token("IDENT", m.group(), i))
            i = m.end()
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    out.append(_Token("END", "", n))
    return out


def _number_value(tok: _Token) -> complex:
    text = tok.text
    imaginary = text.endswith("i")
    if imaginary:
        text = text[:-1]
    try:
        v = float(text)
    except ValueError:
        raise ExprSyntaxError("malformed number", tok.pos) from None
    return complex(0.0, v) if imaginary else complex(v)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
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
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos
            )
        return self.advance()

    def parse(self) -> FieldExpr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> FieldExpr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            tok = self.advance()
            node = BinOp(tok.kind, node, self.term(), tok.pos)
        return node

    def term(self) -> FieldExpr:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            tok = self.advance()
            node = BinOp(tok.kind, node, self.factor(), tok.pos)
        return node

    def factor(self) -> FieldExpr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Neg(self.factor(), tok.pos)
        node = self.base()
        if self.peek().kind == "^":
            caret = self.advance()
            num = self.peek()
            if num.kind != "NUM" or not all(map(_is_digit, num.text)):
                raise ExprSyntaxError("expected unsigned integer exponent", num.pos)
            self.advance()
            node = Pow(node, int(num.text), caret.pos)
        return node

    def base(self) -> FieldExpr:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return Lit(_number_value(tok), tok.pos)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "IDENT":
            self.advance()
            name = tok.text
            if name == "pi":
                return PiConst(tok.pos)
            if name == "lambda":
                return Sym(name, tok.pos)
            if name in _FUNCS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(name, arg, tok.pos)
            if name[0] == "k" and name[1:].isdigit():
                index = int(name[1:])
                if index < 1:
                    raise ExprSyntaxError("coordinate index must be >= 1", tok.pos)
                return Coord(index, tok.pos)
            raise ExprSyntaxError(f"unknown identifier {name!r}", tok.pos)
        raise ExprSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )


def parse(text: str) -> FieldExpr:
    """Parse an expression string into a tree."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", parser.peek().pos) from None


def evaluate(tree: FieldExpr, coords, symbols=None):
    """Evaluate a tree at coordinates k1..kd (1-based): floats, or numpy
    arrays that broadcast together such as a sparse ``np.meshgrid``.  Free
    symbols take their values from the mapping `symbols`.

    Values are complex, and ``*``, ``/``, ``^`` and ``sqrt`` use CPython's
    formulas, so each element equals Python's ``complex``/``cmath`` value at
    that node bit for bit, except for exponents above 100 (CPython turns to
    polar form).
    Raises ExprEvalError where any element divides by zero, takes ``sqrt`` of
    a negative real or overflows (``sin``, ``cos``, ``exp`` or ``^`` of a
    finite argument is not finite), on a missing coordinate or symbol, and
    on a tree nested too deeply to evaluate.
    """
    try:
        with np.errstate(all="ignore"):
            return _eval(tree, coords, symbols or {})[()]
    except RecursionError:
        raise ExprEvalError("expression nested too deeply", tree.pos) from None


def _eval(tree: FieldExpr, coords, symbols) -> np.ndarray:
    if isinstance(tree, Lit):
        return np.asarray(tree.value, dtype=np.complex128)
    if isinstance(tree, PiConst):
        return np.asarray(math.pi, dtype=np.complex128)
    if isinstance(tree, Coord):
        if tree.index > len(coords):
            raise ExprEvalError(f"missing coordinate k{tree.index}", tree.pos)
        return np.asarray(coords[tree.index - 1], dtype=np.complex128)
    if isinstance(tree, Sym):
        if tree.name not in symbols:
            raise ExprEvalError(f"no value given for {tree.name!r}", tree.pos)
        return np.asarray(symbols[tree.name], dtype=np.complex128)
    if isinstance(tree, Neg):
        return -_eval(tree.operand, coords, symbols)
    if isinstance(tree, BinOp):
        left = _eval(tree.left, coords, symbols)
        right = _eval(tree.right, coords, symbols)
        if tree.op == "+":
            return left + right
        if tree.op == "-":
            return left - right
        if tree.op == "*":
            return _prod(left, right)
        if np.any(right == 0):
            raise ExprEvalError("division by zero", tree.pos)
        return _quot(left, right)
    if isinstance(tree, Pow):
        base = _eval(tree.base, coords, symbols)
        return _overflow_checked(_powu(base, tree.exponent), base, tree.pos)
    if isinstance(tree, Call):
        value = _eval(tree.arg, coords, symbols)
        if tree.func == "sqrt":
            if np.any((value.imag == 0) & (value.real < 0)):
                raise ExprEvalError("sqrt of negative real", tree.pos)
            return _sqrt(value)
        return _overflow_checked(getattr(np, tree.func)(value), value, tree.pos)
    raise TypeError(f"not an expression node: {tree!r}")


def _overflow_checked(value, arg, pos: int):
    if np.any(np.isfinite(arg) & ~np.isfinite(value)):
        raise ExprEvalError("overflow", pos)
    return value


def _complex(re, im) -> np.ndarray:
    out = np.array(re, dtype=np.complex128)  # re + 1j*im: inf*1j has a NaN real part
    out.imag = im
    return out


def _prod(a, b) -> np.ndarray:
    """CPython's complex product (numpy's may differ in the last place)."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _quot(a, b) -> np.ndarray:
    """CPython's complex quotient (Smith's method); b has no zero element."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)  # False also where b has a NaN part
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    re = np.where(by_real, ar + ai * ratio, ar * ratio + ai)
    im = np.where(by_real, ai - ar * ratio, ai * ratio - ar)
    return _complex(re / denom, im / denom)


def _powu(x, n: int) -> np.ndarray:
    """CPython's binary powering for z ** n, starting from 1 + 0j."""
    r = np.ones(np.shape(x), dtype=np.complex128)
    for bit in reversed(f"{n:b}"):
        if bit == "1":
            r = _prod(r, x)
        x = _prod(x, x)
    return r


def _sqrt(z) -> np.ndarray:
    """CPython's cmath.sqrt on finite elements (numpy's may differ in the
    last place, on subnormal parts and in the sign of a zero part)."""
    ax, ay = np.abs(z.real), np.abs(z.imag)
    tiny = (ax < sys.float_info.min) & (ay < sys.float_info.min)  # |z| may be subnormal
    ax_s = np.where(tiny, np.ldexp(ax, 53), ax / 8.0)
    ay_s = np.where(tiny, np.ldexp(ay, 53), ay / 8.0)
    s = np.sqrt(ax_s + np.hypot(ax_s, ay_s))
    s = np.where(tiny, np.ldexp(s, -27), 2.0 * s)
    d = np.where(s == 0, 0.0, ay / (2.0 * s))  # s is 0 only where z is
    right = z.real >= 0
    out = _complex(np.where(right, s, d), np.copysign(np.where(right, d, s), z.imag))
    return np.where(np.isfinite(z), out, np.sqrt(z))
