"""Shared builders for randomized tests.

Random operators are generated with a0 = I + small perturbation and small
term coefficients so that every elimination step stays well away from zero
(used by the property suites, which need invertible samples).

`reference_evaluate` is the scalar, node-at-a-time expression evaluator
built on Python's ``complex`` and ``cmath``, the reference the array
evaluator `doa.expr.evaluate` is compared against.

`reference_dumps17` is the value-at-a-time JSON writer, the reference the
array writer `doa.document.dumps17` is compared against.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from doa import DefectOperator, GridSpec, MatrixField, StateVector, Term
from doa.expr import BinOp, Call, Coord, ExprEvalError, Lit, Neg, PiConst, Pow, Sym


def reference_evaluate(tree, coords, symbols=None) -> complex:
    """Evaluate a tree at one node with Python complex arithmetic.

    Raises ExprEvalError like `doa.expr.evaluate`, and whatever Python's
    ``complex``/``cmath`` raise (OverflowError, ValueError) on overflow or
    non-finite arguments.
    """
    if isinstance(tree, Lit):
        return tree.value
    if isinstance(tree, PiConst):
        return complex(math.pi)
    if isinstance(tree, Coord):
        if tree.index > len(coords):
            raise ExprEvalError(f"missing coordinate k{tree.index}", tree.pos)
        return complex(coords[tree.index - 1])
    if isinstance(tree, Sym):
        if not symbols or tree.name not in symbols:
            raise ExprEvalError(f"no value given for {tree.name!r}", tree.pos)
        return complex(symbols[tree.name])
    if isinstance(tree, Neg):
        return -reference_evaluate(tree.operand, coords, symbols)
    if isinstance(tree, BinOp):
        left = reference_evaluate(tree.left, coords, symbols)
        right = reference_evaluate(tree.right, coords, symbols)
        if tree.op == "+":
            return left + right
        if tree.op == "-":
            return left - right
        if tree.op == "*":
            return left * right
        if right == 0:
            raise ExprEvalError("division by zero", tree.pos)
        return left / right
    if isinstance(tree, Pow):
        base = reference_evaluate(tree.base, coords, symbols)
        if base == 0 and tree.exponent == 0:
            return complex(1.0)
        return base ** tree.exponent
    if isinstance(tree, Call):
        value = reference_evaluate(tree.arg, coords, symbols)
        if tree.func == "sin":
            return cmath.sin(value)
        if tree.func == "cos":
            return cmath.cos(value)
        if tree.func == "exp":
            return cmath.exp(value)
        if value.imag == 0 and value.real < 0:
            raise ExprEvalError("sqrt of negative real", tree.pos)
        return cmath.sqrt(value)
    raise TypeError(f"not an expression node: {tree!r}")


def _reference_float(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else "null"


def reference_dumps17(obj, indent: int | None = None, _level: int = 0) -> str:
    """JSON text with floats at 17 significant digits, one value per call.

    Complex numbers are encoded as [re, im]; NaN/inf become null.  Takes
    lists, not arrays.
    """
    pad = "" if indent is None else "\n" + " " * (indent * (_level + 1))
    end_pad = "" if indent is None else "\n" + " " * (indent * _level)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _reference_float(obj)
    if isinstance(obj, complex):
        return f"[{_reference_float(obj.real)}, {_reference_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(k))}: {reference_dumps17(v, indent, _level + 1)}"
            for k, v in obj.items()
        ]
        return "{" + ",".join(items) + end_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}{reference_dumps17(v, indent, _level + 1)}" for v in obj]
        return "[" + ",".join(items) + end_pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def random_field(spec, rows, cols, rng, scale=1.0, complex_=True):
    data = rng.standard_normal(spec.shape + (rows, cols))
    if complex_:
        data = data + 1j * rng.standard_normal(spec.shape + (rows, cols))
        data = data / np.sqrt(2.0)
    return MatrixField(spec, scale * data)


def random_operator(
    spec,
    m,
    rng,
    widths=None,
    a0_perturb=0.25,
    term_scale=0.35,
    complex_=True,
):
    """I + small a0 perturbation plus bounded terms: elimination-safe."""
    if widths is None:
        widths = {j: 1 for j in range(1, spec.dims + 1)}
    a0 = MatrixField(
        spec, np.eye(m) + a0_perturb * random_field(spec, m, m, rng, complex_=complex_).data
    )
    terms = {
        j: Term(
            random_field(spec, m, w, rng, term_scale, complex_),
            random_field(spec, w, m, rng, term_scale, complex_),
        )
        for j, w in widths.items()
        if w > 0
    }
    return DefectOperator(a0, terms)


# (grid, M, widths by level) swept by the dense checks of compress, inverse
# and power traces; None puts width 1 on every level.  Each test draws its
# operators from default_rng(sum(grid) * 10 + M).
SHAPES = [
    ((6,), 1, {1: 2}),
    ((3, 4), 2, {1: 2, 2: 2}),
    ((2, 3, 2), 3, {1: 2, 3: 3}),
    ((2, 2, 2, 2), 1, {1: 1, 2: 3, 3: 2, 4: 1}),
    ((4, 3), 2, {1: 3, 2: 1}),
    ((6, 6), 2, None),
]
SHAPE_IDS = ["x".join(map(str, grid)) + f"-M{m}" for grid, m, _ in SHAPES]


def random_state(spec, m, rng, complex_=True):
    vals = rng.standard_normal(spec.shape + (m,))
    if complex_:
        vals = vals + 1j * rng.standard_normal(spec.shape + (m,))
    return StateVector(spec, vals)


def grid66():
    return GridSpec((6, 6))
