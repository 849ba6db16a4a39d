"""Shared builders for randomized tests.

Random operators are generated with a0 = I + small perturbation and small
term coefficients so that every elimination step stays well away from zero
(used by the property suites, which need invertible samples).

`reference_evaluate` is the scalar, node-at-a-time expression evaluator
built on Python's ``complex`` and ``cmath``, the reference the array
evaluator `doa.expr.evaluate` is compared against.
"""

from __future__ import annotations

import cmath
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


def random_state(spec, m, rng, complex_=True):
    vals = rng.standard_normal(spec.shape + (m,))
    if complex_:
        vals = vals + 1j * rng.standard_normal(spec.shape + (m,))
    return StateVector(spec, vals)


def grid66():
    return GridSpec((6, 6))
