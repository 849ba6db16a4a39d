"""Level-by-level elimination: invertibility, vector determinant, inverse.

The decision procedure runs one step per level.  Step 0 takes the per-node
determinant of A0; if it stays away from zero the operator is normalized by
A0^{-1}.  Step j forms E_j = I + <B_j A_{j,j-1}>_j on the trailing N - j
coordinates, takes pi_j = det E_j, and if that stays away from zero updates
the remaining levels

    A_{r,j} = A_{r,j-1} - A_{j,j-1} E_j^{-1} <B_j A_{r,j-1}>_j ,  r > j.

A vanishing pi_j certifies non-invertibility (step index and witness node
are returned as a value, not an exception).  If every step passes, the
collected data factorizes the operator into elementary factors

    A = (A0 .) o (I + A_{1,0}<B_1 .>_1) o ... o (I + A_{N,N-1}<B_N .>_N)

and assembles the inverse as the reversed product of elementary inverses.
The scalar tuple pi = (pi_0, ..., pi_N) is multiplicative under composition
and independent of the stored (A_j, B_j) representation.

Zero test: a step fails when min |pi_j| <= zero_tol * scale_j with an
absolute floor of 1e-300.  The scale is max |pi_j| for step 0 (A0 carries
its own scale) and max(1, max |pi_j|) for the correction steps, whose E_j
is anchored at the identity; a correction determinant that is uniformly at
round-off level is a genuine zero, which a purely relative rule would miss.
A NaN or infinite pi_j admits no verdict and raises NonFiniteError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import MatrixField, ScalarComponents, integrate_first, lift, pointwise_det, pointwise_matmul, pointwise_scale
from .operator import (
    DefectOperator,
    compose,
    elementary_factor,
    identity_operator,
    multiplication_operator,
)

__all__ = [
    "VectorDeterminant",
    "StepFactor",
    "Invertible",
    "NonInvertible",
    "EliminationOutcome",
    "NonInvertibleError",
    "NonFiniteError",
    "eliminate",
    "determinant",
    "inverse",
    "factorize",
    "DEFAULT_ZERO_TOL",
]

DEFAULT_ZERO_TOL = 1e-10
_ABS_FLOOR = 1e-300


class VectorDeterminant(ScalarComponents):
    """Determinant tuple (pi_0, ..., pi_N) on shrinking grids."""


@dataclass(frozen=True)
class StepFactor:
    """Factorization data of one elimination step.

    ``a_left`` is A_{level, level-1} on the full grid; ``e``/``e_inv`` live
    on the trailing coordinates.
    """

    level: int
    a_left: MatrixField
    e: MatrixField
    e_inv: MatrixField

    @property
    def cond_max(self) -> float:
        """The worst per-node condition number of E over its grid."""
        return float(np.max(np.linalg.cond(self.e.data)))


@dataclass(frozen=True)
class Invertible:
    pi: VectorDeterminant
    a0_inv: MatrixField
    steps: tuple[StepFactor | None, ...]  # entry j-1 for level j; None if absent

    @property
    def min_abs_by_step(self) -> tuple[float, ...]:
        return tuple(self.pi.min_abs(j) for j in range(len(self.pi.fields)))


@dataclass(frozen=True)
class NonInvertible:
    step: int
    witness_node: tuple[int, ...]  # node of the step's own (trailing) grid
    min_abs_pi: float
    min_abs_by_step: tuple[float, ...]  # |pi| minima for steps 0..step


EliminationOutcome = Invertible | NonInvertible


class NonFiniteError(ValueError):
    """Some pi_j is NaN or infinite, so no invertibility verdict exists."""


class NonInvertibleError(ValueError):
    """Raised by operations that require an invertible operator."""

    def __init__(self, outcome: NonInvertible):
        super().__init__(
            f"operator is non-invertible at step {outcome.step} "
            f"(min |pi| = {outcome.min_abs_pi:.3e} at node {outcome.witness_node})"
        )
        self.outcome = outcome


def _step_check(pi: MatrixField, zero_tol: float, step: int):
    vals = np.abs(pi.data[..., 0, 0])
    finite = np.isfinite(vals)
    if not finite.all():
        node = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise NonFiniteError(f"pi_{step} is not finite at node {node}")
    node = np.unravel_index(int(np.argmin(vals)), vals.shape)
    min_abs = float(vals[node])
    max_abs = float(vals.max())
    scale = max(1.0, max_abs) if step else max_abs
    failed = min_abs <= max(zero_tol * scale, _ABS_FLOOR)
    return failed, tuple(int(i) for i in node), min_abs


@np.errstate(all="ignore")  # _step_check reports NaN/inf pi_j instead
def eliminate(op: DefectOperator, zero_tol: float = DEFAULT_ZERO_TOL) -> EliminationOutcome:
    """Run the full elimination.

    Returns ``Invertible`` (vector determinant plus factorization data) or
    ``NonInvertible`` (failing step, witness node, min |pi|).  Absent
    levels contribute pi_j = 1 and trivial factors.  Nothing is mutated.
    """
    if zero_tol <= 0:
        raise ValueError("zero_tol must be positive")
    spec = op.spec
    n = spec.dims

    pi0 = pointwise_det(op.a0)
    failed, node, min_abs = _step_check(pi0, zero_tol, 0)
    mins = [min_abs]
    if failed:
        return NonInvertible(0, node, min_abs, tuple(mins))

    a0_inv = MatrixField(spec, np.linalg.inv(op.a0.data))
    current = {j: pointwise_matmul(a0_inv, t.a) for j, t in op.terms.items()}

    pi_fields: list[MatrixField] = [pi0]
    steps: list[StepFactor | None] = [None] * n
    for j in range(1, n + 1):
        trailing = spec.trailing(j)
        if j not in op.terms:
            pi_fields.append(
                MatrixField(trailing, np.ones(trailing.shape + (1, 1), dtype=np.complex128))
            )
            mins.append(1.0)
            continue
        bj = op.terms[j].b
        gathered = integrate_first(pointwise_matmul(bj, current[j]), j)
        width = gathered.rows
        e = MatrixField(trailing, np.eye(width) + gathered.data)
        pij = pointwise_det(e)
        failed, node, min_abs = _step_check(pij, zero_tol, j)
        mins.append(min_abs)
        pi_fields.append(pij)
        if failed:
            return NonInvertible(j, node, min_abs, tuple(mins))
        e_inv = MatrixField(trailing, np.linalg.inv(e.data))
        steps[j - 1] = StepFactor(j, current[j], e, e_inv)
        for r in op.terms:
            if r <= j:
                continue
            mixed = integrate_first(pointwise_matmul(bj, current[r]), j)
            correction = pointwise_matmul(
                current[j], lift(pointwise_matmul(e_inv, mixed), spec)
            )
            current[r] = MatrixField(spec, current[r].data - correction.data)

    return Invertible(VectorDeterminant(tuple(pi_fields)), a0_inv, tuple(steps))


def _require_invertible(op: DefectOperator, zero_tol: float) -> Invertible:
    outcome = eliminate(op, zero_tol)
    if isinstance(outcome, NonInvertible):
        raise NonInvertibleError(outcome)
    return outcome


def determinant(op: DefectOperator, zero_tol: float = DEFAULT_ZERO_TOL) -> VectorDeterminant:
    """The vector determinant; multiplicative under composition.

    Raises NonInvertibleError (carrying the failing step and witness) when
    some component vanishes.
    """
    return _require_invertible(op, zero_tol).pi


def inverse(op: DefectOperator, zero_tol: float = DEFAULT_ZERO_TOL) -> DefectOperator:
    """The inverse operator, in canonical form.

    Built as the reversed product of elementary inverses
    (I - A_{j,j-1} E_j^{-1} <B_j .>_j) applied after A0^{-1}.
    """
    outcome = _require_invertible(op, zero_tol)
    acc = multiplication_operator(outcome.a0_inv)
    for step in outcome.steps:
        if step is None:
            continue
        a_neg = pointwise_scale(-1.0, pointwise_matmul(step.a_left, lift(step.e_inv, op.spec)))
        elem = elementary_factor(step.level, a_neg, op.terms[step.level].b)
        acc = compose(elem, acc)
    return acc


def factorize(op: DefectOperator, zero_tol: float = DEFAULT_ZERO_TOL) -> list[DefectOperator]:
    """Ordered elementary factors [A0., I + A_{1,0}<B_1 .>_1, ...].

    Their left-to-right composition reproduces the operator; absent levels
    yield identity factors.
    """
    outcome = _require_invertible(op, zero_tol)
    factors = [multiplication_operator(op.a0)]
    for j in range(1, op.n + 1):
        step = outcome.steps[j - 1]
        if step is None:
            factors.append(identity_operator(op.spec, op.m))
        else:
            factors.append(elementary_factor(j, step.a_left, op.terms[j].b))
    return factors
