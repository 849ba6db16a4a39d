"""Level-by-level elimination: invertibility, vector determinant, inverse.

The decision procedure runs one step per level.  Step 0 takes the per-node
determinant of A0; if it stays away from zero the operator is normalized by
A0^{-1}.  Step j forms E_j = I + <B_j A_{j,j-1}>_j on the trailing N - j
coordinates, takes pi_j = det E_j, and if that stays away from zero updates
the remaining levels

    A_{r,j} = A_{r,j-1} - A_{j,j-1} E_j^{-1} <B_j A_{r,j-1}>_j ,  r > j.

The steps work on plain arrays: <x>_j is the mean over the first j grid
axes, and E_j^{-1} <B_j A_{r,j-1}>_j on the trailing coordinates is lifted
back to the full grid by numpy broadcasting in the product with A_{j,j-1}.

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
`eliminate` takes zero_tol; `determinant`, `inverse` and `factorize` use
DEFAULT_ZERO_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import MatrixField, ScalarComponents, require_finite
from .operator import (
    DefectOperator,
    compose,
    compress,
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
    min_abs_by_step: tuple[float, ...]  # |pi_j| minima for steps 0..N


@dataclass(frozen=True)
class NonInvertible:
    step: int
    witness_node: tuple[int, ...]  # node of the step's own (trailing) grid
    min_abs_pi: float
    min_abs_by_step: tuple[float, ...]  # |pi| minima for steps 0..step


EliminationOutcome = Invertible | NonInvertible


class NonInvertibleError(ValueError):
    """Raised by operations that require an invertible operator."""

    def __init__(self, outcome: NonInvertible):
        super().__init__(
            f"operator is non-invertible at step {outcome.step} "
            f"(min |pi| = {outcome.min_abs_pi:.3e} at node {outcome.witness_node})"
        )
        self.outcome = outcome


@np.errstate(all="ignore")  # step_check reports NaN/inf pi_j instead
def eliminate(op: DefectOperator, zero_tol: float = DEFAULT_ZERO_TOL) -> EliminationOutcome:
    """Run the full elimination.

    Returns ``Invertible`` (vector determinant plus factorization data) or
    ``NonInvertible`` (failing step, witness node, min |pi|).  Absent
    levels contribute pi_j = 1 and trivial factors.  Nothing is mutated.
    """
    if not 0 < zero_tol < np.inf:  # also rejects NaN
        raise ValueError(f"zero_tol must be positive and finite, got {zero_tol!r}")

    def step_check(dets: np.ndarray, step: int):
        vals = np.abs(dets)
        require_finite(f"pi_{step}", vals)
        node = np.unravel_index(int(np.argmin(vals)), vals.shape)
        min_abs = float(vals[node])
        max_abs = float(vals.max())
        scale = max(1.0, max_abs) if step else max_abs
        failed = min_abs <= max(zero_tol * scale, _ABS_FLOOR)
        return failed, tuple(int(i) for i in node), min_abs

    spec = op.spec
    n = spec.dims

    pis = [np.linalg.det(op.a0.data)]
    failed, node, min_abs = step_check(pis[0], 0)
    mins = [min_abs]
    if failed:
        return NonInvertible(0, node, min_abs, tuple(mins))

    a0_inv = np.linalg.inv(op.a0.data)
    current = {j: a0_inv @ t.a.data for j, t in op.terms.items()}

    steps: list[StepFactor | None] = [None] * n
    for j in range(1, n + 1):
        trailing = spec.trailing(j)
        if j not in op.terms:
            pis.append(np.ones(trailing.shape, dtype=np.complex128))
            mins.append(1.0)
            continue
        bj = op.terms[j].b.data
        gathered = (bj @ current[j]).mean(axis=tuple(range(j)))
        e = np.eye(gathered.shape[-1]) + gathered
        pis.append(np.linalg.det(e))
        failed, node, min_abs = step_check(pis[j], j)
        mins.append(min_abs)
        if failed:
            return NonInvertible(j, node, min_abs, tuple(mins))
        e_inv = np.linalg.inv(e)
        steps[j - 1] = StepFactor(
            j, MatrixField(spec, current[j]), MatrixField(trailing, e), MatrixField(trailing, e_inv)
        )
        for r in op.terms:
            if r <= j:
                continue
            mixed = (bj @ current[r]).mean(axis=tuple(range(j)))
            current[r] = current[r] - current[j] @ (e_inv @ mixed)

    pi = tuple(
        MatrixField(spec.trailing(j), np.asarray(p)[..., None, None]) for j, p in enumerate(pis)
    )
    return Invertible(VectorDeterminant(pi), MatrixField(spec, a0_inv), tuple(steps), tuple(mins))


def _require_invertible(op: DefectOperator) -> Invertible:
    outcome = eliminate(op)
    if isinstance(outcome, NonInvertible):
        raise NonInvertibleError(outcome)
    return outcome


def determinant(op: DefectOperator) -> VectorDeterminant:
    """The vector determinant; multiplicative under composition.

    Raises NonInvertibleError (carrying the failing step and witness) when
    some component vanishes.
    """
    return _require_invertible(op).pi


def inverse(op: DefectOperator) -> DefectOperator:
    """The inverse operator, in canonical form.

    Built as the reversed product of elementary inverses
    (I - A_{j,j-1} E_j^{-1} <B_j .>_j) applied after A0^{-1}, then
    compressed with tol = 0, so its inner widths are minimal up to
    round-off instead of growing with every product.
    """
    outcome = _require_invertible(op)
    acc = multiplication_operator(outcome.a0_inv)
    for step in outcome.steps:
        if step is None:
            continue
        a_neg = complex(-1.0) * (step.a_left.data @ step.e_inv.data)
        elem = elementary_factor(step.level, MatrixField(op.spec, a_neg), op.terms[step.level].b)
        acc = compose(elem, acc)
    return compress(acc, 0.0)


def factorize(op: DefectOperator) -> list[DefectOperator]:
    """Ordered elementary factors [A0., I + A_{1,0}<B_1 .>_1, ...].

    Their left-to-right composition reproduces the operator; absent levels
    yield identity factors.
    """
    outcome = _require_invertible(op)
    factors = [multiplication_operator(op.a0)]
    for j in range(1, op.n + 1):
        step = outcome.steps[j - 1]
        if step is None:
            factors.append(identity_operator(op.spec, op.m))
        else:
            factors.append(elementary_factor(j, step.a_left, op.terms[j].b))
    return factors
