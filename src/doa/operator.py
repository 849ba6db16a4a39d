"""Canonical-form defect operators and their exact discrete algebra.

An operator acts on M-component vector fields u over a midpoint grid as

    A u = A0 u + sum_j A_j <B_j u>_j ,

where <.>_j averages over the first j coordinates.  Levels carry a pair of
fields (A_j, B_j) with a shared inner width; levels without a term are
simply absent (width 0).  Sums concatenate the pairs level-wise, products
expand bilinearly and land at level max(j, r), so the family is exactly
closed under the algebra at fixed resolution.

Inner widths grow under addition and composition; `compress` trims a
representation back to (numerically) minimal width without changing the
induced map beyond a requested operator-norm tolerance.  Equality of
operators is a property of the induced map, not of the stored pairs, and
is tested through the per-level kernels A_j(k) B_j(k') on node pairs that
share their trailing coordinates (`equal_as_map`).

Everything here is pure and immutable; all per-node work is vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    GridSpec,
    MatrixField,
    integrate_first,
    lift,
    pointwise_add,
    pointwise_adjoint,
    pointwise_matmul,
    pointwise_scale,
)

__all__ = [
    "Term",
    "DefectOperator",
    "StateVector",
    "identity_operator",
    "zero_operator",
    "multiplication_operator",
    "elementary_factor",
    "pencil",
    "apply",
    "add",
    "scale",
    "compose",
    "adjoint",
    "compress",
    "equal_as_map",
    "inner",
    "state_norm",
]


@dataclass(frozen=True)
class Term:
    """One level's pair (A: M x w, B: w x M) on the full grid."""

    a: MatrixField
    b: MatrixField

    def __post_init__(self):
        if self.a.spec != self.b.spec:
            raise ValueError("term fields must share one grid")
        if self.a.cols != self.b.rows:
            raise ValueError(
                f"inner widths disagree: A is {self.a.rows}x{self.a.cols}, "
                f"B is {self.b.rows}x{self.b.cols}"
            )
        if self.a.cols < 1:
            raise ValueError("terms must have width >= 1; drop the level instead")
        if self.a.rows != self.b.cols:
            raise ValueError("A's row count must match B's column count")

    @property
    def width(self) -> int:
        return self.a.cols


@dataclass(frozen=True)
class StateVector:
    """An M-component complex vector stored at every grid node."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape[:-1] != self.spec.shape or arr.ndim != self.spec.dims + 1:
            raise ValueError(
                f"values shape {arr.shape} does not match grid {self.spec.shape} + (M,)"
            )
        try:
            arr.setflags(write=False)
        except ValueError:
            pass
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return self.values.shape[-1]


@dataclass(frozen=True)
class DefectOperator:
    """Canonical form A0 + sum_j A_j <B_j .>_j with N = grid dims levels."""

    a0: MatrixField
    terms: dict[int, Term] = field(default_factory=dict)

    def __post_init__(self):
        if self.a0.rows != self.a0.cols:
            raise ValueError("A0 must be square")
        if self.a0.spec.dims < 1:
            raise ValueError("operators need at least one grid coordinate")
        ordered = {}
        for level in sorted(self.terms):
            t = self.terms[level]
            if not 1 <= level <= self.n:
                raise ValueError(f"level {level} outside 1..{self.n}")
            if t.a.spec != self.spec:
                raise ValueError(f"term at level {level} lives on a different grid")
            if t.a.rows != self.m:
                raise ValueError(f"term at level {level} has wrong outer size")
            ordered[level] = t
        object.__setattr__(self, "terms", ordered)

    @property
    def spec(self) -> GridSpec:
        return self.a0.spec

    @property
    def n(self) -> int:
        return self.spec.dims

    @property
    def m(self) -> int:
        return self.a0.rows

    def width(self, level: int) -> int:
        t = self.terms.get(level)
        return t.width if t is not None else 0

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(self.terms)


def identity_operator(spec: GridSpec, m: int) -> DefectOperator:
    return DefectOperator(MatrixField.identity(spec, m))


def zero_operator(spec: GridSpec, m: int) -> DefectOperator:
    return DefectOperator(MatrixField.zeros(spec, m, m))


def multiplication_operator(a0: MatrixField) -> DefectOperator:
    return DefectOperator(a0)


def elementary_factor(level: int, a: MatrixField, b: MatrixField) -> DefectOperator:
    """I + A <B .>_level."""
    return DefectOperator(MatrixField.identity(a.spec, a.rows), {level: Term(a, b)})


def pencil(lam: complex, op: DefectOperator) -> DefectOperator:
    """lam * I - op."""
    eye = np.eye(op.m)
    a0 = MatrixField(op.spec, complex(lam) * eye - op.a0.data)
    terms = {j: Term(pointwise_scale(-1.0, t.a), t.b) for j, t in op.terms.items()}
    return DefectOperator(a0, terms)


def _check_same_space(a: DefectOperator, b: DefectOperator):
    if a.spec != b.spec or a.m != b.m:
        raise ValueError("operators live on different spaces")


def apply(op: DefectOperator, u: StateVector) -> StateVector:
    """A0 u + sum_j A_j <B_j u>_j, exact for the discrete quadrature."""
    if u.spec != op.spec or u.m != op.m:
        raise ValueError("state does not match the operator's space")
    col = u.values[..., None]
    acc = np.matmul(op.a0.data, col)
    for j, t in op.terms.items():
        w = np.matmul(t.b.data, col).mean(axis=tuple(range(j)))
        acc = acc + np.matmul(t.a.data, w)
    return StateVector(op.spec, acc[..., 0])


def _concat_terms(parts: list[Term]) -> Term:
    if len(parts) == 1:
        return parts[0]
    a = np.concatenate([t.a.data for t in parts], axis=-1)
    b = np.concatenate([t.b.data for t in parts], axis=-2)
    spec = parts[0].a.spec
    return Term(MatrixField(spec, a), MatrixField(spec, b))


def add(a: DefectOperator, b: DefectOperator) -> DefectOperator:
    """Level-wise sum; inner widths add."""
    _check_same_space(a, b)
    terms = {}
    for j in sorted(set(a.terms) | set(b.terms)):
        parts = [x.terms[j] for x in (a, b) if j in x.terms]
        terms[j] = _concat_terms(parts)
    return DefectOperator(pointwise_add(a.a0, b.a0), terms)


def scale(alpha: complex, a: DefectOperator) -> DefectOperator:
    terms = {j: Term(pointwise_scale(alpha, t.a), t.b) for j, t in a.terms.items()}
    return DefectOperator(pointwise_scale(alpha, a.a0), terms)


def compose(a: DefectOperator, b: DefectOperator) -> DefectOperator:
    """Operator product a o b, expanded bilinearly over all level pairs.

    A level-j factor against a level-r factor contributes at level
    max(j, r): the inner average <B_j A'_r> collapses onto whichever side
    integrates over fewer coordinates.  No compression is applied; widths
    grow and the identities stay exact.
    """
    _check_same_space(a, b)
    spec = a.spec
    buckets: dict[int, list[Term]] = {}

    def put(level: int, af: MatrixField, bf: MatrixField):
        buckets.setdefault(level, []).append(Term(af, bf))

    # exactly-zero multiplication parts contribute nothing; skipping them
    # keeps pure term-by-term products at level max(j, r) structurally
    if a.a0.data.any():
        for r, tb in b.terms.items():
            put(r, pointwise_matmul(a.a0, tb.a), tb.b)
    if b.a0.data.any():
        for j, ta in a.terms.items():
            put(j, ta.a, pointwise_matmul(ta.b, b.a0))
    for j, ta in a.terms.items():
        for r, tb in b.terms.items():
            mixed = integrate_first(pointwise_matmul(ta.b, tb.a), min(j, r))
            if j <= r:
                put(r, pointwise_matmul(ta.a, lift(mixed, spec)), tb.b)
            else:
                put(j, ta.a, pointwise_matmul(lift(mixed, spec), tb.b))

    terms = {lvl: _concat_terms(parts) for lvl, parts in sorted(buckets.items())}
    return DefectOperator(pointwise_matmul(a.a0, b.a0), terms)


def adjoint(a: DefectOperator) -> DefectOperator:
    """Hermitian adjoint: A0 -> A0*, (A_j, B_j) -> (B_j*, A_j*)."""
    terms = {
        j: Term(pointwise_adjoint(t.b), pointwise_adjoint(t.a))
        for j, t in a.terms.items()
    }
    return DefectOperator(pointwise_adjoint(a.a0), terms)


def _spectral_norms(stacked: np.ndarray) -> np.ndarray:
    # stacked: (nodes, r, c); per-node largest singular value
    return np.linalg.svd(stacked, compute_uv=False)[..., 0]


def _compress_term(t: Term, budget: float) -> Term | None:
    """Shrink a term's width; induced-map change stays below `budget`.

    Two rank-revealing passes: first on the column space of the stacked
    A-blocks, then on the row space of the (reduced) stacked B-blocks.
    Per-node spectral norms bound the map perturbation by
    sigma_dropped(A-side) * max||B|| + max||A|| * sigma_dropped(B-side),
    so each pass gets half the budget.  budget = 0 removes only rank
    deficiency at round-off level.
    """
    spec = t.a.spec
    nn = spec.num_nodes
    m_out, w = t.a.rows, t.width
    a = t.a.data.reshape(nn, m_out, w)
    b = t.b.data.reshape(nn, w, m_out)

    max_b = float(np.max(_spectral_norms(b)))
    max_a = float(np.max(_spectral_norms(a)))
    if max_a == 0.0 or max_b == 0.0:
        return None

    def cutoff(singulars: np.ndarray, half_budget: float, scale_ref: float) -> int:
        if singulars.size == 0 or singulars[0] == 0.0:
            return 0
        # rank deficiency of the pair can surface in this pass at round-off
        # level relative to the side's original scale, not its reduced one
        ref = max(float(singulars[0]), scale_ref)
        floor = ref * max(singulars.shape[0], nn * m_out) * np.finfo(float).eps
        thr = max(half_budget, floor)
        return int(np.sum(singulars > thr))

    stacked_a = a.reshape(nn * m_out, w)
    _, s1, vh1 = np.linalg.svd(stacked_a, full_matrices=False)
    k1 = cutoff(s1, 0.5 * budget / max_b, 0.0)
    if k1 == 0:
        return None
    a1 = np.matmul(a, vh1[:k1].conj().T)
    b1 = np.matmul(vh1[:k1], b)

    max_a1 = float(np.max(_spectral_norms(a1)))
    stacked_b = np.moveaxis(b1, 0, 1).reshape(k1, nn * m_out)
    u2, s2, _ = np.linalg.svd(stacked_b, full_matrices=False)
    k2 = cutoff(s2, 0.5 * budget / max_a1 if max_a1 > 0 else 0.0, max_b)
    if k2 == 0:
        return None
    b2 = np.matmul(u2[:, :k2].conj().T, b1)
    a2 = np.matmul(a1, u2[:, :k2])

    shape = spec.shape
    return Term(
        MatrixField(spec, a2.reshape(shape + (m_out, k2))),
        MatrixField(spec, b2.reshape(shape + (k2, m_out))),
    )


def compress(a: DefectOperator, tol: float = 0.0) -> DefectOperator:
    """Reduce all inner widths; the map changes by at most `tol` in the
    discrete operator norm (`tol = 0` removes only exact rank deficiency)."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    active = len(a.terms)
    if active == 0:
        return a
    budget = tol / active
    terms = {}
    for j, t in a.terms.items():
        reduced = _compress_term(t, budget)
        if reduced is not None:
            terms[j] = reduced
    return DefectOperator(a.a0, terms)


_KERNEL_BLOCK = 1 << 20  # kernel entries evaluated at once (16 MB)


def _level_kernels_agree(ta: Term | None, tb: Term | None, j: int, spec: GridSpec, tol: float) -> bool:
    """Whether level-j kernels A(k)B(k') agree to `tol` on all node pairs
    that share trailing coordinates, evaluated in blocks of k rows."""
    m = (ta if ta is not None else tb).a.rows
    prefix = math.prod(spec.points_per_dim[:j])
    trail = spec.num_nodes // prefix

    def sides(t: Term | None):
        # per trailing node: A rows (prefix*m, w) and B columns (w, prefix*m)
        if t is None:
            return None
        a = t.a.data.reshape(prefix, trail, m, t.width).transpose(1, 0, 2, 3)
        b = t.b.data.reshape(prefix, trail, t.width, m).transpose(1, 2, 0, 3)
        return a.reshape(trail, prefix * m, t.width), b.reshape(trail, t.width, prefix * m)

    def kernel(ab, rows: slice):
        return 0.0 if ab is None else np.matmul(ab[0][:, rows], ab[1])

    sa, sb = sides(ta), sides(tb)
    step = max(1, _KERNEL_BLOCK // (trail * prefix * m))
    for start in range(0, prefix * m, step):
        rows = slice(start, start + step)
        if not float(np.max(np.abs(kernel(sa, rows) - kernel(sb, rows)))) <= tol:
            return False  # also on NaN
    return True


def equal_as_map(a: DefectOperator, b: DefectOperator, tol: float) -> bool:
    """True iff the induced maps agree to `tol`: A0 entrywise, and each
    level's kernel A_j(k)B_j(k') on every node pair sharing trailing
    coordinates.  NaN anywhere makes the maps unequal."""
    _check_same_space(a, b)
    if not float(np.max(np.abs(a.a0.data - b.a0.data))) <= tol:
        return False
    for j in sorted(set(a.terms) | set(b.terms)):
        if not _level_kernels_agree(a.terms.get(j), b.terms.get(j), j, a.spec, tol):
            return False
    return True


def inner(u: StateVector, v: StateVector) -> complex:
    """Quadrature inner product <u, v> = mean over nodes of u(k)* . v(k)."""
    if u.spec != v.spec or u.m != v.m:
        raise ValueError("states live on different spaces")
    return complex(np.vdot(u.values, v.values) / u.spec.num_nodes)


def state_norm(u: StateVector) -> float:
    return float(np.sqrt(max(inner(u, u).real, 0.0)))
