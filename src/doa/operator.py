"""Canonical-form defect operators and their exact discrete algebra.

An operator acts on M-component vector fields u over a midpoint grid as

    A u = A0 u + sum_j A_j <B_j u>_j ,

where <.>_j averages over the first j coordinates.  Levels carry a pair of
fields (A_j, B_j) with a shared inner width; levels without a term are
simply absent (width 0).  Sums concatenate the pairs level-wise, products
expand bilinearly and land at level max(j, r), so the family is exactly
closed under the algebra at fixed resolution.

The kernels work on the plain ``.data`` arrays and wrap only what they
return in ``MatrixField`` and ``Term``.  <x>_j is the array mean
``x.mean(axis=tuple(range(j)))`` on the trailing coordinates, and lifting
it back to the full grid is numpy broadcasting (right-aligned) in the next
``@``.

Inner widths grow under addition and composition; `compress` trims a
representation back to (numerically) minimal width without changing the
induced map beyond a requested operator-norm tolerance.  Equality of
operators is a property of the induced map, not of the stored pairs, and
is tested through the per-level kernels A_j(k) B_j(k') on node pairs that
share their trailing coordinates (`equal_as_map`).

Those node pairs make up the fibres of level j: the P = n_1*...*n_j nodes
that share one value of the trailing coordinates.  `fibre_stacks` lays a
level-j term out per fibre, A as a (P*M) x w and B as a w x (P*M) block,
so the level acts on fibre t as the matrix A[t] B[t] / P.  `equal_as_map`
and `functional.trace_norm` both read a term through that view.

Everything here is pure and immutable; all per-node work is vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, MatrixField, NonFiniteError

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
    "fibre_stacks",
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
    return DefectOperator(a0, _scaled_terms(-1.0, op))


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


def _term(spec: GridSpec, pairs: list[tuple[np.ndarray, np.ndarray]]) -> Term:
    """One level's Term from (A, B) arrays, concatenated along the inner width."""
    if len(pairs) == 1:
        a, b = pairs[0]  # no copy: the arrays keep their memory layout
    else:
        a = np.concatenate([p[0] for p in pairs], axis=-1)
        b = np.concatenate([p[1] for p in pairs], axis=-2)
    return Term(MatrixField(spec, a), MatrixField(spec, b))


def add(a: DefectOperator, b: DefectOperator) -> DefectOperator:
    """Level-wise sum; inner widths add."""
    _check_same_space(a, b)
    terms = {}
    for j in sorted(set(a.terms) | set(b.terms)):
        pairs = [(x.terms[j].a.data, x.terms[j].b.data) for x in (a, b) if j in x.terms]
        terms[j] = _term(a.spec, pairs)
    return DefectOperator(MatrixField(a.spec, a.a0.data + b.a0.data), terms)


def _scaled_terms(alpha: complex, a: DefectOperator) -> dict[int, Term]:
    return {j: Term(MatrixField(a.spec, complex(alpha) * t.a.data), t.b) for j, t in a.terms.items()}


def scale(alpha: complex, a: DefectOperator) -> DefectOperator:
    return DefectOperator(MatrixField(a.spec, complex(alpha) * a.a0.data), _scaled_terms(alpha, a))


def compose(a: DefectOperator, b: DefectOperator) -> DefectOperator:
    """Operator product a o b, expanded bilinearly over all level pairs.

    A level-j factor against a level-r factor contributes at level
    max(j, r): the inner average <B_j A'_r> collapses onto whichever side
    integrates over fewer coordinates, and it multiplies that side back by
    broadcasting over the averaged axes.  No compression is applied; widths
    grow and the identities stay exact.
    """
    _check_same_space(a, b)
    a0, b0 = a.a0.data, b.a0.data
    buckets: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    def put(level: int, af: np.ndarray, bf: np.ndarray):
        buckets.setdefault(level, []).append((af, bf))

    # exactly-zero multiplication parts contribute nothing; skipping them
    # keeps pure term-by-term products at level max(j, r) structurally
    if a0.any():
        for r, tb in b.terms.items():
            put(r, a0 @ tb.a.data, tb.b.data)
    if b0.any():
        for j, ta in a.terms.items():
            put(j, ta.a.data, ta.b.data @ b0)
    for j, ta in a.terms.items():
        for r, tb in b.terms.items():
            mixed = (ta.b.data @ tb.a.data).mean(axis=tuple(range(min(j, r))))
            if j <= r:
                put(r, ta.a.data @ mixed, tb.b.data)
            else:
                put(j, ta.a.data, mixed @ tb.b.data)

    terms = {lvl: _term(a.spec, pairs) for lvl, pairs in sorted(buckets.items())}
    return DefectOperator(MatrixField(a.spec, a0 @ b0), terms)


def _dagger(x: np.ndarray) -> np.ndarray:
    """Per-node conjugate transpose of a (..., rows, cols) array."""
    return np.conj(np.swapaxes(x, -1, -2))


def adjoint(a: DefectOperator) -> DefectOperator:
    """Hermitian adjoint: A0 -> A0*, (A_j, B_j) -> (B_j*, A_j*)."""
    terms = {j: _term(a.spec, [(_dagger(t.b.data), _dagger(t.a.data))]) for j, t in a.terms.items()}
    return DefectOperator(MatrixField(a.spec, _dagger(a.a0.data)), terms)


def _compress_term(t: Term, budget: float) -> Term | None:
    """The term truncated to the core singular values above
    max(budget, round-off floor); None when none is left."""
    spec = t.a.spec
    m, w = t.a.rows, t.width
    rows = spec.num_nodes * m
    q_a, r_a = np.linalg.qr(t.a.data.reshape(rows, w))
    q_b, r_b = np.linalg.qr(_dagger(t.b.data).reshape(rows, w))
    u, s, vh = np.linalg.svd(r_a @ r_b.conj().T, full_matrices=False)
    floor = np.linalg.norm(r_a) * np.linalg.norm(r_b) * max(rows, w) * np.finfo(float).eps
    k = int(np.sum(s > max(budget, floor)))
    if k == 0:
        return None
    a = (q_a @ (u[:, :k] * s[:k])).reshape(spec.shape + (m, k))
    b_adj = (q_b @ vh[:k].conj().T).reshape(spec.shape + (m, k))
    return Term(MatrixField(spec, a), MatrixField(spec, _dagger(b_adj)))


def compress(a: DefectOperator, tol: float) -> DefectOperator:
    """Reduce all inner widths; the map changes by at most `tol` in the
    discrete operator norm (`tol = 0` removes only exact rank deficiency).

    Each level is truncated once.  Stack the term's per-node blocks into
    A and B*, both (nodes*M) x w, and take thin QRs A = Q_A R_A and
    B* = Q_B R_B.  The stacked kernel K, whose (k, k') block is
    A(k) B(k'), is then Q_A C Q_B* with the small core C = R_A R_B*.
    With C = U S V*, keeping the k largest singular values gives
    A' = Q_A U_k S_k and B' = (Q_B V_k)*, so K - K' = Q_A (C - C_k) Q_B*.
    Q_A and Q_B have orthonormal columns, hence ||K - K'||_2 = s_{k+1}
    and every kernel block A(k)B(k') moves by at most s_{k+1}.

    Level j maps u to A(k) <B u>_j.  On one fibre of
    P = prod(points_per_dim[:j]) nodes sharing the trailing coordinates
    that map is the fibre's principal block of K divided by P, and the
    weights are uniform, so the level's map moves by at most
    s_{k+1} / P in operator norm.  Every level drops only the s_i at or
    below tol / (number of levels), so the total change is at most tol.
    The 1/P slack is deliberately not used: one threshold serves every
    level of every grid, and the kernel blocks themselves stay within it.

    Singular values below the round-off floor
    eps * max(nodes*M, w) * ||R_A||_F * ||R_B||_F are dropped whatever
    the tolerance.  The floor scales with the factors, not with the core:
    when pairs cancel (a + (-a)) the whole core is round-off, and its s_1
    says nothing about the size of that round-off.

    A term with a NaN or infinite entry raises NonFiniteError.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    for j, t in a.terms.items():
        if not (np.isfinite(t.a.data).all() and np.isfinite(t.b.data).all()):
            raise NonFiniteError(f"term at level {j} is not finite")
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


def fibre_stacks(term: Term, j: int) -> tuple[np.ndarray, np.ndarray]:
    """A level-j term per fibre: A as (trail, P*M, w), B as (trail, w, P*M).

    P = n_1*...*n_j nodes share each of the `trail` values of the trailing
    coordinates; rows of fibre t run over its nodes (coordinate j fastest)
    with the M components innermost.  The level maps fibre t by
    A[t] @ B[t] / P.
    """
    spec = term.a.spec
    m, w = term.a.rows, term.width
    prefix = math.prod(spec.points_per_dim[:j])
    trail = spec.num_nodes // prefix
    a = term.a.data.reshape(prefix, trail, m, w).transpose(1, 0, 2, 3)
    b = term.b.data.reshape(prefix, trail, w, m).transpose(1, 2, 0, 3)
    return a.reshape(trail, prefix * m, w), b.reshape(trail, w, prefix * m)


_KERNEL_BLOCK = 1 << 20  # kernel entries evaluated at once (16 MB)


def _level_kernels_agree(ta: Term | None, tb: Term | None, j: int, tol: float) -> bool:
    """Whether level-j kernels A(k)B(k') agree to `tol` on all node pairs
    that share trailing coordinates, evaluated in blocks of k rows."""

    def kernel(ab, rows: slice):
        return 0.0 if ab is None else np.matmul(ab[0][:, rows], ab[1])

    sa, sb = (None if t is None else fibre_stacks(t, j) for t in (ta, tb))
    trail, rows_all, _ = (sa or sb)[0].shape
    step = max(1, _KERNEL_BLOCK // (trail * rows_all))
    for start in range(0, rows_all, step):
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
        if not _level_kernels_agree(a.terms.get(j), b.terms.get(j), j, tol):
            return False
    return True


def inner(u: StateVector, v: StateVector) -> complex:
    """Quadrature inner product <u, v> = mean over nodes of u(k)* . v(k)."""
    if u.spec != v.spec or u.m != v.m:
        raise ValueError("states live on different spaces")
    return complex(np.vdot(u.values, v.values) / u.spec.num_nodes)


def state_norm(u: StateVector) -> float:
    return float(np.sqrt(max(inner(u, u).real, 0.0)))
