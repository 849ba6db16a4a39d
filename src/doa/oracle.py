"""Dense matrix realization of operators, used as an independent oracle.

On a fixed grid every canonical-form operator is a finite matrix of size
M * (number of nodes).  Rows and columns are indexed by (node, component)
with the component varying fastest and nodes enumerated with coordinate 1
fastest: ``row = flat_node * M + component``.  Level-j blocks carry the
quadrature weight 1/(n_1*...*n_j) and couple only node pairs that share
their trailing N - j coordinates.  Because the weights are uniform, the
dense matrix of the adjoint is the plain conjugate transpose (asserted in
the test suite, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elimination import inverse
from .grid import GridSpec, MatrixField
from .operator import DefectOperator, StateVector

__all__ = [
    "DenseRealization",
    "assemble",
    "dense_spectrum",
    "dense_inverse_check",
    "vec",
    "unvec",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 4096


def _nodes_matrix(field: MatrixField) -> np.ndarray:
    """(num_nodes, rows, cols) with flat node order: coordinate 1 fastest."""
    d = field.spec.dims
    perm = tuple(reversed(range(d))) + (d, d + 1)
    return field.data.transpose(perm).reshape(field.spec.num_nodes, field.rows, field.cols)


def vec(u: StateVector) -> np.ndarray:
    """Flatten a state to match the dense row indexing."""
    d = u.spec.dims
    perm = tuple(reversed(range(d))) + (d,)
    return u.values.transpose(perm).reshape(-1)


def unvec(spec: GridSpec, m: int, flat: np.ndarray) -> StateVector:
    d = spec.dims
    shape = tuple(reversed(spec.shape)) + (m,)
    arr = np.asarray(flat, dtype=np.complex128).reshape(shape)
    perm = tuple(reversed(range(d))) + (d,)
    return StateVector(spec, arr.transpose(perm))


@dataclass(frozen=True)
class DenseRealization:
    """Dense matrix plus the space it represents."""

    matrix: np.ndarray
    spec: GridSpec
    m: int

    def row_index(self, node_multi_index, component: int) -> int:
        return self.spec.flat_index(node_multi_index) * self.m + int(component)


def assemble(op: DefectOperator) -> DenseRealization:
    """Dense matrix D with D @ vec(u) = vec(apply(op, u)).

    Refuses, before allocating, matrices larger than DEFAULT_CAP on a side.
    """
    spec = op.spec
    nn = spec.num_nodes
    m = op.m
    size = nn * m
    if size > DEFAULT_CAP:
        raise ValueError(f"dense size {size} exceeds cap {DEFAULT_CAP}")

    mat = np.zeros((nn, m, nn, m), dtype=np.complex128)
    idx = np.arange(nn)
    mat[idx, :, idx, :] = _nodes_matrix(op.a0)

    for j, t in op.terms.items():
        prefix = 1
        for npts in spec.points_per_dim[:j]:
            prefix *= npts
        trail = nn // prefix
        a_blocks = _nodes_matrix(t.a).reshape(trail, prefix, m, t.width)
        b_blocks = _nodes_matrix(t.b).reshape(trail, prefix, t.width, m)
        coupling = np.einsum("tpiw,tqwc->tpiqc", a_blocks, b_blocks) / prefix
        view = mat.reshape(trail, prefix, m, trail, prefix, m)
        ti = np.arange(trail)
        view[ti, :, :, ti, :, :] += coupling

    return DenseRealization(mat.reshape(size, size), spec, m)


def dense_spectrum(op: DefectOperator) -> np.ndarray:
    """Eigenvalues of the dense realization."""
    return np.linalg.eigvals(assemble(op).matrix)


def dense_inverse_check(op: DefectOperator) -> float:
    """max |assemble(op) @ assemble(inverse(op)) - I|."""
    dense = assemble(op).matrix
    dense_inv = assemble(inverse(op)).matrix
    residual = dense @ dense_inv - np.eye(dense.shape[0])
    return float(np.max(np.abs(residual)))
