"""Midpoint grids on [0,1]^d and complex matrix-valued fields over them.

A field assigns one complex ``rows x cols`` matrix to every node of a
tensor-product midpoint grid: coordinate i takes the values (t + 1/2)/n_i,
t = 0..n_i-1.  With this quadrature the operator algebra built on top of
these fields is exactly closed at any fixed resolution: all factorization
identities hold up to floating-point rounding only.

Array layout: ``MatrixField.data`` has shape ``(n_1, ..., n_d, rows, cols)``
with grid axes in natural coordinate order.  Where a single flat node index
is needed (witness reporting, dense realizations) nodes are enumerated with
coordinate 1 varying fastest: ``flat = t_1 + n_1*(t_2 + n_2*(...))``.

The average <x>_j over the first j coordinates is the plain array mean
``x.mean(axis=tuple(range(j)))``: a uniform average, which is the exact
integral for the discrete midpoint measure.  It leaves an array of shape
``(n_{j+1}, ..., n_d, rows, cols)`` on the trailing coordinates, and such
an array broadcasts right-aligned against the full grid, constant in
k_1..k_j.  The algebra multiplies averages back in that way, so there is
no separate lifting step.  numpy's reductions use pairwise summation, so
the error growth on fine grids stays logarithmic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as _expr

__all__ = [
    "GridSpec",
    "MatrixField",
    "ScalarComponents",
    "sample",
    "NonFiniteError",
    "require_finite",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform midpoint grid on [0,1]^d, one resolution per coordinate."""

    points_per_dim: tuple[int, ...]

    def __post_init__(self):
        pts = tuple(int(n) for n in self.points_per_dim)
        if any(n < 1 for n in pts):
            raise ValueError(f"grid resolutions must be >= 1, got {pts}")
        object.__setattr__(self, "points_per_dim", pts)

    @property
    def dims(self) -> int:
        return len(self.points_per_dim)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points_per_dim

    @property
    def num_nodes(self) -> int:
        return math.prod(self.points_per_dim)

    def coordinates(self, axis: int) -> np.ndarray:
        """Midpoint values (t + 1/2)/n along one 0-based axis."""
        n = self.points_per_dim[axis]
        return (np.arange(n) + 0.5) / n

    def node_coords(self, multi_index: Sequence[int]) -> tuple[float, ...]:
        return tuple((int(t) + 0.5) / n for t, n in zip(multi_index, self.points_per_dim))

    def trailing(self, j: int) -> "GridSpec":
        """The grid of the last d - j coordinates."""
        if not 0 <= j <= self.dims:
            raise ValueError(f"j must be in 0..{self.dims}, got {j}")
        return GridSpec(self.points_per_dim[j:])

    def flat_index(self, multi_index: Sequence[int]) -> int:
        """Flat node index with coordinate 1 varying fastest."""
        flat = 0
        for t, n in zip(reversed(tuple(multi_index)), reversed(self.points_per_dim)):
            flat = flat * n + int(t)
        return flat


@dataclass(frozen=True)
class MatrixField:
    """A rows x cols complex matrix stored at every node of a grid.

    ``dims = 0`` grids are allowed; the field is then a single matrix.
    Fields are immutable: the wrapped array is marked read-only.
    """

    spec: GridSpec
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != self.spec.dims + 2:
            raise ValueError(
                f"data must have {self.spec.dims} grid axes plus 2 matrix axes, "
                f"got shape {arr.shape}"
            )
        if arr.shape[: self.spec.dims] != self.spec.shape:
            raise ValueError(
                f"grid axes {arr.shape[: self.spec.dims]} do not match spec {self.spec.shape}"
            )
        try:
            arr.setflags(write=False)
        except ValueError:
            pass  # read-only views (e.g. broadcast results) are already safe
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[-2]

    @property
    def cols(self) -> int:
        return self.data.shape[-1]

    @classmethod
    def constant(cls, spec: GridSpec, matrix) -> "MatrixField":
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.ndim != 2:
            raise ValueError("constant matrix must be 2-D")
        return cls(spec, np.broadcast_to(mat, spec.shape + mat.shape))

    @classmethod
    def zeros(cls, spec: GridSpec, rows: int, cols: int) -> "MatrixField":
        return cls(spec, np.zeros(spec.shape + (rows, cols), dtype=np.complex128))

    @classmethod
    def identity(cls, spec: GridSpec, m: int) -> "MatrixField":
        return cls.constant(spec, np.eye(m))


def sample(expr_table, spec: GridSpec, symbols=None) -> MatrixField:
    """Evaluate a rectangular table of parsed expression trees (see
    `doa.expr.parse`) at every grid node.

    Expressions may only reference coordinates k1..kd of `spec`, and free
    symbols take their values from `symbols` (see `doa.expr.evaluate`).
    Each entry is evaluated once over the whole grid; an ExprError carries
    the failing entry's (row, col) in its ``entry`` attribute.
    """
    rows = len(expr_table)
    cols = len(expr_table[0]) if rows else 0
    if cols == 0 or any(len(r) != cols for r in expr_table):
        raise ValueError("expression table must be a non-empty rectangle")
    axes = np.meshgrid(*map(spec.coordinates, range(spec.dims)), indexing="ij", sparse=True)
    data = np.empty(spec.shape + (rows, cols), dtype=np.complex128)
    for r, row in enumerate(expr_table):
        for c, entry in enumerate(row):
            try:
                data[..., r, c] = _expr.evaluate(entry, axes, symbols)
            except _expr.ExprError as exc:
                exc.entry = (r, c)
                raise
    return MatrixField(spec, data)


class NonFiniteError(ValueError):
    """A value is NaN or infinite, so no verdict or result exists."""


def require_finite(name: str, values: np.ndarray):
    """Raise NonFiniteError naming the first node where `values` is NaN or inf."""
    finite = np.isfinite(values)
    if not finite.all():
        node = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise NonFiniteError(f"{name} is not finite at node {node}")


@dataclass(frozen=True)
class ScalarComponents:
    """A tuple of scalar (1x1) fields on shrinking grids.

    Component j lives on the trailing N - j coordinates of the component-0
    grid; the last component is a single number.  This is the shared
    carrier for vector-valued determinants and traces.
    """

    fields: tuple[MatrixField, ...]

    def __post_init__(self):
        fields = tuple(self.fields)
        if not fields:
            raise ValueError("at least one component required")
        n = fields[0].spec.dims
        if len(fields) != n + 1:
            raise ValueError(f"expected {n + 1} components, got {len(fields)}")
        for j, f in enumerate(fields):
            if (f.rows, f.cols) != (1, 1):
                raise ValueError("components must be 1x1 scalar fields")
            if f.spec.dims != n - j:
                raise ValueError(
                    f"component {j} must live on {n - j} coordinates, "
                    f"got {f.spec.dims}"
                )
        object.__setattr__(self, "fields", fields)

    @property
    def order(self) -> int:
        """Number of grid coordinates N; there are N + 1 components."""
        return len(self.fields) - 1

    def values(self, j: int) -> np.ndarray:
        """Component j as a bare array over its grid."""
        return self.fields[j].data[..., 0, 0]

    def last(self) -> complex:
        return complex(self.fields[-1].data[0, 0])

    def map_values(self, fn) -> "ScalarComponents":
        return type(self)(tuple(MatrixField(f.spec, fn(f.data)) for f in self.fields))

    def multiply(self, other: "ScalarComponents") -> "ScalarComponents":
        return self._zip(other, np.multiply)

    def add(self, other: "ScalarComponents") -> "ScalarComponents":
        return self._zip(other, np.add)

    def scale(self, alpha: complex) -> "ScalarComponents":
        return self.map_values(lambda d: complex(alpha) * d)

    def max_abs_diff(self, other: "ScalarComponents") -> float:
        return max(float(np.max(np.abs(d.data))) for d in self._zip(other, np.subtract).fields)

    def min_abs(self, j: int) -> float:
        return float(np.min(np.abs(self.values(j))))

    def max_abs(self, j: int) -> float:
        return float(np.max(np.abs(self.values(j))))

    def constant_value(self, j: int, tol: float = 1e-9) -> complex | None:
        """Component j's mean if every node lies within tol * max(1, |mean|)
        of it, else None."""
        vals = self.values(j)
        mean = complex(vals.mean())
        spread = float(np.max(np.abs(vals - mean)))
        return mean if spread <= tol * max(1.0, abs(mean)) else None

    def constant_values(self, tol: float = 1e-9) -> tuple[complex, ...]:
        """Per-component constant value; raises if any component varies."""
        values = tuple(self.constant_value(j, tol) for j in range(len(self.fields)))
        if None in values:
            raise ValueError(f"component {values.index(None)} is not constant")
        return values

    def _zip(self, other: "ScalarComponents", fn) -> "ScalarComponents":
        """fn of the two component vectors, component by component."""
        if len(self.fields) != len(other.fields) or any(
            f.spec != g.spec for f, g in zip(self.fields, other.fields)
        ):
            raise ValueError("component vectors live on different grids")
        return type(self)(
            tuple(MatrixField(f.spec, fn(f.data, g.data)) for f, g in zip(self.fields, other.fields))
        )
