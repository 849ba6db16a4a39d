"""Midpoint grids on [0,1]^d and complex matrix-valued fields over them.

A field assigns one complex ``rows x cols`` matrix to every node of a
tensor-product midpoint grid: coordinate i takes the values (t + 1/2)/n_i,
t = 0..n_i-1.  Integrating over the first j coordinates is the uniform
average over those axes.  With this quadrature the operator algebra built
on top of these fields is exactly closed at any fixed resolution: all
factorization identities hold up to floating-point rounding only.

Array layout: ``MatrixField.data`` has shape ``(n_1, ..., n_d, rows, cols)``
with grid axes in natural coordinate order.  Where a single flat node index
is needed (witness reporting, dense realizations) nodes are enumerated with
coordinate 1 varying fastest: ``flat = t_1 + n_1*(t_2 + n_2*(...))``.

Averages rely on numpy reductions, which use pairwise summation, so the
error growth on fine grids stays logarithmic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as _expr

__all__ = [
    "GridSpec",
    "MatrixField",
    "ScalarComponents",
    "sample",
    "integrate_first",
    "lift",
    "pointwise_matmul",
    "pointwise_add",
    "pointwise_scale",
    "pointwise_adjoint",
    "pointwise_det",
    "max_abs_diff",
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
        out = 1
        for n in self.points_per_dim:
            out *= n
        return out

    def coordinates(self, axis: int) -> np.ndarray:
        """Midpoint values (t + 1/2)/n along one 0-based axis."""
        n = self.points_per_dim[axis]
        return (np.arange(n) + 0.5) / n

    def node_coords(self, multi_index: Sequence[int]) -> tuple[float, ...]:
        return tuple(
            (int(t) + 0.5) / n for t, n in zip(multi_index, self.points_per_dim)
        )

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


def sample(expr_table, spec: GridSpec, rows: int, cols: int, symbols=None) -> MatrixField:
    """Evaluate a rows x cols table of expressions at every grid node.

    Entries may be parsed ``FieldExpr`` trees or raw expression strings.
    Expressions may only reference coordinates k1..kd of `spec`, and free
    symbols take their values from `symbols` (see `doa.expr.evaluate`).
    Each entry is evaluated once over the whole grid; an ExprError carries
    the failing entry's (row, col) in its ``entry`` attribute.
    """
    if len(expr_table) != rows or any(len(r) != cols for r in expr_table):
        raise ValueError(f"expression table must be {rows}x{cols}")
    axes = np.meshgrid(*map(spec.coordinates, range(spec.dims)), indexing="ij", sparse=True)
    data = np.empty(spec.shape + (rows, cols), dtype=np.complex128)
    for r, row in enumerate(expr_table):
        for c, entry in enumerate(row):
            try:
                tree = _expr.parse(entry) if isinstance(entry, str) else entry
                data[..., r, c] = _expr.evaluate(tree, axes, symbols)
            except _expr.ExprError as exc:
                exc.entry = (r, c)
                raise
    return MatrixField(spec, data)


def integrate_first(field: MatrixField, j: int) -> MatrixField:
    """Average the field over its first j coordinates.

    Returns a field on the trailing d - j coordinates; j = 0 is the
    identity.  The average uses uniform weights 1/(n_1*...*n_j), which is
    the exact integral for the discrete midpoint measure.
    """
    if not 0 <= j <= field.spec.dims:
        raise ValueError(f"j must be in 0..{field.spec.dims}, got {j}")
    if j == 0:
        return field
    data = field.data.mean(axis=tuple(range(j)))
    return MatrixField(field.spec.trailing(j), data)


def lift(field: MatrixField, target: GridSpec) -> MatrixField:
    """Broadcast a trailing-coordinate field to a larger grid.

    `field.spec` must equal the trailing coordinates of `target`; the
    result is constant along the prepended axes.
    """
    extra = target.dims - field.spec.dims
    if extra < 0 or target.trailing(extra) != field.spec:
        raise ValueError(
            f"field grid {field.spec.shape} is not a trailing part of {target.shape}"
        )
    data = np.broadcast_to(field.data, target.shape + field.data.shape[-2:])
    return MatrixField(target, data)


def _align(a: MatrixField, b: MatrixField) -> tuple[MatrixField, MatrixField]:
    """Lift whichever operand lives on the smaller (trailing) grid."""
    if a.spec == b.spec:
        return a, b
    if a.spec.dims < b.spec.dims:
        return lift(a, b.spec), b
    return a, lift(b, a.spec)


def pointwise_matmul(a: MatrixField, b: MatrixField) -> MatrixField:
    a, b = _align(a, b)
    if a.cols != b.rows:
        raise ValueError(f"matrix shapes {a.rows}x{a.cols} @ {b.rows}x{b.cols} mismatch")
    return MatrixField(a.spec, np.matmul(a.data, b.data))


def pointwise_add(a: MatrixField, b: MatrixField) -> MatrixField:
    a, b = _align(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError(f"matrix shapes {a.rows}x{a.cols} + {b.rows}x{b.cols} mismatch")
    return MatrixField(a.spec, a.data + b.data)


def pointwise_scale(alpha: complex, field: MatrixField) -> MatrixField:
    return MatrixField(field.spec, complex(alpha) * field.data)


def pointwise_adjoint(field: MatrixField) -> MatrixField:
    """Per-node conjugate transpose."""
    return MatrixField(field.spec, np.conj(np.swapaxes(field.data, -1, -2)))


def pointwise_det(field: MatrixField) -> MatrixField:
    """Per-node determinant as a 1x1 scalar field."""
    if field.rows != field.cols:
        raise ValueError("determinant requires square matrices")
    dets = np.linalg.det(field.data)
    return MatrixField(field.spec, np.asarray(dets)[..., None, None])


def max_abs_diff(a: MatrixField, b: MatrixField) -> float:
    a, b = _align(a, b)
    if a.data.shape != b.data.shape:
        raise ValueError("fields have different shapes")
    if a.data.size == 0:
        return 0.0
    return float(np.max(np.abs(a.data - b.data)))


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

    def component(self, j: int) -> MatrixField:
        return self.fields[j]

    def values(self, j: int) -> np.ndarray:
        """Component j as a bare array over its grid."""
        return self.fields[j].data[..., 0, 0]

    def last(self) -> complex:
        return complex(self.fields[-1].data[0, 0])

    def map_values(self, fn) -> "ScalarComponents":
        out = tuple(MatrixField(f.spec, fn(f.data)) for f in self.fields)
        return type(self)(out)

    def multiply(self, other: "ScalarComponents") -> "ScalarComponents":
        self._check_compatible(other)
        out = tuple(
            MatrixField(f.spec, f.data * g.data)
            for f, g in zip(self.fields, other.fields)
        )
        return type(self)(out)

    def add(self, other: "ScalarComponents") -> "ScalarComponents":
        self._check_compatible(other)
        out = tuple(
            MatrixField(f.spec, f.data + g.data)
            for f, g in zip(self.fields, other.fields)
        )
        return type(self)(out)

    def scale(self, alpha: complex) -> "ScalarComponents":
        return self.map_values(lambda d: complex(alpha) * d)

    def max_abs_diff(self, other: "ScalarComponents") -> float:
        self._check_compatible(other)
        return max(
            float(np.max(np.abs(f.data - g.data)))
            for f, g in zip(self.fields, other.fields)
        )

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
        out = []
        for j in range(len(self.fields)):
            value = self.constant_value(j, tol)
            if value is None:
                raise ValueError(f"component {j} is not constant")
            out.append(value)
        return tuple(out)

    def _check_compatible(self, other: "ScalarComponents"):
        if len(self.fields) != len(other.fields) or any(
            f.spec != g.spec for f, g in zip(self.fields, other.fields)
        ):
            raise ValueError("component vectors live on different grids")
