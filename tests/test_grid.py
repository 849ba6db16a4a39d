"""Grid, field and quadrature tests.

Derived expectations (trigonometric sums) are recomputed here with plain
math loops, independent of the vectorized implementation.
"""

import math

import numpy as np
import pytest

from doa.grid import (
    GridSpec,
    MatrixField,
    ScalarComponents,
    integrate_first,
    lift,
    max_abs_diff,
    pointwise_add,
    pointwise_adjoint,
    pointwise_det,
    pointwise_matmul,
    pointwise_scale,
    sample,
)
from helpers import random_field


def test_midpoint_nodes():
    spec = GridSpec((2,))
    f = sample([["k1"]], spec, 1, 1)
    assert np.allclose(f.data[..., 0, 0], [0.25, 0.75])


def test_zero_expression():
    f = sample([["0"]], GridSpec((3, 4)), 1, 1)
    assert np.all(f.data == 0)


def test_sine_mean_square_exact():
    # sum of sin^2(2 pi (t+1/2)/n) equals n/2 for n >= 3: check by direct
    # summation, then against the sampled field
    n = 8
    direct = sum(math.sin(2 * math.pi * (t + 0.5) / n) ** 2 for t in range(n))
    assert abs(direct - n / 2) < 1e-13
    f = sample([["sqrt(2)*sin(2*pi*k1)"]], GridSpec((n,)), 1, 1)
    assert abs(np.mean(np.abs(f.data) ** 2) - 1.0) < 1e-14


def test_sample_rejects_out_of_range_coordinate():
    with pytest.raises(ValueError, match="k2"):
        sample([["k2"]], GridSpec((4,)), 1, 1)


def test_integrate_constant():
    spec = GridSpec((4, 5))
    c = MatrixField.constant(spec, [[2.0, 1j], [0.0, 3.0]])
    for j in (0, 1, 2):
        out = integrate_first(c, j)
        assert out.spec.dims == 2 - j
        assert np.allclose(out.data, c.data[0, 0] if j == 2 else c.data[(0,) * j])


def test_integrate_linear_midpoint_mean():
    f = sample([["k1"]], GridSpec((4,)), 1, 1)
    out = integrate_first(f, 1)
    assert out.spec.dims == 0
    assert abs(out.data[0, 0] - 0.5) < 1e-15


def test_integrate_sine_mean_zero():
    # direct summation oracle: sum over midpoints of sin(2 pi k) is 0
    n = 8
    direct = sum(math.sin(2 * math.pi * (t + 0.5) / n) for t in range(n))
    assert abs(direct) < 1e-13
    f = sample([["sqrt(2)*sin(2*pi*k1)"]], GridSpec((n, n)), 1, 1)
    out = integrate_first(f, 1)
    assert out.spec.shape == (n,)
    assert np.max(np.abs(out.data)) < 1e-15


def test_integrate_nesting():
    rng = np.random.default_rng(3)
    f = random_field(GridSpec((3, 4, 5)), 2, 2, rng)
    full = integrate_first(f, 2)
    for i in (0, 1, 2):
        nested = integrate_first(integrate_first(f, i), 2 - i)
        assert max_abs_diff(nested, full) < 1e-13


def test_integrate_linearity():
    rng = np.random.default_rng(4)
    spec = GridSpec((4, 3))
    f = random_field(spec, 2, 3, rng)
    g = random_field(spec, 2, 3, rng)
    a, b = 0.7 - 0.2j, -1.3 + 1j
    lhs = integrate_first(
        MatrixField(spec, a * f.data + b * g.data), 1
    )
    rhs = MatrixField(
        lhs.spec, a * integrate_first(f, 1).data + b * integrate_first(g, 1).data
    )
    assert max_abs_diff(lhs, rhs) < 1e-13


def test_factor_out_prefix_independent_field():
    # <lift(g) f>_j = g <f>_j when g does not depend on the first j coords
    rng = np.random.default_rng(5)
    spec = GridSpec((4, 3, 2))
    f = random_field(spec, 2, 2, rng)
    g = random_field(spec.trailing(2), 2, 2, rng)
    lhs = integrate_first(pointwise_matmul(lift(g, spec), f), 2)
    rhs = pointwise_matmul(g, integrate_first(f, 2))
    assert max_abs_diff(lhs, rhs) < 1e-13


def test_lift_constant():
    c = MatrixField.constant(GridSpec(()), [[5.0]])
    spec = GridSpec((3, 3))
    out = lift(c, spec)
    assert out.spec == spec
    assert np.all(out.data == 5.0)


def test_lift_then_integrate_is_identity():
    rng = np.random.default_rng(6)
    spec = GridSpec((4, 3))
    g = random_field(spec.trailing(1), 2, 2, rng)
    assert max_abs_diff(integrate_first(lift(g, spec), 1), g) == 0.0


def test_lift_independent_of_prepended_axis():
    f = sample([["k1"]], GridSpec((4,)), 1, 1)  # becomes k2 after lifting
    out = lift(f, GridSpec((4, 4)))
    assert np.allclose(out.data[0], out.data[3])


def test_lift_spec_mismatch():
    f = sample([["k1"]], GridSpec((4,)), 1, 1)
    with pytest.raises(ValueError):
        lift(f, GridSpec((4, 5)))


def test_matmul_identity():
    rng = np.random.default_rng(7)
    spec = GridSpec((3, 3))
    x = random_field(spec, 2, 2, rng)
    eye = MatrixField.identity(spec, 2)
    assert max_abs_diff(pointwise_matmul(eye, x), x) == 0.0


def test_adjoint_involution_bit_exact():
    rng = np.random.default_rng(8)
    f = random_field(GridSpec((3, 2)), 2, 3, rng)
    back = pointwise_adjoint(pointwise_adjoint(f))
    assert np.array_equal(back.data, f.data)


def test_pointwise_add_and_scale():
    rng = np.random.default_rng(9)
    spec = GridSpec((2, 2))
    f = random_field(spec, 2, 2, rng)
    doubled = pointwise_add(f, f)
    assert max_abs_diff(doubled, pointwise_scale(2.0, f)) == 0.0


def test_constant_value_within_relative_tolerance():
    spec = GridSpec((3,))
    varying = np.array([2.0, 2.0 + 1e-10, 2.0 - 1e-10])[:, None, None]
    comps = ScalarComponents(
        (MatrixField(spec, varying), MatrixField(GridSpec(()), np.full((1, 1), 5.0)))
    )
    assert comps.constant_value(0) == pytest.approx(2.0)
    assert comps.constant_value(0, tol=1e-12) is None
    assert comps.constant_value(1, tol=0.0) == 5.0
    with pytest.raises(ValueError, match="component 0"):
        comps.constant_values(tol=1e-12)


def test_det_scalar_field():
    spec = GridSpec((2,))
    f = MatrixField.constant(spec, [[2.0, 0.0], [0.0, 3.0]])
    assert np.allclose(pointwise_det(f).data[..., 0, 0], 6.0)


def test_flat_index_coordinate_one_fastest():
    spec = GridSpec((3, 4))
    assert spec.flat_index((1, 0)) == 1
    assert spec.flat_index((0, 1)) == 3
    assert spec.flat_index((2, 3)) == 2 + 3 * 3


def test_fields_are_read_only():
    f = MatrixField.zeros(GridSpec((2,)), 1, 1)
    with pytest.raises(ValueError):
        f.data[0, 0, 0] = 1.0
