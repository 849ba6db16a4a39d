"""Grid, field and quadrature tests.

Derived expectations (trigonometric sums) are recomputed here with plain
math loops, independent of the vectorized implementation.  The average
<x>_j is the mean over the first j axes of a field's array, and a field on
the trailing coordinates enters the full grid by numpy broadcasting; the
tests below pin the properties of that convention the algebra relies on.
"""

import math

import numpy as np
import pytest

from doa.expr import parse
from doa.grid import GridSpec, MatrixField, ScalarComponents, sample
from helpers import random_field


def mean_first(x: np.ndarray, j: int) -> np.ndarray:
    """<x>_j of a (grid..., rows, cols) array."""
    return x.mean(axis=tuple(range(j)))


def test_midpoint_nodes():
    spec = GridSpec((2,))
    f = sample([[parse("k1")]], spec)
    assert np.allclose(f.data[..., 0, 0], [0.25, 0.75])


def test_zero_expression():
    f = sample([[parse("0")]], GridSpec((3, 4)))
    assert np.all(f.data == 0)


def test_sine_mean_square_exact():
    # sum of sin^2(2 pi (t+1/2)/n) equals n/2 for n >= 3: check by direct
    # summation, then against the sampled field
    n = 8
    direct = sum(math.sin(2 * math.pi * (t + 0.5) / n) ** 2 for t in range(n))
    assert abs(direct - n / 2) < 1e-13
    f = sample([[parse("sqrt(2)*sin(2*pi*k1)")]], GridSpec((n,)))
    assert abs(np.mean(np.abs(f.data) ** 2) - 1.0) < 1e-14


def test_sample_rejects_out_of_range_coordinate():
    with pytest.raises(ValueError, match="k2"):
        sample([[parse("k2")]], GridSpec((4,)))


def test_integrate_constant():
    spec = GridSpec((4, 5))
    c = MatrixField.constant(spec, [[2.0, 1j], [0.0, 3.0]])
    for j in (0, 1, 2):
        out = mean_first(c.data, j)
        assert out.shape == spec.trailing(j).shape + (2, 2)
        assert np.allclose(out, [[2.0, 1j], [0.0, 3.0]])


def test_integrate_linear_midpoint_mean():
    f = sample([[parse("k1")]], GridSpec((4,)))
    out = mean_first(f.data, 1)
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - 0.5) < 1e-15


def test_integrate_sine_mean_zero():
    # direct summation oracle: sum over midpoints of sin(2 pi k) is 0
    n = 8
    direct = sum(math.sin(2 * math.pi * (t + 0.5) / n) for t in range(n))
    assert abs(direct) < 1e-13
    f = sample([[parse("sqrt(2)*sin(2*pi*k1)")]], GridSpec((n, n)))
    out = mean_first(f.data, 1)
    assert out.shape == (n, 1, 1)
    assert np.max(np.abs(out)) < 1e-15


def test_integrate_nesting():
    rng = np.random.default_rng(3)
    f = random_field(GridSpec((3, 4, 5)), 2, 2, rng).data
    full = mean_first(f, 2)
    for i in (0, 1, 2):
        nested = mean_first(mean_first(f, i), 2 - i)
        assert np.max(np.abs(nested - full)) < 1e-13


def test_integrate_linearity():
    rng = np.random.default_rng(4)
    spec = GridSpec((4, 3))
    f = random_field(spec, 2, 3, rng).data
    g = random_field(spec, 2, 3, rng).data
    a, b = 0.7 - 0.2j, -1.3 + 1j
    lhs = mean_first(a * f + b * g, 1)
    rhs = a * mean_first(f, 1) + b * mean_first(g, 1)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_factor_out_prefix_independent_field():
    # a trailing-grid g broadcast over the first j axes: <g f>_j = g <f>_j
    rng = np.random.default_rng(5)
    spec = GridSpec((4, 3, 2))
    f = random_field(spec, 2, 2, rng).data
    g = random_field(spec.trailing(2), 2, 2, rng).data
    lhs = mean_first(g @ f, 2)
    rhs = g @ mean_first(f, 2)
    assert lhs.shape == rhs.shape == spec.trailing(2).shape + (2, 2)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_lift_then_integrate_is_identity():
    # lifting is broadcasting; averaging the lifted field gives it back exactly
    rng = np.random.default_rng(6)
    spec = GridSpec((4, 3))
    g = random_field(spec.trailing(1), 2, 2, rng).data
    lifted = np.broadcast_to(g, spec.shape + (2, 2))
    assert np.array_equal(mean_first(lifted, 1), g)


def test_lift_independent_of_prepended_axis():
    f = sample([[parse("k1")]], GridSpec((4,)))  # becomes k2 after broadcasting
    out = np.ones((4, 1, 1, 1)) * f.data
    assert out.shape == (4, 4, 1, 1)
    assert np.array_equal(out[0], out[3])
    assert np.array_equal(out[0], f.data)


def test_matmul_identity():
    # the identity field is a broadcast view; products with it are exact
    rng = np.random.default_rng(7)
    spec = GridSpec((3, 3))
    x = random_field(spec, 2, 2, rng)
    eye = MatrixField.identity(spec, 2)
    assert np.array_equal(eye.data @ x.data, x.data)


def test_pointwise_add_and_scale():
    # fields add and scale as arrays, with the scalar taken as complex(alpha)
    rng = np.random.default_rng(9)
    f = random_field(GridSpec((2, 2)), 2, 2, rng)
    assert np.array_equal(f.data + f.data, complex(2.0) * f.data)


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


def test_flat_index_coordinate_one_fastest():
    spec = GridSpec((3, 4))
    assert spec.flat_index((1, 0)) == 1
    assert spec.flat_index((0, 1)) == 3
    assert spec.flat_index((2, 3)) == 2 + 3 * 3


def test_fields_are_read_only():
    f = MatrixField.zeros(GridSpec((2,)), 1, 1)
    with pytest.raises(ValueError):
        f.data[0, 0, 0] = 1.0


def test_sample_rejects_ragged_table():
    with pytest.raises(ValueError, match="rectangle"):
        sample([["1", "2"], ["3"]], GridSpec((2,)))
    with pytest.raises(ValueError, match="rectangle"):
        sample([], GridSpec((2,)))
