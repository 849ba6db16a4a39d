"""Canonical-form operator algebra tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doa import (
    DefectOperator,
    GridSpec,
    MatrixField,
    NonFiniteError,
    StateVector,
    Term,
    add,
    adjoint,
    apply,
    compose,
    compress,
    equal_as_map,
    identity_operator,
    inner,
    pencil,
    scale,
    state_norm,
    zero_operator,
)
from doa.oracle import assemble
from doa.reference import demo_operator
from helpers import SHAPES, grid66, random_operator, random_state


def _diff_norm(u, v):
    return state_norm(StateVector(u.spec, u.values - v.values))


def test_apply_identity_bit_exact():
    rng = np.random.default_rng(0)
    spec = grid66()
    u = random_state(spec, 2, rng)
    out = apply(identity_operator(spec, 2), u)
    assert np.array_equal(out.values, u.values)


def test_apply_demo_on_constant_vector():
    # constant u: both averages return u and the profile term drops out,
    # so A u = -2 u; checked against a direct-summation computation
    op = demo_operator(8)
    c = 0.7 - 0.3j
    u = StateVector(op.spec, np.full(op.spec.shape + (1,), c))
    out = apply(op, u)
    f = op.terms[1].b.data[..., 1, 0]  # sampled profile
    direct = -c - f * (f * c).mean(axis=0) - c
    assert np.max(np.abs(out.values[..., 0] - direct)) < 1e-13
    assert np.max(np.abs(out.values + 2 * c)) < 1e-13


def test_apply_kills_zero_mean_states():
    # level-1 term with B = I sees only the k1-average, which is zero here
    rng = np.random.default_rng(1)
    spec = grid66()
    a = DefectOperator(
        MatrixField.zeros(spec, 2, 2),
        {1: Term(MatrixField.identity(spec, 2), MatrixField.identity(spec, 2))},
    )
    u0 = random_state(spec, 2, rng)
    vals = u0.values - u0.values.mean(axis=0)
    out = apply(a, StateVector(spec, vals))
    assert np.max(np.abs(out.values)) < 1e-15


def test_add_is_pointwise_sum_and_widths_add():
    rng = np.random.default_rng(2)
    spec = grid66()
    a = random_operator(spec, 2, rng, widths={1: 1})
    b = random_operator(spec, 2, rng, widths={1: 1, 2: 2})
    s = add(a, b)
    assert s.width(1) == 2 and s.width(2) == 2
    u = random_state(spec, 2, rng)
    want = apply(a, u).values + apply(b, u).values
    assert np.max(np.abs(apply(s, u).values - want)) < 1e-14


def test_add_zero_operator_keeps_widths():
    rng = np.random.default_rng(3)
    spec = grid66()
    a = random_operator(spec, 2, rng)
    s = add(a, zero_operator(spec, 2))
    assert {j: s.width(j) for j in s.terms} == {j: a.width(j) for j in a.terms}
    assert equal_as_map(s, a, 1e-14)


def test_scale_minus_one_cancels_as_map():
    rng = np.random.default_rng(4)
    spec = grid66()
    a = random_operator(spec, 2, rng)
    z = add(a, scale(-1.0, a))
    assert z.width(1) == 2 * a.width(1)  # widths double, map is zero
    u = random_state(spec, 2, rng)
    assert state_norm(apply(z, u)) < 1e-13


def test_compose_matches_sequential_apply():
    rng = np.random.default_rng(5)
    spec = grid66()
    for _ in range(5):
        a = random_operator(spec, 2, rng)
        b = random_operator(spec, 2, rng)
        u = random_state(spec, 2, rng)
        got = apply(compose(a, b), u)
        want = apply(a, apply(b, u))
        assert _diff_norm(got, want) < 1e-12


def test_compose_identity_is_identity():
    rng = np.random.default_rng(6)
    spec = grid66()
    a = random_operator(spec, 2, rng)
    assert equal_as_map(compose(identity_operator(spec, 2), a), a, 1e-13)
    assert equal_as_map(compose(a, identity_operator(spec, 2)), a, 1e-13)


def test_compose_level_structure():
    # a level-j term against a level-r term lands at level max(j, r)
    rng = np.random.default_rng(7)
    spec = grid66()
    a = random_operator(spec, 2, rng, widths={1: 1}, a0_perturb=0.0)
    b = random_operator(spec, 2, rng, widths={2: 1}, a0_perturb=0.0)
    a_zero = DefectOperator(MatrixField.zeros(spec, 2, 2), a.terms)
    b_zero = DefectOperator(MatrixField.zeros(spec, 2, 2), b.terms)
    prod = compose(a_zero, b_zero)
    assert prod.levels == (2,)
    prod = compose(b_zero, a_zero)
    assert prod.levels == (2,)
    prod = compose(a_zero, a_zero)
    assert prod.levels == (1,)


def test_compose_mean_free_cross_term_vanishes():
    # two level-1 rank-1 terms whose B1 A1' has zero mean along k1
    spec = grid66()
    from doa.expr import parse
    from doa.grid import sample

    f = sample([[parse("sqrt(2)*sin(2*pi*k1)")]], spec)
    ones = MatrixField.constant(spec, [[1.0]])
    t1 = DefectOperator(MatrixField.zeros(spec, 1, 1), {1: Term(ones, ones)})
    t2 = DefectOperator(MatrixField.zeros(spec, 1, 1), {1: Term(f, ones)})
    prod = compose(t1, t2)  # inner average <1 * f>_1 = 0
    rng = np.random.default_rng(8)
    u = random_state(spec, 1, rng)
    assert state_norm(apply(prod, u)) < 1e-14


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_compose_associative_as_map(seed):
    rng = np.random.default_rng(seed)
    spec = grid66()
    a = random_operator(spec, 2, rng)
    b = random_operator(spec, 2, rng)
    c = random_operator(spec, 2, rng)
    u = random_state(spec, 2, rng)
    left = apply(compose(compose(a, b), c), u)
    right = apply(compose(a, compose(b, c)), u)
    assert _diff_norm(left, right) < 1e-12


def test_adjoint_identity():
    spec = grid66()
    assert equal_as_map(adjoint(identity_operator(spec, 2)), identity_operator(spec, 2), 0.0)


def test_adjoint_involution():
    rng = np.random.default_rng(9)
    spec = grid66()
    a = random_operator(spec, 2, rng)
    back = adjoint(adjoint(a))
    assert np.array_equal(back.a0.data, a.a0.data)
    for j in a.terms:
        assert np.array_equal(back.terms[j].a.data, a.terms[j].a.data)
        assert np.array_equal(back.terms[j].b.data, a.terms[j].b.data)


def test_adjoint_inner_product_identity():
    rng = np.random.default_rng(10)
    spec = grid66()
    a = random_operator(spec, 2, rng)
    for _ in range(5):
        u = random_state(spec, 2, rng)
        v = random_state(spec, 2, rng)
        lhs = inner(apply(a, u), v)
        rhs = inner(u, apply(adjoint(a), v))
        assert abs(lhs - rhs) < 1e-13


def test_adjoint_antihomomorphism():
    rng = np.random.default_rng(11)
    spec = grid66()
    a = random_operator(spec, 2, rng)
    b = random_operator(spec, 2, rng)
    lhs = adjoint(compose(a, b))
    rhs = compose(adjoint(b), adjoint(a))
    assert equal_as_map(lhs, rhs, 1e-12)


def test_demo_operator_self_adjoint():
    op = demo_operator(8)
    assert equal_as_map(adjoint(op), op, 1e-13)


def test_compress_exact_cancellation_empties_widths():
    rng = np.random.default_rng(12)
    spec = grid66()
    a = random_operator(spec, 2, rng)
    z = compress(add(a, scale(-1.0, a)), 0.0)
    assert z.levels == ()


def test_compress_duplicated_rows():
    rng = np.random.default_rng(13)
    spec = grid66()
    base = random_operator(spec, 2, rng, widths={1: 1})
    t = base.terms[1]
    dup = Term(
        MatrixField(spec, np.concatenate([t.a.data, t.a.data], axis=-1)),
        MatrixField(spec, np.concatenate([t.b.data, t.b.data], axis=-2)),
    )
    op = DefectOperator(base.a0, {1: dup})
    reduced = compress(op, 0.0)
    assert reduced.width(1) == 1
    assert equal_as_map(scale(1.0, reduced), op, 1e-12)


def test_compress_respects_tolerance_contract():
    # uniform weights: the dense 2-norm is the discrete operator norm
    for grid, m, widths in SHAPES:
        rng = np.random.default_rng(sum(grid) * 10 + m)
        spec = GridSpec(grid)
        big = compose(random_operator(spec, m, rng, widths), random_operator(spec, m, rng, widths))
        dense = assemble(big).matrix
        for tol in (0.0, 1e-12, 1e-6, 1e-3, 1e-1):
            moved = np.linalg.norm(assemble(compress(big, tol)).matrix - dense, 2)
            assert moved <= tol + 1e-13, (grid, m, tol)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_compress_non_finite_term_raises(bad):
    # one bad A entry at level 1: neither dropped silently nor left to the SVD
    rng = np.random.default_rng(14)
    spec = GridSpec((3, 3))
    op = random_operator(spec, 2, rng)
    a = op.terms[1].a.data.copy()
    a[1, 2, 0, 0] = bad
    broken = DefectOperator(op.a0, {1: Term(MatrixField(spec, a), op.terms[1].b), 2: op.terms[2]})
    with pytest.raises(NonFiniteError, match="term at level 1 is not finite"):
        compress(broken, 0.0)


def test_compress_keeps_pencil_structure():
    op = demo_operator(8)
    p = pencil(2.5, op)
    c = compress(p, 0.0)
    assert equal_as_map(c, p, 1e-12)


def test_equal_as_map_self():
    rng = np.random.default_rng(15)
    a = random_operator(grid66(), 2, rng)
    assert equal_as_map(a, a, 0.0)


def test_equal_as_map_rescaled_factors():
    rng = np.random.default_rng(16)
    spec = grid66()
    a = random_operator(spec, 2, rng)
    terms = {
        j: Term(
            MatrixField(spec, 2.0 * t.a.data), MatrixField(spec, 0.5 * t.b.data)
        )
        for j, t in a.terms.items()
    }
    b = DefectOperator(a.a0, terms)
    assert equal_as_map(a, b, 1e-12)


def test_equal_as_map_detects_a0_perturbation():
    rng = np.random.default_rng(17)
    spec = grid66()
    a = random_operator(spec, 2, rng)
    tol = 1e-8
    bumped = DefectOperator(
        MatrixField(spec, a.a0.data + 10 * tol), a.terms
    )
    assert not equal_as_map(a, bumped, tol)


def test_equal_as_map_detects_single_node_change_on_fine_grid():
    # a level-2 kernel on 64^2 has 4096^2 node pairs; a change at one A-node
    # touches only 4096 of them, so every pair must be compared
    rng = np.random.default_rng(19)
    spec = GridSpec((64, 64))
    a = random_operator(spec, 1, rng, widths={2: 1})
    for flat in rng.choice(spec.num_nodes, size=5, replace=False):
        node = np.unravel_index(flat, spec.shape)
        changed = a.terms[2].a.data.copy()
        changed[node] += 1.0
        b = DefectOperator(a.a0, {2: Term(MatrixField(spec, changed), a.terms[2].b)})
        assert not equal_as_map(a, b, 1e-6), node


def test_equal_as_map_nan_is_unequal():
    rng = np.random.default_rng(20)
    spec = grid66()
    a = random_operator(spec, 1, rng)
    data = a.terms[1].b.data.copy()
    data[0, 0] = np.nan
    b = DefectOperator(a.a0, {**a.terms, 1: Term(a.terms[1].a, MatrixField(spec, data))})
    assert not equal_as_map(b, b, 1.0)


def test_equal_as_map_gauge_freedom_across_fibers():
    # multiplying a level-1 pair by a k2-dependent gauge leaves the map
    # unchanged even though the raw kernels differ across fibers
    rng = np.random.default_rng(18)
    spec = grid66()
    a = random_operator(spec, 1, rng, widths={1: 1})
    g = 1.0 + 0.5 * np.cos(2 * np.pi * spec.coordinates(1))  # k2-dependent
    gauge = g[None, :, None, None]
    b = DefectOperator(
        a.a0,
        {1: Term(MatrixField(spec, a.terms[1].a.data * gauge),
                 MatrixField(spec, a.terms[1].b.data / gauge))},
    )
    assert equal_as_map(a, b, 1e-12)
    u = random_state(spec, 1, rng)
    assert _diff_norm(apply(a, u), apply(b, u)) < 1e-13


def test_pencil_shape():
    rng = np.random.default_rng(19)
    spec = grid66()
    a = random_operator(spec, 2, rng)
    p = pencil(3.0 + 1j, a)
    u = random_state(spec, 2, rng)
    want = 3.0 * u.values + 1j * u.values - apply(a, u).values
    assert np.max(np.abs(apply(p, u).values - want)) < 1e-13


def test_shape_mismatch_rejected():
    rng = np.random.default_rng(20)
    a = random_operator(grid66(), 2, rng)
    b = random_operator(GridSpec((5, 5)), 2, rng)
    with pytest.raises(ValueError):
        add(a, b)
    with pytest.raises(ValueError):
        compose(a, b)
