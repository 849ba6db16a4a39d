"""Elimination, vector determinant, factorization and inverse tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doa import (
    DefectOperator,
    GridSpec,
    Invertible,
    MatrixField,
    NonFiniteError,
    NonInvertible,
    NonInvertibleError,
    StateVector,
    Term,
    apply,
    compose,
    compress,
    determinant,
    elementary_factor,
    eliminate,
    equal_as_map,
    factorize,
    identity_operator,
    inverse,
    multiplication_operator,
    pencil,
    state_norm,
)
from doa.oracle import dense_inverse_check
from doa.reference import apply_demo_resolvent, demo_determinant, demo_operator
from helpers import SHAPE_IDS, SHAPES, grid66, random_field, random_operator, random_state


def test_identity_determinant_is_all_ones():
    out = eliminate(identity_operator(grid66(), 2))
    assert isinstance(out, Invertible)
    for j in range(3):
        assert np.allclose(out.pi.values(j), 1.0)


@pytest.mark.parametrize("lam", [3.0, 10.0, -0.5 + 2j])
def test_demo_determinant_closed_form(lam):
    out = eliminate(pencil(lam, demo_operator(8)))
    got = np.array(out.pi.constant_values())
    want = np.array(demo_determinant(lam))
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("lam,step", [(0.0, 0), (-1.0, 1), (-2.0, 2)])
def test_demo_non_invertibility_steps(lam, step):
    out = eliminate(pencil(lam, demo_operator(8)))
    assert isinstance(out, NonInvertible)
    assert out.step == step


def test_non_invertible_witness_location():
    # a0 vanishing at exactly one node: the witness must name it
    spec = GridSpec((4, 4))
    vals = np.ones(spec.shape + (1, 1), dtype=complex)
    vals[2, 1] = 0.0
    out = eliminate(DefectOperator(MatrixField(spec, vals)))
    assert isinstance(out, NonInvertible)
    assert out.step == 0
    assert out.witness_node == (2, 1)
    assert out.min_abs_pi == 0.0


def test_absent_levels_give_unit_components():
    rng = np.random.default_rng(0)
    op = random_operator(grid66(), 2, rng, widths={2: 1})
    out = eliminate(op)
    assert isinstance(out, Invertible)
    assert np.allclose(out.pi.values(1), 1.0)
    assert out.steps[0] is None


def test_multiplication_operator_determinant():
    rng = np.random.default_rng(1)
    spec = grid66()
    a0 = MatrixField(spec, np.eye(2) + 0.3 * random_field(spec, 2, 2, rng).data)
    out = eliminate(multiplication_operator(a0))
    assert np.allclose(out.pi.values(0), np.linalg.det(a0.data))
    assert np.allclose(out.pi.values(1), 1.0)
    assert np.allclose(out.pi.values(2), 1.0)


def test_elementary_factor_determinant_slot():
    # pi of I + A<B .>_j is 1 everywhere except slot j = det(I + <BA>_j)
    rng = np.random.default_rng(2)
    spec = grid66()
    for j in (1, 2):
        a = random_field(spec, 2, 1, rng, 0.4)
        b = random_field(spec, 1, 2, rng, 0.4)
        op = elementary_factor(j, a, b)
        out = eliminate(op)
        assert isinstance(out, Invertible)
        want = np.linalg.det(np.eye(1) + (b.data @ a.data).mean(axis=tuple(range(j))))
        assert np.max(np.abs(out.pi.values(j) - want)) < 1e-13
        for slot in range(3):
            if slot != j:
                assert np.allclose(out.pi.values(slot), 1.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000))
def test_determinant_homomorphism(seed):
    rng = np.random.default_rng(seed)
    spec = grid66()
    a = random_operator(spec, 2, rng)
    b = random_operator(spec, 2, rng)
    pa = determinant(a)
    pb = determinant(b)
    pab = determinant(compose(a, b))
    assert pab.max_abs_diff(pa.multiply(pb)) < 1e-10


def test_determinant_representation_independence():
    # (A G, G^-1 B) leaves the determinant unchanged
    rng = np.random.default_rng(3)
    spec = grid66()
    a = random_operator(spec, 2, rng, widths={1: 2, 2: 1})
    transformed_terms = {}
    for j, t in a.terms.items():
        w = t.width
        g = np.eye(w) + 0.3 * (rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w)))
        transformed_terms[j] = Term(
            MatrixField(spec, t.a.data @ g),
            MatrixField(spec, np.linalg.inv(g) @ t.b.data),
        )
    b = DefectOperator(a.a0, transformed_terms)
    assert determinant(a).max_abs_diff(determinant(b)) < 1e-11


def test_determinant_raises_distinct_outcome():
    with pytest.raises(NonInvertibleError) as err:
        determinant(pencil(0.0, demo_operator(8)))
    assert err.value.outcome.step == 0


def test_inverse_identity():
    spec = grid66()
    inv = inverse(identity_operator(spec, 2))
    assert equal_as_map(inv, identity_operator(spec, 2), 1e-14)


def test_elementary_factor_inverse_closed_form():
    # (I + A<B .>_j)^-1 = I - A (I + <BA>_j)^-1 <B .>_j
    rng = np.random.default_rng(4)
    spec = grid66()
    for j in (1, 2):
        a = random_field(spec, 2, 1, rng, 0.4)
        b = random_field(spec, 1, 2, rng, 0.4)
        op = elementary_factor(j, a, b)
        inv = inverse(op)
        e = np.eye(1) + (b.data @ a.data).mean(axis=tuple(range(j)))
        closed = elementary_factor(j, MatrixField(spec, -(a.data @ np.linalg.inv(e))), b)
        assert equal_as_map(inv, closed, 1e-12)


def test_inverse_both_sides():
    rng = np.random.default_rng(5)
    spec = grid66()
    for _ in range(3):
        op = random_operator(spec, 2, rng)
        inv = inverse(op)
        eye = identity_operator(spec, 2)
        assert equal_as_map(compose(op, inv), eye, 1e-10)
        assert equal_as_map(compose(inv, op), eye, 1e-10)


@pytest.mark.parametrize("grid,m,widths", SHAPES, ids=SHAPE_IDS)
def test_inverse_widths_are_minimal(grid, m, widths):
    op = random_operator(GridSpec(grid), m, np.random.default_rng(sum(grid) * 10 + m), widths)
    inv = inverse(op)
    again = compress(inv, 0.0)
    levels = range(1, op.n + 1)
    assert [inv.width(j) for j in levels] == [again.width(j) for j in levels]
    assert dense_inverse_check(op) < 1e-9


def test_demo_resolvent_closed_form():
    lam = 1.0
    op = demo_operator(8)
    inv = inverse(pencil(lam, op))
    rng = np.random.default_rng(6)
    for _ in range(10):
        u = random_state(op.spec, 1, rng)
        got = apply(inv, u)
        want = apply_demo_resolvent(lam, u)
        dev = state_norm(StateVector(op.spec, got.values - want.values))
        assert dev / state_norm(u) < 1e-12


def test_factorize_identity():
    spec = grid66()
    factors = factorize(identity_operator(spec, 2))
    assert len(factors) == 3
    for f in factors:
        assert equal_as_map(f, identity_operator(spec, 2), 1e-14)


def test_factorize_elementary_member():
    # an elementary factor must reappear alone in its slot
    rng = np.random.default_rng(7)
    spec = grid66()
    a = random_field(spec, 2, 1, rng, 0.4)
    b = random_field(spec, 1, 2, rng, 0.4)
    op = elementary_factor(2, a, b)
    factors = factorize(op)
    eye = identity_operator(spec, 2)
    assert equal_as_map(factors[0], eye, 1e-14)
    assert equal_as_map(factors[1], eye, 1e-14)
    assert equal_as_map(factors[2], op, 1e-12)


def test_factorize_recompose():
    rng = np.random.default_rng(8)
    spec = grid66()
    for _ in range(3):
        op = random_operator(spec, 2, rng, widths={1: 2, 2: 1})
        factors = factorize(op)
        recomposed = factors[0]
        for f in factors[1:]:
            recomposed = compose(recomposed, f)
        assert equal_as_map(recomposed, op, 1e-11)


def test_compress_preserves_determinant_to_tolerance():
    rng = np.random.default_rng(9)
    spec = grid66()
    a = random_operator(spec, 2, rng, widths={1: 2, 2: 2})
    b = random_operator(spec, 2, rng, widths={1: 2, 2: 2})
    big = compose(a, b)
    small = compress(big, 1e-13)
    assert determinant(big).max_abs_diff(determinant(small)) < 1e-11


def test_condition_numbers_reported():
    rng = np.random.default_rng(10)
    out = eliminate(random_operator(grid66(), 2, rng))
    assert isinstance(out, Invertible)
    for step in out.steps:
        if step is not None:
            assert step.cond_max >= 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_a0_has_no_verdict(bad):
    spec = grid66()
    data = np.ones(spec.shape + (1, 1), dtype=complex)
    data[2, 4, 0, 0] = bad
    with pytest.raises(ValueError, match=r"pi_0 is not finite at node \(2, 4\)"):
        eliminate(multiplication_operator(MatrixField(spec, data)))


def test_non_finite_correction_step_has_no_verdict():
    spec = grid66()
    b = np.ones(spec.shape + (1, 1), dtype=complex)
    b[1, 3, 0, 0] = np.inf
    op = elementary_factor(1, MatrixField.identity(spec, 1), MatrixField(spec, b))
    with pytest.raises(NonFiniteError, match=r"pi_1 is not finite at node \(3,\)"):
        eliminate(op)


def test_zero_tol_must_be_positive():
    for zero_tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="zero_tol must be positive and finite"):
            eliminate(identity_operator(grid66(), 1), zero_tol)
