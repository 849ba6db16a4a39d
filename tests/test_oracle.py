"""Dense-realization oracle tests."""

import math
import tracemalloc

import numpy as np
import pytest

from doa import (
    DefectOperator,
    GridSpec,
    MatrixField,
    Term,
    add,
    adjoint,
    apply,
    compose,
    eliminate,
    identity_operator,
    pencil,
    power_traces,
    scale,
    spectrum_scan,
    trace_norm,
)
from doa.expr import parse
from doa.grid import sample
from doa.oracle import DEFAULT_CAP, assemble, dense_inverse_check, dense_spectrum, unvec, vec
from doa.reference import demo_operator
from helpers import SHAPE_IDS, SHAPES, grid66, random_operator, random_state


def test_assemble_identity():
    dense = assemble(identity_operator(GridSpec((3, 2)), 2))
    assert np.array_equal(dense.matrix, np.eye(12))


def test_assemble_pure_average_block_structure():
    # M = 1, grid (2, 2), single <.>_1 term with A = B = 1: averaging pairs
    # of entries along k1 within each k2 fiber
    spec = GridSpec((2, 2))
    ones = MatrixField.constant(spec, [[1.0]])
    op = DefectOperator(MatrixField.zeros(spec, 1, 1), {1: Term(ones, ones)})
    dense = assemble(op).matrix
    half = 0.5 * np.array([[1, 1], [1, 1]])
    want = np.zeros((4, 4))
    want[:2, :2] = half  # k2 fiber 0: nodes (0,0),(1,0)
    want[2:, 2:] = half  # k2 fiber 1
    assert np.allclose(dense, want)


def test_assemble_matches_apply():
    rng = np.random.default_rng(0)
    spec = GridSpec((4, 3))
    op = random_operator(spec, 2, rng, widths={1: 2, 2: 1})
    dense = assemble(op)
    for _ in range(5):
        u = random_state(spec, 2, rng)
        assert np.max(np.abs(dense.matrix @ vec(u) - vec(apply(op, u)))) < 1e-13


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(1)
    spec = GridSpec((3, 4))
    u = random_state(spec, 2, rng)
    back = unvec(spec, 2, vec(u))
    assert np.array_equal(back.values, u.values)


def test_row_index_component_fastest():
    spec = GridSpec((3, 2))
    dense = assemble(identity_operator(spec, 2))
    assert dense.row_index((0, 0), 1) == 1
    assert dense.row_index((1, 0), 0) == 2
    assert dense.row_index((0, 1), 0) == 6


def test_assemble_is_algebra_homomorphism():
    rng = np.random.default_rng(2)
    spec = GridSpec((5, 5))
    a = random_operator(spec, 2, rng)
    b = random_operator(spec, 2, rng)
    da, db = assemble(a).matrix, assemble(b).matrix
    assert np.max(np.abs(assemble(add(a, b)).matrix - (da + db))) < 1e-12
    assert np.max(np.abs(assemble(compose(a, b)).matrix - da @ db)) < 1e-12
    assert np.max(np.abs(assemble(adjoint(a)).matrix - da.conj().T)) < 1e-12


def _log_det_mismatch(op) -> tuple[float, float]:
    """det(assemble) against the product over j and trailing nodes of pi_j,
    as (log-modulus error, phase error)."""
    out = eliminate(op)
    sign, logabs = np.linalg.slogdet(assemble(op).matrix)
    want_log = 0.0
    want_phase = 1.0 + 0j
    for j in range(op.n + 1):
        vals = out.pi.values(j).ravel()
        want_log += float(np.sum(np.log(np.abs(vals))))
        want_phase *= complex(np.prod(vals / np.abs(vals)))
    return abs(logabs - want_log), abs(sign - want_phase)


def test_dense_determinant_equals_product_of_pi_fibers():
    # compare in log-modulus and phase
    rng = np.random.default_rng(3)
    op = random_operator(GridSpec((4, 4)), 2, rng)
    log_err, phase_err = _log_det_mismatch(op)
    assert log_err < 1e-8
    assert phase_err < 1e-8


# (grid, M, per-level widths); width 0 leaves the level out
DET_SHAPES = [
    ((5,), 1, (0,)),
    ((4,), 2, (3,)),
    ((4,), 3, (1,)),
    ((3, 4), 2, (2, 2)),
    ((3, 2), 1, (3, 3)),
    ((4, 3), 3, (0, 2)),
    ((2, 3, 2), 3, (2, 2, 2)),
    ((3, 2, 2), 2, (1, 0, 3)),
    ((2, 2, 2, 2), 1, (1, 1, 1, 1)),
    ((2, 2, 2, 2), 2, (2, 0, 1, 3)),
]


@pytest.mark.parametrize("grid,m,widths", DET_SHAPES)
def test_dense_determinant_across_shapes(grid, m, widths):
    rng = np.random.default_rng(len(grid) * 10 + m)
    op = random_operator(GridSpec(grid), m, rng, widths=dict(enumerate(widths, start=1)))
    assert op.spec.num_nodes * m <= DEFAULT_CAP
    assert sorted(op.terms) == [j for j, w in enumerate(widths, start=1) if w]
    log_err, phase_err = _log_det_mismatch(op)
    assert log_err < 1e-12
    assert phase_err < 1e-12


def test_demo_dense_spectrum():
    eigs = dense_spectrum(demo_operator(8))
    targets = np.array([0.0, -1.0, -2.0])
    dist = np.min(np.abs(eigs[:, None] - targets[None, :]), axis=1)
    assert float(dist.max()) < 1e-9


def test_multiplication_operator_spectrum_is_samples():
    spec = GridSpec((4, 4))
    diag = sample([[parse("k1"), parse("0")], [parse("0"), parse("2+k2")]], spec)
    op = DefectOperator(diag)
    eigs = np.sort_complex(dense_spectrum(op))
    samples = np.sort_complex(
        np.concatenate([diag.data[..., 0, 0].ravel(), diag.data[..., 1, 1].ravel()])
    )
    assert np.max(np.abs(eigs - samples)) < 1e-12


def test_dense_degree_zero_set_equivalence():
    # dense det vanishes exactly when the scan reports degree <= N
    op = demo_operator(6)
    lams = [0.0, -1.0, -2.0, 5.0, 0.5]
    scan = spectrum_scan(op, lams)
    for lam, deg in zip(lams, scan.degrees):
        dense = assemble(pencil(lam, op)).matrix
        near_zero = abs(np.linalg.det(dense)) < 1e-8
        assert near_zero == (deg <= 2)


@pytest.mark.parametrize("grid,m,widths", SHAPES, ids=SHAPE_IDS)
def test_power_traces_match_dense_trace(grid, m, widths):
    # summed over components and nodes, tau(A^n) is Tr D^n of the dense matrix
    op = random_operator(GridSpec(grid), m, np.random.default_rng(sum(grid) * 10 + m), widths)
    dense = assemble(op).matrix
    power = np.eye(dense.shape[0])
    for tau in power_traces(op, 40):
        power = power @ dense
        want = np.trace(power)
        got = sum(f.data.sum() for f in tau.fields)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def _dense_trace_norm(op) -> float:
    """Sum over levels of the largest nuclear norm of a diagonal block of the
    level's own dense matrix.  With coordinate 1 fastest in the node order,
    the fibres of level j are the contiguous blocks of P*M rows,
    P = n_1*...*n_j (P = 1 for A0)."""
    spec, m = op.spec, op.m
    zero = MatrixField.zeros(spec, m, m)
    levels = [(0, DefectOperator(op.a0))]
    levels += [(j, DefectOperator(zero, {j: t})) for j, t in op.terms.items()]
    total = 0.0
    for j, level in levels:
        dense = assemble(level).matrix
        size = math.prod(spec.points_per_dim[:j]) * m
        starts = range(0, dense.shape[0], size)
        total += max(np.linalg.svd(dense[s : s + size, s : s + size], compute_uv=False).sum() for s in starts)
    return total


def test_trace_norm_matches_dense_nuclear_norm():
    for grid, m, widths in SHAPES:
        spec = GridSpec(grid)
        op = random_operator(spec, m, np.random.default_rng(sum(grid) * 10 + m), widths)
        cancelled = add(add(op, scale(-1.0, op)), identity_operator(spec, m))
        for case in (op, compose(op, op), add(op, op), cancelled):
            want = _dense_trace_norm(case)
            assert abs(trace_norm(case) - want) <= 1e-13 * want, grid


def test_dense_inverse_check_identity():
    assert dense_inverse_check(identity_operator(GridSpec((3, 3)), 2)) < 1e-14


def test_dense_inverse_check_demo():
    assert dense_inverse_check(pencil(1.0, demo_operator(6))) < 1e-10


def test_dense_inverse_check_random():
    rng = np.random.default_rng(4)
    op = random_operator(GridSpec((5, 5)), 2, rng)
    assert dense_inverse_check(op) < 1e-9


def test_cap_enforced():
    op = identity_operator(GridSpec((65, 64)), 1)  # 4160 unknowns
    assert op.spec.num_nodes > DEFAULT_CAP
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            assemble(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before the 277 MB dense matrix exists
    with pytest.raises(ValueError, match="cap"):
        dense_spectrum(op)
