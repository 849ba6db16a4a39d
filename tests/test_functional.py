"""Trace, trace norm, series, spectrum-scan and isospectrality tests."""

import math

import numpy as np
import pytest

from doa import (
    DefectOperator,
    GridSpec,
    MatrixField,
    NonFiniteError,
    StateVector,
    add,
    apply,
    Invertible,
    compose,
    determinant,
    eliminate,
    exp_operator,
    identity_operator,
    inverse,
    log_det_series,
    pencil,
    power_traces,
    scale,
    spectrum_scan,
    state_norm,
    Term,
    trace,
    trace_norm,
    zero_operator,
)
from doa.functional import VectorTrace
from doa.reference import (
    MODULATED_PROFILE,
    demo_operator,
    demo_power_trace,
    demo_trace,
    demo_trace_norm,
    profile_mean_square,
)
from helpers import grid66, random_operator, random_state


def test_trace_identity():
    tau = trace(identity_operator(grid66(), 3))
    assert np.allclose(tau.values(0), 3.0)
    assert np.allclose(tau.values(1), 0.0)
    assert tau.last() == 0.0


def test_demo_trace_closed_form():
    lam = 1.0
    tau = trace(pencil(lam, demo_operator(8)))
    got = np.array(tau.constant_values())
    assert np.max(np.abs(got - np.array(demo_trace(lam)))) < 1e-13


def test_trace_linearity_exact():
    rng = np.random.default_rng(0)
    spec = grid66()
    for _ in range(10):
        a = random_operator(spec, 2, rng)
        b = random_operator(spec, 2, rng)
        al, be = 0.8 - 0.1j, -1.2 + 0.7j
        lhs = trace(add(scale(al, a), scale(be, b)))
        rhs = trace(a).scale(al).add(trace(b).scale(be))
        assert lhs.max_abs_diff(rhs) < 1e-12


def test_trace_cyclicity():
    rng = np.random.default_rng(1)
    spec = grid66()
    for _ in range(10):
        a = random_operator(spec, 2, rng)
        b = random_operator(spec, 2, rng)
        assert trace(compose(a, b)).max_abs_diff(trace(compose(b, a))) < 1e-12


def test_trace_is_determinant_derivative_at_identity():
    rng = np.random.default_rng(2)
    spec = grid66()
    t = 1e-6
    for _ in range(3):
        a = random_operator(spec, 2, rng)
        bumped = add(identity_operator(spec, 2), scale(t, a))
        diff = determinant(bumped).add(determinant(identity_operator(spec, 2)).scale(-1.0))
        assert diff.scale(1.0 / t).max_abs_diff(trace(a)) < 1e-5


def test_demo_power_traces():
    taus = power_traces(demo_operator(8), 6)
    for n, tau in enumerate(taus, start=1):
        got = np.array(tau.constant_values(tol=1e-6))
        want = np.array(demo_power_trace(n))
        assert np.max(np.abs(got - want)) < 1e-9


def test_power_traces_identity():
    taus = power_traces(identity_operator(grid66(), 2), 4)
    for tau in taus:
        assert np.allclose(tau.values(0), 2.0)
        assert np.allclose(tau.values(1), 0.0)
        assert tau.last() == 0.0


def test_trace_norm_identity():
    assert abs(trace_norm(identity_operator(grid66(), 3)) - 3.0) < 1e-14


def test_demo_trace_norm_closed_form():
    lam = 1.0
    got = trace_norm(pencil(lam, demo_operator(8)))
    assert abs(got - demo_trace_norm(lam)) < 1e-12
    assert abs(got - 4.0) < 1e-12


def test_trace_norm_dominates_operator_norm():
    rng = np.random.default_rng(3)
    spec = grid66()
    op = random_operator(spec, 2, rng)
    tn = trace_norm(op)
    for _ in range(100):
        u = random_state(spec, 2, rng)
        assert state_norm(apply(op, u)) <= tn * state_norm(u) + 1e-12


def test_trace_norm_submultiplicative():
    rng = np.random.default_rng(4)
    spec = grid66()
    for _ in range(10):
        a = random_operator(spec, 2, rng)
        b = random_operator(spec, 2, rng)
        assert trace_norm(compose(a, b)) <= trace_norm(a) * trace_norm(b) + 1e-9


def test_log_det_series_zero_operator():
    spec = grid66()
    out = log_det_series(zero_operator(spec, 2), 2.0, 5)
    want = 2 * math.log(2.0)
    assert np.max(np.abs(out.lhs.values(0) - want)) < 1e-14
    assert np.max(np.abs(out.rhs.values(0) - want)) < 1e-14
    for j in (1, 2):
        assert np.max(np.abs(out.lhs.values(j))) < 1e-14
        assert np.max(np.abs(out.rhs.values(j))) < 1e-14


def test_demo_log_det_series_closed_form():
    op = demo_operator(8)
    out = log_det_series(op, 10.0, 40)
    want = (math.log(10.0), math.log(1.21), math.log(12.0 / 11.0))
    got = np.array(out.lhs.constant_values())
    assert np.max(np.abs(got - np.array(want))) < 1e-12
    assert out.lhs.max_abs_diff(out.rhs) <= out.tail_bound + 1e-12


def test_log_det_series_inside_disc_rejected():
    op = demo_operator(8)
    with pytest.raises(ValueError, match="trace norm"):
        log_det_series(op, 1.0, 10)


def test_resolvent_trace_is_log_derivative():
    # d/dlam ln pi(lam I - op) ~ tau((lam I - op)^-1), central difference
    op = demo_operator(8)
    lam, h = 10.0, 1e-4

    def lhs_at(x):
        return log_det_series(op, x, 1).lhs

    upper = lhs_at(lam + h)
    lower = lhs_at(lam - h)
    derivative = upper.add(lower.scale(-1.0)).scale(1.0 / (2 * h))
    resolvent_tau = trace(inverse(pencil(lam, op)))
    assert derivative.max_abs_diff(resolvent_tau) < 1e-6


def test_demo_spectrum_degrees():
    scan = spectrum_scan(demo_operator(8), [0.0, -1.0, -2.0, 5.0], zero_tol=1e-10)
    assert scan.degrees == (0, 1, 2, 3)
    # raw minima recorded for passed steps, NaN afterwards
    assert math.isnan(scan.min_abs_pi[0][1])
    assert scan.min_abs_pi[3][0] > 1.0


def test_spectrum_outside_trace_norm_disc():
    rng = np.random.default_rng(5)
    op = random_operator(grid66(), 2, rng)
    radius = trace_norm(op) * 1.5
    lams = [radius * np.exp(2j * np.pi * k / 7) for k in range(7)]
    scan = spectrum_scan(op, lams)
    assert all(d == 3 for d in scan.degrees)


def test_spectrum_scan_callable_matches_per_point_eliminate():
    op = demo_operator(8)
    lams = [0.0, -1.0, -2.0, 5.0] + list(np.linspace(-3.0, 1.0, 21))
    scan = spectrum_scan(lambda lam: pencil(lam, op), lams)
    assert set(scan.degrees) == {0, 1, 2, 3}
    for lam, degree, mins in zip(lams, scan.degrees, scan.min_abs_pi):
        outcome = eliminate(pencil(lam, op))
        want = outcome.min_abs_by_step
        if isinstance(outcome, Invertible):
            assert degree == 3
        else:
            assert degree == outcome.step
            want = want + (math.nan,) * (2 - outcome.step)
        np.testing.assert_array_equal(mins, want)
    # an operator is scanned as lam*I - op: the same numbers
    plain = spectrum_scan(op, lams)
    assert plain.degrees == scan.degrees
    np.testing.assert_array_equal(plain.min_abs_pi, scan.min_abs_pi)


def test_modulated_profile_dispersion_curve():
    # with f = sqrt(2) sin(2 pi k1) (1 + cos(2 pi k2)/2) the step-1 zeros
    # lie exactly at lambda = -<f^2>_1(k2) for grid values of k2; values of
    # <f^2>_1 are recomputed here by direct summation
    n = 8
    spec = GridSpec((n, n))
    op = demo_operator(n, MODULATED_PROFILE)
    s = profile_mean_square(spec, MODULATED_PROFILE)
    want = np.array([(1 + math.cos(2 * math.pi * (t + 0.5) / n) / 2) ** 2 for t in range(n)])
    assert np.max(np.abs(s.real - want)) < 1e-13

    on_curve = [-float(v.real) for v in s]
    scan = spectrum_scan(op, on_curve, zero_tol=1e-10)
    assert all(d == 1 for d in scan.degrees)

    off_curve = spectrum_scan(op, [-2.5, 0.7, -0.1], zero_tol=1e-10)
    assert all(d == 3 for d in off_curve.degrees)
    # lambda = -2 still fails at step 2 (not on the step-1 curve for this grid)
    assert spectrum_scan(op, [-2.0], zero_tol=1e-10).degrees == (2,)


def _power_traces_gap(a, b, n_max: int) -> float:
    """Largest |tau(a^n) - tau(b^n)| over n = 1..n_max, components and nodes."""
    return max(x.max_abs_diff(y) for x, y in zip(power_traces(a, n_max), power_traces(b, n_max)))


def test_power_traces_self_and_perturbed():
    rng = np.random.default_rng(6)
    spec = grid66()
    op = random_operator(spec, 2, rng)
    assert _power_traces_gap(op, op, 4) <= 1e-12
    bumped = add(op, random_operator(spec, 2, rng, widths={1: 1}, a0_perturb=0.0))
    assert not _power_traces_gap(op, bumped, 1) <= 1e-6


def test_power_traces_conjugation_invariance():
    rng = np.random.default_rng(7)
    spec = grid66()
    op = random_operator(spec, 2, rng)
    g = random_operator(spec, 2, rng)
    conj = compose(g, compose(op, inverse(g)))
    assert _power_traces_gap(op, conj, 4) <= 1e-9


@pytest.mark.parametrize("level", [0, 1])
def test_trace_norm_nan_raises_non_finite(level):
    # a NaN in A0 or in a term is reported, not left to the SVD to reject
    spec = GridSpec((3,))
    op = random_operator(spec, 2, np.random.default_rng(9))
    if level == 0:
        a0 = op.a0.data.copy()
        a0[1, 0, 0] = np.nan
        op = DefectOperator(MatrixField(spec, a0), op.terms)
    else:
        b = op.terms[1].b.data.copy()
        b[1, 0, 0] = np.nan
        op = DefectOperator(op.a0, {1: Term(op.terms[1].a, MatrixField(spec, b))})
    with pytest.raises(NonFiniteError, match="the trace norm is not finite"):
        trace_norm(op)


def test_exponential_identity():
    rng = np.random.default_rng(8)
    spec = grid66()
    for _ in range(5):
        op = random_operator(spec, 2, rng)
        op = scale(0.8 / trace_norm(op), op)
        lhs = determinant(exp_operator(op))
        rhs = trace(op).map_values(np.exp)
        assert lhs.max_abs_diff(rhs) < 1e-8


def test_exp_of_zero_is_identity():
    spec = grid66()
    e = exp_operator(zero_operator(spec, 2))
    from doa import equal_as_map

    assert equal_as_map(e, identity_operator(spec, 2), 1e-13)


def test_trace_shapes():
    tau = trace(demo_operator(8))
    assert isinstance(tau, VectorTrace)
    assert tau.fields[0].spec.dims == 2
    assert tau.fields[1].spec.dims == 1
    assert tau.fields[2].spec.dims == 0
