"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run ``pytest -s`` to see them all;
a FAIL also fails the corresponding test).  Randomized criteria use fixed
seeds so the suite is reproducible.
"""

import math
import time

import numpy as np
import pytest

from doa import (
    StateVector,
    add,
    adjoint,
    apply,
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
    trace,
    trace_norm,
)
from doa.grid import GridSpec
from doa.oracle import assemble, dense_inverse_check, dense_spectrum
from doa.reference import (
    apply_demo_resolvent,
    demo_determinant,
    demo_operator,
    demo_power_trace,
    demo_trace,
    demo_trace_norm,
)
from helpers import grid66, random_operator, random_state


def _report(criterion: str, deviation: float, tol: float):
    passed = deviation <= tol
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} "
          f"(max deviation {deviation:.3e}, tol {tol:.1e})")
    assert passed, f"{criterion}: deviation {deviation:.3e} > tol {tol:.1e}"


def test_criterion_01_demo_determinant():
    op = demo_operator(8)
    start = time.perf_counter()
    dev = 0.0
    for lam in (3.0, 10.0, -0.5 + 2j):
        pi = determinant(pencil(lam, op))
        got = np.array(pi.constant_values())
        want = np.array(demo_determinant(lam))
        dev = max(dev, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    _report("1 determinant closed form", dev, 1e-10)
    assert elapsed < 1.0, f"three eliminations took {elapsed:.3f} s (limit 1 s)"


def test_criterion_02_demo_spectrum_degrees():
    scan = spectrum_scan(demo_operator(8), [0.0, -1.0, -2.0, 5.0], zero_tol=1e-10)
    dev = float(np.max(np.abs(np.array(scan.degrees) - np.array([0, 1, 2, 3]))))
    _report("2 spectrum degrees", dev, 0.0)


def test_criterion_03_demo_trace_and_trace_norm():
    lam = 1.0
    p = pencil(lam, demo_operator(8))
    tau = np.array(trace(p).constant_values())
    dev = float(np.max(np.abs(tau - np.array(demo_trace(lam)))))
    dev = max(dev, abs(trace_norm(p) - demo_trace_norm(lam)))
    _report("3 trace and trace norm", dev, 1e-10)


def test_criterion_04_demo_power_traces():
    taus = power_traces(demo_operator(8), 6)
    dev = 0.0
    for n, tau in enumerate(taus, start=1):
        got = np.array(tau.constant_values(tol=1e-6))
        want = np.array(demo_power_trace(n))
        dev = max(dev, float(np.max(np.abs(got - want))))
    _report("4 power traces n=1..6", dev, 1e-9)


def test_criterion_05_demo_resolvent():
    lam = 1.0
    op = demo_operator(8)
    inv = inverse(pencil(lam, op))
    rng = np.random.default_rng(505)
    dev = 0.0
    for _ in range(50):
        u = random_state(op.spec, 1, rng)
        got = apply(inv, u)
        want = apply_demo_resolvent(lam, u)
        diff = state_norm(StateVector(op.spec, got.values - want.values))
        dev = max(dev, diff / state_norm(u))
    _report("5a resolvent vs closed form (50 states)", dev, 1e-9)
    residual = dense_inverse_check(pencil(lam, demo_operator(6)))
    _report("5b dense inverse residual on (6,6)", residual, 1e-10)


def test_criterion_06_determinant_homomorphism_200_pairs():
    rng = np.random.default_rng(606)
    spec = grid66()
    start = time.perf_counter()
    dev = 0.0
    for _ in range(200):
        a = random_operator(spec, 2, rng)
        b = random_operator(spec, 2, rng)
        pab = determinant(compose(a, b))
        dev = max(dev, pab.max_abs_diff(determinant(a).multiply(determinant(b))))
    elapsed = time.perf_counter() - start
    _report("6 determinant homomorphism (200 pairs)", dev, 1e-10)
    assert elapsed < 60.0, f"200 pairs took {elapsed:.1f} s (limit 60 s)"


def test_criterion_07_trace_properties():
    rng = np.random.default_rng(707)
    spec = grid66()
    lin_dev = 0.0
    cyc_dev = 0.0
    for _ in range(200):
        a = random_operator(spec, 2, rng)
        b = random_operator(spec, 2, rng)
        al = complex(rng.standard_normal(), rng.standard_normal())
        be = complex(rng.standard_normal(), rng.standard_normal())
        lhs = trace(add(scale(al, a), scale(be, b)))
        rhs = trace(a).scale(al).add(trace(b).scale(be))
        lin_dev = max(lin_dev, lhs.max_abs_diff(rhs))
        cyc_dev = max(cyc_dev, trace(compose(a, b)).max_abs_diff(trace(compose(b, a))))
    _report("7a trace linearity (200 pairs)", lin_dev, 1e-12)
    _report("7b trace cyclicity (200 pairs)", cyc_dev, 1e-12)

    t = 1e-6
    der_dev = 0.0
    eye = identity_operator(spec, 2)
    pi_eye = determinant(eye)
    for _ in range(5):
        a = random_operator(spec, 2, rng)
        diff = determinant(add(eye, scale(t, a))).add(pi_eye.scale(-1.0))
        der_dev = max(der_dev, diff.scale(1.0 / t).max_abs_diff(trace(a)))
    _report("7c determinant derivative at identity", der_dev, 1e-5)


def test_criterion_08_log_det_series():
    rng = np.random.default_rng(808)
    spec = grid66()
    dev_beyond_bound = 0.0
    for _ in range(20):
        op = random_operator(spec, 2, rng)
        lam = 2.0 * trace_norm(op)
        out = log_det_series(op, lam, 60)
        overshoot = out.lhs.max_abs_diff(out.rhs) - out.tail_bound
        dev_beyond_bound = max(dev_beyond_bound, overshoot)
    _report("8 log-determinant series (20 operators)", dev_beyond_bound, 1e-9)


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(909)
    dev = 0.0
    for shape in ((5, 5), (4, 5), (3, 4)):
        spec = GridSpec(shape)
        a = random_operator(spec, 2, rng)
        b = random_operator(spec, 2, rng)
        da, db = assemble(a).matrix, assemble(b).matrix
        dev = max(dev, float(np.max(np.abs(assemble(add(a, b)).matrix - (da + db)))))
        dev = max(dev, float(np.max(np.abs(assemble(compose(a, b)).matrix - da @ db))))
        dev = max(dev, float(np.max(np.abs(assemble(adjoint(a)).matrix - da.conj().T))))
    _report("9a dense algebra homomorphism", dev, 1e-12)

    eigs = dense_spectrum(demo_operator(8))
    targets = np.array([0.0, -1.0, -2.0])
    dist = float(np.max(np.min(np.abs(eigs[:, None] - targets[None, :]), axis=1)))
    _report("9b dense spectrum of the demo operator", dist, 1e-9)


def test_criterion_10_exponential_identity():
    rng = np.random.default_rng(1010)
    spec = grid66()
    dev = 0.0
    for _ in range(20):
        op = random_operator(spec, 2, rng)
        tn = trace_norm(op)
        op = scale(0.9 / tn, op)  # trace norm <= 1
        assert trace_norm(op) <= 1.0 + 1e-12
        lhs = determinant(exp_operator(op))
        rhs = trace(op).map_values(np.exp)
        dev = max(dev, lhs.max_abs_diff(rhs))
    _report("10 exponential identity (20 operators)", dev, 1e-8)
