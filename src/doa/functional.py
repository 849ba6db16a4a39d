"""Vector-valued trace, trace norm, log-determinant series and spectrum scans.

The trace of a canonical-form operator is the tuple

    tau(A) = (Tr A0, <Tr B_1 A_1>_1, ..., <Tr B_N A_N>_N),

component j living on the trailing N - j coordinates.  It is linear, cyclic
(tau(ab) = tau(ba)) and equals the derivative of the vector determinant at
the identity.  The trace norm sums, over levels, the largest nuclear norm
of the level's blocks: A0(k) over nodes k for level 0, and A_j[t] B_j[t] / P
over fibres t of P = n_1*...*n_j nodes for level j >= 1
(`operator.fibre_stacks`).  With thin QRs A_j[t] = Q_A R_A and
B_j[t]* = Q_B R_B the latter is the sum of the singular values of the small
core R_A R_B* / P.  It dominates the operator norm and is submultiplicative.

For |lam| > trace_norm(op) the component-wise principal logarithm of the
determinant of lam*I - op matches the power-trace series

    ln pi(lam I - op) = (ln lam) tau(I) - sum_n tau(op^n) / (n lam^n),

after the polynomial component 0 is normalized by lam^M to keep the value
in the right half plane (the remaining components stay near 1, so no
branch tracking is needed in this domain).

The spectrum-degree scan classifies sample points lam by the first
elimination step at which pi_j(lam I - op) dips below the zero threshold;
degree N + 1 marks the resolvent set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elimination import DEFAULT_ZERO_TOL, NonInvertible, NonInvertibleError, eliminate
from .grid import MatrixField, NonFiniteError, ScalarComponents, require_finite
from .operator import (
    DefectOperator,
    add,
    compose,
    compress,
    _dagger,
    fibre_stacks,
    identity_operator,
    pencil,
    scale,
)

__all__ = [
    "VectorTrace",
    "SpectrumScan",
    "LogDetSeries",
    "trace",
    "power_traces",
    "trace_norm",
    "log_det_series",
    "spectrum_scan",
    "exp_operator",
    "DEFAULT_COMPRESS_TOL",
]

DEFAULT_COMPRESS_TOL = 1e-13
_EXP_MAX_TERMS = 60  # series terms summed by exp_operator at most


class VectorTrace(ScalarComponents):
    """Trace tuple (tau_0, ..., tau_N) on shrinking grids."""


@np.errstate(all="ignore")  # a NaN/inf tau_j raises NonFiniteError instead
def trace(op: DefectOperator) -> VectorTrace:
    """tau(op); absent levels contribute zero components."""
    spec = op.spec
    values = [np.trace(op.a0.data, axis1=-2, axis2=-1)]
    for j in range(1, op.n + 1):
        t = op.terms.get(j)
        if t is None:
            values.append(np.zeros(spec.trailing(j).shape, dtype=np.complex128))
            continue
        prod_trace = np.einsum("...ij,...ji->...", t.b.data, t.a.data)
        values.append(prod_trace.mean(axis=tuple(range(j))))
    comps = []
    for j, v in enumerate(values):
        require_finite(f"tau_{j}", v)
        comps.append(MatrixField(spec.trailing(j), np.asarray(v)[..., None, None]))
    return VectorTrace(tuple(comps))


def _check_finite(what: str, *arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFiniteError(f"{what} is not finite")


@np.errstate(all="ignore")  # a NaN/inf power raises NonFiniteError instead
def power_traces(op: DefectOperator, n_max: int) -> list[VectorTrace]:
    """[tau(op), tau(op^2), ..., tau(op^n_max)] via repeated composition.

    Powers are compressed between steps (tol DEFAULT_COMPRESS_TOL = 1e-13,
    below all test tolerances) to stop inner widths from growing
    geometrically.  A power with a NaN/inf entry raises NonFiniteError
    naming it: A0 is checked here, the terms by `compress`.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    out = [trace(op)]
    power = op
    for n in range(2, n_max + 1):
        power = compose(power, op)
        _check_finite(f"A^{n}", power.a0.data)
        try:
            power = compress(power, DEFAULT_COMPRESS_TOL)
        except NonFiniteError:
            raise NonFiniteError(f"A^{n} is not finite") from None
        out.append(trace(power))
    return out


@np.errstate(all="ignore")  # a NaN/inf norm raises NonFiniteError instead
def trace_norm(op: DefectOperator) -> float:
    """Sum over levels of the largest nuclear norm of the level's blocks.

    Level 0 takes A0(k) over nodes k.  Level j >= 1 takes, over fibres t,
    the sum of the singular values of R_A R_B* / P, with R_A and R_B the
    triangular factors of A_j[t] and B_j[t]* (`fibre_stacks`); that sum is
    the nuclear norm of A_j[t] B_j[t] / P.  Raises NonFiniteError if the
    norm overflows.
    """
    _check_finite("the trace norm", op.a0.data)
    total = float(np.max(np.linalg.svd(op.a0.data, compute_uv=False).sum(axis=-1)))
    for j, t in op.terms.items():
        a, b = fibre_stacks(t, j)
        nodes = a.shape[1] // op.m  # P, the nodes of one fibre
        r_a = np.linalg.qr(a, mode="r")
        r_b = np.linalg.qr(_dagger(b), mode="r")
        core = (r_a / nodes) @ _dagger(r_b)
        _check_finite("the trace norm", core)
        total += float(np.max(np.linalg.svd(core, compute_uv=False).sum(axis=-1)))
    _check_finite("the trace norm", total)
    return total


@dataclass(frozen=True)
class LogDetSeries:
    """Both sides of the log-determinant series, plus the truncation bound."""

    lhs: VectorTrace
    rhs: VectorTrace
    tail_bound: float


def log_det_series(op: DefectOperator, lam: complex, n_max: int) -> LogDetSeries:
    """Compare ln pi(lam I - op) against the truncated power-trace series.

    Requires |lam| > trace_norm(op).  The reported tail bound is the
    geometric remainder (q^(n_max+1) / (1 - q)) * (M + sum of widths) with
    q = trace_norm / |lam|.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    tn = trace_norm(op)
    lam = complex(lam)
    if abs(lam) <= tn:
        raise ValueError(
            f"|lambda| = {abs(lam):.6g} must exceed the trace norm {tn:.6g}"
        )
    outcome = eliminate(pencil(lam, op))
    if isinstance(outcome, NonInvertible):  # cannot happen in the valid domain
        raise NonInvertibleError(outcome)

    m = op.m
    log_lam = np.log(lam)
    lhs_fields = []
    for j, f in enumerate(outcome.pi.fields):
        if j == 0:
            data = m * log_lam + np.log(f.data / lam**m)
        else:
            data = np.log(f.data)
        lhs_fields.append(MatrixField(f.spec, data))
    lhs = VectorTrace(tuple(lhs_fields))

    taus = power_traces(op, n_max)
    rhs_fields = []
    spec = op.spec
    for j in range(op.n + 1):
        trailing = spec.trailing(j)
        base = m * log_lam if j == 0 else 0.0
        acc = np.full(trailing.shape + (1, 1), base, dtype=np.complex128)
        for n, tau_n in enumerate(taus, start=1):
            acc = acc - tau_n.fields[j].data / (n * lam**n)
        rhs_fields.append(MatrixField(trailing, acc))
    rhs = VectorTrace(tuple(rhs_fields))

    q = tn / abs(lam)
    m_total = m + sum(t.width for t in op.terms.values())
    tail = q ** (n_max + 1) / (1.0 - q) * m_total
    return LogDetSeries(lhs, rhs, tail)


@dataclass(frozen=True)
class SpectrumScan:
    """Degrees and per-step |pi| minima for a list of sample points.

    ``degrees[i]`` is the first failing elimination step of lam_i*I - op,
    or N + 1 when every step passed.  ``min_abs_pi[i][j]`` is the minimum
    |pi_j| over its grid, NaN for steps after a failure.
    """

    lambdas: tuple[complex, ...]
    degrees: tuple[int, ...]
    min_abs_pi: tuple[tuple[float, ...], ...]


def spectrum_scan(
    op: DefectOperator | Callable[[complex], DefectOperator],
    lambdas,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> SpectrumScan:
    """Degree D(lam) of each sample: the first step where pi vanishes.

    `op` is an operator, scanned as lam*I - op, or a callable
    lam -> operator (a lambda-dependent family), scanned as is.
    """
    at = op if callable(op) else lambda lam: pencil(lam, op)
    lambdas = tuple(complex(v) for v in lambdas)
    degrees, mins = [], []
    for lam in lambdas:
        target = at(lam)
        outcome = eliminate(target, zero_tol)
        found = outcome.min_abs_by_step
        degrees.append(outcome.step if isinstance(outcome, NonInvertible) else target.n + 1)
        mins.append(found + (math.nan,) * (target.n + 1 - len(found)))
    return SpectrumScan(lambdas, tuple(degrees), tuple(mins))


def exp_operator(op: DefectOperator) -> DefectOperator:
    """exp(op) by scaling and squaring over the operator product.

    The argument is scaled so its trace norm is at most 1/2, the series is
    summed (at most _EXP_MAX_TERMS terms) until the next term's trace norm
    is negligible, and the result is squared back up with compression
    (tol DEFAULT_COMPRESS_TOL) after every product.
    """
    tn = trace_norm(op)
    squarings = 0 if tn <= 0.5 else int(math.ceil(math.log2(tn / 0.5)))
    x = scale(2.0**-squarings, op) if squarings else op

    acc = add(identity_operator(op.spec, op.m), x)
    term = x
    for k in range(2, _EXP_MAX_TERMS + 1):
        term = compress(scale(1.0 / k, compose(term, x)), DEFAULT_COMPRESS_TOL)
        acc = compress(add(acc, term), DEFAULT_COMPRESS_TOL)
        if trace_norm(term) < 1e-17 * max(1.0, trace_norm(acc)):
            break
    for _ in range(squarings):
        acc = compress(compose(acc, acc), DEFAULT_COMPRESS_TOL)
    return acc
