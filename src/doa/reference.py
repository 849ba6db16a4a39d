"""Built-in closed-form example on [0,1]^2: two averaging levels, M = 1.

The operator

    A u = -<u>_1 - f <f u>_1 - <u>_2

acts on scalar fields over an n1 x n2 midpoint grid; the profile f must
have zero mean along k1 (the default sqrt(2) sin(2 pi k1) also has unit
mean square on any midpoint grid with n1 >= 3, exactly).  Writing s(k2)
for <f^2>_1, the pencil lam*I - A has closed forms

    determinant:  (lam, (lam+1)(lam+s)/lam^2, (lam+2)/(lam+1))
    degrees:      0 at lam=0; 1 at lam=-1 and lam=-s; 2 at lam=-2; else 3
    trace:        (lam, 1+s, 1)
    trace norm:   |lam| + 2 + max_k2 s(k2)
    resolvent:    lam^-1 (I - <.>_2/(lam+2)) o (I - <.>_1/(lam+1)
                                               - f <f .>_1/(lam+s))
    power traces of A itself:  (-1)^n (0, 1+s^n, 2^n-1)   (constant s)

which makes the example a complete end-to-end check of the library.  The
scalar closed forms below (`demo_determinant`, `demo_trace`,
`demo_trace_norm`, `demo_power_trace`) are those of the default profile,
s = 1; a k2-dependent s(k2), such as MODULATED_PROFILE's, has no scalar
closed form.  The other helpers compute by direct summation on the
sampled profile, independent of the operator machinery.
"""

from __future__ import annotations

import numpy as np

from .expr import parse
from .grid import GridSpec, MatrixField, sample
from .operator import DefectOperator, StateVector, Term

__all__ = [
    "DEFAULT_PROFILE",
    "MODULATED_PROFILE",
    "demo_profile_values",
    "profile_mean_square",
    "demo_operator",
    "demo_determinant",
    "demo_trace",
    "demo_trace_norm",
    "demo_power_trace",
    "apply_demo_resolvent",
]

DEFAULT_PROFILE = "sqrt(2)*sin(2*pi*k1)"
# a k2-dependent variant; its mean square along k1 is (1 + cos(2 pi k2)/2)^2
MODULATED_PROFILE = "sqrt(2)*sin(2*pi*k1)*(1+cos(2*pi*k2)/2)"


def demo_profile_values(spec: GridSpec, profile: str = DEFAULT_PROFILE) -> np.ndarray:
    """The sampled profile as an (n1, n2) array."""
    return sample([[parse(profile)]], spec).data[..., 0, 0]


def profile_mean_square(spec: GridSpec, profile: str = DEFAULT_PROFILE) -> np.ndarray:
    """s(k2) = <f^2>_1 by direct summation; shape (n2,)."""
    f = demo_profile_values(spec, profile)
    return (f * f).mean(axis=0)


def demo_operator(n: int, profile: str = DEFAULT_PROFILE) -> DefectOperator:
    """The operator A itself (a0 = 0) on the n x n grid."""
    spec = GridSpec((n, n))
    f = demo_profile_values(spec, profile)
    ones = np.ones(spec.shape, dtype=np.complex128)
    a1 = np.stack([-ones, -f], axis=-1)[..., None, :]  # 1 x 2
    b1 = np.stack([ones, f], axis=-1)[..., :, None]  # 2 x 1
    a2 = -ones[..., None, None]
    b2 = ones[..., None, None]
    return DefectOperator(
        MatrixField.zeros(spec, 1, 1),
        {
            1: Term(MatrixField(spec, a1), MatrixField(spec, b1)),
            2: Term(MatrixField(spec, a2), MatrixField(spec, b2)),
        },
    )


def demo_determinant(lam: complex) -> tuple[complex, complex, complex]:
    """pi(lam*I - A) at s = 1."""
    lam = complex(lam)
    return (lam, (lam + 1) * (lam + 1) / lam**2, (lam + 2) / (lam + 1))


def demo_trace(lam: complex) -> tuple[complex, complex, complex]:
    """tau(lam*I - A) at s = 1."""
    return (complex(lam), 2.0 + 0j, 1.0 + 0j)


def demo_trace_norm(lam: complex) -> float:
    """The trace norm of lam*I - A at s = 1."""
    return abs(complex(lam)) + 2.0 + 1.0  # |lam| + 2 + max s


def demo_power_trace(n_power: int) -> tuple[complex, complex, complex]:
    """tau(A^n) at s = 1."""
    sign = (-1.0) ** n_power
    return (0.0 + 0j, sign * 2.0, sign * (2.0**n_power - 1))


def apply_demo_resolvent(
    lam: complex,
    u: StateVector,
    profile: str = DEFAULT_PROFILE,
) -> StateVector:
    """Apply the closed-form resolvent of lam*I - A to a state directly.

    Uses plain array averaging only, so it is independent of the operator
    machinery it is used to check.
    """
    lam = complex(lam)
    spec = u.spec
    f = demo_profile_values(spec, profile)[..., None]
    s = (f * f).mean(axis=0)  # (n2, 1): mean square along k1
    vals = u.values
    mean1 = vals.mean(axis=0)
    fmean1 = (f * vals).mean(axis=0)
    inner_factor = vals - mean1 / (lam + 1) - f * fmean1 / (lam + s)
    outer = inner_factor - inner_factor.mean(axis=(0, 1)) / (lam + 2)
    return StateVector(spec, outer / lam)
