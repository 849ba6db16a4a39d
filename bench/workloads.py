"""The benchmark's workloads: seeded documents, job command lines, output checks.

Each workload writes one operator document generated from the seed, names
the ``doa`` command line of one job, and checks a job's output file against
a closed form or an oracle.  The checks rebuild what they need with numpy
from the generated coefficients (not through the document, expression and
sampling layers they are checking) and may use ``doa.reference``,
``doa.oracle`` and the elimination of an independently built operator.
Checks read files only and run outside the timed region.  ``on_pool`` says
whether a job's work runs on the spectrum pool's threads or on the calling
thread; run.py calibrates the host's speed accordingly.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np

ZERO_TOL = 1e-10  # the CLI's default --zero-tol, used by every job
_ABS_FLOOR = 1e-300  # the elimination's absolute floor in its zero test
CHECK_RTOL = 1e-9


class CheckFailed(Exception):
    """A job's output disagrees with the closed form or oracle."""


def _num(x: float) -> str:
    return repr(float(x))


def _midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def _close(got, want, what: str, tol: float = CHECK_RTOL):
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != expected {want.shape}")
    dev = np.abs(got - want)
    limit = tol * np.maximum(1.0, np.abs(want))
    bad = ~(dev <= limit)  # NaN fails too
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise CheckFailed(
            f"{what}: deviation {float(dev[idx]):.3e} at {idx} "
            f"(got {complex(got[idx])}, want {complex(want[idx])})"
        )


def _read_components(payload_components) -> list[np.ndarray]:
    """Per-node component arrays from the CLI's JSON (coordinate 1 fastest)."""
    out = []
    for comp in payload_components:
        grid = tuple(comp["grid"])
        vals = np.array(comp["values"], dtype=float)
        if vals.ndim != 2 or vals.shape[1] != 2:
            raise CheckFailed("component values must be [re, im] pairs")
        z = vals[:, 0] + 1j * vals[:, 1]
        if z.size != math.prod(grid):
            raise CheckFailed(f"component {comp['component']}: {z.size} values for grid {grid}")
        out.append(z.reshape(tuple(reversed(grid))).transpose())
    return out


def _write_doc(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


# --- spectrum sweeps -----------------------------------------------------------


class _Sweep:
    """``doa spectrum`` over re(lambda) in [-3, 1] on the two-level averaging
    operator with a seeded profile f = a sqrt(2) sin(2 pi k1) (1 + b cos(2 pi k2)).

    The sweep grid hits lambda = 0, -1, -2 exactly (degrees 0, 1, 2); the
    closed forms pi = (lam, (lam+1)(lam+s)/lam^2, (lam+2)/(lam+1)) with
    s(k2) = <f^2>_1 give every row's degree and per-step minima.
    """

    grid: tuple[int, int]
    samples: int
    lambda_document: bool
    on_pool = True  # the job's work runs on the spectrum pool's threads

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.a = round(float(rng.uniform(0.8, 1.25)), 6)
        self.b = round(float(rng.uniform(0.2, 0.5)), 6)
        f = f"{_num(self.a)}*sqrt(2)*sin(2*pi*k1)*(1+{_num(self.b)}*cos(2*pi*k2))"
        if self.lambda_document:  # the document is lam*I - A itself
            a0, a1, a2 = "lambda", [["1", f]], [["1"]]
        else:
            a0, a1, a2 = "0", [["-1", f"-({f})"]], [["-1"]]
        self.doc_path = workdir / "document.json"
        _write_doc(
            self.doc_path,
            {
                "n_dims": 2,
                "m": 1,
                "grid": list(self.grid),
                "a0": [[a0]],
                "terms": [
                    {"level": 1, "a": a1, "b": [["1"], [f]]},
                    {"level": 2, "a": a2, "b": [["1"]]},
                ],
            },
        )

    def argv(self, out_file: Path) -> list[str]:
        return [
            "spectrum", str(self.doc_path),
            "--re-min", "-3", "--re-max", "1", "--samples", str(self.samples),
            "--out-file", str(out_file),
        ]  # fmt: skip

    @functools.cached_property
    def expected(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lambdas, degrees, minima) from the closed forms."""
        n1, n2 = self.grid
        k1, k2 = _midpoints(n1)[:, None], _midpoints(n2)[None, :]
        f = self.a * math.sqrt(2) * np.sin(2 * math.pi * k1) * (1 + self.b * np.cos(2 * math.pi * k2))
        s = (f * f).mean(axis=0)
        lams = np.linspace(-3.0, 1.0, self.samples)
        degrees = np.empty(lams.size, dtype=int)
        minima = np.full((lams.size, 3), np.nan)
        for i, lam in enumerate(lams):
            with np.errstate(divide="ignore", invalid="ignore"):  # steps after a zero are not used
                pis = [np.array([lam]), (lam + 1) * (lam + s) / lam**2, np.array([(lam + 2) / (lam + 1)])]
            degrees[i] = 3
            for j, p in enumerate(np.abs(p) for p in pis):
                # the elimination's zero test: step 0 is relative, later steps are anchored at 1
                minima[i, j] = float(p.min())
                scale = float(p.max()) if j == 0 else max(1.0, float(p.max()))
                if minima[i, j] <= max(ZERO_TOL * scale, _ABS_FLOOR):
                    degrees[i] = j
                    break
        return lams, degrees, minima

    def check(self, out_file: Path):
        with open(out_file, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = ["re_lambda", "im_lambda", "degree", "min_abs_pi_0", "min_abs_pi_1", "min_abs_pi_2"]
        if rows[0] != header:
            raise CheckFailed(f"unexpected CSV header {rows[0]}")
        body = rows[1:]
        lams, degrees, minima = self.expected
        if len(body) != lams.size:
            raise CheckFailed(f"{len(body)} rows, expected {lams.size}")
        for i, row in enumerate(body):
            lam = complex(float(row[0]), float(row[1]))
            if lam != lams[i]:
                raise CheckFailed(f"row {i}: lambda {lam} != {lams[i]}")
            if int(row[2]) != degrees[i]:
                raise CheckFailed(f"row {i} (lambda={lam.real}): degree {row[2]} != {degrees[i]}")
            got = np.array([float(v) for v in row[3:]])
            if not np.array_equal(np.isnan(got), np.isnan(minima[i])):
                raise CheckFailed(f"row {i}: NaN pattern {row[3:]} != {minima[i]}")
            live = ~np.isnan(got)
            _close(got[live], minima[i][live], f"row {i} (lambda={lam.real}) min |pi_j|")


class SweepOperator(_Sweep):
    """Sampled once, then eliminated at each of 401 points on the spectrum pool."""

    grid = (64, 64)
    samples = 401
    lambda_document = False


class SweepPencil(_Sweep):
    """A lambda-document: the CLI re-samples it at each of 41 points."""

    grid = (24, 24)
    samples = 41
    lambda_document = True


# --- power traces --------------------------------------------------------------


class Powers:
    """``doa power-traces --n-max 60`` on a seeded N = 2, M = 2 operator,
    width 2 at each level, with trig-polynomial entries on a 16^2 grid.

    The widths that ``compress`` keeps, and so the work of a job, depend on
    where singular values fall below its round-off floor.  To keep the work
    the same for every seed, the seed does not draw new coefficients: it
    applies an orthogonal change of basis V of the M-space (a similarity),
    an orthogonal change U_j of each level's inner space, and a cyclic shift
    of the grid to one fixed base operator.  None of these changes a
    singular value, but each changes every entry of the document.
    """

    grid = (16, 16)
    n_max = 60
    on_pool = False
    m = 2
    width = 2

    def __init__(self, seed: int, workdir: Path):
        m, w = self.m, self.width
        # entry = c0 + c1 cos(2 pi (k1 + d1)) + c2 sin(2 pi (k2 + d2)), coefficients [..., 0:3]
        base = np.random.default_rng(20240811)
        a0 = base.uniform(-0.4, 0.4, (m, m, 3)) + 0.5 * np.eye(m)[..., None] * [1, 0, 0]
        terms = {j: (base.uniform(-0.4, 0.4, (m, w, 3)), base.uniform(-0.4, 0.4, (w, m, 3))) for j in (1, 2)}

        rng = np.random.default_rng(seed)
        v = _rotation(rng)
        self.coef = {"a0": np.einsum("ik,klh,jl->ijh", v, a0, v)}
        for j, (a, b) in terms.items():
            u = _rotation(rng)
            self.coef[j] = (np.einsum("ik,klh,lj->ijh", v, a, u), np.einsum("ki,klh,jl->ijh", u, b, v))
        self.shift = tuple(int(rng.integers(n)) / n for n in self.grid)  # exact binary fractions

        self.doc_path = workdir / "document.json"
        _write_doc(
            self.doc_path,
            {
                "n_dims": 2,
                "m": m,
                "grid": list(self.grid),
                "a0": self._texts(self.coef["a0"]),
                "terms": [
                    {"level": j, "a": self._texts(self.coef[j][0]), "b": self._texts(self.coef[j][1])}
                    for j in (1, 2)
                ],
            },
        )

    def _texts(self, coef: np.ndarray) -> list[list[str]]:
        d1, d2 = (_num(d) for d in self.shift)

        def entry(c):
            return (
                f"{_num(c[0])} + ({_num(c[1])})*cos(2*pi*(k1+{d1})) + ({_num(c[2])})*sin(2*pi*(k2+{d2}))"
            )

        return [[entry(c) for c in row] for row in coef]

    def _field(self, coef: np.ndarray) -> np.ndarray:
        k1 = _midpoints(self.grid[0])[:, None, None, None] + self.shift[0]
        k2 = _midpoints(self.grid[1])[None, :, None, None] + self.shift[1]
        vals = coef[..., 0] + coef[..., 1] * np.cos(2 * math.pi * k1) + coef[..., 2] * np.sin(2 * math.pi * k2)
        return vals.astype(np.complex128)

    def argv(self, out_file: Path) -> list[str]:
        return [
            "power-traces", str(self.doc_path), "--n-max", str(self.n_max),
            "--out", "json", "--out-file", str(out_file),
        ]  # fmt: skip

    @functools.cached_property
    def expected(self) -> dict:
        from doa import DefectOperator, GridSpec, MatrixField, Term, eliminate, pencil, trace_norm

        spec = GridSpec(self.grid)
        a0 = self._field(self.coef["a0"])
        fields = {j: (self._field(self.coef[j][0]), self._field(self.coef[j][1])) for j in (1, 2)}
        op = DefectOperator(
            MatrixField(spec, a0),
            {j: Term(MatrixField(spec, a), MatrixField(spec, b)) for j, (a, b) in fields.items()},
        )
        # order 1 by direct summation: (Tr A0, <Tr B1 A1>_1, <Tr B2 A2>_2)
        tau1 = [np.trace(a0, axis1=-2, axis2=-1)]
        for j, (a, b) in fields.items():
            tau1.append(np.einsum("...ij,...ji->...", b, a).mean(axis=tuple(range(j))))
        # component 0 of tau(A^n) is Tr A0^n at every node (no compression touches A0)
        tau0 = []
        power = np.broadcast_to(np.eye(self.m), a0.shape).astype(np.complex128)
        for _ in range(self.n_max):
            power = power @ a0
            tau0.append(np.trace(power, axis1=-2, axis2=-1))
        # log-det series: ln pi(lam I - A) against the traces at lam = 2 trace_norm
        lam = complex(2.0 * trace_norm(op))
        outcome = eliminate(pencil(lam, op))
        log_pi = [
            self.m * np.log(lam) + np.log(p.data[..., 0, 0] / lam**self.m) if j == 0 else np.log(p.data[..., 0, 0])
            for j, p in enumerate(outcome.pi.fields)
        ]
        q = 0.5
        tail = q ** (self.n_max + 1) / (1 - q) * (self.m + 2 * self.width)
        return {"tau1": tau1, "tau0": tau0, "lam": lam, "log_pi": log_pi, "tail": tail}

    def check(self, out_file: Path):
        payload = json.loads(Path(out_file).read_text(encoding="utf-8"))
        orders = payload["orders"]
        if [o["n"] for o in orders] != list(range(1, self.n_max + 1)):
            raise CheckFailed("orders must be n = 1..n_max")
        taus = [_read_components(o["components"]) for o in orders]
        exp = self.expected
        for j, want in enumerate(exp["tau1"]):
            _close(taus[0][j], want, f"order 1 component {j} vs trace(op)")
        for n, tau in enumerate(taus, start=1):
            ref = max(1.0, float(np.max(np.abs(exp["tau0"][n - 1]))))
            _close(tau[0] / ref, exp["tau0"][n - 1] / ref, f"order {n} component 0 vs Tr A0^n")
        lam = exp["lam"]
        for j, log_pi in enumerate(exp["log_pi"]):
            series = (self.m * np.log(lam) if j == 0 else 0.0) - sum(
                tau[j] / (n * lam**n) for n, tau in enumerate(taus, start=1)
            )
            dev = float(np.max(np.abs(series - log_pi)))
            if not dev <= exp["tail"] + 1e-9:  # NaN fails too
                raise CheckFailed(f"log-det series component {j}: deviation {dev:.3e}")


def _rotation(rng) -> np.ndarray:
    """A seeded 2 x 2 orthogonal matrix (a rotation, possibly with a reflection)."""
    t = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(t), math.sin(t)
    flip = 1.0 if rng.integers(2) else -1.0
    return np.array([[c, -s], [flip * s, flip * c]])


# --- fine grid -----------------------------------------------------------------


class FineGrid:
    """``doa det --lambda <seeded>`` on an N = 3 averaging pencil at 24^3.

    pi = (lam, (lam+1)(lam+s)/lam^2, (lam+2)/(lam+1), (lam+3)/(lam+2)) with
    s(k2, k3) = <f^2>_1, checked at every node.
    """

    grid = (24, 24, 24)
    on_pool = False
    profile = "sqrt(2)*sin(2*pi*k1)*(1+cos(2*pi*k2)/2)*(1+sin(2*pi*k3)/3)"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.lam = complex(round(float(rng.uniform(0.5, 2.0)), 6), round(float(rng.uniform(0.25, 1.0)), 6))
        f = self.profile
        self.doc_path = workdir / "document.json"
        _write_doc(
            self.doc_path,
            {
                "n_dims": 3,
                "m": 1,
                "grid": list(self.grid),
                "a0": [["lambda"]],
                "terms": [
                    {"level": 1, "a": [["1", f]], "b": [["1"], [f]]},
                    {"level": 2, "a": [["1"]], "b": [["1"]]},
                    {"level": 3, "a": [["1"]], "b": [["1"]]},
                ],
            },
        )

    def argv(self, out_file: Path) -> list[str]:
        return [
            "det", str(self.doc_path), "--lambda", f"{_num(self.lam.real)},{_num(self.lam.imag)}",
            "--out", "json", "--out-file", str(out_file),
        ]  # fmt: skip

    @functools.cached_property
    def expected(self) -> list[np.ndarray]:
        n1, n2, n3 = self.grid
        k1 = _midpoints(n1)[:, None, None]
        k2 = _midpoints(n2)[None, :, None]
        k3 = _midpoints(n3)[None, None, :]
        tau = 2 * math.pi
        f = math.sqrt(2) * np.sin(tau * k1) * (1 + np.cos(tau * k2) / 2) * (1 + np.sin(tau * k3) / 3)
        s = (f * f).mean(axis=0)
        lam = self.lam
        return [
            np.full(self.grid, lam),
            (lam + 1) * (lam + s) / lam**2,
            np.full((n3,), (lam + 2) / (lam + 1)),
            np.array((lam + 3) / (lam + 2)),
        ]

    def check(self, out_file: Path):
        payload = json.loads(Path(out_file).read_text(encoding="utf-8"))
        if payload.get("quantity") != "pi":
            raise CheckFailed("expected the determinant tuple pi")
        got = _read_components(payload["components"])
        if len(got) != len(self.expected):
            raise CheckFailed(f"{len(got)} components, expected {len(self.expected)}")
        for j, (g, want) in enumerate(zip(got, self.expected)):
            _close(g, want, f"pi_{j}")


WORKLOADS = {
    "sweep-operator": SweepOperator,
    "sweep-pencil": SweepPencil,
    "powers": Powers,
    "fine-grid": FineGrid,
}
