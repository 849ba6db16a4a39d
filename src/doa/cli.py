"""Command-line surface.

Subcommands (see docs/operator_document.md for the document format and
the output files):

    det           vector determinant or the non-invertibility witness
    trace         vector trace
    trace-norm    trace norm
    power-traces  tau(A^n) for n = 1..n_max
    spectrum      CSV sweep of spectrum degrees D(lambda)
    example3      run the built-in closed-form example end to end

Exit codes: 0 success / invertible, 2 non-invertible (det), 1 usage or
format error.  Documents may use the free symbol ``lambda``; it is evaluated
with the ``--lambda re[,im]`` value.  ``spectrum`` evaluates such documents
at each sweep point, and sweeps lam*I - A for documents without it.
"""

from __future__ import annotations

import argparse
import cmath
import sys
import time

import numpy as np

from .document import (
    DocumentFormatError,
    build_operator,
    dumps17,
    load_document,
    uses_lambda,
)
from .elimination import NonFiniteError, NonInvertible, eliminate, inverse
from .functional import power_traces, spectrum_scan, trace, trace_norm
from .grid import ScalarComponents
from .operator import StateVector, apply, pencil, state_norm
from . import reference

__all__ = ["main", "console_entry"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise _UsageError(message)


def _parse_lambda(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            lam = complex(*map(float, parts))
            if cmath.isfinite(lam):
                return lam
    except ValueError:
        pass
    raise _UsageError(f"--lambda expects finite 're' or 're,im', got {text!r}")


def _fmt_complex(z: complex, digits: int = 12) -> str:
    z = complex(z)
    re = f"{z.real:.{digits}g}"
    if z.imag == 0:
        return re
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{abs(z.imag):.{digits}g}i"


def _print_components(name: str, comps: ScalarComponents):
    def summary(j: int) -> str:
        value = comps.constant_value(j)
        if value is not None:
            return _fmt_complex(value)
        return f"min|.|={comps.min_abs(j):.6g}..max|.|={comps.max_abs(j):.6g}"

    entries = ", ".join(summary(j) for j in range(len(comps.fields)))
    print(f"{name} = [{entries}]")


def _write_components(path: str, fmt: str, quantity: str, entries):
    """Write the per-node values of each (labels, components) entry.

    A single unlabelled entry is written as {"quantity", "components"};
    labelled entries as {"quantity", "orders": [{**labels, "components"}]}.
    CSV rows carry the label values first, then component, k1..kN, re, im.
    """
    if fmt == "json":
        blocks = [
            {
                **labels,
                "components": [
                    {
                        "component": j,
                        "grid": list(f.spec.shape),
                        "node_order": "coordinate 1 fastest",
                        "values": comps.values(j).ravel(order="F").tolist(),
                    }
                    for j, f in enumerate(comps.fields)
                ],
            }
            for labels, comps in entries
        ]
        body = blocks[0] if not entries[0][0] else {"orders": blocks}
        text = dumps17({"quantity": quantity, **body}, indent=2) + "\n"
    else:
        first_labels, first = entries[0]
        coords = [f"k{i + 1}" for i in range(first.order)]
        lines = [",".join([*first_labels, "component", *coords, "re", "im"])]
        for labels, comps in entries:
            prefix = [str(v) for v in labels.values()]
            for j, f in enumerate(comps.fields):
                vals = comps.values(j)
                for multi in np.ndindex(*f.spec.shape):
                    coords = [format(c, ".17g") for c in f.spec.node_coords(multi)]
                    v = complex(vals[multi])
                    lines.append(
                        ",".join(
                            prefix
                            + [str(j)]
                            + [""] * j
                            + coords
                            + [format(v.real, ".17g"), format(v.imag, ".17g")]
                        )
                    )
        text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _operator_from_args(ns) -> "tuple":
    doc = load_document(ns.file)
    lam = _parse_lambda(ns.lam) if ns.lam is not None else None
    return doc, build_operator(doc, lam)


def _cmd_det(ns) -> int:
    _, op = _operator_from_args(ns)
    outcome = eliminate(op, ns.zero_tol)
    if isinstance(outcome, NonInvertible):
        coords = op.spec.trailing(outcome.step).node_coords(outcome.witness_node)
        pretty = ", ".join(format(c, ".6g") for c in coords)
        print(
            f"non-invertible at step {outcome.step}: min |pi_{outcome.step}| = "
            f"{outcome.min_abs_pi:.6g} at node {outcome.witness_node} (k = [{pretty}])"
        )
        return 2
    _print_components("pi", outcome.pi)
    if ns.out_file:
        _write_components(ns.out_file, ns.out, "pi", [({}, outcome.pi)])
    return 0


def _cmd_trace(ns) -> int:
    _, op = _operator_from_args(ns)
    tau = trace(op)
    _print_components("tau", tau)
    if ns.out_file:
        _write_components(ns.out_file, ns.out, "tau", [({}, tau)])
    return 0


def _cmd_trace_norm(ns) -> int:
    _, op = _operator_from_args(ns)
    print(f"trace_norm = {trace_norm(op):.17g}")
    return 0


def _cmd_power_traces(ns) -> int:
    _, op = _operator_from_args(ns)
    taus = power_traces(op, ns.n_max)
    for n, tau in enumerate(taus, start=1):
        _print_components(f"n={n}: tau", tau)
    if ns.out_file:
        entries = [({"n": n}, tau) for n, tau in enumerate(taus, start=1)]
        _write_components(ns.out_file, ns.out, "power_traces", entries)
    return 0


def _parse_samples(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return int(parts[0]), 1
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise _UsageError(f"--samples expects 'N' or 'NRE,NIM', got {text!r}")


def _sweep_points(ns) -> list[complex]:
    n_re, n_im = _parse_samples(ns.samples)
    if n_re < 1 or n_im < 1:
        raise _UsageError("--samples counts must be >= 1")
    res = np.linspace(ns.re_min, ns.re_max, n_re)
    ims = np.linspace(ns.im_min, ns.im_max, n_im)
    return [complex(re, im) for im in ims for re in res]


def _cmd_spectrum(ns) -> int:
    doc = load_document(ns.file)
    points = _sweep_points(ns)
    n_levels = doc.n_dims
    if uses_lambda(doc):  # the document itself is the lambda-dependent operator
        scan = spectrum_scan(lambda lam: build_operator(doc, lam), points, ns.zero_tol)
    else:
        scan = spectrum_scan(build_operator(doc), points, ns.zero_tol)

    header = ["re_lambda", "im_lambda", "degree"] + [
        f"min_abs_pi_{j}" for j in range(n_levels + 1)
    ]
    lines = [",".join(header)]
    for lam, deg, row in zip(scan.lambdas, scan.degrees, scan.min_abs_pi):
        lines.append(
            ",".join(
                [format(lam.real, ".17g"), format(lam.imag, ".17g"), str(deg)]
                + [format(v, ".17g") for v in row]
            )
        )
    text = "\n".join(lines) + "\n"
    if ns.out_file:
        with open(ns.out_file, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {ns.out_file}")
    else:
        sys.stdout.write(text)
    return 0


def _check(name: str, deviation: float, tol: float, failures: list):
    status = "PASS" if deviation <= tol else "FAIL"
    if status == "FAIL":
        failures.append(name)
    print(f"{status} {name}: max deviation {deviation:.3e} (tol {tol:.1e})")


def _cmd_example3(ns) -> int:
    n = ns.grid
    if n < 4:
        raise _UsageError("--grid must be >= 4")
    failures: list[str] = []
    op = reference.demo_operator(n)
    spec = op.spec
    rng = np.random.default_rng(20240811)

    t0 = time.perf_counter()
    for lam in (3.0, 10.0, -0.5 + 2.0j):
        outcome = eliminate(pencil(lam, op))
        got = np.array(outcome.pi.constant_values(tol=1e-8))
        want = np.array(reference.demo_determinant(lam))
        _check(f"determinant at lambda={_fmt_complex(lam)}", float(np.max(np.abs(got - want))), 1e-10, failures)
    print(f"   (three eliminations took {time.perf_counter() - t0:.3f} s)")

    scan = spectrum_scan(op, [0.0, -1.0, -2.0, 5.0], zero_tol=1e-10)
    deg_dev = float(np.max(np.abs(np.array(scan.degrees) - np.array([0, 1, 2, 3]))))
    _check("spectrum degrees at {0,-1,-2,5}", deg_dev, 0.0, failures)

    lam = 1.0
    tau = trace(pencil(lam, op)).constant_values(tol=1e-8)
    want_tau = reference.demo_trace(lam)
    _check("trace at lambda=1", float(np.max(np.abs(np.array(tau) - np.array(want_tau)))), 1e-10, failures)
    _check(
        "trace norm at lambda=1",
        abs(trace_norm(pencil(lam, op)) - reference.demo_trace_norm(lam)),
        1e-10,
        failures,
    )

    taus = power_traces(op, 6)
    dev = 0.0
    for n_pow, tau_n in enumerate(taus, start=1):
        want = np.array(reference.demo_power_trace(n_pow))
        got = np.array(tau_n.constant_values(tol=1e-7))
        dev = max(dev, float(np.max(np.abs(got - want))))
    _check("power traces n=1..6", dev, 1e-9, failures)

    inv = inverse(pencil(lam, op))
    dev = 0.0
    for _ in range(50):
        u = StateVector(spec, rng.standard_normal(spec.shape + (1,)) + 1j * rng.standard_normal(spec.shape + (1,)))
        got = apply(inv, u)
        want = reference.apply_demo_resolvent(lam, u)
        dev = max(dev, state_norm(StateVector(spec, got.values - want.values)) / state_norm(u))
    _check("resolvent at lambda=1 vs closed form", dev, 1e-9, failures)

    if spec.num_nodes * op.m <= 4096:
        from .oracle import dense_inverse_check

        _check(
            "dense inverse residual at lambda=1",
            dense_inverse_check(pencil(lam, op)),
            1e-10,
            failures,
        )

    if failures:
        print(f"{len(failures)} check(s) FAILED")
        return 1
    print("all checks passed")
    return 0


def _add_common(p: argparse.ArgumentParser, with_out: bool = True):
    p.add_argument("file", help="operator document (JSON)")
    p.add_argument("--lambda", dest="lam", default=None, help="value for the free symbol lambda: re[,im]")
    p.add_argument("--zero-tol", type=float, default=1e-10, help="relative zero threshold for elimination")
    if with_out:
        p.add_argument("--out", choices=("json", "csv"), default="json", help="format for --out-file")
        p.add_argument("--out-file", default=None, help="write full per-node components here")


def build_parser() -> _Parser:
    parser = _Parser(prog="doa", description="Discrete defect-operator algebra tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("det", help="vector determinant / invertibility")
    _add_common(p)
    p.set_defaults(fn=_cmd_det)

    p = sub.add_parser("trace", help="vector trace")
    _add_common(p)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("trace-norm", help="trace norm")
    _add_common(p, with_out=False)
    p.set_defaults(fn=_cmd_trace_norm)

    p = sub.add_parser("power-traces", help="tau(A^n) for n = 1..n_max")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=6)
    p.set_defaults(fn=_cmd_power_traces)

    p = sub.add_parser("spectrum", help="CSV sweep of spectrum degrees")
    p.add_argument("file")
    p.add_argument("--re-min", type=float, required=True)
    p.add_argument("--re-max", type=float, required=True)
    p.add_argument("--im-min", type=float, default=0.0)
    p.add_argument("--im-max", type=float, default=0.0)
    p.add_argument("--samples", default="101", help="NRE or NRE,NIM sample counts")
    p.add_argument("--zero-tol", type=float, default=1e-10)
    p.add_argument("--out-file", default=None)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("example3", help="run the built-in closed-form example")
    p.add_argument("--grid", type=int, default=8, help="points per coordinate (>= 4)")
    p.set_defaults(fn=_cmd_example3)

    return parser


def _merge_lambda_values(argv):
    # argparse would read "-0.5,2" as an option string; fold the value in
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--lambda" and i + 1 < len(argv):
            out.append(f"--lambda={argv[i + 1]}")
            i += 2
            continue
        out.append(arg)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = parser.parse_args(_merge_lambda_values(list(argv)))
        return ns.fn(ns)
    except (_UsageError, DocumentFormatError, NonFiniteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
