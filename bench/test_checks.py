"""Tests of the benchmark's own machinery: the output checks catch small
errors, and the tracer leaves the package as it found it.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from doa import cli, elimination, expr  # noqa: E402
from tracer import Tracer, _covered, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def _run(name: str, tmp_path: Path):
    workload = WORKLOADS[name](7, tmp_path)
    out = tmp_path / "out"
    assert cli.main(workload.argv(out)) == 0
    workload.check(out)  # the untouched output passes
    return workload, out


def _edit_json(path: Path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


@pytest.fixture(scope="module")
def fine_grid(tmp_path_factory):
    return _run("fine-grid", tmp_path_factory.mktemp("fine"))


@pytest.fixture(scope="module")
def powers(tmp_path_factory):
    return _run("powers", tmp_path_factory.mktemp("powers"))


@pytest.mark.parametrize("component, node", [(0, 5), (1, 123), (2, 7), (3, 0)])
@pytest.mark.parametrize("change", ["off by 1e-6", "null"])
def test_fine_grid_catches_one_bad_pi_node(fine_grid, tmp_path, component, node, change):
    """A node off by 1e-6, or NaN (which the JSON writer prints as null)."""
    workload, out = fine_grid
    bad = tmp_path / "bad.json"
    bad.write_text(out.read_text())

    def edit(payload):
        value = payload["components"][component]["values"][node]
        value[1] = value[1] + 1e-6 if change == "off by 1e-6" else None

    _edit_json(bad, edit)
    with pytest.raises(CheckFailed, match=f"pi_{component}"):
        workload.check(bad)


def test_sweep_catches_one_minimum_off_by_1e_6_and_a_wrong_degree(tmp_path):
    workload, out = _run("sweep-operator", tmp_path)
    rows = list(csv.reader(out.open()))
    row = next(i for i, r in enumerate(rows[1:], start=1) if r[2] == "3")

    def check_with(edit):
        bad = [list(r) for r in rows]
        edit(bad[row])
        path = tmp_path / "bad.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(bad)
        with pytest.raises(CheckFailed):
            workload.check(path)

    check_with(lambda r: r.__setitem__(4, repr(float(r[4]) * (1 + 1e-6))))
    check_with(lambda r: r.__setitem__(2, "2"))


@pytest.mark.parametrize(
    "order, component, node",
    [
        (1, 1, 3),  # order 1 against trace(op)
        (2, 2, 0),  # the log-det series
        (30, 0, 17),  # Tr A0^n at every node
    ],
)
def test_powers_catches_a_trace_off_by_1e_6(powers, tmp_path, order, component, node):
    """One node moves by 1e-6 times the largest |value| of its component."""
    workload, out = powers
    bad = tmp_path / "bad.json"

    def edit(payload):
        values = payload["orders"][order - 1]["components"][component]["values"]
        values[node][0] += 1e-6 * max(1.0, max(abs(complex(*v)) for v in values))

    bad.write_text(out.read_text())
    _edit_json(bad, edit)
    with pytest.raises(CheckFailed):
        workload.check(bad)


def test_tracer_counts_pool_spans_and_restores_the_package(tmp_path):
    import run

    originals = (cli.eliminate, sys.modules["doa.grid"]._expr, expr.evaluate, np.linalg.svd)
    workload = WORKLOADS["sweep-operator"](7, tmp_path)
    job = run.run_job(workload.argv(tmp_path / "out"), tmp_path / "out", Tracer())
    assert job.error is None
    workload.check(job.out_file)
    assert (cli.eliminate, sys.modules["doa.grid"]._expr, expr.evaluate, np.linalg.svd) == originals
    assert cli.eliminate is elimination.eliminate

    assert job.layers["elimination.eliminate_calls"] == 401
    assert job.layers["elimination.det_calls"] > 0
    # every eliminate span has a parent, also the ones run on pool threads
    scan = [s for s in job.tracer.spans if s.name == "functional.spectrum_scan"]
    assert len(scan) == 1
    assert all(s.parent is scan[0] for s in job.tracer.spans if s.name == "elimination.eliminate")
    assert job.layers["elimination.eliminate_wall_share"] <= job.layers["functional.spectrum_scan_share"]


def test_covered_counts_overlaps_once():
    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert _covered([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_reported_metrics_match_the_benchmark_definition(fine_grid, tmp_path):
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workload, _ = fine_grid
    job = run.run_job(workload.argv(tmp_path / "out"), tmp_path / "out", Tracer())
    result = run.RunResult(2, 0, [0.3], [job.seconds], 1, 50.0, [job])
    assert [(k, unit) for k, (_, unit) in run.per_layer(result).items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]
    ]
    assert [(k, unit) for k, (_, unit) in run.end_to_end(result).items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]
    ]
