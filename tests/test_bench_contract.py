"""What the benchmark in ``bench/`` reads from ``doa``.

``bench/test_checks.py`` is not part of this suite, so these tests build
one workload's expected values through the library and check the lookup
names its tracer patches: a change that breaks either fails here too.
"""

from pathlib import Path

import numpy as np

import doa.cli
import doa.document
import doa.elimination
import doa.expr
import doa.grid

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_powers_workload_builds_its_expected_values(tmp_path, monkeypatch):
    # uses eliminate, pencil, trace_norm and pi.fields[j].data[..., 0, 0]
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS

    expected = WORKLOADS["powers"](1, tmp_path).expected
    assert len(expected["tau1"]) == len(expected["log_pi"]) == 3
    assert all(np.isfinite(v).all() for v in expected["log_pi"])


def test_tracer_lookup_names():
    assert doa.grid._expr is doa.expr
    assert doa.document._expr is doa.expr
    assert doa.cli.eliminate is doa.elimination.eliminate
