"""Command-line interface tests (driven through main(), no subprocesses)."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from doa.cli import main

DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"
PENCIL = str(DOCS / "averaging_pencil.json")
OPERATOR = str(DOCS / "averaging_operator.json")
IDENTITY = str(DOCS / "identity.json")


def test_det_summary_and_exit_zero(capsys):
    assert main(["det", PENCIL, "--lambda", "3"]) == 0
    out = capsys.readouterr().out
    assert "pi = [3, 1.77777777778, 1.25]" in out


def test_det_non_invertible_exit_two(capsys):
    assert main(["det", PENCIL, "--lambda", "0"]) == 2
    out = capsys.readouterr().out
    assert "step 0" in out


def test_det_identity(capsys):
    assert main(["det", IDENTITY]) == 0
    assert "pi = [1, 1, 1]" in capsys.readouterr().out


def test_det_requires_lambda(capsys):
    assert main(["det", PENCIL]) == 1
    assert "lambda" in capsys.readouterr().err


def test_det_complex_lambda(capsys):
    assert main(["det", PENCIL, "--lambda", "-0.5,2"]) == 0
    assert "pi = [" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "1,-inf", "-infinity,0"])
def test_det_rejects_non_finite_lambda(capsys, value):
    assert main(["det", PENCIL, "--lambda", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --lambda expects finite")


def test_det_json_report(tmp_path, capsys):
    out_file = tmp_path / "pi.json"
    assert main(["det", PENCIL, "--lambda", "3", "--out-file", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["quantity"] == "pi"
    comps = payload["components"]
    assert [c["grid"] for c in comps] == [[8, 8], [8], []]
    assert len(comps[0]["values"]) == 64
    re, im = comps[2]["values"][0]
    assert abs(complex(re, im) - 1.25) < 1e-12


def test_det_csv_report(tmp_path, capsys):
    out_file = tmp_path / "pi.csv"
    assert main(["det", PENCIL, "--lambda", "3", "--out", "csv", "--out-file", str(out_file)]) == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "component,k1,k2,re,im"
    assert len(lines) == 1 + 64 + 8 + 1


def test_trace_summary(capsys):
    assert main(["trace", PENCIL, "--lambda", "1"]) == 0
    assert "tau = [1, 2, 1]" in capsys.readouterr().out


def test_trace_norm_value(capsys):
    assert main(["trace-norm", PENCIL, "--lambda", "1"]) == 0
    assert "trace_norm = 4" in capsys.readouterr().out


def test_power_traces_rows(capsys):
    assert main(["power-traces", OPERATOR, "--n-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "n=1: tau = [0, -2, -1]" in out
    assert "n=2: tau = [0, 2, 3]" in out
    assert "n=3: tau = [0, -2, -7]" in out


def test_spectrum_csv_contract(tmp_path):
    out_file = tmp_path / "scan.csv"
    assert (
        main(
            [
                "spectrum",
                OPERATOR,
                "--re-min",
                "-3",
                "--re-max",
                "1",
                "--samples",
                "401",
                "--out-file",
                str(out_file),
            ]
        )
        == 0
    )
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "re_lambda,im_lambda,degree,min_abs_pi_0,min_abs_pi_1,min_abs_pi_2"
    assert len(lines) == 402
    rows = [line.split(",") for line in lines[1:]]
    degree = {float(r[0]): int(r[2]) for r in rows}
    assert degree[-2.0] == 2
    assert degree[-1.0] == 1
    assert degree[0.0] == 0
    assert degree[1.0] == 3


def test_spectrum_pencil_document_substitutes_sweep_points(tmp_path, capsys):
    # a document with a free lambda is eliminated directly per sample
    assert (
        main(
            [
                "spectrum",
                PENCIL,
                "--re-min",
                "-2",
                "--re-max",
                "0",
                "--samples",
                "3",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    degrees = [int(line.split(",")[2]) for line in lines[1:]]
    assert degrees == [2, 1, 0]


def test_spectrum_complex_window(capsys):
    # degree 1 appears only near the real point lambda = -1
    assert (
        main(
            [
                "spectrum",
                OPERATOR,
                "--re-min",
                "-1.05",
                "--re-max",
                "-0.95",
                "--im-min",
                "-0.1",
                "--im-max",
                "0.1",
                "--samples",
                "3,3",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9
    hits = [r for r in rows if int(r[2]) == 1]
    assert len(hits) == 1
    assert float(hits[0][0]) == -1.0 and float(hits[0][1]) == 0.0


def test_spectrum_outside_disc_all_resolvent(capsys):
    assert (
        main(
            ["spectrum", OPERATOR, "--re-min", "10", "--re-max", "12", "--samples", "5"]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(int(line.split(",")[2]) == 3 for line in lines[1:])


def test_example3_grids(capsys):
    for n in (4, 8, 16):
        assert main(["example3", "--grid", str(n)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "all checks passed" in out


USAGE_ERRORS = [
    ["det"],
    ["spectrum", OPERATOR, "--re-min", "0"],
    ["bogus-command"],
    ["det", PENCIL, "--lambda", "1", "--zero-tol", "nan"],
    ["det", PENCIL, "--lambda", "1", "--zero-tol", "0"],
    ["det", PENCIL, "--lambda", "1", "--zero-tol", "-1"],
    ["spectrum", OPERATOR, "--re-min", "-1", "--re-max", "-1", "--samples", "1", "--zero-tol", "nan"],
    ["spectrum", OPERATOR, "--re-min", "-1", "--re-max", "-1", "--samples", "1", "--zero-tol", "inf"],
    ["spectrum", PENCIL, "--re-min", "nan", "--re-max", "1"],
    ["spectrum", PENCIL, "--re-min", "0", "--re-max", "inf"],
    ["spectrum", OPERATOR, "--re-min", "0", "--re-max", "1", "--im-min", "-inf"],
    ["spectrum", OPERATOR, "--re-min", "0", "--re-max", "1", "--im-max", "nan"],
    ["power-traces", IDENTITY, "--n-max", "0"],
    ["power-traces", IDENTITY, "--n-max", "x"],
    # only the elimination has a zero test
    ["trace", OPERATOR, "--zero-tol", "1e-3"],
    ["trace-norm", OPERATOR, "--zero-tol", "1e-3"],
    ["power-traces", OPERATOR, "--zero-tol", "1e-3"],
    # --lambda on a document without lambda
    ["det", OPERATOR, "--lambda", "3"],
    ["det", IDENTITY, "--lambda", "3"],
    ["trace", OPERATOR, "--lambda", "3"],
    ["trace", IDENTITY, "--lambda", "3"],
]


def test_usage_error_exit_one(capsys):
    for argv in USAGE_ERRORS:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error:"), argv
        assert "Traceback" not in captured.err, argv


def test_lambda_without_lambda_in_document_names_the_file(capsys):
    assert main(["trace-norm", OPERATOR, "--lambda", "3"]) == 1
    assert capsys.readouterr().err == f"error: --lambda given, but {OPERATOR} does not use lambda\n"


def test_spectrum_accepts_integral_floats(tmp_path):
    # JSON Schema integers include 2.0; the sweep must match the int document
    raw = json.loads(Path(PENCIL).read_text())
    raw.update(n_dims=2.0, m=1.0, grid=[8.0, 8.0])
    for term in raw["terms"]:
        term["level"] = float(term["level"])
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps(raw))
    outputs = []
    for doc in (PENCIL, str(floats)):
        out_file = tmp_path / f"{Path(doc).stem}.csv"
        argv = ["spectrum", doc, "--re-min", "-3", "--re-max", "1", "--samples", "9"]
        assert main(argv + ["--out-file", str(out_file)]) == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]


def test_malformed_document_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["det", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"n_dims": 2, "m": 1, "grid": [4, 4], "a0": [["k9"]]}))
    assert main(["det", str(invalid)]) == 1
    assert "k9" in capsys.readouterr().err


def test_missing_file_exit_one(capsys):
    assert main(["det", "no-such-file.json"]) == 1


def test_spectrum_pencil_and_operator_documents_write_identical_csv(tmp_path):
    # averaging_pencil is lambda - A written out, averaging_operator is A
    # scanned as lambda*I - A: one spectrum path, the same bytes
    outputs = []
    for doc in (PENCIL, OPERATOR):
        out_file = tmp_path / f"{Path(doc).stem}.csv"
        argv = ["spectrum", doc, "--re-min", "-3", "--re-max", "1", "--samples", "41"]
        assert main(argv + ["--out-file", str(out_file)]) == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 42


# sha256 of every --out-file; a change to any byte of the JSON/CSV contract
# shows here.  None: det exits 2 (A0 = 0) and writes no file.
GOLDEN = [
    ("det", "identity", "json", 0, "56e286041863d29d655e45edad21046f952cf178532e1d5b68cc9c39dc6a4bf6"),
    ("det", "identity", "csv", 0, "c7d482ad7c082c2177efc6b94360c9d973955f6a3bd385e9e0dddf351250b1ce"),
    ("trace", "identity", "json", 0, "7c2df030692b4b75dd02f32e92324e835f080bc4c0db90503876ccd2444c5b04"),
    ("trace", "identity", "csv", 0, "373fbf5a09ce89f7f92fd62e11ba251b1efec4f0b34e6329ff5e95126b55435d"),
    ("power-traces", "identity", "json", 0, "4e280e72a6d380db4edfb996ab5a15862919f191afc8222a338c971fddce1680"),
    ("power-traces", "identity", "csv", 0, "a6edb0d8bc3d1eb4e94cba9a9796626dfc9cc2901251377fba19b3b2241fe397"),
    ("det", "averaging_operator", "json", 2, None),
    ("det", "averaging_operator", "csv", 2, None),
    ("trace", "averaging_operator", "json", 0, "b1d0ea7c7640ef2c3d5204950b6aff4dbc101ce42d90172242ddb2a417de7866"),
    ("trace", "averaging_operator", "csv", 0, "bfb5204cc417a1369dd8f8e75a82fd62d2a065bf27c91cc4ecbe0a63457e2cdf"),
    ("power-traces", "averaging_operator", "json", 0, "20530959478fd149063ec79a96023be330e57f365dd0fbd45f9ef17102306a0a"),
    ("power-traces", "averaging_operator", "csv", 0, "4e078108ba36a5b2e3f6dc620b3fa3d2ec2494d725651299587075a7e13c6742"),
    ("det", "averaging_pencil", "json", 0, "a545e4ff298c1942c807b0d9d16c595a18facc546c5f04d77dcddac429920b69"),
    ("det", "averaging_pencil", "csv", 0, "9adbfed54101d7b366979c7519169c894a1e4739c29f32fc0731fb8e9686f057"),
    ("trace", "averaging_pencil", "json", 0, "0e27da8b737478fddde610c8ce08ec77739c59c93cdf9d144dd81be0c3256170"),
    ("trace", "averaging_pencil", "csv", 0, "af60cf144cfd3e9685ee39298a61e7f390929fdb8bde23e013344370c8d6f26c"),
    ("power-traces", "averaging_pencil", "json", 0, "951e0753646779bdf9d19fba8bdb5b9fc834ab7089d104763a729ef1a117f377"),
    ("power-traces", "averaging_pencil", "csv", 0, "8cf90007778946f771f63d40eed26fd614572df6da270041ebe4db4d302058d2"),
]


@pytest.mark.parametrize("command,doc,fmt,code,digest", GOLDEN)
def test_out_file_golden_digest(tmp_path, capsys, command, doc, fmt, code, digest):
    out_file = tmp_path / f"out.{fmt}"
    argv = [command, str(DOCS / f"{doc}.json"), "--out", fmt, "--out-file", str(out_file)]
    if doc == "averaging_pencil":
        argv += ["--lambda", "2,0.5"]
    if command == "power-traces":
        argv += ["--n-max", "4"]
    assert main(argv) == code
    if digest is None:
        assert not out_file.exists()
    else:
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


# an N = 3 averaging pencil on a 4x3x2 grid: the CSV rows of its components
# carry 3, 2, 1 and 0 coordinate cells
N3_PENCIL = {
    "n_dims": 3,
    "m": 1,
    "grid": [4, 3, 2],
    "a0": [["lambda"]],
    "terms": [
        {
            "level": 1,
            "a": [["1", "sqrt(2)*sin(2*pi*k1)*(1+cos(2*pi*k2)/2)*(1+sin(2*pi*k3)/3)"]],
            "b": [["1"], ["sqrt(2)*sin(2*pi*k1)*(1+cos(2*pi*k2)/2)*(1+sin(2*pi*k3)/3)"]],
        },
        {"level": 2, "a": [["1", "cos(2*pi*k2)*k3"]], "b": [["1"], ["k2+k3"]]},
        {"level": 3, "a": [["1"]], "b": [["1"]]},
    ],
}

GOLDEN_N3 = [
    ("det", "json", "154eb3fbeb7ad35c2a0da5eb05a6e38f9c4ad9c8021d03ff34641ff93902f9b1"),
    ("det", "csv", "96b5a52969198fa170238b924c9952da9623c0115393db1ceb3cb22b4ef11604"),
    ("trace", "json", "f79e2d2ac849448d556b7d4f5d00d9133d8017a4c1138becab3c56a9fd166780"),
    ("trace", "csv", "80a16e007939cc1e062ade246ef3ed4b114ce013ca01cff3898bdcd8ecb621f0"),
]


@pytest.mark.parametrize("command,fmt,digest", GOLDEN_N3)
def test_out_file_golden_digest_n3(tmp_path, capsys, command, fmt, digest):
    doc = tmp_path / "n3.json"
    doc.write_text(json.dumps(N3_PENCIL))
    out_file = tmp_path / f"out.{fmt}"
    argv = [command, str(doc), "--lambda", "2,0.5", "--out", fmt, "--out-file", str(out_file)]
    assert main(argv) == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


def test_spectrum_golden_digest(tmp_path):
    # a complex window whose rows hold degrees 0..3 and NaN minima
    out_file = tmp_path / "scan.csv"
    argv = ["spectrum", OPERATOR, "--re-min", "-3", "--re-max", "1", "--im-min", "-0.5", "--im-max", "0.5"]
    assert main(argv + ["--samples", "41,3", "--out-file", str(out_file)]) == 0
    digest = "040d726f14c047b7049c5f1bf49f787003f7c8f1c51e085b06b3043eb091be3f"
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "entry,grid,message",
    [
        ("1/(k1-0.5)", [1], "a0[0][0]: division by zero"),
        ("sqrt(k1-1)", [4], "a0[0][0]: sqrt of negative real"),
        ("exp(1000)", [4], "a0[0][0]: overflow"),
        ("exp(700)*exp(700)-exp(700)*exp(700)", [4], "a0[0][0]: non-finite value at node (0,)"),
        ("1/k1 + exp(700)*exp(700)", [4], "a0[0][0]: non-finite value at node (0,)"),
        ("sin(1e999)", [4], "a0[0][0]: non-finite value at node (0,)"),
        ("(" * 3000 + "1" + ")" * 3000, [4], "a0[0][0]: expression nested too deeply"),
        ("-" * 3000 + "1", [4], "a0[0][0]: expression nested too deeply"),
        ("+".join(["k1"] * 3000), [4], "a0[0][0]: expression nested too deeply"),
        ("sin(" * 400 + "k1" + ")" * 400, [4], "a0[0][0]: expression nested too deeply"),
    ],
    ids=lambda v: f"{v[:8]}...({len(v)} chars)" if isinstance(v, str) and len(v) > 200 else None,
)
def test_unevaluable_or_non_finite_entry_exit_one(tmp_path, capsys, entry, grid, message):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"n_dims": 1, "m": 1, "grid": grid, "a0": [[entry]]}))
    assert main(["det", str(doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_long_sum_entry_exit_zero(tmp_path, capsys):
    # long but shallow in the grammar: no depth cap rejects it
    doc = tmp_path / "long.json"
    doc.write_text(json.dumps({"n_dims": 1, "m": 1, "grid": [2], "a0": [["+".join(["k1"] * 900)]]}))
    assert main(["det", str(doc)]) == 0
    assert capsys.readouterr().out == "pi = [min|.|=225..max|.|=675, 1]\n"


def test_spectrum_parses_each_entry_once(monkeypatch, capsys):
    import doa.expr

    calls = []
    parse = doa.expr.parse
    monkeypatch.setattr(doa.expr, "parse", lambda text: calls.append(text) or parse(text))
    argv = ["spectrum", PENCIL, "--re-min", "-3", "--re-max", "1", "--samples", "41"]
    assert main(argv) == 0
    assert len(calls) == 7  # the document's entries, at load


def test_non_finite_term_entry_names_the_term(tmp_path, capsys):
    raw = json.loads(Path(PENCIL).read_text())
    raw["terms"][1]["b"] = [["exp(700)*exp(700)"]]
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(raw))
    assert main(["spectrum", str(doc), "--re-min", "1", "--re-max", "2", "--samples", "3"]) == 1
    assert "error: terms[level=2].b[0][0]: non-finite value" in capsys.readouterr().err


def test_non_finite_determinant_exit_one(tmp_path, capsys):
    # finite entries whose determinant overflows: no verdict, no traceback
    doc = tmp_path / "huge.json"
    a0 = [["1e200", "0"], ["0", "1e200"]]
    doc.write_text(json.dumps({"n_dims": 1, "m": 2, "grid": [2], "a0": a0}))
    assert main(["det", str(doc)]) == 1
    assert capsys.readouterr().err.startswith("error: pi_0 is not finite at node (0,)")


def _overflow_doc(tmp_path, entry: str) -> str:
    # finite entries whose trace, trace norm or square overflow
    doc = tmp_path / "overflow.json"
    term = {"level": 1, "a": [[entry]], "b": [[entry]]}
    doc.write_text(json.dumps({"n_dims": 1, "m": 1, "grid": [3], "a0": [["1"]], "terms": [term]}))
    return str(doc)


@pytest.mark.parametrize(
    "command,entry,message",
    [
        ("trace", "1e200", "tau_1 is not finite at node ()"),
        ("trace-norm", "1e200", "the trace norm is not finite"),
        ("power-traces", "1e200", "tau_1 is not finite at node ()"),
        ("power-traces", "1e120", "A^2 is not finite"),
    ],
)
def test_non_finite_functional_exit_one(tmp_path, capsys, command, entry, message):
    out_file = tmp_path / "out.json"
    argv = [command, _overflow_doc(tmp_path, entry)]
    if command != "trace-norm":
        argv += ["--out-file", str(out_file)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out_file.exists()


def test_trace_norm_near_overflow_exit_zero(tmp_path, capsys):
    # 1e120 entries on 3 nodes: the level-1 norm 3 * (1e120)^2 / 3 = 1e240
    # is finite, although its square is not
    assert main(["trace-norm", _overflow_doc(tmp_path, "1e120")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    name, value = captured.out.split(" = ")
    assert name == "trace_norm"
    assert float(value) == pytest.approx(1e240, rel=1e-15)


def test_unallocatable_grid_exit_one(tmp_path, capsys):
    # 10**16 nodes (80 PB of float64) exceed any 64-bit address space
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({"n_dims": 1, "m": 1, "grid": [10**16], "a0": [["1"]]}))
    assert main(["det", str(doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
