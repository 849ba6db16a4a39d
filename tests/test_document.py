"""Operator-document validation, lambda evaluation and round-trip tests."""

import json
from pathlib import Path

import numpy as np
import pytest

from doa import equal_as_map
from doa.document import (
    DocumentFormatError,
    build_operator,
    document_from_dict,
    document_to_json,
    dumps17,
    load_document,
    uses_lambda,
)
from doa.grid import GridSpec

DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"


def _demo_doc_dict():
    return json.loads((DOCS / "averaging_pencil.json").read_text())


def test_load_shipped_documents():
    for name in ("averaging_pencil.json", "averaging_operator.json", "identity.json"):
        doc = load_document(DOCS / name)
        assert doc.n_dims == 2


def test_uses_lambda_detection():
    assert uses_lambda(load_document(DOCS / "averaging_pencil.json"))
    assert not uses_lambda(load_document(DOCS / "averaging_operator.json"))


def test_build_operator_evaluates_lambda():
    doc = load_document(DOCS / "averaging_pencil.json")
    op = build_operator(doc, -0.5 + 2j)
    assert np.all(op.a0.data[..., 0, 0] == -0.5 + 2j)


def test_lambda_word_boundary():
    raw = {"n_dims": 1, "m": 1, "grid": [4], "a0": [["k1*lambda"]]}
    op = build_operator(document_from_dict(raw), 2.0)
    assert np.array_equal(op.a0.data[:, 0, 0], 2 * GridSpec((4,)).coordinates(0))
    with pytest.raises(DocumentFormatError, match="unknown identifier 'klambda'"):
        document_from_dict({**raw, "a0": [["klambda"]]})


def test_build_requires_lambda_value():
    doc = load_document(DOCS / "averaging_pencil.json")
    with pytest.raises(DocumentFormatError, match="lambda"):
        build_operator(doc)


def test_document_round_trip_identical_operator():
    doc = load_document(DOCS / "averaging_pencil.json")
    text = document_to_json(doc)
    again = document_from_dict(json.loads(text))
    assert again == doc
    op1 = build_operator(doc, 3.0)
    op2 = build_operator(again, 3.0)
    assert equal_as_map(op1, op2, 0.0)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.update(grid=[8]), "grid"),
        (lambda d: d.update(a0=[["1", "2"]]), "a0"),
        (lambda d: d["terms"][0].update(level=3), "level"),
        (lambda d: d["terms"][0].update(level=2), "duplicate"),
        (lambda d: d["terms"][0].update(b=[["1"]]), "rows"),
        (lambda d: d["terms"][0].update(a=[["1", "bogus"]]), "unknown identifier"),
        (lambda d: d["terms"][0].update(a=[["1", "k3"]]), "k3"),
        (lambda d: d.update(m=0), "schema"),
        (lambda d: d.update(extra=1), "schema"),
    ],
)
def test_validation_errors(mutate, message):
    raw = _demo_doc_dict()
    mutate(raw)
    with pytest.raises(DocumentFormatError, match=message):
        document_from_dict(raw)


def test_load_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_dims": 2,,}')
    with pytest.raises(DocumentFormatError, match="line 1 column"):
        load_document(bad)


def test_dumps17_floats_and_complex():
    text = dumps17({"x": 1 / 3, "z": complex(1, -2.5), "n": 7, "s": "a"})
    assert "0.33333333333333331" in text
    assert "[1,-2.5]" in text.replace(" ", "")
    parsed = json.loads(text)
    assert parsed["x"] == 1 / 3  # bit-faithful round trip
    assert parsed["n"] == 7


def test_dumps17_nan_becomes_null():
    assert json.loads(dumps17([float("nan"), 1.0])) == [None, 1.0]


def test_schema_file_matches_embedded():
    from doa.document import DOCUMENT_SCHEMA

    shipped = json.loads(
        (Path(__file__).resolve().parent.parent / "docs" / "operator_document.schema.json").read_text()
    )
    assert shipped == DOCUMENT_SCHEMA
