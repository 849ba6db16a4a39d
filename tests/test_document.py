"""Operator-document validation, lambda evaluation and serialization tests."""

import copy
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doa.document import (
    DocumentFormatError,
    build_operator,
    document_from_dict,
    dumps17,
    load_document,
    uses_lambda,
)
from doa.grid import GridSpec
from helpers import reference_dumps17

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


# edge values of the %.17g fill: signed zeros, the smallest subnormal, the
# largest finite, non-terminating binary, integral floats, NaN and inf
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, -0.1, 3.0, -2.0, 1e16, 2.0**53]
    + [float("nan"), float("inf"), float("-inf")]
) | st.floats()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS), max_size=10),
    st.sampled_from([None, 0, 2]),
)
def test_dumps17_arrays_match_reference(parts, indent):
    # an array is written in one fill, exactly as the value-at-a-time writer
    # writes the list of its values, at any nesting level
    complexes = np.array([complex(re, im) for re, im in parts], dtype=np.complex128)
    reals = np.array([re for re, _ in parts], dtype=np.float64)
    for arr in (complexes, reals):
        assert dumps17(arr, indent) == reference_dumps17(arr.tolist(), indent)
        doc = {"values": arr, "n": [1, {"x": arr}]}
        want = {"values": arr.tolist(), "n": [1, {"x": arr.tolist()}]}
        assert dumps17(doc, indent) == reference_dumps17(want, indent)


SCHEMA_FILE = Path(__file__).resolve().parent.parent / "docs" / "operator_document.schema.json"

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 10)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

# near misses of every type the schema asks for
EDGE_VALUES = [None, True, False, 0, -1, 1, 2, 0.0, 1.5, 2.0, "", "1", [], [[]], [["1"]], {}]


def _like(value):
    """Values of the same JSON type and shape as `value` (often schema-valid)."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(0, 9) | st.integers(0, 9).map(float)
    if isinstance(value, str):
        return st.text(max_size=4)
    if isinstance(value, list):
        return st.tuples(*map(_like, value)).map(list)
    if isinstance(value, dict):
        return st.fixed_dictionaries({k: _like(v) for k, v in value.items()})
    return JSON_VALUES


def _paths(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


def _edit(doc, path, op, value, new_key):
    """Set or delete the value at `path`, or add `value` before that item of a
    list or under `new_key` beside it in an object; the root is replaced."""
    if not path:
        return value
    *parent_path, key = path
    parent = doc
    for k in parent_path:
        parent = parent[k]
    if op == "set":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, value)
    else:
        parent[new_key] = value
    return doc


@functools.cache
def _schema_validator():
    from jsonschema import Draft202012Validator

    return Draft202012Validator(json.loads(SCHEMA_FILE.read_text()))


def _assert_schema_checks_agree(doc):
    # a schema violation exactly when jsonschema finds one; where it finds
    # exactly one, at the same path
    errors = list(_schema_validator().iter_errors(doc))
    try:
        document_from_dict(doc)
        message = ""
    except DocumentFormatError as exc:
        message = str(exc)
    assert message.startswith("schema violation") == bool(errors), (doc, message)
    if len(errors) == 1:
        path = "/".join(str(p) for p in errors[0].absolute_path)
        assert message.startswith(f"schema violation at '{path}': "), (doc, message)


def test_schema_checks_agree_on_every_single_edit():
    base = _demo_doc_dict()
    for path in _paths(base):
        for op in ("set", "delete", "add"):
            for value in EDGE_VALUES:
                _assert_schema_checks_agree(_edit(copy.deepcopy(base), path, op, value, "extra"))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_schema_checks_agree_with_schema_file(data):
    doc = _demo_doc_dict()
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        current = doc
        for k in path:
            current = current[k]
        op = data.draw(st.sampled_from(["set", "delete", "add"]))
        edge = st.sampled_from(EDGE_VALUES).map(copy.deepcopy)  # a later edit may change it
        value = data.draw(_like(current) | edge | JSON_VALUES)
        new_key = data.draw(st.sampled_from(["terms", "level", "a", "b"]) | st.text(max_size=4))
        doc = _edit(doc, path, op, value, new_key)
    _assert_schema_checks_agree(doc)


def test_integral_floats_are_stored_as_ints():
    raw = _demo_doc_dict()
    raw.update(n_dims=2.0, m=1.0, grid=[8.0, 8.0])
    raw["terms"][0]["level"] = 1.0
    doc = document_from_dict(raw)
    assert doc == load_document(DOCS / "averaging_pencil.json")
    assert all(type(v) is int for v in (doc.n_dims, doc.m, *doc.grid, doc.terms[0].level))


def test_loading_a_document_imports_no_jsonschema():
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys, doa.cli; from doa.document import load_document; "
        f"load_document({str(DOCS / 'averaging_pencil.json')!r}); "
        "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
