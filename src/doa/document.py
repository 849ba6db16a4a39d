"""Operator documents: the JSON interchange format for the CLI.

A document describes a canonical-form operator textually:

    {
      "n_dims": 2,
      "m": 1,
      "grid": [8, 8],
      "a0": [["lambda"]],
      "terms": [
        {"level": 1, "a": [["1", "sqrt(2)*sin(2*pi*k1)"]],
                     "b": [["1"], ["sqrt(2)*sin(2*pi*k1)"]]},
        {"level": 2, "a": [["1"]], "b": [["1"]]}
      ]
    }

Every entry is an expression string (see `doa.expr` for the grammar).  The
identifier ``lambda`` may appear as a free symbol; `build_operator`
evaluates it with a concrete complex number.  Levels must be distinct and
within 1..n_dims; `a` must be m x w and `b` w x m for some width w >= 1.

Serialization of numeric results uses 17 significant digits so that values
round-trip bit-faithfully; complex numbers are written as [re, im] pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from . import expr as _expr
from .grid import GridSpec, sample
from .operator import DefectOperator, Term

__all__ = [
    "OperatorDocument",
    "DocumentTerm",
    "DocumentFormatError",
    "DOCUMENT_SCHEMA",
    "load_document",
    "document_from_dict",
    "document_to_dict",
    "document_to_json",
    "uses_lambda",
    "build_operator",
    "dumps17",
]


class DocumentFormatError(ValueError):
    """The document is malformed (JSON, schema, shapes or expressions)."""


DOCUMENT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "OperatorDocument",
    "type": "object",
    "required": ["n_dims", "m", "grid", "a0"],
    "additionalProperties": False,
    "properties": {
        "n_dims": {"type": "integer", "minimum": 1},
        "m": {"type": "integer", "minimum": 1},
        "grid": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "integer", "minimum": 1},
        },
        "a0": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "minItems": 1, "items": {"type": "string"}},
        },
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["level", "a", "b"],
                "additionalProperties": False,
                "properties": {
                    "level": {"type": "integer", "minimum": 1},
                    "a": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"type": "string"},
                        },
                    },
                    "b": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"type": "string"},
                        },
                    },
                },
            },
        },
    },
}

@dataclass(frozen=True)
class DocumentTerm:
    level: int
    a: tuple[tuple[str, ...], ...]
    b: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class OperatorDocument:
    n_dims: int
    m: int
    grid: tuple[int, ...]
    a0: tuple[tuple[str, ...], ...]
    terms: tuple[DocumentTerm, ...] = ()


def _matrix(rows) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(str(e) for e in row) for row in rows)


def _check_matrix_shape(name: str, mat, rows: int, cols: int | None):
    if len(mat) != rows:
        raise DocumentFormatError(f"{name} must have {rows} rows, got {len(mat)}")
    widths = {len(r) for r in mat}
    if len(widths) != 1:
        raise DocumentFormatError(f"{name} has ragged rows")
    width = widths.pop()
    if cols is not None and width != cols:
        raise DocumentFormatError(f"{name} must have {cols} columns, got {width}")
    return width


def _matrices(doc: OperatorDocument):
    """(name, matrix) for every expression matrix of the document."""
    yield "a0", doc.a0
    for t in doc.terms:
        yield f"terms[level={t.level}].a", t.a
        yield f"terms[level={t.level}].b", t.b


def _check_expressions(doc: OperatorDocument):
    for name, mat in _matrices(doc):
        for i, row in enumerate(mat):
            for k, text in enumerate(row):
                try:
                    tree = _expr.parse(text)
                except _expr.ExprError as exc:
                    raise DocumentFormatError(f"{name}[{i}][{k}]: {exc}") from exc
                top = tree.max_coord_index()
                if top > doc.n_dims:
                    raise DocumentFormatError(
                        f"{name}[{i}][{k}]: references k{top} but n_dims = {doc.n_dims}"
                    )


def document_from_dict(raw: dict) -> OperatorDocument:
    """Validate a raw dict against the schema and structural rules."""
    try:
        jsonschema.validate(raw, DOCUMENT_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path)
        raise DocumentFormatError(f"schema violation at '{path}': {exc.message}") from exc

    n_dims = raw["n_dims"]
    m = raw["m"]
    grid = tuple(raw["grid"])
    if len(grid) != n_dims:
        raise DocumentFormatError(
            f"grid lists {len(grid)} resolutions but n_dims = {n_dims}"
        )
    a0 = _matrix(raw["a0"])
    _check_matrix_shape("a0", a0, m, m)

    terms = []
    seen = set()
    for item in raw.get("terms", []):
        level = item["level"]
        if not 1 <= level <= n_dims:
            raise DocumentFormatError(f"term level {level} outside 1..{n_dims}")
        if level in seen:
            raise DocumentFormatError(f"duplicate term level {level}")
        seen.add(level)
        a = _matrix(item["a"])
        b = _matrix(item["b"])
        width = _check_matrix_shape(f"terms[level={level}].a", a, m, None)
        _check_matrix_shape(f"terms[level={level}].b", b, width, m)
        terms.append(DocumentTerm(level, a, b))
    terms.sort(key=lambda t: t.level)

    doc = OperatorDocument(n_dims, m, grid, a0, tuple(terms))
    _check_expressions(doc)
    return doc


def load_document(path) -> OperatorDocument:
    """Read and validate a document from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise DocumentFormatError(f"{path}: document must be a JSON object")
    return document_from_dict(raw)


def uses_lambda(doc: OperatorDocument) -> bool:
    trees = (_expr.parse(e) for _, mat in _matrices(doc) for row in mat for e in row)
    return any(isinstance(node, _expr.Sym) for t in trees for node in _expr.walk(t))


def build_operator(doc: OperatorDocument, lam: complex | None = None) -> DefectOperator:
    """Sample a document into a concrete operator on its grid, with the
    free symbol ``lambda`` evaluated as `lam`.

    Entries that fail to evaluate (including ``lambda`` without a value) or
    sample to NaN/inf raise DocumentFormatError naming the entry.
    """
    spec = GridSpec(doc.grid)
    symbols = {} if lam is None else {"lambda": complex(lam)}
    fields = []
    for name, mat in _matrices(doc):
        try:
            field = sample(mat, spec, len(mat), len(mat[0]), symbols)
        except _expr.ExprError as exc:
            i, k = exc.entry
            raise DocumentFormatError(f"{name}[{i}][{k}]: {exc}") from exc
        finite = np.isfinite(field.data)
        if not finite.all():
            *node, i, k = (int(v) for v in np.argwhere(~finite)[0])
            raise DocumentFormatError(
                f"{name}[{i}][{k}]: non-finite value at node {tuple(node)}"
            )
        fields.append(field)
    a0, *ab = fields
    terms = {t.level: Term(a, b) for t, a, b in zip(doc.terms, ab[::2], ab[1::2])}
    return DefectOperator(a0, terms)


def document_to_dict(doc: OperatorDocument) -> dict:
    out = {
        "n_dims": doc.n_dims,
        "m": doc.m,
        "grid": list(doc.grid),
        "a0": [list(row) for row in doc.a0],
    }
    if doc.terms:
        out["terms"] = [
            {
                "level": t.level,
                "a": [list(row) for row in t.a],
                "b": [list(row) for row in t.b],
            }
            for t in doc.terms
        ]
    return out


def document_to_json(doc: OperatorDocument) -> str:
    return dumps17(document_to_dict(doc), indent=2)


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return "null"
    return format(x, ".17g")


def dumps17(obj, indent: int | None = None, _level: int = 0) -> str:
    """JSON text with floats at 17 significant digits.

    Complex numbers are encoded as [re, im]; NaN/inf become null.
    """
    pad = "" if indent is None else "\n" + " " * (indent * (_level + 1))
    end_pad = "" if indent is None else "\n" + " " * (indent * _level)
    sep = "," if indent is None else ","

    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, complex):
        return f"[{_format_float(obj.real)}{sep} {_format_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(k))}: {dumps17(v, indent, _level + 1)}"
            for k, v in obj.items()
        ]
        return "{" + sep.join(items) + end_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}{dumps17(v, indent, _level + 1)}" for v in obj]
        return "[" + sep.join(items) + end_pad + "]"
    # numpy scalars and similar
    if hasattr(obj, "item"):
        return dumps17(obj.item(), indent, _level)
    raise TypeError(f"cannot serialize {type(obj)!r}")
