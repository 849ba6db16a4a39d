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

Every entry is an expression string (see `doa.expr` for the grammar),
parsed once when the document is loaded: an `OperatorDocument` holds the
parsed trees.  The identifier ``lambda`` may appear as a free symbol;
`build_operator` evaluates it with a concrete complex number.  Levels must
be distinct and within 1..n_dims; `a` must be m x w and `b` w x m for some
width w >= 1.

Serialization of numeric results uses 17 significant digits so that values
round-trip bit-faithfully; complex numbers are written as [re, im] pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import expr as _expr
from .grid import GridSpec, sample
from .operator import DefectOperator, Term

__all__ = [
    "OperatorDocument",
    "DocumentTerm",
    "DocumentFormatError",
    "load_document",
    "document_from_dict",
    "uses_lambda",
    "build_operator",
    "dumps17",
]


class DocumentFormatError(ValueError):
    """The document is malformed (JSON, schema, shapes or expressions)."""


Matrix = tuple[tuple[_expr.FieldExpr, ...], ...]


@dataclass(frozen=True)
class DocumentTerm:
    level: int
    a: Matrix
    b: Matrix


@dataclass(frozen=True)
class OperatorDocument:
    n_dims: int
    m: int
    grid: tuple[int, ...]
    a0: Matrix
    terms: tuple[DocumentTerm, ...] = ()


def _schema_error(path, message: str) -> DocumentFormatError:
    where = "/".join(str(p) for p in path)
    return DocumentFormatError(f"schema violation at '{where}': {message}")


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise _schema_error(path, "expected an object")
    for key in required:
        if key not in obj:
            raise _schema_error(path, f"missing key {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise _schema_error(path, f"unexpected key {key!r}")


def _check_count(value, path):
    # a JSON Schema integer: bools are not, integral floats such as 2.0 are
    is_int = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not is_int or value < 1:
        raise _schema_error(path, "expected an integer >= 1")


def _check_list(value, path, min_items=1):
    if not isinstance(value, list) or len(value) < min_items:
        raise _schema_error(path, f"expected a list of length >= {min_items}")


def _check_matrix(value, path):
    _check_list(value, path)
    for i, row in enumerate(value):
        _check_list(row, (*path, i))
        for k, entry in enumerate(row):
            if not isinstance(entry, str):
                raise _schema_error((*path, i, k), "expected a string")


def _check_schema(raw):
    """Check the rules of docs/operator_document.schema.json (a test keeps them equal)."""
    _check_keys(raw, (), ("n_dims", "m", "grid", "a0"), ("terms",))
    _check_count(raw["n_dims"], ("n_dims",))
    _check_count(raw["m"], ("m",))
    _check_list(raw["grid"], ("grid",))
    for i, n in enumerate(raw["grid"]):
        _check_count(n, ("grid", i))
    _check_matrix(raw["a0"], ("a0",))
    _check_list(raw.get("terms", []), ("terms",), 0)
    for i, item in enumerate(raw.get("terms", [])):
        _check_keys(item, ("terms", i), ("level", "a", "b"))
        _check_count(item["level"], ("terms", i, "level"))
        _check_matrix(item["a"], ("terms", i, "a"))
        _check_matrix(item["b"], ("terms", i, "b"))


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


def _parse_entry(where: str, text: str, n_dims: int) -> _expr.FieldExpr:
    try:
        tree = _expr.parse(text)
    except _expr.ExprError as exc:
        raise DocumentFormatError(f"{where}: {exc}") from exc
    top = tree.max_coord_index()
    if top > n_dims:
        raise DocumentFormatError(f"{where}: references k{top} but n_dims = {n_dims}")
    return tree


def _parse_matrix(name: str, rows, n_dims: int) -> Matrix:
    return tuple(
        tuple(_parse_entry(f"{name}[{i}][{k}]", text, n_dims) for k, text in enumerate(row))
        for i, row in enumerate(rows)
    )


def document_from_dict(raw: dict) -> OperatorDocument:
    """Check a raw dict against the rules of the schema file (integral floats
    count as integers and are stored as ints), then the structural rules
    (shapes and levels), then parse every expression entry."""
    _check_schema(raw)

    n_dims = int(raw["n_dims"])
    m = int(raw["m"])
    grid = tuple(int(n) for n in raw["grid"])
    if len(grid) != n_dims:
        raise DocumentFormatError(
            f"grid lists {len(grid)} resolutions but n_dims = {n_dims}"
        )
    _check_matrix_shape("a0", raw["a0"], m, m)

    items = {}
    for item in raw.get("terms", []):
        level = int(item["level"])
        if not 1 <= level <= n_dims:
            raise DocumentFormatError(f"term level {level} outside 1..{n_dims}")
        if level in items:
            raise DocumentFormatError(f"duplicate term level {level}")
        width = _check_matrix_shape(f"terms[level={level}].a", item["a"], m, None)
        _check_matrix_shape(f"terms[level={level}].b", item["b"], width, m)
        items[level] = item

    a0 = _parse_matrix("a0", raw["a0"], n_dims)
    terms = tuple(
        DocumentTerm(
            level,
            _parse_matrix(f"terms[level={level}].a", items[level]["a"], n_dims),
            _parse_matrix(f"terms[level={level}].b", items[level]["b"], n_dims),
        )
        for level in sorted(items)
    )
    return OperatorDocument(n_dims, m, grid, a0, terms)


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
    trees = (tree for _, mat in _matrices(doc) for row in mat for tree in row)
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
            field = sample(mat, spec, symbols)
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


def _fill(template: str, values) -> str:
    """`template` % values, with every NaN/inf written as null."""
    text = template % tuple(values)
    return text.replace("-inf", "null").replace("inf", "null").replace("nan", "null")


def dumps17(obj, indent: int | None = None, _level: int = 0) -> str:
    """JSON text with floats at 17 significant digits.

    Complex numbers are encoded as [re, im]; NaN/inf become null.  A 1-D
    float or complex numpy array is written like the list of its values,
    with all of them formatted in one ``%`` fill.
    """
    pad = "" if indent is None else "\n" + " " * (indent * (_level + 1))
    end_pad = "" if indent is None else "\n" + " " * (indent * _level)

    if obj is None or isinstance(obj, (bool, int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fill("%.17g", (obj,))
    if isinstance(obj, complex):
        return _fill("[%.17g, %.17g]", (obj.real, obj.imag))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(k))}: {dumps17(v, indent, _level + 1)}"
            for k, v in obj.items()
        ]
        return "{" + ",".join(items) + end_pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            return "[]"
        if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "fc":
            item, values = "%.17g", obj
            if obj.dtype.kind == "c":
                item, values = "[%.17g, %.17g]", np.column_stack((obj.real, obj.imag))
            items = ((pad + item + ",") * len(obj))[:-1]
            return "[" + _fill(items, values.ravel().tolist()) + end_pad + "]"
        items = [f"{pad}{dumps17(v, indent, _level + 1)}" for v in obj]
        return "[" + ",".join(items) + end_pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")
