"""JSON schemas for subspace files and reports.

Entries are exact rational strings ("p" or "p/q" with q > 0), never floats,
so certificates stay auditable and diffable.  Written files are canonical:
the basis is the reduced-row-echelon one, entries are reduced, denominators
of 1 are omitted, and the JSON layout is fixed, so write(read(f)) is
byte-identical for canonical input.

Over a number field an entry is its list of rational coefficients in powers
of theta, little-endian and padded to the degree, and the field is written
as ``{"minpoly": [...]}``, its entries read by
:func:`crlab.numberfield.coefficients`.
"""

from __future__ import annotations

import dataclasses
import json
import re
from fractions import Fraction

from .linalg import Mat
from .numberfield import NumberField, coefficients
from .subspace import MatrixSubspace

__all__ = [
    "SchemaError",
    "scalar_to_str",
    "str_to_scalar",
    "subspace_to_dict",
    "subspace_from_dict",
    "read_subspace",
    "write_subspace",
    "to_jsonable",
    "dumps_canonical",
]


class SchemaError(ValueError):
    """Input file does not match the subspace schema."""


def scalar_to_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_ENTRY_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")


def str_to_scalar(s):
    match = _ENTRY_RE.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        raise SchemaError(f"entry {s!r} is not a rational 'p' or 'p/q' string")
    p, q = match.groups()
    return Fraction(int(p), int(q or 1))


def _mat_to_rows(m):
    return [[_entry_jsonable(x) for x in m.row(i)] for i in range(m.rows)]


def _entry_jsonable(x):
    if isinstance(x, Fraction):
        return scalar_to_str(x)
    return [scalar_to_str(c) for c in coefficients(x)]


def subspace_to_dict(v):
    if v.rows != v.cols:
        raise SchemaError("subspace files hold square-matrix spaces only")
    return {
        "ambient": v.rows,
        "field": "Q",
        "basis": [_mat_to_rows(b) for b in v.basis],
    }


def subspace_from_dict(d):
    if not isinstance(d, dict):
        raise SchemaError("top level must be an object")
    missing = {"ambient", "field", "basis"} - set(d)
    if missing:
        raise SchemaError(f"missing keys: {sorted(missing)}")
    n = d["ambient"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:  # JSON true is an int
        raise SchemaError("ambient must be a positive integer")
    if d["field"] != "Q":
        raise SchemaError("field must be 'Q'")
    basis = d["basis"]
    if not isinstance(basis, list):
        raise SchemaError("basis must be a list of matrices")
    mats = []
    for b in basis:
        if not (isinstance(b, list) and len(b) == n
                and all(isinstance(r, list) and len(r) == n for r in b)):
            raise SchemaError(f"every basis matrix must be {n}x{n}")
        mats.append(Mat.from_rows([[str_to_scalar(x) for x in r] for r in b]))
    return MatrixSubspace.span(mats, n, n)


def dumps_canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_subspace(path, v):
    text = dumps_canonical(subspace_to_dict(v))  # validate before truncating the file
    with open(path, "w") as fh:
        fh.write(text)


def read_subspace(path):
    try:
        with open(path) as fh:
            d = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return subspace_from_dict(d)


def to_jsonable(obj):
    """Recursive encoder for report objects: exact scalars become strings,
    matrices become row lists, dataclasses become dicts."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return scalar_to_str(obj)
    if isinstance(obj, NumberField):
        return {"minpoly": [scalar_to_str(c) for c in obj.minpoly]}
    if isinstance(obj, Mat):
        return _mat_to_rows(obj)
    if isinstance(obj, MatrixSubspace):
        return subspace_to_dict(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, frozenset):
        return [to_jsonable(x) for x in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"cannot encode {type(obj).__name__}")
