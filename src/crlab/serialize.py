"""JSON schemas for subspace files and reports.

Entries are exact rational strings ("p" or "p/q" with q > 0), never floats,
so certificates stay auditable and diffable.  Written files are canonical:
the basis is the reduced-row-echelon one, entries are reduced, denominators
of 1 are omitted, and the JSON layout is fixed, so write(read(f)) is
byte-identical for canonical input.

Rationals cross the file edge as ints, in the (scale, entries) form of
:class:`crlab.linalg.Mat`, with no Fraction per entry.  On read each entry
is parsed to an int pair (p, q), unreduced and once per distinct string of
a file, and a matrix with L the lcm of its q's is entries p * (L // q) over
scale L; ``Mat.from_scaled`` reduces that to the canonical form.  On write
an entry x of a matrix with scale L takes one g = gcd(x, L) and is
p = x / g over q = L / g, written "p" when q = 1 (0 included) and "p/q"
otherwise.  :func:`str_to_scalar` and :func:`scalar_to_str` are the same
two rules on one scalar.

In a report, an entry over a number field is its list of rational
coefficients in powers of theta, little-endian and padded to the degree,
and the field is written as ``{"minpoly": [...]}``, its entries read by
:func:`crlab.numberfield.coefficients`.  Subspace files hold rational
spaces only.
"""

from __future__ import annotations

import dataclasses
import json
import math
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


def _ratio_str(x, scale):
    """The string of the rational x / scale, for an int x and an int
    scale > 0, reduced by one gcd."""
    g = math.gcd(x, scale)
    return str(x // g) if g == scale else f"{x // g}/{scale // g}"


def scalar_to_str(x):
    x = Fraction(x)
    return _ratio_str(x.numerator, x.denominator)


_ENTRY_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")


def _parse_entry(s):
    """The ints (p, q) of a "p" or "p/q" entry, q > 0, as written."""
    match = _ENTRY_RE.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        raise SchemaError(f"entry {s!r} is not a rational 'p' or 'p/q' string")
    p, q = match.groups()
    return int(p), int(q or 1)


def str_to_scalar(s):
    return Fraction(*_parse_entry(s))


def _is_rational(m):
    return not m.entries or type(m.entries[0]) is int


def _mat_to_rows(m):
    c = m.cols
    if _is_rational(m):
        cells = [_ratio_str(x, m.scale) for x in m.entries]
    else:
        cells = [[scalar_to_str(x) for x in coefficients(e)] for e in m.entries]
    return [cells[i * c:(i + 1) * c] for i in range(m.rows)]


def _mat_from_rows(rows, n, parsed):
    """The n-by-n matrix of a file's rows of "p" or "p/q" strings; parsed
    maps each entry string read so far to its (p, q), since a file's
    matrices repeat few distinct strings."""
    pairs = []
    for r in rows:
        for s in r:
            pair = parsed.get(s) if isinstance(s, str) else None
            if pair is None:
                pair = parsed[s] = _parse_entry(s)
            pairs.append(pair)
    scale = math.lcm(*(q for _, q in pairs))
    return Mat.from_scaled(n, n, scale, [p * (scale // q) for p, q in pairs])


def subspace_to_dict(v):
    if v.rows != v.cols:
        raise SchemaError("subspace files hold square-matrix spaces only")
    if v.rows < 1:  # a file no reader accepts is not written
        raise SchemaError("ambient must be a positive integer")
    if not all(map(_is_rational, v.basis)):
        raise SchemaError("subspace files hold rational spaces only")
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
    mats, parsed = [], {}
    for b in basis:
        if not (isinstance(b, list) and len(b) == n
                and all(isinstance(r, list) and len(r) == n for r in b)):
            raise SchemaError(f"every basis matrix must be {n}x{n}")
        mats.append(_mat_from_rows(b, n, parsed))
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
    """Recursive encoder for report objects: dataclasses become dicts,
    matrices row lists of exact scalar strings, a number field its minpoly.
    Reports hold only these, ints, strings, bools, None, dicts, lists,
    tuples and frozensets: a bare scalar or a space is refused, and
    :func:`subspace_to_dict` is the one encoder of a space."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, NumberField):
        return {"minpoly": [scalar_to_str(c) for c in obj.minpoly]}
    if isinstance(obj, Mat):
        return _mat_to_rows(obj)
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
