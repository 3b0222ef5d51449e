"""Every input check of the package raises its own exception type and
message, and the protocol methods of the value types behave as Python's
data model asks."""

from fractions import Fraction

import pytest

from crlab.commrank import (certify_rank_condition_symbolic, max_commutator_rank,
                            satisfies_rank_condition)
from crlab.constructions import extremal_space, firstcol_zero_space, lastrow_zero_space
from crlab.invariant_spaces import (InvariantSpaceSpec, enumerate_invariant_spaces,
                                    search_max_dimension)
from crlab.linalg import Mat, VectorSpan, random_matrix
from crlab.numberfield import NumberField, irreducible_factors
from crlab.serialize import SchemaError, subspace_from_dict, subspace_to_dict, to_jsonable
from crlab.subspace import MatrixSubspace, span, zero_space

_SQUARE = Mat.identity(2)
_WIDE = Mat.from_rows([[1, 2, 3], [4, 5, 6]])


def _set_attribute(obj):
    obj.rows = 3


@pytest.mark.parametrize("call, error, message", [
    (lambda: max_commutator_rank(extremal_space(3, 1, 1), 0, 1),
     ValueError, "trials must be >= 1"),
    (lambda: satisfies_rank_condition(extremal_space(3, 1, 1), 3, 8, 1),
     ValueError, "need 0 <= k < n"),
    (lambda: certify_rank_condition_symbolic(extremal_space(3, 1, 1), -1),
     ValueError, "need 0 <= k < n"),
    (lambda: lastrow_zero_space(1), ValueError, "n must be >= 2"),
    (lambda: firstcol_zero_space(1), ValueError, "n must be >= 2"),
    (lambda: InvariantSpaceSpec(3, {(1, 1)}, ((0, 1, 2),)),
     ValueError, "bad unit position (1, 1)"),
    (lambda: search_max_dimension(3, 3), ValueError, "need 0 <= k < n"),
    (lambda: Mat(2, 2, [1, 2, 3]), ValueError, "need 4 entries, got 3"),
    (lambda: _set_attribute(_SQUARE), AttributeError, "Mat is immutable"),
    (lambda: Mat.from_rows([]), ValueError, "from_rows needs one or more rows of one length"),
    (lambda: _SQUARE + _WIDE, ValueError, "shape mismatch"),
    (lambda: _WIDE @ _WIDE, ValueError, "inner dimension mismatch"),
    (lambda: _WIDE.trace(), ValueError, "trace needs a square matrix"),
    (lambda: _WIDE.det(), ValueError, "determinant needs a square matrix"),
    (lambda: _WIDE.charpoly(), ValueError, "square matrices only"),
    (lambda: random_matrix(2, 2, -1, 0), ValueError, "entry_bound must be >= 0"),
    (lambda: irreducible_factors((5,)), ValueError, "constant polynomial"),
    (lambda: subspace_from_dict([]), SchemaError, "top level must be an object"),
    (lambda: subspace_from_dict({"ambient": 2, "field": "Q", "basis": {}}),
     SchemaError, "basis must be a list of matrices"),
    (lambda: subspace_to_dict(zero_space(0)), SchemaError, "ambient must be a positive integer"),
    (lambda: to_jsonable(object()), TypeError, "cannot encode object"),
    # no report holds a bare scalar or a space
    (lambda: to_jsonable(Fraction(1, 2)), TypeError, "cannot encode Fraction"),
    (lambda: to_jsonable(span([_SQUARE])), TypeError, "cannot encode MatrixSubspace"),
    (lambda: MatrixSubspace(2, 2, None), TypeError,
     "use span() / MatrixSubspace.span to build spaces"),
    (lambda: _set_attribute(zero_space(2)), AttributeError, "MatrixSubspace is immutable"),
    (lambda: span([]), ValueError, "empty span needs explicit dimensions"),
    (lambda: zero_space(2, 3).n, ValueError, "rectangular space has no single ambient side"),
    (lambda: zero_space(2).contains(_WIDE), ValueError, "ambient mismatch"),
    (lambda: zero_space(2).sum(zero_space(3)), ValueError, "ambient mismatch"),
    (lambda: span([_WIDE]).is_algebra(), ValueError, "square spaces only"),
    (lambda: zero_space(-3), ValueError, "matrix sizes must be >= 0"),
    (lambda: Mat.identity(-1), ValueError, "matrix sizes must be >= 0"),
    (lambda: Mat.zero(-2, 0), ValueError, "matrix sizes must be >= 0"),
    (lambda: random_matrix(-1, 2, 3, 0), ValueError, "matrix sizes must be >= 0"),
    (lambda: VectorSpan(-4), ValueError, "span length must be >= 0"),
    (lambda: InvariantSpaceSpec(-3, (), ()), ValueError, "n must be >= 0"),
    (lambda: list(enumerate_invariant_spaces(-2)), ValueError, "n must be >= 0"),
])
def test_input_check(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_protocol_methods():
    m = Mat.from_rows([[1, 2], [0, 3]])
    assert (m == "m") is False and m != (1, 2, 0, 3)
    assert repr(m) == "Mat[1 2; 0 3]"
    assert not _WIDE.is_upper_triangular()
    v = span([m, _SQUARE])
    assert (v == "v") is False and v != m
    assert hash(v) == hash(span([_SQUARE, m])) and v == span([_SQUARE, m])
    assert repr(v) == "MatrixSubspace(dim=2, ambient=2x2)"
    assert m in v and Mat.unit(2, 1, 0) not in v
    k = NumberField([-2, 0, 1])
    assert k == NumberField([-2, 0, 1]) and k != NumberField([-3, 0, 1]) and k != "k"
    assert hash(k) == hash(NumberField([-2, 0, 1]))
    assert len({k, NumberField([-2, 0, 1]), NumberField([-3, 0, 1])}) == 2
