import random

import pytest

from crlab.linalg import Mat, SingularMatrixError, random_matrix
from crlab.subspace import full_space, span, zero_space
from crlab.constructions import extremal_space, schur_space, valid_splits


def E(n, i, j):
    return Mat.unit(n, i, j)


def test_span_examples():
    assert span([E(2, 0, 0), E(2, 0, 0) * 2]).dim == 1
    assert span([E(2, 0, 1), E(2, 1, 0)]).dim == 2
    assert zero_space(3).dim == 0
    with pytest.raises(ValueError):
        span([Mat.zero(2), Mat.zero(3)])


def test_span_of_conjugated_units_is_full():
    q = Mat.from_rows([[1, 1, 0], [0, 1, 2], [1, 0, 1]])
    assert q.det() != 0
    qi = q.inverse()
    mats = [q @ E(3, i, j) @ qi for i in range(3) for j in range(3)]
    assert span(mats).dim == 9


def test_contains_examples():
    assert span([E(2, 0, 0)]).contains(E(2, 0, 0))
    assert not span([E(2, 0, 0)]).contains(E(2, 0, 1))
    assert schur_space(4).contains(E(4, 0, 2))


def test_conjugate_examples():
    v = span([E(2, 0, 1)])
    assert v.conjugate(Mat.identity(2)) == v
    p = Mat.identity(2) + E(2, 0, 1)
    assert v.conjugate(p) == v
    q = Mat.from_rows([[1, 2], [1, 3]])
    assert v.conjugate(q).conjugate(q.inverse()) == v
    with pytest.raises(SingularMatrixError):
        v.conjugate(E(2, 0, 1))


def test_conjugation_preserves_dim_and_membership():
    rng = random.Random(3)
    v = extremal_space(4, 1, 1)
    for _ in range(10):
        q = random_matrix(4, 4, 4, rng.randint(0, 10 ** 6))
        if q.det() == 0:
            continue
        w = v.conjugate(q)
        assert w.dim == v.dim
        m = v.random_element(rng, 9)
        assert w.contains(q @ m @ q.inverse())


def test_transpose_space():
    assert zero_space(2).transpose_space() == zero_space(2)
    assert span([E(2, 0, 1)]).transpose_space() == span([E(2, 1, 0)])
    v = extremal_space(5, 2, 1)
    assert v.transpose_space().transpose_space() == v


def test_sum_intersect_examples():
    v = span([E(2, 0, 0), E(2, 0, 1)])
    w = span([E(2, 0, 1), E(2, 1, 0)])
    assert v.sum(zero_space(2)) == v
    assert v.intersect(w) == span([E(2, 0, 1)])


def test_dimension_formula_on_random_pairs():
    rng = random.Random(23)
    for _ in range(15):
        mats = [random_matrix(3, 3, 4, rng.randint(0, 10 ** 6)) for _ in range(3)]
        nats = [random_matrix(3, 3, 4, rng.randint(0, 10 ** 6)) for _ in range(3)]
        v, w = span(mats), span(nats)
        assert v.sum(w).dim + v.intersect(w).dim == v.dim + w.dim


def test_is_algebra_examples():
    assert extremal_space(5, 2, 1).is_algebra()
    assert not span([E(2, 0, 1), E(2, 1, 0)]).is_algebra()
    assert full_space(3).is_algebra()


def test_is_algebra_agrees_with_definition():
    rng = random.Random(43)
    spaces = [zero_space(3), full_space(2)]
    for n, k in ((3, 1), (4, 0), (4, 2), (5, 1), (5, 3)):
        q = Mat.identity(n)
        while q.det() in (0, 1, -1):  # a rational inverse puts denominators in the basis
            q = random_matrix(n, n, 3, rng.randint(0, 10 ** 6))
        alg = extremal_space(n, k, valid_splits(n, k)[0]).conjugate(q)
        spaces += [alg, span(alg.basis[1:]), alg.sum(span([q @ E(n, n - 1, 0)]))]
        spaces.append(span([random_matrix(n, n, 4, rng.randint(0, 10 ** 6))
                            for _ in range(n)]))
    answers = [v.is_algebra() for v in spaces]
    assert answers == [all(v.contains(a @ b) for a in v.basis for b in v.basis)
                       for v in spaces]
    assert True in answers and False in answers


def test_algebra_implies_jordan_closed_on_samples():
    for v in (schur_space(3), extremal_space(4, 2, 1), full_space(2)):
        assert v.is_algebra()
        assert all(v.contains(a @ b + b @ a) for a in v.basis for b in v.basis)


def test_canonical_basis_is_reproducible():
    rng = random.Random(29)
    for _ in range(10):
        mats = [random_matrix(3, 3, 5, rng.randint(0, 10 ** 6)) for _ in range(4)]
        v = span(mats)
        rebuilt = span(list(reversed(list(v.basis))))
        assert rebuilt.basis == v.basis  # bit-identical storage


def test_transpose_preserves_predicates():
    v = extremal_space(4, 1, 2)
    t = v.transpose_space()
    assert t.dim == v.dim
    assert t.is_algebra() == v.is_algebra()


def test_with_identity():
    v = span([E(3, 0, 1)])
    w = v.with_identity()
    assert w.dim == 2 and w.contains(Mat.identity(3))
    assert w.with_identity() == w
