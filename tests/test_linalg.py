import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from crlab.linalg import (Mat, SingularMatrixError, charpoly_discriminant,
                          commutator, mat_from_columns, random_matrix)
from crlab.numberfield import NumberField


def E(n, i, j):
    return Mat.unit(n, i, j)


def test_rank_examples():
    assert Mat.zero(3).rank() == 0
    assert (E(2, 0, 0) - E(2, 1, 1)).rank() == 2
    assert Mat.diagonal([-1, -1, 2, 0]).rank() == 3


def test_kernel_examples():
    assert Mat.identity(3).kernel_basis() == []
    ker = E(2, 0, 1).kernel_basis()
    assert len(ker) == 1 and ker[0].data == (Fraction(1), Fraction(0))
    ker = Mat.diagonal([1, 0, 2]).kernel_basis()
    assert len(ker) == 1 and ker[0].data == (Fraction(0), Fraction(1), Fraction(0))


def test_kernel_dimension_formula():
    rng = random.Random(5)
    for _ in range(20):
        m = random_matrix(4, 6, 3, rng.randint(0, 10 ** 6))
        assert len(m.kernel_basis()) == 6 - m.rank()
        for v in m.kernel_basis():
            assert (m @ v).is_zero()


def test_commutator_examples():
    a = random_matrix(3, 3, 5, 1)
    assert commutator(a, a).is_zero()
    assert commutator(E(2, 0, 1), E(2, 1, 0)) == Mat.diagonal([1, -1])
    with pytest.raises(ValueError):
        commutator(Mat.zero(2), Mat.zero(3))


def test_commutator_antisymmetry_and_trace():
    rng = random.Random(7)
    for _ in range(25):
        a = random_matrix(4, 4, 9, rng.randint(0, 10 ** 6))
        b = random_matrix(4, 4, 9, rng.randint(0, 10 ** 6))
        c = commutator(a, b)
        assert c == -commutator(b, a)
        assert c.trace() == 0


def test_charpoly_discriminant_examples():
    assert charpoly_discriminant(Mat.diagonal([1, 2])) == 1
    assert charpoly_discriminant(Mat.identity(2)) == 0
    assert charpoly_discriminant(E(2, 0, 1)) == 0


def test_charpoly_known_matrix():
    m = Mat.from_rows([[1, 2], [3, 4]])
    assert m.charpoly() == (Fraction(-2), Fraction(-5), Fraction(1))


def test_discriminant_rejects_prime_mode():
    m = NumberField([1, 0, 1]).embed_matrix(Mat.identity(2))  # over Q(i)
    with pytest.raises(ValueError):
        charpoly_discriminant(m)


def test_random_matrix_contract():
    assert random_matrix(2, 2, 0, 99) == Mat.zero(2)
    assert random_matrix(3, 3, 10, 41) == random_matrix(3, 3, 10, 41)
    assert random_matrix(3, 3, 10, 41) != random_matrix(3, 3, 10, 42)


def test_rank_transpose_invariance():
    rng = random.Random(11)
    for _ in range(30):
        m = random_matrix(3, 5, 6, rng.randint(0, 10 ** 6))
        assert m.rank() == m.transpose().rank()


def _unit_triangular(n, seed, upper):
    rng = random.Random(seed)
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-4, 4))
            if upper:
                rows[i][j] = x
            else:
                rows[j][i] = x
    return Mat.from_rows(rows)


def test_rank_invariant_under_invertible_factors():
    rng = random.Random(13)
    for _ in range(20):
        m = random_matrix(4, 4, 8, rng.randint(0, 10 ** 6))
        p = _unit_triangular(4, rng.randint(0, 10 ** 6), upper=False)
        q = _unit_triangular(4, rng.randint(0, 10 ** 6), upper=True)
        assert (p @ m @ q).rank() == m.rank()


_ENTRY = st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=-9, max_value=9, max_denominator=7))
_SQUARE = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(_SQUARE)
def test_rank_det_inverse_agree_with_sympy(rows):
    m = Mat.from_rows(rows)
    ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                        for r in rows])
    assert m.rank() == ref.rank()
    det = m.det()
    assert sympy.Rational(det.numerator, det.denominator) == ref.det()
    if det:
        inv = m.inverse()
        assert [[sympy.Rational(x.numerator, x.denominator) for x in inv.row(i)]
                for i in range(m.rows)] == ref.inv().tolist()
    else:
        with pytest.raises(SingularMatrixError):
            m.inverse()


def test_distinct_eigenvalues_imply_full_krylov_rank():
    rng = random.Random(19)
    found = 0
    for _ in range(40):
        m = random_matrix(4, 4, 6, rng.randint(0, 10 ** 6))
        if not charpoly_discriminant(m):
            continue
        found += 1
        v = Mat.column([rng.randint(1, 9) for _ in range(4)])
        cols = [v]
        for _ in range(3):
            cols.append(m @ cols[-1])
        assert mat_from_columns(cols).rank() == 4
    assert found > 10


def test_inverse_and_det():
    m = Mat.from_rows([[2, 1], [7, 4]])
    assert m.det() == 1
    assert m @ m.inverse() == Mat.identity(2)
    with pytest.raises(SingularMatrixError):
        E(2, 0, 1).inverse()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_charpoly_constant_term_is_det(rows):
    m = Mat.from_rows(rows)
    p = m.charpoly()
    assert p[0] == ((-1) ** 3) * m.det()
    # Cayley-Hamilton: the matrix satisfies its own characteristic polynomial
    acc = Mat.zero(3)
    power = Mat.identity(3)
    for c in p:
        acc = acc + power * c
        power = power @ m
    assert acc.is_zero()
