import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from crlab import linalg
from crlab.linalg import (Mat, SingularMatrixError, VectorSpan, block_diag,
                          charpoly_discriminant, commutator, mat_from_columns,
                          random_matrix, rref_rows)
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


def _squares(max_n):
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))


def _q(x):
    return sympy.Rational(x.numerator, x.denominator)


def _sympy_matrix(rows):
    return sympy.Matrix([[_q(x) for x in r] for r in rows])


@settings(max_examples=150, deadline=None)
@given(_squares(4))
def test_rank_det_inverse_agree_with_sympy(rows):
    m = Mat.from_rows(rows)
    ref = _sympy_matrix(rows)
    assert m.rank() == ref.rank()
    det = m.det()
    assert _q(det) == ref.det()
    if det:
        inv = m.inverse()
        assert [[_q(x) for x in inv.row(i)] for i in range(m.rows)] == ref.inv().tolist()
    else:
        with pytest.raises(SingularMatrixError):
            m.inverse()


@settings(max_examples=100, deadline=None)
@given(_squares(5))
def test_kernel_basis_spans_sympy_nullspace(rows):
    # the drawn matrix, and a singular one: its last row replaced by the sum of the others
    singular = rows[:-1] + [[sum(r[j] for r in rows[:-1]) for j in range(len(rows))]]
    for r in (rows, singular):
        ours = [sympy.Matrix([_q(x) for x in k.data]) for k in Mat.from_rows(r).kernel_basis()]
        theirs = _sympy_matrix(r).nullspace()
        assert len(ours) == len(theirs)
        if ours:
            assert sympy.Matrix.hstack(*ours).rank() == len(ours)
            assert sympy.Matrix.hstack(*ours, *theirs).rank() == len(ours)


@settings(max_examples=100, deadline=None)
@given(_squares(5))
def test_charpoly_agrees_with_sympy(rows):
    ref = _sympy_matrix(rows).charpoly(sympy.Symbol("x")).all_coeffs()
    assert [_q(c) for c in reversed(Mat.from_rows(rows).charpoly())] == ref


def _matrices(rows, cols):
    """rows-by-cols lists of entries; one draw in five is the zero matrix."""
    drawn = st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols),
                     min_size=rows, max_size=rows)
    return st.one_of(st.just([[Fraction(0)] * cols] * rows), drawn, drawn, drawn, drawn)


def _as_sympy(m):
    return _sympy_matrix([m.row(i) for i in range(m.rows)])


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(1, 5)] * 3).flatmap(
    lambda s: st.tuples(_matrices(s[0], s[1]), _matrices(s[1], s[2]))))
def test_product_agrees_with_sympy(pair):
    a, b = pair
    assert _as_sympy(Mat.from_rows(a) @ Mat.from_rows(b)) == _sympy_matrix(a) * _sympy_matrix(b)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(_matrices(n, n), _matrices(n, n))))
def test_commutator_agrees_with_sympy(pair):
    a, b = _sympy_matrix(pair[0]), _sympy_matrix(pair[1])
    assert _as_sympy(commutator(*map(Mat.from_rows, pair))) == a * b - b * a


def _rref_case(rows):
    """rref_rows on a copy, recording whether the integer path ran."""
    work = [list(r) for r in rows]
    with mock.patch.object(linalg, "_rref_integer", wraps=linalg._rref_integer) as spy:
        pivots = rref_rows(work)
    return work, pivots, spy.called


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(_ENTRY, min_size=n, max_size=n), min_size=1, max_size=5)))
def test_rref_rows_agrees_with_sympy(rows):
    # a dependent row forces a zero row; the integer-valued copy takes the field path
    rows = rows + [[a - 2 * b for a, b in zip(rows[0], rows[-1])]]
    for case in (rows, [[Fraction(x.numerator) for x in r] for r in rows]):
        work, pivots, integer_path = _rref_case(case)
        assert integer_path == any(x.denominator != 1 for r in case for x in r)
        assert all(isinstance(x, Fraction) for r in work for x in r)
        ref, ref_pivots = _sympy_matrix(case).rref()
        assert pivots == list(ref_pivots)
        assert _sympy_matrix(work) == ref


def test_rref_rows_over_q_i_keeps_the_field_path():
    i = _QI.theta()
    half = _QI.element([Fraction(1, 2)])
    rows = [[half, i * half, _QI.one(), _QI.zero()],
            [i, -_QI.one(), _QI.element([Fraction(1, 3), Fraction(2, 7)]), half]]
    rows.append([a + i * half * b for a, b in zip(*rows)])  # rank 2: a zero row
    work, pivots, integer_path = _rref_case(rows)
    assert not integer_path

    def gaussian(rows):
        return sympy.Matrix([[_q(x.coeffs[0]) + _q(x.coeffs[1]) * sympy.I for x in r]
                             for r in rows])

    ref, ref_pivots = gaussian(rows).rref(simplify=True)
    assert pivots == list(ref_pivots)
    assert (gaussian(work) - ref).expand() == sympy.zeros(*ref.shape)


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


def test_block_diag():
    a = Mat.from_rows([[1, 2], [3, 4]])
    assert block_diag(a, Mat.from_rows([[5]])) == \
        Mat.from_rows([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
    assert block_diag(Mat.zero(0), a) == a
    # over Q(i): the zero blocks come from the second block's field
    qi = NumberField([1, 0, 1])
    rot = Mat(2, 2, [qi.zero(), -qi.theta(), qi.theta(), qi.zero()])
    m = block_diag(qi.embed_matrix(Mat.identity(1)), rot)
    assert all(x.field == qi for x in m.data)
    assert m[0, 1] == qi.zero() and m[1, 2] == -qi.theta()
    assert m @ m == block_diag(qi.embed_matrix(Mat.identity(1)), qi.embed_matrix(Mat.identity(2)))


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


# -- the span engine: VectorSpan.add against one batch rref_rows ------------------

_QI = NumberField([1, 0, 1])


def _rank(vectors):
    """Rank by Bareiss elimination over Q; a Q(i) vector v = a + ib enters as
    the rational rows of v and i*v, which doubles the rank."""
    if not vectors:
        return 0
    if isinstance(vectors[0][0], Fraction):
        return Mat.from_rows(vectors).rank()
    i = _QI.theta()
    real = [[c for x in u for c in x.coeffs]
            for v in vectors for u in (v, [i * x for x in v])]
    return Mat.from_rows(real).rank() // 2


def _check_span_engine(vectors, probes):
    # a duplicate and a combination make some additions dependent
    vectors = vectors + [vectors[0], [a + 3 * b for a, b in zip(vectors[0], vectors[-1])]]
    span = VectorSpan(len(vectors[0]))
    grew = [span.add(v) for v in vectors]
    work = [list(v) for v in vectors]
    pivots = rref_rows(work)
    assert span.pivots == pivots
    assert span.rows == work[:len(pivots)]
    assert grew == [_rank(vectors[:i + 1]) > _rank(vectors[:i])
                    for i in range(len(vectors))]
    for w in vectors + probes:
        assert span.contains(w) == (_rank(vectors + [w]) == len(pivots))


def _span_cases(entry, max_len):
    return st.integers(1, max_len).flatmap(lambda n: st.tuples(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6),
        st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3)))


@settings(max_examples=150, deadline=None)
@given(_span_cases(_ENTRY, 6))
def test_span_add_matches_batch_rref(case):
    _check_span_engine(*case)


@settings(max_examples=30, deadline=None)
@given(_span_cases(st.lists(_ENTRY, min_size=2, max_size=2).map(_QI.element), 3))
def test_span_add_matches_batch_rref_over_q_i(case):
    _check_span_engine(*case)
