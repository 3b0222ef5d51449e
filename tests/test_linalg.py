import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from crlab import verify
from crlab.commrank import compression_split, max_commutator_rank
from crlab.constructions import extremal_space, rank_one_max_space
from crlab.invariant_spaces import InvariantSpaceSpec, search_max_dimension
from crlab.linalg import (Mat, SingularMatrixError, VectorSpan, adapted_basis, block_diag,
                          commutator, invariant_split, mat_from_columns, random_matrix)
from crlab.numberfield import NumberField, coefficients
from crlab.subspace import span
from crlab.triangularize import classify_rank_one_family


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


def test_charpoly_known_matrix():
    m = Mat.from_rows([[1, 2], [3, 4]])
    assert m.charpoly() == (Fraction(-2), Fraction(-5), Fraction(1))


def test_products_and_charpoly_with_an_empty_dimension():
    assert Mat(1, 0, []) @ Mat(0, 1, []) == Mat.zero(1)
    assert Mat(2, 0, []) @ Mat(0, 3, []) == Mat.zero(2, 3)
    assert Mat(0, 2, []) @ Mat.zero(2, 3) == Mat(0, 3, [])
    assert Mat(0, 0, []).charpoly() == (Fraction(1),)
    assert Mat(0, 0, []).det() == Fraction(1)
    assert Mat(0, 0, []).trace() == Fraction(0)
    empty = Mat(0, 0, [])
    assert commutator(empty, empty) == empty
    assert empty.is_scalar_matrix()
    assert block_diag(Mat.identity(2), empty) == Mat.identity(2)
    assert block_diag(empty, Mat.identity(2)) == Mat.identity(2)
    with pytest.raises(ValueError):
        mat_from_columns([])


def test_is_scalar_matrix():
    half = Mat.identity(3) * Fraction(1, 2)
    assert half.is_scalar_matrix() and (half @ half).is_scalar_matrix()
    assert Mat.zero(2).is_scalar_matrix()
    assert not Mat.diagonal([1, 2]).is_scalar_matrix()
    assert not (Mat.identity(2) + E(2, 0, 1)).is_scalar_matrix()
    assert not (Mat.identity(2) + E(2, 1, 0)).is_scalar_matrix()
    assert not Mat.zero(2, 3).is_scalar_matrix()
    qi = NumberField([1, 0, 1])
    assert qi.embed_matrix(Mat.identity(2)).is_scalar_matrix()
    assert not qi.embed_matrix(Mat.diagonal([1, 0])).is_scalar_matrix()


def _rational_square(n, rng):
    """An n-by-n matrix with about one zero entry in three and denominators
    up to 12."""
    return Mat(n, n, [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                      if rng.random() > 0.3 else Fraction(0) for _ in range(n * n)])


def test_charpoly_with_denominators_agrees_with_sympy():
    rng = random.Random(71)
    for n in range(1, 8):
        for _ in range(5):
            m = _rational_square(n, rng)
            ref = _as_sympy(m).charpoly(sympy.Symbol("x")).all_coeffs()
            assert [_q(c) for c in reversed(m.charpoly())] == ref


_SQRT2 = NumberField([-2, 0, 1])


def test_charpoly_over_q_equals_the_field_loop_in_q_sqrt2():
    rng = random.Random(73)
    for n in range(1, 7):
        for _ in range(3):
            m = _rational_square(n, rng)
            ours = _SQRT2.embed_matrix(m).charpoly()
            assert ours == tuple(_SQRT2.embed(c) for c in m.charpoly())
            assert all(x.mod == _SQRT2.one().mod for x in ours)
    # and on a matrix that is not rational: [[r, 1], [0, -r]], r^2 = 2
    r, o, z = _SQRT2.theta(), _SQRT2.one(), _SQRT2.zero()
    assert Mat(2, 2, [r, o, z, -r]).charpoly() == (-2 * o, z, o)


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
    ours = Mat.from_rows(a) @ Mat.from_rows(b)
    assert _as_sympy(ours) == _sympy_matrix(a) * _sympy_matrix(b)
    _assert_canonical(ours)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(_matrices(n, n), _matrices(n, n))))
def test_commutator_agrees_with_sympy(pair):
    a, b = _sympy_matrix(pair[0]), _sympy_matrix(pair[1])
    ours = commutator(*map(Mat.from_rows, pair))
    assert _as_sympy(ours) == a * b - b * a
    _assert_canonical(ours)


# -- the canonical form: chained rational products against sympy ----------------

def _assert_canonical(m):
    """m is its canonical form: a positive scale coprime to the int
    entries, and equal, with an equal hash, to the matrix built from its
    scalars."""
    assert m.scale > 0 and all(type(x) is int for x in m.entries)
    assert math.gcd(m.scale, *m.entries) == 1
    plain = Mat(m.rows, m.cols, m.data)
    assert (plain.scale, plain.entries) == (m.scale, m.entries)
    assert plain == m and hash(plain) == hash(m)


def _unimodular_times_primes(n, seed):
    """P = U diag(1, 2, 3, 5, 7) with U unimodular, so P^{-1} has denominators."""
    u = _unit_triangular(n, seed, upper=False) @ _unit_triangular(n, seed + 1, upper=True)
    return u @ Mat.diagonal([1, 2, 3, 5, 7][:n])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.integers(0, 10 ** 6), _matrices(n, n), _matrices(n, n))))
def test_chained_rational_products_agree_with_sympy(case):
    seed, a_rows, b_rows = case
    p = _unimodular_times_primes(len(a_rows), seed)
    p_inv = p.inverse()
    a, b = Mat.from_rows(a_rows), Mat.from_rows(b_rows)
    sp, sa, sb = _as_sympy(p), _sympy_matrix(a_rows), _sympy_matrix(b_rows)
    ref_a, ref_b = sp.inv() * sa * sp, sp.inv() * sb * sp
    conj_a, conj_b = p_inv @ a @ p, p_inv @ b @ p
    assert _as_sympy(conj_a) == ref_a and _as_sympy(conj_b) == ref_b
    # commutators of product results, and a chain back through them
    c = commutator(conj_a, conj_b)
    assert _as_sympy(c) == ref_a * ref_b - ref_b * ref_a
    assert _as_sympy(p @ c @ p_inv) == sa * sb - sb * sa
    assert c.rank() == _as_sympy(c).rank()
    assert _q(conj_a.det()) == ref_a.det()
    for m in (p, p_inv @ a, conj_a, conj_b, c, commutator(c, conj_a)):
        _assert_canonical(m)


def _fraction_product(x, y):
    return [[sum((a * b for a, b in zip(r, c)), Fraction(0)) for c in zip(*y)] for r in x]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[_matrices(n, n)] * 3)))
def test_a_product_equals_the_matrix_built_from_its_entries(case):
    a_rows, b_rows, c_rows = case
    a, b, c = map(Mat.from_rows, case)
    ab = _fraction_product(a_rows, b_rows)
    ab_c, c_ab = _fraction_product(ab, c_rows), _fraction_product(c_rows, ab)
    comm = [[x - y for x, y in zip(r, s)] for r, s in zip(ab_c, c_ab)]
    for product, rows in ((a @ b, ab), (a @ b @ c, ab_c), (commutator(a @ b, c), comm)):
        built = Mat.from_rows(rows)
        _assert_canonical(product)
        assert (product.scale, product.entries) == (built.scale, built.entries)
        assert product == built and hash(product) == hash(built)
        assert product.rank() == built.rank()
        assert product.data == built.data == tuple(x for r in rows for x in r)


@settings(max_examples=80, deadline=None)
@given(_squares(5), st.booleans())
def test_zero_and_triangular_tests_agree_on_the_kept_form(rows, lower_zero):
    if lower_zero:
        rows = [[x if j >= i else Fraction(0) for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
    n = len(rows)
    formed = Mat.from_rows(rows)
    unit = Mat.identity(n)
    for m in (formed, unit @ formed, Mat.zero(n) @ formed):
        plain = Mat(n, n, m.data)  # built from the scalars, not by a kernel
        assert m.is_zero() == plain.is_zero() == (not any(m.data))
        assert m.is_upper_triangular() == plain.is_upper_triangular()
    assert formed.is_upper_triangular() or not lower_zero


def test_int_entries_are_rational():
    m = Mat(2, 2, [2, 1, 1, 1])
    assert m.charpoly() == (1, -3, 1)
    assert all(type(c) is Fraction for c in m.charpoly())
    assert m.det() == 1 and type(m.det()) is Fraction
    assert m == Mat.from_rows([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert m.inverse() == Mat.from_rows([[1, -1], [-1, 2]])
    cases = {((2, 1), (1, 1)): ([[1, 0], [0, 1]], [0, 1]),
             ((2, 4, 1), (1, 2, 0)): ([[1, 2, 0], [0, 0, 1]], [0, 2]),
             ((3, 1), (6, 2)): ([[1, Fraction(1, 3)], [0, 0]], [0]),
             ((0, 0, 5),): ([[0, 0, 1]], [2])}
    for rows, (want, want_pivots) in cases.items():
        span = VectorSpan(len(rows[0]), rows)
        assert span.pivots == want_pivots
        assert all(type(x) is int for r in span.entries for x in r)
        assert [[Fraction(x, span.scale) for x in r] for r in span.entries] == want[:span.dim]
    for bad in ([0.5], [1, 2.0], ["1"]):
        with pytest.raises(TypeError):
            Mat(1, len(bad), bad)
    with pytest.raises(TypeError):
        Mat.identity(2) * 0.5
    with pytest.raises(TypeError):
        VectorSpan(2, [[1, 0.5]])


def test_getitem_checks_its_index():
    m = Mat.from_rows([[1, 2, 3], [4, 5, 6]])
    assert [m[i, j] for i in range(2) for j in range(3)] == [1, 2, 3, 4, 5, 6]
    for ij in ((0, 3), (1, -1), (0, -1), (2, 0), (-1, 0)):
        with pytest.raises(IndexError):
            m[ij]


def test_row_and_unit_check_their_index():
    m = Mat.from_rows([[1, 2, 3], [4, 5, 6]])
    assert [m.row(i) for i in range(2)] == [(1, 2, 3), (4, 5, 6)]
    for i in (2, 5, -1):
        with pytest.raises(IndexError):
            m.row(i)
    assert Mat.unit(2, 1, 0) == Mat.from_rows([[0, 0], [1, 0]])
    for i, j in ((2, 0), (-1, 0), (0, 2), (0, -1)):
        with pytest.raises(IndexError):
            Mat.unit(2, i, j)


def test_block_diag_needs_square_blocks():
    with pytest.raises(ValueError):
        block_diag(Mat.from_rows([[1, 2]]), Mat.identity(1))
    with pytest.raises(ValueError):
        block_diag(Mat.identity(1), Mat.from_rows([[1], [2]]))


def test_span_checks_vector_lengths():
    with pytest.raises(ValueError, match="length 2 .* length 3"):
        VectorSpan(3, [[1, 2]])
    span = VectorSpan(3, [[1, 0, 0]])
    for vec in ([1, 0], [1, 0, 0, 0], Mat.identity(2)):
        with pytest.raises(ValueError, match="length 3"):
            span.contains(vec)
        with pytest.raises(ValueError, match="length 3"):
            span.add(vec)
    assert span.dim == 1 and span.contains(Mat.column([2, 0, 0]))


def test_block_checks_its_bounds():
    eye = Mat.identity(3)
    assert eye.block(1, 1, 0, 3).rows == 0 and eye.block(0, 3, 2, 2).cols == 0
    assert eye.block(1, 3, 0, 3).rank() == 2
    for bounds in ((0, 4, 0, 1), (0, 1, 0, 4), (2, 1, 0, 1), (0, 1, 2, 1),
                   (-1, 1, 0, 1), (0, 1, -1, 1)):
        with pytest.raises(ValueError):
            eye.block(*bounds)


def _conjugated(v, seed):
    """v conjugated by a seeded integer matrix, whose inverse brings denominators."""
    rng = random.Random(seed)
    while True:
        q = random_matrix(v.n, v.n, 3, rng.randint(0, 10 ** 9))
        if q.det():
            w = v.conjugate(q)
            assert w.integer_basis()[0] > 1
            return w


def _splits_at_its_core(v):
    """Does v split at its 2-dimensional core, tops included?"""
    split = compression_split(v.basis, commutator(*max_commutator_rank(v, 8, 0).witness))
    return split.dim == 2 and len(split.tops()) == len(split.quotients) == v.dim


@pytest.mark.parametrize("case", [
    (lambda: _conjugated(rank_one_max_space(4, "generic", 1), 5),
     lambda v: classify_rank_one_family(v).side != "ZERO"),
    (lambda: _conjugated(extremal_space(5, 2, 1), 6), _splits_at_its_core),
    # the diagonal span's RREF rows are e_x + e_2 / 2
    (lambda: InvariantSpaceSpec(3, frozenset({(1, 0)}), ((0, 1, 2),), frozenset({(1, 0)})),
     lambda spec: spec.realize().integer_basis()[0] == 2),
    (lambda: 5, lambda n: search_max_dimension(n, 2).matches_bound),
    (lambda: _conjugated(extremal_space(5, 2, 1), 6),
     lambda v: verify.structure_check(v, 20, 0).status == "MATCHES_VK"),
], ids=["classify_rank_one_family", "commutator_core", "spec_realize", "search",
        "structure_check"])
def test_no_fraction_between_kernels(monkeypatch, case):
    # a Fraction is built only where a scalar leaves the library (data,
    # __getitem__, row, trace, det, charpoly, serialize, sympy hand-offs)
    build, call = case
    given = build()
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    ok = call(given)
    monkeypatch.undo()
    assert ok and made == []


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda s: st.tuples(
    _matrices(*s), _matrices(*s), _ENTRY, _matrices(s[0], s[0]), _matrices(s[1], s[1]),
    st.integers(0, s[0]), st.integers(0, s[0]), st.integers(0, s[1]), st.integers(0, s[1]))))
def test_entrywise_ops_blocks_and_block_diag_agree_with_sympy(case):
    a_rows, b_rows, c, sq_rows, sq2_rows, r0, r1, c0, c1 = case
    a, b, sq, sq2 = map(Mat.from_rows, (a_rows, b_rows, sq_rows, sq2_rows))
    sa, sb, ssq, ssq2 = map(_sympy_matrix, (a_rows, b_rows, sq_rows, sq2_rows))
    r0, r1, c0, c1 = min(r0, r1), max(r0, r1), min(c0, c1), max(c0, c1)
    checks = [(a + b, sa + sb), (a - b, sa - sb), (-a, -sa), (a * c, sa * _q(c)),
              (c * a, sa * _q(c)), (a.transpose(), sa.T),
              (block_diag(sq, sq2), sympy.diag(ssq, ssq2))]
    if r1 > r0 and c1 > c0:
        checks.append((a.block(r0, r1, c0, c1), sa[r0:r1, c0:c1]))
    for ours, ref in checks:
        _assert_canonical(ours)
        assert _as_sympy(ours) == ref
    assert a.block(r0, r1, c0, c1).rows == r1 - r0 and a.block(r0, r1, c0, c1).cols == c1 - c0


_CBRT2 = NumberField([-2, 0, 0, 1])


def _over_cbrt2(rows, cols):
    """rows-by-cols lists of elements of Q(cbrt 2); one entry in three is zero."""
    coeffs = st.lists(_ENTRY, min_size=1, max_size=3)
    entry = st.one_of(st.just(()), coeffs, coeffs).map(_CBRT2.element)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _domain_matrix(rows):
    """sympy's DomainMatrix over QQ<cbrt 2>; rational entries are embedded."""
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix([[_CBRT2.embed(x) for x in r] for r in rows],
                        (len(rows), len(rows[0])), _CBRT2.domain)


def _domain_rows(m):
    """The rows of a matrix over Q(cbrt 2) as sympy domain elements; every
    entry must be a field element (a kernel sum started from the int 0 too)."""
    assert all(x.mod == _CBRT2.one().mod for x in m.data)
    return [list(m.row(i)) for i in range(m.rows)]


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(1, 5)] * 3).flatmap(lambda s: st.tuples(
    _over_cbrt2(s[0], s[1]), _over_cbrt2(s[1], s[2]), _matrices(s[0], s[1]))))
def test_product_over_a_number_field_agrees_with_sympy(case):
    a, b, q = case
    # a rational left factor, as in P^{-1} A, enters the field products as is
    for left in (a, q):
        ours = Mat.from_rows(left) @ Mat.from_rows(b)
        assert _domain_rows(ours) == (_domain_matrix(left) * _domain_matrix(b)).to_list()


def _mostly_zero(rows, cols, field):
    """rows-by-cols lists from a drawn seed, each entry zero with
    probability 0.8, as in echelon and adapted bases: elements of Q(cbrt 2)
    when ``field``, else rationals."""
    def build(seed):
        rng = random.Random(seed)

        def rational():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

        def entry():
            if rng.random() < 0.8:
                return _CBRT2.zero() if field else Fraction(0)
            return _CBRT2.element([rational(), rational()]) if field else rational()
        return [[entry() for _ in range(cols)] for _ in range(rows)]
    return st.integers(0, 2 ** 32).map(build)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(1, 6)] * 3).flatmap(lambda s: st.tuples(
    _over_cbrt2(s[0], s[1]), _matrices(s[1], s[2]),
    *(_mostly_zero(r, c, field) for field in (True, False) for r, c in ((s[0], s[1]), (s[1], s[2]))))))
def test_products_with_a_rational_right_factor_or_mostly_zero_operands_agree_with_sympy(case):
    a, q, za, zb, zq, zr = case  # z: mostly zeros, over Q(cbrt 2) (za, zb) or Q (zq, zr)
    # a field left factor times a rational right one is P^{-1} A of the
    # triangularizer's check; every entry of a product with a field operand
    # is a field element, rows of zeros included
    for left, right in ((a, q), (za, zr), (a, zr), (za, zb), (zq, zb)):
        ours = Mat.from_rows(left) @ Mat.from_rows(right)
        assert all(type(x) is type(_CBRT2.one()) for x in ours.entries)
        assert _domain_rows(ours) == (_domain_matrix(left) * _domain_matrix(right)).to_list()
    ours = Mat.from_rows(zq) @ Mat.from_rows(zr)
    assert _as_sympy(ours) == _sympy_matrix(zq) * _sympy_matrix(zr)
    _assert_canonical(ours)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(_over_cbrt2(n, n), _over_cbrt2(n, n))))
def test_commutator_over_a_number_field_agrees_with_sympy(pair):
    a, b = map(_domain_matrix, pair)
    ours = commutator(*map(Mat.from_rows, pair))
    assert _domain_rows(ours) == (a * b - b * a).to_list()


def _gaussian(rows):
    """Rows of Q(i) elements as a sympy matrix over the Gaussian rationals."""
    return sympy.Matrix([[_q(a) + _q(b) * sympy.I for a, b in map(coefficients, r)] for r in rows])


def _assert_span_is_sympy_rref(span, vectors):
    """The span's pivots and its RREF rows entries[p] / scale, read through
    ``members``, are those of sympy's RREF of the vectors (rows past the
    rank are zero there)."""
    rational = all(isinstance(x, (int, Fraction)) for v in vectors for x in v)
    as_sympy = _sympy_matrix if rational else _gaussian
    ref, ref_pivots = as_sympy(vectors).rref(simplify=not rational)
    assert span.pivots == list(ref_pivots)
    rows = [list(m.data) for m in span.members(1, span.length)]
    if rational:
        assert all(type(x) is Fraction for r in rows for x in r)
    else:
        assert all(x.mod == _QI.one().mod for r in rows for x in r)  # the rows stay in Q(i)
    ours = sympy.zeros(*ref.shape)
    for p, r in enumerate(rows):
        ours[p, :] = as_sympy([r])
    assert (ours - ref).expand() == sympy.zeros(*ref.shape)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(_ENTRY, min_size=n, max_size=n), min_size=1, max_size=5)))
def test_span_rref_agrees_with_sympy(rows):
    # a dependent row forces a zero row; rational rows, integer-valued or
    # not, are kept as ints
    rows = rows + [[a - 2 * b for a, b in zip(rows[0], rows[-1])]]
    for case in (rows, [[Fraction(x.numerator) for x in r] for r in rows]):
        span = VectorSpan(len(case[0]), case)
        assert all(type(x) is int for r in span.entries for x in r)
        _assert_span_is_sympy_rref(span, case)


def test_span_rref_over_q_i_keeps_the_field_path():
    i = _QI.theta()
    half = _QI.element([Fraction(1, 2)])
    rows = [[half, i * half, _QI.one(), _QI.zero()],
            [i, -_QI.one(), _QI.element([Fraction(1, 3), Fraction(2, 7)]), half]]
    rows.append([a + i * half * b for a, b in zip(*rows)])  # rank 2: a zero row
    span = VectorSpan(4, rows)
    assert span.scale == 1 and span.dim == 2
    _assert_span_is_sympy_rref(span, rows)


def test_distinct_eigenvalues_imply_full_krylov_rank():
    rng = random.Random(19)
    found = 0
    for _ in range(40):
        m = random_matrix(4, 4, 6, rng.randint(0, 10 ** 6))
        if not _as_sympy(m).charpoly().discriminant():  # a repeated eigenvalue
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
    with pytest.raises(SingularMatrixError):
        Mat.from_rows([[1, 2, 3], [4, 5, 6]]).inverse()  # not square
    for dependent in ([[1, 2, 0], [2, 4, 0]], [[0, 0, 0]]):
        with pytest.raises(SingularMatrixError):
            adapted_basis(dependent, 3)


def test_string_and_float_entries_are_refused():
    for entries in (["0.5", "1e3"], ["1/2"], [0.5]):
        with pytest.raises(TypeError):
            Mat.from_rows([entries])
    with pytest.raises(TypeError):
        Mat.column(["1"])


def _reference_completion(vectors, n):
    """[v_1 ... v_k | e_i ...] by sympy: e_i joins exactly when it raises
    the rank of the columns before it."""
    cols = [sympy.Matrix(v) for v in vectors]
    for i in range(n):
        e = sympy.Matrix([int(j == i) for j in range(n)])
        if sympy.Matrix.hstack(*cols, e).rank() > len(cols):
            cols.append(e)
    return sympy.Matrix.hstack(*cols)


@settings(max_examples=60, deadline=None)
@given(_squares(5))
def test_adapted_basis_agrees_with_sympy(rows):
    # every k = 0..n; entries are zero half the time, so the completion varies
    n = len(rows)
    for k in range(n + 1):
        vectors = rows[:k]
        if k and _sympy_matrix(vectors).rank() < k:
            with pytest.raises(SingularMatrixError):
                adapted_basis(vectors, n)
            continue
        p, p_inv = adapted_basis(vectors, n)
        ref = _reference_completion([[_q(x) for x in v] for v in vectors], n)
        assert _sympy_matrix(p.row(i) for i in range(n)) == ref
        assert _sympy_matrix(p_inv.row(i) for i in range(n)) == ref.inv()
        assert p @ p_inv == Mat.identity(n)


def test_adapted_basis_over_q_sqrt2():
    k2 = NumberField([-2, 0, 1])
    r, o, z = k2.theta(), k2.one(), k2.zero()
    vectors = [[z, r, o, z], [z, o, r, z]]  # independent: r^2 - 1 = 1

    def sym(x):
        return sum(int(c.numerator) / sympy.Integer(int(c.denominator)) * sympy.sqrt(2) ** i
                   for i, c in enumerate(reversed(x.to_list())))

    p, p_inv = adapted_basis(vectors, 4)
    ref = _reference_completion([[sym(x) for x in v] for v in vectors], 4)
    assert sympy.Matrix(4, 4, [sym(x) for x in p.data]) == ref  # [v_1 v_2 e_1 e_4]
    assert all(x.mod == r.mod for x in p.data + p_inv.data)
    eye = k2.embed_matrix(Mat.identity(4))
    assert p @ p_inv == eye and p_inv @ p == eye
    with pytest.raises(SingularMatrixError):
        adapted_basis(vectors + [[z, r + o, o + r, z]], 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.integers(1, 3), st.booleans(), st.booleans(),
    st.integers(0, 10 ** 6))))
def test_invariant_split_is_the_block_form_of_an_adapted_basis(case):
    # W = Q span(e_1..e_k) for a random family Q T Q^{-1}, T block upper
    # triangular unless one is told to move W; over Q and over Q(sqrt 2)
    n, k, count, move, over_field, seed = case
    rng = random.Random(seed)

    def entry():
        x = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        return _SQRT2.element([x, rng.randint(-2, 2)]) if over_field else x

    def matrix(fixes_w):
        return Mat(n, n, [0 if fixes_w and i >= k > j else entry()
                          for i in range(n) for j in range(n)])

    q = matrix(False)
    while not q.det():
        q = matrix(False)
    q_inv = q.inverse()
    mats = [q @ matrix(not (move and i == 0)) @ q_inv for i in range(count)]
    basis = [q.block(0, n, j, j + 1) for j in range(k)]
    span_w = VectorSpan(n, basis)
    moved = any(not span_w.contains(a @ u) for a in mats for u in basis)
    split = invariant_split(mats, basis, n)
    assert (split is None) == moved
    if split is not None:
        p, p_inv = adapted_basis(basis, n)
        assert (split.p, split.p_inv, split.dim) == (p, p_inv, k)
        blocks = [p_inv @ a @ p for a in mats]
        assert split.tops() == [b.block(0, k, 0, k) for b in blocks]
        assert split.quotients == [b.block(k, n, k, n) for b in blocks]
        assert all(b.block(k, n, 0, k).is_zero() for b in blocks)


def test_block_diag():
    a = Mat.from_rows([[1, 2], [3, 4]])
    assert block_diag(a, Mat.from_rows([[5]])) == \
        Mat.from_rows([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
    assert block_diag(Mat.zero(0), a) == a
    # over Q(i): the zero blocks come from the second block's field
    qi = NumberField([1, 0, 1])
    rot = Mat(2, 2, [qi.zero(), -qi.theta(), qi.theta(), qi.zero()])
    m = block_diag(qi.embed_matrix(Mat.identity(1)), rot)
    assert all(x.mod == qi.theta().mod for x in m.data)
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


# -- the span engine: VectorSpan.add against one batch VectorSpan ----------------

_QI = NumberField([1, 0, 1])


def _rank(vectors):
    """Rank by Bareiss elimination over Q; a Q(i) vector v = a + ib enters as
    the rational rows of v and i*v, which doubles the rank."""
    if not vectors:
        return 0
    if isinstance(vectors[0][0], Fraction):
        return Mat.from_rows(vectors).rank()
    i = _QI.theta()
    real = [[c for x in u for c in coefficients(x)]
            for v in vectors for u in (v, [i * x for x in v])]
    return Mat.from_rows(real).rank() // 2


def _as_mats(v):
    """v as a 1-by-n and as an n-by-1 Mat, the shapes VectorSpan reads row-major."""
    return Mat(1, len(v), v), Mat(len(v), 1, v)


def _check_span_engine(vectors, probes):
    # a duplicate and a combination make some additions dependent
    vectors = vectors + [vectors[0], [a + 3 * b for a, b in zip(vectors[0], vectors[-1])]]
    batch = VectorSpan(len(vectors[0]), vectors)
    _assert_span_is_sympy_rref(batch, vectors)
    grew = [_rank(vectors[:i + 1]) > _rank(vectors[:i]) for i in range(len(vectors))]
    inside = [_rank(vectors + [w]) == batch.dim for w in vectors + probes]
    # the same span grown from lists, from rows and from columns, each from empty
    for shape in (list, lambda v: _as_mats(v)[0], lambda v: _as_mats(v)[1]):
        span = VectorSpan(len(vectors[0]))
        assert [span.add(shape(v)) for v in vectors] == grew
        assert (span.pivots, span.scale, span.entries) == (batch.pivots, batch.scale,
                                                           batch.entries)
        for w, want in zip(vectors + probes, inside):
            assert [span.contains(x) for x in (w, *_as_mats(w))] == [want] * 3


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


@settings(max_examples=150, deadline=None)
@given(_span_cases(_ENTRY, 7))
def test_span_contains_and_add_agree_with_sympy_rank(case):
    vectors, probes = case
    # a rational combination of the first and last vector lies in the span
    vectors = vectors + [[a / 3 - b * Fraction(5, 7) for a, b in zip(vectors[0], vectors[-1])]]

    def rank(vs):
        return _sympy_matrix(vs).rank() if vs else 0

    ranks = [rank(vectors[:i]) for i in range(len(vectors) + 1)]
    inside = [rank(vectors + [w]) == ranks[-1] for w in probes]
    # grown from lists, from rows and from columns: the first add is to an empty span
    for as_vector in (list, lambda v: _as_mats(v)[0], lambda v: _as_mats(v)[1]):
        span = VectorSpan(len(vectors[0]))
        for v, before, after in zip(vectors, ranks, ranks[1:]):
            assert [span.contains(x) for x in (v, *_as_mats(v))] == [after == before] * 3
            assert span.add(as_vector(v)) == (after > before)
            assert span.dim == after
        for w, want in zip(probes, inside):
            assert [span.contains(x) for x in (w, *_as_mats(w))] == [want] * 3
