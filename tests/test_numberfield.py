from fractions import Fraction

import pytest
from sympy.polys.polyerrors import NotInvertible, UnificationFailed

from crlab.linalg import Mat, block_diag
from crlab.numberfield import NumberField, adjoin_root, coefficients, irreducible_factors
from crlab.subspace import span
from crlab.triangularize import triangularize_rank_one, verify_triangular

F = Fraction


def _roots(coeffs, field=None):
    """The roots in Q (``field=None``) or in the field: one per linear
    factor x - r of irreducible_factors, in its order."""
    return [-f[0] for f, _ in irreducible_factors(coeffs, field) if len(f) == 2]


def _value(p, x, field):
    """p(x) over the field, p little-endian with rational or field coefficients."""
    acc = field.zero()
    for c in reversed(p):
        acc = acc * x + field.embed(c)
    return acc


def test_gaussian_arithmetic():
    K = NumberField([1, 0, 1])  # x^2 + 1
    i = K.theta()
    assert i * i == K.from_rational(-1)
    assert (1 + i) * (1 - i) == K.from_rational(2)
    assert (K.one() / (1 + i)) * (1 + i) == K.one()
    assert not K.zero()
    with pytest.raises(NotInvertible):
        K.one() / K.zero()


def test_field_guards():
    with pytest.raises(ValueError):
        NumberField([1, 1])  # degree 1 is just Q
    with pytest.raises(ValueError):
        NumberField([1, 0, 1]).element((1, 2, 3))  # more coefficients than the degree
    K1 = NumberField([1, 0, 1])
    K2 = NumberField([-2, 0, 1])
    with pytest.raises(UnificationFailed):
        K1.theta() + K2.theta()


def test_rational_roots():
    # over Q, the linear factors list the rational roots in increasing order
    # (x - 2)(x + 3)
    assert _roots((F(-6), F(1), F(1))) == [F(-3), F(2)]
    # x^2 + 1 has none
    assert _roots((F(1), F(0), F(1))) == []
    # (2x - 1)^2, listed once
    assert _roots((F(1), F(-4), F(4))) == [F(1, 2)]


def test_irreducible_factors():
    factors = irreducible_factors((F(-1), F(0), F(0), F(0), F(1)))  # x^4 - 1
    degs = [len(f) - 1 for f, _ in factors]
    assert degs == [1, 1, 2]
    assert [-f[0] for f, _ in factors[:2]] == [F(-1), F(1)]  # increasing roots
    for f, mult in factors:
        assert f[-1] == 1 and mult == 1


def test_irreducible_factors_over_a_field():
    K = NumberField([-2, 0, 0, 1])  # Q(2^(1/3))
    factors = irreducible_factors((F(-2), F(0), F(0), F(1)), K)
    assert [len(f) - 1 for f, _ in factors] == [1, 2]
    assert factors[0][0] == (-K.theta(), K.one())
    quadratic = factors[1][0]
    assert quadratic == (K.theta() * K.theta(), K.theta(), K.one())


def test_roots_in_extension():
    K = NumberField([1, 0, 1])
    roots = _roots((F(1), F(0), F(1)), K)  # x^2 + 1 splits in Q(i)
    assert len(roots) == 2
    i = K.theta()
    assert set(roots) == {i, -i}

    K2 = NumberField([-2, 0, 1])
    roots = _roots((F(-2), F(0), F(1)), K2)
    assert len(roots) == 2 and all(r * r == K2.from_rational(2) for r in roots)


def test_sqrt_in_field():
    # square roots in Q(sqrt 2) are the roots of x^2 - d over the field
    K = NumberField([-2, 0, 1])
    roots = _roots((F(-8), F(0), F(1)), K)
    assert len(roots) == 2 and all(s * s == K.from_rational(8) for s in roots)
    assert _roots((F(-3), F(0), F(1)), K) == []
    # sqrt of a non-rational element: 3 + 2*sqrt(2) = (1 + sqrt(2))^2
    d = K.element((F(3), F(2)))
    roots = _roots((-d, K.zero(), K.one()), K)
    assert set(roots) == {K.one() + K.theta(), -K.one() - K.theta()}


def test_cubic_over_q_i_has_no_roots():
    # x^3 + 2 stays irreducible over Q(i): the root search is complete and
    # finds none (it used to stop at quadratic residuals)
    K = NumberField([1, 0, 1])
    assert _roots((F(2), F(0), F(0), F(1)), K) == []
    factors = irreducible_factors((F(2), F(0), F(0), F(1)), K)
    assert [(len(f) - 1, mult) for f, mult in factors] == [(3, 1)]


def test_adjoin_root_over_q():
    L, alpha = adjoin_root((F(-2), F(0), F(1)))
    assert L.degree == 2 and L.parent is None
    assert alpha == L.theta() and alpha * alpha == L.from_rational(2)


@pytest.mark.parametrize("m, g_of", [
    # Q(2^(1/3)) and the quadratic cofactor of x^3 - 2: the splitting field
    ((-2, 0, 0, 1), lambda t, K: (t * t, t, K.one())),
    # Q(sqrt 2) and x^2 - 3: a biquadratic field
    ((-2, 0, 1), lambda t, K: (K.from_rational(-3), K.zero(), K.one())),
])
def test_adjoin_root_over_a_field_is_a_primitive_element(m, g_of):
    K = NumberField(m)
    g = g_of(K.theta(), K)
    L, alpha = adjoin_root(g, K)
    assert L.degree == K.degree * (len(g) - 1) and L.parent is K
    # theta embeds as a root of its minimal polynomial, alpha is a root of g
    assert not _value(K.minpoly, L.parent_theta, L)
    assert not _value([L.embed(c) for c in g], alpha, L)
    assert L.embed(K.theta()) == L.parent_theta
    # the new field is a field: its minimal polynomial is irreducible over Q
    assert [len(f) - 1 for f, _ in irreducible_factors(L.minpoly)] == [L.degree]


def test_embedding_through_two_levels():
    K = NumberField([-2, 0, 1])  # sqrt 2
    L, _ = adjoin_root((F(-3), F(0), F(1)), K)  # sqrt 3
    M, _ = adjoin_root((F(-5), F(0), F(1)), L)  # sqrt 5
    assert M.degree == 8
    r2 = M.embed(K.theta())
    assert r2 * r2 == M.from_rational(2)
    assert M.embed(L.parent_theta) == r2


def test_a_minpoly_with_denominators():
    # Q(sqrt(1/2)): minpoly x^2 - 1/2, kept modulo 2x^2 - 1 as sympy keeps it
    K = NumberField((F(-1, 2), 0, 1))
    t = K.theta()
    assert K.minpoly == (F(-1, 2), 0, 1) and t * t == K.from_rational(F(1, 2))
    assert K.domain.mod.to_list() == t.mod == [2, 0, -1]
    factors = irreducible_factors((F(-1, 2), 0, 1), K)
    assert [(len(f) - 1, mult) for f, mult in factors] == [(1, 1), (1, 1)]
    assert set(_roots((F(-1, 2), 0, 1), K)) == {t, -t}
    L, alpha = adjoin_root((F(-1, 3), 0, 1), K)
    assert L.degree == 4 and L.minpoly == (F(1, 36), 0, F(-5, 3), 0, 1)
    assert L.parent_theta * L.parent_theta == L.from_rational(F(1, 2))
    assert alpha * alpha == L.from_rational(F(1, 3))
    assert coefficients(t) == [0, 1] and coefficients(K.from_rational(F(-3, 2))) == [F(-3, 2), 0]
    assert coefficients(L.zero()) == [0] * 4
    # two commuting blocks with eigenvalues +-sqrt(1/2) and +-sqrt(1/3)
    half = Mat.from_rows([[0, F(1, 2)], [1, 0]])  # companion matrices of x^2 - 1/2 and x^2 - 1/3
    third = Mat.from_rows([[0, F(1, 3)], [1, 0]])
    v = span([block_diag(half, Mat.zero(2)), block_diag(Mat.zero(2), third)])
    res = triangularize_rank_one(v)
    assert res.field.degree == 4 and verify_triangular(v, res.P)


def test_domain_refuses_a_modulus_sympy_does_not_keep():
    K = NumberField((F(-1, 2), 0, 1))
    K._mod = [c / 2 for c in K._mod]  # the monic x^2 - 1/2
    with pytest.raises(ValueError, match="modulus"):
        K.domain


def test_matrix_over_extension():
    K = NumberField([1, 0, 1])
    i = K.theta()
    m = K.embed_matrix(Mat.from_rows([[0, -1], [1, 0]]))
    eye = K.embed_matrix(Mat.identity(2))
    shifted = m - eye * i
    assert shifted.rank() == 1
    assert len(shifted.kernel_basis()) == 1
    p = m.charpoly()
    assert p == (K.one(), K.zero(), K.one())
