import random
from fractions import Fraction

import pytest

from crlab.constructions import rank_one_max_space
from crlab.linalg import Mat, block_diag, commutator, random_matrix
from crlab.subspace import span
from crlab.triangularize import (InconsistentFamilyError, NonCommutingError,
                                 classify_rank_one_family,
                                 triangularize_commuting,
                                 triangularize_rank_one, verify_triangular)
from crlab.commrank import max_commutator_rank


def E(n, i, j):
    return Mat.unit(n, i, j)


def _invertible(n, seed, bound=4):
    rng = random.Random(seed)
    while True:
        q = random_matrix(n, n, bound, rng.randint(0, 10 ** 9))
        if q.det() != 0:
            return q


# -- classification -----------------------------------------------------------

def test_classify_commuting_family():
    fam = classify_rank_one_family(span([Mat.identity(3), Mat.diagonal([1, 2, 3])]))
    assert fam.side == "ZERO" and fam.x0 is None


def test_classify_left_with_tiebreak():
    fam = classify_rank_one_family(span([E(2, 0, 0), E(2, 0, 1)]))
    assert fam.side == "LEFT"
    assert fam.x0.data == (Fraction(1), Fraction(0))


def test_classify_bordered_space_is_left_e1():
    fam = classify_rank_one_family(rank_one_max_space(5, "generic", 2))
    assert fam.side == "LEFT"
    assert fam.x0.data == (1, 0, 0, 0, 0)


def test_classify_rejects_rank_two_commutator():
    with pytest.raises(InconsistentFamilyError) as err:
        classify_rank_one_family(span([E(2, 0, 1), E(2, 1, 0)]))
    assert err.value.comm.rank() == 2


def test_classify_transpose_swaps_side_same_direction():
    v = span([E(3, 0, 0), E(3, 0, 1), E(3, 0, 2)])
    fam = classify_rank_one_family(v)
    fam_t = classify_rank_one_family(v.transpose_space())
    assert {fam.side, fam_t.side} == {"LEFT", "RIGHT"}
    assert fam.x0 == fam_t.x0


# -- commuting triangularization ------------------------------------------------

def test_commuting_scalar_space():
    res = triangularize_commuting(span([Mat.identity(3)]))
    assert res.P == Mat.identity(3)
    assert res.chain_dims == (1, 2, 3)


def test_commuting_diagonals_identity():
    res = triangularize_commuting(span([Mat.diagonal([1, 2, 3]), Mat.diagonal([0, 0, 5])]))
    assert res.P == Mat.identity(3)


def test_commuting_upper_units():
    res = triangularize_commuting(span([E(3, 0, 1), E(3, 0, 2)]))
    assert res.P == Mat.identity(3)


def test_commuting_rejects_noncommuting_input():
    with pytest.raises(NonCommutingError):
        triangularize_commuting(span([E(3, 0, 1), E(3, 1, 2)]))


def test_commuting_nontrivial_split():
    m = Mat.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 3]])  # eigenvalues 1, -1, 3
    res = triangularize_commuting(span([m]))
    assert res.field is None
    assert verify_triangular(span([m]), res.P)


def test_commuting_extension_rotation():
    rot = Mat.from_rows([[0, -1], [1, 0]])
    res = triangularize_commuting(span([rot]))
    assert res.field is not None and res.field.degree == 2
    assert verify_triangular(span([rot]), res.P)
    assert all(c.is_zero() for c in res.certificate)


def test_commuting_extension_sqrt2_block():
    m = Mat.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, 5]])
    res = triangularize_commuting(span([m]))
    assert res.field is not None
    assert verify_triangular(span([m]), res.P)


# -- rank-one triangularization ---------------------------------------------------

def test_rank_one_already_triangular_returns_identity():
    v = rank_one_max_space(4, "generic", 2)
    res = triangularize_rank_one(v)
    assert res.P == Mat.identity(4)
    assert res.chain_dims == (1, 2, 3, 4)
    assert all(c.is_zero() for c in res.certificate)


def test_rank_one_lower_borel_swaps_coordinates():
    v = span([E(2, 1, 0), Mat.diagonal([1, -1])])
    res = triangularize_rank_one(v)
    swap = Mat.from_rows([[0, 1], [1, 0]])
    assert res.P == swap
    assert verify_triangular(v, res.P)


def test_rank_one_conjugated_spaces():
    for n, seed in ((3, 5), (4, 7), (5, 11)):
        base = rank_one_max_space(n, "generic", (n - 1 + 1) // 2)
        q = _invertible(n, seed)
        v = base.conjugate(q)
        res = triangularize_rank_one(v)
        assert verify_triangular(v, res.P)


def test_rank_one_right_family():
    v = rank_one_max_space(4, "generic", 2).transpose_space()
    assert classify_rank_one_family(v).side == "RIGHT"
    res = triangularize_rank_one(v)
    assert verify_triangular(v, res.P)


def test_rank_one_random_subspaces():
    rng = random.Random(55)
    base = rank_one_max_space(5, "generic", 2).conjugate(_invertible(5, 19))
    for space in (base, base.transpose_space()):
        for d in (2, 4, 6):
            sub = span([space.random_element(rng, 6) for _ in range(d)])
            res = triangularize_rank_one(sub)
            assert verify_triangular(sub, res.P)


def test_rank_one_right_family_over_extension():
    # first-row band beside the companion block of x^2 - 2, transposed: a
    # RIGHT family whose eigenvalues need Q(sqrt 2)
    companion = Mat.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, 3]])
    band = [E(4, 0, j) for j in range(4)] + [block_diag(Mat.zero(1), companion)]
    v = span(band).conjugate(_invertible(4, 29)).transpose_space()
    assert classify_rank_one_family(v).side == "RIGHT"
    res = triangularize_rank_one(v)
    assert res.field is not None and res.field.degree == 2
    assert verify_triangular(v, res.P)
    assert all(c.is_zero() for c in res.certificate)


def test_rank_one_success_is_similarity_invariant():
    v = rank_one_max_space(4, "generic", 2)
    for seed in (1, 2, 3):
        q = _invertible(4, seed)
        w = v.conjugate(q)
        res = triangularize_rank_one(w)
        assert verify_triangular(w, res.P)


def test_witness_rank_preserved_by_result_basis_change():
    v = rank_one_max_space(4, "generic", 2).conjugate(_invertible(4, 3))
    res = triangularize_rank_one(v)
    profile = max_commutator_rank(v, 16, 9)
    a, b = profile.witness
    p, p_inv = res.P, res.P.inverse()
    assert commutator(p_inv @ a @ p, p_inv @ b @ p).rank() == profile.certified_lower


def test_rank_one_propagates_inconsistency():
    with pytest.raises(InconsistentFamilyError):
        triangularize_rank_one(span([E(2, 0, 1), E(2, 1, 0)]))


def test_verify_triangular_examples():
    assert verify_triangular(span([Mat.diagonal([1, 2])]), Mat.identity(2))
    assert not verify_triangular(span([E(2, 1, 0)]), Mat.identity(2))
    swap = Mat.from_rows([[0, 1], [1, 0]])
    assert verify_triangular(span([E(2, 1, 0)]), swap)
