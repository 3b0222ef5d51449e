import random

import pytest

from crlab.commrank import dimension_bound
from crlab.constructions import (bidiagonal_commutator_diagonal,
                                 bidiagonal_witness_pair, build_family,
                                 commutative_exceptional_space,
                                 exceptional_extremal_space, extremal_space,
                                 firstcol_zero_space, flanders_space,
                                 lastrow_zero_space, rank_one_max_space,
                                 schur_space, valid_splits)
from crlab.linalg import Mat, block_diag, commutator
from crlab.subspace import span


def test_schur_dims():
    assert schur_space(4).dim == 5
    assert schur_space(2).dim == 2
    for n in range(1, 11):
        assert schur_space(n).dim == n * n // 4 + 1


def test_schur_every_basis_pair_commutes():
    v = schur_space(6)
    for i, a in enumerate(v.basis):
        for b in v.basis[i + 1:]:
            assert commutator(a, b).is_zero()


def test_extremal_space_dims():
    assert extremal_space(5, 2, 1).dim == 13
    for l in valid_splits(7, 2):
        assert extremal_space(7, 2, l).dim == 21
    ls = valid_splits(7, 2)
    if len(ls) == 2:
        assert extremal_space(7, 2, ls[0]) != extremal_space(7, 2, ls[1])


def test_extremal_space_degenerate_k_is_schur():
    for n in (3, 4, 6):
        assert extremal_space(n, 0, n // 2) == schur_space(n)


def test_extremal_space_invalid_split():
    with pytest.raises(ValueError):
        extremal_space(5, 2, 3)
    with pytest.raises(ValueError):
        extremal_space(4, 4, 0)


def test_corner_spaces():
    assert lastrow_zero_space(3).dim == 7
    for n in (2, 3, 4, 5):
        assert lastrow_zero_space(n).dim == n * n - n + 1
        assert firstcol_zero_space(n).dim == n * n - n + 1
    assert lastrow_zero_space(4) != firstcol_zero_space(4)
    assert lastrow_zero_space(4).is_algebra()
    assert firstcol_zero_space(4).is_algebra()


def test_lastrow_space_is_the_full_band_instance():
    # k = n - 1: the trailing 1x1 block admits both splits, and they agree
    for n in range(2, 9):
        spelled = span([Mat.unit(n, i, j) for i in range(n - 1) for j in range(n)]
                       + [Mat.unit(n, n - 1, n - 1)])
        assert lastrow_zero_space(n) == spelled
        assert spelled == extremal_space(n, n - 1, 0) == extremal_space(n, n - 1, 1)


def test_lastrow_space_shape():
    v = lastrow_zero_space(4)
    for b in v.basis:
        assert all(b[3, j] == 0 for j in range(3))


def test_rank_one_max_dims_match_bound():
    cases = [(5, "generic", 2), (5, "generic", None), (4, "generic", 2),
             (6, "generic", 2), (6, "generic", 3),
             (4, "diag3", None), (4, "nilrank1_plus_C", None),
             (4, "nilrank2", None), (3, "diag2", None), (2, "scalar", None)]
    for n, variant, l in cases:
        if variant == "generic" and l is None and len(valid_splits(n - 1, 0)) > 1:
            continue
        v = rank_one_max_space(n, variant, l)
        assert v.dim == dimension_bound(n, 1)
        assert v.is_algebra()


def test_rank_one_generic_is_the_k1_extremal_space():
    for n in range(2, 9):
        assert valid_splits(n - 1, 0) == valid_splits(n, 1)
        for l in valid_splits(n, 1):
            # free first row plus a Schur-type trailing block, spelled out
            spelled = span([Mat.unit(n, 0, j) for j in range(n)]
                           + [block_diag(Mat.zero(1), b)
                              for b in extremal_space(n - 1, 0, l).basis])
            assert rank_one_max_space(n, "generic", l) == spelled
            assert spelled == extremal_space(n, 1, l)


def test_rank_one_variants_are_exceptional_extremal_spaces():
    for variant, n, tag in (("diag3", 4, "diag"), ("nilrank1_plus_C", 4, "nil1_plus_scalar"),
                            ("nilrank2", 4, "nil2"), ("diag2", 3, "diag"),
                            ("scalar", 2, "scalar")):
        assert rank_one_max_space(n, variant) == exceptional_extremal_space(n, 1, tag)


def test_rank_one_max_diag3_block():
    v = rank_one_max_space(4, "diag3")
    # southeast block holds exactly the three trailing diagonal units
    for i in range(1, 4):
        assert v.contains(Mat.unit(4, i, i))
    assert not v.contains(Mat.unit(4, 1, 2))


def test_rank_one_max_scalar_case():
    v = rank_one_max_space(2, "scalar")
    assert v.dim == 3
    assert v == span([Mat.unit(2, 0, 0), Mat.unit(2, 0, 1), Mat.identity(2)])


def test_rank_one_max_variant_guards():
    with pytest.raises(ValueError):
        rank_one_max_space(5, "diag3")
    with pytest.raises(ValueError):
        rank_one_max_space(4, "diag2")
    with pytest.raises(ValueError):
        rank_one_max_space(4, "no_such_variant")
    with pytest.raises(ValueError):  # only the generic variant has a split
        rank_one_max_space(4, "diag3", 2)


def test_commutative_exceptional_spaces():
    for m, tag in ((2, "diag"), (3, "diag"), (3, "nil1_plus_scalar"), (3, "nil2")):
        v = commutative_exceptional_space(m, tag)
        assert v.dim == m
        for a in v.basis:
            for b in v.basis:
                assert commutator(a, b).is_zero()
        assert v.is_algebra()
    assert commutative_exceptional_space(1, "scalar") == span([Mat.identity(1)])
    assert commutative_exceptional_space(3, "diag") == span([Mat.diagonal([1, 2, 3]),
                                                             Mat.diagonal([1, 1, 0]),
                                                             Mat.identity(3)])
    for m, tag in ((2, "scalar"), (1, "diag"), (2, "nil2"), (4, "diag")):
        with pytest.raises(ValueError):
            commutative_exceptional_space(m, tag)


def test_exceptional_extremal_space_dims():
    assert exceptional_extremal_space(4, 1, "diag").dim == dimension_bound(4, 1)
    assert exceptional_extremal_space(4, 2, "diag").dim == dimension_bound(4, 2)
    assert exceptional_extremal_space(5, 2, "nil2").dim == dimension_bound(5, 2)
    with pytest.raises(ValueError):
        exceptional_extremal_space(6, 1, "diag")
    for n, k in ((2, -1), (4, 4)):
        with pytest.raises(ValueError, match="need 0 <= k < n"):
            exceptional_extremal_space(n, k, "diag")


def test_flanders_space():
    assert flanders_space(4, 4, 2).dim == 8
    assert flanders_space(3, 5, 0).dim == 0
    assert flanders_space(3, 5, 3).dim == 15
    rng = random.Random(3)
    v = flanders_space(4, 4, 2)
    for _ in range(20):
        assert v.random_element(rng, 9).rank() <= 2
    with pytest.raises(ValueError):
        flanders_space(3, 3, 4)


def test_bidiagonal_pair_example():
    a, b = bidiagonal_witness_pair(4, 2, (1, 1), (1, 3))
    c = commutator(a, b)
    assert c == Mat.diagonal([-1, -2, 3, 0])
    assert c.rank() == 3


def test_bidiagonal_zero_lambdas():
    a, b = bidiagonal_witness_pair(5, 3, (0, 0, 0), (1, 2, 3))
    assert commutator(a, b).is_zero()


def test_bidiagonal_rank_s_plus_one():
    a, b = bidiagonal_witness_pair(5, 3, (1, 2, 3), (1, 1, 1))
    c = commutator(a, b)
    assert [c[i, i] for i in range(5)] == [-1, -1, -1, 3, 0]
    assert c.rank() == 4


def test_bidiagonal_matches_closed_form():
    rng = random.Random(43)
    for n in range(2, 9):
        for s in range(1, n):
            lam = [rng.randint(-9, 9) for _ in range(s)]
            mu = [rng.randint(-9, 9) for _ in range(s)]
            a, b = bidiagonal_witness_pair(n, s, lam, mu)
            c = commutator(a, b)
            diag = bidiagonal_commutator_diagonal(n, lam, mu)
            assert all(c[i, i] == diag[i] for i in range(n))
            assert all(c[i, j] == 0 for i in range(n) for j in range(n) if i != j)


def test_bidiagonal_guards():
    with pytest.raises(ValueError):
        bidiagonal_witness_pair(4, 0, (), ())
    with pytest.raises(ValueError):
        bidiagonal_witness_pair(4, 2, (1,), (1, 2))


def test_family_dispatch():
    assert build_family("schur", 4) == schur_space(4)
    assert build_family("vk", 5, k=2, l=1) == extremal_space(5, 2, 1)
    assert build_family("vk-t", 5, k=2, l=1) == \
        extremal_space(5, 2, 1).transpose_space()
    assert build_family("thm2-lastrow", 3) == lastrow_zero_space(3)
    assert build_family("flanders", 4, k=2) == flanders_space(4, 4, 2)
    with pytest.raises(ValueError):
        build_family("vk", 5)
    with pytest.raises(ValueError):
        build_family("unknown", 3)
    with pytest.raises(ValueError, match="family thm2-lastrow does not read k"):
        build_family("thm2-lastrow", 3, k=1)
