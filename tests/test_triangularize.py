import json
import random
import time
from fractions import Fraction
from itertools import combinations, starmap

import pytest
from sympy import QQ, Dummy, Poly
from sympy.polys.matrices import DomainMatrix

from crlab import triangularize
from crlab.cli import main
from crlab.constructions import rank_one_max_space, valid_splits
from crlab.linalg import Mat, VectorSpan, block_diag, commutator, random_matrix
from crlab.numberfield import NumberField
from crlab.serialize import to_jsonable, write_subspace
from crlab.subspace import span
from crlab.triangularize import (MAX_FIELD_DEGREE, InconsistentFamilyError,
                                 classify_rank_one_family,
                                 triangularize_rank_one, verify_triangular)
from crlab.commrank import max_commutator_rank


def E(n, i, j):
    return Mat.unit(n, i, j)


def companion(p):
    """Companion matrix of the monic polynomial p (little-endian)."""
    n = len(p) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        if i:
            rows[i][i - 1] = 1
        rows[i][n - 1] = -p[i]
    return Mat.from_rows(rows)


def _qq(x):
    x = Fraction(x)
    return QQ(x.numerator, x.denominator)


def sympy_recheck(v, p_json, field_json):
    """Re-check a triangularization report with sympy alone: the field's
    minimal polynomial is irreducible over Q, and over sympy's own field
    QQ<theta> the matrix P is invertible and P^-1 A P is upper triangular for
    every basis member A.  Returns the field degree."""
    minpoly = Poly([_qq(c) for c in reversed(field_json["minpoly"])], Dummy("x"), domain=QQ)
    assert minpoly.is_irreducible
    K = QQ.alg_field_from_poly(minpoly)
    n = v.n
    p = DomainMatrix([[K([_qq(c) for c in reversed(x)]) for x in row] for row in p_json],
                     (n, n), K)
    p_inv = p.inv()
    for a in v.basis:
        rows = [[_qq(a[i, j]) for j in range(n)] for i in range(n)]
        t = (p_inv * DomainMatrix(rows, (n, n), QQ).convert_to(K) * p).to_list()
        assert not any(t[i][j] for i in range(n) for j in range(i))
    return minpoly.degree()


def _band_family(p, seed):
    """First-row band beside the companion block of p, conjugated: a LEFT
    rank-one family whose eigenvalues are 0 and the roots of p."""
    n = len(p)
    band = [E(n, 0, j) for j in range(n)] + [block_diag(Mat.zero(1), companion(p))]
    return span(band).conjugate(_invertible(n, seed))


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
    # in the second space the first commutator [D, E01] = -E01 has an
    # unnormalized column
    for v in (span([E(3, 0, 0), E(3, 0, 1), E(3, 0, 2)]),
              span([Mat.diagonal([1, 2, 3]), E(3, 0, 1), E(3, 0, 2)])):
        fam = classify_rank_one_family(v)
        fam_t = classify_rank_one_family(v.transpose_space())
        assert {fam.side, fam_t.side} == {"LEFT", "RIGHT"}
        assert fam.x0 == fam_t.x0
        assert next(x for x in fam.x0.data if x) == 1


# -- commuting families (the ZERO side of the rank-one recursion) ---------------

def test_commuting_scalar_space():
    res = triangularize_rank_one(span([Mat.identity(3)]))
    assert res.P == Mat.identity(3)


def test_commuting_diagonals_identity():
    res = triangularize_rank_one(span([Mat.diagonal([1, 2, 3]), Mat.diagonal([0, 0, 5])]))
    assert res.P == Mat.identity(3)


def test_commuting_upper_units():
    res = triangularize_rank_one(span([E(3, 0, 1), E(3, 0, 2)]))
    assert res.P == Mat.identity(3)


def test_commuting_nontrivial_split():
    m = Mat.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 3]])  # eigenvalues 1, -1, 3
    res = triangularize_rank_one(span([m]))
    assert res.field is None
    assert verify_triangular(span([m]), res.P)


def test_commuting_extension_rotation():
    rot = Mat.from_rows([[0, -1], [1, 0]])
    res = triangularize_rank_one(span([rot]))
    assert res.field is not None and res.field.degree == 2
    assert verify_triangular(span([rot]), res.P)


def test_commuting_extension_sqrt2_block():
    m = Mat.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, 5]])
    res = triangularize_rank_one(span([m]))
    assert res.field is not None
    assert verify_triangular(span([m]), res.P)


# -- rank-one triangularization ---------------------------------------------------

def test_rank_one_already_triangular_returns_identity():
    v = rank_one_max_space(4, "generic", 2)
    res = triangularize_rank_one(v)
    assert res.P == Mat.identity(4)
    assert verify_triangular(v, res.P)


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
    assert commutator(p_inv @ a @ p, p_inv @ b @ p).rank() == profile.probable_max


def _count_calls(monkeypatch, name):
    """Record every call through ``triangularize.<name>``."""
    function, calls = getattr(triangularize, name), []

    def recorded(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(triangularize, name, recorded)
    return calls


def test_commutators_are_formed_once_per_basis_pair(monkeypatch):
    # the classification forms every basis-pair commutator, and the recursion none
    calls = _count_calls(monkeypatch, "commutator")
    v = rank_one_max_space(5, "generic", 2).conjugate(_invertible(5, 19))
    q = _invertible(4, 7)
    m = q @ block_diag(companion((-2, 0, 1)), Mat.diagonal([1, -3])) @ q.inverse()
    commuting = span([Mat.identity(4), m, m @ m, m @ m @ m])  # m's eigenvalues: ±√2, 1, -3
    assert commuting.dim == 4
    for w in (v, v.transpose_space(), commuting):
        calls.clear()
        res = triangularize_rank_one(w)
        assert verify_triangular(w, res.P)
        assert len(calls) == w.dim * (w.dim - 1) // 2


def test_commuting_blocks_alone_factor_a_charpoly(monkeypatch):
    # the commutator split is rational, and below it each commuting block that
    # is not yet triangular factors one characteristic polynomial
    calls = _count_calls(monkeypatch, "irreducible_factors")
    v = rank_one_max_space(5, "generic", 2).conjugate(_invertible(5, 19))
    for w, factored in ((v, 1), (v.transpose_space(), 2)):
        calls.clear()
        res = triangularize_rank_one(w)
        assert res.field is None and verify_triangular(w, res.P)
        assert len(calls) == factored


def _rank_one_families(rng, field):
    """Seeded rank-one families: subspaces of a conjugated generic
    rank-one-maximal space, of its transpose or of a transposed band family
    (whose commutator columns need several steps to close), over ``field``
    (None is Q) through a conjugation with entries in the field."""
    for i in range(15):
        n = rng.randint(3, 6)
        if i % 3 == 2:  # the band's companion block has rational eigenvalues
            p = (1,)
            for r in (rng.randint(-3, 3) for _ in range(n - 1)):
                p = tuple(a - r * b for a, b in zip((0, *p), (*p, 0)))  # p * (x - r)
            base = _band_family(p, rng.randint(0, 10 ** 9)).transpose_space()
        else:
            q = _invertible(n, rng.randint(0, 10 ** 9))
            base = rank_one_max_space(n, "generic", rng.choice(valid_splits(n, 1))).conjugate(q)
            if i % 3:
                base = base.transpose_space()
        mats = [base.random_element(rng, 5) for _ in range(rng.randint(2, min(base.dim, 6)))]
        if field is not None:
            q = field.embed_matrix(Mat.identity(n)) + field.embed_matrix(
                random_matrix(n, n, 2, rng.randint(0, 10 ** 9))) * field.theta()
            q_inv = q.inverse()
            mats = [q @ field.embed_matrix(m) @ q_inv for m in mats]
        yield mats, n


def _commute(mats):
    return all(c.is_zero() for c in starmap(commutator, combinations(mats, 2)))


@pytest.mark.parametrize("field", [None, NumberField([-2, 0, 1])], ids=["Q", "Q(sqrt2)"])
def test_commutator_split_leaves_commuting_blocks(monkeypatch, field):
    eigenspace_calls = _count_calls(monkeypatch, "_eigenspace_split")
    for seed in range(6 if field is None else 1):  # dense products over Q(sqrt 2) are slow
        for mats, n in _rank_one_families(random.Random(31 + seed), field):
            columns = classify_rank_one_family(span(mats)).columns
            w = triangularize._cyclic_space(mats, columns, n)
            assert 0 < len(w) < n  # no family commutes
            span_w = VectorSpan(n, w)
            assert all(span_w.contains(a @ x) for a in mats for x in w)
            comms = list(starmap(commutator, combinations(mats, 2)))
            assert all(span_w.contains(c.block(0, n, j, j + 1)) for c in comms for j in range(n))
            split = triangularize.invariant_split(mats, w, n)
            assert _commute(split.tops()) and _commute(split.quotients)
            eigenspace_calls.clear()
            p, _ = triangularize._triangularize_family(mats, n, field, w)
            p_inv = p.inverse()
            assert all((p_inv @ a @ p).is_upper_triangular() for a in mats)
            assert all(_commute(block) for block, *_ in eigenspace_calls)


def test_rank_one_propagates_inconsistency():
    with pytest.raises(InconsistentFamilyError):
        triangularize_rank_one(span([E(2, 0, 1), E(2, 1, 0)]))


def test_verify_triangular_examples():
    assert verify_triangular(span([Mat.diagonal([1, 2])]), Mat.identity(2))
    assert not verify_triangular(span([E(2, 1, 0)]), Mat.identity(2))
    swap = Mat.from_rows([[0, 1], [1, 0]])
    assert verify_triangular(span([E(2, 1, 0)]), swap)


# -- towers of extensions -------------------------------------------------------

def _triangularize_cli(tmp_path, capsys, v):
    path = tmp_path / "v.json"
    write_subspace(path, v)
    code = main(["triangularize", str(path)])
    return code, json.loads(capsys.readouterr().out)["results"]


@pytest.mark.parametrize("v, degree", [
    # x^3 - 2: Q(2^(1/3)), then a root of the quadratic cofactor over it
    (span([companion((-2, 0, 0, 1))]), 6),
    # two commuting quadratic blocks: Q(sqrt 2), then sqrt 3 over it
    (span([block_diag(companion((-2, 0, 1)), Mat.zero(2)),
           block_diag(Mat.zero(2), companion((-3, 0, 1)))]), 4),
])
def test_cli_triangularizes_over_a_tower(tmp_path, capsys, v, degree):
    code, res = _triangularize_cli(tmp_path, capsys, v)
    assert code == 0 and res["verified_upper_triangular"] is True
    assert len(res["field"]["minpoly"]) - 1 == degree
    assert all(len(x) == degree for row in res["P"] for x in row)  # padded entries
    assert sympy_recheck(v, res["P"], res["field"]) == degree


@pytest.mark.parametrize("transpose", [False, True])
def test_rank_one_family_with_s3_eigenvalues(transpose):
    # x^3 - x - 1 has Galois group S3: its splitting field has degree 6
    v = _band_family((-1, -1, 0, 1), 29)
    if transpose:
        v = v.transpose_space()
    assert classify_rank_one_family(v).side == ("RIGHT" if transpose else "LEFT")
    res = triangularize_rank_one(v)
    assert res.field.degree == 6
    assert verify_triangular(v, res.P)
    assert sympy_recheck(v, to_jsonable(res.P), to_jsonable(res.field)) == 6


@pytest.mark.long
def test_rank_one_family_with_s4_eigenvalues_long():
    # x^4 - x - 1 has Galois group S4: the tower reaches degree 24, the cap
    v = _band_family((-1, -1, 0, 0, 1), 29)
    t0 = time.monotonic()
    res = triangularize_rank_one(v)
    elapsed = time.monotonic() - t0
    assert res.field.degree == MAX_FIELD_DEGREE
    assert verify_triangular(v, res.P)
    assert sympy_recheck(v, to_jsonable(res.P), to_jsonable(res.field)) == 24
    print(f"S4 family triangularized in {elapsed:.1f} s")


def test_cli_reports_the_extension_limit(tmp_path, capsys):
    # x^25 - 2 is irreducible: its first eigenvalue already needs degree 25
    v = span([companion((-2,) + (0,) * 24 + (1,))])
    code, res = _triangularize_cli(tmp_path, capsys, v)
    assert code == 1
    assert res["error"]["code"] == "EXTENSION_LIMIT"
