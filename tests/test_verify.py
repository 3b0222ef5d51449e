import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from crlab import verify
from crlab.constructions import (exceptional_extremal_space, extremal_space,
                                 firstcol_zero_space, flanders_space,
                                 lastrow_zero_space, rank_one_max_space,
                                 schur_space, valid_splits)
from crlab.linalg import (Mat, VectorSpan, block_diag, charpoly_discriminant,
                          commutator, random_matrix)
from crlab.subspace import span, zero_space
from crlab.verify import (algebra_structure_report, find_distinct_eigenvalue_element,
                          flanders_check, structure_check)


def _invertible(n, seed, bound=3):
    rng = random.Random(seed)
    while True:
        q = random_matrix(n, n, bound, rng.randint(0, 10 ** 9))
        if q.det() != 0:
            return q


# -- generic elements ---------------------------------------------------------

def test_find_distinct_returns_diagonal_generator():
    v = span([Mat.diagonal([1, 2, 3])])
    assert find_distinct_eigenvalue_element(v, 10, 1) == v.basis[0]


def test_find_distinct_nilpotent_space_not_found():
    assert find_distinct_eigenvalue_element(span([Mat.unit(2, 0, 1)]), 10, 1) is None


def test_find_distinct_output_contract():
    rng = random.Random(7)
    v = span([random_matrix(4, 4, 5, rng.randint(0, 10 ** 6)) for _ in range(13)])
    m = find_distinct_eigenvalue_element(v, 10, 3)
    assert m is not None
    assert charpoly_discriminant(m) != 0
    assert v.contains(m)


# -- rank-bounded rectangular spaces ----------------------------------------------

def test_flanders_check_equality_case():
    r = flanders_check(flanders_space(4, 4, 2), 16, 3)
    assert r.k_hat == 2 and r.dim == 8 and r.passed and r.slack == 0


def test_flanders_check_zero_space():
    r = flanders_check(zero_space(3, 5), 8, 3)
    assert r.passed and r.k_hat == 0 and r.slack == 0


def test_flanders_check_full_rectangular():
    r = flanders_check(flanders_space(3, 5, 3), 16, 3)
    assert r.k_hat == 3 and r.dim == 15 and r.passed and r.slack == 0


def test_flanders_grid_slack_zero():
    for m in range(1, 6):
        for n_cols in range(1, 7):
            for k in range(0, min(m, n_cols) + 1):
                r = flanders_check(flanders_space(m, n_cols, k), 8, 5)
                assert r.passed and r.slack == 0, (m, n_cols, k)


# -- structure recovery -------------------------------------------------------------

def test_structure_schur_space():
    v = schur_space(4)
    verdict = structure_check(v, 32, 7)
    assert verdict.status == "MATCHES_VK" and verdict.k_hat == 0
    assert v.conjugate(verdict.witness_basis) == extremal_space(4, 0, verdict.l)


def test_structure_vk_round_trip():
    q = _invertible(5, 31)
    v = extremal_space(5, 2, 1).conjugate(q)
    verdict = structure_check(v, 32, 7)
    assert verdict.status == "MATCHES_VK"
    assert verdict.chain_dims == (2, 3)
    assert v.conjugate(verdict.witness_basis) == extremal_space(5, 2, 1)


def test_structure_vk_transpose_round_trip():
    q = _invertible(5, 37)
    v = extremal_space(5, 2, 2).conjugate(q).transpose_space()
    verdict = structure_check(v, 32, 7)
    assert verdict.status == "MATCHES_VK_TRANSPOSE" and verdict.transposed


def test_structure_not_equality_case():
    v = span(list(extremal_space(6, 2, 2).basis)[:5])
    assert structure_check(v, 16, 3).status == "NOT_EQUALITY_CASE"


def test_structure_exceptional_variants():
    # n - k = 3 and n - k = 2 bands, each under three conjugators and transposed
    cases = [(rank_one_max_space(4, "diag3"), 1, "diag"),
             (rank_one_max_space(4, "nilrank1_plus_C"), 1, "nil1_plus_scalar"),
             (rank_one_max_space(4, "nilrank2"), 1, "nil2"),
             (rank_one_max_space(3, "diag2"), 1, "diag")]
    cases += [(exceptional_extremal_space(5, 2, tag), 2, tag)
              for tag in ("diag", "nil1_plus_scalar", "nil2")]
    # under these two 3x3 conjugators no unit vector and not the all-ones vector
    # is cyclic for the diag (first) or nil1_plus_scalar (second) quotient
    adversarial = [Mat.from_rows([[1, 1, -2], [1, 0, 0], [0, 1, 1]]).inverse(),
                   Mat.from_rows([[0, 0, 1], [1, 0, -1], [0, 1, 0]]).inverse()]
    for base, k, tag in cases:
        target = exceptional_extremal_space(base.n, k, tag)
        conjugators = [_invertible(base.n, seed) for seed in (17, 18, 19)]
        if base.n - k == 3:
            conjugators += [block_diag(Mat.identity(k), q) for q in adversarial]
        for c in conjugators:
            v = base.conjugate(c)
            for w, transposed in ((v, False), (v.transpose_space(), True)):
                verdict = structure_check(w, 32, 11)
                assert verdict.status == "EXCEPTIONAL", (tag, c, verdict)
                assert verdict.tag == tag
                assert verdict.transposed == transposed
                assert v.conjugate(verdict.witness_basis) == target


def test_structure_exceptional_higher_band():
    # free 2-row band over a diagonal 2x2 block: the n-k = 2 exceptional case
    v = exceptional_extremal_space(4, 2, "diag").conjugate(_invertible(4, 23))
    verdict = structure_check(v, 32, 5)
    assert verdict.status == "EXCEPTIONAL" and verdict.tag == "diag"


def test_structure_match_is_exact_or_refused():
    # recovered witnesses always conjugate onto the canonical space exactly
    for n, k in ((4, 1), (5, 2), (6, 2)):
        for l in valid_splits(n, k):
            q = _invertible(n, 100 * n + 10 * k + l)
            v = extremal_space(n, k, l).conjugate(q)
            verdict = structure_check(v, 32, 9)
            assert verdict.status == "MATCHES_VK"
            assert v.conjugate(verdict.witness_basis) == extremal_space(n, k, verdict.l)


# -- the commutator core ------------------------------------------------------------

def _full_scan_core(w):
    """Reference core: the columns of every basis-pair commutator (over the
    integers, basis scaled by the lcm of its denominators), then closure
    under the basis, as the RREF rows of the span."""
    n = w.n
    _, rows = w.integer_basis()
    mats = [[row[i * n:(i + 1) * n] for i in range(n)] for row in rows]
    cols = set()
    for a, b in combinations(mats, 2):
        for j in range(n):
            col = tuple(sum(a[i][t] * b[t][j] - b[i][t] * a[t][j] for t in range(n))
                        for i in range(n))
            g = gcd(*col)
            if g:
                cols.add(tuple(Fraction(x, g) for x in col))
    span = VectorSpan(n, sorted(cols))
    while True:
        images = [(a @ Mat.column(r)).data for a in w.basis for r in span.rows]
        grown = VectorSpan(n, span.rows + images)
        if grown.dim == span.dim:
            return span.rows
        span = grown


def _matchable_spaces(max_n):
    """(space, k): every extremal space and every exceptional space the
    structure check can match, for n <= max_n."""
    for n in range(2, max_n + 1):
        for k in range(n):
            for l in valid_splits(n, k):
                yield extremal_space(n, k, l), k
            for tag in {2: ("diag",), 3: ("diag", "nil1_plus_scalar", "nil2")}.get(n - k, ()):
                yield exceptional_extremal_space(n, k, tag), k


def test_matchable_spaces_have_core_of_dimension_k():
    # the fact that lets the core scan stop at dimension k
    for w, k in _matchable_spaces(7):
        assert len(_full_scan_core(w)) == k, (w.n, k, w.dim)


def test_commutator_core_agrees_with_full_scan():
    rng = random.Random(41)
    for w, k in _matchable_spaces(6):
        v = w.conjugate(_invertible(w.n, rng.randint(0, 10 ** 6)))
        for u in (v, v.transpose_space()):
            ref = _full_scan_core(u)
            core = [c.data for c in verify._commutator_core(u, k)]
            assert VectorSpan(u.n, ref + core).dim == len(ref)  # core lies in C
            if len(ref) == k:
                assert core == [tuple(r) for r in ref]


def test_structure_check_same_with_full_scan_core(monkeypatch):
    # transposed inputs: the first side's core exceeds k, the second side matches
    rng = random.Random(43)
    inputs = []
    for w, k in _matchable_spaces(5):
        if k:
            v = w.conjugate(_invertible(w.n, rng.randint(0, 10 ** 6)))
            inputs += [v, v.transpose_space()]
    verdicts = [structure_check(v, 32, 3) for v in inputs]
    monkeypatch.setattr(verify, "_commutator_core",
                        lambda w, k: [Mat.column(r) for r in _full_scan_core(w)])
    assert [structure_check(v, 32, 3) for v in inputs] == verdicts
    assert all(v.status != "NO_MATCH" for v in verdicts)


# -- combined algebra reports ----------------------------------------------------------

def test_algebra_report_extremal_space():
    r = algebra_structure_report(extremal_space(6, 2, 2), 32, 7)
    assert r.passed and r.is_algebra and r.k_hat == 2


def test_algebra_report_lastrow_space():
    r = algebra_structure_report(lastrow_zero_space(4), 32, 7)
    assert r.passed and r.k_hat == 3
    assert r.structure.status == "MATCHES_VK"


def test_algebra_report_firstcol_space():
    r = algebra_structure_report(firstcol_zero_space(4), 32, 7)
    assert r.passed
    assert r.structure.status == "MATCHES_VK_TRANSPOSE"


def test_algebra_report_non_algebra():
    r = algebra_structure_report(span([Mat.unit(2, 0, 1), Mat.unit(2, 1, 0)]), 16, 7)
    assert not r.passed and not r.is_algebra and r.structure is None
