import random
import sys
from itertools import combinations
from math import gcd

import pytest

from crlab import commrank, verify
from crlab.commrank import (BoundReport, CommutatorProfile, check_dimension_bound,
                            compression_split)
from crlab.constructions import (commutative_exceptional_space,
                                 exceptional_extremal_space, extremal_space,
                                 firstcol_zero_space, flanders_space,
                                 lastrow_zero_space, rank_one_max_space,
                                 schur_space, valid_splits)
from crlab.linalg import Mat, VectorSpan, block_diag, commutator, random_matrix
from crlab.subspace import span, zero_space
from crlab.verify import algebra_structure_report, flanders_check, structure_check


def _invertible(n, seed, bound=3):
    rng = random.Random(seed)
    while True:
        q = random_matrix(n, n, bound, rng.randint(0, 10 ** 9))
        if q.det() != 0:
            return q


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
    verdict = structure_check(v, 16, 3)
    assert verdict.status == "NOT_EQUALITY_CASE" and not verdict.matched


def test_structure_full_band_has_an_empty_strip():
    # k = n - 1: the 1x1 quotient has no nilpotent part, so l = 0
    for n in (2, 3, 4, 5):
        v = extremal_space(n, n - 1, 1).conjugate(_invertible(n, 41 + n))
        verdict = structure_check(v, 32, 7)
        assert verdict.status == "MATCHES_VK" and verdict.matched, (n, verdict)
        assert verdict.l == 0 and verdict.chain_dims == (n - 1, n - 1)
        assert v.conjugate(verdict.witness_basis) == extremal_space(n, n - 1, 0)


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
    under the basis, as the RREF basis of the span: n-by-1 matrices, like
    the core it stands in for."""
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
                cols.add(tuple(x // g for x in col))
    span = VectorSpan(n, sorted(cols))
    while True:
        members = span.members(n, 1)
        grown = VectorSpan(n, members + [a @ u for a in w.basis for u in members])
        if grown.dim == span.dim:
            return members
        span = grown


def _matchable_spaces(max_n):
    """(space, k, l, tag): every extremal space V_{k,l} (tag None) and every
    exceptional space (l None) the structure check can match, for n <= max_n."""
    for n in range(2, max_n + 1):
        for k in range(n):
            for l in valid_splits(n, k):
                yield extremal_space(n, k, l), k, l, None
            for tag in {2: ("diag",), 3: ("diag", "nil1_plus_scalar", "nil2")}.get(n - k, ()):
                yield exceptional_extremal_space(n, k, tag), k, None, tag


def test_matchable_spaces_have_core_of_dimension_k():
    # the fact that lets the core scan stop at dimension k
    for w, k, _, _ in _matchable_spaces(7):
        assert len(_full_scan_core(w)) == k, (w.n, k, w.dim)


def _symmetry_corpus(max_n):
    """(u, k, l, tag, flipped, seed): each matchable space, a seeded
    conjugate, its transpose and J A^T J (a conjugate of the transpose), J
    the exchange matrix; ``flipped`` for the last two, and a seed for the
    scan, one per matchable space."""
    rng = random.Random(41)
    for w, k, l, tag in _matchable_spaces(max_n):
        n = w.n
        exchange = Mat.from_rows([[int(i + j == n - 1) for j in range(n)] for i in range(n)])
        conj = w.conjugate(_invertible(n, rng.randint(0, 10 ** 6)))
        anti = w.transpose_space().conjugate(exchange)
        seed = rng.randint(0, 100)
        for u, flipped in ((w, False), (conj, False),
                           (conj.transpose_space(), True), (anti, True)):
            yield u, k, l, tag, flipped, seed


def test_commutator_core_agrees_with_full_scan():
    # the column side matches on a space and its conjugate, the row side on
    # the other two, except where the transpose is itself similar to a
    # V_{k,l}: at k = 0 (W = 0, and l swaps to n - l) and at n = 2 (V_{1,0}
    # is the upper triangular algebra).  A one-dimensional quotient has an
    # empty strip, so l reads 0 there.  The W of the side that matches is
    # the core of the full scan; on every transposed input the column side
    # does not fire, which is why the structure check matches only the side
    # that fired
    for u, k, l, tag, flipped, seed in _symmetry_corpus(6):
        n = u.n
        transposed = flipped and k > 0 and n > 2
        verdict = structure_check(u, 32, seed)
        report = check_dimension_bound(u, 32, seed)
        comm = commutator(*report.profile.witness)
        side = u.transpose_space() if transposed else u
        split = compression_split(side.basis, comm.transpose() if transposed else comm)
        assert split is not None and split.dim == k, (n, k, flipped)
        if transposed:
            assert compression_split(u.basis, comm) is None, (n, k)
        assert [split.p.block(0, n, j, j + 1) for j in range(k)] == _full_scan_core(side)
        assert verdict.transposed == transposed
        if tag is not None:
            assert (verdict.status, verdict.tag) == ("EXCEPTIONAL", tag)
        else:
            assert verdict.status == ("MATCHES_VK_TRANSPOSE" if transposed else "MATCHES_VK")
            assert verdict.l == (n - l if flipped and not k else l if n - k > 1 else 0)


def test_structure_check_is_the_same_at_every_seed():
    # the scan is the only random input: with 32 trials it reaches the same
    # k-hat and fires the same side at every seed, and the exceptional
    # matcher picks its member from a fixed grid, so the verdicts are equal,
    # witnesses included
    for u, *_ in _symmetry_corpus(5):
        first = structure_check(u, 32, 0)
        assert first.matched
        assert structure_check(u, 32, 1) == first == structure_check(u, 32, 2)


def test_exceptional_matcher_finds_a_nonderogatory_grid_member():
    # every RREF basis member of the diagonal algebra of M_3 (E_00, E_11,
    # E_22) is derogatory, so the member that decides comes from the grid
    q = commutative_exceptional_space(3, "diag")
    eye = Mat.identity(3)
    assert all(VectorSpan(9, [eye, b, b @ b]).dim < 3 for b in q.basis)
    p_inv, tag = verify._match_exceptional(q)
    assert tag == "diag" and q.conjugate(p_inv) == q


def test_exceptional_matcher_skips_grid_points_with_one_nonzero_coefficient(monkeypatch):
    # every member of span(I, E_01, E_02) is derogatory, so the matcher tries
    # all of its members: the 3 basis members and the 4^3 grid points less the
    # zero point and the 9 multiples of one basis member
    krylov, first_probe, tried = verify._krylov, Mat.column([1, 0, 0]), []

    def recorded(a, v):
        if v == first_probe:  # each member's first cyclic-vector probe
            tried.append(a)
        return krylov(a, v)

    monkeypatch.setattr(verify, "_krylov", recorded)
    q = span([Mat.identity(3), E(3, 0, 1), E(3, 0, 2)])
    assert verify._match_exceptional(q) is None
    assert len(tried) == 3 + 4 ** 3 - 1 - 9



def _record_splits(monkeypatch, split):
    """Put ``split`` in place of commrank's compression_split, the one the
    scan's ceiling calls; returns the list each call appends (the module of
    its caller, whether it split) to."""
    calls = []

    def recorded(mats, comm):
        result = split(mats, comm)
        calls.append((sys._getframe(1).f_globals["__name__"], result is not None))
        return result

    monkeypatch.setattr(commrank, "compression_split", recorded)
    return calls


def test_structure_check_same_with_full_scan_core(monkeypatch):
    # transposed inputs: the column side does not fire, the row side matches;
    # splitting each side at the full scan's core, when it has dimension
    # k = rank C, instead of at C's column span gives the same verdicts.  The
    # substitute runs where the scan splits, at its ceiling, whose side and
    # split the matcher takes; one trial tries the ceiling too
    rng = random.Random(43)
    inputs = []
    for w, k, _, _ in _matchable_spaces(5):
        if k:
            v = w.conjugate(_invertible(w.n, rng.randint(0, 10 ** 6)))
            inputs += [v, v.transpose_space()]
    verdicts = {trials: [structure_check(v, trials, 3) for v in inputs] for trials in (1, 32)}

    def full_scan_split(mats, comm):
        n = comm.rows
        core = _full_scan_core(span(mats))
        if len(core) != comm.rank():  # a core other than k-dimensional is rejected
            return None
        cols = Mat.from_rows([[core[j][i, 0] if j < len(core) else 0 for j in range(n)]
                              for i in range(n)])
        return compression_split(mats, cols)

    fired = _record_splits(monkeypatch, full_scan_split)
    for trials, want in verdicts.items():
        fired.clear()
        assert [structure_check(v, trials, 3) for v in inputs] == want
        assert all(v.status != "NO_MATCH" for v in want)
        assert {c for c, _ in fired} == {"crlab.commrank"}
        assert sum(hit for _, hit in fired) == len(inputs)


def test_structure_check_splits_the_core_once(monkeypatch):
    # the scan's ceiling fires on the column side of a conjugated V_{2,1} and
    # on the row side of its transpose, after the silent column side, at one
    # trial and at 32, and the matcher takes that split: no second split of
    # the same W, in the structure check or in the algebra report
    v = extremal_space(5, 2, 1).conjugate(_invertible(5, 61))
    calls = _record_splits(monkeypatch, compression_split)
    for u, fired in ((v, [True]), (v.transpose_space(), [False, True])):
        verdicts = {}
        for trials in (32, 1):
            calls.clear()
            verdicts[trials] = structure_check(u, trials, 5)
            assert calls == [("crlab.commrank", hit) for hit in fired]
        assert verdicts[1] == verdicts[32] and verdicts[32].matched
        assert verdicts[32].transposed == (u is not v)
        calls.clear()
        assert algebra_structure_report(u, 32, 5).structure == verdicts[32]
        assert calls == [("crlab.commrank", hit) for hit in fired]


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


# -- the no-match exits ----------------------------------------------------------------

def _band(n, skip=()):
    """The free top row: E_0j for every j not in skip."""
    return [Mat.unit(n, 0, j) for j in range(n) if j not in skip]


def _below(mats):
    """Each square matrix as the lower-right block under a zero first row and column."""
    return [block_diag(Mat.from_rows([[0]]), m) for m in mats]


def _at_the_bound(v, pair):
    """A hand-built bound report of v with slack 0 and ``pair`` as its witness."""
    rank = commutator(*pair).rank()
    profile = CommutatorProfile(probable_max=rank, witness=pair, trials=1, seed=0)
    return BoundReport("PASS", v.n, v.dim, rank, v.dim, 0, profile, "")


E = Mat.unit
_RANDOM = span([random_matrix(4, 4, 3, i) for i in range(5)])
_NO_MATCH_DETAIL = ("equality dimension but no recovered similarity; "
                    "reported as-is, never decided by fiat")
# (space, witness pair, rank of its commutator, the exit the column side takes:
# None when it does not fire, else whether the quotient goes to the exceptional
# matcher, which then returns None)
_NO_MATCH_CASES = {
    # the diagonal algebra of M_4 below the band: a 4-dimensional strip is
    # no valid split and m = 4 has no exceptional form
    "strip_of_dimension_four": (
        span(_band(5) + _below([E(4, i, i) for i in range(4)])), (E(5, 0, 0), E(5, 0, 3)), 1, False),
    # the scalars of M_3 below the band: a 1-dimensional quotient space at m = 3
    "quotient_too_small": (
        span(_band(4) + _below([Mat.identity(3)])), (E(4, 0, 0), E(4, 0, 2)), 1, True),
    # no non-scalar member of the quotient has a rational eigenvalue
    "irrational_eigenvalues": (
        span(_band(3) + _below([Mat.identity(2), Mat.from_rows([[0, 2], [1, 0]])])),
        (E(3, 0, 0), E(3, 0, 1)), 1, True),
    # the Schur test fails and every member of span(I, E_01, E_02) is derogatory
    "derogatory_quotient": (
        span(_band(4, skip=(3,)) + _below([Mat.identity(3), E(3, 0, 1), E(3, 0, 2)])),
        (E(4, 0, 0), E(4, 0, 1)), 1, True),
    # five random members of M_4: neither side fires
    "random_span": (_RANDOM, (_RANDOM.basis[0], _RANDOM.basis[4]), 3, None),
}


@pytest.mark.parametrize("name", _NO_MATCH_CASES)
def test_recognize_reports_no_match(name):
    v, pair, rank, exceptional = _NO_MATCH_CASES[name]
    assert commutator(*pair).rank() == rank
    n = v.n
    a, b = ([int(x) for x in m.data] for m in pair)
    ceiling = commrank._ceiling(v.integer_basis()[1], commrank._commutator_rows(a, b, n), n)
    if exceptional is None:
        assert ceiling is None
    else:
        transposed, split = ceiling
        assert not transposed and split.dim == rank
        assert verify._match_block_form(v, False, split) is None
        m = n - split.dim
        if exceptional:
            assert verify._match_exceptional(span(split.quotients, m, m)) is None
        else:
            assert m not in (2, 3)
    verdict = verify._recognize(v, _at_the_bound(v, pair), ceiling)
    assert verdict == verify.StructureVerdict("NO_MATCH", k_hat=rank, detail=_NO_MATCH_DETAIL)
    assert not verdict.matched


def test_algebra_report_off_the_bound():
    v = _NO_MATCH_CASES["strip_of_dimension_four"][0]
    r = algebra_structure_report(v, 32, 7)
    assert r.is_algebra and not r.passed and (r.dim, r.k_hat, r.bound) == (9, 1, 10)
    assert r.structure.status == "NOT_EQUALITY_CASE"
    assert r.structure.detail == "dim 9 vs bound 10 at sampled rank 1"
    assert r.note == "algebra but structure recovery did not confirm the extremal form"
