import random
from fractions import Fraction

import pytest
import sympy

from crlab import commrank
from crlab.commrank import (certify_rank_condition_symbolic, check_dimension_bound,
                            compression_split, dimension_bound,
                            max_commutator_rank, satisfies_rank_condition)
from crlab.constructions import (exceptional_extremal_space, extremal_space,
                                 firstcol_zero_space, lastrow_zero_space,
                                 schur_space)
from crlab.invariant_spaces import InvariantSpaceSpec
from crlab.linalg import Mat, commutator, random_matrix
from crlab.subspace import full_space, span, zero_space


def E(n, i, j):
    return Mat.unit(n, i, j)


def test_profile_commuting_family():
    p = max_commutator_rank(span([Mat.identity(2), E(2, 0, 0)]), 8, 1)
    assert p.probable_max == 0


def test_profile_full_m2():
    p = max_commutator_rank(full_space(2), 8, 1)
    assert p.probable_max == 2
    a, b = p.witness
    assert commutator(a, b).rank() == 2


def test_profile_extremal_block_space():
    p = max_commutator_rank(extremal_space(6, 2, 2), 32, 5)
    assert p.probable_max == 2


def test_profile_witness_reproduces():
    p = max_commutator_rank(lastrow_zero_space(4), 16, 9)
    a, b = p.witness
    assert commutator(a, b).rank() == p.probable_max


def test_profile_verdict_needs_k_in_range():
    p = max_commutator_rank(schur_space(3), 4, 1)
    assert p.verdict(0).status == "PROBABLE_YES"
    assert p.verdict(2).status == "PROBABLE_YES"
    for k in (-1, 3, 7):
        with pytest.raises(ValueError):
            p.verdict(k)


def test_rank_condition_schur_probable_yes_and_exhaustive_zero():
    v = schur_space(5)
    assert satisfies_rank_condition(v, 0, 32, 3).status == "PROBABLE_YES"
    for i, a in enumerate(v.basis):
        for b in v.basis[i + 1:]:
            assert commutator(a, b).is_zero()


def test_rank_condition_full_m3_refuted():
    verdict = satisfies_rank_condition(full_space(3), 1, 16, 3)
    assert verdict.status == "CERTIFIED_NO"
    a, b = verdict.witness
    assert commutator(a, b).rank() == verdict.witness_rank > 1


def test_rank_condition_lastrow_no_invertible_commutator():
    verdict = satisfies_rank_condition(lastrow_zero_space(4), 3, 32, 11)
    assert verdict.status == "PROBABLE_YES"


def test_rank_condition_determinism():
    v = extremal_space(5, 2, 1)
    a = satisfies_rank_condition(v, 1, 16, 123)
    b = satisfies_rank_condition(v, 1, 16, 123)
    assert a == b
    p1 = max_commutator_rank(v, 16, 123)
    p2 = max_commutator_rank(v, 16, 123)
    assert p1 == p2


def test_dimension_bound_values():
    assert dimension_bound(4, 1) == 7
    assert dimension_bound(5, 0) == 7
    assert dimension_bound(3, 2) == 7
    with pytest.raises(ValueError):
        dimension_bound(3, 3)
    with pytest.raises(ValueError):
        dimension_bound(3, -1)


def test_dimension_bound_closed_forms():
    for n in range(2, 51):
        assert dimension_bound(n, 0) == n * n // 4 + 1
        assert dimension_bound(n, n - 1) == n * n - n + 1
        assert dimension_bound(n, 1) == (n - 1) ** 2 // 4 + n + 1


def test_check_dimension_bound_extremal_space():
    report = check_dimension_bound(extremal_space(5, 2, 1), 32, 7)
    assert report.status == "PASS" and report.slack == 0 and report.k_hat == 2


def test_check_dimension_bound_full_m3_not_applicable():
    report = check_dimension_bound(full_space(3), 64, 7)
    assert report.status == "NOT_APPLICABLE" and report.k_hat == 3


def test_check_dimension_bound_zero_space():
    report = check_dimension_bound(zero_space(4), 4, 7)
    assert report.status == "PASS" and report.dim == 0


def test_check_dimension_bound_underestimated_rank_is_flagged(monkeypatch):
    # degenerate sampling (zero coefficient bound) forces k-hat = 0, so the
    # report must flag the failure as a probable-rank artifact, not a disproof
    monkeypatch.setattr(commrank, "ENTRY_BOUND", 0)
    report = check_dimension_bound(full_space(3), 2, 7)
    assert report.status == "FAIL_PROBABLE"
    assert report.k_hat == 0 and report.slack < 0
    assert "lower bound" in report.note


def test_rank_condition_on_conjugated_extremal_spaces():
    # similarity preserves commutator ranks: no refutation at k = 1
    rng = random.Random(43)
    base = extremal_space(4, 1, 1)
    done = 0
    while done < 20:
        q = random_matrix(4, 4, 5, rng.randint(0, 10 ** 6))
        if q.det() == 0:
            continue
        verdict = satisfies_rank_condition(base.conjugate(q), 1, 16, done)
        assert verdict.status == "PROBABLE_YES"
        done += 1


def test_check_dimension_bound_subspace_inherits():
    rng = random.Random(31)
    base = extremal_space(6, 2, 2)
    sub = span([base.random_element(rng, 9) for _ in range(5)])
    report = check_dimension_bound(sub, 16, 5)
    assert report.status == "PASS"


def test_monotonicity_of_probable_max_under_basis_prefix():
    v = extremal_space(4, 2, 1)
    for d in range(1, v.dim + 1):
        w = span(list(v.basis)[:d])
        pw = max_commutator_rank(w, 24, 77)
        pv = max_commutator_rank(v, 24, 77)
        assert pw.probable_max <= pv.probable_max


def test_witness_rank_invariance_under_conjugation_and_transpose():
    rng = random.Random(37)
    p = max_commutator_rank(extremal_space(4, 1, 1), 16, 7)
    a, b = p.witness
    r = commutator(a, b).rank()
    assert commutator(a.transpose(), b.transpose()).rank() == r
    for _ in range(5):
        q = random_matrix(4, 4, 4, rng.randint(0, 10 ** 6))
        if q.det() == 0:
            continue
        qi = q.inverse()
        assert commutator(q @ a @ qi, q @ b @ qi).rank() == r


def test_symbolic_certifier_small_cases():
    assert certify_rank_condition_symbolic(schur_space(3), 0)
    assert certify_rank_condition_symbolic(lastrow_zero_space(3), 2)
    assert not certify_rank_condition_symbolic(full_space(3), 2)
    assert not certify_rank_condition_symbolic(full_space(2), 0)
    # [E12, E21] is invertible, so even rank <= 1 fails for all of M_2
    assert not certify_rank_condition_symbolic(full_space(2), 1)
    assert certify_rank_condition_symbolic(span([E(2, 0, 0), E(2, 0, 1)]), 1)
    assert certify_rank_condition_symbolic(zero_space(3), 0)
    with pytest.raises(ValueError):
        certify_rank_condition_symbolic(schur_space(4), 0)


def test_symbolic_agrees_with_sampling_at_n3():
    rng = random.Random(41)
    spaces = [span([random_matrix(3, 3, 3, rng.randint(0, 10 ** 6)) for _ in range(3)])
              for _ in range(6)]
    q = Mat.from_rows([[2, 1, 0], [0, 3, 1], [1, 0, 5]])  # det 31
    conjugated = extremal_space(3, 1, 1).conjugate(q)
    assert any(x.denominator > 1 for b in conjugated.basis for x in b.data)
    assert [certify_rank_condition_symbolic(conjugated, k) for k in (0, 1, 2)] == \
        [False, True, True]
    for v in spaces + [conjugated]:
        for k in (1, 2):
            exact = certify_rank_condition_symbolic(v, k)
            sampled = satisfies_rank_condition(v, k, 24, 5)
            if exact:
                assert sampled.status == "PROBABLE_YES"
            else:
                assert sampled.status == "CERTIFIED_NO"


def test_rank_condition_read_off_a_profile_scan(monkeypatch):
    # with entry bound 1 the running maximum climbs 2 -> 3, so the first pair
    # above k = 0 is not the maximizing pair: the status read off the profile
    # must still agree, and every witness must certify its rank exactly
    monkeypatch.setattr(commrank, "ENTRY_BOUND", 1)
    v = full_space(3)
    profile = max_commutator_rank(v, 24, 4)
    assert profile.probable_max == 3
    assert satisfies_rank_condition(v, 0, 24, 4).witness_rank == 2
    for k in range(3):
        sampled = satisfies_rank_condition(v, k, 24, 4)
        read = profile.verdict(k)
        assert read.status == sampled.status
        for verdict in (read, sampled):
            if verdict.certified_no:
                assert commutator(*verdict.witness).rank() == verdict.witness_rank > k


# -- the scan against a Fraction loop, draw for draw ------------------------------

def _dense_combination(basis, coeffs, size):
    acc = [Fraction(0)] * size
    for c, b in zip(coeffs, basis):
        for i, x in enumerate(b.data):
            acc[i] += c * x
    return acc


def _fraction_rank(rows):
    """Rank by Gaussian elimination over Fractions."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _reference_scan(basis, n, trials, seed, stop_above):
    """(best rank, best pair, trials used): the same randint draws as the
    scan, A and B as dense Fraction combinations of the canonical basis, and
    rank [A, B] by the elimination above."""
    rng = random.Random(seed)
    bound = commrank.ENTRY_BOUND
    best, pair = -1, None
    for used in range(1, trials + 1):
        ca = [rng.randint(-bound, bound) for _ in basis]
        cb = [rng.randint(-bound, bound) for _ in basis]
        a, b = (_dense_combination(basis, cs, n * n) for cs in (ca, cb))
        comm = [[sum(a[i * n + t] * b[t * n + j] - b[i * n + t] * a[t * n + j]
                     for t in range(n)) for j in range(n)] for i in range(n)]
        r = _fraction_rank(comm)
        if r > best:
            best, pair = r, (Mat(n, n, a), Mat(n, n, b))
            if r > stop_above:
                break
    return best, pair, used


def _conjugated(v, rng):
    q = random_matrix(v.n, v.n, 4, rng.randint(0, 10 ** 6))
    while q.det() == 0:
        q = random_matrix(v.n, v.n, 4, rng.randint(0, 10 ** 6))
    return v.conjugate(q)


def test_scan_matches_a_fraction_loop_draw_for_draw():
    rng = random.Random(53)
    spaces = [(_conjugated(extremal_space(n, k, l), rng), None)
              for n, k, l in ((4, 1, 1), (5, 2, 1), (6, 2, 2))]
    spec = InvariantSpaceSpec(4, frozenset({(0, 1), (0, 3), (2, 3), (1, 2)}),
                              ((0, 2), (1, 3)), frozenset({(2, 0)}))
    spaces.append((spec, spec.realize().basis))
    # spaces whose rank ceiling is proven by the column side (transposed
    # False) or the row side (True)
    ceilinged = [(_conjugated(v, rng), transposed) for v, transposed in (
        (extremal_space(4, 0, 2), False), (extremal_space(5, 2, 1).transpose_space(), True),
        (lastrow_zero_space(4), False), (firstcol_zero_space(4), True),
        (exceptional_extremal_space(4, 1, "nil2"), False))]
    spaces += [(v, None) for v, _ in ceilinged]
    assert any(x.denominator > 1 for b in spaces[0][0].basis for x in b.data)
    for v, basis in spaces:
        basis = v.basis if basis is None else basis
        for seed in range(3):
            best, pair, _ = _reference_scan(basis, v.n, 6, seed, v.n - 1)
            profile = max_commutator_rank(v, 6, seed)
            assert profile.probable_max == best
            assert profile.witness == pair
    # the first pair's ceiling fires on the expected side, the column side
    # tried first, and the scan hands that side and its split on; one trial
    # keeps the same pair and tries the same ceiling
    for v, transposed in ceilinged:
        for seed in range(3):
            profile, (side, split) = commrank._scan(v, 6, seed, v.n - 1)
            assert profile == max_commutator_rank(v, 6, seed)
            assert side == transposed and split.dim == profile.probable_max
            one, (side1, split1) = commrank._scan(v, 1, seed, v.n - 1)
            assert (one.probable_max, one.witness) == (profile.probable_max, profile.witness)
            assert side1 == side
            assert (split1.p, split1.p_inv, split1.quotients) == (split.p, split.p_inv,
                                                                  split.quotients)
    # a rank-condition scan that stops at the first pair above k
    stopped = 0
    for v, basis in spaces:
        basis = v.basis if basis is None else basis
        for k in range(v.n):
            best, pair, used = _reference_scan(basis, v.n, 12, 7, k)
            verdict = satisfies_rank_condition(v, k, 12, 7)
            assert verdict.certified_no == (best > k)
            if verdict.certified_no:
                assert (verdict.witness, verdict.witness_rank) == (pair, best)
                stopped += used < 12
    assert stopped


def test_scan_stops_at_a_proven_ceiling(monkeypatch):
    # every commutator of V_{2,1} has its columns in the 2-dimensional core,
    # so the first pair of rank 2 ends the scan: one elimination, not 32
    v = _conjugated(extremal_space(5, 2, 1), random.Random(59))
    eliminations = []
    bareiss = commrank._bareiss

    def counting(rows):
        eliminations.append(len(rows))
        return bareiss(rows)

    monkeypatch.setattr(commrank, "_bareiss", counting)
    profile = max_commutator_rank(v, 32, 3)
    assert profile.probable_max == 2 and profile.trials == 32
    assert len(eliminations) == 1


def _stacked_commutator_rank(v, side):
    """Sympy's rank of every basis-pair commutator of v, stacked side by
    side ("columns": the rank of their joint column span) or one above the
    other ("rows")."""
    comms = [sympy.Matrix(v.n, v.n, [sympy.Rational(x.numerator, x.denominator)
                                     for x in commutator(a, b).data])
             for i, a in enumerate(v.basis) for b in v.basis[i + 1:]]
    if not comms:
        return 0
    return (sympy.Matrix.hstack if side == "columns" else sympy.Matrix.vstack)(*comms).rank()


def test_ceiling_is_sound_against_sympy():
    rng = random.Random(61)
    spaces = [extremal_space(4, 0, 2), extremal_space(5, 2, 1),
              extremal_space(5, 2, 1).transpose_space(), lastrow_zero_space(4),
              firstcol_zero_space(4), exceptional_extremal_space(4, 1, "diag"),
              schur_space(4), full_space(3)]
    spaces += [span([random_matrix(4, 4, 2, rng.randint(0, 10 ** 6)) for _ in range(d)])
               for d in (2, 3)]
    spaces += [span([E(4, 0, 1), E(4, 1, 2), E(4, 2, 3)])]  # a chain of rank-one commutators
    fired = set()
    for v in [_conjugated(w, rng) for w in spaces]:
        transposed = [m.transpose() for m in v.basis]
        for bound in (10 ** 6, 2, 1):
            comm = commutator(*(v.random_element(rng, bound) for _ in range(2)))
            r = sympy.Matrix(v.n, v.n, comm.data).rank()
            for side, mats, c in (("columns", v.basis, comm),
                                  ("rows", transposed, comm.transpose())):
                if compression_split(mats, c) is not None:
                    fired.add(side)
                    assert _stacked_commutator_rank(v, side) <= r
    assert fired == {"columns", "rows"}


def test_ceiling_refuses_a_commutator_below_the_maximum():
    for n, k, l in ((4, 2, 1), (5, 2, 1), (5, 3, 1)):
        v = _conjugated(extremal_space(n, k, l), random.Random(n * k))
        _, basis = v.integer_basis()
        below = 0
        for i, a in enumerate(basis):
            for b in basis[i + 1:]:
                if commutator(*(Mat(n, n, m) for m in (a, b))).rank() < k:
                    below += 1
                    comm = commrank._commutator_rows(a, b, n)
                    assert commrank._ceiling(basis, comm, n) is None
        assert below
