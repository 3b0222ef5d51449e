import random

import pytest

from crlab.commrank import (certify_rank_condition_symbolic,
                            check_dimension_bound, dimension_bound,
                            max_commutator_rank, satisfies_rank_condition)
from crlab.constructions import (extremal_space, lastrow_zero_space,
                                 schur_space)
from crlab.linalg import Mat, commutator, random_matrix
from crlab.subspace import full_space, span, zero_space


def E(n, i, j):
    return Mat.unit(n, i, j)


def test_profile_commuting_family():
    p = max_commutator_rank(span([Mat.identity(2), E(2, 0, 0)]), 8, 1)
    assert p.probable_max == 0 == p.certified_lower


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
    assert commutator(a, b).rank() == p.certified_lower


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


def test_check_dimension_bound_underestimated_rank_is_flagged():
    # degenerate sampling (zero coefficient bound) forces k-hat = 0, so the
    # report must flag the failure as a probable-rank artifact, not a disproof
    report = check_dimension_bound(full_space(3), 2, 7, entry_bound=0)
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


def test_rank_condition_read_off_a_profile_scan():
    # with entry bound 1 the running maximum climbs through several records,
    # so the first record above k is not always the maximizing pair
    v = full_space(3)
    profile = max_commutator_rank(v, 24, 4, entry_bound=1)
    assert profile.probable_max == 3
    for k in range(3):
        reused = satisfies_rank_condition(v, k, 24, 4, entry_bound=1)
        assert reused == satisfies_rank_condition(full_space(3), k, 24, 4, entry_bound=1)
    assert satisfies_rank_condition(v, 0, 24, 4, entry_bound=1).witness_rank < 3
