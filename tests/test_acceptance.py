"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything asserted here is exact (integer or rational equality); the only
probabilistic ingredients are sampled rank levels, whose trial counts and
seeds are pinned below.  The n = 8 exhaustive search runs under the ``long``
marker: ``pytest -m long`` (everything else: ``pytest -m "not long"`` or a
plain ``pytest``, which runs both).
"""

import random
import time
from itertools import chain

import pytest
import sympy

from crlab.commrank import dimension_bound, satisfies_rank_condition
from crlab.constructions import (extremal_space, firstcol_zero_space,
                                 flanders_space, lastrow_zero_space,
                                 rank_one_max_space, schur_space, valid_splits)
from crlab.invariant_spaces import (InvariantSpaceSpec,
                                    enumerate_invariant_spaces,
                                    is_triangular_invariant,
                                    search_max_dimension, triangular_closure)
from crlab.linalg import Mat, commutator, random_matrix
from crlab.subspace import span
from crlab.triangularize import triangularize_rank_one, verify_triangular
from crlab.verify import algebra_structure_report, flanders_check, structure_check


def _ok(name, t0):
    print(f"ACCEPTANCE PASS: {name} ({time.monotonic() - t0:.2f}s)")


def _invertible(n, seed, bound=3):
    rng = random.Random(seed)
    while True:
        q = random_matrix(n, n, bound, rng.randint(0, 10 ** 9))
        if q.det() != 0:
            return q


def test_criterion_1_formula_table():
    t0 = time.monotonic()
    for n in range(2, 11):
        for k in range(n):
            for l in valid_splits(n, k):
                assert extremal_space(n, k, l).dim == \
                    n * k + (n - k) ** 2 // 4 + 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"formula table took {elapsed:.2f}s"
    for n in range(2, 51):
        assert dimension_bound(n, 0) == n * n // 4 + 1
        assert dimension_bound(n, n - 1) == n * n - n + 1
        assert dimension_bound(n, 1) == (n - 1) ** 2 // 4 + n + 1
    _ok("1 formula table and closed-form identities", t0)


def test_criterion_2_schur_commutators_vanish():
    t0 = time.monotonic()
    for n in range(1, 11):
        basis = schur_space(n).basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert commutator(basis[i], basis[j]).is_zero()
    _ok("2 schur-space basis commutators are exactly zero (n <= 10)", t0)


def test_criterion_3_rank_condition_on_block_spaces():
    t0 = time.monotonic()
    seed = 20240
    for n in range(2, 7):
        for k in range(n):
            for l in valid_splits(n, k):
                v = extremal_space(n, k, l)
                yes = satisfies_rank_condition(v, k, 32, seed)
                assert yes.status == "PROBABLE_YES", (n, k, l)
                if k >= 1:
                    no = satisfies_rank_condition(v, k - 1, 32, seed)
                    assert no.status == "CERTIFIED_NO", (n, k, l)
                    a, b = no.witness
                    assert commutator(a, b).rank() == k == no.witness_rank
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _ok("3 rank condition certified on every block space (n <= 6)", t0)


def test_criterion_4_no_invertible_commutators_in_corner_spaces():
    t0 = time.monotonic()
    for n in range(2, 7):
        for make in (lastrow_zero_space, firstcol_zero_space):
            v = make(n)
            assert v.dim == n * n - n + 1
            rng = random.Random(9000 + n)
            for _ in range(100):
                a = v.random_element(rng, 1000)
                b = v.random_element(rng, 1000)
                assert commutator(a, b).det() == 0
    _ok("4 corner spaces: 100 sampled commutators per space have det 0", t0)


# SearchReport.counts at trials 32 and seed 2024, one tuple per k in the order
# of _COUNT_KEYS: a change to the search that moves them must do so on purpose
_COUNT_KEYS = ("unit_sets", "unit_sets_refuted", "specs", "certified_no",
               "certified_yes", "probable_yes", "skipped_below_max")
_PINNED_COUNTS = {
    6: [(135, 103, 37, 3, 1, 0, 33), (181, 100, 142, 12, 4, 0, 126),
        (225, 92, 383, 9, 2, 0, 372), (270, 89, 848, 8, 4, 0, 836),
        (314, 86, 1225, 4, 2, 0, 1219), (333, 57, 1281, 0, 2, 0, 1279)],
    7: [(328, 264, 70, 2, 2, 0, 66), (511, 318, 299, 10, 2, 0, 287),
        (668, 313, 865, 10, 4, 0, 851), (807, 289, 2167, 8, 2, 0, 2157),
        (962, 290, 4640, 8, 4, 0, 4628), (1104, 282, 6330, 4, 2, 0, 6324),
        (1165, 186, 6517, 0, 2, 0, 6515)],
}


def _check_search(n, k, trials, seed):
    report = search_max_dimension(n, k, trials=trials, seed=seed)
    assert report.max_dim == dimension_bound(n, k), (n, k, report.max_dim)
    if n in _PINNED_COUNTS and (trials, seed) == (32, 2024):
        assert report.counts == dict(zip(_COUNT_KEYS, _PINNED_COUNTS[n][k])), (n, k)
    # every argmax spec is confirmed by a line cover, none only by sampling
    assert report.counts["certified_yes"] == len(report.argmax), (n, k, report.counts)
    allowed = {"MATCHES_VK", "MATCHES_VK_TRANSPOSE"}
    if n - k in (1, 2, 3):
        allowed.add("EXCEPTIONAL")
    for spec in report.argmax:
        v = spec.realize()
        assert v.is_algebra(), (n, k, spec)
        verdict = structure_check(v, trials, seed)
        assert verdict.status in allowed, (n, k, verdict.status)


def test_criterion_5_search_reproduces_bound_small():
    t0 = time.monotonic()
    for n in (2, 3, 4):
        for k in range(n):
            _check_search(n, k, trials=32, seed=2024)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _ok("5 exhaustive search matches the bound for n in {2,3,4}, all k", t0)


def test_criterion_5_search_reproduces_bound_n5():
    t0 = time.monotonic()
    for k in range(5):
        _check_search(5, k, trials=32, seed=2024)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _ok("5 exhaustive search matches the bound for n = 5, all k", t0)


def test_criterion_5_search_reproduces_bound_n6():
    t0 = time.monotonic()
    for k in range(6):
        _check_search(6, k, trials=32, seed=2024)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _ok("5 exhaustive search matches the bound for n = 6, all k", t0)


def test_criterion_5_search_reproduces_bound_n7():
    t0 = time.monotonic()
    for k in range(7):
        _check_search(7, k, trials=32, seed=2024)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _ok("5 exhaustive search matches the bound for n = 7, all k", t0)


@pytest.mark.long
def test_criterion_5_search_reproduces_bound_n8_long():
    t0 = time.monotonic()
    for k in range(8):
        _check_search(8, k, trials=32, seed=2024)
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    _ok("5L exhaustive search matches the bound for n = 8, all k", t0)


def test_criterion_6_triangularization_corpus():
    t0 = time.monotonic()
    cases = 0
    seed = 0
    while cases < 50:
        for n in (3, 4, 5, 6):
            seed += 1
            base = rank_one_max_space(n, "generic", ((n - 1) + 1) // 2)
            q = _invertible(n, 7000 + seed)
            w = base.conjugate(q)
            rng = random.Random(8000 + seed)
            d = 2 + (seed % max(1, w.dim - 1))
            sub = span([w.random_element(rng, 5) for _ in range(d)])
            res = triangularize_rank_one(sub)
            assert verify_triangular(sub, res.P)
            cases += 1
            if cases >= 50:
                break
    # the lower-triangular 2x2 family lands on the coordinate swap
    v = span([Mat.unit(2, 1, 0), Mat.diagonal([1, -1])])
    res = triangularize_rank_one(v)
    assert res.P == Mat.from_rows([[0, 1], [1, 0]])
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _ok("6 fifty seeded triangularizations verified exactly, plus the swap", t0)


def _distinct_eigenvalues(m):
    """Has m n distinct complex eigenvalues (a nonzero discriminant of its
    characteristic polynomial)?"""
    return sympy.Matrix(m.rows, m.cols, m.data).charpoly().discriminant() != 0


def test_criterion_7_distinct_eigenvalue_elements():
    t0 = time.monotonic()
    for n in (3, 4, 5):
        d = n * n - n + 1
        for run in range(20):
            rng = random.Random(1000 * n + run)
            v = span([random_matrix(n, n, 9, rng.randint(0, 10 ** 9))
                      for _ in range(d)])
            assert v.dim == d
            draws = random.Random(run)
            probes = chain(v.basis, (v.random_element(draws, 1000) for _ in range(10)))
            m = next((m for m in probes if _distinct_eigenvalues(m)), None)
            assert m is not None, (n, run)
            assert v.contains(m)
    _ok("7 generic member found within 10 trials in all 60 runs", t0)


def test_criterion_8_flanders_equality():
    t0 = time.monotonic()
    for m in range(1, 6):
        for n_cols in range(1, 7):
            for k in range(0, min(m, n_cols) + 1):
                report = flanders_check(flanders_space(m, n_cols, k), 16, 5)
                assert report.passed and report.slack == 0, (m, n_cols, k)
    _ok("8 rank-bounded equality spaces pass with slack 0 (m <= 5, n <= 6)", t0)


def test_criterion_9_algebra_round_trip():
    t0 = time.monotonic()
    for n in range(2, 7):
        for k in range(n):
            l = valid_splits(n, k)[0]
            target = extremal_space(n, k, l)
            for run in range(10):
                q = _invertible(n, 31_000 + 997 * n + 101 * k + run)
                v = target.conjugate(q)
                report = algebra_structure_report(v, 32, 2024)
                assert report.passed, (n, k, run)
                verdict = report.structure
                assert verdict.status == "MATCHES_VK"
                assert v.conjugate(verdict.witness_basis) == \
                    extremal_space(n, k, verdict.l)
    _ok("9 algebra reports pass on 10 conjugates per (n, k), n <= 6", t0)


def test_criterion_10_closure_laws_and_invariance():
    t0 = time.monotonic()
    rng = random.Random(123456)
    checked = 0
    while checked < 1000:
        n = rng.choice((2, 3, 4, 5))
        pos = [(i, j) for i in range(n) for j in range(n) if i != j]
        units = frozenset(p for p in pos if rng.random() < 0.35)
        spec = InvariantSpaceSpec(n, units, (tuple(range(n)),))
        closed = triangular_closure(spec)
        assert spec.units <= closed.units                      # extensive
        assert triangular_closure(closed) == closed            # idempotent
        extra = [p for p in pos if p not in units]
        if extra:
            bigger = InvariantSpaceSpec(
                n, units | {extra[rng.randrange(len(extra))]},
                (tuple(range(n)),))
            assert closed.units <= triangular_closure(bigger).units  # monotone
        checked += 1
    for n in (2, 3, 4, 5):
        for spec in enumerate_invariant_spaces(n):
            assert is_triangular_invariant(spec.realize()), spec
    _ok("10 closure-operator laws (1000 cases) and invariance of all specs", t0)
