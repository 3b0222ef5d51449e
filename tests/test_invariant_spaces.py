import random
from itertools import combinations

import pytest

from crlab.commrank import dimension_bound, satisfies_rank_condition
from crlab.constructions import extremal_space, schur_space
from crlab.invariant_spaces import (InvariantSpaceSpec, enumerate_invariant_spaces,
                                    has_bidiagonal_staircase,
                                    is_triangular_invariant,
                                    search_max_dimension, split_bound,
                                    triangular_closure)
from crlab.linalg import Mat
from crlab.subspace import full_space


def _scalars_spec(n, units=()):
    return InvariantSpaceSpec(n, frozenset(units), (tuple(range(n)),))


def _random_spec(n, rng):
    pos = [(i, j) for i in range(n) for j in range(n) if i != j]
    units = frozenset(p for p in pos if rng.random() < 0.3)
    return _scalars_spec(n, units)


# -- closure -------------------------------------------------------------------

def test_closure_examples():
    s = _scalars_spec(3)
    assert triangular_closure(s) == s

    s = _scalars_spec(3, {(0, 1)})
    c = triangular_closure(s)
    assert c.units == frozenset({(0, 1), (0, 2)})
    assert c.diag_blocks == ((0, 1, 2),)

    c = triangular_closure(_scalars_spec(2, {(1, 0)}))
    assert c.units == frozenset({(0, 1), (1, 0)})
    assert c.dim == 4  # all of M_2


def test_closure_is_extensive_monotone_idempotent():
    rng = random.Random(97)
    for n in (2, 3, 4, 5):
        for _ in range(40):
            s = _random_spec(n, rng)
            c = triangular_closure(s)
            assert s.units <= c.units
            assert triangular_closure(c) == c
            bigger = _scalars_spec(n, frozenset(s.units | {next(iter(
                {(i, j) for i in range(n) for j in range(n) if i != j} - s.units),
                (0, 1))}))
            cb = triangular_closure(bigger)
            assert c.units <= cb.units


def test_closure_three_case_is_weaker():
    s = _scalars_spec(4, {(2, 0)})
    full = triangular_closure(s, rules="full")
    three = triangular_closure(s, rules="three-case")
    assert three.units <= full.units


def test_closure_rejects_bad_rules():
    with pytest.raises(ValueError):
        triangular_closure(_scalars_spec(2), rules="bogus")


# -- the invariance predicate -----------------------------------------------------

def test_is_triangular_invariant_examples():
    assert is_triangular_invariant(extremal_space(4, 1, 1))
    assert is_triangular_invariant(full_space(3))
    assert is_triangular_invariant(schur_space(5))
    q = Mat.from_rows([[1, 1, 0, 2], [0, 1, 1, 0], [1, 0, 1, 0], [0, 2, 0, 1]])
    assert q.det() != 0
    assert not is_triangular_invariant(extremal_space(4, 1, 1).conjugate(q))


def test_realized_spaces_invariant_under_random_conjugations():
    rng = random.Random(101)
    for spec in enumerate_invariant_spaces(3):
        v = spec.realize()
        n = spec.n
        for _ in range(20):
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            lam = rng.randint(-9, 9)
            p = Mat.identity(n) + Mat.unit(n, i, j) * lam
            assert v.conjugate(p) == v
        d = Mat.diagonal([rng.randint(1, 9) for _ in range(n)])
        assert v.conjugate(d) == v


# -- enumeration -------------------------------------------------------------------

def test_enumerate_n2_contents():
    specs = list(enumerate_invariant_spaces(2))
    units_seen = {s.units for s in specs}
    assert frozenset() in units_seen
    assert frozenset({(0, 1)}) in units_seen
    assert frozenset({(0, 1), (1, 0)}) in units_seen
    assert frozenset({(1, 0)}) not in units_seen  # not closed
    dims = sorted(s.dim for s in specs)
    assert dims == [1, 2, 3, 4]


def test_enumerate_matches_brute_force_closed_count():
    pos = [(i, j) for i in range(3) for j in range(3) if i != j]
    brute = 0
    for r in range(len(pos) + 1):
        for comb in combinations(pos, r):
            s = _scalars_spec(3, frozenset(comb))
            if triangular_closure(s).units == s.units:
                brute += 1
    enumerated_units = {s.units for s in enumerate_invariant_spaces(3)}
    assert len(enumerated_units) == brute


def test_enumerated_specs_closed_and_invariant():
    for spec in enumerate_invariant_spaces(4):
        assert triangular_closure(spec) == spec
        assert spec.dim == len(spec.units) + spec.diag_dim
    for spec in enumerate_invariant_spaces(3):
        assert is_triangular_invariant(spec.realize())


def test_enumerate_guard():
    with pytest.raises(ValueError):
        list(enumerate_invariant_spaces(7))
    with pytest.raises(ValueError):
        next(iter(enumerate_invariant_spaces(7)))


def test_enumerate_unique():
    specs = list(enumerate_invariant_spaces(4))
    assert len(specs) == len(set(specs))


# -- search -------------------------------------------------------------------------

def test_search_small_cases():
    r = search_max_dimension(3, 1, trials=32, seed=1)
    assert r.max_dim == 5 == r.bound and r.matches_bound
    assert any(s.realize() == extremal_space(3, 1, 1) for s in r.argmax)

    assert search_max_dimension(2, 1, trials=16, seed=1).max_dim == 3

    r = search_max_dimension(4, 0, trials=32, seed=1)
    assert r.max_dim == 5
    assert any(s.realize() == schur_space(4) for s in r.argmax)


def test_search_determinism():
    a = search_max_dimension(3, 1, trials=16, seed=5)
    b = search_max_dimension(3, 1, trials=16, seed=5)
    assert a.max_dim == b.max_dim and a.argmax == b.argmax


def test_staircase_prune_detects_witness_pattern():
    spec = _scalars_spec(4, {(0, 1), (1, 0), (1, 2), (2, 1)})
    assert has_bidiagonal_staircase(spec, 1)
    assert not has_bidiagonal_staircase(spec, 3)
    assert not has_bidiagonal_staircase(_scalars_spec(4, {(0, 1)}), 1)


def test_pruned_specs_are_genuinely_refuted():
    # sampling instead of pruning must reach the same verdict
    pruned = [(spec, k)
              for n in (4, 5)
              for spec in enumerate_invariant_spaces(n)
              for k in range(1, n)
              if has_bidiagonal_staircase(spec, k)]
    assert len(pruned) >= 50
    for spec, k in pruned[:50]:
        verdict = satisfies_rank_condition(spec.realize(), k, 32, 13)
        assert verdict.status == "CERTIFIED_NO"


def test_three_case_rules_family_and_search():
    # the weaker closure can only enlarge the enumerated family, and the
    # search over it still lands exactly on the bound
    for n in (3, 4):
        full = set(enumerate_invariant_spaces(n, rules="full"))
        three = set(enumerate_invariant_spaces(n, rules="three-case"))
        assert full <= three
    r = search_max_dimension(3, 1, trials=32, seed=7, rules="three-case")
    assert r.max_dim == r.bound and r.rules == "three-case"


def test_split_bound():
    assert split_bound(5, 2, 1) == 13 == dimension_bound(5, 2)
    assert split_bound(5, 2, 3) == 11
    for n in range(2, 11):
        for k in range(n):
            best = max(split_bound(n, k, t) for t in range(1, n - k + 1))
            assert best == dimension_bound(n, k)
    with pytest.raises(ValueError):
        split_bound(5, 2, 4)
