import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.utilities.iterables import multiset_partitions

import crlab.commrank as commrank
import crlab.invariant_spaces as invariant_spaces
from crlab.commrank import (dimension_bound, max_commutator_rank,
                            satisfies_rank_condition)
from crlab.constructions import extremal_space, schur_space
from crlab.invariant_spaces import (InvariantSpaceSpec, _close_mask,
                                    _closure_masks, _least_spec,
                                    _specs_for_units, _units_of,
                                    commutator_line_cover,
                                    enumerate_invariant_spaces,
                                    is_triangular_invariant,
                                    search_max_dimension, split_bound,
                                    triangular_closure)
from crlab.linalg import Mat, commutator
from crlab.subspace import MatrixSubspace, full_space, span


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


def _random_partition_spec(n, rng):
    """Random units on a random partition with random difference generators."""
    blocks = [[] for _ in range(n)]
    for x in range(n):
        blocks[rng.randrange(n)].append(x)
    diffs = frozenset((i, j) for i in range(n) for j in range(i)
                      if rng.random() < 0.15)
    return InvariantSpaceSpec(n, _random_spec(n, rng).units,
                              tuple(tuple(b) for b in blocks if b), diffs)


def _least_invariant_units(n, i, j):
    """Off-diagonal support of the least triangular-invariant space holding
    E_ij, from the matrix definition: close span{E_ij} under [E_ab, .] for
    a < b and under the torus grading (each off-diagonal position in a
    member's support spans a unit line of the space)."""
    v = MatrixSubspace.span([Mat.unit(n, i, j)], n, n)
    while True:
        support = {divmod(f, n) for a in v.basis for f, x in enumerate(a.entries)
                   if x and f % (n + 1)}
        mats = list(v.basis) + [Mat.unit(n, x, y) for (x, y) in support]
        mats += [commutator(Mat.unit(n, a, b), m) for a in range(n)
                 for b in range(a + 1, n) for m in v.basis]
        w = MatrixSubspace.span(mats, n, n)
        if w.dim == v.dim:
            return frozenset(support)
        v = w


def test_closure_table_matches_the_matrix_definition_of_invariance():
    # each position's closure in the table is the unit set of the least
    # invariant space holding its matrix unit
    for n in range(6):
        pos, masks = _closure_masks(n)
        for b, (i, j) in enumerate(pos):
            table = _units_of(_close_mask(1 << b, masks), pos)
            assert table == _least_invariant_units(n, i, j), (n, i, j)


def test_closure_with_partition_and_differences_is_invariant():
    rng = random.Random(61)
    for _ in range(60):
        spec = _random_partition_spec(rng.choice((2, 3, 4)), rng)
        c = triangular_closure(spec)
        assert spec.realize() <= c.realize()
        assert triangular_closure(c) == c
        assert is_triangular_invariant(c.realize())


def test_spec_validates_differences_and_keeps_blocks_canonical():
    for diff in ((5, 0), (0, 1), (1, -1), (3, 1)):
        with pytest.raises(ValueError):
            InvariantSpaceSpec(3, frozenset(), ((0, 1, 2),), frozenset({diff}))
    with pytest.raises(ValueError):
        InvariantSpaceSpec(2, frozenset(), ((0, 1), ()))
    given = InvariantSpaceSpec(2, frozenset({(0, 1)}), ((1,), (0,)))
    canonical = InvariantSpaceSpec(2, frozenset({(0, 1)}), ((0,), (1,)))
    assert given.diag_blocks == ((0,), (1,)) and given == canonical
    assert triangular_closure(given) == given
    mixed = InvariantSpaceSpec(4, frozenset(), ([3, 1], (2, 0)))
    assert mixed.diag_blocks == ((0, 2), (1, 3))
    assert mixed.sort_key() == (sorted(mixed.units), ((0, 2), (1, 3)), [])


def test_spec_stores_its_sets_as_frozensets():
    # a set must not make the spec unhashable, nor a repeated position count twice
    want = InvariantSpaceSpec(2, frozenset({(0, 1)}), ((0,), (1,)), frozenset({(1, 0)}))
    for units, diffs in (({(0, 1)}, {(1, 0)}), ([(0, 1), (0, 1)], [(1, 0), (1, 0)])):
        spec = InvariantSpaceSpec(2, units, ((0,), (1,)), diffs)
        assert spec == want and hash(spec) == hash(want)
        assert spec.dim == 3 == len(spec.integer_basis()[1])
    assert InvariantSpaceSpec(2, want.units, ((0,), (1,))).units is want.units


def test_spec_integer_basis_matches_realized():
    rng = random.Random(43)
    specs = [s for n in range(2, 7) for s in enumerate_invariant_spaces(n)]
    specs += [triangular_closure(_random_partition_spec(rng.choice((3, 4, 5, 6)), rng))
              for _ in range(80)]
    assert any(s.forced_diffs for s in specs)
    for s in specs:
        assert s.integer_basis() == s.realize().integer_basis()
    # the search samples a spec exactly as it would sample its realized space
    for spec in list(enumerate_invariant_spaces(5))[::25]:
        for k in range(5):
            assert (satisfies_rank_condition(spec, k, 32, 11)
                    == satisfies_rank_condition(spec.realize(), k, 32, 11))


# -- the invariance predicate -----------------------------------------------------

def test_is_triangular_invariant_examples():
    assert is_triangular_invariant(extremal_space(4, 1, 1))
    assert is_triangular_invariant(full_space(3))
    assert is_triangular_invariant(schur_space(5))
    q = Mat.from_rows([[1, 1, 0, 2], [0, 1, 1, 0], [1, 0, 1, 0], [0, 2, 0, 1]])
    assert q.det() != 0
    assert not is_triangular_invariant(extremal_space(4, 1, 1).conjugate(q))
    # closed under the unipotent generators, but not graded: E_{0,n-1} is
    # in the support of a member without being a unit line of the space
    for n in (2, 3, 4):
        assert not is_triangular_invariant(span([Mat.identity(n) + Mat.unit(n, 0, n - 1)]))


def test_graded_space_open_to_a_commutator_is_not_invariant():
    # graded, since E_10 is a unit line, but [E_00 - E_11, E_01] = 2 E_01 is not in it
    v = span([Mat.unit(2, 0, 0) - Mat.unit(2, 1, 1), Mat.unit(2, 1, 0)])
    assert not v.contains(Mat.unit(2, 0, 1))
    assert not is_triangular_invariant(v)


def _borel_generators(n):
    """I + E_ij (i < j) and diag(2, 3, 5, 7)[:n].  They generate a
    Zariski-dense subgroup of the invertible upper triangular group (2, 3,
    5, 7 are multiplicatively independent), and a stabilizer is Zariski
    closed, so a space is invariant iff each of them fixes it."""
    return ([Mat.identity(n) + Mat.unit(n, i, j) for i in range(n) for j in range(i + 1, n)]
            + [Mat.diagonal((2, 3, 5, 7)[:n])])


@st.composite
def _small_spans(draw):
    """A span in M_n, n <= 4: graded (unit lines and diagonal members) or
    spanned by small integer matrices."""
    n = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    if draw(st.booleans()):
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        units = draw(st.sets(st.sampled_from(off))) if off else set()
        diagonals = draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=n))
        mats = [Mat.unit(n, i, j) for i, j in units] + [Mat.diagonal(d) for d in diagonals]
    else:
        entries = st.lists(small, min_size=n * n, max_size=n * n)
        mats = [Mat(n, n, e) for e in draw(st.lists(entries, max_size=4))]
    return span(mats, n, n)


@settings(max_examples=300, deadline=None)
@given(_small_spans())
def test_is_triangular_invariant_matches_its_definition(v):
    assert is_triangular_invariant(v) == all(v.conjugate(g) == v
                                             for g in _borel_generators(v.n))


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


def _scan_all_masks(n):
    """Reference enumerator: test all 2^(n(n-1)) position subsets for being
    closure fixpoints, in bitmask order."""
    pos, masks = _closure_masks(n)
    for mask in range(1 << len(pos)):
        implied = 0
        for b in range(len(pos)):
            if mask >> b & 1:
                implied |= masks[b]
        if not implied & ~mask:
            yield from _specs_for_units(
                n, frozenset(pos[b] for b in range(len(pos)) if mask >> b & 1))


def test_enumerate_matches_mask_scan_in_order():
    assert list(enumerate_invariant_spaces(4)) == list(_scan_all_masks(4))


def test_enumerate_counts():
    closed = {0: 1, 1: 1, 2: 3, 3: 9, 4: 29, 5: 97, 6: 333}
    specs = {0: 1, 1: 1, 2: 4, 3: 15, 4: 63, 5: 282, 6: 1338}
    for n in range(7):
        found = list(enumerate_invariant_spaces(n))
        assert len({s.units for s in found}) == closed[n]
        assert len(found) == specs[n]


def test_partition_step_yields_exactly_the_closed_partition_specs():
    # for every closed unit set S and every set partition P of the indices,
    # the spec (S, P) is a closure fixed point exactly when it is yielded
    for n in range(6):
        closed = []

        def keep(units):
            closed.append(units)
            return True

        list(enumerate_invariant_spaces(n, keep=keep))
        for units in closed:
            yielded = list(_specs_for_units(n, units))
            fixed = set()
            for blocks in multiset_partitions(list(range(n))):
                spec = InvariantSpaceSpec(n, units, blocks)
                if triangular_closure(spec) == spec:
                    fixed.add(spec)
            assert len(set(yielded)) == len(yielded) and set(yielded) == fixed, units


def test_enumerate_guard():
    with pytest.raises(ValueError):
        list(enumerate_invariant_spaces(9))
    with pytest.raises(ValueError):
        next(iter(enumerate_invariant_spaces(9)))


def test_enumerate_keep_walks_the_kept_down_set():
    # keep the closed sets with at most 6 positions: a down-set, so the walk
    # reaches all of them and yields exactly their specs, in the same order
    small = [s for s in enumerate_invariant_spaces(5) if len(s.units) <= 6]
    asked = []

    def keep(units):
        asked.append(units)
        return len(units) <= 6

    assert list(enumerate_invariant_spaces(5, keep=keep)) == small
    assert len(asked) == len(set(asked))  # once per closed set reached
    assert frozenset() in asked
    assert list(enumerate_invariant_spaces(5, keep=lambda units: False)) == []


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


def _brute_force_search(n, k, trials, seed):
    """Samples the enumerated specs one by one in descending dimension at
    the given trials and seed, with no walk, no line cover and no refutation
    shared between specs.  The scan ends below the best passing dimension,
    where no spec can change the maximum or the argmax."""
    specs = sorted(enumerate_invariant_spaces(n),
                   key=lambda s: (-s.dim, s.sort_key()))
    best, argmax = -1, []
    for spec in specs:
        if spec.dim < best:
            break
        if not satisfies_rank_condition(spec, k, trials, seed).certified_no:
            best = spec.dim
            argmax.append(spec)
    return best, tuple(argmax)


def test_search_matches_brute_force_scan():
    for seed in (2024, 7):
        for n in range(2, 7):
            for k in range(n):
                report = search_max_dimension(n, k, trials=32, seed=seed)
                assert (report.max_dim, report.argmax) == \
                    _brute_force_search(n, k, 32, seed), (n, k, seed)


def test_search_counts():
    for n in (4, 5):
        for k in range(n):
            c = search_max_dimension(n, k, trials=32, seed=3).counts
            assert c["specs"] == (c["certified_no"] + c["certified_yes"]
                                  + c["probable_yes"] + c["skipped_below_max"])
            assert c["unit_sets_refuted"] < c["unit_sets"]
    r = search_max_dimension(5, 2, trials=32, seed=3)
    assert r.counts["certified_yes"] == len(r.argmax) == 4
    assert r.counts["probable_yes"] == 0
    # the survivors are the closed sets whose least space passes
    assert r.counts["specs"] < 282


# -- the line-cover certificate ------------------------------------------------------

def test_line_cover_examples():
    assert commutator_line_cover(_scalars_spec(4)) == 0
    # the n = 4 Schur space: a 2 x 2 corner of units over the scalars
    schur = _scalars_spec(4, {(i, j) for i in (0, 1) for j in (2, 3)})
    assert schur.realize() == schur_space(4)
    assert commutator_line_cover(schur) == 0
    # separating the diagonal gives [D, E_ij] = (d_i - d_j) E_ij: two lines
    split = InvariantSpaceSpec(4, schur.units, ((0, 1), (2, 3)))
    assert commutator_line_cover(split) == 2
    # all of M_3 (units plus forced differences): [E_ij, E_ji] reaches every
    # diagonal entry, so no fewer than 3 lines
    full = triangular_closure(_scalars_spec(3, {(2, 0)}))
    assert full.dim == 9 and commutator_line_cover(full) == 3


def test_line_cover_bounds_sampled_rank():
    # a cover of c lines certifies rank <= c: the sampled maximum of the least
    # space C(S) and of the finest partition spec of every closed set stays
    # within its cover, i.e. cover <= k implies sampled rank <= k for every k
    for n in range(2, 7):
        for units in {s.units for s in enumerate_invariant_spaces(n)}:
            finest = max(_specs_for_units(n, units), key=lambda s: len(s.diag_blocks))
            for spec in (_least_spec(n, units), finest):
                cover = commutator_line_cover(spec)
                assert max_commutator_rank(spec, 32, 5).probable_max <= cover, spec


def _rectangle(rows, cols):
    return {(i, j) for i in rows for j in cols}


# At n = 8, k = 2 these closed sets pass with sampled rank 2, yet the support
# of their commutators needs 3 lines: a cover is not always available
_COVER_FAILS_N8_K2 = (
    _rectangle(range(3), range(4, 8)) | _rectangle((3, 4), range(5, 8)),
    _rectangle(range(3), range(4, 8)) | _rectangle((3, 4), range(5, 8)) | {(3, 4)},
    _rectangle(range(3), range(3, 8)) | _rectangle((3,), range(5, 8)),
    _rectangle(range(3), range(3, 8)) | _rectangle((3,), range(4, 8)),
)


def test_search_samples_sets_without_a_cover(monkeypatch):
    least = [_least_spec(8, frozenset(units)) for units in _COVER_FAILS_N8_K2]
    assert sorted(s.dim for s in least) == [19, 19, 20, 20]
    for spec in least:
        assert triangular_closure(spec) == spec
        assert spec.realize().is_algebra()
        assert commutator_line_cover(spec) == 3
    sampled, ceilings, ceiling = {}, [], commrank._ceiling

    def recording(spec, k, trials, seed):
        verdict = satisfies_rank_condition(spec, k, trials, seed)
        sampled[spec] = verdict.status
        return verdict

    def recording_ceiling(basis, comm, n):
        ceilings.append(ceiling(basis, comm, n))
        return ceilings[-1]

    monkeypatch.setattr(invariant_spaces, "satisfies_rank_condition", recording)
    monkeypatch.setattr(commrank, "_ceiling", recording_ceiling)
    report = search_max_dimension(8, 2, trials=32, seed=2024)
    assert report.max_dim == report.bound == 26
    for spec in least:
        assert sampled[spec] == "PROBABLE_YES"
    # a ceiling at rank <= k would give a cover of <= k lines (_decide)
    assert len(ceilings) >= 4 and all(c is None for c in ceilings)
    # every spec of the argmax still has a cover of 2 lines
    assert report.counts["certified_yes"] == len(report.argmax)


def test_split_bound():
    assert split_bound(5, 2, 1) == 13 == dimension_bound(5, 2)
    assert split_bound(5, 2, 3) == 11
    for n in range(2, 11):
        for k in range(n):
            best = max(split_bound(n, k, t) for t in range(1, n - k + 1))
            assert best == dimension_bound(n, k)
    with pytest.raises(ValueError):
        split_bound(5, 2, 4)
