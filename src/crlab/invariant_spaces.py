"""Spaces invariant under conjugation by all invertible upper triangular
matrices, their combinatorial closure, and the exhaustive dimension search.

A space fixed by every upper-triangular conjugation is graded: it splits into
off-diagonal matrix-unit lines (a position set S) and a diagonal part D.  D is
described by a partition of the indices (blocks forced to share a diagonal
value) plus optional explicit difference generators; the partition covers all
enumerated specs, the differences appear when closures force E_ii - E_jj into
a space whose partition does not already contain it.

Closure rules (least fixpoint):

  R1  upper (i,j) in S        ->  the whole rectangle p <= i, q >= j joins S
  R2  lower (i,j) in S        ->  the lower (p,j) and (i,p) for j < p < i
                                  join S, and e_i - e_j joins D
  R3  lower (i,j) in S        ->  the mirror (j,i) joins S (by R2 and R4)
  R4  d in D with d_p != d_q  ->  the upper pair (p,q) joins S: every pair
                                  crossing two blocks, and for a difference
                                  e_i - e_j every upper pair touching i or j

R2 states only what R4 does not: commutation with E_pi (p < i) and E_jq
(q > j) carries a lower (i, j) to e_i - e_j, (p, j) and (i, q), and R4 on
e_i - e_j adds every upper pair touching i or j, which holds the upper
(p, j) and (i, q) and the mirror (j, i) (so R3 follows).

Diagonal blocks.  A partition spec with closed units S is closed exactly
when no missing upper pair (p, q) crosses two blocks (R4) and each index
touched by a lower unit is a block of its own (R2's difference).  The first
condition says that the blocks are unions of runs, the maximal runs of
consecutive indices with no superdiagonal unit (i, i+1) of S between them:
no such unit with p <= i < q is in S, as R1 would carry it to (p, q), and a
missing (i, i+1) is itself a missing upper pair.  An index touched by a
lower unit is a run of its own: every upper pair touching it is in S (R2,
then R4).

The search.  For a closed unit set S let C(S) be S plus the diagonal part
span(I, e_i - e_j for each lower (i, j) in S): the spec with units S, one
diagonal block and the forced differences.  Every closed spec with units S
contains C(S), since its partition keeps the indices of lower positions as
singletons and its blocks sum to I; and C is monotone, C(S) <= C(S') when
S <= S'.  So an exact witness pair in C(S) refutes every spec whose unit set
contains S, and the walk never extends a refuted set.  Every unrefuted
closed set T is still reached: for a closed R < T and a position p in T - R,
the closure of R + p lies in T, so a chain of closed sets inside T leads from
the empty set to T, and each link, a subset of T, is unrefuted as well.  The
partition specs of the surviving sets are then scanned in descending
dimension, stopping below the best dimension confirmed.

Confirmations are certified by a line cover where one exists.  The
commutators of a unit-and-diagonal space V are spanned by [E_ij, E_jl]
(E_il, or E_ii - E_jj when l = i) and [D, E_ij] = (d_i - d_j) E_ij, so the
support of [V, V] is combinatorial.  If r rows and s columns cover it with
r + s <= k, every commutator has rank <= k: V is inside a compression space
(Atkinson and Lloyd, "Large spaces of matrices of bounded rank", 1980;
Eisenbud and Harris, "Vector spaces of matrices of low rank", 1988).  A
minimum cover has as many lines as a maximum matching of the support's
row-column graph (König, 1931).  Only a space with no cover of at most k
lines is sampled, and a sampled refutation is an exact rank over Q.

``SearchReport.counts``: ``unit_sets`` closed sets decided by the walk,
``unit_sets_refuted`` those with a witness in C(S), ``specs`` the partition
specs of the surviving sets, and the scan's ``certified_no`` (exact
witness), ``certified_yes`` (a cover of at most k lines), ``probable_yes``
(sampled) and ``skipped_below_max``, which add up to ``specs``.

Why triangular-invariant spaces attain the maximum: the d-dimensional spaces
with rank [A, B] <= k form a closed subvariety of Gr(d, M_n) stable under the
upper-triangular Borel group; when it is nonempty, Borel's fixed-point theorem
(Borel, "Groupes linéaires algébriques", 1956) gives a fixed point in it, a
triangular-invariant space of the same dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .commrank import dimension_bound, satisfies_rank_condition
from .linalg import Mat, VectorSpan, commutator
from .subspace import MatrixSubspace

__all__ = [
    "InvariantSpaceSpec",
    "SearchReport",
    "triangular_closure",
    "is_triangular_invariant",
    "enumerate_invariant_spaces",
    "search_max_dimension",
    "split_bound",
    "commutator_line_cover",
]

DEFAULT_SEARCH_GUARD = 8


@dataclass(frozen=True)
class InvariantSpaceSpec:
    """Combinatorial description of a triangular-conjugation-invariant space."""

    n: int
    units: frozenset  # off-diagonal positions (i, j), zero-based
    diag_blocks: tuple  # partition of range(n), stored as sorted tuples by least index
    forced_diffs: frozenset = frozenset()  # (i, j), i > j: generator e_i - e_j

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        # as sets whatever was passed: hashable, and a repeat counts once in dim
        object.__setattr__(self, "units", frozenset(self.units))
        object.__setattr__(self, "forced_diffs", frozenset(self.forced_diffs))
        for (i, j) in self.units:
            if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"bad unit position {(i, j)}")
        blocks = sorted(tuple(sorted(b)) for b in self.diag_blocks)
        if not all(blocks) or sorted(x for b in blocks for x in b) != list(range(self.n)):
            raise ValueError("diag_blocks must partition the index set")
        object.__setattr__(self, "diag_blocks", tuple(blocks))
        for (i, j) in self.forced_diffs:
            if not 0 <= j < i < self.n:
                raise ValueError(f"bad difference generator {(i, j)}: need 0 <= j < i < n")

    @cached_property
    def _diag_span(self):
        """Span of the block indicators and the forced differences e_i - e_j."""
        n = self.n
        gens = [[int(x in block) for x in range(n)] for block in self.diag_blocks]
        gens += [[(x == i) - (x == j) for x in range(n)] for (i, j) in self.forced_diffs]
        return VectorSpan(n, gens)

    @property
    def diag_dim(self):
        if not self.forced_diffs:  # block indicators are independent
            return len(self.diag_blocks)
        return self._diag_span.dim

    @property
    def dim(self):
        return len(self.units) + self.diag_dim

    def realize(self):
        """The described space as a canonical MatrixSubspace."""
        mats = [Mat.unit(self.n, i, j) for (i, j) in sorted(self.units)]
        mats += [Mat.diagonal(g) for g in self._diag_span.entries]
        return MatrixSubspace.span(mats, self.n, self.n)

    def integer_basis(self):
        """``realize().integer_basis()`` without realizing: a unit (i, j) is
        ``scale`` at flat i*n + j, and the rows of the diagonal span's scaled
        RREF (over its ``scale``) lie on the flats x*(n + 1); rows go by
        pivot, as tuples."""
        n, span = self.n, self._diag_span
        scale, diag = span.scale, span.entries
        rows = []
        for (i, j) in self.units:
            rows.append([0] * (n * n))
            rows[-1][i * n + j] = scale
        for r in diag:
            rows.append([0] * (n * n))
            rows[-1][::n + 1] = r
        # every row is zero before its pivot entry, which is positive, so the
        # descending lexicographic order is the ascending pivot order
        rows.sort(reverse=True)
        return scale, tuple(map(tuple, rows))

    def sort_key(self):
        return (sorted(self.units), self.diag_blocks, sorted(self.forced_diffs))


# -- closure -------------------------------------------------------------------

@lru_cache(maxsize=32)
def _closure_masks(n):
    """The off-diagonal positions and, per position, the bitmask of the
    others it forces: R1 above the diagonal, R2's lower targets and R4 on
    e_i - e_j below it (R3 follows).  Cached per n."""
    pos = tuple((i, j) for i in range(n) for j in range(n) if i != j)
    index = {p: b for b, p in enumerate(pos)}
    masks = []
    for b, (i, j) in enumerate(pos):
        if i < j:
            targets = [(p, q) for p in range(i + 1) for q in range(j, n)]
        else:
            targets = [t for p in range(j + 1, i) for t in ((p, j), (i, p))]
            targets += [(p, q) for (p, q) in pos if p < q and {p, q} & {i, j}]
        masks.append(sum(1 << index[t] for t in targets) & ~(1 << b))
    return pos, tuple(masks)


def _close_mask(mask, masks, todo=None):
    """Least superset of ``mask`` that contains masks[b] for each bit b in it;
    only bits in ``todo`` (default: all of ``mask``) may force new ones."""
    todo = mask if todo is None else todo
    while todo:
        low = todo & -todo
        todo ^= low
        new = masks[low.bit_length() - 1] & ~mask
        mask |= new
        todo |= new
    return mask


def _units_of(mask, pos):
    return frozenset(p for b, p in enumerate(pos) if mask >> b & 1)


def triangular_closure(spec):
    """Least invariant spec containing the input (a closure operator).

    R4 turns the input partition and differences into fixed upper pairs; the
    units are the closure of those and the input units, and each lower unit
    adds its difference unless the partition holds it (two singleton blocks).
    """
    pos, masks = _closure_masks(spec.n)
    block_of = {x: bi for bi, b in enumerate(spec.diag_blocks) for x in b}
    touched = {x for d in spec.forced_diffs for x in d}
    seed = sum(1 << b for b, (p, q) in enumerate(pos) if (p, q) in spec.units
               or p < q and (block_of[p] != block_of[q] or {p, q} & touched))
    units = _units_of(_close_mask(seed, masks), pos)
    singletons = {b[0] for b in spec.diag_blocks if len(b) == 1}
    lower = {(i, j) for (i, j) in units if i > j}
    diffs = {(i, j) for (i, j) in spec.forced_diffs | lower
             if not (i in singletons and j in singletons)}
    return InvariantSpaceSpec(spec.n, units, spec.diag_blocks, frozenset(diffs))


# -- invariance predicate --------------------------------------------------------

def is_triangular_invariant(v):
    """Exact test of invariance under all invertible upper-triangular
    conjugations, via the finite generator conditions: diagonal grading and
    closure under commutation with every elementary E_ij (i < j).  V is
    graded (fixed by the diagonal torus) iff every off-diagonal position in
    the support of a member spans a unit line of V.  Conjugation by
    I + t E_ij also has the quadratic term -t^2 E_ij A E_ij = -t^2 a_ji E_ij,
    and closure under it is implied over Q: when a member has a_ji != 0, the
    grading puts E_ji in V, closure under ad E_ij then puts E_ii - E_jj in V,
    and [E_ij, E_ii - E_jj] = -2 E_ij puts E_ij there too."""
    n = v.n
    # the flat index f = i*n + j of an entry is on the diagonal iff n + 1 divides it
    support = {divmod(f, n) for a in v.basis for f, x in enumerate(a.entries)
               if x and f % (n + 1)}
    if not all(v.contains(Mat.unit(n, i, j)) for i, j in support):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            e = Mat.unit(n, i, j)
            if not all(v.contains(commutator(a, e)) for a in v.basis):
                return False
    return True


# -- enumeration ------------------------------------------------------------------

def _set_partitions(items):
    """All partitions of a list, deterministically ordered."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def enumerate_invariant_spaces(n, max_n=DEFAULT_SEARCH_GUARD, keep=None):
    """Yield every closed spec exactly once, or with ``keep`` only the specs
    of the closed unit sets it keeps.

    The closed position sets are found directly: starting from the empty
    set, each one kept is extended by one position and closed again, so
    every closed set C is reached along a chain inside C; as the set is
    already closed, only the new position is expanded.  ``keep(units)`` is
    asked once per closed set reached, the empty one included, and a set it
    rejects is neither extended nor yielded; when ``keep`` holds on every
    closed subset of a kept set, every kept set is reached.  Sets are
    yielded in ascending bitmask order.  For each set S the diagonal part
    ranges over every partition into unions of runs that keeps each index of
    a lower position a block of its own (module docstring).
    """
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the resource guard {max_n}; override max_n (or CRLAB_MAX_N) to force")
    pos, masks = _closure_masks(n)

    def kept(mask):
        return keep is None or keep(_units_of(mask, pos))

    seen = {0}
    found = [0] if kept(0) else []
    frontier = list(found)
    full = (1 << len(pos)) - 1
    while frontier:
        mask = frontier.pop()
        free = full & ~mask
        while free:
            bit = free & -free
            free ^= bit
            c = _close_mask(mask | bit, masks, bit)
            if c not in seen:
                seen.add(c)
                if kept(c):
                    found.append(c)
                    frontier.append(c)
    for mask in sorted(found):
        yield from _specs_for_units(n, _units_of(mask, pos))


def _specs_for_units(n, units):
    # the blocks are unions of the runs between superdiagonal units, and a
    # forced index is a run of its own (module docstring)
    runs = []
    for i in range(n):
        if i == 0 or (i - 1, i) in units:
            runs.append([])
        runs[-1].append(i)
    forced = {x for (i, j) in units if i > j for x in (i, j)}
    fixed = [r for r in runs if r[0] in forced]
    merge_pool = [r for r in runs if r[0] not in forced]
    for grouping in _set_partitions(merge_pool):
        blocks = fixed + [sum(g, []) for g in grouping]
        yield InvariantSpaceSpec(n, units, blocks)


# -- the exhaustive bound search ---------------------------------------------------

def commutator_line_cover(spec):
    """Fewest rows plus columns that cover the support of [V, V], V the space
    of ``spec``; every commutator of V has at most that rank.

    The support is {(i, l) : (i, j), (j, l) in S} (the diagonal (i, i) when
    l = i) plus each (i, j) in S that the diagonal part separates, i.e. with
    i and j in different blocks or touched by a forced difference.  The
    minimum cover is the size of a maximum matching (König), found by
    augmenting paths.
    """
    n, units = spec.n, spec.units
    block = {x: b for b, blk in enumerate(spec.diag_blocks) for x in blk}
    touched = {x for d in spec.forced_diffs for x in d}
    out_of = [[] for _ in range(n)]
    for (i, j) in units:
        out_of[i].append(j)
    cols = [set() for _ in range(n)]  # the support, row by row
    for (i, j) in units:
        cols[i].update(out_of[j])
        if block[i] != block[j] or i in touched or j in touched:
            cols[i].add(j)
    row_of = [None] * n
    return sum(_augment(cols, row_of, i, set()) for i in range(n))


def _augment(cols, row_of, i, seen):
    """Kuhn's step: match row i, re-matching rows along an alternating path
    (a module function, not a closure: a recursive closure is a reference
    cycle, and one per cover left to the cycle collector raised peak memory)."""
    for j in cols[i]:
        if j not in seen:
            seen.add(j)
            if row_of[j] is None or _augment(cols, row_of, row_of[j], seen):
                row_of[j] = i
                return True
    return False


def _least_spec(n, units):
    """C(S): the units S, one diagonal block and S's forced differences."""
    return InvariantSpaceSpec(n, units, (tuple(range(n)),),
                              frozenset(p for p in units if p[0] > p[1]))


def _decide(spec, k, trials, seed):
    """The search's verdict on one space: ``certified_yes`` from a cover of at
    most k lines, else the sampled ``certified_no`` or ``probable_yes``.
    The sampling never stops at a rank ceiling: one at rank r <= k would put
    all commutator columns (rows) in a span the torus makes a coordinate
    subspace of dimension <= r, and its coordinates as rows (columns) would
    be such a cover."""
    if commutator_line_cover(spec) <= k:
        return "certified_yes"
    if satisfies_rank_condition(spec, k, trials, seed).certified_no:
        return "certified_no"
    return "probable_yes"


@dataclass(frozen=True)
class SearchReport:
    n: int
    k: int
    trials: int
    seed: int
    bound: int
    max_dim: int
    argmax: tuple
    counts: dict = field(compare=False)
    matches_bound: bool = False


def search_max_dimension(n, k, trials=32, seed=2024, max_n=DEFAULT_SEARCH_GUARD):
    """Maximum dimension over closed specs passing the rank condition at k.

    The closed unit sets are walked from the empty set, and a set whose least
    space C(S) is refuted is dropped with all its supersets (module
    docstring).  The partition specs of the remaining sets are decided in
    descending dimension and then ``sort_key`` order, and the scan stops
    below the best dimension confirmed; ``argmax`` is every confirmed spec of
    that dimension, in scan order.
    """
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = dict.fromkeys(("unit_sets", "unit_sets_refuted", "specs", "certified_no",
                            "certified_yes", "probable_yes", "skipped_below_max"), 0)

    def unrefuted(units):
        counts["unit_sets"] += 1
        if _decide(_least_spec(n, units), k, trials, seed) == "certified_no":
            counts["unit_sets_refuted"] += 1
            return False
        return True

    by_dim = {}
    for spec in enumerate_invariant_spaces(n, max_n=max_n, keep=unrefuted):
        by_dim.setdefault(spec.dim, []).append(spec)
        counts["specs"] += 1
    best, argmax = -1, []
    for d in sorted(by_dim, reverse=True):
        if d < best:
            counts["skipped_below_max"] += len(by_dim[d])
            continue
        for spec in sorted(by_dim[d], key=InvariantSpaceSpec.sort_key):
            verdict = _decide(spec, k, trials, seed)
            counts[verdict] += 1
            if verdict != "certified_no":
                best = d
                argmax.append(spec)

    bound = dimension_bound(n, k)
    return SearchReport(n=n, k=k, trials=trials, seed=seed,
                        bound=bound, max_dim=best, argmax=tuple(argmax),
                        counts=counts, matches_bound=best == bound)


def split_bound(n, k, t):
    """Dimension bound 1 + (t+k)(n-t) given t leading zero columns; its
    maximum over admissible t equals dimension_bound(n, k)."""
    if not 1 <= t <= n - k:
        raise ValueError("need 1 <= t <= n - k")
    return 1 + (t + k) * (n - t)
