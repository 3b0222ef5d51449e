"""Spaces invariant under conjugation by all invertible upper triangular
matrices, their combinatorial closure, and the exhaustive dimension search.

A space fixed by every upper-triangular conjugation is graded: it splits into
off-diagonal matrix-unit lines (a position set S) and a diagonal part D.  D is
described by a partition of the indices (blocks forced to share a diagonal
value) plus optional explicit difference generators; the partition covers all
enumerated specs, the differences appear when closures force E_ii - E_jj into
a space whose partition does not already contain it.

Closure rules (least fixpoint):

  R1  upper (i,j) in S        ->  the whole rectangle k <= i, l >= j joins S
  R2  lower (i,j) in S        ->  (p,j) for p < i and (i,q) for q > j join S
                                  (three-case mode restricts p, q to the open
                                  interval between j and i), and the diagonal
                                  difference e_i - e_j joins D
  R3  lower (i,j) in S        ->  the mirror (j,i) joins S
  R4  d in D with d_p != d_q  ->  the upper pair (p,q) joins S; for partition
                                  generators that is every pair crossing two
                                  blocks, for a difference e_i - e_j every
                                  upper pair touching i or j

The search maximizes dimension over all closed specs whose realized space
passes the sampled rank condition, pruning specs that contain the bidiagonal
staircase through index k+1 (their commutator witness exceeds rank k without
any sampling).  Specs are scanned one after another in descending dimension,
and the rank that refutes a spec is exact over Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .commrank import dimension_bound, satisfies_rank_condition
from .linalg import Mat, rref_rows
from .subspace import MatrixSubspace

__all__ = [
    "InvariantSpaceSpec",
    "SearchReport",
    "triangular_closure",
    "is_triangular_invariant",
    "enumerate_invariant_spaces",
    "search_max_dimension",
    "split_bound",
    "has_bidiagonal_staircase",
    "diagonal_space",
]

DEFAULT_SEARCH_GUARD = 6


@dataclass(frozen=True)
class InvariantSpaceSpec:
    """Combinatorial description of a triangular-conjugation-invariant space."""

    n: int
    units: frozenset  # off-diagonal positions (i, j), zero-based
    diag_blocks: tuple  # partition of range(n): tuple of sorted tuples
    forced_diffs: frozenset = frozenset()  # (i, j), i > j: generator e_i - e_j

    def __post_init__(self):
        for (i, j) in self.units:
            if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"bad unit position {(i, j)}")
        seen = sorted(x for b in self.diag_blocks for x in b)
        if seen != list(range(self.n)):
            raise ValueError("diag_blocks must partition the index set")
        for (i, j) in self.forced_diffs:
            if not i > j:
                raise ValueError("difference generators are stored as (i, j), i > j")

    @property
    def diag_dim(self):
        work = [list(g) for g in _diag_generators(self)]
        return len(rref_rows(work))

    @property
    def dim(self):
        return len(self.units) + self.diag_dim

    def realize(self):
        """The described space as a canonical MatrixSubspace."""
        mats = [Mat.unit(self.n, i, j) for (i, j) in sorted(self.units)]
        mats += [Mat.diagonal(g) for g in _diag_generators(self)]
        return MatrixSubspace.span(mats, self.n, self.n)

    def sort_key(self):
        return (sorted(self.units), self.diag_blocks, sorted(self.forced_diffs))


def _diag_generators(spec):
    gens = []
    for block in spec.diag_blocks:
        g = [Fraction(0)] * spec.n
        for x in block:
            g[x] = Fraction(1)
        gens.append(tuple(g))
    for (i, j) in sorted(spec.forced_diffs):
        g = [Fraction(0)] * spec.n
        g[i] = Fraction(1)
        g[j] = Fraction(-1)
        gens.append(tuple(g))
    return gens


def _canonical_blocks(blocks):
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


# -- closure -------------------------------------------------------------------

def _rule_targets(n, i, j, rules):
    """Positions forced by a single unit at (i, j) (diagonal effects excluded)."""
    out = set()
    if i < j:
        out.update((p, q) for p in range(i + 1) for q in range(j, n) if p != q)
    else:
        out.add((j, i))
        if rules == "full":
            out.update((p, j) for p in range(i) if p != j)
            out.update((i, q) for q in range(j + 1, n) if q != i)
        else:  # positions strictly between the two indices only
            out.update((p, j) for p in range(j + 1, i))
            out.update((i, q) for q in range(j + 1, i))
    out.discard((i, j))
    return out


def triangular_closure(spec, rules="full"):
    """Least invariant spec containing the input (a closure operator)."""
    if rules not in ("full", "three-case"):
        raise ValueError("rules must be 'full' or 'three-case'")
    n = spec.n
    units = set(spec.units)
    diffs = set(spec.forced_diffs)
    blocks = [set(b) for b in spec.diag_blocks]
    block_of = {}
    for bi, b in enumerate(blocks):
        for x in b:
            block_of[x] = bi

    while True:
        new_units = set()
        for (i, j) in units:
            new_units |= _rule_targets(n, i, j, rules) - units
        for (i, j) in units:
            if i > j:
                d = (i, j)
                if d not in diffs and not _diff_in_partition(d, block_of):
                    diffs.add(d)
        # R4 for partition generators: pairs crossing two blocks
        for p in range(n):
            for q in range(p + 1, n):
                if block_of[p] != block_of[q] and (p, q) not in units:
                    new_units.add((p, q))
        # R4 for difference generators: pairs touching a difference index
        touched = {x for d in diffs for x in d}
        for x in touched:
            for y in range(n):
                if y == x:
                    continue
                pq = (min(x, y), max(x, y))
                if pq not in units:
                    new_units.add(pq)
        if not new_units:
            break
        units |= new_units

    diffs = {d for d in diffs if not _diff_in_partition(d, block_of)}
    return InvariantSpaceSpec(n, frozenset(units), _canonical_blocks(blocks),
                              frozenset(diffs))


def _diff_in_partition(d, block_of):
    i, j = d
    # e_i - e_j lies in the partition space iff {i} and {j} are singletons
    bi = [x for x, b in block_of.items() if b == block_of[i]]
    bj = [x for x, b in block_of.items() if b == block_of[j]]
    return len(bi) == 1 and len(bj) == 1


# -- invariance predicate --------------------------------------------------------

def diagonal_space(n):
    return MatrixSubspace.span([Mat.unit(n, i, i) for i in range(n)], n, n)


def is_triangular_invariant(v):
    """Exact test of invariance under all invertible upper-triangular
    conjugations, via the finite generator conditions: closure under
    commutation with every elementary E_ij (i < j), closure under the
    quadratic term E_ij A E_ij, and diagonal grading."""
    n = v.n
    # grading: V must split into its unit lines plus its diagonal part
    unit_count = 0
    for i in range(n):
        for j in range(n):
            if i != j and v.contains(Mat.unit(n, i, j)):
                unit_count += 1
    diag_part = v.intersect(diagonal_space(n))
    if unit_count + diag_part.dim != v.dim:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            e = Mat.unit(n, i, j)
            for a in v.basis:
                if not v.contains(a @ e - e @ a):
                    return False
                if a[j, i] and not v.contains(e):
                    return False
    return True


# -- enumeration ------------------------------------------------------------------

def _positions(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _closure_masks(n, rules):
    """Per-position implication bitmasks (R1, R2, R3 plus the touch rule that
    a lower position's forced difference imposes through R4)."""
    pos = _positions(n)
    index = {p: b for b, p in enumerate(pos)}
    masks = []
    for (i, j) in pos:
        m = 0
        for t in _rule_targets(n, i, j, rules):
            m |= 1 << index[t]
        if i > j:
            for x in (i, j):
                for y in range(n):
                    if y != x:
                        pq = (min(x, y), max(x, y))
                        m |= 1 << index[pq]
        masks.append(m)
    return pos, masks


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


def enumerate_invariant_spaces(n, rules="full", max_n=DEFAULT_SEARCH_GUARD):
    """Yield every closed spec exactly once.

    Subsets S of the off-diagonal positions run in bitmask order; S survives
    iff it is a closure fixpoint.  For each surviving S the diagonal part
    ranges over all partitions that merge only blocks allowed by R4: indices
    touched by a lower position stay singletons (their differences are
    forced), and any two indices joined by a missing upper pair stay in one
    block.
    """
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the resource guard {max_n}; override max_n to force")
    pos, masks = _closure_masks(n, rules)
    nbits = len(pos)
    for mask in range(1 << nbits):
        implied = 0
        m = mask
        while m:
            low = m & -m
            implied |= masks[low.bit_length() - 1]
            m ^= low
            if implied & ~mask:
                break
        if implied & ~mask:
            continue
        units = {pos[b] for b in range(nbits) if mask >> b & 1}
        yield from _specs_for_units(n, units)


def _specs_for_units(n, units):
    # components of the graph whose edges are the missing upper pairs
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in range(n):
        for q in range(p + 1, n):
            if (p, q) not in units:
                rp, rq = find(p), find(q)
                if rp != rq:
                    parent[rp] = rq
    comps = {}
    for x in range(n):
        comps.setdefault(find(x), []).append(x)
    comps = sorted(comps.values())
    forced = {x for (i, j) in units if i > j for x in (i, j)}
    fixed = [c for c in comps if len(c) == 1 and c[0] in forced]
    merge_pool = [c for c in comps if not (len(c) == 1 and c[0] in forced)]
    units_f = frozenset(units)
    for grouping in _set_partitions(merge_pool):
        blocks = fixed + [sum(g, []) for g in grouping]
        yield InvariantSpaceSpec(n, units_f, _canonical_blocks(blocks))


# -- the exhaustive bound search ---------------------------------------------------

def has_bidiagonal_staircase(spec, k):
    """True when S contains both sub- and superdiagonal positions through
    index k+1, which realizes the explicit commutator witness of rank k+1."""
    if k < 1 or spec.n < k + 1:
        return False
    return all((i + 1, i) in spec.units and (i, i + 1) in spec.units
               for i in range(k))


@dataclass(frozen=True)
class SearchReport:
    n: int
    k: int
    rules: str
    trials: int
    seed: int
    bound: int
    max_dim: int
    argmax: tuple
    counts: dict = field(compare=False)
    matches_bound: bool = False


def _evaluate_spec(spec, k, trials, seed):
    """(dim, verdict-ish) for one spec: 'pruned', 'no', or 'yes'."""
    if has_bidiagonal_staircase(spec, k):
        return "pruned"
    verdict = satisfies_rank_condition(spec.realize(), k, trials, seed)
    return "no" if verdict.certified_no else "yes"


def search_max_dimension(n, k, trials=32, seed=2024, rules="full",
                         max_n=DEFAULT_SEARCH_GUARD):
    """Maximum dimension over closed specs passing the rank condition at k.

    Specs are processed in descending dimension, so the scan stops as soon as
    every remaining spec is smaller than the best passing one; pruned and
    refuted counts are reported.
    """
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    specs = sorted(enumerate_invariant_spaces(n, rules=rules, max_n=max_n),
                   key=lambda s: (-s.dim, s.sort_key()))
    bound = dimension_bound(n, k)
    counts = {"specs": len(specs), "pruned": 0, "certified_no": 0,
              "probable_yes": 0, "skipped_below_max": 0}
    best = -1
    argmax = []

    for spec in specs:
        d = spec.dim
        if d < best:
            counts["skipped_below_max"] += 1
            continue
        res = _evaluate_spec(spec, k, trials, seed)
        if res == "pruned":
            counts["pruned"] += 1
        elif res == "no":
            counts["certified_no"] += 1
        else:
            counts["probable_yes"] += 1
            if d > best:
                best = d
                argmax = [spec]
            else:
                argmax.append(spec)

    return SearchReport(n=n, k=k, rules=rules, trials=trials, seed=seed,
                        bound=bound, max_dim=best, argmax=tuple(argmax),
                        counts=counts, matches_bound=best == bound)


def split_bound(n, k, t):
    """Dimension bound 1 + (t+k)(n-t) given t leading zero columns; its
    maximum over admissible t equals dimension_bound(n, k)."""
    if not 1 <= t <= n - k:
        raise ValueError("need 1 <= t <= n - k")
    return 1 + (t + k) * (n - t)
