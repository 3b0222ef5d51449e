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
  R2  lower (i,j) in S        ->  (p,j) for p < i and (i,q) for q > j join S,
                                  and the diagonal difference e_i - e_j joins
                                  D (the upper ones among these pairs touch i
                                  or j, so R4 on e_i - e_j adds them anyway)
  R3  lower (i,j) in S        ->  the mirror (j,i) joins S
  R4  d in D with d_p != d_q  ->  the upper pair (p,q) joins S; for partition
                                  generators that is every pair crossing two
                                  blocks, for a difference e_i - e_j every
                                  upper pair touching i or j

The search maximizes dimension over all closed specs whose space passes the
sampled rank condition, pruning specs that contain the bidiagonal staircase
through index k+1 (their commutator witness exceeds rank k without any
sampling).  Specs are scanned one after another in descending dimension,
and the rank that refutes a spec is exact over Q.

Why triangular-invariant spaces attain the maximum: the d-dimensional spaces
with rank [A, B] <= k form a closed subvariety of Gr(d, M_n) stable under the
upper-triangular Borel group; when it is nonempty, Borel's fixed-point theorem
(Borel, "Groupes linéaires algébriques", 1956) gives a fixed point in it, a
triangular-invariant space of the same dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .commrank import dimension_bound, satisfies_rank_condition
from .linalg import Mat, VectorSpan, _clear_denominators
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

DEFAULT_SEARCH_GUARD = 7


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

    @cached_property
    def _diag_span(self):
        """Span of the block indicators and the forced differences e_i - e_j."""
        gens = []
        for block in self.diag_blocks:
            g = [Fraction(0)] * self.n
            for x in block:
                g[x] = Fraction(1)
            gens.append(g)
        for (i, j) in sorted(self.forced_diffs):
            g = [Fraction(0)] * self.n
            g[i], g[j] = Fraction(1), Fraction(-1)
            gens.append(g)
        return VectorSpan(self.n, gens)

    @property
    def diag_dim(self):
        return self._diag_span.dim

    @property
    def dim(self):
        return len(self.units) + self.diag_dim

    def realize(self):
        """The described space as a canonical MatrixSubspace."""
        mats = [Mat.unit(self.n, i, j) for (i, j) in sorted(self.units)]
        mats += [Mat.diagonal(g) for g in self._diag_span.rows]
        return MatrixSubspace.span(mats, self.n, self.n)

    def integer_basis(self):
        """``realize().integer_basis()`` without realizing: a unit (i, j) is
        ``scale`` at flat i*n + j, and the diagonal RREF rows, cleared by their
        lcm ``scale``, lie on the flats x*(n + 1); rows go by pivot."""
        n, span = self.n, self._diag_span
        scale, diag = _clear_denominators(span.rows)
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
        return scale, rows

    def sort_key(self):
        return (sorted(self.units), self.diag_blocks, sorted(self.forced_diffs))


def _canonical_blocks(blocks):
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


# -- closure -------------------------------------------------------------------

def _rule_targets(n, i, j):
    """Positions forced by a single unit at (i, j) (diagonal effects excluded)."""
    out = set()
    if i < j:
        out.update((p, q) for p in range(i + 1) for q in range(j, n) if p != q)
    else:
        out.add((j, i))
        out.update((p, j) for p in range(i) if p != j)
        out.update((i, q) for q in range(j + 1, n) if q != i)
    out.discard((i, j))
    return out


@lru_cache(maxsize=32)
def _closure_masks(n):
    """The off-diagonal positions and, per position, the bitmask of positions
    it forces: R1-R3, plus for a lower (i, j) the upper pairs touching i or j
    that its difference forces through R4.  Cached per n."""
    pos = tuple((i, j) for i in range(n) for j in range(n) if i != j)
    index = {p: b for b, p in enumerate(pos)}
    masks = []
    for (i, j) in pos:
        targets = _rule_targets(n, i, j)
        if i > j:
            targets.update((p, q) for (p, q) in pos if p < q and {p, q} & {i, j})
        masks.append(sum(1 << index[t] for t in targets))
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
    return InvariantSpaceSpec(spec.n, units, _canonical_blocks(spec.diag_blocks),
                              frozenset(diffs))


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


def enumerate_invariant_spaces(n, max_n=DEFAULT_SEARCH_GUARD):
    """Yield every closed spec exactly once.

    The closed position sets are found directly: starting from the empty
    set, each one found is extended by one position and closed again, so
    every closed set C is reached along a chain inside C; as the set is
    already closed, only the new position is expanded.  They are yielded
    in ascending bitmask order.  For each set S the diagonal part ranges over
    all partitions that merge only blocks allowed by R4: indices touched by a
    lower position stay singletons (their differences are forced), and any
    two indices joined by a missing upper pair stay in one block.
    """
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the resource guard {max_n}; override max_n to force")
    pos, masks = _closure_masks(n)
    closed, frontier = {0}, [0]
    full = (1 << len(pos)) - 1
    while frontier:
        mask = frontier.pop()
        free = full & ~mask
        while free:
            bit = free & -free
            free ^= bit
            c = _close_mask(mask | bit, masks, bit)
            if c not in closed:
                closed.add(c)
                frontier.append(c)
    for mask in sorted(closed):
        yield from _specs_for_units(n, _units_of(mask, pos))


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
    for grouping in _set_partitions(merge_pool):
        blocks = fixed + [sum(g, []) for g in grouping]
        yield InvariantSpaceSpec(n, units, _canonical_blocks(blocks))


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
    trials: int
    seed: int
    bound: int
    max_dim: int
    argmax: tuple
    counts: dict = field(compare=False)
    matches_bound: bool = False


def _evaluate_spec(spec, k, trials, seed):
    """One spec's outcome, sampled over its own integer rows: 'pruned',
    'no' (certified) or 'yes' (probable)."""
    if has_bidiagonal_staircase(spec, k):
        return "pruned"
    verdict = satisfies_rank_condition(spec, k, trials, seed)
    return "no" if verdict.certified_no else "yes"


def search_max_dimension(n, k, trials=32, seed=2024, max_n=DEFAULT_SEARCH_GUARD):
    """Maximum dimension over closed specs passing the rank condition at k.

    Specs are processed in descending dimension, so the scan stops as soon as
    every remaining spec is smaller than the best passing one; pruned and
    refuted counts are reported.
    """
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    specs = sorted(((s.dim, s) for s in enumerate_invariant_spaces(n, max_n=max_n)),
                   key=lambda t: (-t[0], t[1].sort_key()))
    bound = dimension_bound(n, k)
    counts = {"specs": len(specs), "pruned": 0, "certified_no": 0,
              "probable_yes": 0, "skipped_below_max": 0}
    best = -1
    argmax = []

    for d, spec in specs:
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

    return SearchReport(n=n, k=k, trials=trials, seed=seed,
                        bound=bound, max_dim=best, argmax=tuple(argmax),
                        counts=counts, matches_bound=best == bound)


def split_bound(n, k, t):
    """Dimension bound 1 + (t+k)(n-t) given t leading zero columns; its
    maximum over admissible t equals dimension_bound(n, k)."""
    if not 1 <= t <= n - k:
        raise ValueError("need 1 <= t <= n - k")
    return 1 + (t + k) * (n - t)
