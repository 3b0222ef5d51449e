"""Cross-cutting checkers: generic elements, the rank-bounded-space dimension
bound for rectangular spaces, and recovery of the extremal block structure.

The structure check is deterministic given a basis: the core invariant
subspace is the smallest invariant subspace containing every basis-pair
commutator's column space (bilinearity makes basis sums exact, not just
generic), the middle strip comes from the nilpotent parts of the induced
quotient action, and a candidate similarity is accepted only when conjugation
lands exactly on the canonical construction (span equality, no tolerance).
Randomness only enters through the sampled commutator-rank level and the
eigen-search inside the small exceptional matchers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .commrank import dimension_bound, max_commutator_rank
from .constructions import (commutative_exceptional_space, exceptional_extremal_space,
                            extremal_space, southeast_embed, valid_splits)
from .linalg import (Mat, VectorSpan, charpoly_discriminant, commutator,
                     complete_basis, mat_from_columns)
from .numberfield import irreducible_factors, rational_roots
from .subspace import MatrixSubspace

__all__ = [
    "StructureVerdict",
    "FlandersReport",
    "AlgebraReport",
    "find_distinct_eigenvalue_element",
    "flanders_check",
    "structure_check",
    "algebra_structure_report",
]


@dataclass(frozen=True)
class StructureVerdict:
    status: str  # MATCHES_VK | MATCHES_VK_TRANSPOSE | EXCEPTIONAL | NO_MATCH | NOT_EQUALITY_CASE
    k_hat: int
    l: int | None = None
    tag: str | None = None
    chain_dims: tuple = ()
    witness_basis: Mat | None = None
    transposed: bool = False
    detail: str = ""


@dataclass(frozen=True)
class FlandersReport:
    k_hat: int
    dim: int
    bound: int
    passed: bool
    slack: int
    trials: int
    seed: int


@dataclass(frozen=True)
class AlgebraReport:
    passed: bool
    is_algebra: bool
    dim: int
    k_hat: int
    bound: int | None
    structure: StructureVerdict | None
    note: str


def find_distinct_eigenvalue_element(v, trials, seed, entry_bound=1000):
    """A member with n distinct eigenvalues (nonzero characteristic-polynomial
    discriminant), or None.

    Basis elements are probed first (a diagonal generator with distinct
    entries is its own witness); the ``trials`` budget then counts random
    integer combinations.  Absence of a witness is never proven.
    """
    for b in v.basis:
        if charpoly_discriminant(b):
            return b
    rng = random.Random(seed)
    for _ in range(trials):
        m = v.random_element(rng, entry_bound)
        if charpoly_discriminant(m):
            return m
    return None


def flanders_check(v, trials, seed, entry_bound=1000):
    """Estimate the maximal member rank k̂ of a (possibly rectangular) space
    and compare dim against the rank-bounded-space bound k̂ * max(rows, cols)."""
    rng = random.Random(seed)
    k_hat = 0
    for b in v.basis:
        k_hat = max(k_hat, b.rank())
    for _ in range(trials):
        k_hat = max(k_hat, v.random_element(rng, entry_bound).rank())
    bound = k_hat * max(v.rows, v.cols)
    return FlandersReport(k_hat=k_hat, dim=v.dim, bound=bound,
                          passed=v.dim <= bound, slack=bound - v.dim,
                          trials=trials, seed=seed)


# -- structure recovery ---------------------------------------------------------

def structure_check(v, trials, seed):
    """Try to recognize an equality-case space as the canonical block
    construction (or its transpose, or a small-n exceptional variant)."""
    n = v.n
    d = v.dim
    profile = max_commutator_rank(v, trials, seed)
    k = profile.probable_max
    if k >= n or d != dimension_bound(n, k):
        bound = dimension_bound(n, k) if k < n else None
        return StructureVerdict("NOT_EQUALITY_CASE", k_hat=k,
                                detail=f"dim {d} vs bound {bound} at sampled rank {k}")
    for w, transposed in ((v, False), (v.transpose_space(), True)):
        hit = _match_block_form(w, k, seed)
        if hit is None:
            continue
        kind, p, l_or_tag, chain = hit
        if kind == "generic":
            status = "MATCHES_VK_TRANSPOSE" if transposed else "MATCHES_VK"
            return StructureVerdict(status, k_hat=k, l=l_or_tag, chain_dims=chain,
                                    witness_basis=p, transposed=transposed)
        return StructureVerdict("EXCEPTIONAL", k_hat=k, tag=l_or_tag,
                                chain_dims=chain, witness_basis=p,
                                transposed=transposed)
    return StructureVerdict("NO_MATCH", k_hat=k,
                            detail="equality dimension but no recovered similarity; "
                                   "reported as-is, never decided by fiat")


def _match_block_form(w, k, seed):
    """Recover a similarity onto the canonical space, if one exists.

    Returns ("generic", P, l, chain) or ("exceptional", P, tag, chain), with
    conjugate(w, P) exactly equal to the canonical construction; None when
    recovery fails.
    """
    n = w.n
    core = _commutator_core(w) if k else []
    if len(core) != k:
        return None
    p1_cols = complete_basis(core, n)
    p1 = mat_from_columns(p1_cols)
    p1_inv = p1.inverse()
    quotient = [(p1_inv @ a @ p1).block(k, n, k, n) for a in w.basis]
    m = n - k
    nils = [q - Mat.identity(m) * (q.trace() / m) for q in quotient]
    strip = VectorSpan(m, [nil.col(j) for nil in nils for j in range(m)])
    l = strip.dim
    if l in valid_splits(n, k) or (m == 1 and l == 0):
        mid_cols = [Mat.column(r) for r in strip.rows]
        p2 = mat_from_columns(complete_basis(mid_cols, m))
        witness = (p1 @ southeast_embed(p2, n, head=1)).inverse()
        target_l = l if l in valid_splits(n, k) else valid_splits(n, k)[0]
        target = extremal_space(n, k, target_l)
        if w.conjugate(witness) == target:
            return "generic", witness, target_l, (k, k + l)
    if m in (2, 3):
        qspace = MatrixSubspace.span(quotient, m, m)
        for tag in _exceptional_tags(m):
            p2 = _match_exceptional_block(qspace, m, tag, seed)
            if p2 is None:
                continue
            witness = (p1 @ southeast_embed(p2, n, head=1)).inverse()
            if w.conjugate(witness) == exceptional_extremal_space(n, k, tag):
                return "exceptional", witness, tag, (k,)
    return None


def _exceptional_tags(m):
    return ("diag",) if m == 2 else ("diag", "nil1_plus_scalar", "nil2")


def _commutator_core(w):
    """Smallest invariant subspace containing all basis-pair commutator
    columns, as a list of column vectors."""
    n = w.n
    span = VectorSpan(n)
    basis = w.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            c = commutator(basis[i], basis[j])
            for col in range(n):
                span.add(c.col(col))
    grew = True
    while grew:
        grew = False
        for a in basis:
            for row in list(span.rows):
                img = a @ Mat.column(row)
                if span.add(img.data):
                    grew = True
    return [Mat.column(r) for r in span.rows]


# -- exceptional quotient matchers ------------------------------------------------

def _match_exceptional_block(qspace, m, tag, seed):
    """Basis change of the quotient onto an exceptional commutative form."""
    if qspace.dim != m:
        return None
    if tag == "diag":
        return _match_diagonalizable(qspace, m, seed)
    if tag == "nil2":
        return _match_nil2(qspace, seed)
    if tag == "nil1_plus_scalar":
        return _match_nil1_plus_scalar(qspace, seed)
    return None


def _match_diagonalizable(qspace, m, seed):
    a = find_distinct_eigenvalue_element(qspace, trials=24, seed=seed, entry_bound=9)
    if a is None:
        return None
    roots = rational_roots(a.charpoly())
    if len(roots) != m:
        return None
    cols = []
    for lam in sorted(roots):
        ker = (a - Mat.identity(m) * lam).kernel_basis()
        if len(ker) != 1:
            return None
        cols.append(ker[0])
    p = mat_from_columns(cols)
    if qspace.conjugate(p.inverse()) == commutative_exceptional_space(m, "diag"):
        return p
    return None


def _nilpotent_part(a, m):
    """a - (tr a / m) I when that is nilpotent, else None."""
    nil = a - Mat.identity(m) * (a.trace() / m)
    power = nil
    for _ in range(m - 1):
        power = power @ nil
    return nil if power.is_zero() and (nil @ power).is_zero() else None


def _match_nil2(qspace, seed):
    """Match against the unital algebra of a rank-two nilpotent: find a member
    whose traceless part is nilpotent of rank 2 and read off its Jordan chain."""
    rng = random.Random(seed)
    target = commutative_exceptional_space(3, "nil2")
    for attempt in range(24):
        a = (qspace.basis[attempt] if attempt < qspace.dim
             else qspace.random_element(rng, 9))
        nil = _nilpotent_part(a, 3)
        if nil is None or nil.rank() != 2:
            continue
        nil2 = nil @ nil
        for i in range(3):
            e = Mat.column([Fraction(1 if x == i else 0) for x in range(3)])
            img2 = nil2 @ e
            if img2.is_zero():
                continue
            p = mat_from_columns([img2, nil @ e, e])
            if p.det() and qspace.conjugate(p.inverse()) == target:
                return p
        return None
    return None


def _match_nil1_plus_scalar(qspace, seed):
    """Match against (scalar + rank-one nilpotent on a plane) + independent
    line: split by a member with eigenvalue pattern {double, single}, then
    align the shared nilpotent direction inside the plane."""
    rng = random.Random(seed)
    target = commutative_exceptional_space(3, "nil1_plus_scalar")
    for attempt in range(24):
        a = (qspace.basis[attempt] if attempt < qspace.dim
             else qspace.random_element(rng, 9))
        lin = [(-f[0] / f[1], mult) for f, mult in irreducible_factors(a.charpoly())
               if len(f) == 2]
        if sorted(mult for _, mult in lin) != [1, 2]:
            continue
        double = next(lam for lam, mult in lin if mult == 2)
        single = next(lam for lam, mult in lin if mult == 1)
        shift = a - Mat.identity(3) * double
        plane = (shift @ shift).kernel_basis()
        line = (a - Mat.identity(3) * single).kernel_basis()
        if len(plane) != 2 or len(line) != 1:
            continue
        basis_change = complete_basis(plane, 3)
        p_split = mat_from_columns(basis_change)
        p_split_inv = p_split.inverse()
        for b in qspace.basis:
            t = p_split_inv @ b @ p_split
            if any(t[i, j] for i in (2,) for j in (0, 1)):
                continue  # plane not invariant under b: wrong split
            block = t.block(0, 2, 0, 2)
            lam = block.trace() / 2
            nil = block - Mat.identity(2) * lam
            if nil.is_zero() or not (nil @ nil).is_zero():
                continue
            # source coordinate outside ker(nil), image spans the shared line
            src_coords = next(e for e in (Mat.column([1, 0]), Mat.column([0, 1]))
                              if not (nil @ e).is_zero())
            img_coords = nil @ src_coords
            to_plane = mat_from_columns(plane)
            p = mat_from_columns([to_plane @ img_coords, to_plane @ src_coords,
                                  line[0]])
            if p.det() and qspace.conjugate(p.inverse()) == target:
                return p
        return None
    return None


def algebra_structure_report(v, trials, seed):
    """Combined verdict: closure under products, dimension at the sampled
    rank level, and the recovered block structure."""
    alg = v.is_algebra()
    if not alg:
        profile = max_commutator_rank(v, trials, seed)
        k = profile.probable_max
        bound = dimension_bound(v.n, k) if k < v.n else None
        return AlgebraReport(False, False, v.dim, k, bound, None,
                             "not an algebra; the block-structure classification covers algebras only")
    structure = structure_check(v, trials, seed)
    k = structure.k_hat
    bound = dimension_bound(v.n, k) if k < v.n else None
    ok = (bound == v.dim and structure.status in
          ("MATCHES_VK", "MATCHES_VK_TRANSPOSE", "EXCEPTIONAL"))
    note = "algebra at the extremal dimension with recovered block structure" if ok \
        else "algebra but structure recovery did not confirm the extremal form"
    return AlgebraReport(ok, True, v.dim, k, bound, structure, note)
