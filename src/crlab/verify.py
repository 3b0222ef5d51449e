"""Cross-cutting checkers: generic elements, the rank-bounded-space dimension
bound for rectangular spaces, and recovery of the extremal block structure.

The structure check is deterministic given a basis: the core invariant
subspace is the smallest invariant subspace containing every basis-pair
commutator's column space (bilinearity makes basis sums exact, not just
generic); basis pairs are scanned only until their columns span as many
dimensions as the sampled rank level, which already gives the whole core
whenever the space can match.  The middle strip comes from the nilpotent
parts of the induced quotient action, and a candidate similarity is
accepted only when conjugation lands exactly on the canonical construction
(span equality, no tolerance).

An exceptional quotient (``diag``, ``nil1_plus_scalar`` or ``nil2``) is the
algebra of polynomials in any of its nonderogatory members, and the tag is
fixed by the eigenvalue multiplicities of such a member: all 1, (2, 1) or
(3).  One Krylov matcher covers the three: it conjugates a member onto the
Jordan matrix with the same eigenvalues through their Krylov bases.
Randomness only enters through the sampled commutator-rank level and the
choice of that member.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .commrank import dimension_bound, max_commutator_rank
from .constructions import (commutative_exceptional_space, exceptional_extremal_space,
                            extremal_space, valid_splits)
from .linalg import (Mat, VectorSpan, block_diag, charpoly_discriminant, commutator,
                     complete_basis, mat_from_columns)
from .numberfield import irreducible_factors
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
    core = _commutator_core(w, k)
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
        witness = (p1 @ block_diag(Mat.identity(k), p2)).inverse()
        target_l = l if l in valid_splits(n, k) else valid_splits(n, k)[0]
        target = extremal_space(n, k, target_l)
        if w.conjugate(witness) == target:
            return "generic", witness, target_l, (k, k + l)
    if m in (2, 3):
        hit = _match_exceptional(MatrixSubspace.span(quotient, m, m), seed)
        if hit is not None:
            p2, tag = hit
            witness = (p1 @ block_diag(Mat.identity(k), p2)).inverse()
            if w.conjugate(witness) == exceptional_extremal_space(n, k, tag):
                return "exceptional", witness, tag, (k,)
    return None


def _commutator_core(w, k):
    """The core C, the smallest invariant subspace containing every
    basis-pair commutator column, as column vectors in RREF order, when
    dim C = k; otherwise some invariant subspace inside C that the caller
    will reject or fail to match.

    The scan of basis pairs stops once the collected columns span k
    dimensions; the span S is then closed under the basis.  S lies in C,
    so when dim C = k the first k-dimensional S is C itself, and the RREF
    rows, the witness and the verdict are those of the full scan.  When
    dim C != k the full scan gives a core the caller rejects; the result
    here is either rejected too or passed to the exact conjugation test,
    which then fails: C is carried along by a similarity, and every space
    the test accepts (V_k and the exceptional spaces) has a k-dimensional
    core.
    """
    n = w.n
    span = VectorSpan(n)
    basis = w.basis
    for a, b in combinations(basis, 2):
        if span.dim >= k:
            break
        c = commutator(a, b)
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


# -- exceptional quotient matcher ------------------------------------------------

# eigenvalue multiplicities of a nonderogatory member -> exceptional tag
_TAG_BY_MULTIPLICITIES = {(1, 1): "diag", (1, 1, 1): "diag",
                          (2, 1): "nil1_plus_scalar", (3,): "nil2"}


def _krylov(a, v):
    """The Krylov basis [v, Av, A^2 v, ...] as the columns of a square matrix."""
    cols = [v]
    for _ in range(a.rows - 1):
        cols.append(a @ cols[-1])
    return mat_from_columns(cols)


def _match_exceptional(qspace, seed):
    """(P, tag) with qspace.conjugate(P^{-1}) the tagged exceptional
    commutative space, or None.

    The first nonderogatory member (basis first, then random combinations)
    decides: if qspace is similar to a tagged space, that member generates
    it, its eigenvalues are rational, and P = K_A K_G^{-1} carries the
    Jordan matrix G with the same eigenvalues onto it, where K_A and K_G are
    Krylov bases of cyclic vectors (all-ones is cyclic for every such G).

    The cyclic vector of A is sought among the unit vectors and the points
    (1, t, ..., t^{m-1}), t = 1 .. m(m-1), of the moment curve (t = 0 is the
    first unit vector).  A nonderogatory A has one maximal invariant
    subspace per distinct irreducible factor of its characteristic
    polynomial, at most m, and each lies in a hyperplane that meets the
    curve in at most m - 1 points, so one of the m(m-1) + 1 curve points is
    cyclic.  No probe is cyclic exactly when A is derogatory.
    """
    m = qspace.n
    if qspace.dim != m:
        return None
    probes = [Mat.column([int(i == j) for i in range(m)]) for j in range(m)]
    probes += [Mat.column([t ** i for i in range(m)]) for t in range(1, m * (m - 1) + 1)]
    rng = random.Random(seed)
    for attempt in range(24):
        a = (qspace.basis[attempt] if attempt < m
             else qspace.random_element(rng, 9))
        k_a = next((k for k in (_krylov(a, v) for v in probes) if k.det()), None)
        if k_a is None:
            continue
        eigen = sorted(((mult, -f[0]) for f, mult in irreducible_factors(a.charpoly())
                        if len(f) == 2), reverse=True)
        tag = _TAG_BY_MULTIPLICITIES.get(tuple(mult for mult, _ in eigen))
        if tag is None:
            return None
        lams = [lam for mult, lam in eigen for _ in range(mult)]
        g = Mat.diagonal(lams)  # the Jordan matrix: ones above repeated eigenvalues
        for i in range(m - 1):
            if lams[i] == lams[i + 1]:
                g = g + Mat.unit(m, i, i + 1)
        p = k_a @ _krylov(g, Mat.column([1] * m)).inverse()
        if qspace.conjugate(p.inverse()) == commutative_exceptional_space(m, tag):
            return p, tag
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
