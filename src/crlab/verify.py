"""Cross-cutting checkers: the rank-bounded-space dimension bound for
rectangular spaces, and recovery of the extremal block structure.

The structure check reads the core off the sampled profile: when the
witness commutator's column span W passes the scan's rank ceiling
(:func:`~crlab.commrank.compression_split`, on the one quotient step
:func:`~crlab.linalg.invariant_split`), W is the core, and the split gives
the change of basis and the quotient blocks.  The scan is the one place
that splits: it hands on the side that fired and its split, so the core is
split once per input and nothing here splits or transposes a basis.  The
middle strip comes from the nilpotent parts of the quotient action, and a
candidate similarity is accepted only when conjugation lands exactly on the
canonical construction (span equality, no tolerance).

An exceptional quotient (``diag``, ``nil1_plus_scalar`` or ``nil2``) is the
algebra of polynomials in any of its nonderogatory members, and the tag is
fixed by the eigenvalue multiplicities of such a member: all 1, (2, 1) or
(3).  One Krylov matcher covers the three: it conjugates a member onto the
Jordan matrix with the same eigenvalues through their Krylov bases.  The
member is found on a fixed grid, so the scan that samples the
commutator-rank level is the structure check's only random input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, product

from .commrank import _bound_report, _scan
from .constructions import exceptional_extremal_space, extremal_space, valid_splits
from .linalg import Mat, VectorSpan, adapted_basis, block_diag, mat_from_columns
from .numberfield import irreducible_factors
from .subspace import MatrixSubspace

__all__ = [
    "StructureVerdict",
    "FlandersReport",
    "AlgebraReport",
    "flanders_check",
    "structure_check",
    "algebra_structure_report",
]

_PROBE_BOUND = 1000  # coefficient bound of the random members probed


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

    @property
    def matched(self):
        """Was a similarity onto an equality-case construction recovered?"""
        return self.status in ("MATCHES_VK", "MATCHES_VK_TRANSPOSE", "EXCEPTIONAL")


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


def flanders_check(v, trials, seed):
    """Estimate the maximal member rank k̂ of a (possibly rectangular) space
    and compare dim against the rank-bounded-space bound k̂ * max(rows, cols)."""
    rng = random.Random(seed)
    probes = chain(v.basis, (v.random_element(rng, _PROBE_BOUND) for _ in range(trials)))
    k_hat = max((m.rank() for m in probes), default=0)
    bound = k_hat * max(v.rows, v.cols)
    return FlandersReport(k_hat=k_hat, dim=v.dim, bound=bound,
                          passed=v.dim <= bound, slack=bound - v.dim,
                          trials=trials, seed=seed)


# -- structure recovery ---------------------------------------------------------

def structure_check(v, trials, seed):
    """Try to recognize an equality-case space as the canonical block
    construction (or its transpose, or a small-n exceptional variant)."""
    profile, ceiling = _scan(v, trials, seed, v.n - 1)
    return _recognize(v, _bound_report(v, profile), ceiling)


def _recognize(v, report, ceiling):
    """The structure verdict of v, given its dimension-bound report and
    ``ceiling``, the ``(transposed, split)`` that its scan's
    :func:`~crlab.commrank._ceiling` returned on the witness commutator C
    (None when no side fired).  A firing W, the column span of C (of its
    transpose on the row side), holds every commutator's columns and is
    invariant, so it is the core; only the side that fired is matched.

    That is exact.  Slack 0 forces k̂ = k for a space similar to V_{k,l}, to
    an exceptional space or to a transpose of one, since the bound is
    strictly increasing in k; the k-dimensional W then lies in the
    k-dimensional core, so the side of the construction fires.  The column
    side never fires on a space similar to a transposed construction
    [[X^T, 0], [Y^T, Z^T]] (I in the corner algebra) with k >= 1 and
    n >= 3: Z_1 = I, Z_2 = 0 and X = 0 give commutators [[0, 0], [Y, 0]],
    whose columns span 0 + Q^{n-k}, and when k >= 2 the [X_1, X_2] add all
    of Q^k + 0; the columns span n - 1 > k dimensions at k = 1 and n > k
    at k >= 2, so they fit in no k-dimensional W.  At
    k = 0 and at n = 2 a transposed construction is similar to a
    construction, which the column side matches.  The matchers are exact,
    so a side that fires unmatched, or none firing, is ``NO_MATCH``.
    """
    k = report.k_hat
    if report.slack != 0:  # None when no k < n applies
        return StructureVerdict("NOT_EQUALITY_CASE", k_hat=k,
                                detail=f"dim {v.dim} vs bound {report.bound} at sampled rank {k}")
    if ceiling is not None:
        transposed, split = ceiling
        w = v.transpose_space() if transposed else v
        verdict = _match_block_form(w, transposed, split)
        if verdict is not None:
            return verdict
    return StructureVerdict("NO_MATCH", k_hat=k,
                            detail="equality dimension but no recovered similarity; "
                                   "reported as-is, never decided by fiat")


def _match_block_form(w, transposed, split):
    """The matched verdict of w (``MATCHES_VK``, ``MATCHES_VK_TRANSPOSE``
    when w is the transposed space, or ``EXCEPTIONAL``), or None when no
    similarity onto a canonical space is recovered, given the
    :func:`~crlab.linalg.invariant_split` of w's basis at its core.

    The verdict's witness Q has w.conjugate(Q) exactly equal to the
    canonical construction.  P1 = [core | e_i ...] comes with its inverse
    from the split and the strip completion P2 from one
    :func:`adapted_basis` reduction, so Q = diag(I_k, P2^{-1}) P1^{-1} is a
    product; the conjugation test inverts Q on its own.
    """
    n, k, p1_inv = w.n, split.dim, split.p_inv
    m = n - k
    qspace = MatrixSubspace.span(split.quotients, m, m)
    # L m (q - tr(q)/m I), L q's scale, for q in a basis of the quotients:
    # the nilpotent part is linear in q and each is scaled by a positive int,
    # so the strip's span is the same and no Fraction is built
    nils = [q * (m * q.scale) - Mat.identity(m) * sum(q.entries[::m + 1])
            for q in qspace.basis]
    strip = VectorSpan(m, [nil.block(0, m, j, j + 1) for nil in nils for j in range(m)])
    l = strip.dim
    if l in valid_splits(n, k):
        witness = block_diag(Mat.identity(k), adapted_basis(strip.members(m, 1), m)[1]) @ p1_inv
        if w.conjugate(witness) == extremal_space(n, k, l):
            return StructureVerdict("MATCHES_VK_TRANSPOSE" if transposed else "MATCHES_VK",
                                    k_hat=k, l=l, chain_dims=(k, k + l),
                                    witness_basis=witness, transposed=transposed)
    if m in (2, 3):
        hit = _match_exceptional(qspace)
        if hit is not None:
            p2_inv, tag = hit
            witness = block_diag(Mat.identity(k), p2_inv) @ p1_inv
            if w.conjugate(witness) == exceptional_extremal_space(n, k, tag):
                return StructureVerdict("EXCEPTIONAL", k_hat=k, tag=tag, chain_dims=(k,),
                                        witness_basis=witness, transposed=transposed)
    return None


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


def _match_exceptional(qspace):
    """The candidate (P^{-1}, tag) for qspace, or None when it cannot be
    similar to a tagged exceptional commutative space.

    The first nonderogatory member decides: if qspace is similar to a
    tagged space, that member generates it, its eigenvalues are rational,
    and P = K_A K_G^{-1} carries the Jordan matrix G with the same
    eigenvalues onto it, where K_A and K_G are Krylov bases of cyclic
    vectors (all-ones is cyclic for every such G); P^{-1} = K_G K_A^{-1}.
    That qspace.conjugate(P^{-1}) is the tagged space is not checked here:
    it is the trailing block of the caller's exact test of the whole space.

    The members tried are the basis B_1 .. B_m, then sum c_i B_i for c in
    the grid {0, ..., D}^m, D = m(m-1)/2, in ``itertools.product`` order.
    A is derogatory exactly when I, A, ..., A^{m-1} are dependent, that is
    when every m-minor of these m matrices vanishes; each minor is a
    polynomial of degree at most D in c, and a nonzero one does not vanish
    on the whole grid (Alon, "Combinatorial Nullstellensatz", 1999).  So the
    grid holds a nonderogatory member whenever qspace has one, and None is
    exact.  Points with fewer than two nonzero c_i are skipped: they give 0,
    which is derogatory, or c B_i, nonderogatory exactly when B_i is.

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
    basis = qspace.basis
    grid = (sum((b * c for b, c in zip(basis, cs)), Mat.zero(m))
            for cs in product(range(m * (m - 1) // 2 + 1), repeat=m) if m - cs.count(0) > 1)
    for a in chain(basis, grid):
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
        return _krylov(g, Mat.column([1] * m)) @ k_a.inverse(), tag
    return None


def algebra_structure_report(v, trials, seed):
    """Combined verdict: closure under products, dimension at the sampled
    rank level, and the recovered block structure."""
    alg = v.is_algebra()
    profile, ceiling = _scan(v, trials, seed, v.n - 1)
    report = _bound_report(v, profile)
    structure = _recognize(v, report, ceiling) if alg else None
    ok = alg and structure.matched
    if not alg:
        note = "not an algebra; the block-structure classification covers algebras only"
    elif ok:
        note = "algebra at the extremal dimension with recovered block structure"
    else:
        note = "algebra but structure recovery did not confirm the extremal form"
    return AlgebraReport(ok, alg, v.dim, report.k_hat, report.bound, structure, note)
