"""Randomized certification of the maximum commutator rank over a subspace.

The maximum of rank[A, B] over V x V is attained on a Zariski-open set, so a
few random integer-coefficient pairs hit it with overwhelming probability.
One private scan draws every pair, over integer rows with exact (Bareiss)
ranks, and keeps only the best (rank, A, B) as a :class:`CommutatorProfile`.
:meth:`CommutatorProfile.verdict` is the one rule that reads a verdict at k
off it: CERTIFIED_NO with the profile's pair as witness, whose rank is exact
over Q, or PROBABLE_YES recording (trials, seed).  The scan of
:func:`satisfies_rank_condition` stops at the first pair above k, which is its
witness.  A verdict read off a full profile has the same status (same draws),
but its witness is the maximizing pair, which differs from the first pair
above k when the running maximum passes k in more than one step.

A scan also stops at a proven ceiling, which changes neither its profile
nor any verdict.  Let [a, b] be a pair that raised the running maximum to
r and W the column span of [a, b], so dim W = r.  If W is invariant under
V, with P^{-1} A P = [[A_W, *], [0, A']], and the A' commute, then every
commutator has its columns in W and rank at most r: V lies in a
compression space (Atkinson and Lloyd, "Large spaces of matrices of
bounded rank", 1980).  Later pairs can only tie r, and a tie does not
replace the kept pair, so the scan stops.  :func:`compression_split` is
that test, on the one quotient step :func:`~crlab.linalg.invariant_split`;
the row side is the same test on the transposes.  Each extremal space
V_{k,l} passes with its k-dimensional core as W, and its transpose passes
on the row side.  The ceiling is tried on every pair the scan keeps, and
the scan is the one place that splits at it: it hands on the side that
fired and its split, which the structure check reads instead of splitting
anything itself.

For n <= 3 an exhaustive symbolic mode is available: all (k+1)-minors of the
commutator of two generic elements are computed by sympy as polynomials in the
2*dim coordinates and tested for identical vanishing, which decides the rank
condition rather than sampling it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .linalg import (Mat, VectorSpan, _bareiss, _combine, _commutator_rows, _sparse,
                     column_space, commutator, invariant_split)

__all__ = [
    "CommutatorProfile",
    "RankVerdict",
    "BoundReport",
    "max_commutator_rank",
    "satisfies_rank_condition",
    "dimension_bound",
    "check_dimension_bound",
    "compression_split",
    "certify_rank_condition_symbolic",
]

# coefficients are uniform in [-ENTRY_BOUND, ENTRY_BOUND]; read at every scan
ENTRY_BOUND = 10 ** 6


@dataclass(frozen=True)
class CommutatorProfile:
    probable_max: int
    witness: tuple  # (A, B) attaining probable_max
    trials: int
    seed: int

    def verdict(self, k):
        """The rank condition at k read off this scan: CERTIFIED_NO with the
        profile's pair as witness when probable_max > k, else PROBABLE_YES;
        requires 0 <= k < n."""
        if not 0 <= k < self.witness[0].rows:
            raise ValueError("need 0 <= k < n")
        if self.probable_max > k:
            return RankVerdict("CERTIFIED_NO", k, self.trials, self.seed,
                               witness=self.witness, witness_rank=self.probable_max)
        return RankVerdict("PROBABLE_YES", k, self.trials, self.seed)


@dataclass(frozen=True)
class RankVerdict:
    status: str  # "PROBABLE_YES" | "CERTIFIED_NO"
    k: int
    trials: int
    seed: int
    witness: tuple | None = None  # (A, B) with rank [A,B] > k when CERTIFIED_NO
    witness_rank: int | None = None

    @property
    def certified_no(self):
        return self.status == "CERTIFIED_NO"


@dataclass(frozen=True)
class BoundReport:
    status: str  # "PASS" | "FAIL_PROBABLE" | "NOT_APPLICABLE"
    n: int
    dim: int
    k_hat: int
    bound: int | None
    slack: int | None
    profile: CommutatorProfile
    note: str


def _scan(v, trials, seed, stop_above):
    """(profile, ceiling): the best sampled pair of ``v`` as a
    :class:`CommutatorProfile`, and the :func:`_ceiling` of that pair's
    commutator (None when it did not fire).

    ``v`` is anything with ``n`` and ``integer_basis()`` (a MatrixSubspace or
    an InvariantSpaceSpec).  Each trial draws the d coefficients of A, then
    the d coefficients of B; a pair is kept if its exact commutator rank beats
    every earlier one, and sampling stops once a rank exceeds ``stop_above``,
    or once the :func:`_ceiling` of a kept pair shows that no pair can beat
    it.  The basis is scaled by the lcm of its denominators, which
    changes no commutator rank, so pairs are combined, commuted and ranked
    over Python ints; its rows are stripped to their nonzero entries once per
    scan, so each combination walks only those (echelon bases are mostly
    zeros).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = v.n
    size = n * n
    scale, basis = v.integer_basis()
    rows = _sparse(basis)
    rng = random.Random(seed)
    bound = ENTRY_BOUND
    best, a_best, b_best, ceiling = -1, None, None, None
    for _ in range(trials):
        ca = [rng.randint(-bound, bound) for _ in rows]
        cb = [rng.randint(-bound, bound) for _ in rows]
        a, b = _combine(rows, ca, size), _combine(rows, cb, size)
        comm = _commutator_rows(a, b, n)
        r = _bareiss([row[:] for row in comm])[0]
        if r > best:
            best, a_best, b_best = r, a, b
            if r > stop_above:
                break
            ceiling = _ceiling(basis, comm, n)
            if ceiling is not None:
                break
    witness = tuple(Mat.from_scaled(n, n, scale, m) for m in (a_best, b_best))
    return CommutatorProfile(probable_max=best, witness=witness, trials=trials, seed=seed), ceiling


def _ceiling(basis, comm, n):
    """(transposed, split) for the first side of comm = [a, b] on which
    :func:`compression_split` fires, its columns before its rows (the rows
    on the transposed matrices), or None when neither fires.  A split on
    either side proves rank [A, B] <= rank [a, b] for every A, B in
    span(basis); None says nothing.  ``basis`` holds flat row-major integer
    matrices, ``comm`` the rows of [a, b]."""
    mats = [Mat.from_scaled(n, n, 1, m) for m in basis]
    comm = Mat.from_scaled(n, n, 1, [x for row in comm for x in row])
    split = compression_split(mats, comm)
    if split is not None:
        return False, split
    split = compression_split([m.transpose() for m in mats], comm.transpose())
    return None if split is None else (True, split)


def compression_split(mats, comm):
    """The :func:`~crlab.linalg.invariant_split` of ``mats`` at W, the
    column span of the n-by-n matrix ``comm``, when W is invariant and the
    quotient blocks commute, so that every commutator of span(mats) has its
    columns in W; None otherwise.  Commuting is bilinear, so a basis of the
    quotient blocks' span is tested."""
    n = comm.rows
    split = invariant_split(mats, column_space(comm), n)
    if split is None:
        return None
    m = n - split.dim
    qs = VectorSpan(m * m, split.quotients).members(m, m)
    commute = all(commutator(x, y).is_zero() for i, x in enumerate(qs) for y in qs[i + 1:])
    return split if commute else None


def max_commutator_rank(v, trials, seed):
    """Sampled maximum of rank[A, B]; the maximizing pair is kept as witness
    and reproduces ``probable_max``.  Deterministic in (v, trials, seed)."""
    return _scan(v, trials, seed, v.n - 1)[0]


def satisfies_rank_condition(v, k, trials, seed):
    """Decide "rank[A,B] <= k for all pairs" by sampling.

    CERTIFIED_NO carries the first sampled pair whose exact commutator rank
    exceeds k.  PROBABLE_YES records the trial budget.  The status equals
    ``max_commutator_rank(v, trials, seed).verdict(k).status``, since both
    scans draw the same pairs.
    """
    if not 0 <= k < v.n:
        raise ValueError("need 0 <= k < n")
    return _scan(v, trials, seed, k)[0].verdict(k)


def dimension_bound(n, k):
    """nk + floor((n-k)^2 / 4) + 1, the maximal dimension under condition
    rank[A,B] <= k; requires 0 <= k < n."""
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    return n * k + ((n - k) ** 2) // 4 + 1


def check_dimension_bound(v, trials, seed):
    """Estimate k̂ and compare dim V against the bound at k̂.

    k̂ = n means a sampled pair has invertible commutator, so no k < n
    satisfies the rank condition and the bound does not apply.  A FAIL can
    only mean the probable k̂ underestimates the true maximum (the witness
    certifies k̂ as a lower bound, and a larger true k only loosens the
    bound), never a disproof.
    """
    return _bound_report(v, max_commutator_rank(v, trials, seed))


def _bound_report(v, profile):
    """The :class:`BoundReport` of v at the k̂ of ``profile``, a scan of v."""
    n = v.n
    d = v.dim
    k_hat = profile.probable_max
    if k_hat >= n:
        return BoundReport("NOT_APPLICABLE", n, d, k_hat, None, None, profile,
                           "witness pair has invertible commutator; no k < n applies")
    bound = dimension_bound(n, k_hat)
    if d <= bound:
        return BoundReport("PASS", n, d, k_hat, bound, bound - d, profile,
                           "dim within the bound at the sampled rank level")
    return BoundReport("FAIL_PROBABLE", n, d, k_hat, bound, bound - d, profile,
                       "dim exceeds the bound at k̂; k̂ is only a certified "
                       "lower bound, so raise trials before reading more into it")


# -- exhaustive symbolic mode (n <= 3) ---------------------------------------

def certify_rank_condition_symbolic(v, k):
    """Exhaustively decide the rank condition for n <= 3.

    Returns True iff every (k+1)-minor of the commutator of two generic
    members vanishes identically, which certifies rank[A,B] <= k for ALL
    pairs, not just sampled ones.  The generic members are sympy matrices
    over the polynomial ring QQ[a_1..a_d, b_1..b_d].
    """
    n = v.n
    if n > 3:
        raise ValueError("symbolic certification is limited to n <= 3")
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    from sympy import QQ, symbols  # imported here: sympy is slow to load
    from sympy.polys.matrices import DomainMatrix

    d = v.dim
    ring = QQ[symbols(f"a:{d}") + symbols(f"b:{d}")]
    _, ints = v.integer_basis()  # a common scale changes no minor's vanishing

    def generic(coords):
        entries = [sum((x * r[i] for x, r in zip(coords, ints)), ring.zero)
                   for i in range(n * n)]
        return DomainMatrix([entries[i:i + n] for i in range(0, n * n, n)], (n, n), ring)

    a, b = generic(ring.gens[:d]), generic(ring.gens[d:])
    c = a * b - b * a
    lines = [list(t) for t in itertools.combinations(range(n), k + 1)]
    return all(c.extract(rows, cols).det() == 0 for rows in lines for cols in lines)
