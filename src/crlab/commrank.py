"""Randomized certification of the maximum commutator rank over a subspace.

The maximum of rank[A, B] over V x V is attained on a Zariski-open set, so a
few random integer-coefficient pairs hit it with overwhelming probability.
Every sampled rank is exact: the basis is scaled once to integer rows, each
commutator is formed over Python ints and ranked by fraction-free (Bareiss)
elimination.  Refutations ("some pair exceeds k") therefore carry a witness
whose rank is the exact rank over Q; confirmations are only probable and
record (trials, seed).

For n <= 3 an exhaustive symbolic mode is available: all (k+1)-minors of the
commutator of two generic elements are computed by sympy as polynomials in the
2*dim coordinates and tested for identical vanishing, which decides the rank
condition rather than sampling it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Mat, _bareiss, _int_commutator

__all__ = [
    "CommutatorProfile",
    "RankVerdict",
    "BoundReport",
    "max_commutator_rank",
    "satisfies_rank_condition",
    "dimension_bound",
    "check_dimension_bound",
    "certify_rank_condition_symbolic",
]

DEFAULT_ENTRY_BOUND = 10 ** 6


@dataclass(frozen=True)
class CommutatorProfile:
    probable_max: int
    certified_lower: int
    witness: tuple  # (A, B) attaining certified_lower
    trials: int
    seed: int

    def __post_init__(self):
        if self.certified_lower > self.probable_max:
            raise ValueError("certified lower bound above probable max")


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


# The records of the last scan that ran to the top rank level, keyed by the
# identity of its subspace: they answer the rank condition at every k < n, so
# `analyze --k` samples once.  Replaced, never mutated.
_last_full_scan = None


def _sample(v, trials, seed, entry_bound, stop_above):
    """The running-maximum records of rank[A, B] over sampled pairs.

    ``v`` is anything with ``n`` and ``integer_basis()`` (a MatrixSubspace or
    an InvariantSpaceSpec).  Each trial draws the d coefficients of A, then
    the d coefficients of B.  Returns (scale, records): each record is
    (rank, A, B) for a pair whose exact rank beats every earlier one, in draw
    order, with A and B flat integer matrices to be divided by ``scale``.
    Sampling stops early once a rank exceeds ``stop_above``.  The basis is
    scaled by the lcm of its denominators, which changes no commutator rank,
    so the pairs are combined, commuted and ranked over Python ints.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = v.n
    scale, rows = v.integer_basis()
    rng = random.Random(seed)
    records = [(-1, None, None)]
    for _ in range(trials):
        ca = [rng.randint(-entry_bound, entry_bound) for _ in rows]
        cb = [rng.randint(-entry_bound, entry_bound) for _ in rows]
        a, b = _combine(rows, ca, n), _combine(rows, cb, n)
        r = _bareiss(_int_commutator(a, b, n))[0]
        if r > records[-1][0]:
            records.append((r, a, b))
            if r > stop_above:
                break
    return scale, records[1:]


def _witness(v, scale, record):
    return tuple(Mat(v.n, v.n, [Fraction(x, scale) for x in m]) for m in record[1:])


def _combine(rows, coeffs, n):
    acc = [0] * (n * n)
    for c, row in zip(coeffs, rows):
        if c:
            for i, x in enumerate(row):
                if x:
                    acc[i] += c * x
    return acc


def max_commutator_rank(v, trials, seed, entry_bound=DEFAULT_ENTRY_BOUND):
    """Sampled maximum of rank[A, B]; the maximizing pair is kept as witness.

    Exact ranks throughout, so certified_lower == probable_max and the stored
    pair reproduces it under recomputation.  Deterministic in (v, trials, seed).
    """
    global _last_full_scan
    scale, records = _sample(v, trials, seed, entry_bound, v.n - 1)
    _last_full_scan = (v, trials, seed, entry_bound, scale, records)
    best = records[-1]
    return CommutatorProfile(probable_max=best[0], certified_lower=best[0],
                             witness=_witness(v, scale, best), trials=trials, seed=seed)


def satisfies_rank_condition(v, k, trials, seed, entry_bound=DEFAULT_ENTRY_BOUND):
    """Decide "rank[A,B] <= k for all pairs" by sampling.

    CERTIFIED_NO carries the first sampled pair whose exact commutator rank
    exceeds k.  PROBABLE_YES records the trial budget.  A scan of the same
    (v, trials, seed) by :func:`max_commutator_rank` drew the same pairs and
    ran at least as far, so its records are reused instead of sampling again.
    """
    if not 0 <= k < v.n:
        raise ValueError("need 0 <= k < n")
    last = _last_full_scan
    if last is not None and last[0] is v and last[1:4] == (trials, seed, entry_bound):
        scale, records = last[4:]
    else:
        scale, records = _sample(v, trials, seed, entry_bound, k)
    for record in records:
        if record[0] > k:
            return RankVerdict("CERTIFIED_NO", k, trials, seed,
                               witness=_witness(v, scale, record), witness_rank=record[0])
    return RankVerdict("PROBABLE_YES", k, trials, seed)


def dimension_bound(n, k):
    """nk + floor((n-k)^2 / 4) + 1, the maximal dimension under condition
    rank[A,B] <= k; requires 0 <= k < n."""
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    return n * k + ((n - k) ** 2) // 4 + 1


def check_dimension_bound(v, trials, seed, entry_bound=DEFAULT_ENTRY_BOUND):
    """Estimate k̂ and compare dim V against the bound at k̂.

    k̂ = n means a sampled pair has invertible commutator, so no k < n
    satisfies the rank condition and the bound does not apply.  A FAIL can
    only mean the probable k̂ underestimates the true maximum (the witness
    certifies k̂ as a lower bound, and a larger true k only loosens the
    bound), never a disproof.
    """
    n = v.n
    d = v.dim
    profile = max_commutator_rank(v, trials, seed, entry_bound)
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
