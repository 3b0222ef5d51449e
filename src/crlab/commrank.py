"""Randomized certification of the maximum commutator rank over a subspace.

The maximum of rank[A, B] over V x V is attained on a Zariski-open set, so a
few random integer-coefficient pairs hit it with overwhelming probability.
Every sampled rank is exact: the basis is scaled once to integer rows, each
commutator is formed over Python ints and ranked by fraction-free (Bareiss)
elimination.  Refutations ("some pair exceeds k") therefore carry a witness
whose rank is the exact rank over Q; confirmations are only probable and
record (trials, seed).

For n <= 3 an exhaustive symbolic mode is available: all (k+1)-minors of the
commutator of two generic elements are expanded as polynomials in the 2*dim
coordinates and tested for identical vanishing, which decides the rank
condition rather than sampling it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Mat, _rank_bareiss, commutator

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


def _sample(v, trials, seed, entry_bound, stop_above):
    """Exact maximum of rank[A, B] over sampled pairs, with its first witness.

    Each trial draws the d coefficients of A, then the d coefficients of B.
    Sampling stops early once a rank exceeds ``stop_above``.  The basis is
    scaled by the lcm of its denominators, which changes no commutator rank,
    so the pairs are combined, commuted and ranked over Python ints; only the
    returned witness is built as rational matrices.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = v.n
    scale = 1
    for m in v.basis:
        for x in m.data:
            scale = math.lcm(scale, x.denominator)
    rows = [[x.numerator * (scale // x.denominator) for x in m.data]
            for m in v.basis]
    rng = random.Random(seed)
    best = -1
    for _ in range(trials):
        ca = [rng.randint(-entry_bound, entry_bound) for _ in rows]
        cb = [rng.randint(-entry_bound, entry_bound) for _ in rows]
        a, b = _combine(rows, ca, n), _combine(rows, cb, n)
        r = _rank_bareiss(_commutator_rows(a, b, n))
        if r > best:
            best, pair = r, (a, b)
            if best > stop_above:
                break
    witness = tuple(Mat(n, n, [Fraction(x, scale) for x in m]) for m in pair)
    return best, witness


def _combine(rows, coeffs, n):
    acc = [0] * (n * n)
    for c, row in zip(coeffs, rows):
        if c:
            for i, x in enumerate(row):
                if x:
                    acc[i] += c * x
    return acc


def _commutator_rows(a, b, n):
    """AB - BA for flat row-major integer matrices, as a list of rows."""
    cols_a = [a[j::n] for j in range(n)]
    cols_b = [b[j::n] for j in range(n)]
    out = []
    for i in range(n):
        ra, rb = a[i * n:(i + 1) * n], b[i * n:(i + 1) * n]
        out.append([sum(x * y for x, y in zip(ra, cb))
                    - sum(x * y for x, y in zip(rb, ca))
                    for ca, cb in zip(cols_a, cols_b)])
    return out


def max_commutator_rank(v, trials, seed, entry_bound=DEFAULT_ENTRY_BOUND):
    """Sampled maximum of rank[A, B]; the maximizing pair is kept as witness.

    Exact ranks throughout, so certified_lower == probable_max and the stored
    pair reproduces it under recomputation.  Deterministic in (v, trials, seed).
    """
    best, witness = _sample(v, trials, seed, entry_bound, v.n - 1)
    return CommutatorProfile(probable_max=best, certified_lower=best,
                             witness=witness, trials=trials, seed=seed)


def satisfies_rank_condition(v, k, trials, seed, entry_bound=DEFAULT_ENTRY_BOUND):
    """Decide "rank[A,B] <= k for all pairs" by sampling.

    CERTIFIED_NO carries the first sampled pair whose exact commutator rank
    exceeds k.  PROBABLE_YES records the trial budget.
    """
    if not 0 <= k < v.n:
        raise ValueError("need 0 <= k < n")
    best, witness = _sample(v, trials, seed, entry_bound, k)
    if best > k:
        return RankVerdict("CERTIFIED_NO", k, trials, seed,
                           witness=witness, witness_rank=best)
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

def _poly_add_term(poly, mono, coeff):
    c = poly.get(mono, Fraction(0)) + coeff
    if c:
        poly[mono] = c
    elif mono in poly:
        del poly[mono]


def _poly_mul(p, q, nvars):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            _poly_add_term(out, mono, c1 * c2)
    return out


def _symbolic_commutator(v):
    """Entries of [A(a), B(b)] as polynomials in the 2*dim coordinates."""
    d = v.dim
    n = v.n
    nvars = 2 * d
    entries = [[{} for _ in range(n)] for _ in range(n)]
    for i, bi in enumerate(v.basis):
        for j, bj in enumerate(v.basis):
            if i == j:
                continue
            cij = commutator(bi, bj)
            mono = [0] * nvars
            mono[i] += 1          # a_i
            mono[d + j] += 1      # b_j
            mono = tuple(mono)
            for r in range(n):
                for c in range(n):
                    x = cij[r, c]
                    if x:
                        _poly_add_term(entries[r][c], mono, x)
    return entries, nvars


def _symbolic_det(entries, rows, cols, nvars):
    m = len(rows)
    if m == 1:
        return entries[rows[0]][cols[0]]
    acc = {}
    for perm in itertools.permutations(range(m)):
        inv = sum(1 for x in range(m) for y in range(x + 1, m) if perm[x] > perm[y])
        sign = Fraction(-1) if inv % 2 else Fraction(1)
        term = {(0,) * nvars: sign}
        for r, pc in enumerate(perm):
            term = _poly_mul(term, entries[rows[r]][cols[pc]], nvars)
            if not term:
                break
        for mono, c in term.items():
            _poly_add_term(acc, mono, c)
    return acc


def certify_rank_condition_symbolic(v, k):
    """Exhaustively decide the rank condition for n <= 3.

    Returns True iff every (k+1)-minor of the commutator of two generic
    members vanishes identically, which certifies rank[A,B] <= k for ALL
    pairs, not just sampled ones.
    """
    n = v.n
    if n > 3:
        raise ValueError("symbolic certification is limited to n <= 3")
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    entries, nvars = _symbolic_commutator(v)
    size = k + 1
    for rows in itertools.combinations(range(n), size):
        for cols in itertools.combinations(range(n), size):
            if _symbolic_det(entries, rows, cols, nvars):
                return False
    return True
