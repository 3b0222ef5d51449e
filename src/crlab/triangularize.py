"""Constructive simultaneous triangularization for spaces whose commutators
all have rank at most one.

The classification step factors one nonzero basis-pair commutator as an outer
product u v^T and checks whether every other one shares the column direction
(LEFT) or the row direction (RIGHT); a space whose basis-pair commutators all
lie in {x0 y^T : y} has ALL its commutators there (the set is a linear space
and commutators depend bilinearly on the arguments), so a successful
classification certifies the hypothesis for every pair.

Triangularization then recurses on a proper invariant subspace: pick a
non-scalar member A, an exact eigenvalue lambda, and the singular shift
B0 = A - lambda*I; the kernel of B0 is tried first, and when some member maps
it outside, the range of B0 is invariant instead.  For x in ker B0 and any
member M, B0(Mx) = -[M, A]x.  In a LEFT family every [M, A] has columns on
the shared u, so a kernel that is not invariant puts u in range B0; in a
RIGHT family [M, A] = u_M v^T, and a kernel vector x0 with v^T x0 != 0
gives u_M = -B0(M x0) / (v^T x0) in range B0 for every M.  Either way
range B0 is invariant, restrictions and quotients keep the shared direction,
and one recursion serves LEFT, RIGHT and commuting families alike (a failure
of both subspaces would exhibit a rank-two commutator, reported with a
witness).  Eigenvalues are taken from rational roots of characteristic
polynomials; when none exists anywhere the pipeline adjoins one root of an
irreducible factor and continues in Q(theta).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain

from .linalg import (Mat, VectorSpan, block_diag, commutator, complete_basis,
                     mat_from_columns)
from .numberfield import (ExtensionLimitError, NumberField,
                          irreducible_factors, roots_in_field)

__all__ = [
    "RankOneFamily",
    "TriangularizationResult",
    "NonCommutingError",
    "InconsistentFamilyError",
    "InvariantFailureError",
    "classify_rank_one_family",
    "triangularize_commuting",
    "triangularize_rank_one",
    "verify_triangular",
]

_COMBO_ATTEMPTS = 8
_COMBO_SEED = 0x51DE


class NonCommutingError(ValueError):
    """A commuting-family routine met a nonzero commutator."""

    def __init__(self, pair, comm):
        self.pair = pair
        self.comm = comm
        super().__init__("basis pair has a nonzero commutator")


class InconsistentFamilyError(ValueError):
    """The rank-one hypothesis fails: a basis-pair commutator has rank >= 2,
    or the nonzero commutators share neither a column nor a row direction
    (which forces a rank-two commutator somewhere in the space)."""

    def __init__(self, message, pair, comm, reference_pair=None):
        self.pair = pair
        self.comm = comm
        self.reference_pair = reference_pair
        super().__init__(message)


class InvariantFailureError(ValueError):
    """Neither the kernel nor the range of the singular pivot member is
    invariant; carries the offending member and vector as a witness."""

    def __init__(self, shift, member, vector):
        self.shift = shift
        self.member = member
        self.vector = vector
        super().__init__("no invariant subspace from the singular member")


@dataclass(frozen=True)
class RankOneFamily:
    side: str  # "LEFT" | "RIGHT" | "ZERO"
    x0: Mat | None  # shared direction (column vector), None for ZERO


@dataclass(frozen=True)
class TriangularizationResult:
    P: Mat
    chain_dims: tuple
    certificate: tuple  # strictly-lower parts of P^{-1} A P, one per basis A
    field: NumberField | None  # None while the change of basis is rational


def _factor_rank_one(c):
    """Write a rank-one matrix as (u, v) with c = u v^T."""
    jc = next(j for j in range(c.cols) if any(c[i, j] for i in range(c.rows)))
    u = c.col(jc)
    r = next(i for i in range(c.rows) if u[i])
    v = tuple(c[r, j] / u[r] for j in range(c.cols))
    return u, v


def _parallel_columns(c, u0):
    """Do all columns of c lie on the line spanned by u0?"""
    span = VectorSpan(len(u0))
    span.add(u0)
    return all(span.contains(c.col(j)) for j in range(c.cols))


def classify_rank_one_family(v):
    """Shared commutator direction of a space, checked on basis pairs.

    Raises InconsistentFamilyError when a basis pair has commutator rank >= 2
    or when no shared direction exists (by bilinearity either failure means
    the rank-one hypothesis is false for the whole space).
    """
    basis = v.basis
    nonzero = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            c = commutator(basis[i], basis[j])
            if c.is_zero():
                continue
            if c.rank() > 1:
                raise InconsistentFamilyError(
                    "basis pair commutator has rank >= 2",
                    (basis[i], basis[j]), c)
            nonzero.append(((basis[i], basis[j]), c))
    if not nonzero:
        return RankOneFamily("ZERO", None)
    u0, v0 = _factor_rank_one(nonzero[0][1])
    left_ok = True
    right_ok = True
    offender = None
    for pair, c in nonzero[1:]:
        if left_ok and not _parallel_columns(c, u0):
            left_ok = False
            offender = (pair, c)
        if right_ok and not _parallel_columns(c.transpose(), v0):
            right_ok = False
            offender = (pair, c)
        if not (left_ok or right_ok):
            raise InconsistentFamilyError(
                "nonzero commutators share no common direction",
                offender[0], offender[1], reference_pair=nonzero[0][0])
    if left_ok:  # tie-break LEFT when a single commutator factors both ways
        return RankOneFamily("LEFT", Mat.column(u0))
    return RankOneFamily("RIGHT", Mat.column(v0))


# -- recursion machinery --------------------------------------------------------

def _lift(m, field):
    """m over ``field`` (None is Q): rational matrices are embedded, matrices
    already over the field pass through."""
    if field is None or not isinstance(m.data[0], Fraction):
        return m
    return field.embed_matrix(m)


def _eigenvalue_candidates(mats, rng):
    """Non-scalar members to probe for an eigenvalue, built as they are
    needed: basis order first, then a bounded number of random integer
    combinations.  The coefficients are drawn up front, so the generator's
    state does not depend on how many candidates are used."""
    draws = [[rng.randint(-4, 4) for _ in mats] for _ in range(_COMBO_ATTEMPTS)]
    combos = (reduce(Mat.__add__, (m * c for m, c in zip(mats, cs) if c))
              for cs in draws if any(cs))
    return (a for a in chain(mats, combos) if not a.is_scalar_matrix())


def _find_singular_shift(mats, field, rng):
    """(B0, field, lifted mats): B0 = A - lambda*I singular and nonzero.

    Stays in the current field when some candidate has a root there;
    otherwise adjoins a root of a minimal-degree irreducible factor (one
    extension level; a second one raises ExtensionLimitError).
    """
    eye = Mat.identity(mats[0].rows)
    candidates = []
    for a in _eigenvalue_candidates(mats, rng):
        roots = roots_in_field(a.charpoly(), field)
        if roots:
            return a - _lift(eye, field) * roots[0], field, mats
        candidates.append(a)
    if field is not None:
        raise ExtensionLimitError(
            "no eigenvalue in Q(theta) and a second extension is unsupported")
    best = None
    for a in candidates:
        for f, _mult in irreducible_factors(a.charpoly()):
            if len(f) > 2 and (best is None or len(f) < len(best[1])):
                best = (a, f)
    if best is None:
        raise ExtensionLimitError("no usable eigenvalue source found")
    a, f = best
    field = NumberField(f)
    b0 = _lift(a, field) - _lift(eye, field) * field.theta()
    return b0, field, [_lift(m, field) for m in mats]


def _column_space(m):
    """The echelon basis of the column space of m, as column vectors (its
    entries stay small where raw columns of m may not)."""
    span = VectorSpan(m.rows, (m.col(j) for j in range(m.cols)))
    return [Mat.column(r) for r in span.rows]


def _is_invariant(mats, vectors):
    """Is span(vectors) invariant under every matrix?  Returns an offending
    (matrix, vector) witness or None."""
    span = VectorSpan(vectors[0].rows)
    for u in vectors:
        span.add(u.data)
    for a in mats:
        for u in vectors:
            if not span.contains((a @ u).data):
                return a, u
    return None


def _triangularize_family(mats, n, field, rng):
    """Recursive flag construction; returns (P, field) with P^{-1} A P upper
    triangular for every A (over the possibly extended field)."""
    if n == 1 or all(m.is_upper_triangular() for m in mats):
        return _lift(Mat.identity(n), field), field
    b0, field, mats = _find_singular_shift(mats, field, rng)
    subspace = b0.kernel_basis()
    if _is_invariant(mats, subspace) is not None:
        subspace = _column_space(b0)
        bad = _is_invariant(mats, subspace)
        if bad is not None:
            raise InvariantFailureError(b0, bad[0], bad[1])
    m = len(subspace)
    one = Fraction(1) if field is None else field.one()
    p1 = mat_from_columns(complete_basis(subspace, n, one))
    p1_inv = p1.inverse()
    conj = [p1_inv @ a @ p1 for a in mats]
    p_top, field = _triangularize_family([t.block(0, m, 0, m) for t in conj],
                                         m, field, rng)
    p_bot, field = _triangularize_family([_lift(t.block(m, n, m, n), field)
                                          for t in conj], n - m, field, rng)
    return _lift(p1, field) @ block_diag(_lift(p_top, field), p_bot), field


def _triangularize(v):
    """The shared recursion on the basis of v, packaged with its certificate."""
    p, field = _triangularize_family(list(v.basis), v.n, None,
                                     random.Random(_COMBO_SEED))
    p_inv = p.inverse()
    lowers = tuple((p_inv @ _lift(a, field) @ p).strictly_lower_part()
                   for a in v.basis)
    return TriangularizationResult(P=p, chain_dims=tuple(range(1, v.n + 1)),
                                   certificate=lowers, field=field)


def triangularize_commuting(v):
    """Flag construction for a commuting family (every basis pair must have
    an exactly zero commutator)."""
    basis = v.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            c = commutator(basis[i], basis[j])
            if not c.is_zero():
                raise NonCommutingError((basis[i], basis[j]), c)
    return _triangularize(v)


def triangularize_rank_one(v):
    """Simultaneous triangularization of a space with rank-<=1 commutators."""
    classify_rank_one_family(v)  # raises InconsistentFamilyError on a bad family
    return _triangularize(v)


def verify_triangular(v, p):
    """Is P^{-1} A P exactly upper triangular for every basis element?"""
    p_inv = p.inverse()  # raises SingularMatrixError when singular
    field = None if isinstance(p.data[0], Fraction) else p.data[0].field
    return all((p_inv @ _lift(a, field) @ p).is_upper_triangular() for a in v.basis)
