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
it outside, the range of B0 is invariant instead (its failure would exhibit a
rank-two commutator, reported with a witness).  Eigenvalues are taken from
rational roots of characteristic polynomials; when none exists anywhere the
pipeline adjoins one root of an irreducible factor and continues in Q(theta).

RIGHT-sided families are transposed, triangularized, and mapped back through
inversion and the reversal permutation, so one code path serves both sides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .linalg import Mat, VectorSpan, commutator, complete_basis, mat_from_columns
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

def _field_one(field):
    from fractions import Fraction
    return Fraction(1) if field is None else field.one()


def _identity_over(n, field):
    if field is None:
        return Mat.identity(n)
    return field.embed_matrix(Mat.identity(n))


def _lift(mats, field):
    return [field.embed_matrix(m) if _is_rational_mat(m) else m for m in mats]


def _is_rational_mat(m):
    from fractions import Fraction
    return isinstance(m.data[0], Fraction)


def _eigenvalue_candidates(mats, field, rng):
    """Non-scalar members to probe for an eigenvalue: basis order first, then
    a bounded number of random integer combinations."""
    out = [m for m in mats if not m.is_scalar_matrix()]
    n = mats[0].rows if mats else 0
    one = _field_one(field)
    for _ in range(_COMBO_ATTEMPTS):
        acc = None
        for m in mats:
            c = rng.randint(-4, 4)
            if c:
                t = m * (one * c)
                acc = t if acc is None else acc + t
        if acc is not None and not acc.is_scalar_matrix():
            out.append(acc)
    return out


def _find_singular_shift(mats, field, rng):
    """(B0, field, lifted mats): B0 = A - lambda*I singular and nonzero.

    Stays in the current field when some candidate has a root there;
    otherwise adjoins a root of a minimal-degree irreducible factor (one
    extension level; a second one raises ExtensionLimitError).
    """
    n = mats[0].rows
    candidates = _eigenvalue_candidates(mats, field, rng)
    for a in candidates:
        roots = roots_in_field(a.charpoly(), field)
        if roots:
            lam = roots[0]
            return a - _identity_over(n, field) * lam, field, mats
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
    mats = _lift(mats, field)
    a = field.embed_matrix(a)
    lam = field.theta()
    return a - _identity_over(n, field) * lam, field, mats


def _column_space(m):
    """Independent columns of m, as column vectors."""
    span = VectorSpan(m.rows)
    cols = []
    for j in range(m.cols):
        c = m.col(j)
        if span.add(c):
            cols.append(Mat.column(c))
    return cols


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
        return _identity_over(n, field), field
    b0, field, mats = _find_singular_shift(mats, field, rng)
    kernel = b0.kernel_basis()
    bad = _is_invariant(mats, kernel)
    if bad is None:
        subspace = kernel
    else:
        rng_cols = _column_space(b0)
        bad2 = _is_invariant(mats, rng_cols)
        if bad2 is not None:
            raise InvariantFailureError(b0, bad2[0], bad2[1])
        subspace = rng_cols
    m = len(subspace)
    p1 = mat_from_columns(complete_basis(subspace, n, _field_one(field)))
    p1_inv = p1.inverse()
    conj = [p1_inv @ a @ p1 for a in mats]
    tops = [t.block(0, m, 0, m) for t in conj]
    bottoms = [t.block(m, n, m, n) for t in conj]
    p_top, field2 = _triangularize_family(tops, m, field, rng)
    if field2 is not field:
        bottoms = _lift(bottoms, field2)
        p1 = field2.embed_matrix(p1) if _is_rational_mat(p1) else p1
    p_bot, field3 = _triangularize_family(bottoms, n - m, field2, rng)
    if field3 is not field2:
        p_top = field3.embed_matrix(p_top) if _is_rational_mat(p_top) else p_top
        p1 = field3.embed_matrix(p1) if _is_rational_mat(p1) else p1
    one = _field_one(field3)
    zero = one - one
    data = [[zero] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            data[i][j] = p_top[i, j]
    for i in range(n - m):
        for j in range(n - m):
            data[m + i][m + j] = p_bot[i, j]
    p2 = Mat.from_rows(data)
    return p1 @ p2, field3


def _result_from(v, p, field):
    basis = list(v.basis)
    if field is not None:
        basis = _lift(basis, field)
    p_inv = p.inverse()
    lowers = tuple((p_inv @ a @ p).strictly_lower_part() for a in basis)
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
    rng = random.Random(_COMBO_SEED)
    p, field = _triangularize_family(list(basis), v.n, None, rng)
    return _result_from(v, p, field)


def _reversal(n):
    data = [[0] * n for _ in range(n)]
    for i in range(n):
        data[i][n - 1 - i] = 1
    return Mat.from_rows(data)


def triangularize_rank_one(v):
    """Simultaneous triangularization of a space with rank-<=1 commutators."""
    family = classify_rank_one_family(v)
    if family.side == "ZERO":
        return triangularize_commuting(v)
    rng = random.Random(_COMBO_SEED)
    if family.side == "LEFT":
        p, field = _triangularize_family(list(v.basis), v.n, None, rng)
        return _result_from(v, p, field)
    # RIGHT: triangularize the transposes, then invert and reverse
    mats_t = [b.transpose() for b in v.basis]
    p_t, field = _triangularize_family(mats_t, v.n, None, rng)
    rev = _reversal(v.n)
    if field is not None:
        rev = field.embed_matrix(rev)
    p = p_t.inverse().transpose() @ rev
    return _result_from(v, p, field)


def verify_triangular(v, p):
    """Is P^{-1} A P exactly upper triangular for every basis element?"""
    p_inv = p.inverse()  # raises SingularMatrixError when singular
    basis = list(v.basis)
    if not _is_rational_mat(p):
        field = p.data[0].field
        basis = _lift(basis, field)
    return all((p_inv @ a @ p).is_upper_triangular() for a in basis)
