"""Constructive simultaneous triangularization for spaces whose commutators
all have rank at most one.

The classification step gathers one nonzero column and one nonzero row of
each nonzero basis-pair commutator into two spans: the commutators share a
column direction (LEFT) while the column span is a line, and a row
direction (RIGHT) while the row span is; a space whose
basis-pair commutators all lie in {x0 y^T : y} has ALL its commutators there
(the set is a linear space and commutators depend bilinearly on the
arguments), so a successful classification certifies the hypothesis for
every pair.

Triangularization recurses on a proper invariant subspace W.  A family with
commutators of rank at most one is triangularizable (Laffey, 1978), and in
a triangularizing basis, over an algebraic closure, a[A, B] is strictly
upper triangular for every a in the unital algebra of the family.  So when
a basis-pair commutator [A, B] is nonzero, the least invariant space W
holding its first nonzero column c, the span of the a c, is nonzero and
proper, and spans alone build it (Radjavi and Rosenthal, *Simultaneous
Triangularization*, 2000).  When the basis commutes, every member maps
W = ker(A - lambda I) into itself, for A the first non-scalar member and
lambda an eigenvalue of A.  The blocks on W and on Q^n / W have
commutators that are blocks of the family's, of rank at most one again,
so no step can fail.  Each step is :func:`~crlab.linalg.invariant_split`
at W, which gives P and the blocks to recurse on.

Only a commuting block needs an eigenvalue: lambda is a root of an
irreducible factor of least degree of A's characteristic polynomial over
the current field, Q at the start, adjoined when that factor is not
linear; a tower is collapsed to one primitive element by Trager's norm
method (:mod:`crlab.numberfield`), and the matrices built so far embed into
the new field through the image of the old primitive element.  The field
is the one the eigenvalues of the basis members generate (P^{-1} A P has
them all on its diagonal, and no other number is adjoined), whatever the
order of adjunction.  Its degree over Q is capped at ``MAX_FIELD_DEGREE``,
24, the largest degree of the splitting field of a quartic; past the cap
the recursion raises ExtensionLimitError.
A result carries P and its field; :func:`verify_triangular` is the one
check that every P^{-1} A P is upper triangular.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, starmap

from .linalg import Mat, VectorSpan, block_diag, commutator, invariant_split
from .numberfield import (ExtensionLimitError, NumberField, adjoin_root,
                          irreducible_factors)

__all__ = [
    "RankOneFamily",
    "TriangularizationResult",
    "InconsistentFamilyError",
    "classify_rank_one_family",
    "triangularize_rank_one",
    "verify_triangular",
]

MAX_FIELD_DEGREE = 24


class InconsistentFamilyError(ValueError):
    """The rank-one hypothesis fails: a basis-pair commutator has rank >= 2,
    or the nonzero commutators share neither a column nor a row direction
    (which forces a rank-two commutator somewhere in the space)."""

    def __init__(self, message, pair, comm, reference_pair=None):
        self.pair = pair
        self.comm = comm
        self.reference_pair = reference_pair
        super().__init__(message)


@dataclass(frozen=True)
class RankOneFamily:
    side: str  # "LEFT" | "RIGHT" | "ZERO"
    x0: Mat | None  # shared direction (column vector, leading 1), None for ZERO


@dataclass(frozen=True)
class TriangularizationResult:
    P: Mat
    field: NumberField | None  # None while the change of basis is rational


def classify_rank_one_family(v):
    """Shared commutator direction of a space, checked on basis pairs.

    Raises InconsistentFamilyError when a basis pair has commutator rank >= 2
    or when no shared direction exists (by bilinearity either failure means
    the rank-one hypothesis is false for the whole space).
    """
    nonzero = []
    for pair in combinations(v.basis, 2):
        c = commutator(*pair)
        if c.is_zero():
            continue
        if c.rank() > 1:
            raise InconsistentFamilyError("basis pair commutator has rank >= 2", pair, c)
        nonzero.append((pair, c))
    if not nonzero:
        return RankOneFamily("ZERO", None)
    n = v.n
    cols, rows = VectorSpan(n), VectorSpan(n)
    for pair, c in nonzero:  # a span past dimension 1 stays past it: stop growing it
        e = c.entries
        if cols.dim < 2:
            j = next(j for j in range(n) if any(e[j::n]))
            cols.add(c.block(0, n, j, j + 1))
        if rows.dim < 2:
            i = next(i for i in range(n) if any(e[i * n:(i + 1) * n]))
            rows.add(c.block(i, i + 1, 0, n))
        if cols.dim > 1 and rows.dim > 1:
            raise InconsistentFamilyError(
                "nonzero commutators share no common direction",
                pair, c, reference_pair=nonzero[0][0])
    if cols.dim == 1:  # tie-break LEFT when a single commutator factors both ways
        return RankOneFamily("LEFT", cols.members(n, 1)[0])
    return RankOneFamily("RIGHT", rows.members(n, 1)[0])


# -- recursion machinery --------------------------------------------------------

def _lift(m, field):
    """m over ``field`` (None is Q): matrices over Q or over an earlier field
    of the tower are embedded, matrices over the field pass through."""
    return m if field is None else field.embed_matrix(m)


def _cyclic_space(mats, vec, n):
    """The least subspace that holds vec and that every matrix maps into
    itself, as independent columns: each vector that enlarges the span has
    its images added in turn."""
    span, todo = VectorSpan(n, [vec]), [vec]
    while todo:
        w = todo.pop()
        for m in mats:
            mw = m @ w
            if span.add(mw):
                todo.append(mw)
    return span.members(n, 1)


def _split(mats, n, field):
    """(split, field, lifted mats): the :func:`invariant_split` of the
    family at the W of the module docstring, the cyclic space of a
    commutator column or the eigenspace of a commuting member.

    An eigenvalue outside the field adjoins a root of its irreducible factor
    of least degree, unless that would take the degree over Q past
    MAX_FIELD_DEGREE.
    """
    movers = [m for m in mats if not m.is_scalar_matrix()]  # scalars commute with all
    c = next((c for c in starmap(commutator, combinations(movers, 2)) if not c.is_zero()), None)
    if c is not None:
        j = next(j for j in range(n) if any(c.entries[j::n]))
        w = _cyclic_space(mats, c.block(0, n, j, j + 1), n)
        return invariant_split(mats, w, n), field, mats
    a = movers[0]
    g = irreducible_factors(a.charpoly(), field)[0][0]  # of least degree
    if len(g) == 2:  # g = x - lambda
        lam = -g[0]
    else:
        degree = (len(g) - 1) * (1 if field is None else field.degree)
        if degree > MAX_FIELD_DEGREE:
            raise ExtensionLimitError(
                f"an eigenvalue needs a field of degree {degree} over Q, "
                f"past the cap of {MAX_FIELD_DEGREE}")
        field, lam = adjoin_root(g, field)
        mats, a = [_lift(m, field) for m in mats], _lift(a, field)
    b0 = a - _lift(Mat.identity(n), field) * lam
    return invariant_split(mats, b0.kernel_basis(), n), field, mats


def _triangularize_family(mats, n, field):
    """Recursive flag construction; returns (P, field) with P^{-1} A P upper
    triangular for every A (over the possibly extended field)."""
    if n == 1 or all(m.is_upper_triangular() for m in mats):
        return _lift(Mat.identity(n), field), field
    split, field, mats = _split(mats, n, field)
    m = split.dim
    p_top, field = _triangularize_family(split.tops(), m, field)
    p_bot, field = _triangularize_family([_lift(q, field) for q in split.quotients],
                                         n - m, field)
    return _lift(split.p, field) @ block_diag(_lift(p_top, field), p_bot), field


def triangularize_rank_one(v):
    """Simultaneous triangularization of a space with rank-<=1 commutators
    (a commuting space is the ZERO family, through the same recursion)."""
    classify_rank_one_family(v)  # raises InconsistentFamilyError on a bad family
    p, field = _triangularize_family(list(v.basis), v.n, None)
    return TriangularizationResult(P=p, field=field)


def verify_triangular(v, p):
    """Is P^{-1} A P exactly upper triangular for every basis element?  The
    one check of a triangularization's P; over a number field the rational
    entries of A enter the products as field elements."""
    p_inv = p.inverse()  # raises SingularMatrixError when singular
    return all((p_inv @ a @ p).is_upper_triangular() for a in v.basis)
