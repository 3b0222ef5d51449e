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

Triangularization then recurses on a proper invariant subspace: pick a
non-scalar member A, an exact eigenvalue lambda, and the singular shift
B0 = A - lambda*I; the kernel of B0 is tried first, and when some member maps
it outside, the range of B0 is invariant instead.  One of the two always
is, because the classification has certified a shared direction.  For x in
ker B0 and any member M, B0(Mx) = [A, M]x.  LEFT: every [A, M] has its
columns on the shared u, so B0(Mx) lies in span(u); a kernel that is not
invariant has some B0(Mx) != 0, which puts u in range B0, and then
M B0 z = B0 M z + [M, A] z stays in range B0 for every z.  RIGHT:
[A, M] = u_M v^T, and a kernel that is not invariant has a vector x0 with
v^T x0 != 0, so u_M = B0(M x0) / (v^T x0) is in range B0 for every M, and
range B0 is invariant as in LEFT.  ZERO: every member commutes with B0, so
the kernel is invariant.  The blocks of a family on an invariant W and on
Q^n / W keep a shared direction, or else they commute, and adjoining a
field changes none of this, so one recursion serves LEFT, RIGHT and
commuting families alike and no step can fail.  Each step is the one
quotient step of :mod:`crlab.linalg`: :func:`~crlab.linalg.invariant_split`
at the kernel, then at the range, tests invariance and gives P with the
blocks on W and on Q^n / W to recurse on.

Eigenvalues are the roots of linear factors of characteristic polynomials
over the current field, Q at the start.  When no candidate member has one,
the pipeline adjoins a root of an irreducible factor of least degree, over Q
or over the number field it already works in; a tower is collapsed to one
primitive element by Trager's norm method (:mod:`crlab.numberfield`), and
the matrices built so far embed into the new field through the image of the
old primitive element.  The degree of the field over Q is capped at
``MAX_FIELD_DEGREE``, 24, the largest degree of the splitting field of a
quartic.  Every family whose eigenvalues need no larger field is
triangularized; past the cap the recursion raises ExtensionLimitError.
A result carries P and its field; :func:`verify_triangular` is the one
check that every P^{-1} A P is upper triangular.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .linalg import (Mat, VectorSpan, block_diag, column_space, commutator, invariant_split,
                     probe_members)
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

_COMBO_ATTEMPTS = 8
_COMBO_SEED = 0x51DE
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


def _find_singular_shift(mats, field, rng):
    """(B0, field, lifted mats): B0 = A - lambda*I singular and nonzero.

    The candidates are the non-scalar members of :func:`probe_members`.
    Stays in the current field when some candidate has an eigenvalue there;
    otherwise adjoins a root of an irreducible factor of least degree over
    the field, unless that would take the degree over Q past
    MAX_FIELD_DEGREE.
    """
    eye = _lift(Mat.identity(mats[0].rows), field)
    smallest = None
    for a in probe_members(mats, rng, 4, _COMBO_ATTEMPTS):
        if a.is_scalar_matrix():
            continue
        g = irreducible_factors(a.charpoly(), field)[0][0]  # of least degree
        if len(g) == 2:  # g = x - lambda
            return a + eye * g[0], field, mats
        if smallest is None or len(g) < len(smallest[1]):
            smallest = (a, g)
    a, g = smallest
    degree = (len(g) - 1) * (1 if field is None else field.degree)
    if degree > MAX_FIELD_DEGREE:
        raise ExtensionLimitError(
            f"an eigenvalue needs a field of degree {degree} over Q, "
            f"past the cap of {MAX_FIELD_DEGREE}")
    field, alpha = adjoin_root(g, field)
    b0 = _lift(a, field) - _lift(eye, field) * alpha
    return b0, field, [_lift(m, field) for m in mats]


def _triangularize_family(mats, n, field, rng):
    """Recursive flag construction; returns (P, field) with P^{-1} A P upper
    triangular for every A (over the possibly extended field)."""
    if n == 1 or all(m.is_upper_triangular() for m in mats):
        return _lift(Mat.identity(n), field), field
    b0, field, mats = _find_singular_shift(mats, field, rng)
    split = (invariant_split(mats, b0.kernel_basis(), n)
             or invariant_split(mats, column_space(b0), n))  # never both None: module docstring
    m = split.dim
    p_top, field = _triangularize_family(split.tops(), m, field, rng)
    p_bot, field = _triangularize_family([_lift(q, field) for q in split.quotients],
                                         n - m, field, rng)
    return _lift(split.p, field) @ block_diag(_lift(p_top, field), p_bot), field


def triangularize_rank_one(v):
    """Simultaneous triangularization of a space with rank-<=1 commutators
    (a commuting space is the ZERO family, through the same recursion)."""
    classify_rank_one_family(v)  # raises InconsistentFamilyError on a bad family
    p, field = _triangularize_family(list(v.basis), v.n, None,
                                     random.Random(_COMBO_SEED))
    return TriangularizationResult(P=p, field=field)


def verify_triangular(v, p):
    """Is P^{-1} A P exactly upper triangular for every basis element?  The
    one check of a triangularization's P; over a number field the rational
    entries of A enter the products as field elements."""
    p_inv = p.inverse()  # raises SingularMatrixError when singular
    return all((p_inv @ a @ p).is_upper_triangular() for a in v.basis)
