"""Constructors for the extremal and witness spaces used across the toolkit.

All spaces come out as canonical MatrixSubspace values over Q.  Index
conventions are zero-based internally; docstrings describe shapes in the
usual one-based matrix language.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Mat, block_diag
from .subspace import MatrixSubspace

__all__ = [
    "FamilySpec",
    "schur_space",
    "extremal_space",
    "valid_splits",
    "lastrow_zero_space",
    "firstcol_zero_space",
    "rank_one_max_space",
    "exceptional_extremal_space",
    "commutative_exceptional_space",
    "flanders_space",
    "bidiagonal_witness_pair",
    "bidiagonal_commutator_diagonal",
    "build_family",
]


def schur_space(n):
    """Maximal commutative space: scalars plus the full r-by-(n-r) northeast
    block, r = floor(n/2).  Dimension floor(n^2/4) + 1; all commutators zero."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = n // 2
    mats = [Mat.identity(n)]
    mats += [Mat.unit(n, i, j) for i in range(r) for j in range(r, n)]
    return MatrixSubspace.span(mats, n, n)


def valid_splits(n, k):
    """The admissible middle-block sizes l for the split of n - k."""
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    return sorted({(n - k) // 2, (n - k + 1) // 2})


def extremal_space(n, k, l):
    """The conjectured extremal space for commutator rank <= k.

    Free k-by-n top band, then a Schur-type block: scalars on the diagonal of
    the trailing (n-k) block with a free l-by-(n-k-l) strip northeast of it.
    Dimension nk + floor((n-k)^2/4) + 1.
    """
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    if l not in valid_splits(n, k):
        raise ValueError(f"split l={l} invalid for n={n}, k={k}")
    mats = [Mat.identity(n)]
    mats += [Mat.unit(n, i, j) for i in range(k) for j in range(n)]
    mats += [Mat.unit(n, i, j) for i in range(k, k + l) for j in range(k + l, n)]
    return MatrixSubspace.span(mats, n, n)


def lastrow_zero_space(n):
    """All matrices whose first n-1 entries of the last row vanish."""
    if n < 2:
        raise ValueError("n must be >= 2")
    mats = [Mat.unit(n, i, j) for i in range(n - 1) for j in range(n)]
    mats.append(Mat.unit(n, n - 1, n - 1))
    return MatrixSubspace.span(mats, n, n)


def firstcol_zero_space(n):
    """All matrices whose last n-1 entries of the first column vanish."""
    if n < 2:
        raise ValueError("n must be >= 2")
    mats = [Mat.unit(n, i, j) for i in range(n) for j in range(1, n)]
    mats.append(Mat.unit(n, 0, 0))
    return MatrixSubspace.span(mats, n, n)


# -- maximal rank-one-commutator spaces ---------------------------------------

_EXCEPTIONAL_TAGS_BY_SIZE = {1: ("scalar",), 2: ("diag",),
                             3: ("diag", "nil1_plus_scalar", "nil2")}


def commutative_exceptional_space(m, tag):
    """The exceptional maximal commutative spaces in M_m, m <= 3.

    m = 3: the diagonals; the span of a 2x2 identity+nilpotent block summed
    with a 1x1 block; the unital algebra of a rank-two nilpotent.
    m = 2: the diagonals.  m = 1: the scalars.  Each has dimension m.
    """
    if m == 1 and tag == "scalar":
        return MatrixSubspace.span([Mat.identity(1)], 1, 1)
    if m == 2 and tag == "diag":
        return MatrixSubspace.span([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)], 2, 2)
    if m == 3 and tag == "diag":
        return MatrixSubspace.span([Mat.unit(3, i, i) for i in range(3)], 3, 3)
    if m == 3 and tag == "nil1_plus_scalar":
        block = Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        nil = Mat.unit(3, 0, 1)
        tail = Mat.unit(3, 2, 2)
        return MatrixSubspace.span([block, nil, tail], 3, 3)
    if m == 3 and tag == "nil2":
        shift = Mat.unit(3, 0, 1) + Mat.unit(3, 1, 2)
        return MatrixSubspace.span([Mat.identity(3), shift, shift @ shift], 3, 3)
    raise ValueError(f"no exceptional commutative space of size {m} tagged {tag!r}")


# which variant tags apply at which n; "generic" needs a split parameter
_RANK1_VARIANTS = {
    "generic": None,          # any n >= 2, l in valid_splits(n-1, 0)
    "diag3": (4, "diag", 3),
    "nilrank1_plus_C": (4, "nil1_plus_scalar", 3),
    "nilrank2": (4, "nil2", 3),
    "diag2": (3, "diag", 2),
    "scalar": (2, "scalar", 1),
}


def rank_one_max_space(n, variant, l=None):
    """Maximal space with all commutators of rank <= 1.

    Free first row and free (1,1) entry, zero first column below, and a
    maximal commutative space in the trailing (n-1) block: Schur type for the
    generic variant (split l), or one of the small-n exceptional commutative
    spaces.  Dimension floor((n-1)^2/4) + n + 1 in every variant.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if variant == "generic":
        splits = valid_splits(n - 1, 0)
        if l is None and len(splits) == 1:
            l = splits[0]
        if l not in splits:
            raise ValueError(f"split l={l} invalid for the generic variant at n={n}")
        inner = extremal_space(n - 1, 0, l).basis
    else:
        try:
            need_n, tag, m = _RANK1_VARIANTS[variant]
        except KeyError:
            raise ValueError(f"unknown variant {variant!r}") from None
        if n != need_n:
            raise ValueError(f"variant {variant!r} requires n = {need_n}")
        inner = commutative_exceptional_space(m, tag).basis
    mats = [Mat.unit(n, 0, j) for j in range(n)]
    mats += [block_diag(Mat.zero(1), b) for b in inner]
    return MatrixSubspace.span(mats, n, n)


def exceptional_extremal_space(n, k, tag):
    """Equality-case space with an exceptional commutative trailing block:
    free k-by-n top band plus an exceptional commutative space in the
    trailing (n-k) block.  Applies when n - k <= 3."""
    m = n - k
    if tag not in _EXCEPTIONAL_TAGS_BY_SIZE.get(m, ()):
        raise ValueError(f"tag {tag!r} does not apply at n-k = {m}")
    mats = [Mat.unit(n, i, j) for i in range(k) for j in range(n)]
    mats += [block_diag(Mat.zero(k), b) for b in commutative_exceptional_space(m, tag).basis]
    return MatrixSubspace.span(mats, n, n)


def flanders_space(m, n_cols, k):
    """Equality case of the rank-k dimension bound for m-by-n matrices:
    every member has rank <= k and the dimension is k * max(m, n_cols).

    Realized as all matrices supported on the first k rows; when the space is
    taller than wide the support moves to the first k columns instead, which
    is the orientation that attains the bound.
    """
    if not 0 <= k <= min(m, n_cols):
        raise ValueError("need 0 <= k <= min(m, n_cols)")
    if n_cols >= m:
        mats = [_rect_unit(m, n_cols, i, j) for i in range(k) for j in range(n_cols)]
    else:
        mats = [_rect_unit(m, n_cols, i, j) for i in range(m) for j in range(k)]
    return MatrixSubspace.span(mats, m, n_cols)


def _rect_unit(rows, cols, i, j):
    data = [Fraction(0)] * (rows * cols)
    data[i * cols + j] = Fraction(1)
    return Mat(rows, cols, data)


def bidiagonal_witness_pair(n, s, lambdas, mus):
    """The sub/superdiagonal pair whose commutator is the explicit diagonal
    Diag(-l1*m1, l1*m1 - l2*m2, ..., ls*ms, 0, ...), rank s+1 for good scalars."""
    if not 1 <= s <= n - 1:
        raise ValueError("need 1 <= s <= n-1")
    lambdas = [Fraction(x) for x in lambdas]
    mus = [Fraction(x) for x in mus]
    if len(lambdas) != s or len(mus) != s:
        raise ValueError("scalar lists must have length s")
    a = Mat.zero(n)
    b = Mat.zero(n)
    for i in range(s):
        a = a + Mat.unit(n, i + 1, i) * lambdas[i]
        b = b + Mat.unit(n, i, i + 1) * mus[i]
    return a, b


def bidiagonal_commutator_diagonal(n, lambdas, mus):
    """Closed form of the diagonal of the bidiagonal pair's commutator."""
    s = len(lambdas)
    prods = [Fraction(l) * Fraction(m) for l, m in zip(lambdas, mus)]
    diag = [-prods[0]]
    for i in range(1, s):
        diag.append(prods[i - 1] - prods[i])
    diag.append(prods[s - 1])
    diag += [Fraction(0)] * (n - s - 1)
    return diag


# -- family dispatch (CLI surface) --------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int
    k: int | None = None
    l: int | None = None
    variant: str | None = None


def build_family(spec: FamilySpec):
    fam = spec.family
    if fam == "schur":
        return schur_space(spec.n)
    if fam in ("vk", "vk-t"):
        if spec.k is None:
            raise ValueError("family vk needs k")
        l = spec.l
        if l is None:
            splits = valid_splits(spec.n, spec.k)
            if len(splits) != 1:
                raise ValueError(f"ambiguous split; pass l in {splits}")
            l = splits[0]
        v = extremal_space(spec.n, spec.k, l)
        return v.transpose_space() if fam == "vk-t" else v
    if fam == "thm2-lastrow":
        return lastrow_zero_space(spec.n)
    if fam == "thm2-firstcol":
        return firstcol_zero_space(spec.n)
    if fam == "rank1max":
        variant = spec.variant or "generic"
        return rank_one_max_space(spec.n, variant, spec.l)
    if fam == "flanders":
        if spec.k is None:
            raise ValueError("family flanders needs k")
        return flanders_space(spec.n, spec.n, spec.k)
    raise ValueError(f"unknown family {fam!r}")
