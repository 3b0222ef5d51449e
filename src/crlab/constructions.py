"""Constructors for the extremal and witness spaces used across the toolkit.

Every equality-case space has one shape: a free k-by-n top band plus
block_diag(0_k, C), where C is a maximal commutative space of M_{n-k},
either the Schur-type space with split l (:func:`extremal_space`) or one
of the small exceptional ones (:func:`exceptional_extremal_space`).  Schur's
space is the k = 0 instance, the rank-one maximal spaces are the k = 1
instances, and the last-row space is the k = n - 1 instance.

All spaces come out as canonical MatrixSubspace values over Q.  Index
conventions are zero-based internally; docstrings describe shapes in the
usual one-based matrix language.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Mat, block_diag
from .subspace import MatrixSubspace

__all__ = [
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


def _top_band(n, k, inner):
    """The one equality-case shape: the free k-by-n top band plus
    block_diag(0_k, b) for every (n-k)-by-(n-k) matrix b in ``inner``."""
    mats = [Mat.unit(n, i, j) for i in range(k) for j in range(n)]
    mats += [block_diag(Mat.zero(k), b) for b in inner]
    return MatrixSubspace.span(mats, n, n)


def schur_space(n):
    """Maximal commutative space: scalars plus the full r-by-(n-r) northeast
    block, r = floor(n/2).  Dimension floor(n^2/4) + 1; all commutators zero."""
    return extremal_space(n, 0, n // 2)


def valid_splits(n, k):
    """The admissible middle-block sizes l for the split of n - k."""
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    return sorted({(n - k) // 2, (n - k + 1) // 2})


def _split(n, k, l):
    """l itself, or the one valid split of n - k when l is None."""
    splits = valid_splits(n, k)
    return splits[0] if l is None and len(splits) == 1 else l


def extremal_space(n, k, l):
    """The conjectured extremal space for commutator rank <= k.

    Free k-by-n top band, then a Schur-type block: scalars on the diagonal of
    the trailing (n-k) block with a free l-by-(n-k-l) strip northeast of it.
    Dimension nk + floor((n-k)^2/4) + 1.
    """
    splits = valid_splits(n, k)
    if l not in splits:
        raise ValueError(f"split l={l} invalid for n={n}, k={k}; pass l in {splits}")
    m = n - k
    inner = [Mat.identity(m)] + [Mat.unit(m, i, j) for i in range(l) for j in range(l, m)]
    return _top_band(n, k, inner)


def lastrow_zero_space(n):
    """All matrices whose first n-1 entries of the last row vanish."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return extremal_space(n, n - 1, 0)


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
    if tag not in _EXCEPTIONAL_TAGS_BY_SIZE.get(m, ()):
        raise ValueError(f"no exceptional commutative space of size {m} tagged {tag!r}")
    if tag in ("diag", "scalar"):
        return MatrixSubspace.span([Mat.unit(m, i, i) for i in range(m)], m, m)
    if tag == "nil1_plus_scalar":
        block = Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        return MatrixSubspace.span([block, Mat.unit(3, 0, 1), Mat.unit(3, 2, 2)], 3, 3)
    shift = Mat.unit(3, 0, 1) + Mat.unit(3, 1, 2)  # nil2
    return MatrixSubspace.span([Mat.identity(3), shift, shift @ shift], 3, 3)


# the size n at which each exceptional rank-one variant applies, and its tag
_RANK1_VARIANTS = {
    "diag3": (4, "diag"),
    "nilrank1_plus_C": (4, "nil1_plus_scalar"),
    "nilrank2": (4, "nil2"),
    "diag2": (3, "diag"),
    "scalar": (2, "scalar"),
}


def rank_one_max_space(n, variant, l=None):
    """Maximal space with all commutators of rank <= 1.

    Free first row and free (1,1) entry, zero first column below, and a
    maximal commutative space in the trailing (n-1) block: Schur type for the
    generic variant (split l, which may be omitted when only one applies),
    or one of the small-n exceptional commutative spaces.  These are the
    k = 1 equality-case spaces, dimension floor((n-1)^2/4) + n + 1.
    """
    if variant == "generic":
        return extremal_space(n, 1, _split(n, 1, l))
    if variant not in _RANK1_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if l is not None:
        raise ValueError(f"variant {variant!r} takes no split l")
    need_n, tag = _RANK1_VARIANTS[variant]
    if n != need_n:
        raise ValueError(f"variant {variant!r} requires n = {need_n}")
    return exceptional_extremal_space(n, 1, tag)


def exceptional_extremal_space(n, k, tag):
    """Equality-case space with an exceptional commutative trailing block:
    free k-by-n top band plus an exceptional commutative space in the
    trailing (n-k) block.  Applies when n - k <= 3."""
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    return _top_band(n, k, commutative_exceptional_space(n - k, tag).basis)


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
    return Mat.from_scaled(rows, cols, 1, [int(k == i * cols + j) for k in range(rows * cols)])


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

# the arguments each family of ``construct --family`` reads besides n
FAMILIES = {"schur": (), "vk": ("k", "l"), "vk-t": ("k", "l"),
            "thm2-lastrow": (), "thm2-firstcol": (),
            "rank1max": ("l", "variant"), "flanders": ("k",)}


def build_family(family, n, k=None, l=None, variant=None):
    """The space the CLI's ``construct --family`` names, from its arguments;
    an argument the family does not read is an error, not ignored."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    unread = [name for name, value in (("k", k), ("l", l), ("variant", variant))
              if value is not None and name not in FAMILIES[family]]
    if unread:
        raise ValueError(f"family {family} does not read {', '.join(unread)}")
    if k is None and "k" in FAMILIES[family]:
        raise ValueError(f"family {family} needs k")
    if family in ("vk", "vk-t"):
        v = extremal_space(n, k, _split(n, k, l))
        return v.transpose_space() if family == "vk-t" else v
    if family == "rank1max":
        return rank_one_max_space(n, variant or "generic", l)
    if family == "flanders":
        return flanders_space(n, n, k)
    return {"schur": schur_space, "thm2-lastrow": lastrow_zero_space,
            "thm2-firstcol": firstcol_zero_space}[family](n)
