"""Exact dense linear algebra over Q and over algebraic number fields.

Scalars are rationals, or sympy ``ANP`` elements of a number field
(:mod:`crlab.numberfield`) after an extension has been adjoined; a tower of
extensions is one field with a primitive element, so every matrix has one
scalar type.  The kernels use only ring arithmetic, truthiness and
equality, so the module imports no sympy.  Matrices are immutable and hashable,
and every operation is a pure function, so concurrent use is safe.

Every matrix is one canonical form (scale, entries), entries row-major:
over Q a positive int scale and int entries with gcd(scale, *entries) = 1,
so the matrix is entries / scale and scale is exactly the lcm of its
entries' denominators; over a number field scale 1 and field entries.  The
constructor classifies and normalizes its scalars once (:func:`_form`),
kernel results are normalized by :meth:`Mat.from_scaled`, equality and
hashing compare the form, and ``data`` builds the scalars when read.  Every
kernel has one body.  Products and commutators run on the entries with the
scale L_a L_b, so a chain such as P^{-1} A P builds no Fraction.  A product
(:func:`_product`) is a row combination, row i of AB the :func:`_combine` of
B's nonzero rows by row i of A, so it pays only for its nonzero terms:
echelon and adapted bases are mostly zeros, and a zero product of field
elements still costs a sympy call.  A commutator (:func:`_commutator_rows`)
stays a dense dot-product loop: its operands are random members, mostly
nonzero, and the row form measured slower (the 164 commutators of the
search workload's scans: 4.7 ms dense, 6.2 ms as rows).  Rank and
determinant run Bareiss (1968) fraction-free elimination, pivoting on the
first nonzero entry of each column (det = sign * last pivot / scale^n); the
characteristic polynomial is one Faddeev–LeVerrier loop with coefficients
c_k / scale^k.  Q and a number field differ only in the exact division
those two take: integer division over Q, field division otherwise.
:func:`_combine` forms every integer combination of rows, each given as
its nonzero (index, value) pairs, since echelon bases are mostly zeros.

:func:`_echelon` is one Gauss–Jordan loop: rational rows are reduced over
ints, each kept primitive, so pivot row p ends as w_p with pivot pv_p and
RREF row p is R_p / L, R_p = (L / pv_p) w_p, L = lcm |pv_p|; number-field
rows are divided by their pivots, with L = 1.  :class:`VectorSpan` keeps
(L, R) with one membership rule, the RREF pivot identity, and its rows as
matrices are born in their form (|pv_p|, ±w_p).  A change of basis is one
reduction: :func:`adapted_basis` reduces [v_1 ... v_k | I], whose pivot
columns P are the v's and exactly the e_i that raise the rank of the
columns before them; the row operations E turn P into I, so E, the
right-hand block, is P^{-1} (:meth:`Mat.inverse` is k = n).  The one
quotient step, :func:`invariant_split`, rests on it: with pi' the last
n − k rows of P^{-1}, W = span(v_i) is invariant under A iff (pi' A) W = 0,
and then the block of P^{-1} A P on Q^n / W is pi' A read at the columns
c of P's unit vectors e_c.

The two integer eliminations stay separate because each is faster at its
own job (2 vCPUs, Python 3.11.7).  A primitive-row echelon for the
sampler's rank takes 32.6 µs per commutator against 18.3 µs for Bareiss,
and made the search workload 5–6% slower over 4 paired runs.  A Bareiss
echelon plus a back pass for the RREF takes 75.2 ms on the 18 conjugated
extremal bases with n = 5..7, against 32.6 ms for Gauss–Jordan.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain
from operator import add, floordiv, mul, sub, truediv

__all__ = [
    "Mat",
    "SingularMatrixError",
    "commutator",
    "random_matrix",
    "mat_from_columns",
    "adapted_basis",
    "column_space",
    "InvariantSplit",
    "invariant_split",
    "block_diag",
]


class SingularMatrixError(ValueError):
    """Raised when an inverse or a conjugation needs an invertible matrix."""


def _clear_denominators(xs):
    """(L, [L * x]) for ints and Fractions xs, L the lcm of their
    denominators; gcd(L, *result) is 1."""
    scale = math.lcm(*(x.denominator for x in xs))
    return scale, [x.numerator * (scale // x.denominator) for x in xs]


def _form(data):
    """(scale, entries) of a flat sequence of scalars: ints and Fractions
    as the ints over the lcm of their denominators; with a number-field
    element among them, every entry in that field and scale 1.  Floats and
    strings are refused."""
    field = [x for x in data if not isinstance(x, (int, Fraction))]
    if not field:
        return _clear_denominators(data)
    if any(isinstance(x, (float, str)) for x in field):
        raise TypeError("floating-point and string entries are not allowed; use Fraction")
    one = field[0] ** 0
    return 1, [one * x if isinstance(x, (int, Fraction)) else x for x in data]


_ZERO = Fraction(0)


def _scalars(xs, scale):
    """The scalars x / scale of a form's entries xs, as a list: Fractions
    over Q, sharing one zero (echelon bases are mostly zeros), or the field
    elements themselves over a number field, where scale is 1."""
    if xs and type(xs[0]) is not int:
        return list(xs)
    if scale == 1:
        return [Fraction(x) if x else _ZERO for x in xs]
    return [Fraction(x, scale) if x else _ZERO for x in xs]


class Mat:
    """Immutable dense matrix in its canonical form (scale, entries); see
    the module docstring."""

    __slots__ = ("rows", "cols", "scale", "entries")

    def __init__(self, rows, cols, data):
        data = tuple(data)
        if len(data) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(data)}")
        self._fill(rows, cols, *_form(data))

    @classmethod
    def from_scaled(cls, rows, cols, scale, entries):
        """The matrix entries / scale for a positive int scale and entries
        that are all ints or all field elements, in canonical form."""
        if entries and type(entries[0]) is not int:
            if scale != 1:
                entries, scale = [x / scale for x in entries], 1
        else:
            g = math.gcd(scale, *entries)
            if g != 1:
                entries, scale = [x // g for x in entries], scale // g
        mat = object.__new__(cls)
        mat._fill(rows, cols, scale, entries)
        return mat

    def _fill(self, rows, cols, scale, entries):
        if rows < 0 or cols < 0:
            raise ValueError("matrix sizes must be >= 0")
        for name, value in zip(Mat.__slots__, (rows, cols, scale, tuple(entries))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("from_rows needs one or more rows of one length")
        return cls(len(rows), len(rows[0]), [x for r in rows for x in r])

    @classmethod
    def zero(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls.from_scaled(rows, cols, 1, [0] * (rows * cols))

    @classmethod
    def identity(cls, n):
        return cls.from_scaled(n, n, 1, [int(i == j) for i in range(n) for j in range(n)])

    @classmethod
    def unit(cls, n, i, j):
        """Matrix unit with 1 at position (i, j), zero-based."""
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"unit {(i, j)} outside a {n}x{n} matrix")
        return cls.from_scaled(n, n, 1, [int(k == i * n + j) for k in range(n * n)])

    @classmethod
    def diagonal(cls, entries):
        entries = tuple(entries)
        n = len(entries)
        return cls(n, n, [entries[i] if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def column(cls, entries):
        entries = tuple(entries)
        return cls(len(entries), 1, entries)

    # -- accessors ---------------------------------------------------------

    @property
    def data(self):
        """The entries as scalars, row-major, built on each read."""
        return tuple(_scalars(self.entries, self.scale))

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {ij} outside a {self.rows}x{self.cols} matrix")
        return _scalars([self.entries[i * self.cols + j]], self.scale)[0]

    def row(self, i):
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside a {self.rows}x{self.cols} matrix")
        return tuple(_scalars(self.entries[i * self.cols:(i + 1) * self.cols], self.scale))

    def block(self, r0, r1, c0, c1):
        """The submatrix of rows r0..r1-1 and columns c0..c1-1."""
        c = self.cols
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= c):
            raise ValueError(f"block {(r0, r1, c0, c1)} outside a {self.rows}x{c} matrix")
        return Mat.from_scaled(r1 - r0, c1 - c0, self.scale,
                               [x for i in range(r0, r1) for x in self.entries[i * c + c0:i * c + c1]])

    def _rows(self):
        """The entries as fresh row lists, for elimination."""
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    @property
    def is_square(self):
        return self.rows == self.cols

    # -- arithmetic --------------------------------------------------------

    def _entrywise(self, other, op):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        scale, (x, y) = _common_scale((self, other))
        return Mat.from_scaled(self.rows, self.cols, scale, list(map(op, x, y)))

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def __neg__(self):
        return Mat.from_scaled(self.rows, self.cols, self.scale, [-x for x in self.entries])

    def __mul__(self, scalar):
        scale, (s,) = _form((scalar,))
        return Mat.from_scaled(self.rows, self.cols, self.scale * scale,
                               [x * s for x in self.entries])

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        m, k, n = self.rows, self.cols, other.cols
        return Mat.from_scaled(m, n, self.scale * other.scale,
                               _product(self.entries, other.entries, m, k, n))

    def transpose(self):
        return Mat.from_scaled(self.cols, self.rows, self.scale,
                               [x for j in range(self.cols) for x in self.entries[j::self.cols]])

    def trace(self):
        if not self.is_square:
            raise ValueError("trace needs a square matrix")
        return _scalars([sum(self.entries[::self.cols + 1])], self.scale)[0]

    def is_zero(self):
        return not any(self.entries)

    def is_upper_triangular(self):
        if not self.is_square:
            return False
        n, entries = self.rows, self.entries
        return not any(entries[i * n + j] for i in range(1, n) for j in range(i))

    def is_scalar_matrix(self):
        if not self.is_square:
            return False
        step, entries = self.rows + 1, self.entries
        return all(x == entries[0] if i % step == 0 else not x
                   for i, x in enumerate(entries))

    # -- rank / kernel / determinant ----------------------------------------

    def rank(self):
        return _bareiss(self._rows())[0]

    def det(self):
        if not self.is_square:
            raise ValueError("determinant needs a square matrix")
        rows = self._rows()
        _, sign = _bareiss(rows)
        # below the rank every row ends zero, so a singular matrix reads 0
        return _scalars([sign * rows[-1][-1] if rows else 1], self.scale ** self.rows)[0]

    def kernel_basis(self):
        """Basis of the right null space, as n-by-1 column matrices: for each
        free column j, L e_j − sum_p R_p[j] e_{c_p} over L, with RREF row p
        R_p / L at pivot column c_p."""
        rows = self._rows()
        pivots, scale = _echelon(rows)
        one = self.entries[0] ** 0 if self.entries else 1
        basis = []
        for j in sorted(set(range(self.cols)).difference(pivots)):  # the free columns
            vec = [one * 0] * self.cols
            vec[j] = one * scale
            for r, pc in enumerate(pivots):
                vec[pc] = -rows[r][j]
            basis.append(Mat.from_scaled(self.cols, 1, scale, vec))
        return basis

    def inverse(self):
        """The P^{-1} of :func:`adapted_basis` on the columns: one reduction of [M | I]."""
        if not self.is_square:
            raise SingularMatrixError("not square")
        return adapted_basis(self, self.rows)[1]

    def charpoly(self):
        """Characteristic polynomial det(xI − M), little-endian coefficients.

        Faddeev–LeVerrier on M = A / L, (L, A) the form:
        M_1 = A, M_k = A (M_{k−1} + c_{k−1} I) and c_k = −tr(M_k) / k, with
        c_k the coefficient of x^{n−k} in det(xI − A).  For an integer A every
        M_k and c_k is an integer, so the division by k is exact, and
        det(xI − M) has the coefficients c_k / L^k.  A number-field matrix
        runs the same loop with L = 1 and field division.
        """
        if not self.is_square:
            raise ValueError("square matrices only")
        n, a = self.rows, self.entries
        quo = floordiv if not a or type(a[0]) is int else truediv  # exact in both rings
        c = a[0] ** 0 if a else 1  # the leading coefficient, in the entries' ring
        coeffs = [c]
        mk = a
        for k in range(1, n + 1):
            if k > 1:
                mk = list(mk)
                for i in range(0, n * n, n + 1):
                    mk[i] += c
                mk = _product(a, mk, n, n, n)
            c = -quo(sum(mk[::n + 1]), k)
            coeffs.append(c)
        return tuple(_scalars([c], self.scale ** k)[0] for k, c in reversed(list(enumerate(coeffs))))

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return ((self.rows, self.cols, self.scale, self.entries)
                == (other.rows, other.cols, other.scale, other.entries))

    def __hash__(self):
        return hash((self.rows, self.cols, self.scale, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Mat[{body}]"


def _common_scale(mats):
    """(L, the entries of each matrix times L / its scale), L the lcm of
    the scales."""
    scale = math.lcm(*(m.scale for m in mats))
    return scale, [m.entries if m.scale == scale else [x * (scale // m.scale) for x in m.entries]
                   for m in mats]


def _product(a, b, m, k, n):
    """AB for flat row-major matrices (m-by-k times k-by-n), flat: row i is
    the :func:`_combine` of B's rows, stripped once, by row i of A, so only
    the nonzero a_ir times the nonzero entries of row r are formed.  Entries
    are ints or number-field elements; every sum starts at the product's
    zero a[0] b[0] 0, a field element when either operand is over a field."""
    rows = _sparse(b[r * n:(r + 1) * n] for r in range(k))
    zero = a[0] * b[0] * 0 if a and b else 0
    return [x for i in range(m) for x in _combine(rows, a[i * k:(i + 1) * k], n, zero)]


def _commutator_rows(a, b, n):
    """AB − BA for flat row-major n-by-n matrices over the scalars of
    :func:`_product`, as a list of rows."""
    cols_a = [a[j::n] for j in range(n)]
    cols_b = [b[j::n] for j in range(n)]
    out = []
    for i in range(n):
        ra, rb = a[i * n:(i + 1) * n], b[i * n:(i + 1) * n]
        out.append([sum(map(mul, ra, cb)) - sum(map(mul, rb, ca))
                    for ca, cb in zip(cols_a, cols_b)])
    return out


def _sparse(rows):
    """Each flat row as the list of its nonzero (index, value) pairs, the
    form :func:`_combine` takes; strip a row set once, combine it often."""
    return [[(i, x) for i, x in enumerate(row) if x] for row in rows]


def _combine(rows, coeffs, size, zero=0):
    """The combination sum(c * row) as a flat list of length ``size``, for
    rows given by :func:`_sparse`, skipping zero coefficients; ``zero`` is
    the sums' zero, a field's zero when the rows or the coefficients are
    over one."""
    acc = [zero] * size
    for c, row in zip(coeffs, rows):
        if c:
            for i, x in row:
                acc[i] += c * x
    return acc


def _bareiss(rows):
    """Fraction-free elimination in place; returns (rank, sign of the row
    swaps).  Each step divides exactly: integer division over the ints,
    field division over a number field.  For a square matrix of full rank
    the last pivot rows[n-1][n-1] times that sign is the determinant."""
    m, n = len(rows), len(rows[0]) if rows else 0
    quo = truediv if n and type(rows[0][0]) is not int else floordiv
    r = 0
    sign = 1
    prev = 1
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pr = rows[r]
        pv = pr[c]
        for i in range(r + 1, m):
            ri = rows[i]
            f = ri[c]
            for j in range(c, n):
                ri[j] = quo(pv * ri[j] - f * pr[j], prev)
        prev = pv
        r += 1
        if r == m:
            break
    return r, sign


def _echelon(rows):
    """Gauss–Jordan in place on rows of ints or of field elements; returns
    (pivot columns, L), row p ending as R_p with RREF row p = R_p / L and
    the rows past the pivots zero.  Int rows are kept primitive (entries
    coprime), so entries stay small: eliminating column c from row i with
    pivot row r replaces row i by (pv*row_i − f*row_r) / gcd(pv, f).  A field
    pivot row is divided by its pivot, one inverse per pivot row (inverses
    dominate over a number field)."""
    if not rows or not rows[0]:
        return [], 1
    integer = type(rows[0][0]) is int
    if integer:
        rows[:] = map(_primitive, rows)
    m, n = len(rows), len(rows[0])
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if not integer and rows[r][c] != rows[r][c] ** 0:
            inv = rows[r][c] ** 0 / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
        pr = rows[r]
        pv = pr[c]
        for i in range(m):
            f = rows[i][c]
            if f and i != r:
                if integer:
                    g = math.gcd(pv, f)
                    p, q = pv // g, f // g
                    rows[i] = _primitive([p * x - q * y for x, y in zip(rows[i], pr)])
                else:
                    rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
        pivots.append(c)
        if len(pivots) == m:
            break
    if not integer:
        return pivots, 1
    scale = math.lcm(*(rows[p][c] for p, c in enumerate(pivots)))
    rows[:len(pivots)] = [[x * (scale // r[c]) for x in r] for r, c in zip(rows, pivots)]
    return pivots, scale


def _primitive(row):
    """An integer row divided by the gcd of its entries (zero rows unchanged)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def commutator(a, b):
    """AB − BA for square matrices of equal size, in one pass over the
    entries with the scale L_a L_b."""
    if not (a.is_square and b.is_square and a.rows == b.rows):
        raise ValueError("commutator needs equal square matrices")
    n = a.rows
    return Mat.from_scaled(n, n, a.scale * b.scale,
                           [e for r in _commutator_rows(a.entries, b.entries, n) for e in r])


class VectorSpan:
    """The span of vectors over an exact field, kept as the scaled RREF of
    :func:`_echelon`: pivot columns, and row p of the RREF as
    ``entries[p] / scale``.  A vector is a sequence or a :class:`Mat`, read
    row-major."""

    __slots__ = ("length", "pivots", "scale", "entries", "_terms")

    def __init__(self, length, vectors=()):
        if length < 0:
            raise ValueError("span length must be >= 0")
        self.length = length
        self._reduce([self._vector(v) for v in vectors])

    def _vector(self, v):
        """A Mat's entries, read row-major, or a sequence's form's entries (a
        nonzero multiple spans the same line), of the span's length."""
        vec = v.entries if isinstance(v, Mat) else _form(v)[1]
        if len(vec) != self.length:
            raise ValueError(f"a vector of length {len(vec)} for a span of length {self.length}")
        return vec

    def _reduce(self, rows):
        self.pivots, self.scale = _echelon(rows)
        self.entries = tuple(map(tuple, rows[:len(self.pivots)]))
        self._terms = None

    @property
    def dim(self):
        return len(self.pivots)

    def members(self, rows, cols):
        """The RREF rows as rows-by-cols matrices, each in its canonical form."""
        return [Mat.from_scaled(rows, cols, self.scale, r) for r in self.entries]

    def contains(self, vec):
        """Is vec in the span?  Row p of the RREF is 1 at its own pivot and 0
        at every other pivot, so v is in the span iff v = sum_p v[p] row_p,
        that is L v == sum_p v[p] R_p: one :func:`_combine` over the rows'
        nonzero entries, built when first needed."""
        vec = self._vector(vec)
        if self._terms is None:
            self._terms = _sparse(self.entries)
        coeffs = (-self.scale, *(vec[p] for p in self.pivots))
        return not any(_combine(_sparse((vec,)) + self._terms, coeffs, self.length))

    def add(self, vec):
        """Insert a vector; returns True when it enlarged the span.  The RREF
        of a span is unique, so the vector itself joins the rows."""
        if self.contains(vec):
            return False
        self._reduce([*self.entries, self._vector(vec)])
        return True


def mat_from_columns(columns):
    """Assemble a matrix from length-n column vectors (Mat columns or sequences)."""
    mats = [c if isinstance(c, Mat) else Mat.column(c) for c in columns]
    if not mats or any(m.cols != 1 or m.rows != mats[0].rows for m in mats):
        raise ValueError("mat_from_columns needs one or more n-by-1 columns for one n")
    scale, cols = _common_scale(mats)
    return Mat.from_scaled(len(cols), mats[0].rows, scale, [x for c in cols for x in c]).transpose()


def adapted_basis(vectors, n):
    """(P, P^{-1}) from one reduction of [v_1 ... v_k | I]: P extends independent
    length-n vectors (the columns of an n-by-k Mat, or a list of vectors as
    for :func:`mat_from_columns`) by the e_i that raise the rank of the
    columns before them.  Raises SingularMatrixError when the vectors are
    dependent."""
    if not isinstance(vectors, Mat):
        vectors = mat_from_columns(vectors) if vectors else Mat.zero(n, 0)
    k, scale, entries = vectors.cols, vectors.scale, vectors.entries
    one = entries[0] ** 0 if entries else 1
    # scale * I: [V | I] and L[V | I] share their RREF, and P keeps L
    eye = [[one * scale if i == j else one * 0 for j in range(n)] for i in range(n)]
    aug = [list(entries[i * k:(i + 1) * k]) + eye[i] for i in range(n)]
    pivots, inv_scale = _echelon(aug)
    if pivots[:k] != list(range(k)):
        raise SingularMatrixError("matrix is singular")
    p = [x for i in range(n) for x in chain(entries[i * k:(i + 1) * k],
                                             (eye[i][c - k] for c in pivots[k:]))]
    return (Mat.from_scaled(n, n, scale, p),
            Mat.from_scaled(n, n, inv_scale, [x for r in aug for x in r[k:]]))


def column_space(m):
    """The echelon basis of the column space of m, as column vectors (its
    entries stay small where raw columns of m may not)."""
    span = VectorSpan(m.rows, (m.block(0, m.rows, j, j + 1) for j in range(m.cols)))
    return span.members(m.rows, 1)


class InvariantSplit:
    """A family split at an invariant W by :func:`invariant_split`: ``p``
    and ``p_inv`` of :func:`adapted_basis`, ``dim`` = dim W, and the blocks
    of P^{-1} A P on Q^n / W (``quotients``) and on W (:meth:`tops`)."""

    __slots__ = ("p", "p_inv", "dim", "quotients", "_mats")

    def __init__(self, p, p_inv, dim, quotients, mats):
        self.p, self.p_inv, self.dim, self.quotients, self._mats = p, p_inv, dim, quotients, mats

    def tops(self):
        """pi A W for each A, pi the first k rows of P^{-1}, formed when called."""
        n, k = self.p.rows, self.dim
        pi, w = self.p_inv.block(0, k, 0, n), self.p.block(0, n, 0, k)
        return [pi @ a @ w for a in self._mats]


def invariant_split(mats, basis, n):
    """The :class:`InvariantSplit` of n-by-n ``mats`` at W, the span of the
    independent n-by-1 columns ``basis``, or None when some matrix moves W.

    pi' A, pi' the last n − k rows of P^{-1}, is one :func:`_product` per A,
    which combines A's nonzero rows: W is invariant iff (pi' A) W = 0, and the
    quotient block is pi' A at the columns of P's unit vectors, with no
    second product.
    """
    k = len(basis)
    p, p_inv = adapted_basis(basis, n)
    w = [p.entries[j::n] for j in range(k)]
    units = [next(i for i, x in enumerate(p.entries[j::n]) if x) for j in range(k, n)]
    pi = p_inv.entries[k * n:]
    quotients = []
    for a in mats:
        pa = _product(pi, a.entries, n - k, n, n)
        pa = [pa[i * n:(i + 1) * n] for i in range(n - k)]
        if any(sum(map(mul, row, col)) for row in pa for col in w):
            return None
        quotients.append(Mat.from_scaled(n - k, n - k, p_inv.scale * a.scale,
                                         [row[c] for row in pa for c in units]))
    return InvariantSplit(p, p_inv, k, quotients, mats)


def block_diag(a, b):
    """The square matrix with square blocks a and b on its diagonal; the
    zero blocks take their zero from b's field (an empty b leaves none)."""
    if not (a.is_square and b.is_square):
        raise ValueError("block_diag needs square blocks")
    scale, (x, y) = _common_scale((a, b))
    zero = y[0] * 0 if y else 0
    top = [[*x[i * a.cols:(i + 1) * a.cols], *[zero] * b.cols] for i in range(a.rows)]
    bottom = [[*[zero] * a.cols, *y[i * b.cols:(i + 1) * b.cols]] for i in range(b.rows)]
    n = a.rows + b.rows
    return Mat.from_scaled(n, n, scale, [e for r in top + bottom for e in r])


def random_matrix(rows, cols, entry_bound, seed):
    """Integer matrix with entries uniform in [-entry_bound, entry_bound],
    drawn from a generator seeded by ``seed`` (deterministic per seed)."""
    if entry_bound < 0:
        raise ValueError("entry_bound must be >= 0")
    rng = random.Random(seed)
    return Mat.from_scaled(rows, cols, 1, [rng.randint(-entry_bound, entry_bound)
                                           for _ in range(rows * cols)])
