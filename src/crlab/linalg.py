"""Exact dense linear algebra over Q and over a simple extension Q(theta).

Scalars are ``fractions.Fraction`` in rational mode and number-field elements
(:mod:`crlab.numberfield`) after an extension has been adjoined.  Matrices are
immutable and hashable; every operation is a pure function, so concurrent use
is safe.

Rank and determinant over Q go through Bareiss fraction-free elimination on a
denominator-cleared integer matrix, with the pivot chosen as the first nonzero
entry of the current column (lowest row index), which keeps results
deterministic and avoids coefficient blowup.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

__all__ = [
    "Mat",
    "SingularMatrixError",
    "commutator",
    "charpoly_discriminant",
    "random_matrix",
    "rref_rows",
    "mat_from_columns",
    "complete_basis",
]


class SingularMatrixError(ValueError):
    """Raised when an inverse or a conjugation needs an invertible matrix."""


def as_scalar(x):
    """Coerce ints and 'p/q' strings to Fraction; pass field elements through."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("floating-point entries are not allowed; use Fraction")
    return x


_ZERO = Fraction(0)
_ONE = Fraction(1)


class Mat:
    """Immutable dense matrix, entries row-major in a flat tuple."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        data = tuple(data)
        if len(data) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(data)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("from_rows needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = [as_scalar(x) for r in rows for x in r]
        return cls(len(rows), ncols, flat)

    @classmethod
    def zero(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls(rows, cols, (_ZERO,) * (rows * cols))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(_ONE if i == j else _ZERO
                               for i in range(n) for j in range(n)))

    @classmethod
    def unit(cls, n, i, j):
        """Matrix unit with 1 at position (i, j), zero-based."""
        data = [_ZERO] * (n * n)
        data[i * n + j] = _ONE
        return cls(n, n, data)

    @classmethod
    def diagonal(cls, entries):
        entries = [as_scalar(x) for x in entries]
        n = len(entries)
        data = [_ZERO] * (n * n)
        for i, x in enumerate(entries):
            data[i * n + i] = x
        return cls(n, n, data)

    @classmethod
    def column(cls, entries):
        entries = [as_scalar(x) for x in entries]
        return cls(len(entries), 1, entries)

    # -- accessors ---------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def rows_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def block(self, r0, r1, c0, c1):
        """The submatrix of rows r0..r1-1 and columns c0..c1-1."""
        return Mat(r1 - r0, c1 - c0,
                   tuple(self[i, j] for i in range(r0, r1) for j in range(c0, c1)))

    @property
    def is_square(self):
        return self.rows == self.cols

    # -- arithmetic --------------------------------------------------------

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __add__(self, other):
        self._check_same_shape(other)
        return Mat(self.rows, self.cols,
                   tuple(a + b for a, b in zip(self.data, other.data)))

    def __sub__(self, other):
        self._check_same_shape(other)
        return Mat(self.rows, self.cols,
                   tuple(a - b for a, b in zip(self.data, other.data)))

    def __neg__(self):
        return Mat(self.rows, self.cols, tuple(-a for a in self.data))

    def __mul__(self, scalar):
        s = as_scalar(scalar)
        return Mat(self.rows, self.cols, tuple(a * s for a in self.data))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        m, k, n = self.rows, self.cols, other.cols
        a, b = self.data, other.data
        out = []
        for i in range(m):
            arow = a[i * k:(i + 1) * k]
            for j in range(n):
                acc = None
                for t in range(k):
                    x = arow[t]
                    if x:
                        y = b[t * n + j]
                        if y:
                            acc = x * y if acc is None else acc + x * y
                out.append(acc if acc is not None else _zero_like(a[0]))
        return Mat(m, n, out)

    def transpose(self):
        return Mat(self.cols, self.rows,
                   tuple(self.data[i * self.cols + j]
                         for j in range(self.cols) for i in range(self.rows)))

    def trace(self):
        if not self.is_square:
            raise ValueError("trace needs a square matrix")
        acc = self.data[0]
        for i in range(1, self.rows):
            acc = acc + self.data[i * self.cols + i]
        return acc

    def is_zero(self):
        return not any(self.data)

    def is_upper_triangular(self):
        if not self.is_square:
            return False
        n = self.rows
        return not any(self.data[i * n + j] for i in range(1, n) for j in range(i))

    def strictly_lower_part(self):
        if not self.is_square:
            raise ValueError("square matrices only")
        n = self.rows
        data = list(self.data)
        for i in range(n):
            for j in range(i, n):
                data[i * n + j] = _zero_like(self.data[0])
        return Mat(n, n, data)

    def is_scalar_matrix(self):
        if not self.is_square:
            return False
        n = self.rows
        d = self.data[0]
        for i in range(n):
            for j in range(n):
                x = self.data[i * n + j]
                if i == j:
                    if x != d:
                        return False
                elif x:
                    return False
        return True

    # -- rank / kernel / determinant ----------------------------------------

    def _integer_rows(self):
        """Row-scaled integer copy (each row times the lcm of denominators)."""
        out = []
        scales = []
        for i in range(self.rows):
            r = self.row(i)
            L = 1
            for x in r:
                L = L * x.denominator // math.gcd(L, x.denominator)
            out.append([int(x * L) for x in r])
            scales.append(L)
        return out, scales

    def rank(self):
        if not self.data:
            return 0
        if isinstance(self.data[0], Fraction):
            rows, _ = self._integer_rows()
            return _rank_bareiss(rows)
        work = [list(self.row(i)) for i in range(self.rows)]
        return len(rref_rows(work))

    def det(self):
        if not self.is_square:
            raise ValueError("determinant needs a square matrix")
        if not isinstance(self.data[0], Fraction):
            raise ValueError("determinant is defined in rational mode only")
        rows, scales = self._integer_rows()
        d = _det_bareiss(rows)
        out = Fraction(d)
        for s in scales:
            out /= s
        return out

    def kernel_basis(self):
        """Basis of the right null space, as n-by-1 column matrices."""
        work = [list(self.row(i)) for i in range(self.rows)]
        pivots = rref_rows(work)
        pivot_cols = set(pivots)
        one = _one_like(self.data[0]) if self.data else _ONE
        zero = _zero_like(self.data[0]) if self.data else _ZERO
        basis = []
        for j in range(self.cols):
            if j in pivot_cols:
                continue
            vec = [zero] * self.cols
            vec[j] = one
            for r, pc in enumerate(pivots):
                vec[pc] = -work[r][j]
            basis.append(Mat.column(vec))
        return basis

    def inverse(self):
        if not self.is_square:
            raise SingularMatrixError("not square")
        n = self.rows
        zero = _zero_like(self.data[0])
        one = _one_like(self.data[0])
        aug = []
        for i in range(n):
            row = list(self.row(i)) + [zero] * n
            row[n + i] = one
            aug.append(row)
        pivots = rref_rows(aug)
        if pivots != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return Mat(n, n, [aug[i][n + j] for i in range(n) for j in range(n)])

    def charpoly(self):
        """Characteristic polynomial det(xI − M), little-endian coefficients.

        Faddeev–LeVerrier: the only divisions are by 1..n, which stay exact
        over Q and over Q(theta).
        """
        if not self.is_square:
            raise ValueError("square matrices only")
        n = self.rows
        one = _one_like(self.data[0])
        eye = Mat(n, n, tuple(one if i == j else _zero_like(one)
                              for i in range(n) for j in range(n)))
        coeffs = [one]          # leading coefficient, built down from x^n
        Mk = self
        c = -Mk.trace()
        coeffs.append(c)
        for k in range(2, n + 1):
            Mk = self @ (Mk + eye * c)
            c = -(Mk.trace() / k)
            coeffs.append(c)
        coeffs.reverse()
        return tuple(coeffs)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Mat[{body}]"


def _zero_like(x):
    if isinstance(x, Fraction):
        return _ZERO
    return x.field.zero()


def _one_like(x):
    if isinstance(x, Fraction):
        return _ONE
    return x.field.one()


def _rank_bareiss(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    r = 0
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
        pr = rows[r]
        pv = pr[c]
        for i in range(r + 1, m):
            ri = rows[i]
            f = ri[c]
            for j in range(c, n):
                ri[j] = (pv * ri[j] - f * pr[j]) // prev
        prev = pv
        r += 1
        if r == m:
            break
    return r


def _det_bareiss(rows):
    """Determinant of an integer matrix (Bareiss, exact divisions)."""
    n = len(rows)
    sign = 1
    prev = 1
    for c in range(n):
        piv = None
        for i in range(c, n):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        pr = rows[c]
        pv = pr[c]
        for i in range(c + 1, n):
            ri = rows[i]
            f = ri[c]
            for j in range(c, n):
                ri[j] = (pv * ri[j] - f * pr[j]) // prev
        prev = pv
    return sign * rows[n - 1][n - 1]


def rref_rows(rows):
    """Reduce rows in place to reduced row echelon form; return pivot columns.

    Works over any exact field whose elements support +, -, *, / and
    truthiness (Fraction, number-field elements).
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    pivots = []
    r = 0
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
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        pr = rows[r]
        for i in range(m):
            if i != r:
                f = rows[i][c]
                if f:
                    rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def commutator(a, b):
    """AB − BA for square matrices of equal size."""
    if not (a.is_square and b.is_square and a.rows == b.rows):
        raise ValueError("commutator needs equal square matrices")
    return a @ b - b @ a


class VectorSpan:
    """Incremental reduced-row-echelon accumulator for vectors over an exact
    field; supports membership tests and dimension counting."""

    __slots__ = ("length", "rows", "pivots")

    def __init__(self, length):
        self.length = length
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            f = vec[p]
            if f:
                vec = [a - f * b for a, b in zip(vec, row)]
        return vec

    def contains(self, vec):
        return not any(self.reduce(vec))

    def add(self, vec):
        """Insert a vector; returns True when it enlarged the span."""
        res = self.reduce(vec)
        p = next((i for i, x in enumerate(res) if x), None)
        if p is None:
            return False
        pv = res[p]
        if pv != 1:
            res = [x / pv for x in res]
        for i, row in enumerate(self.rows):
            f = row[p]
            if f:
                self.rows[i] = [a - f * b for a, b in zip(row, res)]
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < p:
            idx += 1
        self.rows.insert(idx, res)
        self.pivots.insert(idx, p)
        return True


def mat_from_columns(columns):
    """Assemble a matrix from length-n column vectors (Mat columns or tuples)."""
    cols = []
    for c in columns:
        if isinstance(c, Mat):
            if c.cols != 1:
                raise ValueError("columns must be n-by-1")
            cols.append(c.data)
        else:
            cols.append(tuple(as_scalar(x) for x in c))
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("ragged columns")
    return Mat(n, len(cols), tuple(cols[j][i] for i in range(n) for j in range(len(cols))))


def complete_basis(columns, n, one=_ONE):
    """Extend independent n-by-1 columns to a basis of the whole space with
    standard vectors; ``one`` is the unit of the columns' field."""
    span = VectorSpan(n)
    out = list(columns)
    for c in columns:
        span.add(c.data)
    zero = one - one
    for i in range(n):
        e = [zero] * n
        e[i] = one
        if span.add(e):
            out.append(Mat.column(e))
    return out


def _poly_deriv(p):
    return [i * a for i, a in enumerate(p)][1:]


def _resultant(p, q):
    """Resultant via the Sylvester matrix and an exact Bareiss determinant."""
    dp = len(p) - 1
    dq = len(q) - 1
    if dp < 0 or dq < 0:
        raise ValueError("zero polynomial")
    if dq == 0:
        return q[0] ** dp
    if dp == 0:
        return p[0] ** dq
    size = dp + dq
    rows = []
    prev = list(reversed(p))
    for i in range(dq):
        rows.append([_ZERO] * i + prev + [_ZERO] * (size - i - dp - 1))
    prev = list(reversed(q))
    for i in range(dp):
        rows.append([_ZERO] * i + prev + [_ZERO] * (size - i - dq - 1))
    return Mat(size, size, [x for r in rows for x in r]).det()


def charpoly_discriminant(m):
    """Discriminant of the characteristic polynomial; nonzero iff the matrix
    has n distinct complex eigenvalues.  Rational mode only."""
    if not isinstance(m.data[0], Fraction):
        raise ValueError("discriminant is defined in rational mode only")
    p = list(m.charpoly())
    n = len(p) - 1
    if n == 1:
        return _ONE
    dp = _poly_deriv(p)
    res = _resultant(p, dp)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res  # leading coefficient is 1


def random_matrix(rows, cols, entry_bound, seed):
    """Integer matrix with entries uniform in [-entry_bound, entry_bound],
    drawn from a generator seeded by ``seed`` (deterministic per seed)."""
    if entry_bound < 0:
        raise ValueError("entry_bound must be >= 0")
    rng = random.Random(seed)
    data = [Fraction(rng.randint(-entry_bound, entry_bound))
            for _ in range(rows * cols)]
    return Mat(rows, cols, data)
