"""Exact dense linear algebra over Q and over algebraic number fields.

Scalars are ``fractions.Fraction`` in rational mode and sympy ``ANP``
elements of a number field (:mod:`crlab.numberfield`) after an extension has
been adjoined; a tower of extensions is one field with a primitive element,
so every matrix has one scalar type.  The kernels use only field arithmetic,
truthiness and equality, so they import no sympy.  Matrices are immutable
and hashable; every operation is a pure function, so concurrent use is safe.
The one state a matrix fills in after it is built, its kept integer form and
the entries of a product, is a pure function of the matrix, so two threads
that fill it at once store equal values.

Each kernel job has one implementation.  A rational matrix keeps its
integer form (L, L * data), L the lcm of its denominators, from its first
use on (:meth:`Mat.integer_form`).  Products and commutators run one loop
(:func:`_product`, :func:`_commutator_rows`) over ints or number-field
elements; two rational operands run on their kept forms, and the result is
born with its own form only: its ``data`` is filled from the form on first
read, so a chain such as P^{-1} A P clears no matrix twice and builds no
Fractions for the inner product.  The kernels that run on the kept form
are products, commutators, rank and determinant, the characteristic
polynomial, and the zero and upper-triangular tests (the form has the
entries' zero pattern), so a triangularity check of P^{-1} A P builds no
Fraction.  Rank and determinant over Q run Bareiss (1968) fraction-free
elimination on the form, pivoting on the first nonzero entry of each
column; det = sign * last pivot / L^n.  The characteristic polynomial is
one Faddeev–LeVerrier loop, over the form's ints with exact division for Q
and over the entries with field division for a number field.
:func:`_combine` forms every integer combination of rows, each row given as
its nonzero (index, value) pairs, since echelon bases are mostly zeros.
:func:`rref_rows` chooses its engine by scalar type alone: every rational
row set is reduced by fraction-free Gauss–Jordan over ints, keeping each
row primitive, and each pivot row is divided by its pivot at the end, which
gives the unique RREF; only number-field rows take the field loop.
:class:`VectorSpan` has one membership rule, the RREF pivot identity, run
on the span's integer form over Q and on its rows over a number field.
A change of basis is one reduction: :func:`adapted_basis` reduces
[v_1 ... v_k | I], whose pivot columns P are the v's and exactly the e_i
that raise the rank of the columns before them; the row operations E turn
P into I, so E, the right-hand block, is P^{-1} (:meth:`Mat.inverse` is
k = n).

Median ``adj_wall_s`` over 10 alternating pairs of 20-s runs (2 shared
vCPUs, Python 3.11.7): the fraction-free ``rref_rows`` took ``files`` from
1.050 to 0.986 s and ``search`` from 0.0656 to 0.0573 s; the kept integer
form took ``files`` from 0.968 to 0.817 s (10 of 10 pairs faster).  Sparse
rows in :func:`_combine`, the integer Faddeev–LeVerrier loop and product
entries built on first read took ``files`` from 0.785 to 0.699 s at seed 0
and from 0.793 to 0.695 s at seed 1 (10 alternating pairs of 10-s runs
each, 10 of 10 faster), with ``search`` unchanged at 0.058 s.

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
from operator import mul, truediv

__all__ = [
    "Mat",
    "SingularMatrixError",
    "commutator",
    "charpoly_discriminant",
    "probe_members",
    "random_matrix",
    "rref_rows",
    "mat_from_columns",
    "adapted_basis",
    "block_diag",
]


class SingularMatrixError(ValueError):
    """Raised when an inverse or a conjugation needs an invertible matrix."""


def as_scalar(x):
    """Coerce ints to Fraction; pass field elements through; refuse floats and strings."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (float, str)):
        raise TypeError("floating-point and string entries are not allowed; use Fraction")
    return x


_ZERO = Fraction(0)
_ONE = Fraction(1)


class Mat:
    """Immutable dense matrix, entries row-major in a flat tuple.  A rational
    product or commutator is built from its kept form alone, and ``data`` is
    filled from that form on first read."""

    __slots__ = ("rows", "cols", "data", "_ints")

    def __init__(self, rows, cols, data):
        data = tuple(data)
        if len(data) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(data)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_ints", None)

    @classmethod
    def _from_form(cls, rows, cols, scale, ints):
        """The matrix ints / scale, given its kept form (L, [ints]) exactly."""
        mat = object.__new__(cls)
        object.__setattr__(mat, "rows", rows)
        object.__setattr__(mat, "cols", cols)
        object.__setattr__(mat, "_ints", (scale, [ints]))
        return mat

    def __getattr__(self, name):
        # reached only while the ``data`` slot of a _from_form matrix is
        # empty; filling it twice stores equal tuples
        if name != "data":
            raise AttributeError(name)
        scale, (ints,) = self._ints
        data = tuple(_fractions(ints, scale))
        object.__setattr__(self, "data", data)
        return data

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

    def integer_form(self):
        """(L, [ints]) = ``_clear_denominators((data,))`` of a rational
        matrix, computed on first use and kept (never mutated); a product or
        commutator is born with its form."""
        if self._ints is None:
            object.__setattr__(self, "_ints", _clear_denominators((self.data,)))
        return self._ints

    def _is_rational(self):
        """Are the scalars rational?  Read off the kept form when there is
        one; an empty matrix counts as rational."""
        return self._ints is not None or not self.data or isinstance(self.data[0], Fraction)

    def _scaled_data(self):
        """The flat entries, or the kept form's ints: L times the entries, so
        zero at the same places and on the same line, with no Fractions."""
        return self.data if self._ints is None else self._ints[1][0]

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        m, k, n = self.rows, self.cols, other.cols
        return _exact(self, other, m, n, lambda a, b: _product(a, b, m, k, n))

    def transpose(self):
        return Mat(self.cols, self.rows,
                   tuple(self.data[i * self.cols + j]
                         for j in range(self.cols) for i in range(self.rows)))

    def trace(self):
        if not self.is_square:
            raise ValueError("trace needs a square matrix")
        diag = self.data[::self.cols + 1]
        return sum(diag[1:], diag[0]) if diag else _ZERO

    def is_zero(self):
        return not any(self._scaled_data())

    def is_upper_triangular(self):
        if not self.is_square:
            return False
        n, entries = self.rows, self._scaled_data()
        return not any(entries[i * n + j] for i in range(1, n) for j in range(i))

    def is_scalar_matrix(self):
        if not self.is_square:
            return False
        step, entries = self.rows + 1, self._scaled_data()
        return all(x == entries[0] if i % step == 0 else not x
                   for i, x in enumerate(entries))

    # -- rank / kernel / determinant ----------------------------------------

    def rank(self):
        if not (self.rows and self.cols):
            return 0
        if self._is_rational():
            return _bareiss(self._int_rows()[1])[0]
        return len(rref_rows([list(self.row(i)) for i in range(self.rows)]))

    def _int_rows(self):
        """(L, rows of the integer form as fresh lists for elimination)."""
        scale, (ints,) = self.integer_form()
        return scale, [ints[i:i + self.cols] for i in range(0, len(ints), self.cols)]

    def det(self):
        if not self.is_square:
            raise ValueError("determinant needs a square matrix")
        if not self._is_rational():
            raise ValueError("determinant is defined in rational mode only")
        if not self.rows:
            return _ONE
        scale, rows = self._int_rows()
        rank, sign = _bareiss(rows)
        return Fraction(sign * rows[-1][-1] if rank == self.rows else 0, scale ** self.rows)

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
        """The P^{-1} of :func:`adapted_basis` on the columns: one reduction of [M | I]."""
        if not self.is_square:
            raise SingularMatrixError("not square")
        return adapted_basis([self.col(j) for j in range(self.cols)], self.rows)[1]

    def charpoly(self):
        """Characteristic polynomial det(xI − M), little-endian coefficients.

        Faddeev–LeVerrier on M = A / L, A the kept integer form:
        M_1 = A, M_k = A (M_{k−1} + c_{k−1} I) and c_k = −tr(M_k) / k, with
        c_k the coefficient of x^{n−k} in det(xI − A).  For an integer A every
        M_k and c_k is an integer, so c_k = −(tr(M_k) // k) exactly (the
        remainder is checked), and det(xI − M) has the coefficients c_k / L^k.
        A number-field matrix runs the same loop on its entries with L = 1
        and field division.
        """
        if not self.is_square:
            raise ValueError("square matrices only")
        n = self.rows
        rational = self._is_rational()
        if rational:
            scale, (a,) = self.integer_form()
            divide, c = _divide_exactly, 1
        else:
            a, divide = self.data, truediv
            c = a[0] ** 0
        coeffs = [c]            # leading coefficient, built down from x^n
        mk = a
        for k in range(1, n + 1):
            if k > 1:
                mk = list(mk)
                for i in range(0, n * n, n + 1):
                    mk[i] += c
                mk = _product(a, mk, n, n, n)
            c = -divide(sum(mk[::n + 1]), k)
            coeffs.append(c)
        if rational:
            coeffs = [Fraction(c, scale ** k) for k, c in enumerate(coeffs)]
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
    return _ZERO if isinstance(x, Fraction) else x - x


def _one_like(x):
    return _ONE if isinstance(x, Fraction) else x ** 0


def _clear_denominators(rows):
    """(L, ints): L is the lcm of every denominator in ``rows`` (sequences of
    Fractions) and ints[i] is L times rows[i] as a list of ints."""
    scale = math.lcm(*(x.denominator for r in rows for x in r))
    return scale, [[x.numerator * (scale // x.denominator) for x in r] for r in rows]


def _fractions(ints, d):
    """The rationals x / d for the ints x, sharing one zero."""
    return [Fraction(x, d) if x else _ZERO for x in ints]


def _divide_exactly(x, k):
    """x // k for ints that k divides."""
    q, r = divmod(x, k)
    if r:
        raise ArithmeticError(f"{k} does not divide {x}")
    return q


def _exact(a, b, m, n, kernel):
    """The m-by-n matrix of the flat list kernel(x, y) on the entries of a
    and b.  Rational operands run on their integer forms (L_a, x), (L_b, y);
    the result out / d, d = L_a L_b, is born with the form (d/g, [out/g]),
    g = gcd(d, *out), exactly its entries' cleared denominators, and builds
    its Fractions on first read."""
    if not (a._is_rational() and b._is_rational()):
        return Mat(m, n, kernel(a.data, b.data))
    (la, (x,)), (lb, (y,)) = a.integer_form(), b.integer_form()
    out = kernel(x, y)
    g = math.gcd(la * lb, *out)
    if g != 1:
        out = [e // g for e in out]
    return Mat._from_form(m, n, la * lb // g, out)


def _product(a, b, m, k, n):
    """AB for flat row-major matrices (m-by-k times k-by-n), flat.  Entries
    are ints or number-field elements, among which rationals may mix; a sum
    of ANPs started from the int 0 is an ANP."""
    cols = [b[j::n] for j in range(n)]
    return [sum(map(mul, a[i * k:(i + 1) * k], c)) for i in range(m) for c in cols]


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
    """The integer combination sum(c * row) as a flat list of length
    ``size``, for rows given by :func:`_sparse`, skipping zero coefficients;
    ``zero`` is the rows' zero."""
    acc = [zero] * size
    for c, row in zip(coeffs, rows):
        if c:
            for i, x in row:
                acc[i] += c * x
    return acc


def _bareiss(rows):
    """Fraction-free elimination of an integer matrix in place; returns
    (rank, sign of the row swaps).  For a square matrix of full rank the
    last pivot rows[n-1][n-1] times that sign is the determinant."""
    m = len(rows)
    if m == 0:
        return 0, 1
    n = len(rows[0])
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
                ri[j] = (pv * ri[j] - f * pr[j]) // prev
        prev = pv
        r += 1
        if r == m:
            break
    return r, sign


def rref_rows(rows):
    """Reduce rows in place to reduced row echelon form; return pivot columns.

    The engine follows the scalar type: rows of Fractions go through
    :func:`_rref_integer`, and number-field rows are reduced here, one field
    inverse per pivot row.  Either way the rows end as the unique RREF.
    """
    m = len(rows)
    if m == 0 or not rows[0]:
        return []
    if isinstance(rows[0][0], Fraction):
        return _rref_integer(rows)
    n = len(rows[0])
    one = rows[0][0] ** 0
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
        if pv != one:
            inv = one / pv  # one inverse per row: inverses dominate over a number field
            rows[r] = [x * inv for x in rows[r]]
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


def _primitive(row):
    """An integer row divided by the gcd of its entries (zero rows unchanged)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref_integer(rows):
    """:func:`rref_rows` for rational rows: fraction-free Gauss–Jordan.

    The rows are cleared of denominators and every row is kept primitive
    (its entries coprime), so entries stay small.  Eliminating column c from
    row i with pivot row r replaces row i by (pv*row_i − f*row_r) / gcd(pv, f).
    At the end each pivot row is divided by its pivot, which gives the unique
    RREF as Fractions.
    """
    work = [_primitive(r) for r in _clear_denominators(rows)[1]]
    m, n = len(work), len(work[0])
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pr = work[r]
        pv = pr[c]
        for i in range(m):
            f = work[i][c]
            if f and i != r:
                g = math.gcd(pv, f)
                p, q = pv // g, f // g
                work[i] = _primitive([p * x - q * y for x, y in zip(work[i], pr)])
        pivots.append(c)
        r += 1
        if r == m:
            break
    rows[:] = [_fractions(row, row[c]) for row, c in zip(work, pivots)]
    rows += [[_ZERO] * n for _ in range(m - len(pivots))]
    return pivots


def commutator(a, b):
    """AB − BA for square matrices of equal size; over Q in one integer pass
    with the shared denominator L_a L_b."""
    if not (a.is_square and b.is_square and a.rows == b.rows):
        raise ValueError("commutator needs equal square matrices")
    n = a.rows
    return _exact(a, b, n, n, lambda x, y: [e for r in _commutator_rows(x, y, n) for e in r])


class VectorSpan:
    """The span of vectors over an exact field, kept as the RREF rows of
    :func:`rref_rows` and their pivot columns; a vector is a sequence or a
    :class:`Mat`, read row-major."""

    __slots__ = ("length", "rows", "pivots", "_form", "_terms")

    def __init__(self, length, vectors=()):
        self.length = length
        self.rows = [list(v) for v in vectors]
        self.pivots = rref_rows(self.rows)
        del self.rows[len(self.pivots):]
        self._form = self._terms = None

    @property
    def dim(self):
        return len(self.rows)

    def integer_form(self):
        """(L, rows) of a rational span: rows[p] is L times RREF row p as a
        tuple of ints, L the lcm of their denominators; kept until add."""
        if self._form is None:
            scale, rows = _clear_denominators(self.rows)
            self._form = scale, tuple(map(tuple, rows))
        return self._form

    def contains(self, vec):
        """Is vec in the span?  Row p of the RREF is 1 at its own pivot and 0
        at every other pivot, so v is in the span iff v = sum_p v[p] row_p:
        one :func:`_combine` over the rows' nonzero entries, built when first
        needed.  Over Q it runs on the integer form (L, R_p = L row_p) as
        L V == sum_p V[p] R_p, V the vector cleared of denominators (ints as
        they are, a Mat by its kept form); over a number field, R_p = row_p."""
        if isinstance(vec, Mat):
            vec = vec._scaled_data()
        if vec and isinstance(vec[0], Fraction):
            vec = _clear_denominators((vec,))[1][0]
        if self._terms is None:
            rational = not self.rows or isinstance(self.rows[0][0], Fraction)
            scale, rows = self.integer_form() if rational else (1, self.rows)
            self._terms = scale, _sparse(rows)
        scale, terms = self._terms
        coeffs = (-scale, *(vec[p] for p in self.pivots))
        return not any(_combine(_sparse((vec,)) + terms, coeffs, self.length))

    def add(self, vec):
        """Insert a vector; returns True when it enlarged the span.  The RREF
        of a span is unique, so the vector itself joins the rows."""
        if self.contains(vec):
            return False
        self.rows.append(list(vec.data if isinstance(vec, Mat) else vec))
        self.pivots = rref_rows(self.rows)
        self._form = self._terms = None
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
    if not cols:
        raise ValueError("mat_from_columns needs at least one column")
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("ragged columns")
    return Mat(n, len(cols), tuple(cols[j][i] for i in range(n) for j in range(len(cols))))


def adapted_basis(vectors, n):
    """(P, P^{-1}) from one reduction of [v_1 ... v_k | I]: P extends independent
    length-n vectors by the e_i that raise the rank of the columns before
    them.  Raises SingularMatrixError when the vectors are dependent."""
    vectors = [tuple(map(as_scalar, v)) for v in vectors]
    k = len(vectors)
    one = _one_like(vectors[0][0]) if vectors else _ONE
    zero = _zero_like(one)
    aug = [[*(v[i] for v in vectors), *(one if j == i else zero for j in range(n))]
           for i in range(n)]
    pivots = rref_rows(aug)
    if pivots[:k] != list(range(k)):
        raise SingularMatrixError("matrix is singular")
    cols = vectors + [tuple(one if j == c - k else zero for j in range(n)) for c in pivots[k:]]
    return (Mat(n, n, tuple(c[i] for i in range(n) for c in cols)),
            Mat(n, n, [x for r in aug for x in r[k:]]))


def block_diag(a, b):
    """The square matrix with square blocks a and b on its diagonal; the
    zero blocks take their zero from b's field (an empty b leaves none)."""
    zero = _zero_like(b.data[0]) if b.data else _ZERO
    rows = [list(a.row(i)) + [zero] * b.cols for i in range(a.rows)]
    rows += [[zero] * a.cols + list(b.row(i)) for i in range(b.rows)]
    n = a.rows + b.rows
    return Mat(n, n, [x for r in rows for x in r])


def charpoly_discriminant(m):
    """Discriminant of the characteristic polynomial, computed by sympy;
    nonzero iff the matrix has n distinct complex eigenvalues.  Rational mode
    only."""
    if not m._is_rational():
        raise ValueError("discriminant is defined in rational mode only")
    from sympy import QQ
    from sympy.polys.euclidtools import dup_discriminant
    d = dup_discriminant([QQ(c.numerator, c.denominator) for c in reversed(m.charpoly())], QQ)
    return Fraction(int(d.numerator), int(d.denominator))


def probe_members(mats, rng, bound, count):
    """The members of span(mats) that a sampled check probes: each of
    ``mats``, then ``count`` integer combinations with coefficients uniform
    in [-bound, bound], an all-zero draw skipped.

    Every coefficient is drawn from rng by this call, before the first
    member is returned, so rng's state afterwards does not depend on how
    many members the caller uses.  The members are stripped to their
    nonzero entries only when the first combination is needed.
    """
    draws = [cs for cs in ([rng.randint(-bound, bound) for _ in mats] for _ in range(count))
             if any(cs)]

    def combos():
        rows, cols = mats[0].rows, mats[0].cols
        terms, zero = _sparse(m.data for m in mats), _zero_like(mats[0].data[0])
        for cs in draws:
            yield Mat(rows, cols, _combine(terms, cs, rows * cols, zero))

    return chain(mats, combos() if draws else ())


def random_matrix(rows, cols, entry_bound, seed):
    """Integer matrix with entries uniform in [-entry_bound, entry_bound],
    drawn from a generator seeded by ``seed`` (deterministic per seed)."""
    if entry_bound < 0:
        raise ValueError("entry_bound must be >= 0")
    rng = random.Random(seed)
    data = [Fraction(rng.randint(-entry_bound, entry_bound))
            for _ in range(rows * cols)]
    return Mat(rows, cols, data)
