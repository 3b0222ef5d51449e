"""Linear spaces of matrices in a canonical reduced-row-echelon basis.

A space is stored as the RREF basis of its members' row-major vectorizations,
so two equal spaces have bit-identical stored bases and equality is a tuple
comparison.  Spaces are usually square (ambient n-by-n); rectangular spaces
are allowed so rank-bounded spaces of m-by-n matrices fit the same machinery,
and the square-only predicates guard themselves.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Mat, VectorSpan, _clear_denominators

__all__ = ["MatrixSubspace", "span", "zero_space", "full_space"]


class MatrixSubspace:
    __slots__ = ("rows", "cols", "basis", "_span")

    def __init__(self, rows, cols, vspan, _canonical=False):
        if not _canonical:
            raise TypeError("use span() / MatrixSubspace.span to build spaces")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "basis", tuple(Mat(rows, cols, v) for v in vspan.rows))
        object.__setattr__(self, "_span", vspan)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixSubspace is immutable")

    @classmethod
    def span(cls, mats, rows=None, cols=None):
        mats = list(mats)
        if mats:
            rows = mats[0].rows if rows is None else rows
            cols = mats[0].cols if cols is None else cols
        if rows is None or cols is None:
            raise ValueError("empty span needs explicit dimensions")
        for m in mats:
            if m.rows != rows or m.cols != cols:
                raise ValueError("generators have mismatched shapes")
        return cls(rows, cols, VectorSpan(rows * cols, (m.data for m in mats)),
                   _canonical=True)

    # -- basic queries -------------------------------------------------------

    @property
    def n(self):
        if self.rows != self.cols:
            raise ValueError("rectangular space has no single ambient side")
        return self.rows

    @property
    def dim(self):
        return len(self.basis)

    @property
    def is_square(self):
        return self.rows == self.cols

    def integer_basis(self):
        """(L, rows): L is the lcm of the basis denominators and rows[p] is
        L times the p-th canonical basis element as a flat list of ints."""
        return _clear_denominators([b.data for b in self.basis])

    def contains(self, m):
        if m.rows != self.rows or m.cols != self.cols:
            raise ValueError("ambient mismatch")
        return self._span.contains(m.data)

    def __contains__(self, m):
        return self.contains(m)

    # -- constructions of new spaces ------------------------------------------

    def conjugate(self, p):
        """The space P V P^{-1}; requires invertible P."""
        pinv = p.inverse()  # raises SingularMatrixError when singular
        return MatrixSubspace.span([p @ b @ pinv for b in self.basis],
                                   self.rows, self.cols)

    def transpose_space(self):
        return MatrixSubspace.span([b.transpose() for b in self.basis],
                                   self.cols, self.rows)

    def sum(self, other):
        self._check_ambient(other)
        return MatrixSubspace.span(list(self.basis) + list(other.basis),
                                   self.rows, self.cols)

    def intersect(self, other):
        self._check_ambient(other)
        if not self.basis or not other.basis:
            return zero_space(self.rows, self.cols)
        # kernel of [B_V^T | -B_W^T]: coefficient pairs with equal combinations
        dv, dw = self.dim, other.dim
        amb = self.rows * self.cols
        rows = []
        for r in range(amb):
            rows.append([self.basis[i].data[r] for i in range(dv)]
                        + [-other.basis[j].data[r] for j in range(dw)])
        ker = Mat(amb, dv + dw, [x for row in rows for x in row]).kernel_basis()
        mats = []
        for v in ker:
            coeffs = v.data[:dv]
            acc = Mat.zero(self.rows, self.cols)
            for c, b in zip(coeffs, self.basis):
                if c:
                    acc = acc + b * c
            mats.append(acc)
        return MatrixSubspace.span(mats, self.rows, self.cols)

    def with_identity(self):
        """Adjoin the identity (no-op when already present)."""
        return MatrixSubspace.span(list(self.basis) + [Mat.identity(self.n)])

    def _check_ambient(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("ambient mismatch")

    # -- algebraic predicates --------------------------------------------------

    def is_algebra(self):
        """Closed under products?  Checking basis pairs suffices by bilinearity.

        Over the integer rows B_p = L b_p, a product P = B_i B_j lies in the
        space iff L P == sum_p P[pivot_p] B_p, because every canonical basis
        element is 1 at its own pivot and 0 at the others.
        """
        if not self.is_square:
            raise ValueError("square spaces only")
        n = self.n
        scale, rows = self.integer_basis()
        pivots = self._span.pivots
        for a in rows:
            for b in rows:
                prod = []
                for i in range(0, n * n, n):
                    row = [0] * n
                    for t, x in enumerate(a[i:i + n]):
                        if x:
                            row = [r + x * y for r, y in zip(row, b[t * n:t * n + n])]
                    prod += row
                resid = [scale * x for x in prod]
                for r, p in zip(rows, pivots):
                    f = prod[p]
                    if f:
                        resid = [x - f * y for x, y in zip(resid, r)]
                if any(resid):
                    return False
        return True

    # -- sampling ---------------------------------------------------------------

    def random_element(self, rng, entry_bound):
        """Integer-coefficient combination of the basis drawn from rng."""
        acc = [Fraction(0)] * (self.rows * self.cols)
        for b in self.basis:
            c = rng.randint(-entry_bound, entry_bound)
            if c:
                for i, x in enumerate(b.data):
                    if x:
                        acc[i] += x * c
        return Mat(self.rows, self.cols, acc)

    # -- comparison ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MatrixSubspace):
            return NotImplemented
        return (self.rows, self.cols, self.basis) == (other.rows, other.cols, other.basis)

    def __hash__(self):
        return hash((self.rows, self.cols, self.basis))

    def __le__(self, other):
        self._check_ambient(other)
        return all(other.contains(b) for b in self.basis)

    def __repr__(self):
        return f"MatrixSubspace(dim={self.dim}, ambient={self.rows}x{self.cols})"


def span(mats, rows=None, cols=None):
    return MatrixSubspace.span(mats, rows, cols)


def zero_space(rows, cols=None):
    cols = rows if cols is None else cols
    return MatrixSubspace.span([], rows, cols)


def full_space(n):
    return MatrixSubspace.span([Mat.unit(n, i, j) for i in range(n) for j in range(n)])
