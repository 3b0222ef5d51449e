"""Linear spaces of matrices in a canonical reduced-row-echelon basis.

A space is stored as the RREF basis of its members' row-major vectorizations,
so two equal spaces have bit-identical stored bases and equality is a tuple
comparison.  Spaces are usually square (ambient n-by-n); rectangular spaces
are allowed so rank-bounded spaces of m-by-n matrices fit the same machinery,
and the square-only predicates guard themselves.
"""

from __future__ import annotations

from .linalg import Mat, VectorSpan, _combine, _sparse

__all__ = ["MatrixSubspace", "span", "zero_space", "full_space"]


class MatrixSubspace:
    __slots__ = ("rows", "cols", "basis", "_span")

    def __init__(self, rows, cols, vspan, _canonical=False):
        if not _canonical:
            raise TypeError("use span() / MatrixSubspace.span to build spaces")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "basis", tuple(vspan.members(rows, cols)))
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
        if rows < 0 or cols < 0:
            raise ValueError("matrix sizes must be >= 0")
        for m in mats:
            if m.rows != rows or m.cols != cols:
                raise ValueError("generators have mismatched shapes")
        return cls(rows, cols, VectorSpan(rows * cols, mats), _canonical=True)

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
        L times the p-th canonical basis element as a flat tuple of ints; the
        form of the space's span, kept since the space never changes."""
        return self._span.scale, self._span.entries

    def contains(self, m):
        if m.rows != self.rows or m.cols != self.cols:
            raise ValueError("ambient mismatch")
        return self._span.contains(m)

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

    def _check_ambient(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("ambient mismatch")

    # -- algebraic predicates --------------------------------------------------

    def is_algebra(self):
        """Closed under products?  Checking basis pairs suffices by bilinearity."""
        if not self.is_square:
            raise ValueError("square spaces only")
        return all(self.contains(a @ b) for a in self.basis for b in self.basis)

    # -- sampling ---------------------------------------------------------------

    def random_element(self, rng, entry_bound):
        """Integer combination of the basis, one draw from rng per basis element."""
        scale, rows = self.integer_basis()
        coeffs = [rng.randint(-entry_bound, entry_bound) for _ in rows]
        size = self.rows * self.cols
        return Mat.from_scaled(self.rows, self.cols, scale,
                               _combine(_sparse(rows), coeffs, size))

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
