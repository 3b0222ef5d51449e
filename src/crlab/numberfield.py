"""Exact arithmetic in one simple algebraic extension Q(theta) = Q[x]/(f).

The triangularization pipeline stays rational whenever a characteristic
polynomial has a rational root; when none exists it adjoins a single root of
one irreducible factor and continues in the quotient ring.  One extension
level is supported (the acceptance corpus never needs any; dedicated tests
exercise degree-2 extensions such as Q(i) and Q(sqrt 2)).

Polynomials are little-endian tuples of Fractions.  Factorization over Q is
delegated to sympy; everything else is hand-rolled.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "NumberField",
    "AlgebraicNumber",
    "ExtensionLimitError",
    "rational_roots",
    "irreducible_factors",
    "roots_in_field",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExtensionLimitError(NotImplementedError):
    """Root finding would need a second extension (or an unsupported degree)."""


# -- dense polynomial helpers over Fraction tuples -------------------------

def _trim(p):
    while p and not p[-1]:
        p = p[:-1]
    return p


def poly_add(p, q):
    n = max(len(p), len(q))
    p = p + (_ZERO,) * (n - len(p))
    q = q + (_ZERO,) * (n - len(q))
    return _trim(tuple(a + b for a, b in zip(p, q)))


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return _trim(tuple(out))


def poly_divmod(p, q):
    q = _trim(tuple(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quot = [_ZERO] * max(0, len(rem) - dq)
    while len(_trim(tuple(rem))) - 1 >= dq and _trim(tuple(rem)):
        rem = list(_trim(tuple(rem)))
        if len(rem) - 1 < dq:
            break
        c = rem[-1] / lead
        k = len(rem) - 1 - dq
        quot[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem = rem[:-1]
    return _trim(tuple(quot)), _trim(tuple(rem))


def poly_eval(p, x):
    acc = None
    for c in reversed(p):
        acc = c if acc is None else acc * x + c
    return acc if acc is not None else _ZERO


class NumberField:
    """Q(theta) for theta a root of a monic irreducible polynomial (deg >= 2)."""

    __slots__ = ("minpoly",)

    def __init__(self, minpoly):
        minpoly = _trim(tuple(Fraction(c) for c in minpoly))
        if len(minpoly) < 3:
            raise ValueError("extension degree must be at least 2")
        if minpoly[-1] != 1:
            minpoly = tuple(c / minpoly[-1] for c in minpoly)
        self.minpoly = minpoly

    @property
    def degree(self):
        return len(self.minpoly) - 1

    def element(self, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) >= len(self.minpoly):
            _, coeffs = poly_divmod(coeffs, self.minpoly)
        coeffs = coeffs + (_ZERO,) * (self.degree - len(coeffs))
        return AlgebraicNumber(self, coeffs)

    def zero(self):
        return self.element(())

    def one(self):
        return self.element((_ONE,))

    def theta(self):
        return self.element((_ZERO, _ONE))

    def from_rational(self, q):
        return self.element((Fraction(q),))

    def embed_matrix(self, m):
        from .linalg import Mat
        return Mat(m.rows, m.cols, tuple(self.from_rational(x) for x in m.data))

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField(minpoly={[str(c) for c in self.minpoly]})"


class AlgebraicNumber:
    """Element of a NumberField, stored as a reduced polynomial in theta."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            if other.field != self.field:
                raise ValueError("mixed number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field.element(poly_add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field.element(poly_mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in Q[x]: a*self + b*minpoly = gcd = constant
        r0, r1 = _trim(self.field.minpoly), _trim(self.coeffs)
        s0, s1 = (), (_ONE,)
        while r1:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_add(s0, tuple(-c for c in poly_mul(q, s1)))
        if len(r0) != 1:
            raise ZeroDivisionError("non-invertible element (reducible modulus?)")
        inv_c = _ONE / r0[0]
        return self.field.element(tuple(c * inv_c for c in s0))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def is_rational(self):
        return not any(self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not rational")
        return self.coeffs[0] if self.coeffs else _ZERO

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(str(c) if i == 0 else f"{c}*t^{i}" if i > 1 else f"{c}*t")
        return " + ".join(terms) if terms else "0"


# -- factorization over Q (sympy) and root finding --------------------------

def _to_sympy_poly(coeffs):
    import sympy
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(coeffs))
    return sympy.Poly(expr, x, domain="QQ")


def _from_sympy_poly(poly):
    cs = list(reversed(poly.all_coeffs()))
    return _trim(tuple(Fraction(c.p, c.q) for c in cs))


def irreducible_factors(coeffs):
    """Monic irreducible factors over Q with multiplicities."""
    coeffs = _trim(tuple(Fraction(c) for c in coeffs))
    if len(coeffs) <= 1:
        raise ValueError("constant polynomial")
    _, factors = _to_sympy_poly(coeffs).factor_list()
    out = []
    for f, mult in factors:
        fc = _from_sympy_poly(f)
        fc = tuple(c / fc[-1] for c in fc)
        out.append((fc, int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def rational_roots(coeffs):
    """Rational roots (each listed once), sorted."""
    roots = []
    for f, _ in irreducible_factors(coeffs):
        if len(f) == 2:
            roots.append(-f[0] / f[1])
    return sorted(roots)


def rational_sqrt(q):
    """Exact square root of a nonnegative Fraction, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    a = math.isqrt(q.numerator)
    b = math.isqrt(q.denominator)
    if a * a == q.numerator and b * b == q.denominator:
        return Fraction(a, b)
    return None


def sqrt_in_field(d, field):
    """Square root of d in Q(theta), or None.  Complete for degree-2 fields."""
    if field.degree != 2:
        if d.is_rational():
            r = rational_sqrt(d.rational_value())
            return None if r is None else field.from_rational(r)
        return None
    # theta^2 = -f1*theta - f0; solve (s0 + s1*theta)^2 = d0 + d1*theta exactly
    f0, f1 = field.minpoly[0], field.minpoly[1]
    d0, d1 = d.coeffs[0], d.coeffs[1]
    candidates = []
    if d1 == 0:
        r = rational_sqrt(d0)
        if r is not None:
            candidates.append((r, _ZERO))
        q = f1 * f1 / 4 - f0
        if q:
            s1sq = d0 / q
            s1 = rational_sqrt(s1sq)
            if s1 is not None:
                candidates.append((f1 * s1 / 2, s1))
    else:
        # eliminate s0: (f1^2 - 4 f0) u^2 + (2 d1 f1 - 4 d0) u + d1^2 = 0, u = s1^2
        A = f1 * f1 - 4 * f0
        B = 2 * d1 * f1 - 4 * d0
        C = d1 * d1
        for u in _rational_quadratic_roots(A, B, C):
            if u <= 0:
                continue
            s1 = rational_sqrt(u)
            if s1 is None:
                continue
            for s1s in (s1, -s1):
                s0 = (d1 / s1s + f1 * s1s) / 2
                candidates.append((s0, s1s))
    for s0, s1 in candidates:
        s = field.element((s0, s1))
        if s * s == d:
            return s
    return None


def _rational_quadratic_roots(a, b, c):
    if not a:
        return [] if not b else [-Fraction(c) / b]
    disc = Fraction(b) * b - 4 * Fraction(a) * c
    r = rational_sqrt(disc)
    if r is None:
        return []
    return [(-b + r) / (2 * a), (-b - r) / (2 * a)]


def roots_in_field(coeffs, field=None):
    """Roots of a polynomial that lie in the working field.

    ``field=None`` means Q (complete, via exact factorization).  Over a
    number field the search covers: rational roots of rational-coefficient
    polynomials, theta itself (with deflation), and quadratics via an exact
    in-field square root.  Raises ExtensionLimitError when the polynomial may
    have roots the search cannot reach.
    """
    if field is None:
        return rational_roots(coeffs)
    coeffs = tuple(field.from_rational(c) if isinstance(c, (int, Fraction)) else c
                   for c in coeffs)
    roots = []
    work = _trim(coeffs)
    # peel off known elements first: theta, then rational roots if the
    # remaining coefficients are all rational
    progress = True
    while progress and len(work) > 1:
        progress = False
        for cand in _field_candidates(work, field):
            if poly_eval(work, cand) == field.zero():
                roots.append(cand)
                work = _deflate(work, cand, field)
                progress = True
                break
    if len(work) - 1 >= 3:
        raise ExtensionLimitError(
            "root search over an extension is limited to degree <= 2 residuals")
    if len(work) - 1 == 2:
        b = work[1] / work[2]
        c = work[0] / work[2]
        disc = b * b - 4 * c
        s = sqrt_in_field(disc, field)
        if s is not None:
            half = Fraction(1, 2)
            roots.append((-b + s) * half)
            roots.append((-b - s) * half)
    elif len(work) - 1 == 1:
        roots.append(-work[0] / work[1])
    return roots


def _deflate(coeffs, root, field):
    """Divide by (x - root) over the field (root must be exact)."""
    n = len(coeffs) - 1
    out = [field.zero()] * n
    acc = field.zero()
    for i in range(n - 1, -1, -1):
        acc = coeffs[i + 1] + root * acc
        out[i] = acc
    return _trim(tuple(out))


def _field_candidates(coeffs, field):
    yield field.theta()
    yield -field.theta()
    if all(c.is_rational() for c in coeffs):
        rat = _trim(tuple(c.rational_value() for c in coeffs))
        if len(rat) > 1:
            for r in rational_roots(rat):
                yield field.from_rational(r)
