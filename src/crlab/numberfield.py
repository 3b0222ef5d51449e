"""Exact eigenvalues in algebraic number fields: towers over Q collapsed to
one primitive element.

The triangularization pipeline stays rational while some characteristic
polynomial has a rational root.  When none has, it adjoins a root of an
irreducible factor and works in a simple extension Q(theta) = Q[x]/(m), m the
monic minimal polynomial of theta.  A root that is needed over Q(theta) and
does not lie in it gives a tower Q(theta)(alpha), alpha a root of an
irreducible g over Q(theta).  The tower is collapsed to one primitive element
by Trager's norm method ("Algebraic factoring and rational function
integration", 1976):

- choose a shift s for which the norm r of g(x - s*theta) is squarefree;
  then r is irreducible over Q (Trager's lemma) and beta = alpha + s*theta
  is a root of r, so Q(theta, alpha) = Q(beta) = Q[x]/(r);
- theta is the one common root in Q(beta) of m(y) and g(beta - s*y), the
  coefficients of g read as polynomials in y; so theta is the root of their
  (linear) gcd over Q(beta), and alpha = beta - s*theta.

The new field keeps the old one and the image of its theta, through which
matrices over any earlier field of the tower embed.

Field elements are sympy ``ANP`` values modulo L*m, L the lcm of the
denominators of m: the primitive modulus of sympy's domain
``QQ.alg_field_from_poly(m)``, which is built only when a polynomial must be
factored over the field.  Only this module builds or reads sympy's
polynomials, importing sympy when first needed; polynomials pass in and out
as little-endian coefficient sequences, elements by :func:`coefficients`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import Mat

__all__ = [
    "NumberField",
    "ExtensionLimitError",
    "coefficients",
    "irreducible_factors",
    "adjoin_root",
]


class ExtensionLimitError(NotImplementedError):
    """An eigenvalue would need a number field of degree over Q past the cap
    of :mod:`crlab.triangularize` (24, the largest splitting degree of a
    quartic)."""


def _qq(q):
    from sympy import QQ
    return QQ(q.numerator, q.denominator)


def _fraction(c):
    return Fraction(int(c.numerator), int(c.denominator))


def coefficients(x):
    """The rational coefficients of a field element in powers of theta,
    little-endian and padded to the degree."""
    cs = [_fraction(c) for c in reversed(x.to_list())]
    return cs + [Fraction(0)] * (len(x.mod) - 1 - len(cs))


class NumberField:
    """Q(theta) for theta a root of a monic irreducible polynomial of degree
    at least 2.

    A field made by :func:`adjoin_root` over an earlier field K keeps K as
    ``parent`` and the image of K's theta in it as ``parent_theta``.
    """

    __slots__ = ("minpoly", "parent", "parent_theta", "_mod", "_domain")

    def __init__(self, minpoly, parent=None):
        minpoly = tuple(Fraction(c) for c in minpoly)
        if len(minpoly) < 3 or not minpoly[-1]:
            raise ValueError("extension degree must be at least 2")
        self.minpoly = tuple(c / minpoly[-1] for c in minpoly)
        self.parent = parent
        self.parent_theta = None
        lcm = math.lcm(*(c.denominator for c in self.minpoly))
        self._mod = [_qq(c * lcm) for c in reversed(self.minpoly)]
        self._domain = None

    @property
    def degree(self):
        return len(self.minpoly) - 1

    def element(self, coeffs):
        """sum(coeffs[i] * theta**i) for at most ``degree`` rationals."""
        if len(coeffs) > self.degree:
            raise ValueError("more coefficients than the degree")
        from sympy import QQ
        from sympy.polys.polyclasses import ANP
        return ANP([_qq(c) for c in reversed(coeffs)], self._mod, QQ)

    def zero(self):
        return self.element(())

    def one(self):
        return self.element((1,))

    def theta(self):
        return self.element((0, 1))

    def from_rational(self, q):
        return self.element((q,))

    def embed(self, x):
        """x in Q, in this field or in an earlier field of its tower, as an
        element of this field."""
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x)
        if x.mod == self._mod:
            return x
        acc = self.zero()
        for c in self.parent.embed(x).to_list():
            acc = acc * self.parent_theta + c
        return acc

    def embed_matrix(self, m):
        return Mat.from_scaled(m.rows, m.cols, m.scale, [self.embed(x) for x in m.entries])

    @property
    def domain(self):
        """sympy's QQ<theta>, whose elements are this field's."""
        if self._domain is None:
            from sympy import QQ, Dummy, Poly
            domain = QQ.alg_field_from_poly(Poly(self._mod, Dummy("x"), domain=QQ))
            if domain.mod.to_list() != self._mod:
                raise ValueError(f"sympy's modulus for {self!r} is not {self._mod}")
            self._domain = domain
        return self._domain

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField(minpoly={[str(c) for c in self.minpoly]})"


def _poly(coeffs, field):
    """sympy Poly in a fresh variable over Q (``field=None``) or over the field."""
    from sympy import QQ, Dummy, Poly
    if field is None:
        return Poly([_qq(c) for c in reversed(coeffs)], Dummy("x"), domain=QQ)
    return Poly([field.embed(c) for c in reversed(coeffs)], Dummy("x"), domain=field.domain)


def irreducible_factors(coeffs, field=None):
    """Monic irreducible factors with multiplicities over Q (``field=None``)
    or over a number field, sorted by degree.  Over Q the linear factors
    x - r come by increasing r."""
    poly = _poly(coeffs, field)
    if poly.degree() < 1:
        raise ValueError("constant polynomial")
    out = [(tuple(f.monic().rep.to_list()[::-1]), int(mult)) for f, mult in poly.factor_list()[1]]
    if field is None:  # x - r by increasing r, as the sort by degree below is stable
        out = sorted(((tuple(map(_fraction, f)), m) for f, m in out), reverse=True)
    return sorted(out, key=lambda fm: len(fm[0]))


def adjoin_root(g, field=None):
    """(L, alpha): a number field L that holds ``field`` (None is Q) and a
    root alpha in L of g, a monic irreducible polynomial of degree >= 2 over
    ``field``.  Over a number field, L = Q(beta) for the primitive element
    beta of the tower given by Trager's norm (see the module docstring)."""
    if field is None:
        big = NumberField(g)
        return big, big.theta()
    from sympy import Dummy, Poly
    g = [field.embed(c) for c in g]
    y = Dummy("y")
    (s,), _, norm = _poly(g, field).sqf_norm()  # sympy >= 1.14: one shift per generator
    big = NumberField([_fraction(c) for c in reversed(norm.rep.to_list())], field)
    dom = big.domain
    shifted = Poly([-s, dom.unit], y, domain=dom)  # beta - s*y
    h = Poly(0, y, domain=dom)
    for c in reversed(g):
        h = h * shifted + Poly(c.to_list(), y, domain=dom)
    lead, tail = Poly(field._mod, y, domain=dom).gcd(h).rep.to_list()
    big.parent_theta = -tail / lead
    return big, big.theta() - big.parent_theta * s

