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

Field elements are sympy ``ANP`` values: polynomials in theta reduced modulo
m, the only scalar type over an extension.  sympy is imported when first
needed, and the sympy domain ``QQ.alg_field_from_poly(m)`` of a field is
built only when a polynomial must be factored over it.  Polynomials passed
in and out are little-endian sequences of coefficients.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "NumberField",
    "ExtensionLimitError",
    "irreducible_factors",
    "adjoin_root",
]


class ExtensionLimitError(NotImplementedError):
    """An eigenvalue would need a number field of degree over Q past the cap
    of :mod:`crlab.triangularize` (24, the largest splitting degree of a
    quartic)."""


def _qq(q):
    from sympy import QQ
    q = Fraction(q)
    return QQ(q.numerator, q.denominator)


def _fraction(c):
    return Fraction(int(c.numerator), int(c.denominator))


def _anp(rep, mod):
    """The ANP with big-endian rational coefficients ``rep`` modulo ``mod``."""
    from sympy import QQ
    from sympy.polys.polyclasses import ANP
    return ANP(rep, mod, QQ)


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
        self._mod = [_qq(c) for c in reversed(self.minpoly)]
        self._domain = None

    @property
    def degree(self):
        return len(self.minpoly) - 1

    def element(self, coeffs):
        """sum(coeffs[i] * theta**i) for at most ``degree`` rationals."""
        if len(coeffs) > self.degree:
            raise ValueError("more coefficients than the degree")
        return _anp([_qq(c) for c in reversed(coeffs)], self._mod)

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
        from .linalg import Mat
        return Mat(m.rows, m.cols, tuple(self.embed(x) for x in m.data))

    @property
    def domain(self):
        """sympy's QQ<theta>.  Its modulus may be a rational multiple of
        ``minpoly``, so elements cross with :meth:`to_domain` and
        :meth:`from_domain`."""
        if self._domain is None:
            from sympy import QQ, Dummy, Poly
            self._domain = QQ.alg_field_from_poly(Poly(self._mod, Dummy("x"), domain=QQ))
        return self._domain

    def to_domain(self, x):
        return _anp(x.to_list(), self.domain.mod)

    def from_domain(self, x):
        return _anp(x.to_list(), self._mod)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField(minpoly={[str(c) for c in self.minpoly]})"


def _poly(coeffs, field, gen):
    """sympy Poly in ``gen`` over Q (``field=None``) or over the field."""
    from sympy import QQ, Poly
    if field is None:
        return Poly([_qq(c) for c in reversed(coeffs)], gen, domain=QQ)
    return Poly([field.to_domain(field.embed(c)) for c in reversed(coeffs)], gen,
                domain=field.domain)


def irreducible_factors(coeffs, field=None):
    """Monic irreducible factors with multiplicities over Q (``field=None``)
    or over a number field, sorted by degree.  Over Q the linear factors
    x - r come by increasing r."""
    from sympy import Dummy
    poly = _poly(coeffs, field, Dummy("x"))
    if poly.degree() < 1:
        raise ValueError("constant polynomial")
    convert = _fraction if field is None else field.from_domain
    out = [(tuple(map(convert, f.monic().rep.to_list()[::-1])), int(mult))
           for f, mult in poly.factor_list()[1]]
    if field is None:
        out.sort(key=lambda fm: (len(fm[0]), [-c for c in fm[0]]))
    else:
        out.sort(key=lambda fm: len(fm[0]))
    return out


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
    x, y = Dummy("x"), Dummy("y")
    (s,), _, norm = _poly(g, field, x).sqf_norm()  # sympy >= 1.14: one shift per generator
    big = NumberField([_fraction(c) for c in reversed(norm.rep.to_list())], field)
    dom = big.domain
    shifted = Poly([-s, dom.unit], y, domain=dom)  # beta - s*y
    h = Poly(0, y, domain=dom)
    for c in reversed(g):
        h = h * shifted + Poly(c.to_list(), y, domain=dom)
    lead, tail = Poly(field._mod, y, domain=dom).gcd(h).rep.to_list()
    big.parent_theta = big.from_domain(-tail / lead)
    return big, big.theta() - big.parent_theta * s
