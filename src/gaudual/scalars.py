"""Exact rational scalars, and the term dict of the Weyl and Grassmann rings.

All ground constants (marked points, frequencies, the parameter mu) are
`fractions.Fraction` values; nothing in the package touches floats.
Coefficient dicts keep a coefficient as `int` when integral and as
`Fraction` otherwise (`TermDict`, `MultiPoly`).
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction


def rat(value) -> Fraction:
    """Coerce ints, strings like ``"-3/2"``, or Fractions to a Fraction; a
    string with a zero denominator raises ValueError, and a bool (an int to
    Python, but a JSON true or false is no rational) raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class TermDict:
    """Ring element as a map from monomials to nonzero coefficients, with the
    arithmetic the Weyl and Grassmann algebras share.  A subclass gives its
    empty monomial ``ONE``, the commutative ``SCALARS`` an element may be
    added to, compared with and multiplied by, and ``_mono_mul(k1, k2)``:
    the product of two monomials as ``((key, weight), ...)``, empty when it
    is zero.  A product multiplies two coefficients only once their
    monomials' product is known not to be zero.

    Zero coefficients are dropped and integral Fractions stored as ints;
    other coefficients (ints, MultiPolys) are kept as they are.  ``_memo``
    holds one value a subclass derives from ``terms`` when first asked and
    never invalidates, so ``terms`` must not change after construction."""

    __slots__ = ("terms", "_memo")

    def __init__(self, terms: dict):
        values = terms.values()
        if Fraction in set(map(type, values)):
            terms = {k: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                     for k, c in terms.items() if c}
        else:
            terms = dict(terms) if all(values) else {k: c for k, c in terms.items() if c}
        self.terms = terms
        self._memo = None

    @classmethod
    def const(cls, c):
        return cls({cls.ONE: c})

    @classmethod
    def zero(cls):
        return cls({})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            if not isinstance(other, self.SCALARS):
                return NotImplemented
            other = self.const(other)
        terms = dict(self.terms)
        get = terms.get
        for k, c in other.terms.items():
            terms[k] = get(k, 0) + c
        return type(self)(terms)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            if not isinstance(other, self.SCALARS):
                return NotImplemented
            other = self.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        cls = type(self)
        if not isinstance(other, cls):
            if not isinstance(other, self.SCALARS):
                return NotImplemented
            return cls({k: c * other for k, c in self.terms.items()})
        return self._product(other, self._mono_mul)

    def _product(self, other, mono_mul):
        """The sum over term pairs of c1 c2 mono_mul(k1, k2), for a hook
        shaped like ``_mono_mul``: with ``_mono_mul`` the product, with
        ``GrassmannAlgebra._bracket_mono`` the graded bracket."""
        cls = type(self)
        terms: dict = {}
        get = terms.get
        right = other.terms.items()
        for k1, c1 in self.terms.items():
            for k2, c2 in right:
                product = mono_mul(k1, k2)
                if product:
                    c = c1 * c2
                    for key, w in product:
                        terms[key] = get(key, 0) + c * w
        return cls(terms)

    def __rmul__(self, other):
        # scalars commute with every element
        if isinstance(other, self.SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        out = self.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            if not isinstance(other, self.SCALARS):
                return NotImplemented
            other = self.const(other)
        return self.terms == other.terms

    __hash__ = None

    def num_terms(self) -> int:
        return len(self.terms)
