"""Exterior algebra on canonically paired Grassmann generators.

Generators psi^a_i and pi^a_i (a = 1..M, i = 1..N) are numbered in a fixed
global order: all psi's first (lexicographic in (a, i)), then all pi's.
A monomial is a bitmask over the 2MN generators, stored strictly
increasing; products track the permutation sign (``wedge_masks``, the ring
hook of ``GrassmannElement``, which takes its arithmetic from
``scalars.TermDict``).

Coefficients are commutative scalars: `int` when integral and `Fraction`
otherwise (the `MultiPoly` convention; `repr` does not depend on which), or
`MultiPoly`, so even elements with polynomial data in spectral parameters
can share the same container.

The graded bracket of two monomials has a direct formula.  For each
generator g of u, the i-th of its k generators, whose partner h is the
j-th generator of v, move g to the right end of u and h to the left end
of v, and contract them with {g, h} = 1:

    [u, v] = sum (-1)^(k - i + j - 1) (u / g) ^ (v / h).

Every term contracts a generator of u with its partner in v.  An
element's support (``GrassmannAlgebra.support``) is the set of letters
``(index mod MN, kind)`` it uses, kind 0 for psi and 1 for pi, so
``[a, b] = 0`` unless some letter of a has its conjugate
``(index, 1 - kind)``, its partner, in the support of b.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from operator import or_

from .errors import InhomogeneousInput
from .multipoly import MultiPoly
from .scalars import TermDict


def wedge_masks(m1: int, m2: int) -> tuple:
    """The product of two monomial masks as ((mask, sign),), or () if it is
    zero."""
    if m1 & m2:
        return ()
    inversions = 0
    m = m2
    while m:
        low = m & -m
        inversions += (m1 >> low.bit_length()).bit_count()
        m ^= low
    return ((m1 | m2, -1 if inversions & 1 else 1),)


class GrassmannElement(TermDict):
    """Element of the exterior algebra, a map from monomial masks to nonzero
    coefficients; its memo is the parity."""

    __slots__ = ()

    ONE = 0
    SCALARS = (int, Fraction, MultiPoly)
    _mono_mul = staticmethod(wedge_masks)
    # bench/tracer.py wraps these by name in the class's own namespace
    __add__ = __radd__ = TermDict.__add__
    __sub__, __neg__ = TermDict.__sub__, TermDict.__neg__
    __mul__, __rmul__, __eq__ = TermDict.__mul__, TermDict.__rmul__, TermDict.__eq__

    @staticmethod
    @cache
    def generator(index: int) -> GrassmannElement:
        """The generator numbered index, built once: elements are never
        changed in place."""
        return GrassmannElement({1 << index: 1})

    def parity(self) -> int:
        """0 for even, 1 for odd, kept after the first call; raises
        InhomogeneousInput when mixed, on every call, since no parity is kept."""
        parity = self._memo
        if parity is None:
            parities = {m.bit_count() & 1 for m in self.terms} or {0}
            if len(parities) > 1:
                raise InhomogeneousInput("element mixes even and odd parts")
            parity = self._memo = parities.pop()
        return parity

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            gens = []
            i = 0
            mm = m
            while mm:
                if mm & 1:
                    gens.append(f"g{i}")
                mm >>= 1
                i += 1
            mono = "^".join(gens)
            bits.append(f"{c}" if not mono else f"({c})*{mono}")
        return " + ".join(bits)


class GrassmannAlgebra:
    """Context for the pairing psi^a_i <-> pi^a_i and the graded bracket."""

    def __init__(self, M: int, N: int):
        self.M = M
        self.N = N

    def _index(self, a: int, i: int) -> int:
        if not (1 <= a <= self.M and 1 <= i <= self.N):
            raise IndexError(f"generator index ({a},{i}) out of range")
        return (a - 1) * self.N + (i - 1)

    def psi(self, a: int, i: int) -> GrassmannElement:
        return GrassmannElement.generator(self._index(a, i))

    def pi(self, a: int, i: int) -> GrassmannElement:
        return GrassmannElement.generator(self.M * self.N + self._index(a, i))

    def _bracket_mono(self, u: int, v: int) -> list[tuple[int, int]]:
        """[u, v] of two monomial masks by the direct formula, as (mask, sign)
        terms; two terms may share a mask."""
        mn = self.M * self.N
        k = u.bit_count()
        out = []
        i, rest = 0, u
        while rest:
            g = rest & -rest
            rest ^= g
            i += 1
            h = g << mn if g.bit_length() <= mn else g >> mn
            if v & h:
                for mask, sign in wedge_masks(u ^ g, v ^ h):
                    j = (v & (h - 1)).bit_count() + 1
                    out.append((mask, -sign if (k - i + j - 1) & 1 else sign))
        return out

    def support(self, a: GrassmannElement) -> frozenset[tuple[int, int]]:
        """The letters (index mod MN, kind) of the generators some term of a
        uses: kind 0 for a psi, 1 for a pi."""
        mn = self.M * self.N
        used = reduce(or_, a.terms, 0)
        return frozenset((k % mn, k // mn) for k in range(2 * mn) if used >> k & 1)

    def graded_bracket(self, a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
        """[a, b] of two homogeneous elements, term pair by term pair in the
        product's loop with ``_bracket_mono`` as its hook."""
        a.parity()
        b.parity()
        return a._product(b, self._bracket_mono)
