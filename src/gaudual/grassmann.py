"""Exterior algebra on canonically paired Grassmann generators.

Generators psi^a_i and pi^a_i (a = 1..M, i = 1..N) are numbered in a fixed
global order: all psi's first (lexicographic in (a, i)), then all pi's.
A monomial is a bitmask over the 2MN generators, stored strictly
increasing; products track the permutation sign.

Coefficients are any commutative scalars (Fraction or MultiPoly), so even
elements with rational-function data in spectral parameters can share the
same container.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InhomogeneousInput


def wedge_masks(m1: int, m2: int):
    """(sign, mask) of the product of two monomial masks, or None if zero."""
    if m1 & m2:
        return None
    inversions = 0
    m = m2
    while m:
        low = m & -m
        inversions += (m1 >> low.bit_length()).bit_count()
        m ^= low
    sign = -1 if inversions & 1 else 1
    return sign, m1 | m2


class GrassmannElement:
    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def const(c) -> GrassmannElement:
        c = Fraction(c) if isinstance(c, int) else c
        return GrassmannElement({0: c} if c else {})

    @staticmethod
    def generator(index: int, coeff=Fraction(1)) -> GrassmannElement:
        return GrassmannElement({1 << index: coeff})

    @staticmethod
    def zero() -> GrassmannElement:
        return GrassmannElement({})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GrassmannElement.const(other)
        elif not isinstance(other, GrassmannElement):
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return GrassmannElement(terms)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GrassmannElement.const(other)
        elif not isinstance(other, GrassmannElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            terms: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    sm = wedge_masks(m1, m2)
                    if sm is None:
                        continue
                    sign, m = sm
                    s = terms.get(m, 0) + c1 * c2 * sign
                    if s:
                        terms[m] = s
                    else:
                        terms.pop(m, None)
            return GrassmannElement(terms)
        # commutative scalar
        if not other:
            return GrassmannElement({})
        return GrassmannElement({m: c * other for m, c in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything; reuse __mul__
        return self.__mul__(other)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GrassmannElement.const(other)
        elif not isinstance(other, GrassmannElement):
            return NotImplemented
        return not (self - other).terms

    __hash__ = None

    def parity(self) -> int:
        """0 for even, 1 for odd; raises InhomogeneousInput when mixed."""
        if not self.terms:
            return 0
        parities = {m.bit_count() & 1 for m in self.terms}
        if len(parities) > 1:
            raise InhomogeneousInput("element mixes even and odd parts")
        return parities.pop()

    def is_even(self) -> bool:
        return all(m.bit_count() % 2 == 0 for m in self.terms)

    def num_terms(self) -> int:
        return len(self.terms)

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
        self._memo: dict[tuple[int, int], GrassmannElement] = {}

    def _index(self, a: int, i: int) -> int:
        if not (1 <= a <= self.M and 1 <= i <= self.N):
            raise IndexError(f"generator index ({a},{i}) out of range")
        return (a - 1) * self.N + (i - 1)

    def psi(self, a: int, i: int) -> GrassmannElement:
        return GrassmannElement.generator(self._index(a, i))

    def pi(self, a: int, i: int) -> GrassmannElement:
        return GrassmannElement.generator(self.M * self.N + self._index(a, i))

    def _pair_value(self, g: int, h: int) -> Fraction:
        """{gen_g, gen_h}_+ on single generators."""
        mn = self.M * self.N
        if g < mn <= h and h - mn == g:
            return Fraction(1)
        if h < mn <= g and g - mn == h:
            return Fraction(1)
        return Fraction(0)

    def _bracket_mono(self, u: int, v: int) -> GrassmannElement:
        """Bracket of monomial masks by recursive graded Leibniz expansion."""
        key = (u, v)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        nu, nv = u.bit_count(), v.bit_count()
        if nu == 0 or nv == 0:
            result = GrassmannElement.zero()
        elif nv == 1 and nu == 1:
            result = GrassmannElement.const(
                self._pair_value(u.bit_length() - 1, v.bit_length() - 1)
            )
        elif nv > 1:
            # v = g * v' with g the lowest generator of v
            g = v & -v
            rest = v ^ g
            left = self._bracket_mono(u, g) * GrassmannElement({rest: Fraction(1)})
            sign = -1 if (nu & 1) else 1  # (-1)^{|u||g|}, |g| = 1
            right = GrassmannElement({g: Fraction(1)}) * self._bracket_mono(u, rest)
            result = left + right * sign
        else:
            # v is a single generator, u is composite: graded skew-symmetry
            sign = -1 if (nu & 1) == 1 else 1  # -(-1)^{|u||v|}
            result = self._bracket_mono(v, u) * (-sign)
        self._memo[key] = result
        return result

    def graded_bracket(self, a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
        a.parity()
        b.parity()
        out = GrassmannElement.zero()
        for u, cu in a.terms.items():
            for v, cv in b.terms.items():
                out = out + self._bracket_mono(u, v) * (cu * cv)
        return out
