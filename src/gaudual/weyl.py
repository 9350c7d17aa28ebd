"""Weyl algebra with exact normal ordering.

Generators come in canonical pairs.  A pair named ``"{a}_{i}"`` carries the
position generator ``x{a}_{i}`` and the derivative ``d{a}_{i}`` with
``[d, x] = 1``; the distinguished pair ``"z"`` carries the adjoined
spectral pair (z, Dz) with ``[Dz, z] = 1``.  Distinct pairs commute.

Elements are stored normal ordered: within every pair all x's stand to the
left of all derivatives (z to the left of Dz).  A monomial is a tuple of
``(pair, x_exp, d_exp)`` entries sorted by ``pair_sort_key``, with no
``(pair, 0, 0)`` entry; coefficients are ``int`` when integral and
``Fraction`` otherwise, the convention ``MultiPoly`` uses, and ``repr``
does not depend on which one a coefficient is.

Product of two monomials (``_mono_mul``).  A pair contracts when the left
factor holds a derivative and the right factor a position of it.  With no
contracting pair the product is the single merged monomial with weight 1.
Otherwise each contracting pair is re-normal ordered with the closed form

    d^m x^n = sum_k k! C(m,k) C(n,k) x^(n-k) d^(m-k),

with ``int`` weights, which avoids quadratic rewriting chains.

Commutator (``weyl_commutator``).  ``[a, b]`` is summed term pair by term
pair; two monomials on disjoint sets of pairs commute exactly, so such a
pair contributes nothing and is skipped.  Hence ``[a, b] = 0`` when the
supports of a and b (``weyl_support``: every pair name they use) are
disjoint.

``OrderedDiffOp`` represents elements of U(z)[Dz] (side "z": rational in z,
ordered powers of Dz on the right) and of U(Dz)[z] (side "dz": rational in
Dz, powers of z on the right), the two one-sided algebras the duality
statement is computed in before both sides are normal ordered into the
common polynomial subalgebra.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, perm

from .ratfunc import RatFunc
from .scalars import normalized

Z_PAIR = "z"

_PAIR_RE = re.compile(r"^(\d+)_(\d+)$")


@cache
def pair_sort_key(pair: str):
    m = _PAIR_RE.match(pair)
    if m:
        return (0, int(m.group(1)), int(m.group(2)), "")
    if pair == Z_PAIR:
        return (1, 0, 0, "")
    return (2, 0, 0, pair)


def _key(acc: dict) -> tuple:
    """Monomial key of a {pair: (x_exp, d_exp)} dict, (0, 0) entries dropped."""
    return tuple((p, *acc[p]) for p in sorted(acc, key=pair_sort_key) if acc[p] != (0, 0))


@cache
def _mono_mul(m1: tuple, m2: tuple) -> tuple[tuple[tuple, int], ...]:
    """All normal-ordered terms of the product m1 * m2, with int weights;
    memoized, since verifiers multiply the same few monomials many times."""
    acc = {p: (x, d) for p, x, d in m1}
    contracting = []
    for p, x2, e2 in m2:
        if p in acc:
            x1, e1 = acc[p]
            acc[p] = (x1 + x2, e1 + e2)
            if e1 and x2:
                contracting.append((p, e1, x2))
        else:
            acc[p] = (x2, e2)
    if not contracting:
        return ((_key(acc), 1),)
    # each contracting pair loses k x's and k derivatives, weight k! C(e1,k) C(x2,k)
    choices = [
        [(p, k, perm(e1, k) * comb(x2, k)) for k in range(min(e1, x2) + 1)]
        for p, e1, x2 in contracting
    ]
    out = []
    for combo in product(*choices):
        step = dict(acc)
        weight = 1
        for p, k, c in combo:
            x, d = step[p]
            step[p] = (x - k, d - k)
            weight *= c
        out.append((_key(step), weight))
    return tuple(out)


class WeylElement:
    """Normal-ordered noncommutative polynomial over the rationals.  The memo
    of ``supports`` is filled on first use and never invalidated, so
    ``terms`` must not change after construction."""

    __slots__ = ("terms", "_supports")

    def __init__(self, terms: dict):
        self.terms = normalized(terms)
        self._supports = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c) -> WeylElement:
        return WeylElement({(): c})

    @staticmethod
    def zero() -> WeylElement:
        return WeylElement({})

    @staticmethod
    def _generator(pair: str, x_power: int, d_power: int) -> WeylElement:
        """x_pair^x_power d_pair^d_power; power 0 gives the canonical 1."""
        return WeylElement({((pair, x_power, d_power),) if x_power or d_power else (): 1})

    @staticmethod
    def x(a: int, i: int, power: int = 1) -> WeylElement:
        return WeylElement._generator(f"{a}_{i}", power, 0)

    @staticmethod
    def d(a: int, i: int, power: int = 1) -> WeylElement:
        return WeylElement._generator(f"{a}_{i}", 0, power)

    @staticmethod
    def z(power: int = 1) -> WeylElement:
        return WeylElement._generator(Z_PAIR, power, 0)

    @staticmethod
    def dz(power: int = 1) -> WeylElement:
        return WeylElement._generator(Z_PAIR, 0, power)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylElement.const(other)
        elif not isinstance(other, WeylElement):
            return NotImplemented
        terms = dict(self.terms)
        get = terms.get
        for k, c in other.terms.items():
            terms[k] = get(k, 0) + c
        return WeylElement(terms)

    __radd__ = __add__

    def __neg__(self):
        return WeylElement({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylElement.const(other)
        elif not isinstance(other, WeylElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return WeylElement({k: v * other for k, v in self.terms.items()})
        if not isinstance(other, WeylElement):
            return NotImplemented
        terms: dict = {}
        get = terms.get
        right = other.terms.items()
        for k1, c1 in self.terms.items():
            for k2, c2 in right:
                c = c1 * c2
                for key, w in _mono_mul(k1, k2):
                    terms[key] = get(key, 0) + c * w
        return WeylElement(terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        out = WeylElement.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylElement.const(other)
        elif not isinstance(other, WeylElement):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def parity(self) -> int:
        """0: a Weyl element is even, like every element of a bosonic ring."""
        return 0

    def num_terms(self) -> int:
        return len(self.terms)

    def supports(self) -> list[tuple[tuple, object, set]]:
        """(monomial, coefficient, set of its pair names) per term; computed
        on the first call and kept."""
        memo = self._supports
        if memo is None:
            memo = self._supports = [(k, c, {p for p, _, _ in k}) for k, c in self.terms.items()]
        return memo

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key, c in sorted(self.terms.items()):
            words = []
            for p, x, d in key:
                xn, dn = (Z_PAIR, "Dz") if p == Z_PAIR else (f"x{p}", f"d{p}")
                if x:
                    words.append(f"{xn}^{x}" if x > 1 else xn)
                if d:
                    words.append(f"{dn}^{d}" if d > 1 else dn)
            mono = "*".join(words)
            bits.append(f"{c}" if not mono else (mono if c == 1 else f"{c}*{mono}"))
        return " + ".join(bits)


def weyl_commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """[a, b] = a*b - b*a, summed term pair by term pair; monomials on
    disjoint sets of pairs commute, so such a pair is skipped.  The pair-name
    sets are the ones each element keeps (``supports``)."""
    terms: dict = {}
    get = terms.get
    right = b.supports()
    for k1, c1, pairs1 in a.supports():
        for k2, c2, pairs2 in right:
            if pairs1.isdisjoint(pairs2):
                continue
            c = c1 * c2
            for key, w in _mono_mul(k1, k2):
                terms[key] = get(key, 0) + c * w
            for key, w in _mono_mul(k2, k1):
                terms[key] = get(key, 0) - c * w
    return WeylElement(terms)


def weyl_support(a: WeylElement) -> frozenset[str]:
    """Every pair name some term of a uses."""
    return frozenset().union(*(pairs for _, _, pairs in a.supports()))


class OrderedDiffOp:
    """One-sidedly ordered differential operator in the spectral pair.

    side "z":  sum_k f_k(z) Dz^k   with f_k rational in z,
    side "dz": sum_k g_k(Dz) z^k   with g_k rational in Dz.

    Coefficients of the rational functions are WeylElements in the
    non-spectral pairs only.
    """

    __slots__ = ("side", "terms")

    def __init__(self, side: str, terms: dict[int, RatFunc]):
        if side not in ("z", "dz"):
            raise ValueError("side must be 'z' or 'dz'")
        self.side = side
        self.terms = {k: f for k, f in terms.items() if f}

    @staticmethod
    def zero(side: str) -> OrderedDiffOp:
        return OrderedDiffOp(side, {})

    def _check(self, other: OrderedDiffOp):
        if self.side != other.side:
            raise ValueError("mixed ordering sides")

    def __add__(self, other):
        if not isinstance(other, OrderedDiffOp):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for k, f in other.terms.items():
            s = terms.get(k)
            terms[k] = f if s is None else s + f
        return OrderedDiffOp(self.side, terms)

    def __neg__(self):
        return OrderedDiffOp(self.side, {k: -f for k, f in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, OrderedDiffOp):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Product, re-normalized to the side's canonical order.

        side "z":  Dz^m g(z) = sum_j C(m,j) g^(j)(z) Dz^(m-j)
        side "dz": z^m g(Dz) = sum_j (-1)^j C(m,j) g^(j)(Dz) z^(m-j)
        """
        if isinstance(other, (int, Fraction)):
            return OrderedDiffOp(self.side, {k: f * other for k, f in self.terms.items()})
        if not isinstance(other, OrderedDiffOp):
            return NotImplemented
        self._check(other)
        sign = 1 if self.side == "z" else -1
        out: dict[int, RatFunc] = {}
        for m, f in self.terms.items():
            for k, g in other.terms.items():
                deriv = g
                for j in range(m + 1):
                    if deriv:
                        piece = f * deriv * Fraction(comb(m, j) * sign**j)
                        key = m - j + k
                        cur = out.get(key)
                        out[key] = piece if cur is None else cur + piece
                    if j < m:
                        deriv = deriv.derivative()
                        if not deriv:
                            break
        return OrderedDiffOp(self.side, out)

    def scale_left(self, f: RatFunc) -> OrderedDiffOp:
        """Multiply on the left by a function of the side's own variable."""
        return OrderedDiffOp(self.side, {k: f * g for k, g in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, OrderedDiffOp):
            return NotImplemented
        self._check(other)
        diff = self - other
        return not any(f for f in diff.terms.values())

    __hash__ = None

    def to_polynomial(self) -> WeylElement:
        """Fully normal-ordered polynomial form; raises ResidualPole if a
        denominator survives cancellation."""
        out = WeylElement.zero()
        for k, f in self.terms.items():
            num = f.to_poly()  # raises ResidualPole
            for j, w in num.items():
                w = w if isinstance(w, WeylElement) else WeylElement.const(w)
                if self.side == "z":
                    out = out + w * WeylElement.z(j) * WeylElement.dz(k)
                else:
                    # w Dz^j z^k -> normal order (z before Dz)
                    for t in range(min(j, k) + 1):
                        c = perm(j, t) * comb(k, t)
                        out = out + (
                            w * WeylElement.z(k - t) * WeylElement.dz(j - t) * c
                        )
        return out

    def __repr__(self):
        op = "Dz" if self.side == "z" else "z"
        return " + ".join(f"[{f!r}]*{op}^{k}" for k, f in sorted(self.terms.items())) or "0"

