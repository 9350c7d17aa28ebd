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
does not depend on which one a coefficient is.  ``WeylElement`` takes its
arithmetic from ``scalars.TermDict``; ``_mono_mul`` is its ring hook.

Product of two monomials (``_mono_mul``).  A pair contracts when the left
factor holds a derivative and the right factor a position of it.  With no
contracting pair the product is the single merged monomial with weight 1.
Otherwise each contracting pair is re-normal ordered with the closed form

    d^m x^n = sum_k k! C(m,k) C(n,k) x^(n-k) d^(m-k),

with ``int`` weights, which avoids quadratic rewriting chains.

Commutator (``weyl_commutator``).  A monomial's letters are the
``(pair, kind)`` it uses, kind 0 for x (or z) and 1 for d (or Dz).  Pair
by pair, x^i d^j commutes with x^k d^l unless (j > 0 and k > 0) or
(i > 0 and l > 0): a derivative meets a position.  So two monomials
commute exactly unless a letter of one has its conjugate
``(pair, 1 - kind)`` among the letters of the other, and ``[a, b]``,
summed term pair by term pair, skips every pair that does not meet so.
An element's support (``weyl_support``) is the union of its terms'
letters, so ``[a, b] = 0`` unless the supports meet conjugately.

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
from .scalars import TermDict

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


class WeylElement(TermDict):
    """Normal-ordered noncommutative polynomial over the rationals; its memo
    is the per-term letters of ``supports``."""

    __slots__ = ()

    ONE = ()
    SCALARS = (int, Fraction)
    _mono_mul = staticmethod(_mono_mul)
    # bench/tracer.py wraps these by name in the class's own namespace
    __add__ = __radd__ = TermDict.__add__
    __sub__, __rsub__, __neg__ = TermDict.__sub__, TermDict.__rsub__, TermDict.__neg__
    __mul__, __rmul__, __eq__ = TermDict.__mul__, TermDict.__rmul__, TermDict.__eq__

    @staticmethod
    @cache
    def _generator(pair: str, x_power: int, d_power: int) -> WeylElement:
        """x_pair^x_power d_pair^d_power; power 0 gives the canonical 1.
        Built once per argument: elements are never changed in place."""
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

    def parity(self) -> int:
        """0: a Weyl element is even, like every element of a bosonic ring."""
        return 0

    def supports(self) -> list[tuple[tuple, object, set, set]]:
        """(monomial, coefficient, its letters, their conjugates) per term;
        computed on the first call and kept."""
        memo = self._memo
        if memo is None:
            memo = self._memo = [
                (k, c, {(p, 0) for p, x, _ in k if x} | {(p, 1) for p, _, d in k if d},
                 {(p, 1) for p, x, _ in k if x} | {(p, 0) for p, _, d in k if d})
                for k, c in self.terms.items()]
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
    """[a, b] = a*b - b*a, summed term pair by term pair; a pair is skipped
    when no conjugate of a letter of its left term is a letter of its right
    one, as such monomials commute.  The letters are the ones each element
    keeps (``supports``)."""
    terms: dict = {}
    get = terms.get
    right = b.supports()
    for k1, c1, _, conjugates in a.supports():
        for k2, c2, letters, _ in right:
            if conjugates.isdisjoint(letters):
                continue
            c = c1 * c2
            for key, w in _mono_mul(k1, k2):
                terms[key] = get(key, 0) + c * w
            for key, w in _mono_mul(k2, k1):
                terms[key] = get(key, 0) - c * w
    return WeylElement(terms)


def weyl_support(a: WeylElement) -> frozenset[tuple[str, int]]:
    """The letters (pair, 0) of the positions and (pair, 1) of the
    derivatives some term of a uses: the union of its kept letters."""
    return frozenset().union(*(letters for _, _, letters, _ in a.supports()))


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
                        piece = f * deriv
                        weight = comb(m, j) * sign**j
                        if weight != 1:
                            piece = piece * weight
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
        # the term w X^j Y^k, with (X, Y) = (z, Dz) on side "z" and (Dz, z) on
        # side "dz", is normal-ordered by the Weyl product X^j Y^k
        left, right = ((WeylElement.z, WeylElement.dz) if self.side == "z"
                       else (WeylElement.dz, WeylElement.z))
        out = WeylElement.zero()
        for k, f in self.terms.items():
            for j, w in f.to_poly().items():  # raises ResidualPole
                w = w if isinstance(w, WeylElement) else WeylElement.const(w)
                out = out + w * (left(j) * right(k))
        return out

    def __repr__(self):
        op = "Dz" if self.side == "z" else "z"
        return " + ".join(f"[{f!r}]*{op}^{k}" for k, f in sorted(self.terms.items())) or "0"

