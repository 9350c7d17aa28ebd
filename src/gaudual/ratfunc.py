"""Univariate rational functions with factored denominators.

The denominator of every value is a monic product ``prod (X - root)^mult``
held as a ``{root: mult}`` map with rational roots: poles always come from a
divisor, so the roots are known and no root finding is needed in the hot
path.  Numerator coefficients live in any commutative-enough coefficient
ring (Fraction, MultiPoly, WeylElement); the multiplication order of
numerator coefficients is preserved, which is what makes the same container
usable for ordered differential-operator coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import NotInvertible, ResidualPole, UnlistedPole, ZeroInverse
from .multipoly import _monic_product

Poly = dict  # degree -> coefficient


def _trim(num: Poly) -> Poly:
    return {k: c for k, c in num.items() if c}


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for i, c in a.items():
        for j, d in b.items():
            s = out.get(i + j, 0) + c * d
            if s:
                out[i + j] = s
            else:
                out.pop(i + j, None)
    return out


def poly_scale(a: Poly, c) -> Poly:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def poly_eval(a: Poly, point: Fraction):
    """Evaluate at a rational point; result lives in the coefficient ring."""
    total = None
    for k, c in a.items():
        term = c * point**k if k else c
        total = term if total is None else total + term
    return 0 if total is None else total


def poly_derivative(a: Poly) -> Poly:
    return {k - 1: c * k for k, c in a.items() if k}


def _divmod_linear(a: Poly, root: Fraction):
    """Quotient and remainder of a by (X - root), from one Horner pass."""
    if not root:
        return {k - 1: c for k, c in a.items() if k}, a.get(0, 0)
    if not a:
        return {}, 0
    if root.denominator == 1:
        root = int(root)  # each coefficient is then multiplied by an int
    quot: Poly = {}
    carry = 0
    for k in range(max(a), 0, -1):
        q = a.get(k, 0) + carry
        if q:
            quot[k - 1] = q
        carry = q * root
    return quot, a.get(0, 0) + carry


def poly_divide_linear(a: Poly, root: Fraction) -> Poly:
    """Exact division by (X - root); raises ValueError on nonzero remainder."""
    quot, rem = _divmod_linear(a, root)
    if rem:
        raise ValueError("linear factor does not divide exactly")
    return quot


def _divide_out(a: Poly, root: Fraction, m: int):
    """Divide a by (X - root) while it vanishes at root, at most m times;
    returns the quotient and how many of the m factors are left."""
    while m:
        quot, rem = _divmod_linear(a, root)
        if rem:
            break
        a, m = quot, m - 1
    return a, m


def _is_scalar(a: Poly) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in a.values())


def expand_factors(factors: dict[Fraction, int]) -> Poly:
    """prod (X - root)^mult over a {root: mult} map, as a dict of the
    caller's own; the product is expanded once per set of factors
    (multipoly._monic_product)."""
    degree, lower = _monic_product(tuple(sorted(factors.items())))
    return {**dict(lower), degree: 1}


def rational_roots(a: Poly) -> tuple[dict[Fraction, int], Poly]:
    """Split off rational roots: returns ({root: mult}, non-splitting cofactor).

    Coefficients must be Fractions.
    """
    roots: dict[Fraction, int] = {}
    a = {k: Fraction(c) if isinstance(c, int) else c for k, c in a.items() if c}
    if not a:
        return roots, a
    while max(a) > 0:
        low = min(a)
        if low > 0:
            a = {k - 1: c for k, c in a.items()}
            roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
            continue
        scale = lcm(*(c.denominator for c in a.values()))
        ints = {k: int(c * scale) for k, c in a.items()}
        lead, tail = ints[max(ints)], ints[min(ints)]
        found = None
        for p in _divisors(abs(tail)):
            for q in _divisors(abs(lead)):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if poly_eval(a, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        a = poly_divide_linear(a, found)
        roots[found] = roots.get(found, 0) + 1
    return roots, a


def _divisors(n: int):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


class RatFunc:
    """num / prod (X - root)^mult in the variable `var`.

    Every value is fully reduced: its numerator is nonzero at each root of
    its denominator, so the form of a value is unique and ``to_poly`` sees a
    pole exactly when one is there.  ``__init__`` tests every root.  The
    arithmetic tests only the roots where a factor can cancel and proves the
    rest from its reduced operands, as numerator coefficients live in an
    algebra over the rationals, where a nonzero element times a nonzero
    rational is nonzero:

    * ``-f``, ``f * c`` for a nonzero int or Fraction c, and ``derivative``
      test no root (at a root r of order m the derivative's numerator is
      -m N(r) prod_{q != r} (r - q));
    * ``f + g`` tests the roots where f and g have the same order; at any
      other root the side of higher order survives;
    * ``f * g`` where one side has only int or Fraction coefficients first
      divides that side's numerator by (X - r) wherever it vanishes at a
      root r of the other side's denominator, then tests only the roots of
      its own denominator that the other side lacks;
    * every other product, and a product with a bare ring element, tests
      every root: two ring elements can multiply to zero (Grassmann).
    """

    __slots__ = ("var", "num", "den")

    def __init__(self, var: str, num: Poly, den: dict[Fraction, int] | None = None):
        self.var = var
        self.num = _trim(num)
        self.den = {r: m for r, m in (den or {}).items() if m}
        self._cancel(list(self.den))

    @classmethod
    def _from_parts(cls, var: str, num: Poly, den: dict[Fraction, int], test) -> RatFunc:
        """The value num / den from a numerator without zero coefficients
        and a denominator without zero orders that is reduced at every root
        outside `test`; the roots of `test` are tested.  A nonempty `test`
        may change `den`, so the caller hands over a dict of its own."""
        self = cls.__new__(cls)
        self.var = var
        self.num = num
        self.den = den
        if test or not num:
            self._cancel(test)
        return self

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(var: str, c) -> RatFunc:
        return RatFunc(var, {0: c} if c else {})

    # -- normalization ----------------------------------------------------

    def _cancel(self, roots):
        """Divide out (X - r) while the numerator vanishes at r, for each
        denominator root r of `roots`."""
        num, den = self.num, self.den
        if not num:
            self.den = {}
            return
        for root in roots:
            num, m = _divide_out(num, root, den[root])
            if m:
                den[root] = m
            else:
                del den[root]
        self.num = num

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: RatFunc):
        if self.var != other.var:
            raise ValueError(f"mixed variables {self.var!r} and {other.var!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(self.var, other)
        elif not isinstance(other, RatFunc):
            return NotImplemented
        self._check(other)
        if not other.num:
            return self
        if not self.num:
            return other
        den = dict(self.den)
        lift_a, lift_b, ties = {}, {}, []
        for r, m in other.den.items():
            k = den.get(r, 0)
            if k < m:
                den[r] = m
                lift_a[r] = m - k
            elif k > m:
                lift_b[r] = k - m
            else:
                ties.append(r)
        for r, k in self.den.items():
            if r not in other.den:
                lift_b[r] = k
        num_a = poly_mul(self.num, expand_factors(lift_a)) if lift_a else self.num
        num_b = poly_mul(other.num, expand_factors(lift_b)) if lift_b else other.num
        return RatFunc._from_parts(self.var, poly_add(num_a, num_b), den, ties)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._from_parts(self.var, {k: -c for k, c in self.num.items()}, self.den, ())

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(self.var, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other) if isinstance(other, int) else other
            return RatFunc._from_parts(self.var, poly_scale(self.num, c), self.den, ())
        if not isinstance(other, RatFunc):
            # scalar from the coefficient ring, applied on the right
            return RatFunc(self.var, poly_scale(self.num, other), self.den)
        self._check(other)
        if not self.num or not other.num:
            return RatFunc.const(self.var, 0)
        if _is_scalar(other.num):
            ring, scalar = self, other
        elif _is_scalar(self.num):
            ring, scalar = other, self
        else:
            den = dict(self.den)
            for r, m in other.den.items():
                den[r] = den.get(r, 0) + m
            return RatFunc._from_parts(self.var, poly_mul(self.num, other.num), den, list(den))
        # cross-cancel: divide the scalar numerator by each (X - r) of the
        # ring side's denominator it vanishes at; at the orders left there,
        # a nonzero ring element meets a nonzero rational
        snum, den = scalar.num, dict(scalar.den)
        for r, m in ring.den.items():
            if r not in den:
                snum, m = _divide_out(snum, r, m)
            if m:
                den[r] = den.get(r, 0) + m
        test = [r for r in scalar.den if r not in ring.den]
        num = poly_mul(self.num, snum) if scalar is other else poly_mul(snum, other.num)
        return RatFunc._from_parts(self.var, num, den, test)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        # ring coefficient multiplied from the left
        return RatFunc(self.var, {k: other * c for k, c in self.num.items()}, self.den)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(self.var, other)
        elif not isinstance(other, RatFunc):
            return NotImplemented
        diff = self - other
        return not diff.num

    __hash__ = None

    def derivative(self) -> RatFunc:
        if not self.den:
            return RatFunc._from_parts(self.var, poly_derivative(self.num), {}, ())
        # d/dX [N / prod (X-r)^m] with the denominator kept factored
        den = {r: m + 1 for r, m in self.den.items()}
        all_lin = expand_factors({r: 1 for r in self.den})
        num = poly_mul(poly_derivative(self.num), all_lin)
        for r, m in self.den.items():
            others = expand_factors({q: 1 for q in self.den if q != r})
            num = poly_add(num, poly_scale(poly_mul(self.num, others), Fraction(-m)))
        return RatFunc._from_parts(self.var, num, den, ())

    def invert(self) -> RatFunc:
        """Exact reciprocal; numerator must factor over rational roots."""
        if not self.num:
            raise ZeroInverse("cannot invert the zero rational function")
        for c in self.num.values():
            if not isinstance(c, (int, Fraction)):
                raise NotInvertible("reciprocal needs scalar numerator coefficients")
        roots, rest = rational_roots(self.num)
        if _trim(rest) and max(_trim(rest)) > 0:
            raise NotInvertible("numerator does not split over rational roots")
        lead = rest.get(0, Fraction(1))
        num = poly_scale(expand_factors(self.den), Fraction(1) / lead)
        return RatFunc(self.var, num, roots)

    def to_poly(self) -> Poly:
        """Numerator as a plain polynomial; raises ResidualPole otherwise."""
        if self.den:
            root = next(iter(sorted(self.den)))
            raise ResidualPole(root, self.den[root])
        return dict(self.num)

    def __repr__(self):
        den = "*".join(f"({self.var}-{r})^{m}" for r, m in sorted(self.den.items()))
        return f"({self.num})" + (f"/{den}" if den else "")


def partial_fractions(f: RatFunc, poles: list[tuple[Fraction, int]]):
    """Decompose f into a polynomial part plus sum of coeff/(X-point)^order.

    Returns (poly_part: Poly, pieces: dict[(point, order) -> coefficient]).
    The reassembled function equals f exactly; a denominator root outside
    the listed poles raises UnlistedPole.
    """
    allowed = {p: o for p, o in poles}
    for r, m in f.den.items():
        if r not in allowed:
            raise UnlistedPole(f"pole at {r} not in the supplied list")
        if m > allowed[r]:
            raise UnlistedPole(f"pole order {m} at {r} exceeds stated maximum {allowed[r]}")
    num = dict(f.num)
    den = dict(f.den)
    pieces = {}
    while den:
        root = next(iter(sorted(den)))
        m = den[root]
        others = {q: k for q, k in den.items() if q != root}
        scale = Fraction(1)
        for q, k in others.items():
            scale *= (root - q) ** k
        coeff = poly_eval(num, root) * (Fraction(1) / scale)
        if coeff:
            pieces[(root, m)] = coeff
        num = poly_add(num, poly_scale(expand_factors(others), -coeff))
        num = poly_divide_linear(num, root)
        if m == 1:
            del den[root]
        else:
            den[root] = m - 1
    return num, pieces

