"""Sparse multivariate polynomials over exact rationals, with packed monomials.

Variables are referred to by name.  Canonical variable names follow the
conventions used throughout the package:

* ``x{a}_{i}`` / ``p{a}_{i}`` -- canonically conjugate pairs, superscript
  ``a`` first, subscript ``i`` second,
* ``z``, ``lam``, ``mu``, ``w`` -- spectral parameters and the cyclotomic
  parameter.

A polynomial is a variable table ``vars`` and a dict ``terms`` from packed
monomials to nonzero coefficients.  The table is sorted by a fixed global
order (x's, then p's, then z, lam, mu, w, then anything else
alphabetically; see ``var_key``), so equal polynomials over equal tables
have equal dicts and equality is a dictionary comparison.

Packed monomials.  A monomial over a table of n variables is one Python
``int`` with one 16-bit field per variable.  The first variable of the table
takes the most significant field, so comparing two monomials of one table as
ints is the lexicographic comparison of their exponent tuples: ``repr`` and
every sorted witness list terms in that order.  Multiplying monomials is
adding their ints.  The top bit of each field is a guard bit: exponents are
kept below 2**15, so a sum of two monomials never carries into the
neighbouring field, and a product whose result has a guard bit set raises
``ExponentOverflow`` instead of wrapping.

Coefficients are ``int`` when integral and ``Fraction`` otherwise; ``str``,
``==`` and ``hash`` agree between the two, so printed polynomials do not
depend on which one a coefficient happens to be.  Nothing is ever a float.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, reduce
from operator import or_

from .errors import ExponentOverflow, InexactDivision

_PAIR_RE = re.compile(r"^([xp])(\d+)_(\d+)$")
_SPECIAL = {"z": 2, "lam": 3, "mu": 4, "w": 5}

BITS = 16  # width of one exponent field, guard bit included
FIELD = (1 << BITS) - 1
MAX_EXP = (1 << (BITS - 1)) - 1  # largest exponent a field may hold


@cache
def var_key(name: str) -> tuple:
    """Global sort key: x's first, then p's, then spectral parameters."""
    m = _PAIR_RE.match(name)
    if m:
        fam = 0 if m.group(1) == "x" else 1
        return (fam, int(m.group(2)), int(m.group(3)), "")
    if name in _SPECIAL:
        return (_SPECIAL[name], 0, 0, "")
    return (9, 0, 0, name)


@cache
def _guard_mask(n: int) -> int:
    """The guard bits of every field of an n-variable monomial."""
    return sum(1 << (BITS * k + BITS - 1) for k in range(n))


def _coerce(value):
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"cannot use {value!r} as a polynomial coefficient")


def _has_fraction(terms: dict) -> bool:
    return Fraction in set(map(type, terms.values()))


def _nonzero(terms: dict, fractions: bool) -> dict:
    """Drop zero coefficients; with `fractions`, also store integral
    Fractions as ints."""
    if fractions:
        return {e: c.numerator if c.denominator == 1 else c for e, c in terms.items() if c}
    return {e: c for e, c in terms.items() if c}


def _checked(terms: dict, nvars: int) -> dict:
    """`terms` of a product, once no exponent has reached a guard bit.  A
    sum of two in-range fields stays below 2**16, so an overflowed monomial
    is still exact: it cancels only against itself, and a surviving one
    sets its guard bit in the OR of all the monomials."""
    if reduce(or_, terms, 0) & _guard_mask(nvars):
        raise ExponentOverflow(f"an exponent exceeds {MAX_EXP}")
    return terms


def _add_product(terms: dict, left: dict, right: dict, sign: int):
    """Add sign * left * right, two term dicts, into terms, zero
    coefficients kept: the one term-pair loop of the package."""
    get = terms.get
    right = list(right.items())
    for e1, c1 in left.items():
        c1 = c1 * sign
        for e2, c2 in right:
            e = e1 + e2
            terms[e] = get(e, 0) + c1 * c2


def _finished(terms: dict, nvars: int) -> dict:
    """A sum of products accumulated by `_add_product`, with its zero
    coefficients dropped; only the survivors are scanned for Fractions to
    store as ints, and for overflow (`_checked`)."""
    terms = _nonzero(terms, False)
    if _has_fraction(terms):
        terms = _nonzero(terms, True)
    return _checked(terms, nvars)


@cache
def _monic_product(factors: tuple) -> tuple[int, tuple]:
    """Degree and lower coefficients of the monic prod (X - root)^power over
    (root, power) pairs: (degree, ((j, a_j), ...)) for the nonzero a_j of
    X^j, j < degree."""
    coeffs = [1]  # of X^0, X^1, ...
    for root, power in factors:
        for _ in range(power):
            coeffs = [(coeffs[j - 1] if j else 0) - (root * coeffs[j] if j < len(coeffs) else 0)
                      for j in range(len(coeffs) + 1)]
    degree = len(coeffs) - 1
    return degree, tuple((j, _coerce(a)) for j, a in enumerate(coeffs[:degree]) if a)


def _long_divide(terms: dict, s: int, divisor: tuple[int, tuple]) -> dict | None:
    """The terms of the quotient by the monic divisor of `_monic_product` in
    the variable at field `s`, or None on a nonzero remainder: long division
    on the coefficients of X^k, each a dict keyed by the monomial with its
    X field cleared."""
    degree, lower = divisor
    rows: dict[int, dict] = {}
    for e, c in terms.items():
        k = (e >> s) & FIELD
        rows.setdefault(k, {})[e - (k << s)] = c
    quot: dict[int, int] = {}
    for k in range(max(rows), degree - 1, -1):
        row = [(e, c) for e, c in rows.pop(k, {}).items() if c]
        if not row:
            continue
        at = (k - degree) << s
        quot.update((e + at, c) for e, c in row)
        for j, a in lower:
            target = rows.setdefault(k - degree + j, {})
            get = target.get
            for e, c in row:
                target[e] = get(e, 0) - a * c
    if any(any(rem.values()) for rem in rows.values()):
        return None
    return _nonzero(quot, True)


def _used_fields(vars: tuple[str, ...], terms: dict) -> list[tuple[int, str]]:
    """(field shift, name) of each variable of the table vars that some
    monomial of terms uses, in table order."""
    n = len(vars)
    used = reduce(or_, terms, 0)
    return [(s, v) for k, v in enumerate(vars) if (used >> (s := BITS * (n - 1 - k))) & FIELD]


def _moves(src: tuple[str, ...], dst: tuple[str, ...]) -> list[tuple[int, int]]:
    """How the fields of the names common to both tables move when a
    monomial over `src` is rewritten over `dst`: (mask over src, shift)
    pairs, one per run of fields that move together, shift > 0 meaning
    leftwards.  Fields of names not in `dst` are dropped."""
    ns, nd = len(src), len(dst)
    moves: list[tuple[int, int]] = []
    for k, v in enumerate(src):
        if v not in dst:
            continue
        at = BITS * (ns - 1 - k)
        shift = BITS * (nd - 1 - dst.index(v)) - at
        if moves and moves[-1][1] == shift:
            moves[-1] = (moves[-1][0] | FIELD << at, shift)
        else:
            moves.append((FIELD << at, shift))
    return moves


def _repack(terms: dict, moves: list[tuple[int, int]]) -> dict:
    if len(moves) == 1:
        (mask, shift), = moves
        if shift >= 0:
            return {(e & mask) << shift: c for e, c in terms.items()}
        return {(e & mask) >> -shift: c for e, c in terms.items()}
    out = {}
    for e, c in terms.items():
        m = 0
        for mask, shift in moves:
            m |= (e & mask) << shift if shift >= 0 else (e & mask) >> -shift
        out[m] = c
    return out


class VariableTable(dict):
    """The generator MultiPoly of each of `names`, all over one table sorted
    by var_key (kept as ``names``): polynomials built from them share it, so
    their sums, products and brackets never re-align.  A name outside the
    table gives its own one-name generator."""

    def __init__(self, names):
        table = tuple(sorted(set(names), key=var_key))
        n = len(table)
        super().__init__((v, MultiPoly(table, {1 << BITS * (n - 1 - k): 1}))
                         for k, v in enumerate(table))
        self.names = table

    def __missing__(self, name: str) -> MultiPoly:
        return MultiPoly.var(name)


class MultiPoly:
    """Immutable sparse polynomial: map from packed monomials to nonzero
    int or Fraction coefficients over the variable table ``vars``.  The
    memo of ``partials`` is filled as it is used and never invalidated, so
    ``terms`` must not change after construction."""

    __slots__ = ("vars", "terms", "_partials")

    def __init__(self, vars: tuple[str, ...], terms: dict):
        self.vars = vars
        self.terms = terms
        self._partials = None

    # -- constructors --------------------------------------------------

    @staticmethod
    def const(c) -> MultiPoly:
        c = _coerce(c)
        return MultiPoly((), {0: c} if c else {})

    @staticmethod
    def var(name: str, power: int = 1, coeff=1) -> MultiPoly:
        c = _coerce(coeff)
        if not c:
            return MultiPoly((), {})
        if power == 0:
            return MultiPoly.const(c)
        if power < 0:
            raise ValueError(f"negative exponent {power} of {name}")
        if power > MAX_EXP:
            raise ExponentOverflow(f"exponent {power} of {name} exceeds {MAX_EXP}")
        return MultiPoly((name,), {power: c})

    @staticmethod
    def zero() -> MultiPoly:
        return MultiPoly((), {})

    # -- packed monomials -------------------------------------------------

    def _shift(self, name: str) -> int:
        return BITS * (len(self.vars) - 1 - self.vars.index(name))

    def unpack(self, mono: int) -> tuple[int, ...]:
        """Exponent tuple of a packed monomial of this polynomial, one entry
        per name of ``vars``."""
        return tuple((mono >> s) & FIELD for s in range(BITS * (len(self.vars) - 1), -1, -BITS))

    # -- table alignment ----------------------------------------------

    def lift_to(self, vars: tuple[str, ...]) -> MultiPoly:
        """Re-express over a larger variable table (must contain self.vars)."""
        if vars == self.vars:
            return self
        if not self.vars:
            # a constant: the monomial 0 is the same over every table
            return MultiPoly(vars, self.terms)
        if not set(vars).issuperset(self.vars):
            raise ValueError(f"table {vars} lacks some of {self.vars}")
        return MultiPoly(vars, _repack(self.terms, _moves(self.vars, vars)))

    def _aligned(self, other: MultiPoly):
        if self.vars == other.vars:
            return self, other
        if not other.vars:
            return self, MultiPoly(self.vars, other.terms)
        if not self.vars:
            return MultiPoly(other.vars, self.terms), other
        merged = tuple(sorted(set(self.vars) | set(other.vars), key=var_key))
        return self.lift_to(merged), other.lift_to(merged)

    def compact(self) -> MultiPoly:
        """Drop variables that no term actually uses."""
        if not self.terms:
            return MultiPoly((), {})
        keep = tuple(v for _, v in _used_fields(self.vars, self.terms))
        if len(keep) == len(self.vars):
            return self
        return MultiPoly(keep, _repack(self.terms, _moves(self.vars, keep)))

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.const(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        a, b = self._aligned(other)
        if len(a.terms) < len(b.terms):
            a, b = b, a
        terms = dict(a.terms)
        get = terms.get
        for e, c in b.terms.items():
            s = get(e)
            if s is None:
                terms[e] = c
                continue
            s += c
            if not s:
                del terms[e]
            elif type(s) is Fraction and s.denominator == 1:
                terms[e] = s.numerator
            else:
                terms[e] = s
        return MultiPoly(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _coerce(other)
            if not c:
                return MultiPoly((), {})
            terms = {e: k * c for e, k in self.terms.items()}
            if _has_fraction(terms):
                terms = _nonzero(terms, True)
            return MultiPoly(self.vars, terms)
        if not self.terms or not other.terms:
            return MultiPoly((), {})
        a, b = self._aligned(other)
        if len(a.terms) < len(b.terms):
            a, b = b, a
        fractions = _has_fraction(a.terms) or _has_fraction(b.terms)
        if len(b.terms) == 1:
            # one monomial: the products are distinct and nonzero
            (e2, c2), = b.terms.items()
            terms = {e1 + e2: c1 * c2 for e1, c1 in a.terms.items()}
            if fractions:
                terms = _nonzero(terms, True)
        else:
            terms = {}
            _add_product(terms, a.terms, b.terms, 1)
            terms = _nonzero(terms, fractions)
        return MultiPoly(a.vars, _checked(terms, len(a.vars)))

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs) -> MultiPoly:
        """sum a * b over the (a, b) pairs, each a MultiPoly or a rational,
        every product added into one term dict and finished once
        (`_finished`).  Operands on different tables are aligned once, to
        the sorted union of the tables; a rational is a constant
        polynomial."""
        tables = {x.vars for pair in pairs for x in pair if isinstance(x, MultiPoly) and x.vars}
        vars = tables.pop() if len(tables) == 1 else \
            tuple(sorted(set().union(*tables), key=var_key))

        def terms_of(x) -> dict:
            if isinstance(x, MultiPoly):
                return x.lift_to(vars).terms
            c = _coerce(x)
            return {0: c} if c else {}

        terms: dict = {}
        for a, b in pairs:
            _add_product(terms, terms_of(a), terms_of(b), 1)
        return MultiPoly(vars, _finished(terms, len(vars)))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    __hash__ = None

    # -- structure ------------------------------------------------------

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(0, 0)

    def parity(self) -> int:
        """0: a polynomial is even, like every element of a bosonic ring."""
        return 0

    def num_terms(self) -> int:
        return len(self.terms)

    def derivative(self, name: str) -> MultiPoly:
        if name not in self.vars:
            return MultiPoly((), {})
        s = self._shift(name)
        one = 1 << s
        # distinct monomials stay distinct after lowering one exponent
        terms = {e - one: c * k for e, c in self.terms.items() if (k := (e >> s) & FIELD)}
        if _has_fraction(terms):
            terms = _nonzero(terms, True)
        return MultiPoly(self.vars, terms)

    def partials(self) -> dict[int, dict | None]:
        """The memo of ``partial``: the field shift of each variable some
        term uses, in table order, to the terms of the derivative by that
        variable, or None until ``partial`` first computes them."""
        memo = self._partials
        if memo is None:
            used = reduce(or_, self.terms, 0)
            memo = self._partials = {}
            while used:
                s = (used.bit_length() - 1) // BITS * BITS  # the first used field
                memo[s] = None
                used &= ~(FIELD << s)
        return memo

    def partial(self, shift: int) -> dict:
        """The terms of the derivative by the variable at field `shift`, a
        key of ``partials``; computed on the first call and kept."""
        memo = self.partials()
        terms = memo[shift]
        if terms is None:
            name = self.vars[len(self.vars) - 1 - shift // BITS]
            terms = memo[shift] = self.derivative(name).terms
        return terms

    def substitute(self, assignment: dict) -> MultiPoly:
        """Substitute rationals for some variables, in one pass over the
        terms: the result keeps this table, with the substituted fields
        cleared.  Only the variables some term uses are looked up, once per
        call; any other value for one of them raises TypeError."""
        subs = [(s, _coerce(assignment[v]), {})
                for s, v in _used_fields(self.vars, self.terms) if v in assignment]
        if not subs:
            return self
        clear = ~sum(FIELD << s for s, _, _ in subs)
        terms: dict = {}
        get = terms.get
        for e, c in self.terms.items():
            for s, value, powers in subs:
                k = (e >> s) & FIELD
                if k:
                    power = powers.get(k)
                    if power is None:
                        power = powers[k] = value**k
                    c = c * power
            key = e & clear
            terms[key] = get(key, 0) + c
        return MultiPoly(self.vars, _nonzero(terms, True))

    def split_by(self, names: tuple[str, ...]) -> dict[tuple, MultiPoly]:
        """Group terms by the exponents of `names`, in increasing order of
        those exponents; values are polynomials in the remaining variables,
        all over one table, even where a group leaves some of it unused."""
        shifts = [self._shift(n) if n in self.vars else None for n in names]
        rest_vars = tuple(v for v in self.vars if v not in names)
        moves = _moves(self.vars, rest_vars)
        out: dict[tuple, dict] = {}
        for e, c in self.terms.items():
            key = tuple(0 if s is None else (e >> s) & FIELD for s in shifts)
            out.setdefault(key, {})[e] = c
        return {k: MultiPoly(rest_vars, _repack(out[k], moves)) for k in sorted(out)}

    def divide_linear(self, name: str, factors) -> MultiPoly:
        """Exact division by prod (name - root)^power over a sequence of
        (root, power) pairs, such as ``Divisor.points``: one long division by
        the expanded monic product, on rows of the dividend built once.  A
        remainder raises InexactDivision naming the first factor, in the
        given order, that does not divide what the factors before it leave,
        so a quotient is a proof of divisibility.  The quotient keeps the
        dividend's table, so a product of it with a polynomial on the same
        table needs no alignment."""
        factors = tuple((_coerce(root), power) for root, power in factors if power)
        if not self.terms:
            return MultiPoly.zero()
        if not factors:
            return self
        if name not in self.vars:
            raise InexactDivision(name, *factors[0])
        s = self._shift(name)
        quot = _long_divide(self.terms, s, _monic_product(factors))
        if quot is None:
            # the product divides exactly when each factor divides what the
            # ones before it leave, so this loop raises
            terms = self.terms
            for root, power in factors:
                terms = _long_divide(terms, s, _monic_product(((root, power),)))
                if terms is None:
                    raise InexactDivision(name, root, power)
        return MultiPoly(self.vars, quot)

    # -- display ----------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        fields = _used_fields(self.vars, self.terms)
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for s, v in fields if (k := (e >> s) & FIELD))
            bits.append(f"{c}" if not mono else (f"{c}*{mono}" if c != 1 else mono))
        return " + ".join(bits)
