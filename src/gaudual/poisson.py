"""Canonical Poisson bracket on polynomials in x{a}_{i}, p{a}_{i}.

The bracket is computed from formal partial derivatives,

    {f, g} = sum_(a,i) df/dp{a}_{i} dg/dx{a}_{i} - df/dx{a}_{i} dg/dp{a}_{i},

which reproduces {p^a_i, x^b_j} = delta_ij delta_ab on generators; all
other variables (z, lam, mu, w) are central spectators.  A polynomial
keeps each partial derivative it is asked for (``MultiPoly.partial``), so
a polynomial bracketed against many others is differentiated by each
variable at most once.  The bracket walks the fields f uses, pairs each
with its conjugate's field through a map cached per variable table, and
differentiates only where g uses that conjugate; every product of
derivatives is summed into one dict over the shared table of f and g.

The bracket is a biderivation that pairs only conjugate variables.  A
polynomial's support (``poisson_support``) is the set of letters
``({a}_{i}, kind)`` it uses, kind 0 for x{a}_{i} and 1 for p{a}_{i}, and
{f, g} = 0 unless some letter of f has its conjugate ``({a}_{i}, 1 - kind)``
in the support of g: every term above differentiates f by one member of a
pair and g by the other.
"""

from __future__ import annotations

from functools import cache

from .multipoly import _PAIR_RE, BITS, MultiPoly, _add_product, _finished


@cache
def _conjugates(table: tuple[str, ...]) -> dict[int, tuple[int, int]]:
    """Field shift of each x or p name of table whose conjugate is in table
    too -> (the conjugate's field shift, sign of its term in the bracket):
    +1 for a p (df/dp dg/dx), -1 for an x."""
    n = len(table)
    at = {v: BITS * (n - 1 - k) for k, v in enumerate(table)}
    out = {}
    for v, s in at.items():
        m = _PAIR_RE.match(v)
        if m:
            letter, a, i = m.groups()
            conjugate = f"{'x' if letter == 'p' else 'p'}{a}_{i}"
            if conjugate in at:
                out[s] = (at[conjugate], 1 if letter == "p" else -1)
    return out


def poisson_support(f: MultiPoly) -> frozenset[tuple[str, int]]:
    """The letters (pair, kind) of the x's (kind 0) and p's (kind 1) some
    term of f uses; the spectators z, lam, mu and w are left out."""
    n = len(f.vars)
    used = (f.vars[n - 1 - s // BITS] for s in f.partials())
    return frozenset((v[1:], 0 if v[0] == "x" else 1) for v in used if _PAIR_RE.match(v))


def poisson_bracket(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    # one shared table: the derivatives below share it too
    f, g = f._aligned(g)
    conjugates = _conjugates(f.vars)
    g_uses = g.partials()
    terms: dict = {}
    # a field contributes only if f uses it and g uses its conjugate
    for s in f.partials():
        if s in conjugates:
            t, sign = conjugates[s]
            if t in g_uses:
                _add_product(terms, f.partial(s), g.partial(t), sign)
    return MultiPoly(f.vars, _finished(terms, len(f.vars)))
