"""Canonical Poisson bracket on polynomials in x{a}_{i}, p{a}_{i}.

The bracket is computed from formal partial derivatives,

    {f, g} = sum_(a,i) df/dp{a}_{i} dg/dx{a}_{i} - df/dx{a}_{i} dg/dp{a}_{i},

which reproduces {p^a_i, x^b_j} = delta_ij delta_ab on generators; all
other variables (z, lam, mu, w) are central spectators.  Every product of
derivatives is summed into one dict over the shared table of f and g.
"""

from __future__ import annotations

import re
from functools import cache, reduce
from operator import or_

from .multipoly import BITS, FIELD, MultiPoly, _checked, _has_fraction, _nonzero

_P_RE = re.compile(r"^p(\d+)_(\d+)$")


@cache
def _conjugate_fields(table: tuple[str, ...]) -> tuple[tuple[str, str, int, int], ...]:
    """(x name, p name, x field shift, p field shift) of every conjugate
    pair with both names in table, in name order."""
    n = len(table)
    at = {v: BITS * (n - 1 - k) for k, v in enumerate(table)}
    out = []
    for pv in table:
        m = _P_RE.match(pv)
        xv = m and f"x{m.group(1)}_{m.group(2)}"
        if xv in at:
            out.append((xv, pv, at[xv], at[pv]))
    return tuple(sorted(out))


def _add_product(terms: dict, f: MultiPoly, g: MultiPoly, sign: int):
    """Add sign * f * g into terms, zero coefficients kept."""
    get = terms.get
    right = list(g.terms.items())
    for e1, c1 in f.terms.items():
        c1 = c1 * sign
        for e2, c2 in right:
            e = e1 + e2
            terms[e] = get(e, 0) + c1 * c2


def poisson_bracket(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    # one shared table: the derivatives below share it too
    f, g = f._aligned(g)
    # the fields some monomial of each side uses: a pair contributes only
    # if one side has its p and the other its x
    fo, go = reduce(or_, f.terms, 0), reduce(or_, g.terms, 0)
    terms: dict = {}
    for xv, pv, xs, ps in _conjugate_fields(f.vars):
        if fo >> ps & FIELD and go >> xs & FIELD:
            _add_product(terms, f.derivative(pv), g.derivative(xv), 1)
        if fo >> xs & FIELD and go >> ps & FIELD:
            _add_product(terms, f.derivative(xv), g.derivative(pv), -1)
    fractions = _has_fraction(f.terms) or _has_fraction(g.terms)
    return MultiPoly(f.vars, _checked(_nonzero(terms, fractions), len(f.vars)))
