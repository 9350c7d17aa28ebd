"""Canonical Poisson bracket on polynomials in x{a}_{i}, p{a}_{i}.

The bracket is computed from formal partial derivatives,

    {f, g} = sum_(a,i) df/dp{a}_{i} dg/dx{a}_{i} - df/dx{a}_{i} dg/dp{a}_{i},

which reproduces {p^a_i, x^b_j} = delta_ij delta_ab on generators; all
other variables (z, lam, mu, w) are central spectators.
"""

from __future__ import annotations

import re
from functools import cache

from .multipoly import MultiPoly

_P_RE = re.compile(r"^p(\d+)_(\d+)$")


@cache
def _position_of(name: str) -> str | None:
    """x{a}_{i} for the momentum p{a}_{i}; None for any other name."""
    m = _P_RE.match(name)
    return f"x{m.group(1)}_{m.group(2)}" if m else None


def conjugate_pairs(f: MultiPoly, g: MultiPoly) -> list[tuple[str, str]]:
    names = set(f.vars) | set(g.vars)
    return sorted((xv, pv) for pv in names if (xv := _position_of(pv)))


def poisson_bracket(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    # a derivative by a name outside a polynomial's own table is zero
    fv, gv = set(f.vars), set(g.vars)
    # one shared table: the derivative products below never re-align
    f, g = f._aligned(g)
    out = MultiPoly(f.vars, {})
    for xv, pv in conjugate_pairs(f, g):
        if pv in fv and xv in gv:
            out = out + f.derivative(pv) * g.derivative(xv)
        if xv in fv and pv in gv:
            out = out - f.derivative(xv) * g.derivative(pv)
    return out

