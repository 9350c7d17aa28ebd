"""Canonical Poisson bracket on polynomials in x{a}_{i}, p{a}_{i}.

The bracket is computed from formal partial derivatives,

    {f, g} = sum_(a,i) df/dp{a}_{i} dg/dx{a}_{i} - df/dx{a}_{i} dg/dp{a}_{i},

which reproduces {p^a_i, x^b_j} = delta_ij delta_ab on generators; all
other variables (z, lam, mu, w) are central spectators.  A recursive
Leibniz expansion is kept alongside as an independent oracle for tests.
"""

from __future__ import annotations

import re
from fractions import Fraction
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


def _monomial(vars, exps) -> MultiPoly:
    out = MultiPoly.const(1)
    for v, e in zip(vars, exps):
        if e:
            out = out * MultiPoly.var(v, e)
    return out


def _generator_bracket(u: str, v: str) -> Fraction:
    mu, mv = _P_RE.match(u), _P_RE.match(v)
    if mu and v == f"x{mu.group(1)}_{mu.group(2)}":
        return Fraction(1)
    if mv and u == f"x{mv.group(1)}_{mv.group(2)}":
        return Fraction(-1)
    return Fraction(0)


def poisson_bracket_leibniz(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Independent oracle: bilinear + Leibniz recursion from the generator
    bracket, never touching derivatives."""

    def mono_bracket(vars_f, ef, vars_g, eg) -> MultiPoly:
        # peel one variable off the first monomial
        first = next((k for k, e in enumerate(ef) if e), None)
        if first is None:
            return MultiPoly.zero()
        u = vars_f[first]
        rest = list(ef)
        rest[first] -= 1
        rest_mono = _monomial(vars_f, rest)
        u_poly = MultiPoly.var(u)
        # {u*rest, G} = u*{rest, G} + {u, G}*rest
        out = u_poly * mono_bracket(vars_f, tuple(rest), vars_g, eg)
        out = out + single_bracket(u, vars_g, eg) * rest_mono
        return out

    def single_bracket(u: str, vars_g, eg) -> MultiPoly:
        first = next((k for k, e in enumerate(eg) if e), None)
        if first is None:
            return MultiPoly.zero()
        v = vars_g[first]
        rest = list(eg)
        rest[first] -= 1
        rest_mono = _monomial(vars_g, rest)
        out = MultiPoly.var(v) * single_bracket(u, vars_g, tuple(rest))
        c = _generator_bracket(u, v)
        if c:
            out = out + rest_mono * c
        return out

    out = MultiPoly.zero()
    for ef, cf in f.terms.items():
        for eg, cg in g.terms.items():
            out = out + mono_bracket(f.vars, f.unpack(ef), g.vars, g.unpack(eg)) * (cf * cg)
    return out
