"""Seeded random generators shared by the property tests."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from gaudual.multipoly import MultiPoly
from gaudual.weyl import WeylElement
from gaudual.grassmann import GrassmannAlgebra, GrassmannElement


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_fraction(r: random.Random, span: int = 6) -> Fraction:
    num = r.randint(-span, span)
    den = r.randint(1, 4)
    return Fraction(num, den)


def random_poly(r: random.Random, vars: list[str], max_deg: int = 4,
                terms: int = 4) -> MultiPoly:
    out = MultiPoly.zero()
    for _ in range(r.randint(1, terms)):
        mono = MultiPoly.const(random_fraction(r))
        budget = r.randint(0, max_deg)
        for _ in range(budget):
            mono = mono * MultiPoly.var(r.choice(vars))
        out = out + mono
    return out


def random_weyl(r: random.Random, pairs: list[tuple[int, int]], max_deg: int = 3,
                terms: int = 3) -> WeylElement:
    out = WeylElement.zero()
    for _ in range(r.randint(1, terms)):
        mono = WeylElement.const(random_fraction(r))
        for _ in range(r.randint(0, max_deg)):
            a, i = r.choice(pairs)
            gen = WeylElement.x(a, i) if r.random() < 0.5 else WeylElement.d(a, i)
            mono = mono * gen
        out = out + mono
    return out


def random_grassmann(r: random.Random, alg: GrassmannAlgebra, parity: int,
                     terms: int = 3) -> GrassmannElement:
    """Random homogeneous-parity element of the exterior algebra."""
    n = 2 * alg.M * alg.N
    out = GrassmannElement.zero()
    for _ in range(r.randint(1, terms)):
        size = r.choice([k for k in range(n + 1) if k % 2 == parity and k <= n])
        gens = r.sample(range(n), size)
        mono = GrassmannElement.const(random_fraction(r))
        for g in gens:
            mono = mono * GrassmannElement.generator(g)
        if mono:
            out = out + mono
    return out


@cache
def leibniz_bracket(mn: int, u: int, v: int) -> GrassmannElement:
    """Bracket of two monomial masks over mn canonical pairs by recursive
    graded Leibniz expansion: the oracle for ``GrassmannAlgebra``.  The
    generators g and g + mn are partners, with {g, g + mn} = {g + mn, g} = 1."""
    nu, nv = u.bit_count(), v.bit_count()
    if nu == 0 or nv == 0:
        return GrassmannElement.zero()
    if nu == 1 and nv == 1:
        g, h = u.bit_length() - 1, v.bit_length() - 1
        return GrassmannElement.const(1 if abs(g - h) == mn else 0)
    if nv > 1:
        # v = g * v' with g the lowest generator of v
        g = v & -v
        rest = v ^ g
        left = leibniz_bracket(mn, u, g) * GrassmannElement({rest: 1})
        right = GrassmannElement({g: 1}) * leibniz_bracket(mn, u, rest)
        return left + right * (-1 if nu & 1 else 1)  # (-1)^{|u||g|}, |g| = 1
    # v is a single generator, u is composite: graded skew-symmetry
    return leibniz_bracket(mn, v, u) * (1 if nu & 1 else -1)  # -(-1)^{|u||v|}
