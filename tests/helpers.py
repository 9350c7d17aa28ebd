"""Seeded random generators shared by the property tests, and the
oracles and conversions that more than one test module uses."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import comb, perm

import pytest

from gaudual.errors import NotInvertible
from gaudual.gaudin import _cleared, _divide_out, ratfunc_lax
from gaudual.matrices import RingMatrix, _perm_expansion
from gaudual.multipoly import MultiPoly
from gaudual.poisson import poisson_bracket
from gaudual.ratfunc import Poly, RatFunc, expand_factors
from gaudual.weyl import Z_PAIR, OrderedDiffOp, WeylElement, weyl_commutator
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


def jordan_block_inverse(k: int, x: RatFunc) -> RingMatrix:
    """Inverse of J_k(x): entry (i, j) is x^-(i-j+1) for i >= j, 0 above."""
    if k < 1:
        raise ValueError("Jordan block size must be positive")
    if not x:
        raise NotInvertible("Jordan block with x = 0 has no inverse")
    xinv = x.invert()
    powers = [None, xinv]
    for _ in range(k - 1):
        powers.append(powers[-1] * xinv)
    zero = RatFunc.const(x.var, 0)
    entries = [
        [powers[i - j + 1] if i >= j else zero for j in range(k)] for i in range(k)
    ]
    return RingMatrix(entries)


def linear(var: str, shift: Fraction) -> RatFunc:
    """X - shift."""
    return RatFunc(var, {1: Fraction(1), 0: -shift} if shift else {1: Fraction(1)})


def reassemble(var: str, poly_part: Poly, pieces: dict) -> RatFunc:
    """Inverse of ``partial_fractions``: the polynomial part plus every
    coeff/(X-point)^order piece."""
    out = RatFunc(var, poly_part)
    for (point, order), coeff in pieces.items():
        out = out + RatFunc(var, {0: coeff}, {point: order})
    return out


def split_z(w: WeylElement) -> dict[tuple[int, int], WeylElement]:
    """Group the terms of w by (z-exponent, Dz-exponent)."""
    out: dict[tuple[int, int], dict] = {}
    for key, c in w.terms.items():
        zx = zd = 0
        rest = []
        for p, x, d in key:
            if p == Z_PAIR:
                zx, zd = x, d
            else:
                rest.append((p, x, d))
        out.setdefault((zx, zd), {})[tuple(rest)] = c
    return {k: WeylElement(t) for k, t in out.items()}


def weyl_to_ordered(w: WeylElement, side: str, var: str) -> OrderedDiffOp:
    """View a polynomial WeylElement as a one-sidedly ordered operator."""
    terms: dict[int, RatFunc] = {}

    def put(power: int, degree: int, coeff: WeylElement):
        f = terms.get(power, RatFunc.const(var, 0))
        terms[power] = f + RatFunc(var, {degree: coeff})

    for (zx, zd), coeff in split_z(w).items():
        if side == "z":
            put(zd, zx, coeff)
        else:
            # W z^j Dz^k with every z moved right:
            # z^j Dz^k = sum_t (-1)^t t! C(j,t) C(k,t) Dz^(k-t) z^(j-t)
            for t in range(min(zx, zd) + 1):
                c = (-1) ** t * perm(zx, t) * comb(zd, t)
                put(zx - t, zd - t, coeff * c)
    return OrderedDiffOp(side, terms)


def classical_limit(w: WeylElement, z_name: str = "z", dz_name: str = "lam") -> MultiPoly:
    """Forget ordering: x^a_i -> x, d^a_i -> p, z -> z, Dz -> dz_name."""
    out = MultiPoly.zero()
    for key, c in w.terms.items():
        term = MultiPoly.const(c)
        for p, x, d in key:
            if p == Z_PAIR:
                if x:
                    term = term * MultiPoly.var(z_name, x)
                if d:
                    term = term * MultiPoly.var(dz_name, d)
            else:
                if x:
                    term = term * MultiPoly.var(f"x{p}", x)
                if d:
                    term = term * MultiPoly.var(f"p{p}", d)
        out = out + term
    return out


def check_commutativity_reference(generators: list, flavor: str) -> dict:
    """The direct form of gaudin.check_commutativity, kept as its oracle:
    every pair i <= j is bracketed, self-pairs included."""
    bracket = weyl_commutator if flavor == "quantum" else poisson_bracket
    pairs = 0
    for i in range(len(generators)):
        for j in range(i, len(generators)):
            pairs += 1
            bad = bracket(generators[i], generators[j])
            if bad:
                return {
                    "status": "fail",
                    "pairs_checked": pairs,
                    "witness": {"pair": (i, j), "bracket": repr(bad)},
                }
    return {"status": "pass", "pairs_checked": pairs}


def check_per_step_division(module, run, sides: list) -> None:
    """run() with module._perm_expansion recording every call given a
    per-step divider: each result must equal the undivided expansion of the
    same n x n matrix with D^(n-1) divided out by _divide_out, sides giving
    the (divisor, spectral variable) of D for each call in order."""
    calls = []
    original = module._perm_expansion

    def recording(m, divide=None):
        result = original(m, divide)
        if divide is not None:
            calls.append((m, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_perm_expansion", recording)
        run()
    assert len(calls) == len(sides)
    for (m, result), (divisor, var) in zip(calls, sides):
        assert result == _divide_out(_perm_expansion(m), divisor, var, m.rows - 1)


def perturb_divided_expansion(monkeypatch, module, call: int, by=1) -> None:
    """Add `by` to the off-diagonal entry (0, n - 1) of the matrix of the
    call-th (from 0) per-step divided expansion module._perm_expansion makes:
    the 2 x 2 minors on the last two columns, the first the recursion grows,
    then need not be divisible by the clearing polynomial."""
    original = module._perm_expansion
    seen = []

    def perturbed(m, divide=None):
        if divide is not None:
            seen.append(m)
            if len(seen) == call + 1:
                rows = [list(row) for row in m.entries]
                rows[0][-1] = rows[0][-1] + by
                m = RingMatrix(rows)
        return original(m, divide)

    monkeypatch.setattr(module, "_perm_expansion", perturbed)


def check_cleared_against_ratfunc(inst) -> None:
    """Both classical sides of a DualityInstance: each polynomial entry of
    the cleared Lax matrix D L equals D times the rational-function entry
    that ratfunc_lax sums from the same pole terms, read back as a
    polynomial in the spectral variable."""
    for lax, divisor, var in ((inst.lax_glM("classical"), inst.div_z, "z"),
                              (inst.lax_glN("classical"), inst.div_lam, "lam")):
        cleared = _cleared(lax, divisor.clearing_poly(inst.var[var]), var)
        clearing = RatFunc(var, expand_factors(dict(divisor.points)))
        for got_row, want_row in zip(cleared, ratfunc_lax(lax, var).entries, strict=True):
            for got, f in zip(got_row, want_row, strict=True):
                want = MultiPoly.zero()
                for k, coeff in (f * clearing).to_poly().items():
                    want = want + coeff * MultiPoly.var(var, k)
                assert got == want, (var, got, want)


def order_one_clearing(monkeypatch, *modules) -> None:
    """Patch _cleared in each module so that every pole of order >= 2 gets
    the order-1 quotient: the fault of a quotient memo keyed by the pole
    alone."""
    def faulty(lax, clearing, var):
        return _cleared([[[(img, pole, min(order, 1)) for img, pole, order in terms]
                          for terms in row] for row in lax], clearing, var)

    for module in modules:
        monkeypatch.setattr(module, "_cleared", faulty)
