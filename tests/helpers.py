"""Seeded random generators shared by the property tests, and the
oracles, references and conversions that more than one test module uses."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, reduce
from math import comb, perm
from operator import add

import pytest

from gaudual.cyclotomic import CycloInstance, _origin_entries
from gaudual.errors import NotInvertible
from gaudual.gaudin import INF, Divisor, TakiffGen, _cleared, matrix_rows, ratfunc_lax
from gaudual.matrices import _perm_expansion
from gaudual.multipoly import MultiPoly
from gaudual.poisson import poisson_bracket
from gaudual.ratfunc import Poly, RatFunc, expand_factors
from gaudual.runner import _instance, validate_instance
from gaudual.weyl import Z_PAIR, OrderedDiffOp, WeylElement, weyl_commutator
from gaudual.grassmann import GrassmannAlgebra, GrassmannElement


def build_instance(spec: dict):
    """The DualityInstance or CycloInstance that run_instance builds for
    spec, from the job validate_instance returns."""
    return _instance(validate_instance(spec))


def pair_structure(gens: list, matrix):
    """(g1, g2) -> the terms gaudin.matrix_rows(gens, matrix) lists for the
    pair, [] where it lists none; each row is built once."""
    row, index = matrix_rows(gens, matrix), {g: k for k, g in enumerate(gens)}
    rows = cache(row)
    return lambda g1, g2: rows(index[g1]).get(index[g2], [])


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


def matmul(a: list[list], b: list[list]) -> list[list]:
    """The product of two matrices given as lists of rows."""
    return [[reduce(add, (x * y for x, y in zip(row, col))) for col in zip(*b)] for row in a]


def jordan_block_inverse(k: int, x: RatFunc) -> list[list]:
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
    return entries


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


def meet_conjugately(support_a, support_b) -> bool:
    """True when some letter (pair, kind) of support_a has its conjugate
    (pair, 1 - kind) in support_b: the only way a bracket of the three rings
    can contract the two elements."""
    return any((pair, 1 - kind) in support_b for pair, kind in support_a)


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
    same n x n matrix with D^(n-1) divided out by divide_linear, sides giving
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
        power = [(loc, tau * (len(m) - 1)) for loc, tau in divisor.points]
        assert result == _perm_expansion(m).divide_linear(var, power)


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
                m = [list(row) for row in m]
                m[0][-1] = m[0][-1] + by
        return original(m, divide)

    monkeypatch.setattr(module, "_perm_expansion", perturbed)


def check_cleared_against_ratfunc(inst) -> None:
    """Both classical sides of a DualityInstance or a CycloInstance: each
    polynomial entry of the cleared Lax matrix D L equals D times the
    rational-function entry that ratfunc_lax sums from the same pole terms,
    read back as a polynomial in the spectral variable."""
    for lax, divisor, var in ((inst.lax_glM("classical"), inst.div_z, "z"),
                              (inst.lax_glN("classical"), inst.div_lam, "lam")):
        cleared = _cleared(lax, divisor, inst.var, var)
        clearing = RatFunc(var, expand_factors(dict(divisor.points)))
        for got_row, want_row in zip(cleared, ratfunc_lax(lax, var), strict=True):
            for got, f in zip(got_row, want_row, strict=True):
                want = MultiPoly.zero()
                for k, coeff in (f * clearing).to_poly().items():
                    want = want + coeff * MultiPoly.var(var, k)
                assert got == want, (var, got, want)


def order_one_clearing(monkeypatch, *modules) -> None:
    """Patch _cleared in each module so that every pole of order >= 2 gets
    the order-1 quotient: the fault of a quotient memo keyed by the pole
    alone."""
    def faulty(lax, divisor, table, var):
        return _cleared([[[(img, pole, min(order, 1)) for img, pole, order in terms]
                          for terms in row] for row in lax], divisor, table, var)

    for module in modules:
        monkeypatch.setattr(module, "_cleared", faulty)


# -- structure constants, stated pair by pair ----------------------------------
# the references gaudin.matrix_rows is compared against: the Takiff bracket
# formula, and the gl_M^C and sp_2N brackets as the sparse commutator of the
# two basis matrices read off on the canonical basis


def takiff_formula(g1: TakiffGen, g2: TakiffGen, divisor: Divisor) -> list:
    """[E_(ab r), E_(cd s)] = delta_bc E_(ad r+s) - delta_ad E_(cb r+s) at a
    shared finite point, truncated at the Takiff degree; infinity is
    central."""
    if g1.point is INF or g2.point is INF or g1.point != g2.point:
        return []
    depth = g1.depth + g2.depth
    if depth >= divisor.points[g1.point][1]:
        return []
    out = []
    if g1.col == g2.row:
        out.append((1, TakiffGen(g1.point, depth, g1.row, g2.col)))
    if g1.row == g2.col:
        out.append((-1, TakiffGen(g1.point, depth, g2.row, g1.col)))
    return out


def sparse_commutator(e1, e2) -> dict[tuple[int, int], int]:
    """Nonzero entries {(row, column): value} of the commutator [A, B] of two
    matrices given as (row, column, value) entry lists."""
    out: dict = {}
    for sign, left, right in ((1, e1, e2), (-1, e2, e1)):
        for r, k, x in left:
            for k2, c, y in right:
                if k == k2:
                    out[(r, c)] = out.get((r, c), 0) + sign * x * y
    return {rc: v for rc, v in out.items() if v}


def origin_terms(t: int, entries: dict) -> list:
    """An element of the image of Pi_(t), given by its {(row, column): value}
    entries, on the canonical generators: entry (x, y), x <= y, is the
    coefficient of Pi_(t) E_xy, halved where x = y (Pi_(t) E_xx = 2 E_xx)."""
    return [(Fraction(v, 2) if x == y else v, ("or", t, x, y))
            for (x, y), v in entries.items() if x <= y and v]


def glMC_bracket(inst: CycloInstance, g1, g2) -> list:
    """Structure constants of gl_M^C on the canonical generators."""
    if g1[0] == "inf" or g2[0] == "inf":
        return []
    if g1[0] == "pt" and g2[0] == "pt":
        _, i, r, a, b = g1
        _, j, s, c, d = g2
        if i != j or r + s >= inst.C.points[i][1]:
            return []
        out = []
        if b == c:
            out.append((Fraction(1), ("pt", i, r + s, a, d)))
        if a == d:
            out.append((Fraction(-1), ("pt", i, r + s, c, b)))
        return out
    if g1[0] == "or" and g2[0] == "or":
        _, r, a, b = g1
        _, s, c, d = g2
        if r + s >= 2 * inst.C.tau0:
            return []
        # the commutator lies in the image of Pi_(r+s)
        comm = sparse_commutator(_origin_entries(r, a, b), _origin_entries(s, c, d))
        return origin_terms(r + s, comm)
    return []  # pt against origin: disjoint points


def sp_expand(inst: CycloInstance, x: dict) -> dict[tuple[int, int], int | Fraction]:
    """Coefficients on the basis {Ebar_IJ}, (I,J) in I2, of an sp_2N matrix
    given by its nonzero {(row, column): value} entries: Ebar_IJ is the one
    basis matrix with an entry at (pos(I), pos(J)), 1 there, or 2 when J = -I."""
    basis_at = {(inst.pos(I), inst.pos(J)): (I, J) for I, J in inst.I2()}
    out = {}
    for rc, c in x.items():
        basis = basis_at.get(rc)
        if basis:
            out[basis] = Fraction(c, 2) if basis[1] == -basis[0] else c
    return out


def sp_bracket(inst: CycloInstance, g1, g2) -> list:
    """[Ebar^(la)_IJ, Ebar^(lb)_KL] as the sparse commutator of the two basis
    matrices, expanded on the I2 basis; infinity is central."""
    if g1[0] == "inf" or g2[0] == "inf" or g1[1] != g2[1]:
        return []
    comm = sparse_commutator(inst.ebar_entries(g1[2], g1[3]), inst.ebar_entries(g2[2], g2[3]))
    return [(coeff, ("lam", g1[1], I, J)) for (I, J), coeff in sp_expand(inst, comm).items()]
