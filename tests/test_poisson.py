import re
from fractions import Fraction

import pytest

from gaudual.errors import ExponentOverflow
from gaudual.multipoly import MultiPoly
from gaudual.poisson import poisson_bracket
from helpers import rng, random_poly

_P_RE = re.compile(r"^p(\d+)_(\d+)$")

x11 = MultiPoly.var("x1_1")
p11 = MultiPoly.var("p1_1")
x21 = MultiPoly.var("x2_1")
p21 = MultiPoly.var("p2_1")


def test_generator_brackets():
    assert poisson_bracket(p11, x11) == 1
    assert poisson_bracket(x11, p11) == -1
    assert poisson_bracket(x11, x11) == 0
    assert poisson_bracket(p11, p11) == 0
    assert poisson_bracket(p11, x21) == 0


def test_leibniz_from_generators():
    assert poisson_bracket(p11 * p11, x11) == 2 * p11


def test_spectators_are_central():
    z = MultiPoly.var("z")
    lam = MultiPoly.var("lam")
    f = z * lam * x11
    assert poisson_bracket(f, z) == 0
    assert poisson_bracket(f, p11) == -z * lam


def test_jacobi_random():
    r = rng(21)
    vars = ["x1_1", "p1_1", "x2_1", "p2_1"]
    for _ in range(50):
        a = random_poly(r, vars, max_deg=3)
        b = random_poly(r, vars, max_deg=3)
        c = random_poly(r, vars, max_deg=3)
        jac = (
            poisson_bracket(a, poisson_bracket(b, c))
            + poisson_bracket(b, poisson_bracket(c, a))
            + poisson_bracket(c, poisson_bracket(a, b))
        )
        assert jac == 0


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


def test_agrees_with_leibniz_oracle():
    r = rng(22)
    vars = ["x1_1", "p1_1", "x2_1", "p2_1", "z"]
    for _ in range(50):
        a = random_poly(r, vars, max_deg=3)
        b = random_poly(r, vars, max_deg=3)
        assert poisson_bracket(a, b) == poisson_bracket_leibniz(a, b)


def test_antisymmetry_and_leibniz_property():
    r = rng(23)
    vars = ["x1_1", "p1_1", "x2_1", "p2_1"]
    for _ in range(25):
        a = random_poly(r, vars)
        b = random_poly(r, vars)
        c = random_poly(r, vars)
        assert poisson_bracket(a, b) == -poisson_bracket(b, a)
        assert poisson_bracket(a, b * c) == (
            poisson_bracket(a, b) * c + b * poisson_bracket(a, c)
        )


def test_bracket_exponent_overflow_raises():
    # the only product, x1_1^20000 * 20000 x1_1^19999, overflows its field
    big = MultiPoly.var("x1_1", 20000)
    with pytest.raises(ExponentOverflow):
        poisson_bracket(big * p11, big)


def test_each_polynomial_is_differentiated_once_per_variable(monkeypatch):
    # f against several g, twice over: every (polynomial, variable) pair is
    # differentiated at most once, and only where the other side uses the
    # conjugate variable
    table = ("x1_1", "x2_1", "p1_1", "p2_1", "z")
    f = (x11 * p21 + x21 * p11 * MultiPoly.var("z")).lift_to(table)
    gs = [p.lift_to(table) for p in (x11, p11 * p21, x21 * x21, MultiPoly.var("z"))]
    calls = []
    derivative = MultiPoly.derivative
    monkeypatch.setattr(MultiPoly, "derivative",
                        lambda self, name: calls.append((id(self), name)) or derivative(self, name))
    want = [poisson_bracket(f, g) for g in gs]
    assert [poisson_bracket(f, g) for g in gs] == want
    assert len(calls) == len(set(calls))
    # f uses x1_1, x2_1, p1_1, p2_1; the g's ask for all four but nothing of z
    assert sorted(name for key, name in calls if key == id(f)) == ["p1_1", "p2_1", "x1_1", "x2_1"]
