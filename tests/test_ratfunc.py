from fractions import Fraction

import pytest

from gaudual.errors import NotInvertible, UnlistedPole, ZeroInverse
from gaudual.multipoly import MultiPoly
from gaudual.ratfunc import (
    RatFunc,
    partial_fractions,
    poly_divide_linear,
    poly_mul,
    rational_roots,
)
from helpers import linear, reassemble, rng, random_fraction

Q = Fraction


def test_invert_linear():
    f = linear("z", Q(2))  # z - 2
    g = f.invert()
    assert g.num == {0: Q(1)}
    assert g.den == {Q(2): 1}
    assert f * g == RatFunc.const("z", 1)


def test_invert_identity():
    one = RatFunc.const("z", Q(1))
    assert one.invert() == one


def test_invert_requires_splitting_numerator():
    # (z^2 - 1)/z inverts to z/(z^2 - 1); cross-check by multiplying back
    f = RatFunc("z", {2: Q(1), 0: Q(-1)}, {Q(0): 1})
    g = f.invert()
    assert f * g == RatFunc.const("z", 1)
    assert g.den == {Q(1): 1, Q(-1): 1}
    bad = RatFunc("z", {2: Q(1), 0: Q(1)})  # z^2 + 1 has no rational roots
    with pytest.raises(NotInvertible):
        bad.invert()


def test_invert_zero_raises():
    with pytest.raises(ZeroInverse):
        RatFunc.const("z", 0).invert()


def test_partial_fractions_two_simple_poles():
    f = RatFunc("z", {0: Q(1)}, {Q(1): 1, Q(2): 1})
    poly, pieces = partial_fractions(f, [(Q(1), 1), (Q(2), 1)])
    assert poly == {}
    assert pieces == {(Q(1), 1): Q(-1), (Q(2), 1): Q(1)}


def test_partial_fractions_polynomial_passthrough():
    f = RatFunc("z", {3: Q(1)})
    poly, pieces = partial_fractions(f, [])
    assert poly == {3: Q(1)}
    assert pieces == {}


def test_partial_fractions_double_pole():
    # z/(z-1)^2 = 1/(z-1) + 1/(z-1)^2  (expand z = (z-1) + 1)
    f = RatFunc("z", {1: Q(1)}, {Q(1): 2})
    poly, pieces = partial_fractions(f, [(Q(1), 2)])
    assert poly == {}
    assert pieces == {(Q(1), 1): Q(1), (Q(1), 2): Q(1)}


def test_partial_fractions_unlisted_pole():
    f = RatFunc("z", {0: Q(1)}, {Q(3): 1})
    with pytest.raises(UnlistedPole):
        partial_fractions(f, [(Q(1), 1)])
    with pytest.raises(UnlistedPole):
        partial_fractions(RatFunc("z", {0: Q(1)}, {Q(1): 2}), [(Q(1), 1)])


def test_partial_fractions_roundtrip_random():
    r = rng(77)
    pole_pool = [Q(0), Q(1), Q(-2), Q(1, 2), Q(3)]
    for _ in range(50):
        den = {}
        for p in r.sample(pole_pool, r.randint(1, 3)):
            den[p] = r.randint(1, 3)
        num = {k: random_fraction(r) for k in range(r.randint(1, 4))}
        num = {k: c for k, c in num.items() if c} or {0: Q(1)}
        f = RatFunc("z", num, den)
        poly, pieces = partial_fractions(f, [(p, 3) for p in pole_pool])
        assert reassemble("z", poly, pieces) == f


def test_ratfunc_matches_multipoly_after_clearing():
    r = rng(5)
    for _ in range(25):
        a_num = {k: random_fraction(r) for k in range(3)}
        b_num = {k: random_fraction(r) for k in range(3)}
        a = RatFunc("z", a_num, {Q(1): 1})
        b = RatFunc("z", b_num, {Q(2): 2})
        total = a * b + b
        # clear denominators and compare against plain polynomial arithmetic
        den = {Q(1): 1, Q(2): 2}
        cleared = total * RatFunc("z", {0: Q(1)})  # copy
        for root, mult in den.items():
            for _ in range(mult):
                cleared = cleared * linear("z", root)
        assert not cleared.den

        def lift(num, den_shift):
            z = MultiPoly.var("z")
            poly = MultiPoly.zero()
            for k, c in num.items():
                poly = poly + MultiPoly.var("z", k, c) if k else poly + c
            return poly

        za = lift(a_num, None)
        zb = lift(b_num, None)
        z = MultiPoly.var("z")
        # a*b + b over common denominator (z-1)(z-2)^2:
        expected = za * zb + zb * (z - 1)
        got = MultiPoly.zero()
        for k, c in cleared.num.items():
            got = got + MultiPoly.var("z", k, c) if k else got + c
        assert got == expected


def test_cancellation_on_construction():
    # ((z-1) * x) / (z-1) -> x handled at the RatFunc level with scalar x
    f = RatFunc("z", {1: Q(1), 0: Q(-1)}, {Q(1): 1})
    assert not f.den
    assert f.num == {0: Q(1)}


@pytest.mark.parametrize("root", [Q(3), Q(-2), Q(0)])
def test_division_by_an_integral_root_keeps_integer_coefficients(root):
    # the Horner pass multiplies by the root as an int, so an integer
    # numerator has an integer quotient
    factor = {2: 2, 1: -1, 0: 4}
    quot = poly_divide_linear(poly_mul({1: 1, 0: -int(root)}, factor), root)
    assert quot == factor
    assert all(type(c) is int for c in quot.values())


def test_rational_roots_factoring():
    # 2(z-1)(z+3/2)z = 2z^3 + z^2 - 3z
    poly = {3: Q(2), 2: Q(1), 1: Q(-3)}
    roots, rest = rational_roots(poly)
    assert roots == {Q(1): 1, Q(-3, 2): 1, Q(0): 1}
    assert rest == {0: Q(2)}


def test_derivative_factored():
    f = RatFunc("z", {0: Q(1)}, {Q(1): 1})  # 1/(z-1)
    df = f.derivative()
    assert df == RatFunc("z", {0: Q(-1)}, {Q(1): 2})
    g = RatFunc("z", {2: Q(1)})  # z^2
    assert g.derivative() == RatFunc("z", {1: Q(2)})
