"""RatFunc against the field axioms on random rational functions whose
poles lie in a fixed pool, exact reciprocals, partial fractions
reassembling to the function they decompose, and the reduced form of every
arithmetic result over scalar and ring-valued numerators."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gaudual.grassmann import GrassmannElement  # noqa: E402
from gaudual.multipoly import MultiPoly  # noqa: E402
from gaudual.ratfunc import (RatFunc, expand_factors, partial_fractions, poly_add,  # noqa: E402
                             poly_derivative, poly_mul, poly_scale)
from gaudual.weyl import WeylElement  # noqa: E402
from helpers import linear, reassemble  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)
POLES = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2))
MAX_ORDER = 2
# numerator roots: the poles, so that factors cancel, and points off the pool
ROOTS = POLES + (Fraction(3), Fraction(-1, 3))

coeffs = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)
denominators = st.dictionaries(st.sampled_from(POLES), st.integers(1, MAX_ORDER), max_size=3)
ratfuncs = st.builds(lambda num, den: RatFunc("z", dict(enumerate(num)), den),
                     st.lists(coeffs, max_size=4), denominators)


@st.composite
def split_ratfuncs(draw):
    """A nonzero c prod (z - r) / prod (z - p)^k: its numerator splits over
    the rationals, so it has an exact reciprocal."""
    f = RatFunc("z", {0: draw(coeffs.filter(bool))}, draw(denominators))
    for root in draw(st.lists(st.sampled_from(ROOTS), max_size=3)):
        f = f * linear("z", root)
    return f


@SETTINGS
@given(ratfuncs, ratfuncs)
def test_add_and_mul_commute(f, g):
    assert f + g == g + f
    assert f * g == g * f


@SETTINGS
@given(ratfuncs, ratfuncs, ratfuncs)
def test_add_and_mul_associate(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)


@SETTINGS
@given(ratfuncs, ratfuncs, ratfuncs)
def test_mul_distributes_over_add(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@SETTINGS
@given(split_ratfuncs())
def test_reciprocal_is_exact(f):
    assert f * f.invert() == 1


@SETTINGS
@given(ratfuncs)
def test_partial_fractions_reassemble(f):
    poly, pieces = partial_fractions(f, [(p, MAX_ORDER) for p in POLES])
    assert reassemble("z", poly, pieces) == f


# -- reduced form of arithmetic results ---------------------------------------

PSI1, PSI2 = GrassmannElement.generator(0), GrassmannElement.generator(1)
maybe_zero = st.one_of(st.just(0), coeffs)
# numerator coefficient rings; the Grassmann elements are often nilpotent,
# so that two of them can multiply to zero
RINGS = {
    "fraction": coeffs,
    "multipoly": st.builds(lambda a, b, c: MultiPoly.const(a) + MultiPoly.var("x") * b
                           + MultiPoly.var("y", 2) * c, maybe_zero, coeffs, coeffs),
    "weyl": st.builds(lambda a, b, c: WeylElement.const(a) + WeylElement.x(1, 1) * b
                      + WeylElement.d(1, 1) * c, maybe_zero, coeffs, coeffs),
    "grassmann": st.builds(lambda a, b, c, d: GrassmannElement.const(a) + PSI1 * b + PSI2 * c
                           + PSI1 * PSI2 * d, maybe_zero, coeffs, coeffs, coeffs),
}


def ratfuncs_over(ring):
    """c(z) prod (z - r) / prod (z - p)^k, c with coefficients in `ring`:
    the factors make cancellations against the poles likely."""
    factors = st.dictionaries(st.sampled_from(ROOTS), st.integers(1, MAX_ORDER), max_size=2)
    return st.builds(
        lambda c, fac, den: RatFunc("z", poly_mul(dict(enumerate(c)), expand_factors(fac)), den),
        st.lists(ring, max_size=3), factors, denominators)


def assert_reduced(f: RatFunc, want: RatFunc):
    """f is the fully reduced form of want's value: the checking
    constructor gives it back unchanged, and it is want's form."""
    again = RatFunc(f.var, f.num, f.den)
    assert again.num == f.num and again.den == f.den
    assert f.den == want.den and f.num == want.num


def _sum_den(f: RatFunc, g: RatFunc) -> dict:
    return {r: f.den.get(r, 0) + g.den.get(r, 0) for r in set(f.den) | set(g.den)}


def naive_sum(f: RatFunc, g: RatFunc) -> RatFunc:
    num = poly_add(poly_mul(f.num, expand_factors(g.den)), poly_mul(g.num, expand_factors(f.den)))
    return RatFunc("z", num, _sum_den(f, g))


@SETTINGS
@given(denominators, st.randoms(use_true_random=False))
def test_expand_factors_ignores_the_order_of_its_factors(factors, random):
    items = list(factors.items())
    random.shuffle(items)
    want = {0: Fraction(1)}
    for root, mult in items:
        for _ in range(mult):
            want = poly_mul(want, {1: Fraction(1), 0: -root})
    assert expand_factors(dict(items)) == expand_factors(factors) == want


@SETTINGS
@given(denominators, coeffs)
def test_expand_factors_hands_out_a_dict_of_the_callers_own(factors, c):
    want = dict(expand_factors(factors))
    got = expand_factors(factors)
    got[0] = c
    got[7] = 1
    assert expand_factors(factors) == want
    got.clear()
    assert expand_factors(factors) == want


def naive_product(f: RatFunc, g: RatFunc) -> RatFunc:
    return RatFunc("z", poly_mul(f.num, g.num), _sum_den(f, g))


def naive_derivative(f: RatFunc) -> RatFunc:
    # (N' D - N D') / D^2
    d = expand_factors(f.den)
    num = poly_add(poly_mul(poly_derivative(f.num), d),
                   poly_scale(poly_mul(f.num, poly_derivative(d)), -1))
    return RatFunc("z", num, {r: 2 * m for r, m in f.den.items()})


@pytest.mark.parametrize("ring", RINGS)
@SETTINGS
@given(data=st.data())
def test_arithmetic_results_are_reduced(ring, data):
    f, g = data.draw(ratfuncs_over(RINGS[ring])), data.draw(ratfuncs_over(RINGS[ring]))
    scalar = data.draw(ratfuncs_over(coeffs))
    c, e = data.draw(coeffs), data.draw(RINGS[ring])
    assert_reduced(f + g, naive_sum(f, g))
    assert_reduced(f - g, naive_sum(f, RatFunc("z", poly_scale(g.num, -1), g.den)))
    # where g's order is the higher, f + g and g tie and the difference cancels
    assert_reduced((f + g) - g, f)
    assert_reduced(-f, RatFunc("z", poly_scale(f.num, -1), f.den))
    assert_reduced(f * g, naive_product(f, g))
    assert_reduced(f * scalar, naive_product(f, scalar))
    assert_reduced(scalar * f, naive_product(scalar, f))
    assert_reduced(f * c, RatFunc("z", poly_scale(f.num, c), f.den))
    assert_reduced(f * e, RatFunc("z", {k: v * e for k, v in f.num.items()}, f.den))
    assert_reduced(e * f, RatFunc("z", {k: e * v for k, v in f.num.items()}, f.den))
    assert_reduced(f.derivative(), naive_derivative(f))


def test_a_tie_in_a_sum_cancels():
    # 1/(z-1) + (z-2)/(z-1) = 1
    one = RatFunc("z", {0: 1}, {Fraction(1): 1}) + RatFunc("z", {1: 1, 0: -2}, {Fraction(1): 1})
    assert one.den == {} and one.num == {0: 1}


def test_a_grassmann_product_cancels_through_a_zero_divisor():
    # psi1/(z-1) * (psi1 + (z-1) psi2) = psi1 psi2: psi1 psi1 = 0 cancels the pole
    f = RatFunc("z", {0: PSI1}, {Fraction(1): 1})
    g = RatFunc("z", {0: PSI1 - PSI2, 1: PSI2})
    h = f * g
    assert h.den == {} and h.num == {0: PSI1 * PSI2}
