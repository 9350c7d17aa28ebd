"""The Grassmann algebra and its graded bracket against the defining
properties on random homogeneous elements, the monomial bracket against a
recursive Leibniz oracle, and the coefficient convention."""

from fractions import Fraction
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gaudual.grassmann import GrassmannAlgebra, GrassmannElement  # noqa: E402
from helpers import leibniz_bracket, meet_conjugately  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)
# M = 2, N = 2: eight generators, psi's on bits 0-3 and their partners on 4-7
ALG = GrassmannAlgebra(2, 2)
NGEN = 2 * ALG.M * ALG.N

coeffs = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


@st.composite
def homogeneous(draw, parity=None):
    """(element, parity) with up to three monomials of one parity."""
    if parity is None:
        parity = draw(st.integers(0, 1))
    terms: dict = {}
    for mask, c in draw(st.lists(st.tuples(st.integers(0, 2 ** NGEN - 1), coeffs),
                                 max_size=3)):
        if mask.bit_count() % 2 != parity:
            mask ^= 1
        terms[mask] = terms.get(mask, 0) + c
    return GrassmannElement(terms), parity


def sign(p: int, q: int) -> int:
    return -1 if p * q % 2 else 1


@SETTINGS
@given(homogeneous(), homogeneous(), homogeneous())
def test_wedge_is_associative(x, y, w):
    (a, _), (b, _), (c, _) = x, y, w
    assert (a * b) * c == a * (b * c)


@SETTINGS
@given(homogeneous(), homogeneous())
def test_wedge_is_supercommutative(x, y):
    (a, p), (b, q) = x, y
    assert a * b == b * a * sign(p, q)


@SETTINGS
@given(homogeneous(), homogeneous())
def test_bracket_is_graded_skew_symmetric(x, y):
    (a, p), (b, q) = x, y
    assert ALG.graded_bracket(a, b) == ALG.graded_bracket(b, a) * -sign(p, q)


@SETTINGS
@given(homogeneous(), homogeneous())
def test_disjoint_supports_give_a_zero_bracket(x, y):
    """b keeps only the monomials that use no partner of a generator a uses,
    so it may share generators with a: no letter of either support has its
    conjugate in the other, and the bracket is zero both ways."""
    (a, _), (b, _) = x, y
    mn = ALG.M * ALG.N
    support = ALG.support(a)
    assert support == {(k % mn, k // mn) for m in a.terms for k in range(NGEN) if m >> k & 1}
    forbidden = sum(1 << (k + (1 - kind) * mn) for k, kind in support)
    b = GrassmannElement({m: c for m, c in b.terms.items() if not m & forbidden})
    assert not meet_conjugately(support, ALG.support(b))
    assert not ALG.graded_bracket(a, b) and not ALG.graded_bracket(b, a)


@SETTINGS
@given(homogeneous(), homogeneous(), homogeneous())
def test_bracket_obeys_graded_leibniz(x, y, w):
    (a, p), (b, q), (c, _) = x, y, w
    lhs = ALG.graded_bracket(a, b * c)
    assert lhs == ALG.graded_bracket(a, b) * c + b * ALG.graded_bracket(a, c) * sign(p, q)


@SETTINGS
@given(homogeneous(), homogeneous(), homogeneous())
def test_bracket_obeys_graded_jacobi(x, y, w):
    (a, p), (b, q), (c, r) = x, y, w
    br = ALG.graded_bracket
    total = (br(a, br(b, c)) * sign(p, r) + br(b, br(c, a)) * sign(q, p)
             + br(c, br(a, b)) * sign(r, q))
    assert total == 0


def test_monomial_bracket_matches_leibniz_oracle_on_every_mask_pair():
    mn = ALG.M * ALG.N
    for u, v in product(range(2 ** NGEN), repeat=2):
        got = ALG.graded_bracket(GrassmannElement({u: 1}), GrassmannElement({v: 1}))
        assert got == leibniz_bracket(mn, u, v), (u, v)


@SETTINGS
@given(homogeneous(), homogeneous())
def test_integral_coefficients_are_ints(x, y):
    (a, _), (b, _) = x, y
    for element in (a, a + b, a - b, a * b, a * Fraction(2), ALG.graded_bracket(a, b),
                    GrassmannElement.const(Fraction(4, 2))):
        assert all(type(c) is int for c in element.terms.values() if c.denominator == 1)


def test_repr_is_the_same_for_int_and_fraction_coefficients():
    for mask, c in ((0, 3), (0b101, -2), (0b10010, 1), (0b11, 0)):
        assert repr(GrassmannElement({mask: c})) == repr(GrassmannElement({mask: Fraction(c)}))
    assert repr(GrassmannElement({0b11: Fraction(-3, 2)})) == "(-3/2)*g0^g1"
