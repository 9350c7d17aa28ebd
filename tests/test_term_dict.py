"""The arithmetic the Weyl and Grassmann elements share through
scalars.TermDict, and the order in which a product forms coefficient
products."""

from fractions import Fraction

import pytest

from gaudual.grassmann import GrassmannElement
from gaudual.multipoly import MultiPoly
from gaudual.weyl import WeylElement

Q = Fraction
G = GrassmannElement.generator


@pytest.mark.parametrize("a", [WeylElement.x(1, 1) * Q(1, 2) + WeylElement.d(1, 2),
                               G(0) * Q(1, 2) + G(1)], ids=["weyl", "grassmann"])
def test_shared_term_dict_contract(a):
    cls = type(a)
    for s in (2, Q(2, 3)):
        assert a + s == s + a == a + cls.const(s)
        assert a - s == a + (-s)
        assert s - a == -(a - s) == cls.const(s) - a
        assert cls.const(s) == s and s == cls.const(s)
        assert a != s
    assert (0 * a).terms == {} and (a * 0).terms == {}
    assert 1 - a == cls.const(1) - a
    assert a ** 0 == 1 and a ** 1 == a and a ** 2 == a * a
    # an integral Fraction coefficient is stored as an int
    assert cls.const(Q(4, 2)).terms == {cls.ONE: 2}
    assert all(type(c) is int for c in (a * Q(2)).terms.values())
    z = MultiPoly.var("z")
    if cls is WeylElement:
        with pytest.raises(TypeError):
            a * z
        with pytest.raises(TypeError):
            z * a
    else:
        assert (a * z).terms == {k: c * z for k, c in a.terms.items()}
        assert z * a == a * z
    other = G(0) if cls is WeylElement else WeylElement.x(1, 1)
    with pytest.raises(TypeError):
        a + other
    with pytest.raises(TypeError):
        a * other


def test_grassmann_product_multiplies_coefficients_only_where_the_wedge_is_not_zero(
        monkeypatch):
    z, lam = MultiPoly.var("z"), MultiPoly.var("lam")
    a = G(0) * z + G(1) * lam
    b = G(0) * lam + G(1) * z + G(2) * (z + lam)
    want = G(0) * G(1) * (z * z - lam * lam) + G(0) * G(2) * (z * (z + lam)) \
        + G(1) * G(2) * (lam * (z + lam))
    # of the six term pairs, g0 ^ g0 and g1 ^ g1 vanish
    products = []
    mul = MultiPoly.__mul__

    def spy(self, other):
        if isinstance(other, MultiPoly):
            products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", spy)
    got = a * b
    monkeypatch.undo()
    assert len(products) == 4
    assert got == want
