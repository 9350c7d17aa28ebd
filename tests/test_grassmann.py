from fractions import Fraction

import pytest

from gaudual.errors import InhomogeneousInput
from gaudual.grassmann import GrassmannAlgebra, GrassmannElement
from gaudual.multipoly import MultiPoly
from gaudual.ratfunc import RatFunc
from helpers import rng, random_grassmann

Q = Fraction


def alg22():
    return GrassmannAlgebra(2, 2)


def test_anticommutation():
    a = alg22()
    psi, pi = a.psi(1, 1), a.pi(1, 1)
    assert psi * pi == -(pi * psi)


def test_nilpotency():
    a = alg22()
    psi = a.psi(2, 1)
    assert psi * psi == 0


def test_even_square_of_pair_vanishes():
    a = alg22()
    w = a.pi(1, 1) * a.psi(1, 1)
    assert w * w == 0


def test_defining_bracket():
    a = alg22()
    assert a.graded_bracket(a.pi(1, 1), a.psi(1, 1)) == 1
    assert a.graded_bracket(a.psi(1, 1), a.pi(1, 1)) == 1
    assert a.graded_bracket(a.psi(1, 1), a.psi(2, 1)) == 0
    assert a.graded_bracket(a.psi(1, 1), a.pi(2, 2)) == 0


def test_bracket_of_disjoint_pairs_vanishes():
    a = alg22()
    u = a.pi(1, 1) * a.psi(1, 1)
    v = a.pi(2, 2) * a.psi(2, 2)
    assert a.graded_bracket(u, v) == 0


def test_support_folds_each_pair_onto_one_index():
    """A letter is (index mod MN, kind), kind 0 for psi and 1 for pi; two
    elements that share only letters of one kind bracket to zero."""
    a = alg22()
    assert a.support(a.pi(1, 2) * a.psi(1, 2)) == {(1, 0), (1, 1)}
    assert a.support(a.pi(2, 1) * a.psi(1, 1) + GrassmannElement.const(3)) == {(2, 1), (0, 0)}
    assert a.support(GrassmannElement.const(5)) == frozenset()
    u, v = a.psi(1, 1) * a.psi(2, 1), a.psi(1, 1) * a.pi(2, 2)
    assert a.support(u) & a.support(v) == {(0, 0)}
    assert a.graded_bracket(u, v) == 0 and a.graded_bracket(v, u) == 0


def test_bracket_rejects_mixed_parity():
    a = alg22()
    mixed = a.psi(1, 1) + a.psi(1, 1) * a.pi(1, 1)
    with pytest.raises(InhomogeneousInput):
        a.graded_bracket(mixed, a.psi(1, 1))


def test_a_mixed_element_is_rejected_on_every_call():
    """The kept parity never stands in for a mixed element."""
    a = alg22()
    mixed = a.psi(1, 1) + a.psi(1, 1) * a.pi(1, 1)
    for left, right in ((mixed, a.psi(1, 1)), (a.pi(1, 1), mixed), (mixed, mixed)):
        with pytest.raises(InhomogeneousInput):
            a.graded_bracket(left, right)
    with pytest.raises(InhomogeneousInput):
        mixed.parity()


def test_kept_parities():
    a = alg22()
    psi, even = a.psi(1, 1), a.pi(1, 1) * a.psi(2, 1)
    assert GrassmannElement.zero().parity() == 0
    assert (psi * 0).parity() == 0
    assert (psi * psi).parity() == 0
    assert GrassmannElement.const(3).parity() == 0
    for _ in range(2):
        assert psi.parity() == 1
        assert even.parity() == 0
    # arithmetic results work out their own parity
    assert (psi * even).parity() == 1
    assert (even * psi * a.pi(2, 2)).parity() == 0
    assert (-psi).parity() == 1


def test_graded_skew_symmetry_random():
    r = rng(55)
    a = alg22()
    for _ in range(40):
        pu, pv = r.choice([0, 1]), r.choice([0, 1])
        u = random_grassmann(r, a, pu)
        v = random_grassmann(r, a, pv)
        sign = (-1) ** (pu * pv)
        assert a.graded_bracket(u, v) == a.graded_bracket(v, u) * (-sign)


def test_graded_leibniz_random():
    r = rng(56)
    a = alg22()
    for _ in range(40):
        pu, pv, pw = r.choice([0, 1]), r.choice([0, 1]), r.choice([0, 1])
        u = random_grassmann(r, a, pu)
        v = random_grassmann(r, a, pv)
        w = random_grassmann(r, a, pw)
        lhs = a.graded_bracket(u, v * w)
        rhs = a.graded_bracket(u, v) * w + v * a.graded_bracket(u, w) * (
            (-1) ** (pu * pv)
        )
        assert lhs == rhs


def test_even_subalgebra_commutes():
    r = rng(57)
    a = alg22()
    for _ in range(50):
        u = random_grassmann(r, a, 0)
        v = random_grassmann(r, a, 0)
        assert u * v == v * u


def test_polynomial_coefficients_supported():
    z = MultiPoly.var("z")
    a = alg22()
    u = a.psi(1, 1) * z + GrassmannElement.const(1) * (z * z)
    v = a.pi(1, 1) * z
    prod = u * v
    # psi*pi z^2 + pi z^3
    expected = a.psi(1, 1) * a.pi(1, 1) * (z * z) + a.pi(1, 1) * (z**3)
    assert prod == expected


def test_unknown_operands_reach_the_other_side():
    """Multiplying by anything but a scalar or an element returns
    NotImplemented, so the other operand's reflected method runs."""
    f = RatFunc("z", {1: 1}, {1: 1})
    psi = GrassmannElement.generator(0)
    for prod in (psi * f, f * psi):
        assert isinstance(prod, RatFunc)
        assert prod == RatFunc("z", {1: psi}, {1: 1})
    with pytest.raises(TypeError):
        psi * "2"
    with pytest.raises(TypeError):
        2.5 * psi
