from fractions import Fraction

import pytest

from gaudual.errors import InexactDivision
from gaudual.multipoly import MultiPoly, var_key
from helpers import rng, random_poly

x = MultiPoly.var("x")
y = MultiPoly.var("y")


def test_difference_of_squares():
    assert (x + 1) * (x - 1) == x * x - 1


def test_zero_annihilates():
    assert x * MultiPoly.zero() == 0
    assert not (x * 0)


def test_square_of_sum_expansion():
    # oracle: distribute (x+y)(x+y) term by term
    expected = x * x + x * y + y * x + y * y
    assert (x + y) ** 2 == expected
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2


def test_ring_axioms_random_triples():
    r = rng(101)
    vars = ["x", "y", "u"]
    for _ in range(100):
        a = random_poly(r, vars)
        b = random_poly(r, vars)
        c = random_poly(r, vars)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)


def test_variable_table_merges_by_name():
    a = MultiPoly.var("x1_1") * MultiPoly.var("p1_1")
    b = MultiPoly.var("p1_1") * MultiPoly.var("x1_1")
    assert a == b
    assert a.vars == ("x1_1", "p1_1")


def test_global_variable_order():
    names = ["lam", "p1_1", "x2_1", "z", "x1_2", "mu"]
    assert sorted(names, key=var_key) == ["x1_2", "x2_1", "p1_1", "z", "lam", "mu"]


def test_no_zero_terms_stored():
    p = x - x
    assert p.terms == {}
    q = (x + y) - x - y
    assert q.terms == {}


def test_derivative_and_substitute():
    p = x**3 + 2 * x * y
    assert p.derivative("x") == 3 * x**2 + 2 * y
    assert p.substitute({"x": Fraction(2)}) == 8 + 4 * y
    assert p.substitute({"x": Fraction(1, 2), "y": -1}) == Fraction(-7, 8)
    # the table is kept, with the substituted field cleared
    assert p.substitute({"x": Fraction(2)}).vars == p.vars
    with pytest.raises(TypeError):
        p.substitute({"x": y})


def test_divide_linear_exact():
    p = (x - 3) * (x**2 + y)
    assert p.divide_linear("x", [(Fraction(3), 1)]) == x**2 + y
    with pytest.raises(ValueError):
        (x + 1).divide_linear("x", [(Fraction(2), 1)])
    # zero powers are skipped; a polynomial free of x refuses the first factor
    assert p.divide_linear("x", [(Fraction(3), 1), (5, 0)]) == x**2 + y
    assert p.divide_linear("x", []) == p
    with pytest.raises(InexactDivision) as refused:
        y.divide_linear("x", [(7, 0), (Fraction(2), 1), (3, 1)])
    assert refused.value.root == 2


def test_split_by_groups_exponents():
    p = x**2 * y + 2 * x**2 + y
    groups = p.split_by(("x",))
    assert groups[(2,)] == y + 2
    assert groups[(0,)] == y


def test_constant_helpers():
    c = MultiPoly.const(Fraction(5, 3))
    assert c.is_constant()
    assert c.constant_value() == Fraction(5, 3)
    assert (x * 0).constant_value() == 0
