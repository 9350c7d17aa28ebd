from fractions import Fraction

import pytest

from gaudual.errors import ResidualPole
from gaudual.multipoly import MultiPoly
from gaudual.ratfunc import RatFunc
from gaudual.weyl import Z_PAIR, OrderedDiffOp, WeylElement, pair_sort_key, weyl_commutator
from helpers import classical_limit, linear, rng, random_weyl, weyl_to_ordered

Q = Fraction
X = WeylElement.x
D = WeylElement.d


def test_d_times_x():
    assert D(1, 1) * X(1, 1) == X(1, 1) * D(1, 1) + 1


def test_x_times_d_already_ordered():
    prod = X(1, 1) * D(1, 1)
    assert prod.terms == {(("1_1", 1, 1),): Q(1)}


def test_d2_x2_reordering():
    # iterate d x = x d + 1 by hand: d^2 x^2 = x^2 d^2 + 4 x d + 2
    lhs = D(1, 1, 2) * X(1, 1, 2)
    expected = X(1, 1, 2) * D(1, 1, 2) + 4 * (X(1, 1) * D(1, 1)) + 2
    assert lhs == expected


@pytest.mark.parametrize(
    "generator",
    [X(1, 1, 0), D(1, 1, 0), WeylElement.z(0), WeylElement.dz(0)],
    ids=["x", "d", "z", "dz"],
)
def test_power_zero_generator_is_one(generator):
    one = WeylElement.const(1)
    assert generator == one
    assert generator * 1 == one
    assert generator.terms == {(): 1}


def test_commutator_examples():
    assert weyl_commutator(D(1, 1), X(1, 1)) == WeylElement.const(1)
    assert weyl_commutator(X(1, 1), X(2, 1)) == 0
    assert weyl_commutator(X(1, 1) * D(1, 1), X(1, 1)) == X(1, 1)


def test_cross_pair_generators_commute():
    for a, b in [(X(1, 1), X(1, 2)), (D(1, 1), D(2, 1)), (X(1, 1), D(1, 2)),
                 (X(1, 1), WeylElement.z()), (D(1, 1), WeylElement.dz())]:
        assert weyl_commutator(a, b) == 0
    assert weyl_commutator(WeylElement.dz(), WeylElement.z()) == 1


def test_associativity_random():
    r = rng(31)
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for _ in range(100):
        a = random_weyl(r, pairs)
        b = random_weyl(r, pairs)
        c = random_weyl(r, pairs)
        assert (a * b) * c == a * (b * c)


def test_jacobi_random():
    r = rng(32)
    pairs = [(1, 1), (1, 2)]
    for _ in range(50):
        a = random_weyl(r, pairs, max_deg=2)
        b = random_weyl(r, pairs, max_deg=2)
        c = random_weyl(r, pairs, max_deg=2)
        jac = (
            weyl_commutator(a, weyl_commutator(b, c))
            + weyl_commutator(b, weyl_commutator(c, a))
            + weyl_commutator(c, weyl_commutator(a, b))
        )
        assert jac == 0


def from_multipoly(p: MultiPoly) -> WeylElement:
    """Embed a commutative polynomial in x/p variables, p{a}_{i} -> d{a}_{i}."""
    out = WeylElement.zero()
    for mono, c in p.terms.items():
        acc: dict[str, list[int]] = {}
        for name, e in zip(p.vars, p.unpack(mono)):
            if not e:
                continue
            if name == "z":
                acc.setdefault(Z_PAIR, [0, 0])[0] += e
            elif name == "lam":
                acc.setdefault(Z_PAIR, [0, 0])[1] += e
            else:
                fam, pair = name[0], name[1:]
                slot = 0 if fam == "x" else 1
                acc.setdefault(pair, [0, 0])[slot] += e
        key = tuple(
            (p_, x, d)
            for p_, (x, d) in sorted(acc.items(), key=lambda kv: pair_sort_key(kv[0]))
        )
        out = out + WeylElement({key: c})
    return out


def test_commuting_subfamilies_match_multipoly():
    r = rng(33)
    for _ in range(20):
        # all-x polynomials multiply exactly like commutative polynomials
        p = MultiPoly.var("x1_1") ** r.randint(0, 3) * MultiPoly.var("x2_2")
        q = MultiPoly.var("x1_1") + 3 * MultiPoly.var("x2_2") ** 2
        assert from_multipoly(p * q) == from_multipoly(p) * from_multipoly(q)
        # same for the all-derivative family
        u = MultiPoly.var("p1_1") * MultiPoly.var("p2_1") ** 2
        v = MultiPoly.var("p2_1") + 1
        assert from_multipoly(u * v) == from_multipoly(u) * from_multipoly(v)


def test_classical_limit_drops_ordering():
    w = D(1, 1) * X(1, 1)  # = x d + 1
    assert classical_limit(w) == (
        MultiPoly.var("x1_1") * MultiPoly.var("p1_1") + 1
    )


def _op_z(terms):
    return OrderedDiffOp("z", terms)


def test_ordered_mul_leibniz_simple_pole():
    # Dz * 1/(z - z1) = 1/(z - z1) Dz - 1/(z - z1)^2, with z1 = 4
    dz = _op_z({1: RatFunc.const("z", Q(1))})
    f = OrderedDiffOp("z", {0: RatFunc("z", {0: Q(1)}, {Q(4): 1})})
    prod = dz * f
    expected = OrderedDiffOp(
        "z",
        {1: RatFunc("z", {0: Q(1)}, {Q(4): 1}), 0: RatFunc("z", {0: Q(-1)}, {Q(4): 2})},
    )
    assert prod == expected


def test_ordered_mul_z_times_z():
    zop = OrderedDiffOp("z", {0: linear("z", 0)})
    assert zop * zop == OrderedDiffOp("z", {0: RatFunc("z", {2: Q(1)})})


def test_ordered_mul_single_commutation():
    # (Dz - lam1)(z - z1) = (z - z1) Dz - lam1 (z - z1) + 1 in z-left form
    lam1, z1 = Q(5), Q(2)
    a = OrderedDiffOp("z", {1: RatFunc.const("z", Q(1)), 0: RatFunc.const("z", -lam1)})
    b = OrderedDiffOp("z", {0: linear("z", z1)})
    prod = a * b
    expected = OrderedDiffOp(
        "z",
        {
            1: linear("z", z1),
            0: linear("z", z1) * (-lam1) + RatFunc.const("z", Q(1)),
        },
    )
    assert prod == expected


def test_to_polynomial_cancellation():
    # ((z-1) x)/(z-1) -> x
    num = {1: X(1, 1), 0: X(1, 1) * Q(-1)}
    op = OrderedDiffOp("z", {0: RatFunc("z", num, {Q(1): 1})})
    assert op.to_polynomial() == X(1, 1)


def test_to_polynomial_residual_pole():
    op = OrderedDiffOp("z", {0: RatFunc("z", {0: Q(1)}, {Q(1): 1})})
    with pytest.raises(ResidualPole) as err:
        op.to_polynomial()
    assert err.value.point == Q(1)
    assert err.value.order == 1


def test_round_trip_z_dz_z():
    r = rng(34)
    for _ in range(20):
        w = random_weyl(r, [(1, 1), (2, 1)], max_deg=2)
        w = (
            w * WeylElement.z(r.randint(0, 2)) * WeylElement.dz(r.randint(0, 2))
            + random_weyl(r, [(1, 1)], max_deg=1)
        )
        a = weyl_to_ordered(w, "z", "z")
        b = weyl_to_ordered(a.to_polynomial(), "dz", "dz")
        c = weyl_to_ordered(b.to_polynomial(), "z", "z")
        assert c.to_polynomial() == w
        assert a.to_polynomial() == w


def test_dz_side_product_matches_weyl():
    # multiply (Dz)(z) on the dz side: z g(Dz) ordering exercised
    dz = OrderedDiffOp("dz", {0: linear("dz", 0)})
    zop = OrderedDiffOp("dz", {1: RatFunc.const("dz", Q(1))})
    prod = dz * zop  # Dz * z stays ordered on this side
    assert prod.to_polynomial() == WeylElement.z() * WeylElement.dz() + 1
    prod2 = zop * dz  # z * Dz = Dz z - 1 reorders
    assert prod2.to_polynomial() == WeylElement.z() * WeylElement.dz()
