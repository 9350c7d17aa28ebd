from fractions import Fraction

import pytest

from gaudual.errors import DivisorMismatch, IndexOutOfRange
from gaudual.gaudin import (
    INF,
    Divisor,
    DualityInstance,
    TakiffGen,
    jordan_sum_matrix,
    ratfunc_lax,
    takiff_bracket,
    takiff_generators,
)
from gaudual.multipoly import MultiPoly
from gaudual.weyl import WeylElement
from helpers import linear

Q = Fraction
V = MultiPoly.var


def inst_2x2_irregular():
    # M = N = 2, tau = (2) at z = 1, tau~ = (1, 1) at 5, 7
    return DualityInstance(2, 2, Divisor.of([(1, 2)]), Divisor.of([(5, 1), (7, 1)]))


def test_divisor_offsets_and_degree():
    d = Divisor.of([(1, 2), (2, 1), (3, 3)])
    assert d.total_degree() == 6
    assert d.block_offsets() == (0, 2, 3)
    with pytest.raises(DivisorMismatch):
        Divisor.of([(1, 1), (1, 2)])  # repeated point


def test_divisor_refuses_a_float_degree():
    with pytest.raises(DivisorMismatch):
        Divisor.of([(1, 1.5)])


def test_divisor_refuses_a_bool_degree():
    with pytest.raises(DivisorMismatch):
        Divisor.of([(1, True)])


def test_divisor_refuses_a_float_point():
    with pytest.raises(TypeError):
        Divisor.of([(0.1, 1)])


def test_divisor_reads_exact_points():
    assert Divisor.of([("-3/2", 1), (Q(1, 3), 2), (4, 1)]).points == (
        (Q(-3, 2), 1), (Q(1, 3), 2), (Q(4), 1))


def test_degree_constraints_enforced():
    with pytest.raises(DivisorMismatch):
        DualityInstance(1, 2, Divisor.of([(1, 1)]), Divisor.of([(5, 1)]))
    with pytest.raises(DivisorMismatch):
        DualityInstance(2, 1, Divisor.of([(1, 1)]), Divisor.of([(5, 1)]))


def test_takiff_bracket_matches_structure_constants():
    d = Divisor.of([(1, 2)])
    g1 = TakiffGen(0, 0, 1, 2)
    g2 = TakiffGen(0, 0, 2, 1)
    out = takiff_bracket(g1, g2, d)
    assert sorted(out, key=str) == sorted(
        [(Q(1), TakiffGen(0, 0, 1, 1)), (Q(-1), TakiffGen(0, 0, 2, 2))], key=str
    )


def test_takiff_bracket_distinct_points_vanish():
    d = Divisor.of([(1, 1), (2, 1)])
    assert takiff_bracket(TakiffGen(0, 0, 1, 2), TakiffGen(1, 0, 2, 1), d) == []


def test_takiff_bracket_depth_truncation():
    d = Divisor.of([(1, 2)])
    # depth 1 + depth 1 = 2 >= tau = 2 vanishes
    assert takiff_bracket(TakiffGen(0, 1, 1, 2), TakiffGen(0, 1, 2, 1), d) == []


def test_infinity_generators_central():
    d = Divisor.of([(1, 2)])
    assert takiff_bracket(TakiffGen(INF, 1, 1, 2), TakiffGen(0, 0, 2, 1), d) == []
    assert takiff_bracket(TakiffGen(0, 0, 2, 1), TakiffGen(INF, 1, 1, 2), d) == []


def test_generator_enumeration_order():
    gens = takiff_generators(Divisor.of([(1, 1), (2, 1)]), 2)
    # by point, then depth, then (row, col); infinity last
    assert gens[0] == TakiffGen(0, 0, 1, 1)
    assert gens[3] == TakiffGen(0, 0, 2, 2)
    assert gens[4] == TakiffGen(1, 0, 1, 1)
    assert gens[-1] == TakiffGen(INF, 1, 2, 2)
    assert len(gens) == 12


def test_generator_enumeration_is_the_sorted_order():
    gens = takiff_generators(Divisor.of([(1, 2), (2, 1)]), 2)
    # infinity comes last: None and an int point do not compare
    finite = [g for g in gens if g.point is not INF]
    assert gens == sorted(finite) + sorted(g for g in gens if g.point is INF)


def test_record_reprs():
    # report witnesses and the sorted(..., key=str) tests read these strings
    assert repr(TakiffGen(INF, 1, 1, 2)) == "TakiffGen(point=None, depth=1, row=1, col=2)"
    assert repr(TakiffGen(0, 0, 2, 1)) == "TakiffGen(point=0, depth=0, row=2, col=1)"
    assert repr(Divisor.of([("1/2", 2), (3, 1)])) == (
        "Divisor(points=((Fraction(1, 2), 2), (Fraction(3, 1), 1)))")


def test_records_hash_as_the_tuple_of_their_fields_and_are_frozen():
    g = TakiffGen(1, 0, 2, 1)
    d = Divisor.of([(1, 2)])
    # set and dict orders depend on these hashes
    assert hash(g) == hash((g.point, g.depth, g.row, g.col))
    assert hash(d) == hash((d.points,))
    with pytest.raises(AttributeError):
        g.row = 3
    with pytest.raises(AttributeError):
        d.points = ()


@pytest.mark.parametrize("points", [[(1, 1), (1, 2)], [(1, 1), (2, 0)]],
                         ids=["repeated-point", "degree-zero"])
def test_divisor_checks_hold_through_the_constructor_and_of(points):
    with pytest.raises(DivisorMismatch):
        Divisor.of(points)
    with pytest.raises(DivisorMismatch):
        Divisor(tuple((Q(p), t) for p, t in points))


def test_jordan_sum_matrix_layout():
    m = jordan_sum_matrix(Divisor.of([(5, 2), (7, 1)]))
    assert m[0][0] == -5 and m[1][1] == -5 and m[2][2] == -7
    assert m[1][0] == -1
    assert m[0][1] == 0 and m[2][0] == 0


# -- realization images (hand-expanded spec examples) -----------------------


def test_classical_point_image_regular():
    inst = DualityInstance(1, 1, Divisor.of([(2, 1)]), Divisor.of([(5, 1)]))
    img = inst.realize_glM(TakiffGen(0, 0, 1, 1), "classical")
    assert img == V("x1_1") * V("p1_1")


def test_classical_infinity_image_subdiagonal():
    # m = 1 block of size 2: pi(E^inf_(12,1)) reads the (2,1) entry of
    # -J_2(-lambda_1), which is +1
    inst = DualityInstance(2, 1, Divisor.of([(2, 1)]), Divisor.of([(5, 2)]))
    assert inst.realize_glM(TakiffGen(INF, 1, 1, 2), "classical") == MultiPoly.const(1)
    assert inst.realize_glM(TakiffGen(INF, 1, 2, 1), "classical") == MultiPoly.const(0)
    assert inst.realize_glM(TakiffGen(INF, 1, 1, 1), "classical") == MultiPoly.const(5)


def test_point_image_depth_offset():
    # tau = (2): pi(E_(ab,1)) sums a single term x^a_(u+1) p^b_u at u = 1
    inst = inst_2x2_irregular()
    img = inst.realize_glM(TakiffGen(0, 1, 1, 2), "classical")
    assert img == V("x1_2") * V("p2_1")
    img0 = inst.realize_glM(TakiffGen(0, 0, 1, 2), "classical")
    assert img0 == V("x1_1") * V("p2_1") + V("x1_2") * V("p2_2")


def test_quantum_dual_image_order():
    # pi~(E~^(lam_1)_(ij,0)) = d^1_j x^1_i: derivative first
    inst = DualityInstance(1, 2, Divisor.of([(2, 2)]), Divisor.of([(5, 1)]))
    img = inst.realize_glN(TakiffGen(0, 0, 1, 2), "quantum")
    expected = WeylElement.d(1, 2) * WeylElement.x(1, 1)
    assert img == expected
    # i = j picks up the normal-ordering constant
    img_diag = inst.realize_glN(TakiffGen(0, 0, 1, 1), "quantum")
    assert img_diag == WeylElement.x(1, 1) * WeylElement.d(1, 1) + 1


def test_dual_infinity_image_transpose():
    # pi~_b(E~^inf_(ij,1)) = -((+)J_tau(-z_k))_(ji): the (2,1) subdiagonal
    # of -J_2(-z_1) lands on the (i,j) = (1,2) generator
    inst = DualityInstance(1, 2, Divisor.of([(2, 2)]), Divisor.of([(5, 1)]))
    assert inst.realize_glN(TakiffGen(INF, 1, 1, 2), "classical") == MultiPoly.const(1)
    assert inst.realize_glN(TakiffGen(INF, 1, 2, 1), "classical") == MultiPoly.const(0)
    assert inst.realize_glN(TakiffGen(INF, 1, 1, 1), "classical") == MultiPoly.const(2)
    # the fermionic dual reads the (i, j) entry instead
    from gaudual.grassmann import GrassmannElement

    assert inst.realize_glN(TakiffGen(INF, 1, 1, 2), "fermionic") == GrassmannElement.const(0)
    assert inst.realize_glN(TakiffGen(INF, 1, 2, 1), "fermionic") == GrassmannElement.const(1)


def test_fermionic_point_image():
    inst = inst_2x2_irregular()
    galg = inst._galg
    img = inst.realize_glM(TakiffGen(0, 0, 1, 2), "fermionic")
    expected = galg.pi(1, 1) * galg.psi(2, 1) + galg.pi(1, 2) * galg.psi(2, 2)
    assert img == expected


def test_realize_rejects_out_of_range():
    inst = inst_2x2_irregular()
    with pytest.raises(IndexOutOfRange):
        inst.realize_glM(TakiffGen(0, 0, 3, 1), "classical")
    with pytest.raises(IndexOutOfRange):
        inst.realize_glN(TakiffGen(0, 0, 1, 3), "classical")


def test_lax_pole_orders_match_takiff_degrees():
    inst = inst_2x2_irregular()
    for flavor in ("classical", "quantum", "fermionic"):
        lax = ratfunc_lax(inst.lax_glM(flavor), "z")
        for row in lax.entries:
            for entry in row:
                assert set(entry.den) <= {Q(1)}
                assert all(m <= 2 for m in entry.den.values())
        lax_n = ratfunc_lax(inst.lax_glN(flavor), "lam")
        for row in lax_n.entries:
            for entry in row:
                assert set(entry.den) <= {Q(5), Q(7)}
                assert all(m <= 1 for m in entry.den.values())


def test_quantum_lax_1x1_entry():
    # gl_N side at M = 1: entry = z_1 + (x d + 1)/(lam - lam_1)
    inst = DualityInstance(1, 1, Divisor.of([(2, 1)]), Divisor.of([(5, 1)]))
    entry = ratfunc_lax(inst.lax_glN("quantum"), "dz").entries[0][0]
    num = entry * linear("dz", Q(5))
    assert not num.den
    poly = num.to_poly()
    xd1 = WeylElement.x(1, 1) * WeylElement.d(1, 1) + 1
    assert poly[0] == xd1 + WeylElement.const(2) * Fraction(-5)
    assert poly[1] == WeylElement.const(2)
