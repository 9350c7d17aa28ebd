from fractions import Fraction

import pytest

from gaudual.cyclotomic import CycloDivisor, CycloInstance, verify_cyclotomic_homomorphisms
from gaudual.gaudin import (Divisor, DualityInstance, extract_gaudin_generators,
                           takiff_generators, verify_homomorphism)
from gaudual.multipoly import MultiPoly


def make(M, N, dz, dl):
    return DualityInstance(M, N, Divisor.of(dz), Divisor.of(dl))


GRID = [
    (1, 1, [(2, 1)], [(5, 1)]),
    (2, 2, [(1, 2)], [(5, 1), (7, 1)]),
    (2, 3, [(1, 2), (2, 1)], [(5, 1), (7, 1)]),
    (3, 2, [(1, 1), (2, 1)], [(5, 3)]),
    (2, 2, [(1, 2)], [(5, 2)]),
]


@pytest.mark.parametrize("M,N,dz,dl", GRID)
@pytest.mark.parametrize("flavor", ["classical", "fermionic", "quantum"])
def test_realizations_are_homomorphisms(M, N, dz, dl, flavor):
    report = verify_homomorphism(make(M, N, dz, dl), flavor)
    assert report["status"] == "pass"
    assert report["pairs_checked"] > 0


def test_exhaustive_pair_count():
    inst = make(2, 2, [(1, 2)], [(5, 1), (7, 1)])
    report = verify_homomorphism(inst, "classical")
    # glM side: 2 depths x 4 + 4 at infinity = 12; glN side: 2 points x 4 + 4
    assert report["pairs_checked"] == 12 * 12 + 12 * 12


@pytest.mark.parametrize("flavor", ["classical", "fermionic", "quantum"])
def test_sign_flip_mutation_fails_with_witness(flavor):
    inst = make(2, 2, [(1, 1), (2, 1)], [(5, 1), (7, 1)])
    report = verify_homomorphism(inst, flavor, mutation="flip-sign")
    assert report["status"] == "fail"
    assert "pair" in report["witness"]


@pytest.mark.parametrize("flavor", ["classical", "quantum"])
def test_range_off_by_one_mutation_fails(flavor):
    inst = make(2, 2, [(1, 2)], [(5, 2)])
    report = verify_homomorphism(inst, flavor, mutation="range-up")
    assert report["status"] == "fail"
    assert report["witness"]["pair"]


def test_mutation_on_abelian_instance_cannot_fail():
    # gl_1 Takiff algebras are abelian: documented boundary of the mutation test
    inst = make(1, 1, [(2, 1)], [(5, 1)])
    assert verify_homomorphism(inst, "classical", mutation="flip-sign")["status"] == "pass"


def _negated(method, only_kind=None):
    """method with its image negated (for the sp_2N map: only for kind only_kind)."""
    def mutated(self, *args, **kwargs):
        img = method(self, *args, **kwargs)
        return -img if only_kind in (None, args[0]) else img
    return mutated


def _gaudin_check():
    return verify_homomorphism(make(2, 2, [(1, 1), (2, 1)], [(5, 1), (7, 1)]), "classical")


def _cyclotomic_check():
    inst = CycloInstance(2, CycloDivisor.of(1, [(1, 1)]), [Fraction(5), Fraction(7)], Fraction(-1))
    return verify_cyclotomic_homomorphisms(inst)


@pytest.mark.parametrize(
    "side, check, owner, method, only_kind",
    [
        ("glM", _gaudin_check, DualityInstance, "realize_glM", None),
        ("glN", _gaudin_check, DualityInstance, "realize_glN", None),
        ("glM-cyclotomic", _cyclotomic_check, CycloInstance, "realize_glMC", None),
        ("sp2N", _cyclotomic_check, CycloInstance, "realize_sp", "lam"),
    ],
    ids=["glM", "glN", "glM-cyclotomic", "sp2N"],
)
def test_each_realization_side_fails_alone(monkeypatch, side, check, owner, method, only_kind):
    assert check()["status"] == "pass"
    monkeypatch.setattr(owner, method, _negated(getattr(owner, method), only_kind))
    report = check()
    assert report["status"] == "fail"
    assert report["witness"]["side"] == side
    assert report["witness"]["pair"]


def test_classical_images_share_one_table():
    """Every classical image with a variable, and every extracted spectral
    coefficient, is over one table per instance; constants need none."""
    inst = make(2, 3, [(1, 2), (2, 1)], [(5, 1), (7, 1)])
    images = [inst.realize_glM(g, "classical") for g in takiff_generators(inst.div_z, 2)]
    images += [inst.realize_glN(g, "classical") for g in takiff_generators(inst.div_lam, 3)]
    assert {img.vars for img in images if not img.is_constant()} == {inst.var.names}
    coeffs = extract_gaudin_generators(inst, "classical")
    assert len({c.vars for c in coeffs}) == 1

    cyclo = CycloInstance(2, CycloDivisor.of(2, [(3, 1)]), [5, 7], MultiPoly.var("mu"))
    images = [cyclo.realize_glMC(g) for g in cyclo.glMC_generators()]
    images += [cyclo.realize_sp(*g) for g in cyclo.sp_generators()]
    assert {img.vars for img in images if not img.is_constant()} == {cyclo.var.names}

