from fractions import Fraction

import pytest

from gaudual import gaudin, presets, weyl
from gaudual.errors import DivisorMismatch, ResidualPole
from gaudual.gaudin import (
    Divisor,
    DualityInstance,
    _classical_spectral_poly,
    _spectral_dets,
    jordan_sum,
    quantum_block_matrix,
    quantum_operator_sides,
    verify_classical_bosonic_duality,
    verify_classical_fermionic_duality,
    verify_quantum_duality,
)
from gaudual.grassmann import GrassmannElement, wedge_masks
from gaudual.matrices import _perm_expansion, block2x2, manin_check, transpose
from gaudual.multipoly import MultiPoly
from gaudual.runner import SAMPLE_SEED, run_instance
from gaudual.weyl import WeylElement
from helpers import (build_instance, check_cleared_against_ratfunc, check_per_step_division,
                     classical_limit, order_one_clearing, perturb_divided_expansion)

Q = Fraction
V = MultiPoly.var
W = WeylElement


def make(M, N, dz, dl):
    return DualityInstance(M, N, Divisor.of(dz), Divisor.of(dl))


def test_classical_one_one_hand_oracle():
    # both sides = (z - z1)(lam - lam1) - x p
    inst = make(1, 1, [(2, 1)], [(5, 1)])
    lhs, rhs = _spectral_dets(inst)
    expected = (V("z") - 2) * (V("lam") - 5) - V("x1_1") * V("p1_1")
    assert lhs == expected
    assert rhs == expected


@pytest.mark.parametrize(
    "M,N,dz,dl",
    [
        (1, 1, [(2, 1)], [(5, 1)]),
        (2, 2, [(1, 2)], [(5, 1), (7, 1)]),
        (3, 2, [(1, 1), (2, 1)], [(5, 2), (7, 1)]),
        (2, 3, [(1, 3)], [(5, 1), (7, 1)]),
    ],
)
def test_classical_bosonic_duality(M, N, dz, dl):
    report = verify_classical_bosonic_duality(make(M, N, dz, dl))
    assert report["status"] == "pass"


def test_classical_duality_sampled_mode():
    report = verify_classical_bosonic_duality(
        make(2, 2, [(1, 2)], [(5, 2)]), sample_seed=8093
    )
    assert report["status"] == "pass"


def test_divisor_mismatch_raises():
    with pytest.raises(DivisorMismatch):
        make(1, 2, [(1, 1)], [(5, 1)])


def test_fermionic_one_one_cross_term_cancels():
    # product = (lam - lam1)(z - z1): pi psi pi psi = 0 kills the cross term
    inst = make(1, 1, [(2, 1)], [(5, 1)])
    report = verify_classical_fermionic_duality(inst)
    assert report["status"] == "pass"


@pytest.mark.parametrize(
    "M,N,dz,dl",
    [
        (2, 1, [(1, 1)], [(5, 2)]),
        (2, 2, [(1, 2)], [(5, 2)]),
        (2, 2, [(1, 1), (2, 1)], [(5, 1), (7, 1)]),
    ],
)
def test_fermionic_duality(M, N, dz, dl):
    assert verify_classical_fermionic_duality(make(M, N, dz, dl))["status"] == "pass"


def test_quantum_one_one_hand_oracle():
    # LHS (z-z1)(Dz-lam1) - xd and RHS (Dz-lam1)(z-z1) - dx agree after
    # normal ordering: (z-z1) Dz - lam1 z + lam1 z1 - x d
    inst = make(1, 1, [(2, 1)], [(5, 1)])
    left, right = quantum_operator_sides(inst)
    expected = (
        (W.z() - 2) * W.dz()
        - W.z() * 5
        + W.const(10)
        - W.x(1, 1) * W.d(1, 1)
    )
    assert left.to_polynomial() == expected
    assert right.to_polynomial() == expected


@pytest.mark.parametrize(
    "M,N,dz,dl",
    [
        (1, 1, [(2, 1)], [(5, 1)]),
        (1, 2, [(1, 2)], [(5, 1)]),  # irregular singularity against a Jordan block
        (2, 1, [(1, 1)], [(5, 2)]),
        (2, 2, [(1, 2)], [(5, 2)]),
    ],
)
def test_quantum_duality(M, N, dz, dl):
    report = verify_quantum_duality(make(M, N, dz, dl))
    assert report["status"] == "pass"
    assert report["manin"] is True


def test_quantum_block_matrix_is_manin():
    inst = make(2, 2, [(1, 2)], [(5, 2)])
    ok, witness = manin_check(quantum_block_matrix(inst))
    assert ok and witness is None


def test_quantum_block_matrix_layout_at_tau_2():
    # [[Lam, X], [tD, Z]]: the lambda block carries its -1 above the
    # diagonal, the z block below it
    m = quantum_block_matrix(make(2, 2, [(1, 2)], [(5, 2)]))
    dz, z, zero = W.dz(), W.z(), W.zero()
    expected = [
        [dz - 5, W.const(-1), W.x(1, 1), W.x(1, 2)],
        [zero, dz - 5, W.x(2, 1), W.x(2, 2)],
        [W.d(1, 1), W.d(2, 1), z - 1, zero],
        [W.d(1, 2), W.d(2, 2), W.const(-1), z - 1],
    ]
    assert all(isinstance(e, W) for row in m for e in row)
    assert m == expected


def quantum_classical_limits_agree(inst: DualityInstance) -> bool:
    """The naive classical limit (derivatives to momenta, ordering dropped)
    of each quantum side reproduces the classical bosonic polynomial."""
    left, right = quantum_operator_sides(inst)
    lhs_cl = _classical_spectral_poly(inst)
    return classical_limit(left.to_polynomial()) == lhs_cl and (
        classical_limit(right.to_polynomial()) == lhs_cl
    )


@pytest.mark.parametrize(
    "M,N,dz,dl",
    [
        (1, 2, [(1, 2)], [(5, 1)]),
        (2, 2, [(1, 2)], [(5, 1), (7, 1)]),
    ],
)
def test_classical_limit_reproduces_classical_polynomial(M, N, dz, dl):
    assert quantum_classical_limits_agree(make(M, N, dz, dl))


class _Sides:
    """Stands in for a quantum operator side whose normal ordering raises."""

    def __init__(self, err: Exception):
        self.err = err

    def to_polynomial(self):
        raise self.err


def test_quantum_duality_reports_residual_pole_as_fail(monkeypatch):
    side = _Sides(ResidualPole(Q(1), 2))
    monkeypatch.setattr(gaudin, "quantum_operator_sides", lambda inst: (side, side))
    report = verify_quantum_duality(make(1, 1, [(2, 1)], [(5, 1)]))
    assert report["status"] == "fail"
    assert "residual pole of order 2" in report["witness"]["residual"]


def test_quantum_duality_lets_other_errors_propagate(monkeypatch):
    side = _Sides(KeyError("bug"))
    monkeypatch.setattr(gaudin, "quantum_operator_sides", lambda inst: (side, side))
    with pytest.raises(KeyError):
        verify_quantum_duality(make(1, 1, [(2, 1)], [(5, 1)]))


def _transposed_infinity(monkeypatch):
    """Realize E_ab at infinity with the transposed Jordan orientation."""
    realize = DualityInstance.realize_glM

    def mutated(self, g, flavor, mutation=None):
        if g.point is gaudin.INF:
            return self.ring(flavor)[2] - self._jordan_lam[g.row - 1][g.col - 1]
        return realize(self, g, flavor, mutation)

    monkeypatch.setattr(DualityInstance, "realize_glM", mutated)


def _transposed_infinity_glN(monkeypatch):
    """Realize E_ij at infinity with each flavor's Jordan entry transposed:
    (i, j) for the bosonic maps, (j, i) for the fermionic one."""
    realize = DualityInstance.realize_glN

    def mutated(self, g, flavor, mutation=None):
        if g.point is gaudin.INF:
            r, c = (g.col, g.row) if flavor == "fermionic" else (g.row, g.col)
            return self.ring(flavor)[2] - self._jordan_z[r - 1][c - 1]
        return realize(self, g, flavor, mutation)

    monkeypatch.setattr(DualityInstance, "realize_glN", mutated)


# the first differing term under each transposed orientation, by (side, verifier, M, N)
_TRANSPOSED_WITNESSES = {
    ("glM", "verify_quantum_duality", 2, 1):
        {"weyl_monomial": "(('1_1', 0, 1), ('2_1', 1, 0))", "difference": "1"},
    ("glM", "verify_classical_bosonic_duality", 2, 1):
        {"monomial": {"x2_1": 1, "p1_1": 1}, "difference": "1"},
    ("glM", "verify_classical_fermionic_duality", 2, 1):
        {"grassmann_mask": 6, "coefficient": "z^2 + -2*z^2*lam + z^2*lam^2"},
    ("glM", "verify_quantum_duality", 2, 2):
        {"weyl_monomial": "(('1_1', 0, 1), ('2_1', 1, 0), ('z', 1, 0))", "difference": "1"},
    ("glM", "verify_classical_bosonic_duality", 2, 2):
        {"monomial": {"x2_2": 1, "p1_2": 1, "z": 1}, "difference": "1"},
    ("glM", "verify_classical_fermionic_duality", 2, 2):
        {"grassmann_mask": 20,
         "coefficient": "81*z^5 + -108*z^5*lam + 54*z^5*lam^2 + -12*z^5*lam^3 + z^5*lam^4"},
    ("glN", "verify_quantum_duality", 1, 2):
        {"weyl_monomial": "(('1_1', 0, 1), ('1_2', 1, 0))", "difference": "-1"},
    ("glN", "verify_classical_bosonic_duality", 1, 2):
        {"monomial": {"x1_2": 1, "p1_1": 1}, "difference": "-1"},
    ("glN", "verify_classical_fermionic_duality", 1, 2):
        {"grassmann_mask": 6, "coefficient": "-1*lam^2 + 2*z*lam^2 + -1*z^2*lam^2"},
    ("glN", "verify_quantum_duality", 2, 2):
        {"weyl_monomial": "(('1_1', 0, 1), ('1_2', 1, 0), ('z', 0, 1))", "difference": "-1"},
    ("glN", "verify_classical_bosonic_duality", 2, 2):
        {"monomial": {"x2_2": 1, "p2_1": 1, "lam": 1}, "difference": "-1"},
    ("glN", "verify_classical_fermionic_duality", 2, 2):
        {"grassmann_mask": 18, "coefficient":
         "-81*lam^5 + 108*z*lam^5 + -54*z^2*lam^5 + 12*z^3*lam^5 + -1*z^4*lam^5"},
}

_ALL_DUALITIES = [verify_quantum_duality, verify_classical_bosonic_duality,
                  verify_classical_fermionic_duality]


@pytest.mark.parametrize(
    "M,N,dz,dl",
    [
        (2, 1, [(0, 1)], [(1, 2)]),
        (2, 2, [(0, 2)], [(3, 2)]),
    ],
)
@pytest.mark.parametrize("verify", _ALL_DUALITIES)
def test_duality_fails_with_transposed_jordan_orientation(monkeypatch, verify, M, N, dz, dl):
    assert verify(make(M, N, dz, dl))["status"] == "pass"
    _transposed_infinity(monkeypatch)
    report = verify(make(M, N, dz, dl))
    assert report["status"] == "fail"
    assert report["witness"] == _TRANSPOSED_WITNESSES["glM", verify.__name__, M, N]


@pytest.mark.parametrize(
    "M,N,dz,dl",
    [
        (1, 2, [(1, 2)], [(0, 1)]),
        (2, 2, [(3, 2)], [(0, 2)]),
    ],
)
@pytest.mark.parametrize("verify", _ALL_DUALITIES)
def test_duality_fails_with_transposed_glN_jordan_orientation(monkeypatch, verify, M, N, dz, dl):
    assert verify(make(M, N, dz, dl))["status"] == "pass"
    _transposed_infinity_glN(monkeypatch)
    report = verify(make(M, N, dz, dl))
    assert report["status"] == "fail"
    assert report["witness"] == _TRANSPOSED_WITNESSES["glN", verify.__name__, M, N]


def test_classical_duality_fails_with_one_divide_out_copy_dropped(monkeypatch):
    inst = make(2, 2, [(1, 2)], [(5, 1), (7, 1)])
    assert verify_classical_bosonic_duality(inst)["status"] == "pass"
    divide_out = gaudin._divide_out

    def one_short(poly, divisor, spec_var):
        return poly if spec_var == "z" else divide_out(poly, divisor, spec_var)

    monkeypatch.setattr(gaudin, "_divide_out", one_short)
    report = verify_classical_bosonic_duality(inst)
    assert report["status"] == "fail"
    assert report["witness"] == {"monomial": {"z": 1}, "difference": "-70"}


@pytest.mark.parametrize("skipped", [2, 3])
def test_classical_duality_fails_with_one_step_division_skipped(monkeypatch, skipped):
    # at M = 3 the z side divides by D_z once at each of two steps, after the
    # 2 x 2 and after the 3 x 3 minors; a k x k minor is of degree at most k
    # in lam, and only the full one reaches 3
    inst = make(3, 2, [(1, 1), (2, 1)], [(5, 2), (7, 1)])
    assert verify_classical_bosonic_duality(inst)["status"] == "pass"
    divide_out = gaudin._divide_out

    def skipping(poly, divisor, spec_var):
        full = max(k for k, in poly.split_by(("lam",))) == 3
        if spec_var == "z" and full == (skipped == 3):
            return poly
        return divide_out(poly, divisor, spec_var)

    monkeypatch.setattr(gaudin, "_divide_out", skipping)
    report = verify_classical_bosonic_duality(inst)
    assert report["status"] == "fail"
    assert report["witness"] == {"monomial": {}, "difference": "-350"}


@pytest.mark.parametrize("call, by, witness", [
    (0, 1, {"side": "z", "minor": 2, "point": "1"}),
    (1, 1, {"side": "lam", "minor": 2, "point": "5"}),
    # a multiple of (z - 1)^2 leaves the first point dividing: the second refuses
    (0, (MultiPoly.var("z") - 1) ** 2, {"side": "z", "minor": 2, "point": "2"}),
], ids=["z", "lam", "z-second-point"])
def test_classical_duality_fails_on_a_refused_intermediate_minor(monkeypatch, call, by, witness):
    # both sides are 3 x 3, so the refused 2 x 2 minors are intermediate;
    # the refusal is a fail with a witness, not an error
    spec = {"kind": "classical-bosonic", "M": 3, "N": 3, "divisor": [["1", 2], ["2", 1]],
            "dual_divisor": [["5", 2], ["7", 1]]}
    assert run_instance(spec)["status"] == "pass"
    perturb_divided_expansion(monkeypatch, gaudin, call, by)
    report = run_instance(spec)
    assert report["status"] == "fail"
    assert report["witness"] == witness


def _grid_cases(specs, sizes=None):
    return [pytest.param(spec, id=f"M{spec['M']}N{spec['N']}-{k}")
            for k, spec in enumerate(specs) if sizes is None or (spec["M"], spec["N"]) in sizes]


@pytest.mark.parametrize("seed", [None, SAMPLE_SEED], ids=["symbolic", "sampled"])
@pytest.mark.parametrize("spec", _grid_cases(presets.classical_bosonic_grid()))
def test_per_step_division_equals_dividing_the_full_determinant(spec, seed):
    inst = build_instance(spec)
    check_per_step_division(gaudin, lambda: _spectral_dets(inst, seed),
                            [(inst.div_z, "z"), (inst.div_lam, "lam")])


# rational divisor points: the sampled determinants keep Fraction coefficients
_RATIONAL_POINTS = {"kind": "classical-bosonic", "M": 2, "N": 2,
                    "divisor": [["1/2", 1], ["-3/4", 1]], "dual_divisor": [["5/3", 2]]}


@pytest.mark.parametrize("spec", _grid_cases(presets.classical_bosonic_grid())
                         + [pytest.param(_RATIONAL_POINTS, id="rational-points")])
def test_sampled_determinants_are_the_symbolic_ones_at_the_sample_point(spec):
    # the oracle that sees a wrong power of the scale divided out where
    # M = N, when both sides would carry the same wrong factor and the
    # duality comparison would still pass
    inst = build_instance(spec)
    point = gaudin._sample_map(inst, SAMPLE_SEED)
    sampled = _spectral_dets(inst, SAMPLE_SEED)
    assert sampled == tuple(side.substitute(point) for side in _spectral_dets(inst))


def test_sampled_determinants_at_integer_points_run_over_the_integers(monkeypatch):
    # the sampled values have denominators up to 5: only the one common
    # denominator per side keeps Fractions out of the expansion
    inst = build_instance({"kind": "classical-bosonic", "M": 3, "N": 3,
                           "divisor": [["1", 3]], "dual_divisor": [["5", 3]]})
    matrices = []
    original = gaudin._perm_expansion

    def spy(m, divide=None):
        matrices.append(m)
        return original(m, divide)

    monkeypatch.setattr(gaudin, "_perm_expansion", spy)
    assert verify_classical_bosonic_duality(inst, SAMPLE_SEED)["status"] == "pass"
    assert len(matrices) == 2
    coefficients = [c for m in matrices for row in m for p in row for c in p.terms.values()]
    assert coefficients
    assert all(type(c) is int for c in coefficients)


@pytest.mark.parametrize("spec", _grid_cases(presets.classical_bosonic_grid()))
def test_cleared_entries_equal_the_cleared_ratfunc_lax(spec):
    check_cleared_against_ratfunc(build_instance(spec))


@pytest.mark.parametrize("spec", _grid_cases(presets.classical_bosonic_grid()))
def test_classical_duality_fails_with_the_order_one_quotient_at_every_pole(monkeypatch, spec):
    # a pole of order >= 2 exists exactly where a Takiff degree is >= 2, on
    # 27 of the 36 instances; the fault leaves the other 9 as they were
    inst = build_instance(spec)
    assert verify_classical_bosonic_duality(inst)["status"] == "pass"
    order_one_clearing(monkeypatch, gaudin)
    degrees = [tau for _, tau in inst.div_z.points + inst.div_lam.points]
    expected = "fail" if max(degrees) >= 2 else "pass"
    assert verify_classical_bosonic_duality(inst)["status"] == expected


def test_classical_4x4_common_polynomial_is_the_block_determinant():
    # the determinant of [[J_lam(lam)^T, X], [P, J_z(z)]] is the common
    # polynomial of both cleared sides
    inst = make(4, 4, [(1, 2), (2, 1), (3, 1)], [(5, 2), (7, 1), (11, 1)])
    report = verify_classical_bosonic_duality(inst)
    assert report["status"] == "pass"
    v = inst.var
    x = [[v[f"x{a}_{i}"] for i in range(1, 5)] for a in range(1, 5)]
    p = [[v[f"p{a}_{i}"] for a in range(1, 5)] for i in range(1, 5)]
    block = block2x2(transpose(jordan_sum(inst.div_lam, v["lam"])), x, p,
                     jordan_sum(inst.div_z, v["z"]))
    assert report["common_polynomial"] == repr(_perm_expansion(block))


def _dz_side_mutated(monkeypatch, mutate):
    """Build the dz side of the quantum duality from mutate(entries, divisor)."""
    cdet_side = gaudin._cdet_side

    def mutated(entries, divisor, var):
        if var == "dz":
            entries, divisor = mutate(entries, divisor)
        return cdet_side(entries, divisor, var)

    monkeypatch.setattr(gaudin, "_cdet_side", mutated)


def _one_prefactor_dropped(entries, divisor):
    """prod (Dz - lam_a)^tau~_a with one copy of the first factor left out."""
    (loc, tau), *rest = divisor.points
    return entries, Divisor((((loc, tau - 1),) if tau > 1 else ()) + tuple(rest))


def _entries_transposed(entries, divisor):
    """cdet(z 1 - L) in place of cdet(z 1 - tL)."""
    return [list(col) for col in zip(*entries)], divisor


@pytest.mark.parametrize("spec", _grid_cases(presets.quantum_grid()))
def test_quantum_duality_fails_with_one_prefactor_dropped(monkeypatch, spec):
    inst = make(spec["M"], spec["N"], spec["divisor"], spec["dual_divisor"])
    assert verify_quantum_duality(inst)["status"] == "pass"
    _dz_side_mutated(monkeypatch, _one_prefactor_dropped)
    report = verify_quantum_duality(inst)
    assert report["status"] == "fail"
    assert report["witness"]


# only where N = 2: at N = 1 the dz-side matrix is 1 x 1 and the transpose
# changes nothing
@pytest.mark.parametrize("spec", _grid_cases(presets.quantum_grid(), {(1, 2), (2, 2)}))
def test_quantum_duality_fails_with_dz_side_entries_transposed(monkeypatch, spec):
    inst = make(spec["M"], spec["N"], spec["divisor"], spec["dual_divisor"])
    assert verify_quantum_duality(inst)["status"] == "pass"
    _dz_side_mutated(monkeypatch, _entries_transposed)
    report = verify_quantum_duality(inst)
    assert report["status"] == "fail"
    assert report["witness"]


# the ring hooks of the two element classes, mutated: every product a duality
# side forms goes through them, so each duality verifier must see the fault.
# weyl_commutator calls the module-level weyl._mono_mul, so the homomorphism
# checks do not see the Weyl mutant.
@pytest.mark.parametrize("spec", _grid_cases(presets.quantum_grid()))
def test_quantum_duality_fails_with_the_weyl_product_reversed(monkeypatch, spec):
    inst = build_instance(spec)
    assert verify_quantum_duality(inst)["status"] == "pass"
    monkeypatch.setattr(WeylElement, "_mono_mul",
                        staticmethod(lambda k1, k2: weyl._mono_mul(k2, k1)))
    report = verify_quantum_duality(inst)
    # at M = N = 1, (z - z1)(Dz - lam1) - x d = (Dz - lam1)(z - z1) - d x:
    # reversing every product turns each side into the other
    if (spec["M"], spec["N"]) == (1, 1):
        assert report["status"] == "pass"
    else:
        assert report["status"] == "fail"
        assert report["witness"]


@pytest.mark.parametrize("spec", _grid_cases(presets.quantum_grid()))
def test_quantum_duality_fails_on_a_block_matrix_that_is_not_manin(monkeypatch, spec):
    """One entry of X doubled: the two sides, which never read the block
    matrix, still agree, and the Manin half alone fails the verdict."""
    inst = build_instance(spec)
    block = gaudin.quantum_block_matrix

    def doubled(inst):
        rows = block(inst)
        rows[0][inst.M] = rows[0][inst.M] * 2
        return rows

    monkeypatch.setattr(gaudin, "quantum_block_matrix", doubled)
    report = verify_quantum_duality(inst)
    assert report["status"] == "fail" and report["manin"] is False
    assert list(report["witness"]) == ["manin_quadruple"]
    left, right = quantum_operator_sides(inst)
    assert left.to_polynomial() == right.to_polynomial()


Z_SHIFT = Q(4, 3)


def _z_shifted(w: WeylElement, c) -> WeylElement:
    """w under z -> z - c, an automorphism that fixes Dz: in each
    normal-ordered term, z^a Dz^b becomes (z - c)^a Dz^b."""
    out = W.zero()
    for key, coeff in w.terms.items():
        term = W.const(coeff)
        for pair, x, d in key:
            term = term * ((W.z() - c) ** x * W.dz(d) if pair == weyl.Z_PAIR
                           else W._generator(pair, x, d))
        out = out + term
    return out


@pytest.mark.parametrize("spec", _grid_cases(presets.quantum_grid()))
def test_shifting_every_z_point_shifts_both_quantum_sides(spec):
    """A relation that needs no oracle: with every z point moved by 4/3 the
    Lax matrix and the prefactor are the old ones at z - 4/3, so each
    normal-ordered side of the moved spec is the old side under
    z -> z - 4/3."""
    moved = dict(spec, divisor=[[str(Q(p) + Z_SHIFT), t] for p, t in spec["divisor"]])
    old, new = ([side.to_polynomial() for side in quantum_operator_sides(build_instance(s))]
                for s in (spec, moved))
    assert new != old
    assert new == [_z_shifted(side, Z_SHIFT) for side in old]


@pytest.mark.parametrize("spec", _grid_cases(presets.fermionic_grid()))
def test_fermionic_duality_fails_with_the_wedge_sign_dropped(monkeypatch, spec):
    inst = build_instance(spec)
    assert verify_classical_fermionic_duality(inst)["status"] == "pass"
    monkeypatch.setattr(GrassmannElement, "_mono_mul", staticmethod(
        lambda m1, m2: tuple((mask, 1) for mask, _ in wedge_masks(m1, m2))))
    report = verify_classical_fermionic_duality(inst)
    assert report["status"] == "fail"
    assert report["witness"]
