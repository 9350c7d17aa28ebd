from fractions import Fraction

import pytest

from gaudual import gaudin, matrices, presets
from gaudual.cyclotomic import (
    CycloDivisor,
    CycloInstance,
    extract_cyclotomic_generators,
    lax_algebra_check,
    neumann_artifacts,
    quantum_cyclotomic_candidate,
    sphere_constraint_is_angular_invariant,
    verify_cyclotomic_duality,
    verify_cyclotomic_homomorphisms,
)
from gaudual.errors import BadPoints, DivisorMismatch, DuplicateFrequency
from gaudual.gaudin import check_commutativity
from gaudual.matrices import manin_check
from gaudual.multipoly import MultiPoly
from gaudual.poisson import poisson_bracket
from gaudual.weyl import WeylElement
from gaudual.runner import run_instance
from helpers import (build_instance, check_cleared_against_ratfunc, check_commutativity_reference,
                     check_per_step_division, order_one_clearing, origin_terms, pair_structure,
                     perturb_divided_expansion, rng, random_fraction, sp_expand)

Q = Fraction
V = MultiPoly.var


def inst_of(M, tau0, pts, lams, mu):
    return CycloInstance(M, CycloDivisor.of(tau0, pts), [Q(x) for x in lams], mu)


# -- diagram automorphism -----------------------------------------------------
# elements of gl_M are maps (a, b) -> coefficient


def diagram_automorphism(x: dict) -> dict:
    """sigma(E_ab) = -E_ba, extended linearly."""
    out: dict = {}
    for (a, b), c in x.items():
        out[(b, a)] = out.get((b, a), 0) - c
    return {k: c for k, c in out.items() if c}


def projector(r: int, a: int, b: int) -> dict:
    """Pi_(r) E_ab = E_ab - (-1)^r E_ba."""
    sign = Q(-1) if r % 2 == 0 else Q(1)
    out = {(a, b): Q(1)}
    out[(b, a)] = out.get((b, a), Q(0)) + sign
    return {k: c for k, c in out.items() if c}


def gl_bracket(x: dict, y: dict) -> dict:
    """[E_ab, E_cd] = delta_bc E_ad - delta_ad E_cb, extended bilinearly."""
    out: dict = {}
    for (a, b), c1 in x.items():
        for (c, d), c2 in y.items():
            if b == c:
                out[(a, d)] = out.get((a, d), 0) + c1 * c2
            if a == d:
                out[(c, b)] = out.get((c, b), 0) - c1 * c2
    return {k: c for k, c in out.items() if c}


def test_sigma_definition_and_involution():
    assert diagram_automorphism({(1, 2): Q(1)}) == {(2, 1): Q(-1)}
    for a in range(1, 4):
        for b in range(1, 4):
            x = {(a, b): Q(1)}
            assert diagram_automorphism(diagram_automorphism(x)) == x


def test_sigma_is_lie_automorphism():
    for idx in [(1, 2, 2, 3), (1, 1, 1, 2), (2, 1, 1, 2), (3, 1, 2, 2)]:
        a, b, c, d = idx
        x, y = {(a, b): Q(1)}, {(c, d): Q(1)}
        lhs = diagram_automorphism(gl_bracket(x, y))
        rhs = gl_bracket(diagram_automorphism(x), diagram_automorphism(y))
        assert lhs == rhs


def test_projector_formula():
    assert projector(0, 1, 2) == {(1, 2): Q(1), (2, 1): Q(-1)}
    assert projector(1, 1, 2) == {(1, 2): Q(1), (2, 1): Q(1)}
    assert projector(0, 1, 1) == {}
    # Pi_(0) image is sigma-invariant, Pi_(1) image is anti-invariant
    p0 = projector(0, 1, 2)
    assert diagram_automorphism(p0) == p0
    p1 = projector(1, 1, 2)
    assert diagram_automorphism(p1) == {k: -c for k, c in p1.items()}


@pytest.mark.parametrize("tau0", [1, 2, 3])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_origin_bracket_matches_gl_commutator(M, tau0):
    # every ordered pair of origin generators: the terms matrix_rows lists are
    # distinct canonical generators of depth r + s, and their projectors sum
    # to the gl_M commutator of the two projectors; the canonical Pi_(t) E_xy
    # are independent, so this pins every coefficient
    inst = inst_of(M, tau0, [], [5, 7, 11][:M], Q(0))
    canonical = set(inst.glMC_generators())
    structure = pair_structure(inst.glMC_generators(), inst.glMC_matrix)
    origin = [g for g in inst.glMC_generators() if g[0] == "or"]
    for g1 in origin:
        for g2 in origin:
            (_, r, a, b), (_, s, c, d) = g1, g2
            got = structure(g1, g2)
            if r + s >= 2 * tau0:
                assert got == [], (g1, g2)
                continue
            assert len({g for _, g in got}) == len(got), (g1, g2)
            total: dict = {}
            for k, g in got:
                assert k and g in canonical and g[1] == r + s, (g1, g2, g)
                for xy, v in projector(*g[1:]).items():
                    total[xy] = total.get(xy, 0) + k * v
            want = gl_bracket(projector(r, a, b), projector(s, c, d))
            assert {xy: v for xy, v in total.items() if v} == want, (g1, g2)


def test_origin_terms_identification():
    # the summed entries of Pi_(s) E_ab = E_ab - (-1)^s E_ba on the canonical
    # basis: Pi_(s) E_ba = -(-1)^s Pi_(s) E_ab, and Pi_(s) E_aa = 0 for even s
    assert origin_terms(0, {(2, 1): 1, (1, 2): -1}) == [(Q(-1), ("or", 0, 1, 2))]
    assert origin_terms(1, {(2, 1): 1, (1, 2): 1}) == [(Q(1), ("or", 1, 1, 2))]
    assert origin_terms(0, {(1, 1): 0}) == []
    assert origin_terms(1, {(1, 1): 2}) == [(Q(1), ("or", 1, 1, 1))]


# -- divisor validation --------------------------------------------------------


def test_cyclo_divisor_rejects_bad_points():
    with pytest.raises(BadPoints):
        CycloDivisor.of(1, [(0, 1)])
    with pytest.raises(BadPoints):
        CycloDivisor.of(1, [(1, 1), (-1, 1)])
    with pytest.raises(BadPoints):
        inst_of(2, 1, [(1, 1)], ["5", "5"], Q(0))


@pytest.mark.parametrize(
    "tau0, points, error",
    [(0, [(1, 1)], DivisorMismatch), (1, [(0, 1)], BadPoints), (1, [(2, 1), (-2, 1)], BadPoints),
     (1, [(2, 1), (2, 1)], BadPoints), (1, [(2, 0)], DivisorMismatch)],
    ids=["tau0-zero", "point-at-zero", "plus-minus-pair", "repeated-point", "degree-zero"],
)
def test_cyclo_divisor_checks_hold_through_the_constructor_and_of(tau0, points, error):
    with pytest.raises(error):
        CycloDivisor.of(tau0, points)
    with pytest.raises(error):
        CycloDivisor(tau0, tuple((Q(p), t) for p, t in points))


def test_cyclo_divisor_record_semantics():
    c = CycloDivisor.of(2, [("1/2", 1)])
    assert repr(c) == "CycloDivisor(tau0=2, points=((Fraction(1, 2), 1),))"
    assert hash(c) == hash((c.tau0, c.points))
    with pytest.raises(AttributeError):
        c.tau0 = 1


def test_cyclo_divisor_refuses_a_float_tau0():
    with pytest.raises(DivisorMismatch):
        CycloDivisor.of(2.7, [(1, 1)])


def test_cyclo_divisor_refuses_a_bool_tau0():
    with pytest.raises(DivisorMismatch):
        CycloDivisor.of(True, [(1, 1)])


def test_cyclo_divisor_refuses_a_bool_degree():
    with pytest.raises(DivisorMismatch):
        CycloDivisor.of(2, [(1, True)])


def test_cyclo_divisor_refuses_a_float_point():
    with pytest.raises(TypeError):
        CycloDivisor.of(1, [(0.5, 1)])


# -- realized images (spec's hand-expanded cases) -------------------------------


def test_origin_image_depth_zero():
    inst = inst_of(2, 1, [], ["5", "7"], Q(-1))
    img = inst.realize_glMC(("or", 0, 1, 2))
    assert img == V("x1_1") * V("p2_1") - V("x2_1") * V("p1_1")


def test_origin_image_depth_one_mu_term():
    # s = 1, tau0 = 1: image = -mu (-1)^1 x^a_1 x^b_1 = mu x_a x_b
    inst = inst_of(2, 1, [], ["5", "7"], Q(-1))
    img = inst.realize_glMC(("or", 1, 1, 2))
    assert img == -V("x1_1") * V("x2_1")
    img_diag = inst.realize_glMC(("or", 1, 1, 1))
    assert img_diag == -V("x1_1") * V("x1_1")


def test_infinity_image_diagonal_only():
    inst = inst_of(2, 1, [], ["5", "7"], Q(0))
    assert inst.realize_glMC(("inf", 1, 1)) == MultiPoly.const(5)
    assert inst.realize_glMC(("inf", 1, 2)) == MultiPoly.const(0)


def test_point_image_uses_cyclotomic_offsets():
    # nu_1 = tau0, so the first finite block starts at u = tau0 + 1
    inst = inst_of(1, 2, [(1, 1)], ["5"], Q(0))
    img = inst.realize_glMC(("pt", 0, 0, 1, 1))
    assert img == V("x1_3") * V("p1_3")


# -- sp_2N structure ------------------------------------------------------------


def dense(inst: CycloInstance, entries) -> list[list[Fraction]]:
    """The 2N x 2N matrix with the given (row, column, value) entries."""
    n = 2 * inst.N
    m = [[Q(0)] * n for _ in range(n)]
    for r, c, value in entries:
        m[r][c] += value
    return m


def sparse(m: list[list]) -> dict:
    """The nonzero {(row, column): value} entries of a dense matrix."""
    return {(r, c): v for r, row in enumerate(m) for c, v in enumerate(row) if v}


def ebar(inst: CycloInstance, I: int, J: int) -> list[list[Fraction]]:
    """Defining matrix of Ebar_IJ."""
    return dense(inst, inst.ebar_entries(I, J))


def test_sp_pairing_duality():
    # the duals the Lax builder computes are the dual basis under half the
    # fundamental trace: (1/2) tr(Ebar_IJ Ebar^KL) = delta_IK delta_JL on
    # I2 x I2
    inst = inst_of(1, 2, [], ["5"], Q(0))
    pairs = inst.I2()
    assert len(pairs) == inst.N * (2 * inst.N + 1)
    duals = matrices._duals(tuple(inst.ebar_entries(I, J) for I, J in pairs), Q(1, 2))
    for I, J in pairs:
        for (K, L), dual in zip(pairs, duals):
            e = ebar(inst, I, J)
            d = dense(inst, [(r, c, v) for (r, c), v in dual.items()])
            n = 2 * inst.N
            tr = sum(
                e[r][k] * d[k][r] for r in range(n) for k in range(n)
            )
            want = Q(1) if (I, J) == (K, L) else Q(0)
            assert tr / 2 == want, (I, J, K, L)


def test_ebar_minus_relation_in_matrices():
    inst = inst_of(1, 2, [], ["5"], Q(0))
    for I, J in inst.I2():
        sigma = Q(1) if (I > 0) == (J > 0) else Q(-1)
        lhs = ebar(inst, -J, -I)
        rhs = [[-sigma * c for c in row] for row in ebar(inst, I, J)]
        assert lhs == rhs


def test_ebar_minus_relation_in_realized_images():
    inst = inst_of(2, 2, [(1, 1)], ["5", "7"], Q(-1))
    for a in (1, 2):
        for I, J in inst.I2():
            sigma = Q(1) if (I > 0) == (J > 0) else Q(-1)
            lhs = inst.realize_sp("lam", a, -J, -I)
            rhs = inst.realize_sp("lam", a, I, J) * (-sigma)
            assert lhs == rhs


def test_sp_expand_round_trip():
    inst = inst_of(1, 2, [], ["5"], Q(0))
    r = rng(71)
    n = 2 * inst.N
    for _ in range(20):
        coeffs = {(I, J): random_fraction(r) for I, J in inst.I2()}
        total = [[Q(0)] * n for _ in range(n)]
        for (I, J), c in coeffs.items():
            e = ebar(inst, I, J)
            for i in range(n):
                for j in range(n):
                    total[i][j] += c * e[i][j]
        got = sp_expand(inst, sparse(total))
        assert got == {k: c for k, c in coeffs.items() if c}


@pytest.mark.parametrize("tau0, pts", [(1, []), (2, []), (1, [(1, 1), (2, 1)])],
                         ids=["N=1", "N=2", "N=3"])
def test_sp_structure_matches_dense_commutator(tau0, pts):
    # every ordered generator pair, at two points lambda_a and at infinity:
    # the terms matrix_rows lists are distinct basis generators at the pair's
    # point, and their ebar matrices sum to the dense commutator of the two
    # ebar matrices; the Ebar_IJ, (I, J) in I2, are independent, so this pins
    # every coefficient
    inst = inst_of(2, tau0, pts, ["5", "7"], Q(-1))
    n = 2 * inst.N
    canonical = set(inst.I2())
    structure = pair_structure(inst.sp_generators(), inst.sp_matrix)
    nonzero = 0
    for g1 in inst.sp_generators():
        for g2 in inst.sp_generators():
            got = structure(g1, g2)
            if g1[0] == "inf" or g2[0] == "inf" or g1[1] != g2[1]:
                assert got == [], (g1, g2)
                continue
            assert len({g for _, g in got}) == len(got), (g1, g2)
            total = [[Q(0)] * n for _ in range(n)]
            for coeff, (kind, a, I, J) in got:
                assert coeff and (kind, a) == ("lam", g1[1]) and (I, J) in canonical, (g1, g2)
                for r, c, value in inst.ebar_entries(I, J):
                    total[r][c] += coeff * value
            m1, m2 = ebar(inst, g1[2], g1[3]), ebar(inst, g2[2], g2[3])
            comm = [[sum(m1[r][k] * m2[k][c] - m2[r][k] * m1[k][c] for k in range(n))
                     for c in range(n)] for r in range(n)]
            assert total == comm, (g1, g2)
            nonzero += bool(got)
    assert nonzero > 0


def test_sp_infinity_matrix_matches_paper_display():
    # n = 2, tau0 = 2, tau = (1, 2): z 1 - Lconst reproduces the displayed
    # 10 x 10 matrix with blocks z + z_2, z + z_1, the mu-coupled origin
    # block, z - z_1, z - z_2
    z1, z2 = Q(1), Q(2)
    mu = MultiPoly.var("mu")
    inst = CycloInstance(1, CycloDivisor.of(2, [(z1, 1), (z2, 2)]), [Q(5)], mu)
    assert inst.N == 5
    n = 10
    a_mat = inst.sp_inf_matrix(Q(0), inst.mu)
    # Lconst: the constant (order 0) terms of the sp_2N Lax matrix, which
    # places each realized infinity generator on the entries of its dual
    lconst = [[sum((img for img, _, order in terms if order == 0), MultiPoly.zero())
               for terms in row] for row in inst.lax_glN("classical")]
    z = MultiPoly.var("z")
    got = [
        [(z if r == c else MultiPoly.zero()) - lconst[r][c] for c in range(n)]
        for r in range(n)
    ]
    expected = [[MultiPoly.zero() for _ in range(n)] for _ in range(n)]
    blocks = [(z + z2, -1, 2), (z + z1, -1, 1), (z, -1, 2), (z, 1, 2),
              (z - z1, 1, 1), (z - z2, 1, 2)]
    base = 0
    for diag, below_sign, size in blocks:
        for k in range(size):
            expected[base + k][base + k] = diag
            if k + 1 < size:
                expected[base + k + 1][base + k] = MultiPoly.const(-below_sign)
        base += size
    expected[inst.pos(1)][inst.pos(-1)] = expected[inst.pos(1)][inst.pos(-1)] + mu
    assert got == expected
    # and z 1 - Lconst == z 1 + A entrywise
    for r in range(n):
        for c in range(n):
            a_entry = a_mat[r][c]
            a_entry = a_entry if isinstance(a_entry, MultiPoly) else MultiPoly.const(a_entry)
            assert got[r][c] == (z if r == c else MultiPoly.zero()) + a_entry


# -- homomorphisms and duality ----------------------------------------------


@pytest.mark.parametrize(
    "M,tau0,pts,mu",
    [
        (2, 1, [], "-1"),
        (2, 1, [(1, 1)], "0"),
        (1, 2, [], "3/2"),
        (2, 2, [], "-1"),
    ],
)
def test_cyclotomic_homomorphisms(M, tau0, pts, mu):
    inst = inst_of(M, tau0, pts, ["5", "7"][:M], Q(mu))
    assert verify_cyclotomic_homomorphisms(inst)["status"] == "pass"


def test_cyclotomic_homomorphisms_realize_each_generator_once(monkeypatch):
    """Every structure term is a canonical generator, so the gl_M^C side
    realizes each generator exactly once, in generator order."""
    inst = inst_of(2, 2, [], ["5", "7"], Q(-1))
    calls = []
    realize = CycloInstance.realize_glMC

    def counted(self, g, mutation=None):
        calls.append(g)
        return realize(self, g, mutation)

    monkeypatch.setattr(CycloInstance, "realize_glMC", counted)
    assert verify_cyclotomic_homomorphisms(inst)["status"] == "pass"
    assert calls == inst.glMC_generators()


@pytest.mark.parametrize("side, kind", [("glM-cyclotomic", "or"), ("sp2N", "lam")],
                         ids=["origin", "sp2N"])
def test_cyclotomic_homomorphisms_fail_on_one_wrong_structure_constant(monkeypatch, side, kind):
    """The row entry of the first pair of two origin generators (two sp_2N
    generators at one point lambda_a) with a nonzero structure is negated:
    the check fails at that pair, after every earlier pair in the check
    order, the gl_M^C side first."""
    inst = inst_of(2, 2, [(1, 1)], ["5", "7"], Q(-1))
    gl_gens, sp_gens = inst.glMC_generators(), inst.sp_generators()
    gens, matrix, before = ((gl_gens, inst.glMC_matrix, 0) if side == "glM-cyclotomic"
                            else (sp_gens, inst.sp_matrix, len(gl_gens) ** 2))
    rows = gaudin.matrix_rows(gens, matrix)
    i, j = next((i, j) for i, g1 in enumerate(gens) for j in sorted(rows(i))
                if g1[0] == gens[j][0] == kind)
    original = gaudin.matrix_rows

    def wrong(side_gens, side_matrix):
        row = original(side_gens, side_matrix)
        if side_gens != gens:
            return row

        def faulty(k):
            out = row(k)
            if k == i:
                out[j] = [(-c, g) for c, g in out[j]]
            return out

        return faulty

    monkeypatch.setattr(gaudin, "matrix_rows", wrong)
    assert verify_cyclotomic_homomorphisms(inst) == {
        "status": "fail",
        "pairs_checked": before + i * len(gens) + j + 1,
        "witness": {"side": side, "pair": (str(gens[i]), str(gens[j]))},
    }


def test_cyclotomic_homomorphism_mutation_fails():
    inst = inst_of(2, 2, [], ["5", "7"], Q(-1))
    report = verify_cyclotomic_homomorphisms(inst, mutation="y-sign")
    assert report["status"] == "fail"
    assert report["witness"]["pair"]


@pytest.mark.parametrize(
    "M,tau0,pts,mu",
    [
        (1, 1, [], "-1"),
        (2, 1, [], "0"),
        (1, 1, [(1, 1)], "0"),
        (2, 1, [(1, 1)], "-1"),
        (1, 2, [], "3/2"),
        (2, 2, [], "3/2"),
    ],
)
def test_cyclotomic_duality(M, tau0, pts, mu):
    inst = inst_of(M, tau0, pts, ["5", "7"][:M], Q(mu))
    assert verify_cyclotomic_duality(inst)["status"] == "pass"


def test_cyclotomic_duality_symbolic_mu():
    inst = inst_of(2, 1, [(1, 1)], ["5", "7"], MultiPoly.var("mu"))
    assert verify_cyclotomic_duality(inst)["status"] == "pass"
    assert verify_cyclotomic_homomorphisms(inst)["status"] == "pass"


def test_cyclotomic_duality_fails_with_the_last_sp2N_division_skipped(monkeypatch):
    # N = 2: the 4 x 4 sp_2N side divides by Dbar at three steps; a k x k
    # minor is of degree at most k in z, and only the full one reaches 4
    inst = inst_of(2, 1, [(1, 1)], ["5", "7"], Q(-1))
    assert verify_cyclotomic_duality(inst)["status"] == "pass"
    divide_out = gaudin._divide_out

    def skipping(poly, divisor, spec_var, copies):
        if spec_var == "lam" and max(k for k, in poly.split_by(("z",))) == 4:
            return poly
        return divide_out(poly, divisor, spec_var, copies)

    monkeypatch.setattr(gaudin, "_divide_out", skipping)
    report = verify_cyclotomic_duality(inst)
    assert report["status"] == "fail"
    assert report["witness"] == {"monomial": {"z": 2}, "difference": "1190"}


@pytest.mark.parametrize("call, witness", [(0, {"side": "glM", "minor": 2, "point": "0"}),
                                           (1, {"side": "sp2N", "minor": 2, "point": "5"})],
                         ids=["glM", "sp2N"])
def test_cyclotomic_duality_fails_on_a_refused_intermediate_minor(monkeypatch, call, witness):
    # the sp_2N side is 4 x 4 and the gl_M^C side 3 x 3, so the refused
    # 2 x 2 minors are intermediate; the refusal is a fail, not an error
    spec = {"kind": "cyclotomic", "M": 3, "N": 2, "tau0": 1, "divisor": [["1", 1]],
            "lambda_points": ["5", "7", "11"], "mu": "-1"}
    assert run_instance(spec)["status"] == "pass"
    perturb_divided_expansion(monkeypatch, gaudin, call)
    report = run_instance(spec)
    assert report["status"] == "fail"
    assert report["witness"] == witness


def test_cyclotomic_generators_poisson_commute():
    inst = inst_of(2, 1, [(1, 1)], ["5", "7"], Q(-1))
    gens = extract_cyclotomic_generators(inst)
    report = check_commutativity(gens, "classical")
    assert report["status"] == "pass"
    assert report["pairs_checked"] >= 10


def test_cyclotomic_commutativity_fails_on_one_added_element():
    # {p1_1, g} = dg/dx1_1: the generators free of x1_1 go first, so the
    # first nonzero bracket is p1_1 against the first generator using x1_1
    inst = inst_of(2, 1, [(1, 1)], ["5", "7"], Q(-1))
    gens = extract_cyclotomic_generators(inst)
    free = [g for g in gens if not g.derivative("x1_1")]
    used = [g for g in gens if g.derivative("x1_1")]
    assert free and used
    k, n = len(free), len(gens) + 1
    report = check_commutativity(free + [V("p1_1")] + used, "classical")
    assert report == {
        "status": "fail",
        "pairs_checked": sum(n - r for r in range(k)) + 2,
        "witness": {"pair": (k, k + 1), "bracket": repr(used[0].derivative("x1_1"))},
    }
    assert report == check_commutativity_reference(free + [V("p1_1")] + used, "classical")


# -- Lax algebra -----------------------------------------------------------------


def test_lax_algebra_cyclotomic():
    inst = inst_of(1, 1, [], ["5"], Q(-1))
    assert lax_algebra_check(inst, "cyclotomic-glM")["status"] == "pass"
    inst2 = inst_of(2, 1, [(1, 1)], ["5", "7"], Q(3, 2))
    assert lax_algebra_check(inst2, "cyclotomic-glM")["status"] == "pass"


def test_lax_algebra_sp2n():
    inst = inst_of(1, 1, [], ["5"], Q(-1))
    assert lax_algebra_check(inst, "sp2N")["status"] == "pass"


def test_lax_algebra_cyclotomic_fails_with_y_sign_mutation(monkeypatch):
    inst = inst_of(2, 1, [(1, 1)], ["5", "7"], Q(3, 2))
    realize = CycloInstance.realize_glMC
    monkeypatch.setattr(CycloInstance, "realize_glMC",
                        lambda self, g, mutation=None: realize(self, g, "y-sign"))
    report = lax_algebra_check(inst, "cyclotomic-glM")
    assert report["status"] == "fail"
    assert report["witness"] == {"entry": (0, 1)}


def test_lax_algebra_sp2n_fails_with_flip_sign_mutation(monkeypatch):
    inst = inst_of(1, 1, [], ["5"], Q(-1))
    realize = CycloInstance.realize_sp
    monkeypatch.setattr(CycloInstance, "realize_sp",
                        lambda self, kind, a, I, J, mutation=None:
                        realize(self, kind, a, I, J, "flip-sign"))
    assert lax_algebra_check(inst, "sp2N")["status"] == "fail"


def test_sp_r_matrix_skew():
    # rbar12(u,v) = R / (v - u) = -rbar21(v,u) holds exactly when the
    # numerator R, the split Casimir sum Ebar^IJ x Ebar_IJ of the duals the
    # Lax algebra check reads, is symmetric under exchange of its two legs
    inst = inst_of(1, 1, [], ["5"], Q(0))
    n = 2 * inst.N
    ebar = tuple(inst.ebar_entries(I, J) for I, J in inst.I2())
    R: dict = {}
    for dual, entries in zip(matrices._duals(ebar, Q(1, 2)), ebar):
        for (i, j), d in dual.items():
            for k, l, v in entries:
                R[i * n + k, j * n + l] = R.get((i * n + k, j * n + l), 0) + d * v
    R = {key: v for key, v in R.items() if v}
    swap = {(a * n + b, c * n + d): v for (row, col), v in R.items()
            for (b, a), (d, c) in [(divmod(row, n), divmod(col, n))]}
    assert R == swap
    assert R


# -- Neumann model ----------------------------------------------------------------


@pytest.mark.parametrize("M,omegas", [(2, [1, 2]), (3, [1, 2, 3])])
def test_neumann(M, omegas):
    report = neumann_artifacts(M, omegas)
    assert report["status"] == "pass"
    assert report["hamiltonian_commutes"]
    assert report["hamiltonian_combination"] is not None


def test_neumann_m2_combination_is_half_c00_plus_lambda_sum():
    # H = 1/2 C_(z^0 lam^0) + (lam_1 + lam_2)/2 C_(z^0 lam^1) for omega=(1,2)
    report = neumann_artifacts(2, [1, 2])
    assert report["hamiltonian_combination"][:2] == ["1/2", "5/2"]


def test_neumann_builds_each_side_determinant_once(monkeypatch):
    calls = []
    side_det = gaudin._side_det

    def counted(inst, lax, divisor, spec_var, *args):
        calls.append(spec_var)
        return side_det(inst, lax, divisor, spec_var, *args)

    monkeypatch.setattr(gaudin, "_side_det", counted)
    assert neumann_artifacts(3, [1, 2, 3])["status"] == "pass"
    assert calls == ["z", "lam"]


def test_neumann_duplicate_frequency():
    with pytest.raises(DuplicateFrequency):
        neumann_artifacts(2, [2, -2])


def test_sphere_constraint_invariance():
    assert sphere_constraint_is_angular_invariant(3)


def test_neumann_hamiltonian_brackets():
    # H = 1/2 (x_1 p_2 - x_2 p_1)^2 + 1/2 (omega_1^2 x_1^2 + omega_2^2 x_2^2)
    # for omega = (1, 2)
    inst = inst_of(2, 1, [], [1, 4], Q(-1))
    k12 = V("x1_1") * V("p2_1") - V("x2_1") * V("p1_1")
    H = (k12 * k12 + V("x1_1") ** 2 + 4 * V("x2_1") ** 2) * Q(1, 2)
    for coeff in extract_cyclotomic_generators(inst):
        assert not poisson_bracket(H, coeff)


# -- negative quantum result -------------------------------------------------------


def test_cyclo_z_matrix_layout():
    # tau0 = 2, one point z_1 = 3; rows and columns run over I = -3..-1, 1..3:
    # blocks z + z_1, the origin pair (+1 below, then -1 below), z - z_1,
    # and mu at (I, J) = (1, -1)
    inst = inst_of(1, 2, [(3, 1)], ["5"], Q(2))
    z = WeylElement({(("sp_z", 1, 0),): Q(1)})
    one, zero = WeylElement.const(1), WeylElement.zero()
    expected = [
        [z + 3, zero, zero, zero, zero, zero],
        [zero, z, zero, zero, zero, zero],
        [zero, one, z, zero, zero, zero],
        [zero, zero, WeylElement.const(2), z, zero, zero],
        [zero, zero, zero, -one, z, zero],
        [zero, zero, zero, zero, zero, z - 3],
    ]
    assert inst.sp_inf_matrix(z, WeylElement.const(2)) == expected


def test_quantum_cyclotomic_candidate_not_manin():
    inst = inst_of(2, 1, [(1, 1)], ["5", "7"], Q(-1))
    cand = quantum_cyclotomic_candidate(inst)
    assert len(cand) == 2 + 2 * 2
    ok, witness = manin_check(cand)
    assert not ok
    i, j, k, l = witness
    # re-verify the witness: the quadruple genuinely violates a Manin condition
    a, b = cand[i][j], cand[k][l]
    c, d = cand[k][j], cand[i][l]
    if j == l:
        assert a * b - b * a != 0
    else:
        assert a * b - b * a != c * d - d * c


def test_neumann_mxm_lax_entries():
    # the M x M Lax entry (b, a) is lam_a delta_ab + (x_a p_b - x_b p_a)/z
    # - x_a x_b / z^2 for the frequencies omega = (1, 2); the cleared matrix
    # holds the numerators over D_C = z^2
    inst = inst_of(2, 1, [], [1, 4], Q(-1))
    lax = gaudin._cleared(inst.lax_glM("classical"), inst.div_z, inst.var, "z")
    z = V("z")
    k12 = V("x1_1") * V("p2_1") - V("x2_1") * V("p1_1")
    assert lax[0][0] == z * z - V("x1_1") ** 2  # lam_1 = 1
    assert lax[1][0] == k12 * z - V("x1_1") * V("x2_1")
    assert lax[0][1] == -k12 * z - V("x1_1") * V("x2_1")
    assert lax[1][1] == 4 * z * z - V("x2_1") ** 2  # lam_2 = 4
    # the dual Lax matrix is 2 x 2
    assert len(inst.lax_glN("classical")) == 2


def _paper_core_cyclotomic():
    from gaudual.presets import paper_core

    specs = [spec for spec in paper_core() if spec["kind"] == "cyclotomic"
             and not spec.get("options", {}).get("quantum_candidate")]
    return [pytest.param(build_instance(spec), spec, id=_spec_id(spec)) for spec in specs]


def _spec_id(spec):
    mu = "mu" if spec.get("options", {}).get("symbolic_mu") else spec["mu"]
    return f"M{spec['M']}-tau0_{spec['tau0']}-points{len(spec['divisor'])}-mu={mu}"


def _flipped_mu(monkeypatch):
    """Put -mu in place of mu in the sp_2N matrix at infinity of every
    instance built after the call: each builds that matrix once."""
    sp_inf_matrix = CycloInstance.sp_inf_matrix

    def flipped(self, x, mu):
        rows = sp_inf_matrix(self, x, mu)
        r, c = self.pos(1), self.pos(-1)
        assert rows[r][c] == mu  # the mu entry sits on a zero of the Jordan data
        rows[r][c] = -mu
        return rows

    monkeypatch.setattr(CycloInstance, "sp_inf_matrix", flipped)


@pytest.mark.parametrize("inst, spec", _paper_core_cyclotomic())
def test_cyclotomic_duality_fails_with_flipped_mu_sign(monkeypatch, inst, spec):
    assert verify_cyclotomic_duality(inst)["status"] == "pass"
    _flipped_mu(monkeypatch)
    mu_is_zero = not spec.get("options", {}).get("symbolic_mu") and Q(spec["mu"]) == 0
    flipped = build_instance(spec)
    assert verify_cyclotomic_duality(flipped)["status"] == ("pass" if mu_is_zero else "fail")


def test_neumann_fails_with_flipped_mu_sign(monkeypatch):
    # only the duality part sees the patch: the Hamiltonian still commutes
    # with the gl_M^C coefficients and is still their combination
    assert neumann_artifacts(2, [1, 2])["status"] == "pass"
    _flipped_mu(monkeypatch)
    report = neumann_artifacts(2, [1, 2])
    assert report["status"] == "fail"
    assert report["duality"]["witness"] == {"monomial": {"x2_1": 2}, "difference": "-2"}
    assert report["hamiltonian_commutes"]
    assert report["hamiltonian_combination"] is not None


@pytest.mark.parametrize("spec", [pytest.param(spec, id=_spec_id(spec))
                                  for spec in presets.cyclotomic_grid()])
def test_per_step_division_equals_dividing_the_full_determinant(spec):
    inst = build_instance(spec)
    check_per_step_division(gaudin, lambda: verify_cyclotomic_duality(inst),
                            [(inst.div_z, "z"), (inst.div_lam, "lam")])


def per_term_cleared(lax, clearing: MultiPoly, var: str) -> list[list[MultiPoly]]:
    """gaudin._cleared without its memo: every term divides the clearing
    polynomial by its own (var - pole)^order."""
    return [[sum((img * clearing.divide_linear(var, [(pole, order)])
                  for img, pole, order in terms), MultiPoly.zero()) for terms in row]
            for row in lax]


@pytest.mark.parametrize("spec", [pytest.param(spec, id=f"grid-{k}")
                                  for k, spec in enumerate(presets.cyclotomic_grid())])
def test_memoized_clearing_equals_per_term_division(spec):
    inst = build_instance(spec)
    for lax, divisor, var in ((inst.lax_glM("classical"), inst.div_z, "z"),
                              (inst.lax_glN("classical"), inst.div_lam, "lam")):
        memoized = gaudin._cleared(lax, divisor, inst.var, var)
        clearing = divisor.clearing_poly(inst.var[var])
        assert memoized == per_term_cleared(lax, clearing, var)


@pytest.mark.parametrize("tau0, pts", [(1, []), (1, [(1, 1)]), (2, [])])
def test_cyclotomic_duality_fails_with_the_order_one_quotient_at_every_pole(monkeypatch, tau0,
                                                                            pts):
    # the origin carries poles of orders 1 .. 2 tau0 on the gl_M^C side
    inst = inst_of(2, tau0, pts, ["5", "7"], Q(-1))
    assert verify_cyclotomic_duality(inst)["status"] == "pass"
    order_one_clearing(monkeypatch, gaudin)
    assert verify_cyclotomic_duality(inst)["status"] == "fail"


def _unsigned_mirror(monkeypatch, inst):
    """The mirrored entry (-I, -J) of every dual basis matrix Ebar^IJ with
    J != -I, as the Lax builder computes it, loses its sign: its value
    -sigma becomes sigma.  The sp_2N Lax matrix places its pole terms on
    these entries; no other side's duals change."""
    ebar = tuple(inst.ebar_entries(I, J) for I, J in inst.I2())
    duals = matrices._duals

    def unsigned(mats, kappa):
        out = duals(mats, kappa)
        if mats != ebar:
            return out
        out = [dict(dual) for dual in out]
        for (I, J), dual in zip(inst.I2(), out):
            if J != -I:
                mirror = (inst.pos(-I), inst.pos(-J))
                dual[mirror] = -dual[mirror]
        return out

    monkeypatch.setattr(matrices, "_duals", unsigned)


@pytest.mark.parametrize("spec", [pytest.param(spec, id=f"grid-{k}")
                                  for k, spec in enumerate(presets.cyclotomic_grid())])
def test_cyclotomic_duality_fails_with_the_mirrored_sp2N_entry_unsigned(monkeypatch, spec):
    inst = build_instance(spec)
    assert verify_cyclotomic_duality(inst)["status"] == "pass"
    _unsigned_mirror(monkeypatch, inst)
    assert verify_cyclotomic_duality(inst)["status"] == "fail"


@pytest.mark.parametrize("spec", [pytest.param(spec, id=f"grid-{k}")
                                  for k, spec in enumerate(presets.cyclotomic_grid())])
def test_cyclotomic_cleared_entries_equal_the_cleared_ratfunc_lax(spec):
    check_cleared_against_ratfunc(build_instance(spec))
