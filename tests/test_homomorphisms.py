from collections import Counter
from fractions import Fraction

import pytest

from gaudual import gaudin
from gaudual.cyclotomic import CycloDivisor, CycloInstance, verify_cyclotomic_homomorphisms
from gaudual.gaudin import (Divisor, DualityInstance, TakiffGen, check_generator_pairs,
                           extract_gaudin_generators, takiff_generators, verify_homomorphism)
from gaudual.grassmann import GrassmannAlgebra, GrassmannElement
from gaudual.multipoly import MultiPoly
from gaudual.poisson import poisson_bracket
from gaudual.presets import homomorphism_grid, paper_core
from gaudual.runner import CHECKS, run_instance
from gaudual.weyl import WeylElement, weyl_commutator, weyl_support
from helpers import build_instance, meet_conjugately


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



@pytest.mark.parametrize("flavor", ["classical", "quantum", "fermionic"])
def test_reversed_pairs_are_checked(monkeypatch, flavor):
    """Takiff rows wrong only on reversed pairs (g1 after g2 in
    takiff_generators order) must fail, and the witness must carry the
    bracket of that reversed pair as a fresh computation gives it."""
    inst = make(2, 2, [(1, 2)], [(5, 1), (7, 1)])
    assert verify_homomorphism(inst, flavor)["status"] == "pass"
    sides = {"glM": (inst.div_z, inst.M, inst.realize_glM),
             "glN": (inst.div_lam, inst.N, inst.realize_glN)}
    original = gaudin.matrix_rows

    def reversed_negated(gens, matrix):
        row = original(gens, matrix)
        return lambda i: {j: [(-c, g) for c, g in terms] if j < i else terms
                          for j, terms in row(i).items()}

    monkeypatch.setattr(gaudin, "matrix_rows", reversed_negated)
    report = verify_homomorphism(inst, flavor)
    assert report["status"] == "fail"
    witness = report["witness"]
    div, size, realize = sides[witness["side"]]
    gens = takiff_generators(div, size)
    index = {str(g): n for n, g in enumerate(gens)}
    n1, n2 = (index[label] for label in witness["pair"])
    assert n1 > n2
    g1, g2 = gens[n1], gens[n2]
    _, _, _, bracket, _ = inst.ring(flavor)
    assert witness["got"] == repr(bracket(realize(g1, flavor), realize(g2, flavor)))


def _antisymmetric(images, bracket):
    return all(bracket(b, a) == -bracket(a, b) for a in images for b in images)


@pytest.mark.parametrize("flavor", ["classical", "quantum", "fermionic"])
def test_brackets_of_images_are_antisymmetric(flavor):
    """The generator-pair check reuses -[a, b] for [b, a]; this holds on
    every pair of realized images (the fermionic ones are all even)."""
    inst = make(2, 2, [(1, 2)], [(5, 1), (7, 1)])
    _, _, _, bracket, _ = inst.ring(flavor)
    for div, size, realize in ((inst.div_z, inst.M, inst.realize_glM),
                               (inst.div_lam, inst.N, inst.realize_glN)):
        images = [realize(g, flavor) for g in takiff_generators(div, size)]
        assert _antisymmetric(images, bracket)


def test_cyclotomic_brackets_of_images_are_antisymmetric():
    inst = CycloInstance(2, CycloDivisor.of(1, [(1, 1)]), [Fraction(5), Fraction(7)],
                         Fraction(-1))
    assert _antisymmetric([inst.realize_glMC(g) for g in inst.glMC_generators()],
                          poisson_bracket)
    assert _antisymmetric([inst.realize_sp(*g) for g in inst.sp_generators()],
                          poisson_bracket)


# -- the lean pair loop against the full one ------------------------------------


def check_generator_pairs_reference(gens, image, bracket, row, zero):
    """The direct form of gaudin.check_generator_pairs, kept as its oracle:
    every pair is visited and bracketed, whatever its supports and its row
    entry, every want is summed and compared, every mirrored bracket
    negated."""
    checked = 0
    later = {}
    for i, g1 in enumerate(gens):
        structure = row(i)
        for j, g2 in enumerate(gens):
            checked += 1
            if j < i:
                got = -later.pop((j, i))
            else:
                got = bracket(image(g1), image(g2))
                if j > i:
                    later[i, j] = got
            want = zero
            for coeff, g3 in structure.get(j, []):
                want = want + image(g3) * coeff
            if got != want:
                return checked, (g1, g2, got, want)
    return checked, None


def _outcome(result):
    checked, failure = result
    if failure is None:
        return checked, None
    g1, g2, got, want = failure
    return checked, repr(got), repr(want), (g1, g2)


def _both_loops(gens, image, bracket, support, row, zero):
    """The lean loop, given the real support function, and the reference,
    which needs none, on the same rows."""
    lean = check_generator_pairs(gens, image, bracket, support, row, zero)
    reference = check_generator_pairs_reference(gens, image, bracket, row, zero)
    assert _outcome(lean) == _outcome(reference)
    return lean


# every grid instance with M, N <= 2, unmutated and under each mutation its
# realization map admits
SMALL_GRID = [(n, spec, mutation)
              for n, spec in enumerate(homomorphism_grid()) if spec["M"] <= 2 and spec["N"] <= 2
              for mutation in (None, *sorted(CHECKS["homomorphism",
                                                     spec["realization"]].mutations))]


@pytest.mark.parametrize("spec, mutation", [case[1:] for case in SMALL_GRID],
                         ids=[f"{n}-{s['realization']}-{m or 'unmutated'}"
                              for n, s, m in SMALL_GRID])
def test_lean_pair_loop_matches_the_reference(monkeypatch, spec, mutation):
    """Both loops on every realization map of the small grid: the same
    count, got, want and pair."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _both_loops(*args)

    monkeypatch.setattr(gaudin, "check_generator_pairs", spy)
    options = {"mutation": mutation} if mutation else {}
    report = run_instance(dict(spec, options=options))
    assert report["status"] in ("pass", "fail")
    assert calls


def _quantum_glM():
    """The generators, images and Takiff rows of one gl_M side."""
    inst = make(2, 2, [(1, 2)], [(5, 1), (7, 1)])
    gens = takiff_generators(inst.div_z, inst.M)
    images = {g: inst.realize_glM(g, "quantum") for g in gens}
    return gens, images, gaudin.matrix_rows(gens, gaudin.takiff_matrix(inst.div_z))


def _with_entry(rows, i, j, change):
    """rows with row i's entry at j, [] where absent, replaced by
    change(entry); None drops it."""
    def row(k):
        out = rows(k)
        if k == i:
            entry = change(out.pop(j, []))
            if entry is not None:
                out[j] = entry
        return out

    return row


def _meet(images, g1, g2):
    return meet_conjugately(weyl_support(images[g1]), weyl_support(images[g2]))


def _first_mirrored_entry(gens, rows):
    return next((i, j) for i in range(len(gens)) for j in range(i) if j in rows(i))


def test_structure_wrong_only_at_one_mirrored_pair():
    gens, images, rows = _quantum_glM()
    i, j = _first_mirrored_entry(gens, rows)
    wrong = _with_entry(rows, i, j, lambda terms: [(-c, g) for c, g in terms])
    checked, failure = _both_loops(gens, images.__getitem__, weyl_commutator, weyl_support,
                                   wrong, WeylElement.zero())
    assert checked == i * len(gens) + j + 1
    g1, g2, got, want = failure
    assert (g1, g2) == (gens[i], gens[j]) and got == -want


def test_a_mirrored_entry_restated_with_its_image_sum_passes():
    """Row i states its mirrored entry (i, j), j < i, with one term split in
    two: the terms are no longer those of (j, i) negated, of another length
    even, yet their image sum is the same, so every pair passes."""
    gens, images, rows = _quantum_glM()
    i, j = _first_mirrored_entry(gens, rows)
    restated = _with_entry(rows, i, j, lambda terms: [(2 * terms[0][0], terms[0][1]),
                                                      (-terms[0][0], terms[0][1])] + terms[1:])
    assert len(restated(i)[j]) != len(rows(j)[i])
    assert _meet(images, gens[i], gens[j])
    assert _both_loops(gens, images.__getitem__, weyl_commutator, weyl_support, restated,
                       WeylElement.zero()) == (len(gens) ** 2, None)


def test_a_mirrored_entry_with_another_image_sum_fails_there():
    """Row i adds a term to its mirrored entry (i, j), j < i: the check fails
    at (i, j), with got the bracket of the two images, which is minus that of
    (j, i), and want the image sum of the terms as row i states them."""
    gens, images, rows = _quantum_glM()
    i, j = _first_mirrored_entry(gens, rows)
    wrong = _with_entry(rows, i, j, lambda terms: terms + [(1, gens[0])])
    assert len(wrong(i)[j]) != len(rows(j)[i])
    checked, failure = _both_loops(gens, images.__getitem__, weyl_commutator, weyl_support,
                                   wrong, WeylElement.zero())
    assert checked == i * len(gens) + j + 1
    g1, g2, got, want = failure
    img1, img2 = images[gens[i]], images[gens[j]]
    assert (g1, g2) == (gens[i], gens[j])
    assert repr(got) == repr(weyl_commutator(img1, img2)) == repr(-weyl_commutator(img2, img1))
    assert repr(want) == repr(sum((images[g] * c for c, g in wrong(i)[j]), WeylElement.zero()))
    assert got != want


def test_bracket_nonzero_on_one_empty_structure_pair():
    """The fault is injected at a pair whose supports meet conjugately, the
    only kind the lean loop brackets."""
    gens, images, rows = _quantum_glM()
    i, j = next((i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))
                if j not in rows(i) and _meet(images, gens[i], gens[j]))
    extra = WeylElement.x(1, 1)

    def faulty(a, b):
        bracket = weyl_commutator(a, b)
        return bracket + extra if (a, b) == (images[gens[i]], images[gens[j]]) else bracket

    checked, failure = _both_loops(gens, images.__getitem__, faulty, weyl_support, rows,
                                   WeylElement.zero())
    assert checked == i * len(gens) + j + 1
    assert failure[:2] == (gens[i], gens[j]) and failure[2] == extra and not failure[3]


@pytest.mark.parametrize("mirrored", [False, True], ids=["forward", "mirrored"])
def test_structure_wrong_at_one_support_disjoint_pair(mirrored):
    """A nonzero structure term on a pair of a finite-point generator and an infinity
    generator, whose image is a constant: the pair is not bracketed, yet it fails there,
    with got zero and want the image of the term."""
    gens, images, rows = _quantum_glM()
    i, j = next((i, j) for i in range(len(gens)) for j in range(len(gens))
                if (j < i) == mirrored and (gens[i].point is None) != (gens[j].point is None))
    assert not _meet(images, gens[i], gens[j])
    wrong = _with_entry(rows, i, j, lambda terms: terms + [(1, gens[0])])
    checked, failure = _both_loops(gens, images.__getitem__, weyl_commutator, weyl_support,
                                   wrong, WeylElement.zero())
    assert checked == i * len(gens) + j + 1
    g1, g2, got, want = failure
    assert (g1, g2) == (gens[i], gens[j])
    assert got == 0 and repr(got) == "0" and want == images[gens[0]]


def test_fault_on_a_diagonal_pair():
    gens, images, rows = _quantum_glM()
    k = 2
    faulty = _with_entry(rows, k, k, lambda terms: terms + [(1, gens[0])])
    checked, failure = _both_loops(gens, images.__getitem__, weyl_commutator, weyl_support,
                                   faulty, WeylElement.zero())
    assert checked == k * len(gens) + k + 1
    assert failure[:2] == (gens[k], gens[k]) and failure[3] == images[gens[0]]


def _faulty_takiff_rows(monkeypatch, choose, change):
    """Patch gaudin.matrix_rows so that on the quantum gl_M side of
    _quantum_glM the entry (i, j) = choose(gens, images, rows) is replaced
    by change(entry); both loops and verify_homomorphism must fail at
    (i, j), at its row-major index.  Returns the loop's failure."""
    gens, images, rows = _quantum_glM()
    i, j = choose(gens, images, rows)
    original = gaudin.matrix_rows

    def patched(side_gens, matrix):
        row = original(side_gens, matrix)
        return _with_entry(row, i, j, change) if side_gens == gens else row

    monkeypatch.setattr(gaudin, "matrix_rows", patched)
    checked, failure = _both_loops(gens, images.__getitem__, weyl_commutator, weyl_support,
                                   gaudin.matrix_rows(gens, gaudin.takiff_matrix(
                                       Divisor.of([(1, 2)]))), WeylElement.zero())
    assert checked == i * len(gens) + j + 1 and failure[:2] == (gens[i], gens[j])
    report = verify_homomorphism(make(2, 2, [(1, 2)], [(5, 1), (7, 1)]), "quantum")
    assert report["status"] == "fail" and report["pairs_checked"] == checked
    assert report["witness"]["pair"] == (str(gens[i]), str(gens[j]))
    return failure


def test_a_row_missing_an_entry_where_supports_meet_fails_there(monkeypatch):
    def choose(gens, images, rows):
        return next((i, j) for i in range(len(gens)) for j, terms in rows(i).items()
                    if _meet(images, gens[i], gens[j])
                    and sum((images[g] * c for c, g in terms), WeylElement.zero()))

    _, _, got, want = _faulty_takiff_rows(monkeypatch, choose, lambda terms: None)
    assert got and not want


def test_a_row_with_an_extra_entry_at_a_disjoint_pair_fails_there(monkeypatch):
    """Both generators at the finite point, so neither image is a constant."""
    def choose(gens, images, rows):
        return next((i, j) for i in range(len(gens)) for j in range(len(gens))
                    if gens[i].point == gens[j].point == 0 and j not in rows(i)
                    and not _meet(images, gens[i], gens[j]))

    _, _, got, want = _faulty_takiff_rows(monkeypatch, choose,
                                          lambda terms: terms + [(1, TakiffGen(0, 0, 1, 1))])
    assert repr(got) == "0" and want


@pytest.mark.parametrize("spec, mutation", [case[1:] for case in SMALL_GRID],
                         ids=[f"{n}-{s['realization']}-{m or 'unmutated'}"
                              for n, s, m in SMALL_GRID])
def test_disjoint_supports_give_a_zero_bracket(monkeypatch, spec, mutation):
    """The support lemma the lean loop rests on, on every pair of realized
    images (mutated ones included) of the small grid: where no letter of one
    support has its conjugate in the other, the bracket is zero, shared
    letters or not."""
    disjoint = []

    def spy(gens, image, bracket, support, row, zero):
        images = [image(g) for g in gens]
        supports = [support(img) for img in images]
        for a, sa in zip(images, supports):
            for b, sb in zip(images, supports):
                if not meet_conjugately(sa, sb):
                    disjoint.append(bracket.__name__)
                    assert not bracket(a, b)
        return original(gens, image, bracket, support, row, zero)

    original = gaudin.check_generator_pairs
    monkeypatch.setattr(gaudin, "check_generator_pairs", spy)
    options = {"mutation": mutation} if mutation else {}
    report = run_instance(dict(spec, options=options))
    assert report["status"] in ("pass", "fail")
    expected = {"classical-bosonic": "poisson_bracket", "cyclotomic": "poisson_bracket",
                "quantum-bosonic": "weyl_commutator", "classical-fermionic": "graded_bracket"}
    assert set(disjoint) == {expected[spec["realization"]]}


def test_an_odd_fermionic_image_is_refused(monkeypatch):
    """The pair loop reuses -[a, b] for [b, a], which the graded bracket
    gives only on even elements; an odd image is an error, not a verdict."""
    spec = {"kind": "homomorphism", "realization": "classical-fermionic", "M": 2, "N": 2,
            "divisor": [["1", 1], ["2", 1]], "dual_divisor": [["5", 1], ["7", 1]]}
    assert run_instance(spec)["status"] == "pass"
    odd = TakiffGen(1, 0, 2, 1)
    realize = DualityInstance.realize_glN

    def with_one_odd(self, g, flavor, mutation=None):
        return self._galg.psi(1, 1) if g == odd else realize(self, g, flavor, mutation)

    monkeypatch.setattr(DualityInstance, "realize_glN", with_one_odd)
    report = run_instance(spec)
    assert report["status"] == "error"
    assert report["witness"]["error"] == "OddImage"
    assert str(odd) in report["witness"]["detail"]


# -- the fermionic orientation, pinned from the Grassmann generators ------------


def _minus_jordan(divisor, r, c):
    """The (r, c) entry, 1-based, of -(+)_k J_(tau_k)(-location_k): the
    location on the diagonal of each block and 1 just below it."""
    start = 1
    for loc, tau in divisor.points:
        if start <= min(r, c) and max(r, c) < start + tau:
            return loc if r == c else 1 if r == c + 1 else 0
        start += tau
    return 0


def _fermionic_oracle(inst, side, g):
    """The fermionic image of g straight from psi and pi:
    sum_u pi^a_(u+depth) psi^b_u for E_ab on gl_M, sum_u psi^u_i pi^(u+depth)_j
    for E_ij on gl_N, and the (b, a), respectively (i, j), entry of the other
    side's -(+)J at infinity."""
    galg = GrassmannAlgebra(inst.M, inst.N)
    own, other = (inst.div_z, inst.div_lam) if side == "glM" else (inst.div_lam, inst.div_z)
    if g.point is None:
        r, c = (g.col, g.row) if side == "glM" else (g.row, g.col)
        return GrassmannElement.const(_minus_jordan(other, r, c))
    nu = sum(tau for _, tau in own.points[:g.point])
    total = GrassmannElement.zero()
    for u in range(nu + 1, nu + own.points[g.point][1] - g.depth + 1):
        if side == "glM":
            total = total + galg.pi(g.row, u + g.depth) * galg.psi(g.col, u)
        else:
            total = total + galg.psi(u, g.row) * galg.pi(u + g.depth, g.col)
    return total


@pytest.mark.parametrize("spec", [s for s in homomorphism_grid()
                                  if s["realization"] == "classical-fermionic"],
                         ids=lambda s: f"M{s['M']}N{s['N']}-{s['divisor']}-{s['dual_divisor']}")
def test_fermionic_images_match_the_grassmann_oracle(spec):
    """Every fermionic image, infinity included, equals the sum built from
    GrassmannAlgebra.psi and pi: this pins the i/j swap of the gl_N map."""
    inst = build_instance(spec)
    for side, divisor, size, realize in (("glM", inst.div_z, inst.M, inst.realize_glM),
                                         ("glN", inst.div_lam, inst.N, inst.realize_glN)):
        for g in takiff_generators(divisor, size):
            assert realize(g, "fermionic") == _fermionic_oracle(inst, side, g), (side, g)


# -- the mirrored-pair shortcut, seen from the bracket --------------------------


def _letters_used(img, flavor, mn):
    """The letters (pair, kind) an image uses, read from its terms: kind 0
    for x and psi, 1 for p, d and pi; mn is the fermionic pair count."""
    if flavor == "classical":
        return {(v[1:], "xp".index(v[0])) for mono in img.terms
                for v, e in zip(img.vars, img.unpack(mono)) if e and v[0] in "xp"}
    if flavor == "quantum":
        return {(pair, kind) for key in img.terms for pair, x, d in key
                for kind, e in enumerate((x, d)) if e}
    return {(k % mn, k // mn) for mask in img.terms for k in range(2 * mn) if mask >> k & 1}


@pytest.mark.parametrize("realization", ["classical-bosonic", "quantum-bosonic",
                                         "classical-fermionic"])
def test_each_meeting_forward_pair_is_bracketed_once(monkeypatch, realization):
    """On a passing instance the bracket of the instance's ring is called
    once for every pair i < j where a letter of one image has its conjugate
    in the other, and for nothing else: no mirrored pair (j, i) is bracketed
    again."""
    spec = next(s for s in homomorphism_grid() if s["realization"] == realization
                and s["divisor"] == [["1", 2], ["2", 1]]
                and s["dual_divisor"] == [["5", 2], ["7", 1]])
    flavor = {"classical-bosonic": "classical", "quantum-bosonic": "quantum",
              "classical-fermionic": "fermionic"}[realization]
    inst = build_instance(spec)
    made, calls = {}, []
    ring = DualityInstance.ring

    def spied_ring(self, flavor):
        x, p, zero, bracket, support = ring(self, flavor)

        def counted(a, b):
            calls.append((made[id(a)], made[id(b)]))
            return bracket(a, b)

        return x, p, zero, counted, support

    monkeypatch.setattr(DualityInstance, "ring", spied_ring)
    for side in ("glM", "glN"):
        realize = getattr(DualityInstance, f"realize_{side}")

        def recorded(self, g, flavor, mutation=None, side=side, realize=realize):
            img = realize(self, g, flavor, mutation)
            made[id(img)] = (side, g)
            return img

        monkeypatch.setattr(DualityInstance, f"realize_{side}", recorded)
    assert verify_homomorphism(inst, flavor)["status"] == "pass"
    want = []
    for side, divisor, size in (("glM", inst.div_z, inst.M), ("glN", inst.div_lam, inst.N)):
        gens = takiff_generators(divisor, size)
        used = [_letters_used(getattr(inst, f"realize_{side}")(g, flavor), flavor,
                              inst.M * inst.N) for g in gens]
        want += [((side, gens[i]), (side, gens[j])) for i in range(len(gens))
                 for j in range(i + 1, len(gens)) if meet_conjugately(used[i], used[j])]
    assert want
    assert Counter(calls) == Counter(want)


# brackets taken over paper-core's homomorphism instances of each realization,
# the mutated ones, which stop at their first failing pair, included; pairs
# whose images merely share a pair name number 4443, 4443, 4439 and 843
CONJUGATE_PAIRS = {"classical-bosonic": 2891, "quantum-bosonic": 2891,
                   "classical-fermionic": 2887, "cyclotomic": 647}


@pytest.mark.parametrize("realization", sorted(CONJUGATE_PAIRS))
def test_only_conjugately_meeting_pairs_are_bracketed(monkeypatch, realization):
    """On every paper-core homomorphism instance of a realization, a side
    that passes has exactly its pairs i < j bracketed where a letter of one
    image, read from its terms, has its conjugate in the other; a failing
    side brackets no more of them."""
    flavor = {"classical-bosonic": "classical", "quantum-bosonic": "quantum",
              "classical-fermionic": "fermionic", "cyclotomic": "classical"}[realization]
    taken, mn = [], [0]
    original = gaudin.check_generator_pairs

    def spy(gens, image, bracket, support, row, zero):
        used = [_letters_used(image(g), flavor, mn[0]) for g in gens]
        meeting = sum(meet_conjugately(used[i], used[j])
                      for i in range(len(gens)) for j in range(i + 1, len(gens)))
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return bracket(a, b)

        result = original(gens, image, counted, support, row, zero)
        assert len(calls) == meeting if result[1] is None else len(calls) <= meeting
        taken.append(len(calls))
        return result

    monkeypatch.setattr(gaudin, "check_generator_pairs", spy)
    for spec in paper_core():
        if spec["kind"] == "homomorphism" and spec["realization"] == realization:
            mn[0] = spec["M"] * spec["N"]
            assert run_instance(spec)["status"] == "pass"
    assert sum(taken) == CONJUGATE_PAIRS[realization]
