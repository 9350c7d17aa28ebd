from fractions import Fraction

import pytest

from gaudual import gaudin
from gaudual.errors import GaudualError
from gaudual.gaudin import (
    Divisor,
    DualityInstance,
    _cdet_side,
    _partial_fraction_generators,
    check_commutativity,
    extract_gaudin_generators,
    ratfunc_lax,
)
from gaudual.linalg import solve_linear, sparse_basis
from gaudual.multipoly import MultiPoly
from gaudual.poisson import poisson_support
from gaudual.presets import commutativity_grid
from gaudual.weyl import WeylElement, weyl_commutator, weyl_support
from helpers import check_commutativity_reference, meet_conjugately

Q = Fraction
W = WeylElement


def make(M, N, dz, dl):
    return DualityInstance(M, N, Divisor.of(dz), Divisor.of(dl))


def test_quantum_extraction_one_one():
    # S_1 = z - z1 contributes {1, -z1}; S_0 = -lam1 z + lam1 z1 - x d
    inst = make(1, 1, [(2, 1)], [(5, 1)])
    gens = extract_gaudin_generators(inst, "quantum")
    assert len(gens) == 4
    assert W.const(10) - W.x(1, 1) * W.d(1, 1) in gens  # lam1 z1 - x d
    assert W.const(-5) in gens and W.const(1) in gens and W.const(-2) in gens


def test_classical_extraction_leading_term():
    # the lam^M z^N coefficient of the spectral polynomial is 1
    inst = make(2, 2, [(1, 1), (2, 1)], [(5, 1), (7, 1)])
    gens = extract_gaudin_generators(inst, "classical")
    det_l_coeffs = {repr(g) for g in gens}
    assert "1" in det_l_coeffs
    assert len(gens) == 9  # (deg z + 1)(deg lam + 1)


@pytest.mark.parametrize(
    "flavor,M,N,dz,dl",
    [
        ("classical", 2, 2, [(1, 2)], [(5, 1), (7, 1)]),
        ("classical", 2, 2, [(1, 1), (2, 1)], [(5, 2)]),
        ("quantum", 2, 2, [(1, 1), (2, 1)], [(5, 1), (7, 1)]),
        ("quantum", 1, 2, [(1, 2)], [(5, 1)]),
    ],
)
def test_generators_commute(flavor, M, N, dz, dl):
    gens = extract_gaudin_generators(make(M, N, dz, dl), flavor)
    report = check_commutativity(gens, flavor)
    assert report["status"] == "pass"
    assert report["pairs_checked"] >= 10


def test_single_generator_self_pair():
    g = W.x(1, 1) * W.d(1, 1)
    report = check_commutativity([g], "quantum")
    assert report["status"] == "pass"
    assert report["pairs_checked"] == 1


def test_commutativity_failure_witness():
    report = check_commutativity([W.x(1, 1), W.d(1, 1)], "quantum")
    assert report["status"] == "fail"
    assert report["witness"]["pair"] == (0, 1)


def test_classical_commutativity_fails_on_one_added_element():
    # {x1_1, g} = -dg/dp1_1: with the generators free of p1_1 first, x1_1
    # next and the rest after it, the first nonzero bracket is x1_1 against
    # the first generator that uses p1_1
    inst = make(2, 2, [(1, 2)], [(5, 1), (7, 1)])
    gens = extract_gaudin_generators(inst, "classical")
    free = [g for g in gens if not g.derivative("p1_1")]
    used = [g for g in gens if g.derivative("p1_1")]
    assert free and used
    assert check_commutativity(free + used, "classical")["status"] == "pass"
    k, n = len(free), len(gens) + 1
    report = check_commutativity(free + [inst.var["x1_1"]] + used, "classical")
    assert report == {
        "status": "fail",
        "pairs_checked": sum(n - r for r in range(k)) + 2,
        "witness": {"pair": (k, k + 1), "bracket": repr(-used[0].derivative("p1_1"))},
    }
    assert report == check_commutativity_reference(free + [inst.var["x1_1"]] + used, "classical")


def test_unknown_flavor_is_refused():
    with pytest.raises(ValueError):
        check_commutativity([W.x(1, 1)], "fermionic")


@pytest.mark.parametrize("flavor", ["classical", "quantum"])
def test_only_pairs_whose_supports_meet_are_bracketed(monkeypatch, flavor):
    """On a pass, the bracket is called once on each pair i < j of
    sparse_basis(gens) whose supports meet conjugately, in row-major order,
    and on no generator as given: no self-pair, no other pair and so no
    pair with a constant is bracketed, while pairs_checked still counts
    every generator pair i <= j and the report is that of the direct loop."""
    gens = extract_gaudin_generators(make(2, 2, [(1, 1), (2, 1)], [(5, 1), (7, 1)]), flavor)
    n = len(gens)
    name, support = (("weyl_commutator", weyl_support) if flavor == "quantum"
                     else ("poisson_bracket", poisson_support))
    bracket, calls = getattr(gaudin, name), []

    def spy(a, b):
        calls.append((a, b))
        return bracket(a, b)

    monkeypatch.setattr(gaudin, name, spy)
    report = check_commutativity(gens, flavor)
    assert report == {"status": "pass", "pairs_checked": n * (n + 1) // 2}
    basis = sparse_basis(gens)
    supports = [support(b) for b in basis]
    meeting = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))
               if meet_conjugately(supports[i], supports[j])]
    assert any(not s for s in supports) and 0 < len(meeting) < len(basis) * (len(basis) - 1) // 2
    assert calls == [(basis[i], basis[j]) for i, j in meeting]
    given = {id(g) for g in gens}
    assert not any(id(a) in given or id(b) in given for a, b in calls)
    monkeypatch.undo()
    assert report == check_commutativity_reference(gens, flavor)


SMALL_COMMUTATIVITY = [spec for spec in commutativity_grid() if spec["M"] <= 2 and spec["N"] <= 2]


@pytest.mark.parametrize("spec", SMALL_COMMUTATIVITY,
                         ids=[f"{s['flavor']}-{s['M']}x{s['N']}-{k}"
                              for k, s in enumerate(SMALL_COMMUTATIVITY)])
def test_commutativity_matches_the_reference(spec):
    """The pair checker, which brackets only the pairs i < j whose supports
    meet conjugately, and the direct loop over every pair i <= j give the same report
    on every grid instance with M, N <= 2."""
    inst = make(spec["M"], spec["N"], spec["divisor"], spec["dual_divisor"])
    gens = extract_gaudin_generators(inst, spec["flavor"])
    report = check_commutativity(gens, spec["flavor"])
    assert report["status"] == "pass"
    assert report == check_commutativity_reference(gens, spec["flavor"])


# -- quadratic Hamiltonians --------------------------------------------------


class RequiresRegularDivisor(GaudualError):
    pass


def build_quadratic_hamiltonians(z_points: list[Fraction],
                                lam_values: list[Fraction]) -> list[WeylElement]:
    """Realized quadratic Gaudin Hamiltonians for a regular divisor and a
    diagonal matrix at infinity."""
    N, M = len(z_points), len(lam_values)
    if len(set(z_points)) != N:
        raise RequiresRegularDivisor("marked points must be distinct")
    out = []
    for i in range(1, N + 1):
        h = WeylElement.zero()
        for j in range(1, N + 1):
            if j == i:
                continue
            weight = Q(1) / (z_points[i - 1] - z_points[j - 1])
            for a in range(1, M + 1):
                for b in range(1, M + 1):
                    term = (WeylElement.x(a, i) * WeylElement.d(b, i)) * (
                        WeylElement.x(b, j) * WeylElement.d(a, j)
                    )
                    h = h + term * weight
        for a in range(1, M + 1):
            h = h + (WeylElement.x(a, i) * WeylElement.d(a, i)) * lam_values[a - 1]
        out.append(h)
    return out


def hamiltonians_in_commutant(inst: DualityInstance) -> dict:
    """Every quadratic Hamiltonian commutes with every extracted generator,
    and their sum is exactly the realized lambda-term."""
    if any(tau != 1 for _, tau in inst.div_z.points + inst.div_lam.points):
        raise RequiresRegularDivisor("quadratic Hamiltonians need all tau = 1")
    z_points = [loc for loc, _ in inst.div_z.points]
    lam_values = [loc for loc, _ in inst.div_lam.points]
    hams = build_quadratic_hamiltonians(z_points, lam_values)
    gens = extract_gaudin_generators(inst, "quantum")
    checked = 0
    for hi, h in enumerate(hams):
        for gi, g in enumerate(gens):
            checked += 1
            if weyl_commutator(h, g):
                return {
                    "status": "fail",
                    "pairs_checked": checked,
                    "witness": {"hamiltonian": hi, "generator": gi},
                }
    total = WeylElement.zero()
    for h in hams:
        total = total + h
    lam_term = WeylElement.zero()
    for i in range(1, inst.N + 1):
        for a in range(1, inst.M + 1):
            lam_term = lam_term + (
                WeylElement.x(a, i) * WeylElement.d(a, i)
            ) * lam_values[a - 1]
    if total != lam_term:
        return {"status": "fail", "witness": {"sum_rule": "sum H_i != lambda term"}}
    return {"status": "pass", "pairs_checked": checked, "hamiltonians": len(hams)}


def test_hamiltonian_shape_n1():
    # N = 1: no pairwise term, H_1 = sum_a lam_a x^a d^a
    hams = build_quadratic_hamiltonians([Q(1)], [Q(5), Q(7)])
    assert len(hams) == 1
    expected = W.x(1, 1) * W.d(1, 1) * 5 + W.x(2, 1) * W.d(2, 1) * 7
    assert hams[0] == expected


def test_hamiltonian_explicit_m1_n2():
    hams = build_quadratic_hamiltonians([Q(1), Q(2)], [Q(5)])
    h1 = (W.x(1, 1) * W.d(1, 1)) * (W.x(1, 2) * W.d(1, 2)) * Q(1, 1 - 2) + (
        W.x(1, 1) * W.d(1, 1) * 5
    )
    assert hams[0] == h1


def test_hamiltonians_commute_with_gaudin_algebra():
    inst = make(2, 2, [(1, 1), (2, 1)], [(5, 1), (7, 1)])
    report = hamiltonians_in_commutant(inst)
    assert report["status"] == "pass"
    assert report["hamiltonians"] == 2


def test_hamiltonians_commute_with_total_number_operator():
    hams = build_quadratic_hamiltonians([Q(1), Q(2)], [Q(5), Q(7)])
    total = sum(
        (W.x(a, i) * W.d(a, i) for a in (1, 2) for i in (1, 2)),
        W.zero(),
    )
    h_sum = sum(hams, W.zero())
    assert weyl_commutator(h_sum, total) == 0


def test_hamiltonians_need_regular_divisor():
    inst = make(2, 2, [(1, 2)], [(5, 1), (7, 1)])
    with pytest.raises(RequiresRegularDivisor):
        hamiltonians_in_commutant(inst)


# -- the two cdet conventions generate the same algebra ------------------------


def glN_convention_generators(inst: DualityInstance):
    """Generators of the realized gl_N Gaudin algebra in the two cdet
    conventions, cdet(Dz 1 - L) and cdet(Dz 1 + tL), for the span-equality
    check."""
    lax = ratfunc_lax(inst.lax_glN("quantum"), "dz")
    negated_transpose = [[-f for f in col] for col in zip(*lax)]
    return tuple(
        _partial_fraction_generators(_cdet_side(entries, inst.div_lam, "dz"), inst.div_lam)
        for entries in (lax, negated_transpose)
    )


def weyl_same_span(a: list[WeylElement], b: list[WeylElement]) -> bool:
    """Mutual inclusion of the rational spans of two Weyl families."""
    keys = sorted({k for w in a + b for k in w.terms})
    if not keys:
        return True

    def vec(w):
        return [w.terms.get(k, Q(0)) for k in keys]

    def contains(family, w):
        return solve_linear([vec(f) for f in family], vec(w)) is not None

    return all(contains(b, w) for w in a) and all(contains(a, w) for w in b)


@pytest.mark.parametrize(
    "M,N,dz,dl",
    [
        (1, 1, [(2, 1)], [(5, 1)]),
        (2, 1, [(1, 1)], [(5, 1), (7, 1)]),
        (1, 2, [(1, 1), (2, 1)], [(5, 1)]),
        (2, 1, [(1, 1)], [(5, 2)]),
    ],
)
def test_cdet_conventions_span_equality(M, N, dz, dl):
    gens_plus, gens_minus = glN_convention_generators(make(M, N, dz, dl))
    one = WeylElement.const(1)
    assert weyl_same_span(gens_plus + [one], gens_minus + [one])


@pytest.mark.parametrize("flavor", ["classical", "quantum"])
def test_extraction_builds_only_the_z_side(monkeypatch, flavor):
    inst = make(2, 2, [(1, 2)], [(5, 1), (7, 1)])
    expected = extract_gaudin_generators(inst, flavor)

    def refuse(self, *args):
        raise AssertionError("the lambda-side Lax matrix was built")

    monkeypatch.setattr(DualityInstance, "lax_glN", refuse)
    gens = extract_gaudin_generators(inst, flavor)
    assert gens and gens == expected


def test_the_bosonic_rings_are_stated_once(monkeypatch):
    """DualityInstance.ring and check_commutativity read the classical and
    quantum (zero, bracket, support) from one table, when they are called;
    a flavor outside it is refused with one message, the fermionic ring by
    check_commutativity too."""
    inst = make(1, 1, [(1, 1)], [(5, 1)])
    calls = []
    for flavor, entry in list(gaudin.BOSONIC_RINGS.items()):
        zero, bracket, support = entry()
        assert not zero and inst.ring(flavor)[2:] == (zero, bracket, support)

        def spy(entry=entry, flavor=flavor):
            calls.append(flavor)
            return entry()

        monkeypatch.setitem(gaudin.BOSONIC_RINGS, flavor, spy)
        inst.ring(flavor)
        check_commutativity([], flavor)
    assert calls == ["classical", "classical", "quantum", "quantum"]
    for call, flavor in ((inst.ring, "symplectic"), (lambda f: check_commutativity([], f),
                                                     "fermionic")):
        with pytest.raises(ValueError, match=f"^unknown flavor '{flavor}'$"):
            call(flavor)
