"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (zero tolerance); the stated time targets are asserted
with large margins.  Run with ``pytest -s tests/test_acceptance.py`` to see
the per-criterion lines.
"""

import time
from fractions import Fraction

from gaudual.matrices import cdet, det, jordan_block, manin_check
from gaudual.multipoly import MultiPoly
from gaudual.poisson import poisson_bracket
from gaudual.presets import (
    PRESETS,
    cyclotomic_grid,
    classical_bosonic_grid,
    commutativity_grid,
    fermionic_grid,
    homomorphism_grid,
    mutation_instances,
    negative_manin_instance,
    neumann_instances,
    quantum_grid,
)
from gaudual.ratfunc import RatFunc, partial_fractions
from gaudual.runner import run_instance
from gaudual.grassmann import GrassmannAlgebra
from gaudual.weyl import WeylElement, weyl_commutator
from helpers import (jordan_block_inverse, linear, matmul, reassemble, rng, random_fraction,
                     random_grassmann, random_poly, random_weyl)
from test_matrices import frac_matrix, random_manin

Q = Fraction


def _run_grid(instances, budget_s, label, extra_check=None):
    start = time.monotonic()
    failures = []
    for spec in instances:
        report = run_instance(spec)
        if report["status"] != "pass":
            failures.append((spec, report))
        elif extra_check is not None:
            err = extra_check(spec, report)
            if err:
                failures.append((spec, {"status": err}))
    elapsed = time.monotonic() - start
    status = "PASS" if not failures and elapsed < budget_s else "FAIL"
    print(
        f"ACCEPTANCE {label}: {status} "
        f"({len(instances)} instances, {elapsed * 1000:.0f} ms, budget {budget_s} s)",
        flush=True,
    )
    assert not failures, failures[:3]
    assert elapsed < budget_s
    return elapsed


def test_criterion_1_classical_bosonic_duality():
    grid = classical_bosonic_grid()
    assert len(grid) == 36  # (1 + 2 + 3 shapes)^2 over (M, N) in {1,2,3}^2
    _run_grid(grid, 120, "1 classical bosonic duality")


def test_criterion_2_fermionic_duality():
    grid = fermionic_grid()
    assert all(spec["M"] <= 2 and spec["N"] <= 2 for spec in grid)
    _run_grid(grid, 60, "2 classical fermionic duality")


def test_criterion_3_quantum_duality():
    grid = quantum_grid()
    assert {(s["M"], s["N"]) for s in grid} == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def manin_seen(spec, report):
        return None if report.get("manin") is True else "manin missing"

    _run_grid(grid, 300, "3 quantum bosonic duality", manin_seen)


def test_criterion_4_homomorphism_checks_and_mutations():
    grid = homomorphism_grid()
    families = {spec["realization"] for spec in grid}
    assert families == {
        "classical-bosonic",
        "classical-fermionic",
        "quantum-bosonic",
        "cyclotomic",
    }
    start = time.monotonic()
    bad = [s for s in grid if run_instance(s)["status"] != "pass"]
    mutated = []
    for spec in mutation_instances():
        report = run_instance(spec)
        # expect=fail instances report pass exactly when the broken map fails
        if report["status"] != "pass":
            mutated.append(spec)
    elapsed = time.monotonic() - start
    status = "PASS" if not bad and not mutated else "FAIL"
    print(
        f"ACCEPTANCE 4 realization homomorphisms: {status} "
        f"({len(grid)} instances + {len(mutation_instances())} mutations, "
        f"{elapsed * 1000:.0f} ms)",
        flush=True,
    )
    assert not bad, bad[:3]
    assert not mutated, mutated[:3]


def test_criterion_5_commutativity():
    grid = commutativity_grid()

    def enough_pairs(spec, report):
        return None if report.get("pairs_checked", 0) >= 10 else "too few pairs"

    _run_grid(grid, 300, "5 Gaudin algebra commutativity", enough_pairs)


def test_criterion_6_cyclotomic_duality():
    grid = cyclotomic_grid()
    mus = {spec["mu"] for spec in grid}
    assert {"0", "-1", "3/2"} <= mus
    assert any(spec.get("options", {}).get("symbolic_mu") for spec in grid)
    _run_grid(grid, 120, "6 cyclotomic duality")


def test_criterion_7_neumann():
    def checks(spec, report):
        if not report.get("hamiltonian_commutes"):
            return "hamiltonian does not commute"
        if report.get("hamiltonian_combination") is None:
            return "hamiltonian outside the spectral span"
        return None

    _run_grid(neumann_instances(), 60, "7 Neumann example", checks)


def test_criterion_8_negative_quantum_cyclotomic():
    report = run_instance(negative_manin_instance())
    ok = report["status"] == "pass" and report["witness"]["manin_quadruple"]
    print(
        f"ACCEPTANCE 8 quantum cyclotomic candidate not Manin: "
        f"{'PASS' if ok else 'FAIL'} (witness {report['witness']})",
        flush=True,
    )
    assert ok


def test_criterion_9_infrastructure():
    start = time.monotonic()
    r = rng(900)
    # cdet = det on 50 random commutative matrices of size <= 4
    for _ in range(50):
        n = r.randint(1, 4)
        m = frac_matrix([[random_fraction(r) for _ in range(n)] for _ in range(n)])
        assert cdet(m) == det(m)
    # Jordan inverse is two-sided symbolically for k <= 5
    xv = linear("x", 0)
    for k in range(1, 6):
        j = jordan_block(k, xv)
        inv = jordan_block_inverse(k, xv)
        for prod in (matmul(j, inv), matmul(inv, j)):
            for i in range(k):
                for c in range(k):
                    assert prod[i][c] == RatFunc.const("x", 1 if i == c else 0)
    # X-block proposition on 20 random Manin matrices
    for _ in range(20):
        m = random_manin(r)
        n = len(m)
        k = r.randint(1, n - 1)
        unit = [
            [WeylElement.const(1 if i == c else 0) for c in range(n)] for i in range(n)
        ]
        for i in range(k):
            for c in range(k, n):
                unit[i][c] = WeylElement.const(random_fraction(r)) * WeylElement.x(1, 1)
        assert cdet(matmul(m, unit)) == cdet(m)
        assert manin_check(m)[0]
    # partial fraction round trips
    pole_pool = [Q(0), Q(1), Q(-2), Q(1, 2)]
    for _ in range(50):
        den = {p: r.randint(1, 3) for p in r.sample(pole_pool, r.randint(1, 3))}
        num = {v: random_fraction(r) for v in range(r.randint(1, 4))}
        num = {v: c for v, c in num.items() if c} or {0: Q(1)}
        f = RatFunc("z", num, den)
        poly, pieces = partial_fractions(f, [(p, 3) for p in pole_pool])
        assert reassemble("z", poly, pieces) == f
    # Jacobi identities in the three bracket algebras
    for _ in range(50):
        a, b, c = (random_weyl(r, [(1, 1), (2, 1)], max_deg=2) for _ in range(3))
        assert (
            weyl_commutator(a, weyl_commutator(b, c))
            + weyl_commutator(b, weyl_commutator(c, a))
            + weyl_commutator(c, weyl_commutator(a, b))
        ) == 0
    vars = ["x1_1", "p1_1", "x2_1", "p2_1"]
    for _ in range(50):
        a, b, c = (random_poly(r, vars, max_deg=3) for _ in range(3))
        assert (
            poisson_bracket(a, poisson_bracket(b, c))
            + poisson_bracket(b, poisson_bracket(c, a))
            + poisson_bracket(c, poisson_bracket(a, b))
        ) == 0
    alg = GrassmannAlgebra(2, 2)
    for _ in range(50):
        pa, pb, pc = (r.choice([0, 1]) for _ in range(3))
        a = random_grassmann(r, alg, pa)
        b = random_grassmann(r, alg, pb)
        c = random_grassmann(r, alg, pc)
        # graded Jacobi identity
        jac = (
            alg.graded_bracket(a, alg.graded_bracket(b, c)) * ((-1) ** (pa * pc))
            + alg.graded_bracket(b, alg.graded_bracket(c, a)) * ((-1) ** (pb * pa))
            + alg.graded_bracket(c, alg.graded_bracket(a, b)) * ((-1) ** (pc * pb))
        )
        assert jac == 0
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 9 infrastructure properties: PASS ({elapsed * 1000:.0f} ms)",
        flush=True,
    )
