"""gaudin.matrix_rows, the one lister of structure rows, against the
structure constants stated pair by pair (helpers: takiff_formula,
glMC_bracket, sp_bracket) on every side of every homomorphism check."""

import json

import pytest

from gaudual.gaudin import Divisor, TakiffGen, matrix_rows, takiff_generators, takiff_matrix
from gaudual.presets import homomorphism_grid
from helpers import build_instance, glMC_bracket, sp_bracket, takiff_formula


def summed(terms) -> dict:
    """{generator: coefficient} of a list of (coefficient, generator) terms,
    summed per generator, zero sums dropped."""
    out: dict = {}
    for coeff, g in terms:
        out[g] = out.get(g, 0) + coeff
    return {g: c for g, c in out.items() if c}


def check_rows(gens: list, matrix, reference) -> None:
    """Every row of matrix_rows(gens, matrix) lists each target generator
    once and, summed, equals the reference over every ordered pair; no entry
    is listed whose sum is zero."""
    row = matrix_rows(gens, matrix)
    for i, g1 in enumerate(gens):
        got = row(i)
        for terms in got.values():
            assert len(summed(terms)) == len(terms), (g1, terms)
        want = {j: terms for j, g2 in enumerate(gens) if (terms := summed(reference(g1, g2)))}
        assert {j: summed(terms) for j, terms in got.items()} == want, g1


def side(inst, name: str):
    """(generators, matrix descriptor, pairwise reference) of one side."""
    if name in ("glM", "glN"):
        divisor, size = (inst.div_z, inst.M) if name == "glM" else (inst.div_lam, inst.N)
        return (takiff_generators(divisor, size), takiff_matrix(divisor),
                lambda g1, g2: takiff_formula(g1, g2, divisor))
    if name == "glM-cyclotomic":
        return (inst.glMC_generators(), inst.glMC_matrix,
                lambda g1, g2: glMC_bracket(inst, g1, g2))
    return inst.sp_generators(), inst.sp_matrix, lambda g1, g2: sp_bracket(inst, g1, g2)


def _grid_sides():
    """(spec, side) for each distinct side of the homomorphism_grid() specs:
    the structure does not depend on the realization flavor or on mu."""
    seen = set()
    for spec in homomorphism_grid():
        cyclotomic = spec["realization"] == "cyclotomic"
        for name in (("glM-cyclotomic", "sp2N") if cyclotomic else ("glM", "glN")):
            shape = {k: v for k, v in spec.items() if k not in ("realization", "mu")}
            key = (name, json.dumps(shape, sort_keys=True))
            if key not in seen:
                seen.add(key)
                yield pytest.param(spec, name, id=f"{name}-{len(seen)}")


@pytest.mark.parametrize("spec, name", list(_grid_sides()))
def test_matrix_rows_match_the_references_on_the_grid(spec, name):
    check_rows(*side(build_instance(spec), name))


def test_matrix_rows_match_the_takiff_formula_on_drawn_divisors():
    """1-3 points of Takiff degree 1-3, size 1-3."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(1, 3))
    def check(taus, size):
        divisor = Divisor.of(list(enumerate(taus, 1)))
        check_rows(takiff_generators(divisor, size), takiff_matrix(divisor),
                   lambda g1, g2: takiff_formula(g1, g2, divisor))

    check()


def test_a_zero_sum_lists_no_term():
    """The formula gives [E_aa, E_aa] as (1, E_aa) and (-1, E_aa); the row
    lists nothing there, while [E_12, E_21] keeps both of its targets."""
    divisor = Divisor.of([(1, 2)])
    gens = takiff_generators(divisor, 2)
    row = matrix_rows(gens, takiff_matrix(divisor))
    diagonal, e12, e21 = (gens.index(TakiffGen(0, 0, a, b)) for a, b in ((1, 1), (1, 2), (2, 1)))
    assert summed(takiff_formula(gens[diagonal], gens[diagonal], divisor)) == {}
    assert diagonal not in row(diagonal)
    assert summed(row(e12)[e21]) == {TakiffGen(0, 0, 1, 1): 1, TakiffGen(0, 0, 2, 2): -1}


def test_a_doubled_pivot_reads_half_the_entry():
    """Ebar_(1,-1) = 2 E~_(1,-1) and Pi_(1) E_aa = 2 E_aa are each one entry
    of value 2: at N = 1, [h, e] = 2 e for h = Ebar_(1,1) and e = Ebar_(1,-1)
    (the commutator's entry is 4), and [Pi_(0) E_12, Pi_(1) E_12] =
    2 E_11 - 2 E_22 = Pi_(1) E_11 - Pi_(1) E_22."""
    inst = build_instance({"kind": "homomorphism", "realization": "cyclotomic", "M": 2,
                           "N": 1, "tau0": 1, "divisor": [], "lambda_points": ["5", "7"],
                           "mu": "-1"})
    for name, g1, g2, want in (
            ("sp2N", ("lam", 1, 1, 1), ("lam", 1, 1, -1), {("lam", 1, 1, -1): 2}),
            ("glM-cyclotomic", ("or", 0, 1, 2), ("or", 1, 1, 2),
             {("or", 1, 1, 1): 1, ("or", 1, 2, 2): -1})):
        gens, matrix, _ = side(inst, name)
        row = matrix_rows(gens, matrix)(gens.index(g1))
        assert summed(row[gens.index(g2)]) == want, name


def test_no_bracket_reaches_the_limit():
    """A commutator at the summed depth limit is listed nowhere, even where a
    generator has its pivot at that depth: E_11 at depth 0 against E_12 at
    depth 1 gives E_12 below limit 2, and nothing below limit 1."""
    for limit, want in ((2, {1: [(1, "b")]}), (1, {})):
        mats = {"a": ("g", 0, limit, ((1, 1, 1),)), "b": ("g", 1, limit, ((1, 2, 1),))}
        assert matrix_rows(["a", "b"], mats.__getitem__)(0) == want, limit
