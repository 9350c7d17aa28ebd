"""linalg.sparse_basis against exact span membership, on seeded random
lists of MultiPolys (over different tables) and of Weyl elements, each with
Fraction coefficients, a zero, a constant, a duplicate and a rational
combination of two others among them."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gaudual.linalg import in_span, sparse_basis
from gaudual.multipoly import MultiPoly
from gaudual.weyl import WeylElement
from helpers import random_fraction, random_poly, random_weyl, rng, weyl_in_span

NAMES = ["x1_1", "x2_1", "p1_1", "p2_1", "z", "lam"]
TESTS = Path(__file__).resolve().parent


def with_relations(r, elements: list, ring) -> list:
    """elements with a zero, a nonzero constant, a duplicate and a rational
    combination of two of them added, shuffled."""
    a, b = r.choice(elements), r.choice(elements)
    out = elements + [ring.zero(), ring.const(random_fraction(r) or Fraction(3, 2)), a,
                      a * Fraction(r.randint(1, 5), r.randint(1, 4)) - b * random_fraction(r)]
    r.shuffle(out)
    return out


def poly_case(seed: int) -> list[MultiPoly]:
    r = rng(seed)
    return with_relations(r, [random_poly(r, r.sample(NAMES, r.randint(1, 4)), max_deg=3)
                              for _ in range(r.randint(1, 6))], MultiPoly)


def weyl_case(seed: int) -> list[WeylElement]:
    r = rng(seed)
    return with_relations(r, [random_weyl(r, [(1, 1), (2, 1), (1, 2)])
                              for _ in range(r.randint(1, 6))], WeylElement)


def check_basis(elements: list, basis: list, member) -> None:
    """basis is an independent set of int-coefficient elements of the
    input's ring, no longer than the input, with the same rational span."""
    assert len(basis) <= len(elements)
    assert all(type(b) is type(elements[0]) for b in basis)
    assert all(type(c) is int for b in basis for c in b.terms.values())
    assert all(member(x, basis) is not None for x in elements)
    assert all(member(b, elements) is not None for b in basis)
    assert all(member(b, basis[:k] + basis[k + 1:]) is None for k, b in enumerate(basis))


@pytest.mark.parametrize("seed", range(40))
def test_basis_of_polynomials_spans_the_same_space(seed):
    elements = poly_case(seed)
    basis = sparse_basis(elements)
    check_basis(elements, basis, in_span)
    assert len({b.vars for b in basis}) <= 1


@pytest.mark.parametrize("seed", range(40))
def test_basis_of_weyl_elements_spans_the_same_space(seed):
    elements = weyl_case(seed)
    check_basis(elements, sparse_basis(elements), weyl_in_span)


def test_basis_edge_cases():
    V, C = MultiPoly.var, MultiPoly.const
    assert sparse_basis([]) == []
    assert sparse_basis([MultiPoly.zero(), C(0)]) == sparse_basis([WeylElement.zero()]) == []
    # a primitive row keeps its sign
    assert [repr(b) for b in sparse_basis([C(Fraction(-4, 3)), C(6)])] == ["-1"]
    # x/2 + p/3 and 2x + 4p/3 are one row, 3x + 2p
    f = V("x1_1", coeff=Fraction(1, 2)) + V("p1_1", coeff=Fraction(1, 3))
    assert [repr(b) for b in sparse_basis([f, f * 4, f])] == ["2*p1_1 + 3*x1_1"]
    # the shorter row is kept first and eliminates the longer one's pivot
    g, h = V("x1_1") + V("p1_1") + V("z"), V("x1_1", coeff=2)
    basis = sparse_basis([g, h])
    assert [b.vars for b in basis] == [("x1_1", "p1_1", "z")] * 2
    assert [repr(b) for b in basis] == ["x1_1", "z + p1_1"]


def test_basis_does_not_depend_on_the_hash_seed():
    probe = ("from test_sparse_basis import poly_case, weyl_case\n"
             "from gaudual.linalg import sparse_basis\n"
             "for s in range(12):\n"
             "    print([(b.vars, list(b.terms.items())) for b in sparse_basis(poly_case(s))])\n"
             "    print([list(b.terms.items()) for b in sparse_basis(weyl_case(s))])\n")
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    outputs = [subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, env=dict(os.environ, PYTHONPATH=path,
                                                   PYTHONHASHSEED=seed)).stdout
               for seed in ("1", "2")]
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 24
