"""The classical spectral polynomial against sympy: D(z) det(lam - L(z))
built from the paper's Lax matrix

    L(z)_ab = lam_a delta_ab + sum_i sum_r sum_u x^a_(u+r) p^b_u / (z - z_i)^(r+1),

u running over the i-th block nu_i + 1 .. nu_i + tau_i - r, compared with
the printed `_classical_spectral_poly`; on regular divisors also the dual
side D~(lam) det(z - L~(lam)), L~_ij = z_i delta_ij + sum_a p^a_j x^a_i / (lam - lam_a)."""

import pytest

sympy = pytest.importorskip("sympy")

from gaudual.gaudin import (Divisor, DualityInstance, _classical_spectral_poly,  # noqa: E402
                           extract_gaudin_generators)

z, lam = sympy.symbols("z lam")


def x(a, i):
    return sympy.Symbol(f"x{a}_{i}")


def p(a, i):
    return sympy.Symbol(f"p{a}_{i}")


def z_side(M, div_z, lam_points):
    """D(z) det(lam - L(z)) for the gl_M Lax matrix of the paper."""
    L = sympy.zeros(M, M)
    for a in range(1, M + 1):
        L[a - 1, a - 1] = lam_points[a - 1]
    nu = 0
    for loc, tau in div_z:
        for r in range(tau):
            for u in range(nu + 1, nu + tau - r + 1):
                for a in range(1, M + 1):
                    for b in range(1, M + 1):
                        L[a - 1, b - 1] += x(a, u + r) * p(b, u) / (z - loc) ** (r + 1)
        nu += tau
    D = sympy.prod([(z - loc) ** tau for loc, tau in div_z])
    return sympy.expand(sympy.cancel(D * (lam * sympy.eye(M) - L).det()))


def lam_side(N, z_points, lam_points):
    """D~(lam) det(z - L~(lam)) for the gl_N Lax matrix of a regular pair."""
    L = sympy.zeros(N, N)
    for i in range(1, N + 1):
        L[i - 1, i - 1] = z_points[i - 1]
        for a, la in enumerate(lam_points, 1):
            for j in range(1, N + 1):
                L[i - 1, j - 1] += p(a, j) * x(a, i) / (lam - la)
    D = sympy.prod([lam - la for la in lam_points])
    return sympy.expand(sympy.cancel(D * (z * sympy.eye(N) - L).det()))


def ours(M, N, div_z, div_lam):
    inst = DualityInstance(M, N, Divisor.of(div_z), Divisor.of(div_lam))
    return sympy.sympify(repr(_classical_spectral_poly(inst)))


def test_regular_divisor_both_sides():
    div_z, div_lam = [(1, 1), (2, 1)], [(5, 1), (7, 1)]
    got = ours(2, 2, div_z, div_lam)
    assert sympy.expand(got - z_side(2, div_z, [5, 7])) == 0
    assert sympy.expand(got - lam_side(2, [1, 2], [5, 7])) == 0


def test_irregular_divisor_z_side():
    div_z, div_lam = [(1, 2)], [(5, 1), (7, 1)]
    got = ours(2, 2, div_z, div_lam)
    assert sympy.expand(got - z_side(2, div_z, [5, 7])) == 0


def sympy_bracket(f, g, M, N):
    """The canonical Poisson bracket sum df/dp dg/dx - df/dx dg/dp over the
    pairs (x^a_i, p^a_i), built with sympy.diff alone."""
    return sympy.expand(sum(
        sympy.diff(f, p(a, i)) * sympy.diff(g, x(a, i))
        - sympy.diff(f, x(a, i)) * sympy.diff(g, p(a, i))
        for a in range(1, M + 1) for i in range(1, N + 1)))


def test_extracted_generators_poisson_commute():
    """Every pair i < j of the extracted classical generators has a zero
    bracket, computed without poisson_bracket; the generators are the
    coefficients of the z-side polynomial built here, and the bracket is
    nonzero on a generator and a coordinate, so it can fail."""
    M, N, div_z, div_lam = 2, 2, [(1, 2)], [(5, 1), (7, 1)]
    inst = DualityInstance(M, N, Divisor.of(div_z), Divisor.of(div_lam))
    gens = [sympy.sympify(repr(g)) for g in extract_gaudin_generators(inst, "classical")]
    want = sympy.Poly(z_side(M, div_z, [5, 7]), z, lam).coeffs()
    assert len(gens) == len(want) and set(map(sympy.expand, gens)) == set(map(sympy.expand, want))
    assert any(sympy_bracket(g, x(1, 1), M, N) != 0 for g in gens)
    for i, f in enumerate(gens):
        for g in gens[i + 1:]:
            assert sympy_bracket(f, g, M, N) == 0
