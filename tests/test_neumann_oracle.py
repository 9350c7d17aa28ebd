"""Independent sympy oracle for the Neumann spectral relation.

The M x M Lax matrix L~(z) of the Neumann model and the 2 x 2 Moser matrix
L(lam) share their spectral curve:

    z^2 det(lam - L~(z)) = prod_a (lam - lam_a) det(z - L(lam)),

with (b, a) entry of L~ equal to lam_a delta_ab + (x_a p_b - x_b p_a)/z
- x_a x_b / z^2, and L(lam) = [[-S(xp), -S(x^2)], [1 + S(p^2), S(xp)]] for
S(f) = sum_a f_a / (lam - lam_a).  Both sides are built here from these
formulas alone and compared with the common polynomial the verifier reports.
"""

import pytest

from gaudual.cyclotomic import neumann_artifacts

sympy = pytest.importorskip("sympy")


@pytest.mark.parametrize("M,omegas", [(2, [1, 2]), (3, [1, 2, 3])])
def test_neumann_spectral_relation_against_sympy(M, omegas):
    z, lam = sympy.symbols("z lam")
    x = [sympy.Symbol(f"x{a}_1") for a in range(1, M + 1)]
    p = [sympy.Symbol(f"p{a}_1") for a in range(1, M + 1)]
    lams = [sympy.Integer(w) ** 2 for w in omegas]

    def entry(b, a):
        diag = lams[a] if a == b else 0
        return diag + (x[a] * p[b] - x[b] * p[a]) / z - x[a] * x[b] / z**2

    lax = sympy.Matrix(M, M, entry)
    lhs = sympy.cancel(z**2 * (lam * sympy.eye(M) - lax).det())

    def S(f):
        return sum(f(a) / (lam - lams[a]) for a in range(M))

    xp, xx, pp = S(lambda a: x[a] * p[a]), S(lambda a: x[a] ** 2), S(lambda a: p[a] ** 2)
    moser = sympy.Matrix([[-xp, -xx], [1 + pp, xp]])
    rhs = sympy.cancel(sympy.prod([lam - la for la in lams]) * (z * sympy.eye(2) - moser).det())
    assert sympy.expand(lhs - rhs) == 0

    duality = neumann_artifacts(M, omegas)["duality"]
    assert duality["status"] == "pass"
    reported = sympy.sympify(duality["common_polynomial"].replace("^", "**"))
    assert sympy.expand(lhs - reported) == 0
