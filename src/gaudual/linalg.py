"""Small exact linear algebra helpers over the rationals."""

from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly, var_key


def solve_linear(columns: list[list[Fraction]], target: list[Fraction]):
    """Solve ``sum_j c_j * columns[j] = target`` exactly.

    Returns the coefficient list, or None when the target is outside the
    column span.
    """
    rows = len(target)
    ncols = len(columns)
    aug = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, rows) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][ncols]:
            return None
    coeffs = [Fraction(0)] * ncols
    for row, c in enumerate(pivots):
        coeffs[c] = aug[row][ncols]
    return coeffs


def poly_vectors(polys: list[MultiPoly]):
    """Coefficient vectors of the polynomials over a shared monomial basis."""
    vars = tuple(sorted({v for p in polys for v in p.vars}, key=var_key))
    lifted = [p.lift_to(vars) for p in polys]
    monomials = sorted({e for p in lifted for e in p.terms})
    return [[p.terms.get(m, Fraction(0)) for m in monomials] for p in lifted]


def in_span(candidate: MultiPoly, generators: list[MultiPoly]):
    """Exact membership of `candidate` in the rational span of `generators`.

    Returns the combination coefficients or None.
    """
    if not generators:
        return [] if not candidate else None
    vectors = poly_vectors(list(generators) + [candidate])
    return solve_linear(vectors[:-1], vectors[-1])

