"""Small exact linear algebra helpers over the rationals."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .multipoly import MultiPoly, common_table


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
    vars = common_table(polys)
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


def sparse_basis(elements: list) -> list:
    """A basis of the rational span of `elements` (MultiPolys, lifted once to
    their `common_table`, or elements of one TermDict ring) with int
    coefficients, by fraction-free row reduction (Bareiss).  Each element
    becomes a primitive integer row; the rows are taken shortest first, in
    the given order among equal lengths, and each is reduced at the pivot e
    (largest monomial) of every row p kept before it, largest first:
    r <- (a r - b p) / content, g = gcd(p[e], r[e]), a = p[e] / g, b = r[e] / g.
    A row that reduces to zero is dropped.  Each step is invertible over Q,
    so the span is unchanged, and a bilinear, antisymmetric bracket is zero
    on every pair of elements exactly when it is zero on every basis pair."""
    if not elements:
        return []
    if isinstance(elements[0], MultiPoly):
        vars = common_table(elements)
        rows, build = [x.lift_to(vars).terms for x in elements], lambda t: MultiPoly(vars, t)
    else:
        rows, build = [x.terms for x in elements], type(elements[0])
    kept: dict = {}  # pivot -> row
    for r in sorted((_primitive(t) for t in rows if t), key=len):
        for e in sorted(kept, reverse=True):
            if e in r:
                p = kept[e]
                g = gcd(p[e], r[e])
                a, b = p[e] // g, r[e] // g
                r = {m: a * c for m, c in r.items()}
                for m, c in p.items():
                    r[m] = r.get(m, 0) - b * c
                r = _primitive({m: c for m, c in r.items() if c})
                if not r:
                    break
        if r:
            kept[max(r)] = r
    return [build(r) for r in kept.values()]


def _primitive(terms: dict) -> dict:
    """terms times the lcm of their denominators, over the gcd of the
    resulting ints; empty terms stay empty."""
    scale = lcm(*(c.denominator for c in terms.values()))
    row = {m: int(c * scale) for m, c in terms.items()}
    content = gcd(*row.values())
    return {m: c // content for m, c in row.items()} if content > 1 else row
