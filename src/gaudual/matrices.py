"""Matrices of ring elements, each a list of row lists: det, cdet, the
Manin check, Jordan blocks, block assembly and the pole-term Lax matrix of
a side, a split Casimir over the dual basis of its generators' matrices.

Entries are duck-typed ring elements (MultiPoly, WeylElement, even
GrassmannElement, OrderedDiffOp, RatFunc, Fraction); det refuses a matrix
with an entry that need not commute, and cdet takes any of them.  One
determinant routine serves det and cdet:
a column-ordered Laplace expansion memoized by row subset, n 2^(n-1) ring
products for an n x n matrix, exact; it divides only where its caller
hands it an exact divider for every minor.  The verifiers need no inverse
of a matrix, so none is computed here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import InexactDivision, NonSquare, NoncommutativeRing, RefusedMinor
from .grassmann import GrassmannElement
from .multipoly import MultiPoly
from .ratfunc import RatFunc


def _size(m: list[list], what: str) -> int:
    """The size n of an n x n list of rows; a ragged or non-square list
    raises NonSquare."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise NonSquare(f"{what} needs a square matrix")
    return n


def transpose(m: list[list]) -> list[list]:
    return [list(col) for col in zip(*m)]


def block2x2(A: list[list], B: list[list], C: list[list], D: list[list]) -> list[list]:
    """Assemble [[A, B], [C, D]] from explicit corner blocks."""
    if len(A) != len(B) or len(C) != len(D) or len(A[0]) != len(C[0]) or len(B[0]) != len(D[0]):
        raise ValueError("incompatible block dimensions")
    return [ra + rb for ra, rb in zip(A, B)] + [rc + rd for rc, rd in zip(C, D)]


def _commutes(x) -> bool:
    """x is a rational, a MultiPoly, an even GrassmannElement, or a RatFunc
    whose numerator coefficients are: entries that commute with each other."""
    if isinstance(x, RatFunc):
        return all(_commutes(c) for c in x.num.values())
    if isinstance(x, GrassmannElement):
        return not any(mask.bit_count() & 1 for mask in x.terms)
    return isinstance(x, (int, Fraction, MultiPoly))


def det(m: list[list]):
    """Determinant over a commutative ring, by the subset recursion of
    `_perm_expansion`; refuses an entry that need not commute."""
    _size(m, "det")
    if not all(_commutes(x) for row in m for x in row):
        raise NoncommutativeRing("use cdet for noncommutative entries")
    return _perm_expansion(m)


def cdet(m: list[list]):
    """Column-ordered determinant: factors ordered by column index."""
    _size(m, "cdet")
    return _perm_expansion(m)


def _perm_expansion(e: list[list], divide=None):
    """sum over permutations s of sign(s) e[s(0)][0] e[s(1)][1] ... e[s(n-1)][n-1]
    by Laplace expansion along the first column, memoized by row subset
    (the division-free subset recursion of Rote, "Division-free algorithms
    for the determinant and the Pfaffian", 2001).  minors[mask] is the
    column-ordered determinant of the rows in `mask` and the last
    popcount(mask) columns; the minor on mask + {r} gains e[r][c], signed by
    the parity of the rows of `mask` above r, times minors[mask].  Every
    entry multiplies on the left in column order, so this is cdet, and det
    over a commutative ring, in n 2^(n-1) ring products; zero entries and
    zero minors are skipped.

    divide, when given, is an exact divider by some d, applied once to every
    minor the recursion grows, so the result is det / d^(n-1) and the
    undivided determinant is never formed.  This is sound when every k x k
    minor is divisible by d^(k-1), as in fraction-free elimination (Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 22, 1968): the minors grown from divided
    minors are then the k x k minors over d^(k-2).  A divider that refuses,
    raising InexactDivision, raises RefusedMinor with the minor's size."""
    n = len(e)
    # signed[parity][r][c]: the entry with the sign of a row parity applied
    # once, so every grown minor only adds; (-a) b = -(a b) in any ring
    signed = (e, [[-x if x else x for x in row] for row in e])
    minors = {1 << r: e[r][n - 1] for r in range(n)}
    for c in range(n - 2, -1, -1):
        grown = {}
        for mask, minor in minors.items():
            if not minor:
                continue
            for r in range(n):
                bit = 1 << r
                if mask & bit or not e[r][c]:
                    continue
                term = signed[(mask & (bit - 1)).bit_count() & 1][r][c] * minor
                acc = grown.get(mask | bit)
                grown[mask | bit] = term if acc is None else acc + term
        if divide is not None:
            try:
                grown = {mask: divide(minor) for mask, minor in grown.items() if minor}
            except InexactDivision as err:
                raise RefusedMinor(n - c, err) from err
        minors = grown
    full = (1 << n) - 1
    return minors[full] if full in minors else e[0][0] - e[0][0]


def manin_check(e: list[list]):
    """Both Manin conditions for all index quadruples.

    Returns (True, None) or (False, (i, j, k, l)) with the first violating
    quadruple: column condition [M_ij, M_kj] = 0 reported as (i, j, k, j).
    """
    n = _size(e, "the Manin check")

    def comm(a, b):
        return a * b - b * a

    for j in range(n):
        for i in range(n):
            for k in range(i + 1, n):
                if comm(e[i][j], e[k][j]):
                    return False, (i, j, k, j)
    # the cross condition [M_ij, M_kl] = [M_kj, M_il] is unchanged up to sign
    # under i <-> k or j <-> l, holds at i = k, and at j = l is twice a column
    # condition: checking i < k, j < l needs each commutator once and finds
    # the violation the full (i, k, j, l) loop would find first
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                for l in range(j + 1, n):
                    if comm(e[i][j], e[k][l]) != comm(e[k][j], e[i][l]):
                        return False, (i, j, k, l)
    return True, None


def jordan_block(k: int, x, one=Fraction(1)) -> list[list]:
    """k x k matrix with x along the diagonal and -1 just below it."""
    if k < 1:
        raise ValueError("Jordan block size must be positive")
    zero = x - x
    entries = [[zero for _ in range(k)] for _ in range(k)]
    for i in range(k):
        entries[i][i] = x
        if i + 1 < k:
            entries[i + 1][i] = zero - one
    return entries


def block_diag(blocks: list[list[list]]) -> list[list]:
    """The block-diagonal matrix of the square blocks; [] for no block."""
    if not blocks:
        return []
    zero = blocks[0][0][0] - blocks[0][0][0]
    size = sum(len(b) for b in blocks)
    rows, c0 = [], 0
    for b in blocks:
        rows += [[zero] * c0 + row + [zero] * (size - c0 - len(row)) for row in b]
        c0 += len(b)
    return rows


def lax_terms(side) -> list[list[list[tuple]]]:
    """L = sum_g image(g) g* / (x - pole(g))^order(g) of a gaudin.Side as pole terms:
    entry (r, c) lists the nonzero (image g*_rc, pole, order), the constant
    group first, g* the dual basis of g's group (_duals).  With twist, a term
    at a nonzero pole adds (-1)^order image (g*)^T at -pole: the cyclotomic L
    sums each point's orbit (Vicedo and Young, CMP 343, 2016)."""
    n = side.size
    out = [[[] for _ in range(n)] for _ in range(n)]
    groups: dict = {}
    for g in side.gens:
        group, depth, _, entries = side.matrix(g)
        gens, mats = groups.setdefault((group, depth), ([], []))
        gens.append(g)
        mats.append(entries)
    for (group, depth), (gens, mats) in sorted(groups.items(),
                                               key=lambda item: item[0][0] in side.poles):
        pole = side.poles.get(group)
        pole, order = (Fraction(0), 0) if pole is None else (pole, depth + 1)
        sign = (-1) ** order if side.twist and pole else 0  # of the mirrored term
        for img, dual in zip(map(side.image, gens), _duals(tuple(mats), side.kappa(group))):
            if not img:
                continue
            for (r, c), v in dual.items():
                out[r][c].append((img if v == 1 else img * v, pole, order))
                if sign:
                    out[c][r].append((img if v * sign == 1 else img * (v * sign), -pole, order))
    return out


@cache
def _duals(mats: tuple, kappa) -> list[dict]:
    """The dual basis under kappa tr(XY) of one group of matrices, each a
    tuple of (row, column, value) entries, as {(row, column): value} dicts,
    which no caller changes.  The Gram matrix is monomial in every group: g
    pairs with one partner h, found by an index of the entries, and g* = h /
    (kappa tr(g h)); another Gram matrix raises ValueError."""
    at: dict = {}
    for k, entries in enumerate(mats):
        for r, c, v in entries:
            at.setdefault((c, r), []).append((k, v))
    out = []
    for entries in mats:
        gram: dict = {}
        for r, c, v in entries:
            for k, w in at.get((r, c), ()):
                gram[k] = gram.get(k, 0) + v * w
        (k, value), = [(k, x) for k, x in gram.items() if x]
        scale = kappa * value
        dual: dict = {}
        for r, c, w in mats[k]:
            dual[r, c] = dual.get((r, c), 0) + (w if scale == 1 else Fraction(w) / scale)
        out.append(dual)
    return out
