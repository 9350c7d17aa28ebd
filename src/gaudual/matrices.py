"""Matrices of ring elements, each a list of row lists: det, cdet, the
Manin check, Jordan blocks and block assembly.

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
    popcount(mask) columns; the minor on mask + {r} gains e[r][c] times
    minors[mask], signed by the parity of the rows of `mask` above r.  Every
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
                term = e[r][c] * minor
                acc = grown.get(mask | bit)
                if (mask & (bit - 1)).bit_count() & 1:
                    grown[mask | bit] = -term if acc is None else acc - term
                else:
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
