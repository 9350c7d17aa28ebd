"""Matrices over pluggable coefficient rings: det, cdet, the Manin check,
Jordan blocks and block assembly.

Entries are duck-typed ring elements (MultiPoly, WeylElement, even
GrassmannElement, OrderedDiffOp, Fraction); the `ring` tag records which
operations are legitimate.  Determinants are computed by straight
permutation expansion: every matrix in the verification pipeline is small
(at most 8 x 8), and expansion is exact with no division.  The verifiers
need no inverse of a matrix, so none is computed here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .errors import NonSquare, NoncommutativeRing

COMMUTATIVE_TAGS = {"commutative", "grassmann-even"}


def perm_sign(perm: tuple[int, ...]) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv & 1 else 1


class RingMatrix:
    __slots__ = ("rows", "cols", "entries", "ring")

    def __init__(self, entries, ring: str = "commutative"):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged rows")
        self.ring = ring

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> RingMatrix:
        return RingMatrix(
            [[self.entries[r][c] for r in range(self.rows)] for c in range(self.cols)],
            self.ring,
        )

    def __add__(self, other: RingMatrix) -> RingMatrix:
        return RingMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            self.ring,
        )

    def __sub__(self, other: RingMatrix) -> RingMatrix:
        return RingMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            self.ring,
        )

    def __mul__(self, other: RingMatrix) -> RingMatrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for r in range(self.rows):
            row = []
            for c in range(other.cols):
                acc = None
                for k in range(self.cols):
                    term = self.entries[r][k] * other.entries[k][c]
                    acc = term if acc is None else acc + term
                row.append(acc)
            out.append(row)
        return RingMatrix(out, self.ring)


def block2x2(A: RingMatrix, B: RingMatrix, C: RingMatrix, D: RingMatrix) -> RingMatrix:
    """Assemble [[A, B], [C, D]] from explicit corner blocks."""
    if A.rows != B.rows or C.rows != D.rows or A.cols != C.cols or B.cols != D.cols:
        raise ValueError("incompatible block dimensions")
    entries = [ra + rb for ra, rb in zip(A.entries, B.entries)]
    entries += [rc + rd for rc, rd in zip(C.entries, D.entries)]
    ring = A.ring
    for blk in (B, C, D):
        if blk.ring != ring:
            ring = "weyl" if "weyl" in (blk.ring, ring) else blk.ring
    return RingMatrix(entries, ring)


def det(m: RingMatrix):
    """Permutation-expansion determinant over a commutative(-enough) ring."""
    if not m.is_square():
        raise NonSquare("determinant of a non-square matrix")
    if m.ring not in COMMUTATIVE_TAGS:
        raise NoncommutativeRing("use cdet for noncommutative entries")
    return _perm_expansion(m)


def cdet(m: RingMatrix):
    """Column-ordered determinant: factors ordered by column index."""
    if not m.is_square():
        raise NonSquare("cdet of a non-square matrix")
    return _perm_expansion(m)


def _perm_expansion(m: RingMatrix):
    n = m.rows
    total = None
    for perm in permutations(range(n)):
        prod = None
        for col in range(n):
            e = m.entries[perm[col]][col]
            prod = e if prod is None else prod * e
        prod = prod * Fraction(perm_sign(perm))
        total = prod if total is None else total + prod
    return total


def manin_check(m: RingMatrix):
    """Both Manin conditions for all index quadruples.

    Returns (True, None) or (False, (i, j, k, l)) with the first violating
    quadruple: column condition [M_ij, M_kj] = 0 reported as (i, j, k, j).
    """
    n = m.rows
    if not m.is_square():
        raise NonSquare("Manin check needs a square matrix")
    e = m.entries

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


def jordan_block(k: int, x, one=Fraction(1)) -> RingMatrix:
    """k x k matrix with x along the diagonal and -1 just below it."""
    if k < 1:
        raise ValueError("Jordan block size must be positive")
    zero = x - x
    entries = [[zero for _ in range(k)] for _ in range(k)]
    for i in range(k):
        entries[i][i] = x
        if i + 1 < k:
            entries[i + 1][i] = zero - one
    return RingMatrix(entries, "commutative")


def block_diag(blocks: list[RingMatrix], ring: str = "commutative") -> RingMatrix:
    sizes = [(b.rows, b.cols) for b in blocks]
    rows = sum(r for r, _ in sizes)
    cols = sum(c for _, c in sizes)
    sample = blocks[0].entries[0][0]
    zero = sample - sample
    entries = [[zero for _ in range(cols)] for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for r in range(b.rows):
            for c in range(b.cols):
                entries[r0 + r][c0 + c] = b.entries[r][c]
        r0 += b.rows
        c0 += b.cols
    return RingMatrix(entries, ring)
