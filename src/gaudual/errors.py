"""Exception types shared across the package."""


class GaudualError(Exception):
    pass


class ZeroInverse(GaudualError):
    """Inversion of the zero rational function."""


class NotInvertible(GaudualError):
    """Element has no inverse in the supported factored form."""


class UnlistedPole(GaudualError):
    """Denominator root not covered by the supplied pole list."""


class ResidualPole(GaudualError):
    """A denominator survived where a polynomial was required."""

    def __init__(self, point, order):
        super().__init__(f"residual pole of order {order} at {point}")
        self.point = point
        self.order = order


class InexactDivision(GaudualError, ValueError):
    """A polynomial division by (var - root)^power left a remainder."""

    def __init__(self, var, root, power):
        super().__init__(f"({var} - {root})^{power} does not divide exactly")
        self.var = var
        self.root = root


class RefusedMinor(GaudualError):
    """A minor of the determinant recursion that its exact per-step divider
    does not divide: `size` x `size`, refused at (var - root)."""

    def __init__(self, size: int, refusal: InexactDivision):
        super().__init__(f"{size} x {size} minor: {refusal}")
        self.size = size
        self.var = refusal.var
        self.root = refusal.root


class NonSquare(GaudualError):
    pass


class NoncommutativeRing(GaudualError):
    """Ordinary determinant requested over a noncommutative ring."""


class IndexOutOfRange(GaudualError):
    pass


class DivisorMismatch(GaudualError):
    """Divisor degree constraints (sum of weights) violated."""


class BadPoints(GaudualError):
    """Point configuration violates distinctness constraints."""


class DuplicateFrequency(GaudualError):
    pass


class InhomogeneousInput(GaudualError):
    """Graded bracket called on an element of mixed parity."""


class OddImage(GaudualError):
    """A fermionic realization image is odd; the pair check needs even ones."""


class ExponentOverflow(GaudualError):
    """A monomial exponent outgrew its packed field."""


class GuardExceeded(GaudualError):
    """A term-count or size ceiling was exceeded."""


class SpecValidationError(GaudualError):
    """Instance specification failed validation before dispatch."""
