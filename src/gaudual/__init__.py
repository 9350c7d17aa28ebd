"""Exact symbolic verification of Gaudin-model dualities.

The package computes, over exact rationals, both sides of the classical
bosonic, classical fermionic, quantum bosonic and cyclotomic duality
identities for Gaudin models with irregular singularities, and checks the
supporting algebraic structure (realization homomorphisms, Manin matrices,
commutativity of the extracted conserved quantities).
"""

from .errors import (
    BadPoints,
    DivisorMismatch,
    DuplicateFrequency,
    ExponentOverflow,
    GaudualError,
    IndexOutOfRange,
    InhomogeneousInput,
    NonSquare,
    NoncommutativeRing,
    NotInvertible,
    OddImage,
    ResidualPole,
    SpecValidationError,
    UnlistedPole,
    ZeroInverse,
)
from .multipoly import MultiPoly
from .ratfunc import RatFunc, partial_fractions
from .weyl import OrderedDiffOp, WeylElement, weyl_commutator
from .grassmann import GrassmannAlgebra, GrassmannElement
from .poisson import poisson_bracket
from .matrices import cdet, det, jordan_block, manin_check
from .gaudin import (
    Divisor,
    DualityInstance,
    check_commutativity,
    extract_gaudin_generators,
    verify_classical_bosonic_duality,
    verify_classical_fermionic_duality,
    verify_homomorphism,
    verify_quantum_duality,
)
from .cyclotomic import (
    CycloDivisor,
    CycloInstance,
    lax_algebra_check,
    neumann_artifacts,
    quantum_cyclotomic_candidate,
    verify_cyclotomic_duality,
    verify_cyclotomic_homomorphisms,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
