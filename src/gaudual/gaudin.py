"""Divisors, Takiff generators, realizations, Lax matrices and the three
non-cyclotomic duality verifiers.

Conventions fixed here (and unit-tested, since they are easy to transcribe
wrongly):

* nu offsets: nu_i = tau_1 + ... + tau_(i-1), so the canonical index u of
  the realization formulas runs inside the i-th block of 1..N.
* Infinity images are built from the dual divisor's Jordan data.  On the
  gl_M side every flavor reads off the (b, a) entry of -(+)J_k(-lambda_c);
  on the gl_N side the bosonic maps read the (j, i) entry of
  -(+)J_k(-z_k) and the fermionic map reads (i, j).  These orientations
  are forced by the determinant factorizations and are unit-tested.
* The gl_M-side Lax matrix is stored transposed, entry (a, b) carrying the
  coefficient attached to E_ab; determinants do not care and the quantum
  cdet wants exactly this layout.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial

from .errors import DivisorMismatch, IndexOutOfRange, OddImage, RefusedMinor, ResidualPole
from .grassmann import GrassmannAlgebra, GrassmannElement
from .linalg import solve_linear  # noqa: F401 (unused; bench/test_bench.py traces this binding)
from .matrices import (RingMatrix, _perm_expansion, block2x2, block_diag, cdet, jordan_block,
                       manin_check)
from .multipoly import MultiPoly, VariableTable
from .poisson import poisson_bracket, poisson_support
from .ratfunc import RatFunc, expand_factors, partial_fractions
from .scalars import rat
from .weyl import OrderedDiffOp, WeylElement, weyl_commutator, weyl_support

Q = Fraction

INF = None  # point tag for the double point at infinity


def exact_int(value, name: str) -> int:
    """value itself if it is an int: a float, a bool or a string is refused,
    not truncated."""
    if type(value) is not int:
        raise DivisorMismatch(f"{name} must be an int, not {value!r}")
    return value


class Divisor(namedtuple("Divisor", "points")):
    """Finite part of an effective divisor: points = ((location, takiff
    degree), ...) with Fraction locations and int degrees.

    The double point at infinity is implicit and never listed.  A Divisor
    is a tuple: it hashes, orders and compares equal like the plain tuple
    of its fields, and `_make` and `_replace` skip the checks of `__new__`
    (nothing calls them).
    """

    __slots__ = ()

    def __new__(cls, points: tuple[tuple[Fraction, int], ...]) -> Divisor:
        locs = [p for p, _ in points]
        if len(set(locs)) != len(locs):
            raise DivisorMismatch("divisor points must be pairwise distinct")
        if any(t < 1 for _, t in points):
            raise DivisorMismatch("Takiff degrees must be positive")
        return super().__new__(cls, points)

    @staticmethod
    def of(points) -> Divisor:
        return Divisor(tuple((rat(p), exact_int(t, "a Takiff degree")) for p, t in points))

    def total_degree(self) -> int:
        return sum(t for _, t in self.points)

    def block_offsets(self) -> tuple[int, ...]:
        """nu_i = sum of the preceding Takiff degrees (nu_1 = 0)."""
        offsets = []
        acc = 0
        for _, t in self.points:
            offsets.append(acc)
            acc += t
        return tuple(offsets)

    def clearing_poly(self, x: MultiPoly) -> MultiPoly:
        """prod (x - location)^tau over the finite points, for a generator x
        of an instance's variable table."""
        out = MultiPoly.const(1)
        for loc, tau in self.points:
            out = out * (x - loc) ** tau
        return out


class TakiffGen(namedtuple("TakiffGen", "point depth row col")):
    """Basis element E^(point)_(row col, depth): int depth, row and col, and
    point the int index of a divisor point or None for infinity.

    A tuple, so it hashes, orders and compares equal like the plain tuple
    (point, depth, row, col).
    """

    __slots__ = ()

    def label(self) -> str:
        where = "inf" if self.point is None else f"pt{self.point}"
        return f"E[{where}]_{self.row}{self.col},{self.depth}"


def takiff_generators(divisor: Divisor, size: int) -> list[TakiffGen]:
    """All basis generators, ordered by point, then depth, then (row, col)."""
    gens = []
    for i, (_, tau) in enumerate(divisor.points):
        for r in range(tau):
            for a in range(1, size + 1):
                for b in range(1, size + 1):
                    gens.append(TakiffGen(i, r, a, b))
    for a in range(1, size + 1):
        for b in range(1, size + 1):
            gens.append(TakiffGen(INF, 1, a, b))
    return gens


def takiff_bracket(g1: TakiffGen, g2: TakiffGen, divisor: Divisor) -> list[tuple[int, TakiffGen]]:
    """[E_(ab r), E_(cd s)] = delta_bc E_(ad r+s) - delta_ad E_(cb r+s) at a
    shared finite point, truncated at the Takiff degree; infinity is central.
    """
    if g1.point is INF or g2.point is INF or g1.point != g2.point:
        return []
    tau = divisor.points[g1.point][1]
    depth = g1.depth + g2.depth
    if depth >= tau:
        return []
    out = []
    a, b, c, d = g1.row, g1.col, g2.row, g2.col
    if b == c:
        out.append((1, TakiffGen(g1.point, depth, a, d)))
    if a == d:
        out.append((-1, TakiffGen(g1.point, depth, c, b)))
    return out


def takiff_block_sum(nu: int, tau: int, depth: int, term, zero, mutation: str | None = None):
    """zero + sum of term(u, u + depth) over u = nu+1 .. nu+tau-depth, the
    Takiff block of a point of degree tau at offset nu; mutation "range-up"
    runs u one step further, "flip-sign" negates the sum."""
    total = zero
    for u in range(nu + 1, nu + tau - depth + 1 + (mutation == "range-up")):
        total = total + term(u, u + depth)
    return -total if mutation == "flip-sign" else total


def jordan_sum(divisor: Divisor, x) -> RingMatrix:
    """(+)_c J_(tau_c)(x - location_c): x - location_c along the diagonal and
    -1 just below it."""
    return block_diag([jordan_block(tau, x - loc) for loc, tau in divisor.points])


def jordan_sum_matrix(divisor: Divisor) -> list[list[Fraction]]:
    """(+)_c J_(tau_c)(-location_c) as plain rational rows."""
    return jordan_sum(divisor, Q(0)).entries if divisor.points else []


class DualityInstance:
    """One (M, N, divisor, dual divisor) verification instance.

    The z-side divisor carries the poles of the gl_M Lax matrix (degrees sum
    to N); the lambda-side divisor carries the poles of the gl_N Lax matrix
    (degrees sum to M) and doubles as the Jordan data at infinity.
    """

    def __init__(self, M: int, N: int, div_z: Divisor, div_lam: Divisor):
        if div_z.total_degree() != N:
            raise DivisorMismatch(
                f"need Σ τ_i = N: got {div_z.total_degree()} != {N}"
            )
        if div_lam.total_degree() != M:
            raise DivisorMismatch(
                f"need Σ τ̃_a = M: got {div_lam.total_degree()} != {M}"
            )
        self.M = M
        self.N = N
        self.div_z = div_z
        self.div_lam = div_lam
        self._jordan_lam = jordan_sum_matrix(div_lam)
        self._jordan_z = jordan_sum_matrix(div_z)
        self._galg = GrassmannAlgebra(M, N)
        # the classical images are built over one table of all the variables
        self.var = VariableTable([f"{q}{a}_{i}" for q in "xp" for a in range(1, M + 1)
                                  for i in range(1, N + 1)] + ["z", "lam"])

    # -- realization homomorphisms ---------------------------------------

    def realize_glM(self, g: TakiffGen, flavor: str, mutation: str | None = None):
        """Image of a gl_M^D basis element in P_b, P_f or U_b."""
        if not (1 <= g.row <= self.M and 1 <= g.col <= self.M):
            raise IndexOutOfRange(f"generator indices {g.row},{g.col} exceed M={self.M}")
        a, b = g.row, g.col
        if g.point is INF:
            # (b, a) entry for every flavor: the determinant factorization pins
            # the relative orientation of the Jordan data against the
            # finite-point images, and it is the same on the bosonic and
            # fermionic sides (exact counterexample otherwise at tau~ = 2)
            return _const(flavor, -self._jordan_lam[b - 1][a - 1], self._galg)
        if flavor == "classical":
            term = lambda u, v: self.var[f"x{a}_{v}"] * self.var[f"p{b}_{u}"]
        elif flavor == "quantum":
            term = lambda u, v: WeylElement.x(a, v) * WeylElement.d(b, u)
        elif flavor == "fermionic":
            term = lambda u, v: self._galg.pi(a, v) * self._galg.psi(b, u)
        else:
            raise ValueError(f"unknown flavor {flavor!r}")
        return takiff_block_sum(self.div_z.block_offsets()[g.point], self.div_z.points[g.point][1],
                                g.depth, term, _const(flavor, Q(0), self._galg), mutation)

    def realize_glN(self, g: TakiffGen, flavor: str, mutation: str | None = None):
        """Image of a gl_N^D~ basis element; note the derivative-first order
        of the quantum map."""
        if not (1 <= g.row <= self.N and 1 <= g.col <= self.N):
            raise IndexOutOfRange(f"generator indices {g.row},{g.col} exceed N={self.N}")
        i, j = g.row, g.col
        if g.point is INF:
            r, c = (i, j) if flavor == "fermionic" else (j, i)
            return _const(flavor, -self._jordan_z[r - 1][c - 1], self._galg)
        if flavor == "classical":
            term = lambda u, v: self.var[f"p{u}_{j}"] * self.var[f"x{v}_{i}"]
        elif flavor == "quantum":
            term = lambda u, v: WeylElement.d(u, j) * WeylElement.x(v, i)
        elif flavor == "fermionic":
            term = lambda u, v: self._galg.psi(u, i) * self._galg.pi(v, j)
        else:
            raise ValueError(f"unknown flavor {flavor!r}")
        return takiff_block_sum(self.div_lam.block_offsets()[g.point],
                                self.div_lam.points[g.point][1], g.depth, term,
                                _const(flavor, Q(0), self._galg), mutation)

    # -- realized Lax matrices --------------------------------------------

    def lax_glM(self, flavor: str, var: str = "z") -> RingMatrix:
        """Realized transposed Lax matrix: entry (a, b) is the full rational
        coefficient attached to E_ab."""
        return _realized_lax(self.realize_glM, self.div_z, self.M, flavor, var, transpose=False)

    def lax_glN(self, flavor: str, var: str = "lam") -> RingMatrix:
        """Realized Lax matrix: entry (i, j) is the coefficient attached to E_ji."""
        return _realized_lax(self.realize_glN, self.div_lam, self.N, flavor, var, transpose=True)


def _realized_lax(realize, divisor: Divisor, size: int, flavor: str, var: str,
                  transpose: bool) -> RingMatrix:
    """Entry (r, c) sums the images of E_rc (E_cr if transpose) at infinity
    and at every pole of the divisor, as a rational function of var."""
    entries = []
    for r in range(1, size + 1):
        row = []
        for c in range(1, size + 1):
            a, b = (c, r) if transpose else (r, c)
            f = RatFunc.const(var, realize(TakiffGen(INF, 1, a, b), flavor))
            for i, (loc, tau) in enumerate(divisor.points):
                for depth in range(tau):
                    img = realize(TakiffGen(i, depth, a, b), flavor)
                    if img:
                        f = f + RatFunc(var, {0: img}, {loc: depth + 1})
            row.append(f)
        entries.append(row)
    return RingMatrix(entries)


def _const(flavor: str, value: Fraction, galg: GrassmannAlgebra):
    if flavor == "classical":
        return MultiPoly.const(value)
    if flavor == "quantum":
        return WeylElement.const(value)
    if flavor == "fermionic":
        return GrassmannElement.const(value)
    raise ValueError(f"unknown flavor {flavor!r}")


def _sample_map(inst: DualityInstance, seed: int) -> dict:
    import random

    r = random.Random(seed)
    values = {}
    for a in range(1, inst.M + 1):
        for i in range(1, inst.N + 1):
            values[f"x{a}_{i}"] = Q(r.randint(-9, 9), r.randint(1, 5))
            values[f"p{a}_{i}"] = Q(r.randint(-9, 9), r.randint(1, 5))
    return values


def _spectral_dets(inst: DualityInstance, flavor: str, sample_seed=None):
    """Cleared determinants of both sides.

    Returns (det_z_side, det_lam_side, D_z, D_lam) where
    det_z_side = det(lam D(z) 1 - D(z) L^D(z)) / D(z)^(M-1) and
    det_lam_side = det(z D(lam) 1 - D(lam) L^D~(lam)) / D(lam)^(N-1) on the
    classical side, exact polynomials divided inside the determinant by
    _cleared_det; the fermionic determinants come back undivided.
    """
    assert flavor in ("classical", "fermionic")
    subs = _sample_map(inst, sample_seed) if sample_seed is not None else None
    return (
        _cleared_det(inst.lax_glM(flavor, "z"), inst.div_z, inst.var, "z", "lam", flavor, subs),
        _cleared_det(inst.lax_glN(flavor, "lam"), inst.div_lam, inst.var, "lam", "z", flavor,
                     subs),
        inst.div_z.clearing_poly(inst.var["z"]),
        inst.div_lam.clearing_poly(inst.var["lam"]),
    )


def _cleared_det(lax: RingMatrix, divisor: Divisor, var: VariableTable, spec_var: str,
                 eigen_var: str, flavor: str, subs=None):
    """det(eigen_var D 1 - D L) for one side, D = prod (spec_var - location)^tau:
    every entry of L is multiplied by D, as one rational function, and
    assembled as one element of the coefficient ring times powers of
    spec_var, both variables taken from the instance's table `var`.

    The classical determinant comes back divided by D^(n-1), n = size of L:
    by L = Lam + X (z - J)^-1 P, Cauchy-Binet and Jacobi's complementary-minor
    identity, every minor of eigen_var - L has a denominator dividing D, so
    every k x k minor of the cleared matrix is divisible by D^(k-1), and
    _perm_expansion divides each new minor by D once (_divide_out, one
    copy, one long division).  Each power of spec_var is built once per
    side.  The minors stay on the instance's table, so no product of the
    recursion re-aligns one; only the result drops the variables it does
    not use.  The fermionic determinant is expanded undivided: with odd Pi
    and Psi the lemma fails.  At M = N = 3 with z points 1 and 2 of Takiff
    degrees 2 and 1, (z - 1)^2 does not divide a 2 x 2 minor of the cleared
    gl_M-side matrix."""
    clearing = _clearing_ratfunc(divisor, spec_var)
    spec = var[spec_var]
    diag, zero = var[eigen_var] * divisor.clearing_poly(spec), MultiPoly.zero()
    if flavor == "fermionic":
        diag, zero = GrassmannElement({0: diag}), GrassmannElement.zero()
    powers = [spec ** k for k in range(divisor.total_degree() + 1)]
    entries = []
    for r, lax_row in enumerate(lax.entries):
        row = []
        for c, f in enumerate(lax_row):
            p = zero
            for k, coeff in (f * clearing).to_poly().items():
                p = p + (coeff * powers[k] if k else coeff)
            if subs and p:
                p = p.substitute(subs)
            row.append((diag if r == c else zero) - p)
        entries.append(row)
    if flavor == "fermionic":
        return _perm_expansion(RingMatrix(entries))
    divided = _perm_expansion(RingMatrix(entries), lambda p: _divide_out(p, divisor, spec_var, 1))
    return divided.compact()


def _clearing_ratfunc(divisor: Divisor, var: str) -> RatFunc:
    """prod (var - location)^tau over the finite points, as a rational
    function of var with rational coefficients."""
    return RatFunc(var, expand_factors(dict(divisor.points)))


def _divide_out(poly: MultiPoly, divisor: Divisor, spec_var: str, copies: int) -> MultiPoly:
    """poly / D^copies, D = prod (spec_var - location)^tau, by one exact long
    division by the expanded D^copies; raises InexactDivision naming the
    first point, in the divisor's order, whose factor leaves a remainder."""
    return poly.divide_linear(spec_var, [(loc, tau * copies) for loc, tau in divisor.points])


def verify_classical_bosonic_duality(inst: DualityInstance, sample_seed=None) -> dict:
    """Both sides of the classical bosonic duality as exact polynomials in
    P_b[z, lam], each cleared determinant divided inside its expansion; a
    minor that its division refuses is a fail naming the side."""
    try:
        lhs, rhs, _, _ = _spectral_dets(inst, "classical", sample_seed)
    except RefusedMinor as err:
        return refused_minor_report(err, {"z": "z", "lam": "lam"})
    return polynomial_equality_report(lhs, rhs)


def refused_minor_report(err: RefusedMinor, sides: dict[str, str]) -> dict:
    """The fail report of a cleared determinant whose per-step division was
    refused: the side (named by sides[spectral variable]), the size of the
    refused minor and the point at which it was refused."""
    return {"status": "fail",
            "witness": {"side": sides[err.var], "minor": err.size, "point": str(err.root)}}


def polynomial_equality_report(lhs: MultiPoly, rhs: MultiPoly) -> dict:
    """Report of a duality between two exact polynomials: the common
    polynomial, or the first monomial on which the sides differ."""
    equal = lhs == rhs
    report = {
        "status": "pass" if equal else "fail",
        "sizes": {"lhs_terms": lhs.num_terms(), "rhs_terms": rhs.num_terms()},
    }
    if equal:
        report["common_polynomial_terms"] = lhs.num_terms()
        report["common_polynomial"] = repr(lhs)
    else:
        diff = lhs - rhs
        mono = min(diff.terms)
        report["witness"] = {
            "monomial": {v: e for v, e in zip(diff.vars, diff.unpack(mono)) if e},
            "difference": str(diff.terms[mono]),
        }
    return report


def verify_classical_fermionic_duality(inst: DualityInstance) -> dict:
    """Product of the two fermionic determinants against the scalar
    polynomial prod (z-z_i)^tau prod (lam-lam_a)^tau~."""
    det_l, det_r, dz, dlam = _spectral_dets(inst, "fermionic")
    product = det_l * det_r
    expected = GrassmannElement({0: dz ** (inst.M + 1) * dlam ** (inst.N + 1)})
    equal = product == expected
    report = {
        "status": "pass" if equal else "fail",
        "sizes": {
            "lhs_terms": det_l.num_terms(),
            "rhs_terms": det_r.num_terms(),
        },
    }
    if not equal:
        diff = product - expected
        mask = next(iter(sorted(diff.terms)))
        report["witness"] = {"grassmann_mask": mask, "coefficient": repr(diff.terms[mask])}
    return report


def quantum_operator_sides(inst: DualityInstance):
    """The two sides of the quantum duality as one-sidedly ordered operators
    (left: in U(z)[Dz]; right: in U(Dz)[z]) after multiplying the stated
    prefactors."""
    # left: prod (z - z_i)^tau_i cdet(Dz 1 - tL^D(z))
    left = _cdet_side(inst.lax_glM("quantum", "z").entries, inst.div_z, "z")
    # right: prod (Dz - lam_a)^tau~_a cdet(z 1 - L^D~(Dz))
    right = _cdet_side(inst.lax_glN("quantum", "dz").entries, inst.div_lam, "dz")
    return left, right


def _cdet_side(entries: list[list[RatFunc]], divisor: Divisor, var: str) -> OrderedDiffOp:
    """prod (var - location)^tau cdet(d_var 1 - entries), ordered with the
    functions of var to the left."""
    one = RatFunc.const(var, WeylElement.const(1))
    rows = [
        [OrderedDiffOp(var, {0: -f, 1: one} if r == c else {0: -f}) for c, f in enumerate(row)]
        for r, row in enumerate(entries)
    ]
    op = cdet(RingMatrix(rows))
    # a rational prefactor, so that each product cancels against it alone
    return op.scale_left(_clearing_ratfunc(divisor, var))


def quantum_block_matrix(inst: DualityInstance) -> RingMatrix:
    """The (M+N) x (M+N) block matrix [[Lam, X], [tD, Z]] behind the duality,
    over the Weyl algebra extended by the spectral pair."""
    M, N = inst.M, inst.N
    lam_block = jordan_sum(inst.div_lam, WeylElement.dz()).transpose()
    x_block = [[WeylElement.x(a, i) for i in range(1, N + 1)] for a in range(1, M + 1)]
    d_block = [[WeylElement.d(a, i) for a in range(1, M + 1)] for i in range(1, N + 1)]
    z_block = jordan_sum(inst.div_z, WeylElement.z())
    return block2x2(lam_block, RingMatrix(x_block), RingMatrix(d_block), z_block)


def verify_quantum_duality(inst: DualityInstance) -> dict:
    """Normal-ordered equality of the two quantum sides plus the Manin check
    on the assembled block matrix."""
    left, right = quantum_operator_sides(inst)
    try:
        lhs = left.to_polynomial()
        rhs = right.to_polynomial()
    except ResidualPole as err:
        return {"status": "fail", "witness": {"residual": str(err)}}
    equal = lhs == rhs
    manin_ok, manin_witness = manin_check(quantum_block_matrix(inst))
    status = "pass" if (equal and manin_ok) else "fail"
    report = {
        "status": status,
        "sizes": {"lhs_terms": lhs.num_terms(), "rhs_terms": rhs.num_terms()},
        "manin": manin_ok,
    }
    if not equal:
        diff = lhs - rhs
        key = next(iter(sorted(diff.terms)))
        report["witness"] = {"weyl_monomial": str(key), "difference": str(diff.terms[key])}
    elif not manin_ok:
        report["witness"] = {"manin_quadruple": manin_witness}
    return report


def _classical_spectral_poly(inst: DualityInstance) -> MultiPoly:
    """The common classical polynomial, built from the z side alone."""
    return _cleared_det(inst.lax_glM("classical", "z"), inst.div_z, inst.var, "z", "lam",
                        "classical")


# -- Gaudin algebra extraction and commutativity ------------------------------


def extract_gaudin_generators(inst: DualityInstance, flavor: str) -> list:
    """Spanning set of the realized Gaudin algebra.

    classical: all coefficients of the bivariate spectral polynomial;
    quantum: all partial-fraction (here: polynomial) coefficients of the
    S_k(z) in the z-left normal form.
    """
    if flavor == "classical":
        return spectral_coefficients(_classical_spectral_poly(inst))
    if flavor == "quantum":
        left = _cdet_side(inst.lax_glM("quantum", "z").entries, inst.div_z, "z")
        return _partial_fraction_generators(left, inst.div_z)
    raise ValueError(f"unknown flavor {flavor!r}")


def spectral_coefficients(poly: MultiPoly) -> list[MultiPoly]:
    """The coefficient of every z^i lam^j in poly, in increasing (i, j)."""
    return list(poly.split_by(("z", "lam")).values())


def _partial_fraction_generators(op: OrderedDiffOp, divisor: Divisor) -> list[WeylElement]:
    """Every polynomial-part and partial-fraction coefficient of every
    power of the derivative in op."""
    poles = [(loc, 99) for loc, _ in divisor.points]
    out = []
    for k in sorted(op.terms):
        poly_part, pieces = partial_fractions(op.terms[k], poles)
        coeffs = [poly_part[deg] for deg in sorted(poly_part)]
        coeffs += [pieces[key] for key in sorted(pieces)]
        out += [c if isinstance(c, WeylElement) else WeylElement.const(c) for c in coeffs]
    return out


def check_commutativity(generators: list, flavor: str) -> dict:
    """All pairwise (Poisson) commutators, self-pairs counted, zero by
    antisymmetry, not bracketed: every pair i < j is bracketed, in order, and
    pairs_checked counts the pairs i <= j up to the first failing one."""
    if flavor == "classical":
        bracket = poisson_bracket
    elif flavor == "quantum":
        bracket = weyl_commutator
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    pairs = 0
    for i, g in enumerate(generators):
        pairs += 1
        for j in range(i + 1, len(generators)):
            pairs += 1
            bad = bracket(g, generators[j])
            if bad:
                return {
                    "status": "fail",
                    "pairs_checked": pairs,
                    "witness": {"pair": (i, j), "bracket": repr(bad)},
                }
    return {"status": "pass", "pairs_checked": pairs}


# -- homomorphism checks -------------------------------------------------------


def _bracket_for(flavor: str, inst: DualityInstance):
    """The bracket of a flavor's images and its support function: a
    biderivation that pairs only conjugate generators, so it is zero on two
    elements whose supports are disjoint."""
    if flavor == "classical":
        return poisson_bracket, poisson_support
    if flavor == "quantum":
        return weyl_commutator, weyl_support
    if flavor == "fermionic":
        return inst._galg.graded_bracket, inst._galg.support
    raise ValueError(flavor)


def check_generator_pairs(gens: list, image, bracket, support, structure, zero):
    """Exhaustive check that bracket(image(g1), image(g2)) equals the image of
    structure(g1, g2), a list of (coefficient, generator) terms, over every
    ordered pair, row by row.  Returns (pairs checked, None) or, at the first
    failing pair, (pairs checked, (g1, g2, got, want)).

    image(g) is taken once per generator, into a list indexed by position,
    and again only for a generator inside an image sum.  The support lemma:
    bracket is a biderivation that pairs only conjugate generators, so it is
    zero on two images whose supports (support(img), a set of canonical
    pairs) are disjoint.  Such a pair is not bracketed; it passes exactly
    when the image sum of its structure is zero.  structure is still asked
    for every pair, and the supports are those of the images as given, so a
    fault in either is seen.

    bracket must be antisymmetric on the images.  The Poisson bracket and the
    Weyl commutator always are; the graded bracket is on even elements, so
    verify_homomorphism refuses an odd fermionic image.  Each unordered pair
    is bracketed at most once: the bracket of (g_i, g_j), j > i, is kept
    until (g_j, g_i) comes up, where it is compared with the sum of
    image(g3) * (-coeff) instead of being negated.  A pair whose structure is
    empty passes exactly when its bracket is zero; no zero sum is built.
    Each image sum is built once per check.  got and want are built, as
    bracket (zero at disjoint supports) and image sum, only for a failing
    pair."""
    images = [image(g) for g in gens]
    supports = [support(img) for img in images]
    sums = {}

    def want(terms, negate: bool):
        key = (tuple(terms), negate)
        total = sums.get(key)
        if total is None:
            total = sums[key] = _image_sum(terms, image, zero, negate)
        return total

    checked = 0
    later = {}
    for i, g1 in enumerate(gens):
        img1, sup1 = images[i], supports[i]
        for j, g2 in enumerate(gens):
            checked += 1
            terms = structure(g1, g2)
            if sup1.isdisjoint(supports[j]):
                if terms and want(terms, False):
                    return checked, (g1, g2, zero, want(terms, False))
                continue
            mirrored = j < i
            if mirrored:
                kept = later.pop((j, i))
            else:
                kept = bracket(img1, images[j])
                if j > i:
                    later[i, j] = kept
            if not terms:
                if not kept:
                    continue
            elif kept == want(terms, mirrored):
                continue
            got = -kept if mirrored else kept
            return checked, (g1, g2, got, want(terms, False))
    return checked, None


def _image_sum(terms, image, zero, negate: bool):
    """zero + the sum of image(g3) * coeff, or * -coeff when negate, over the
    (coeff, g3) terms."""
    total = zero
    for coeff, g3 in terms:
        total = total + image(g3) * (-coeff if negate else coeff)
    return total


def verify_homomorphism(inst: DualityInstance, flavor: str, mutation: str | None = None) -> dict:
    """Exhaustive generator-pair check that bracket-of-images equals
    image-of-bracket on both realization maps."""
    bracket, support = _bracket_for(flavor, inst)
    zero = _const(flavor, Q(0), inst._galg)
    checked = 0
    for side, divisor, size, realize in (("glM", inst.div_z, inst.M, inst.realize_glM),
                                         ("glN", inst.div_lam, inst.N, inst.realize_glN)):
        gens = takiff_generators(divisor, size)
        images = {g: realize(g, flavor, mutation) for g in gens}
        if flavor == "fermionic":
            for g, img in images.items():
                if img.parity():
                    raise OddImage(f"{side} image of {g.label()} is odd, so the graded "
                                   "bracket is not antisymmetric on it")
        count, failure = check_generator_pairs(
            gens, images.__getitem__, bracket, support, partial(takiff_bracket, divisor=divisor),
            zero,
        )
        checked += count
        if failure:
            g1, g2, got, want = failure
            return {
                "status": "fail",
                "pairs_checked": checked,
                "witness": {
                    "side": side,
                    "pair": (g1.label(), g2.label()),
                    "got": repr(got),
                    "want": repr(want),
                },
            }
    return {"status": "pass", "pairs_checked": checked}
