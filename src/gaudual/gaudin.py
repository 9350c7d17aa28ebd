"""Divisors, Takiff generators, realizations, Lax matrices and the three
non-cyclotomic duality verifiers, with the two engines that the cyclotomic
model shares: the spectral pipeline (_spectral_dets, which clears, expands
and divides both sides of a classical duality given as pole-term Lax
matrices) and the generator-pair checker (check_generator_pairs, which also
runs every commutativity check).

Conventions fixed here (and unit-tested, since they are easy to transcribe
wrongly):

* nu offsets: nu_i = tau_1 + ... + tau_(i-1), so the canonical index u of
  the realization formulas runs inside the i-th block of 1..N.
* Infinity images are built from the dual divisor's Jordan data.  On the
  gl_M side every flavor reads off the (b, a) entry of -(+)J_k(-lambda_c);
  on the gl_N side the bosonic maps read the (j, i) entry of
  -(+)J_k(-z_k) and the fermionic map, which swaps i and j in its Takiff
  sum too, reads (i, j).  These orientations are forced by the determinant
  factorizations and are unit-tested.
* The gl_M-side Lax matrix is stored transposed, entry (a, b) carrying the
  coefficient attached to E_ab; determinants do not care and the quantum
  cdet wants exactly this layout.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate
from math import lcm

from .errors import DivisorMismatch, IndexOutOfRange, OddImage, RefusedMinor, ResidualPole
from .grassmann import GrassmannAlgebra, GrassmannElement
from .linalg import solve_linear  # noqa: F401 (unused; bench/test_bench.py traces this binding)
from .matrices import (_perm_expansion, block2x2, block_diag, cdet, jordan_block, lax_terms,
                       manin_check, transpose)
from .multipoly import MultiPoly, VariableTable, _monic_product
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
        return tuple(accumulate((t for _, t in self.points), initial=0))[:-1]

    def clearing_poly(self, x: MultiPoly) -> MultiPoly:
        """prod (x - location)^tau over the finite points, for a generator x
        of an instance's variable table."""
        (e,) = x.terms
        degree, lower = _monic_product(self.points)
        return MultiPoly(x.vars, {**{j * e: a for j, a in lower}, degree * e: 1})


class TakiffGen(namedtuple("TakiffGen", "point depth row col")):
    """Basis element E^(point)_(row col, depth): int depth, row and col, and
    point the int index of a divisor point or None for infinity.

    A tuple, so it hashes, orders and compares equal like the plain tuple
    (point, depth, row, col).
    """

    __slots__ = ()

    def __str__(self) -> str:
        where = "inf" if self.point is None else f"pt{self.point}"
        return f"E[{where}]_{self.row}{self.col},{self.depth}"


def takiff_generators(divisor: Divisor, size: int) -> list[TakiffGen]:
    """All basis generators, ordered by point, then depth, then (row, col)."""
    indices = range(1, size + 1)
    return ([TakiffGen(i, r, a, b) for i, (_, tau) in enumerate(divisor.points)
             for r in range(tau) for a in indices for b in indices]
            + [TakiffGen(INF, 1, a, b) for a in indices for b in indices])


def takiff_matrix(divisor: Divisor):
    """The matrix_rows descriptor of divisor's Takiff generators: E^(i)_(ab, r)
    is E_ab (0-based) at depth r of point i, below its degree; infinity's is central."""
    return lambda g: (g.point, g.depth, 0 if g.point is INF else divisor.points[g.point][1],
                      ((g.row - 1, g.col - 1, 1),))


# One side of a duality for its homomorphism check and matrices.lax_terms: gens,
# matrix_rows descriptor, image(g), poles {group: location} (depth r: the pole of
# order r + 1; other groups are constant), kappa(group), twist and the Lax size.
Side = namedtuple("Side", "name gens matrix image poles kappa twist size")


def takiff_block_sum(nu: int, tau: int, depth: int, term, zero, mutation: str | None = None):
    """The sum of term(u, u + depth) over u = nu+1 .. nu+tau-depth, zero when
    empty, the Takiff block of a point of degree tau at offset nu; mutation
    "range-up" runs u one step further, "flip-sign" negates the sum."""
    terms = [term(u, u + depth)
             for u in range(nu + 1, nu + tau - depth + 1 + (mutation == "range-up"))]
    total = sum(terms[1:], terms[0]) if terms else zero
    return -total if mutation == "flip-sign" else total


def jordan_sum(divisor: Divisor, x) -> list[list]:
    """(+)_c J_(tau_c)(x - location_c): x - location_c along the diagonal and
    -1 just below it."""
    return block_diag([jordan_block(tau, x - loc) for loc, tau in divisor.points])


# (zero, bracket, support) of the classical (P_b) and quantum (U_b) rings,
# which DualityInstance.ring and check_commutativity read; the fermionic ring
# is each instance's own Grassmann algebra.  Each entry looks its functions up
# when it is called, so a patched or traced binding is seen.
BOSONIC_RINGS = {"classical": lambda: (MultiPoly.zero(), poisson_bracket, poisson_support),
                 "quantum": lambda: (WeylElement.zero(), weyl_commutator, weyl_support)}


def _bosonic_ring(flavor: str) -> tuple:
    if flavor not in BOSONIC_RINGS:
        raise ValueError(f"unknown flavor {flavor!r}")
    return BOSONIC_RINGS[flavor]()


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
        self._jordan_lam = jordan_sum(div_lam, Q(0))
        self._jordan_z = jordan_sum(div_z, Q(0))
        self._galg = GrassmannAlgebra(M, N)
        self._realizers: dict = {}
        # the classical images are built over one table of all the variables
        self.var = VariableTable([f"{q}{a}_{i}" for q in "xp" for a in range(1, M + 1)
                                  for i in range(1, N + 1)] + ["z", "lam"])

    # -- realization homomorphisms ---------------------------------------

    def ring(self, flavor: str):
        """(x, p, zero, bracket, support) of a flavor's ring: x(a, i) and
        p(a, i) give a canonical pair (x and d in U_b, pi and psi in P_f), and
        bracket contracts a letter of support only with its conjugate, so it
        is zero on two elements whose supports do not meet conjugately."""
        if flavor == "fermionic":
            galg, zero = self._galg, GrassmannElement.zero()
            return galg.pi, galg.psi, zero, galg.graded_bracket, galg.support
        x, p = ((WeylElement.x, WeylElement.d) if flavor == "quantum"
                else (lambda a, i: self.var[f"x{a}_{i}"], lambda a, i: self.var[f"p{a}_{i}"]))
        return (x, p, *_bosonic_ring(flavor))

    def _realizer(self, flavor: str) -> tuple:
        """(x, p, zero) of ring(flavor), looked up on the first call for a
        flavor and kept, so a side's generators do not each build the ring."""
        realizer = self._realizers.get(flavor)
        if realizer is None:
            realizer = self._realizers[flavor] = self.ring(flavor)[:3]
        return realizer

    def realize_glM(self, g: TakiffGen, flavor: str, mutation: str | None = None):
        """Image of a gl_M^D basis element: the Takiff sum of x^a_(u+depth) p^b_u."""
        if not (1 <= g.row <= self.M and 1 <= g.col <= self.M):
            raise IndexOutOfRange(f"generator indices {g.row},{g.col} exceed M={self.M}")
        a, b = g.row, g.col
        x, p, zero = self._realizer(flavor)
        if g.point is INF:
            # (b, a) entry for every flavor: the determinant factorization pins
            # the relative orientation of the Jordan data against the
            # finite-point images, and it is the same on the bosonic and
            # fermionic sides (exact counterexample otherwise at tau~ = 2)
            return zero - self._jordan_lam[b - 1][a - 1]
        return takiff_block_sum(self.div_z.block_offsets()[g.point], self.div_z.points[g.point][1],
                                g.depth, lambda u, v: x(a, v) * p(b, u), zero, mutation)

    def realize_glN(self, g: TakiffGen, flavor: str, mutation: str | None = None):
        """Image of a gl_N^D~ basis element: the Takiff sum of p^u_j x^(u+depth)_i,
        (j, i) at infinity; the fermionic map swaps i and j in both."""
        if not (1 <= g.row <= self.N and 1 <= g.col <= self.N):
            raise IndexOutOfRange(f"generator indices {g.row},{g.col} exceed N={self.N}")
        i, j = (g.col, g.row) if flavor == "fermionic" else (g.row, g.col)
        x, p, zero = self._realizer(flavor)
        if g.point is INF:
            return zero - self._jordan_z[j - 1][i - 1]
        return takiff_block_sum(self.div_lam.block_offsets()[g.point],
                                self.div_lam.points[g.point][1], g.depth,
                                lambda u, v: p(u, j) * x(v, i), zero, mutation)

    # -- sides and their Lax matrices ---------------------------------------

    def side(self, name: str, flavor: str, mutation: str | None = None) -> Side:
        """The glM side (poles of div_z) or the glN side (poles of div_lam)
        under a flavor's realization map; kappa is 1 on every group."""
        divisor, size, realize = ((self.div_z, self.M, self.realize_glM) if name == "glM"
                                  else (self.div_lam, self.N, self.realize_glN))
        return Side(name, takiff_generators(divisor, size), takiff_matrix(divisor),
                    partial(realize, flavor=flavor, mutation=mutation),
                    dict(enumerate(p for p, _ in divisor.points)), lambda group: 1, False, size)

    def lax_glM(self, flavor: str) -> list[list[list[tuple]]]:
        """Realized transposed Lax matrix as pole terms: entry (a, b) lists the
        nonzero (image, pole, order) terms of the coefficient attached to
        E_ab, order 0 the constant at infinity."""
        return transpose(lax_terms(self.side("glM", flavor)))

    def lax_glN(self, flavor: str) -> list[list[list[tuple]]]:
        """Realized Lax matrix as pole terms: entry (i, j) lists those of the
        coefficient attached to E_ji."""
        return lax_terms(self.side("glN", flavor))


def ratfunc_lax(lax: list[list[list[tuple]]], var: str) -> list[list[RatFunc]]:
    """A pole-term Lax matrix with every entry summed into one rational
    function of var, for the quantum cdet.  The fermionic side sums its
    terms here too only because it is the one RatFunc user on the
    benchmark's small-mixed workload, whose self-test (bench/test_bench.py)
    requires nonzero ratfunc metrics there; once it stops, the fermionic
    side can clear its terms by _cleared like the classical sides."""
    return [[sum((RatFunc(var, {0: img}, {pole: order}) for img, pole, order in terms),
                 RatFunc.const(var, 0)) for terms in row] for row in lax]


def _sample_map(inst: DualityInstance, seed: int) -> dict:
    import random

    r = random.Random(seed)
    values = {}
    for a in range(1, inst.M + 1):
        for i in range(1, inst.N + 1):
            values[f"x{a}_{i}"] = Q(r.randint(-9, 9), r.randint(1, 5))
            values[f"p{a}_{i}"] = Q(r.randint(-9, 9), r.randint(1, 5))
    return values


def _spectral_dets(inst, sample_seed=None):
    """Cleared classical determinants of both sides, the z side first:
    det(lam D(z) 1 - D(z) L^D(z)) and det(z D(lam) 1 - D(lam) L^D~(lam)),
    each divided by D^(n-1) inside the determinant (_spectral_det), of a
    DualityInstance or a cyclotomic.CycloInstance (see classical_side)."""
    subs = _sample_map(inst, sample_seed) if sample_seed is not None else None
    return _side_det(inst, "z", subs), _side_det(inst, "lam", subs)


def classical_side(inst, spec_var: str) -> tuple:
    """(pole-term Lax matrix, divisor, eigen_var) of the classical side of
    inst in spec_var: lax_glM over div_z in z, or lax_glN over div_lam."""
    if spec_var == "z":
        return inst.lax_glM("classical"), inst.div_z, "lam"
    return inst.lax_glN("classical"), inst.div_lam, "z"


def _side_det(inst, spec_var: str, subs=None):
    """The cleared classical determinant of classical_side(inst, spec_var).
    subs, when given, substitutes rationals for x and p in every pole-term
    image and scales the images by the lcm c of their denominators: at
    integer divisor points every entry, minor and per-step quotient of the
    scaled n x n determinant is then an integer (the fraction-free idea of
    Bareiss), and c^n is divided out of its result once.  Each k x k minor
    is c^k times the unscaled one, so a minor is refused exactly where the
    unscaled one would be."""
    lax, divisor, eigen_var = classical_side(inst, spec_var)
    scale = 1
    if subs:
        lax = [[[(img.substitute(subs), pole, order) for img, pole, order in terms]
                for terms in row] for row in lax]
        scale = lcm(*(c.denominator for row in lax for terms in row
                      for img, _, _ in terms for c in img.terms.values()))
        lax = [[[(img * scale, pole, order) for img, pole, order in terms]
                for terms in row] for row in lax]
    scaled = _spectral_det(_cleared(lax, divisor, inst.var, spec_var), divisor, inst.var,
                           spec_var, eigen_var, scale)
    return scaled if scale == 1 else scaled * Fraction(1, scale ** len(lax))


def _cleared(lax: list[list[list[tuple]]], divisor: Divisor, var: VariableTable,
             spec_var: str) -> list[list[MultiPoly]]:
    """D L for a pole-term matrix L, rows of (image, pole, order) lists whose
    poles are those of divisor, D = prod (spec_var - location)^tau over the
    table var: D * sum image / (spec_var - pole)^order for every entry, exact
    polynomials, no rational function is formed.  Each quotient
    D / (spec_var - pole)^order is divided once per call, and each entry is
    one sum of products (MultiPoly.sum_of_products)."""
    clearing = divisor.clearing_poly(var[spec_var])
    quotient = cache(lambda pole, order: clearing.divide_linear(spec_var, [(pole, order)]))
    return [[MultiPoly.sum_of_products([(img, quotient(pole, order)) for img, pole, order in terms])
             for terms in row] for row in lax]


def _spectral_det(cleared: list[list[MultiPoly]], divisor: Divisor, var: VariableTable,
                  spec_var: str, eigen_var: str, scale=1) -> MultiPoly:
    """det(scale eigen_var D 1 - D L) / D^(n-1) for the n x n cleared Lax
    matrix D L in spec_var, D = prod (spec_var - location)^tau, both
    variables taken from the table var; scale is a nonzero constant that
    the cleared matrix already carries (see _side_det).  Each Lax matrix
    here is Lam + X (spec_var - J)^-1 P with det(spec_var - J) = D, so by
    Cauchy-Binet and Jacobi's complementary-minor identity every minor of
    eigen_var - L has a denominator dividing D, and every k x k minor of the
    shifted matrix is divisible by D^(k-1): _perm_expansion divides each new
    minor by D once (_divide_out, one long division).  The minors stay on
    the table, so no product of the recursion re-aligns one; only the result
    drops the variables it does not use."""
    shift = var[eigen_var] * divisor.clearing_poly(var[spec_var]) * scale
    shifted = [[(shift if r == c else MultiPoly.zero()) - p for c, p in enumerate(row)]
               for r, row in enumerate(cleared)]
    return _perm_expansion(shifted, lambda p: _divide_out(p, divisor, spec_var)).compact()


def _fermionic_det(lax, divisor: Divisor, var: VariableTable, spec_var: str, eigen_var: str):
    """det(eigen_var D 1 - D L) for a fermionic side, expanded undivided: with
    odd Pi and Psi the lemma of _spectral_det fails.  At M = N = 3 with z
    points 1 and 2 of Takiff degrees 2 and 1, (z - 1)^2 does not divide a
    2 x 2 minor of the cleared gl_M-side matrix.  Every entry of L is summed
    into one rational function (ratfunc_lax), multiplied by D and read back
    as Grassmann coefficients of powers of spec_var."""
    clearing = _clearing_ratfunc(divisor, spec_var)
    spec = var[spec_var]
    diag = GrassmannElement({0: var[eigen_var] * divisor.clearing_poly(spec)})
    zero = GrassmannElement.zero()
    powers = [spec ** k for k in range(divisor.total_degree() + 1)]
    cleared = [[sum(((coeff * powers[k] if k else coeff)
                     for k, coeff in (f * clearing).to_poly().items()), zero) for f in row]
               for row in ratfunc_lax(lax, spec_var)]
    return _perm_expansion([[(diag if r == c else zero) - p for c, p in enumerate(row)]
                            for r, row in enumerate(cleared)])


def _clearing_ratfunc(divisor: Divisor, var: str) -> RatFunc:
    """prod (var - location)^tau over the finite points, as a rational
    function of var with rational coefficients."""
    return RatFunc(var, expand_factors(dict(divisor.points)))


def _divide_out(poly: MultiPoly, divisor: Divisor, spec_var: str) -> MultiPoly:
    """poly / D, D = prod (spec_var - location)^tau, by one exact long
    division by the expanded D; raises InexactDivision naming the first
    point, in the divisor's order, whose factor leaves a remainder."""
    return poly.divide_linear(spec_var, divisor.points)


def verify_classical_bosonic_duality(inst: DualityInstance, sample_seed=None) -> dict:
    """Both sides of the classical bosonic duality as exact polynomials in
    P_b[z, lam], each cleared determinant divided inside its expansion."""
    return spectral_duality_report(inst, {"z": "z", "lam": "lam"}, sample_seed)


def spectral_duality_report(inst, sides: dict[str, str], sample_seed=None) -> dict:
    """Report of a classical duality between the two spectral determinants
    of inst (see _spectral_dets).  A minor that its per-step division
    refuses is a fail naming the side (sides[spectral variable]), the size
    of the refused minor and the point at which it was refused."""
    try:
        lhs, rhs = _spectral_dets(inst, sample_seed)
    except RefusedMinor as err:
        return {"status": "fail",
                "witness": {"side": sides[err.var], "minor": err.size, "point": str(err.root)}}
    return polynomial_equality_report(lhs, rhs)


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
    det_l = _fermionic_det(inst.lax_glM("fermionic"), inst.div_z, inst.var, "z", "lam")
    det_r = _fermionic_det(inst.lax_glN("fermionic"), inst.div_lam, inst.var, "lam", "z")
    product = det_l * det_r
    dz, dlam = inst.div_z.clearing_poly(inst.var["z"]), inst.div_lam.clearing_poly(inst.var["lam"])
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
    left = _quantum_z_side(inst)
    # right: prod (Dz - lam_a)^tau~_a cdet(z 1 - L^D~(Dz))
    right = _cdet_side(ratfunc_lax(inst.lax_glN("quantum"), "dz"), inst.div_lam, "dz")
    return left, right


def _quantum_z_side(inst: DualityInstance) -> OrderedDiffOp:
    """The left quantum side, prod (z - z_i)^tau_i cdet(Dz 1 - tL^D(z))."""
    return _cdet_side(ratfunc_lax(inst.lax_glM("quantum"), "z"), inst.div_z, "z")


def _cdet_side(entries: list[list[RatFunc]], divisor: Divisor, var: str) -> OrderedDiffOp:
    """prod (var - location)^tau cdet(d_var 1 - entries), ordered with the
    functions of var to the left."""
    one = RatFunc.const(var, WeylElement.const(1))
    rows = [
        [OrderedDiffOp(var, {0: -f, 1: one} if r == c else {0: -f}) for c, f in enumerate(row)]
        for r, row in enumerate(entries)
    ]
    op = cdet(rows)
    # a rational prefactor, so that each product cancels against it alone
    return op.scale_left(_clearing_ratfunc(divisor, var))


def quantum_block_matrix(inst: DualityInstance) -> list[list[WeylElement]]:
    """The (M+N) x (M+N) block matrix [[Lam, X], [tD, Z]] behind the duality,
    over the Weyl algebra extended by the spectral pair."""
    M, N = inst.M, inst.N
    lam_block = transpose(jordan_sum(inst.div_lam, WeylElement.dz()))
    x_block = [[WeylElement.x(a, i) for i in range(1, N + 1)] for a in range(1, M + 1)]
    d_block = [[WeylElement.d(a, i) for a in range(1, M + 1)] for i in range(1, N + 1)]
    z_block = jordan_sum(inst.div_z, WeylElement.z())
    return block2x2(lam_block, x_block, d_block, z_block)


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


def _classical_spectral_poly(inst) -> MultiPoly:
    """The common classical polynomial of a DualityInstance or a
    cyclotomic.CycloInstance, built from the z side alone."""
    return _side_det(inst, "z")


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
        return _partial_fraction_generators(_quantum_z_side(inst), inst.div_z)
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
    """All pairwise (Poisson) commutators, by check_generator_pairs over the
    generator indices with every structure empty: a pair whose supports do
    not meet conjugately (no letter of one has its conjugate in the other;
    any pair with a constant among them) or a self-pair is not bracketed,
    every other pair i < j is bracketed once, in row-major order, and
    pairs_checked counts the pairs i <= j up to the first failing one."""
    zero, bracket, support = _bosonic_ring(flavor)
    n = len(generators)
    _, failure = check_generator_pairs(range(n), generators.__getitem__, bracket, support,
                                       lambda i: {}, zero)
    if not failure:
        return {"status": "pass", "pairs_checked": n * (n + 1) // 2}
    i, j, got, _ = failure
    return {"status": "fail", "pairs_checked": i * n - i * (i - 1) // 2 + j - i + 1,
            "witness": {"pair": (i, j), "bracket": repr(got)}}


# -- homomorphism checks -------------------------------------------------------


def matrix_rows(gens: list, matrix):
    """Rows for check_generator_pairs of an algebra of sparse matrices:
    matrix(g) is (group, depth, limit, entries).  In one group, two
    generators bracket to the commutator of their (row, column, value)
    entries at the summed depth, if below limit (so a limit at most the
    depth, as at infinity, is central), read back by pivots: a generator's
    first entry, shared by no other of its group and depth, and its summed
    value there (2 for Ebar_(I,-I), odd-depth Pi E_aa).  A zero sum lists no
    term.  The products come from indexes of the entries by (group, depth,
    row) and (group, depth, column), never a scan of pairs."""
    mats = [matrix(g) for g in gens]
    by_row, by_col, pivots = {}, {}, {}
    for j, (group, depth, limit, entries) in enumerate(mats):
        if limit <= depth:
            continue  # central: no bracket reaches its depth, so it is no target
        pivot = entries[0][:2]
        pivots.setdefault((group, depth), {})[pivot] = gens[j], sum(
            e[2] for e in entries if e[:2] == pivot)
        for r, c, v in entries:
            by_row.setdefault((group, depth, r), []).append((j, c, v))
            by_col.setdefault((group, depth, c), []).append((j, r, v))

    def row(i: int) -> dict:
        out: dict = {}
        group, depth, limit, left = mats[i]
        for s in range(limit - depth):
            # (partner, row, column) -> entry of [left, partner]
            comm: dict = {}
            for r, k, x in left:
                for j, c, y in by_row.get((group, s, k), ()):
                    comm[j, r, c] = comm.get((j, r, c), 0) + x * y
                for j, r2, y in by_col.get((group, s, r), ()):
                    comm[j, r2, k] = comm.get((j, r2, k), 0) - y * x
            level = pivots.get((group, depth + s), {})
            for (j, r, c), v in comm.items():
                if v and (target := level.get((r, c))):
                    out.setdefault(j, []).append((v if target[1] == 1 else Q(v, target[1]),
                                                  target[0]))
        return out

    return row


def check_generator_pairs(gens: list, image, bracket, support, row, zero):
    """Exhaustive check that bracket(image(g1), image(g2)) equals the image of
    the structure [g1, g2] over every ordered pair of gens, in row-major
    order.  row(i) is {j: terms}, the nonzero structure of gens[i] against
    gens[j] as (coefficient, generator) terms; an absent j has an empty
    structure.  Returns (n^2, None) or, at the first failing pair (i, j),
    (i n + j + 1, (g1, g2, got, want)): pairs checked counts the pairs the
    loop passes without a visit too.

    The support lemma: support(img) is the set of letters (pair, kind) an
    image uses, and bracket contracts a letter only with its conjugate
    (pair, 1 - kind), x with p, x with d, psi with pi.  So the bracket of two
    images is zero unless some letter of one has its conjugate in the
    support of the other: their supports meet conjugately, a relation that
    is symmetric.  A pair that does not meet and has an empty structure
    therefore passes with no work.  Row i visits only the other pairs:
    those that meet, found through an index from each letter to the
    generators whose images use it, looked up at the conjugate of each
    letter of image i, and those in row(i).  The supports are those of the
    images as given and every row is read whole, so a fault in either is
    seen.  Of the visited pairs (i, j):

    * supports that do not meet: not bracketed; passes exactly when the
      image sum of its structure is zero;
    * j == i: not bracketed, as antisymmetry makes the bracket zero; passes
      exactly when the image sum is zero;
    * j > i: bracketed; passes when the bracket is the image sum, or zero
      for an empty structure;
    * j < i: not bracketed, as (g_j, g_i) has passed, so bracket(img_i,
      img_j) is minus its image sum, or zero for an empty structure.  When
      the terms of (i, j), as a multiset, are its terms negated, the pair
      passes with no image sum; otherwise it passes when that negated sum
      is the image sum of (i, j).

    bracket must be antisymmetric on the images.  The Poisson bracket and the
    Weyl commutator always are; the graded bracket is on even elements, so
    homomorphism_report refuses an odd image.  Each image sum is
    built once per check.  got is the bracket as the full loop builds it:
    zero where the supports do not meet, the negated image sum of (g_j,
    g_i) when mirrored.
    Rows are built one at a time; the index and the terms kept for mirrored
    pairs go with the check."""
    n = len(gens)
    images = [image(g) for g in gens]
    supports = [support(img) for img in images]
    users: dict = {}
    for k, sup in enumerate(supports):
        for letter in sup:
            users.setdefault(letter, []).append(k)
    sums = {}

    def want(terms):
        key = tuple(terms)
        total = sums.get(key)
        if total is None:
            total = sums[key] = _image_sum(terms, image)
        return total

    later = {}
    for i, img1 in enumerate(images):
        structure = row(i)
        meets = set().union(*(users.get((pair, 1 - kind), ()) for pair, kind in supports[i]))
        for j in sorted(meets.union(structure)):
            terms = structure.get(j, [])
            if j not in meets or j == i:
                got = zero
            elif j < i:
                mirror = later.pop((j, i))
                if _negates(terms, mirror):
                    continue
                got = -want(mirror) if mirror else zero
            else:
                later[i, j] = terms
                got = bracket(img1, images[j])
            if (got == want(terms)) if terms else not got:
                continue
            return i * n + j + 1, (gens[i], gens[j], got, want(terms) if terms else zero)
    return n * n, None


def _negates(terms, mirror) -> bool:
    """True when terms, taken as a multiset, are the terms of mirror with
    every coefficient negated."""
    negated = [(-coeff, g) for coeff, g in mirror]
    if len(terms) != len(negated):
        return False
    return terms == negated[::-1] or all(terms.count(t) == negated.count(t) for t in terms)


def _image_sum(terms, image):
    """The sum of image(g3) * coeff over the (coeff, g3) terms, of which
    there is at least one; a coefficient of +-1 costs no product."""
    total = None
    for coeff, g3 in terms:
        img = image(g3)
        img = img if coeff == 1 else -img if coeff == -1 else img * coeff
        total = img if total is None else total + img
    return total


def homomorphism_report(sides, zero, bracket, support, got_want: bool = True) -> dict:
    """check_generator_pairs on each side over the rows of matrix_rows, each
    generator realized once and an odd image refused (the loop needs an antisymmetric
    bracket); a failing witness names the side, the pair and, with got_want, both sums."""
    checked = 0
    for side in sides:
        images = {g: side.image(g) for g in side.gens}
        for g, img in images.items():
            if img.parity():
                raise OddImage(f"{side.name} image of {g} is odd, so the graded "
                               "bracket is not antisymmetric on it")
        count, failure = check_generator_pairs(side.gens, images.__getitem__, bracket, support,
                                               matrix_rows(side.gens, side.matrix), zero)
        checked += count
        if failure:
            g1, g2, got, want = failure
            witness = {"side": side.name, "pair": (str(g1), str(g2))}
            if got_want:
                witness.update(got=repr(got), want=repr(want))
            return {"status": "fail", "pairs_checked": checked, "witness": witness}
    return {"status": "pass", "pairs_checked": checked}


def verify_homomorphism(inst: DualityInstance, flavor: str, mutation: str | None = None) -> dict:
    """Exhaustive generator-pair check that bracket-of-images equals
    image-of-bracket on both realization maps."""
    _, _, zero, bracket, support = inst.ring(flavor)
    return homomorphism_report([inst.side(name, flavor, mutation) for name in ("glM", "glN")],
                               zero, bracket, support)
