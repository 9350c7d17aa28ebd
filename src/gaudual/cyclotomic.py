"""Z2-cyclotomic gl_M Gaudin model and its sp_2N dual.

The cyclotomic side lives over the invariants of the diagram automorphism
sigma(E_ab) = -E_ba extended to currents by eps -> -eps; the dual side is
the sp_2N Gaudin model with regular singularities at the lambda_a and a
double pole at infinity, its 2N x 2N matrices indexed by
I = (-N, ..., -1, 1, ..., N).

Everything here is classical: elements are polynomials in x^a_i, p^a_i
with the parameter mu either an exact rational or the spectator variable
"mu".  This module owns the model: its divisors, generators, their
matrices (whose commutators gaudin.matrix_rows lists as structure rows),
realizations and the Side record of each side (glMC_side, sp_side), the Lax
algebra check and the Neumann model.  The Lax matrices (lax_glM in z,
lax_glN in lam), the duality, the generator extraction and the homomorphism
checks run on gaudin's builder and engines.

Note: at mu = 0 the cyclotomic model does NOT reduce to the non-cyclotomic
duality even where the finite divisors look alike -- the origin carries the
invariant-current structure and the dual side is sp_2N rather than gl_N.
This non-reduction is documented here rather than asserted by any check.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate

from .errors import BadPoints, DivisorMismatch, DuplicateFrequency, IndexOutOfRange
from .gaudin import (Divisor, Side, _classical_spectral_poly, _cleared, _spectral_dets,
                     classical_side, exact_int, homomorphism_report, jordan_sum,
                     polynomial_equality_report, spectral_coefficients, spectral_duality_report,
                     takiff_block_sum)
from .linalg import in_span
from .matrices import _perm_expansion  # noqa: F401 (unused; bench/test_bench.py traces it)
from .matrices import _duals, block2x2, block_diag, jordan_block, lax_terms
from .multipoly import MultiPoly, VariableTable
from .poisson import poisson_bracket, poisson_support
from .scalars import rat
from .weyl import WeylElement

Q = Fraction


# -- divisors and generators ---------------------------------------------------


class CycloDivisor(namedtuple("CycloDivisor", "tau0 points")):
    """2*tau0 . 0 + sum tau_i . z_i + sum tau_i . (-z_i) + 2 . infinity, with
    int tau0 and points = ((z_i, tau_i), ...) as in Divisor.

    A tuple: it hashes, orders and compares equal like the plain tuple of
    its fields, and `_make` and `_replace` skip the checks of `__new__`
    (nothing calls them).
    """

    __slots__ = ()

    def __new__(cls, tau0: int, points: tuple[tuple[Fraction, int], ...]) -> CycloDivisor:
        if tau0 < 1:
            raise DivisorMismatch("tau_0 must be positive")
        locs = [loc for loc, _ in points]
        if any(loc == 0 for loc in locs):
            raise BadPoints("0 = z_i is not allowed")
        seen = set()
        for loc in locs:
            if loc in seen or -loc in seen:
                raise BadPoints("need 0 != z_i != +-z_j for i != j")
            seen.add(loc)
        if any(t < 1 for _, t in points):
            raise DivisorMismatch("Takiff degrees must be positive")
        return super().__new__(cls, tau0, points)

    @staticmethod
    def of(tau0: int, points) -> CycloDivisor:
        return CycloDivisor(exact_int(tau0, "tau0"),
                            tuple((rat(p), exact_int(t, "a Takiff degree")) for p, t in points))

    def total_degree(self) -> int:
        """tau_0 + sum tau_i (half the finite degree, the N of the dual)."""
        return self.tau0 + sum(t for _, t in self.points)

    def block_offsets(self) -> tuple[int, ...]:
        """nu_i for i = 0..n with nu_0 = 0, nu_1 = tau_0, ..."""
        return (0,) + tuple(accumulate((t for _, t in self.points), initial=self.tau0))[:-1]

    def as_divisor(self) -> Divisor:
        """The finite part as a Divisor: 0 with degree 2 tau_0, +-z_i with tau_i."""
        return Divisor(((Q(0), 2 * self.tau0),)
                       + tuple((sign * loc, tau) for loc, tau in self.points for sign in (1, -1)))

    def jordan_data(self, x) -> list[list]:
        """blkdiag(-J(-x-z_i) in reverse order, -J_tau0(-x), J_tau0(x), J(x-z_i)):
        the Jordan data of the sp_2N side at infinity, shifted by x."""
        half = ((Q(0), self.tau0),) + self.points
        blocks = [jordan_block(tau, x + loc, Q(-1)) for loc, tau in reversed(half)]
        blocks += [jordan_block(tau, x - loc) for loc, tau in half]
        return block_diag(blocks)


# generator encodings:
#   ("pt", i, r, a, b)   E^(z_i)_(ab, r)
#   ("or", s, a, b)      (Pi_(s) E_ab)^(0)_s, canonical: a < b (s even),
#                        a <= b (s odd)
#   ("inf", a, b)        E^+(inf)_(ab, 1), canonical a <= b


class CycloInstance:
    """One cyclotomic duality instance: gl_M with divisor C against sp_2N
    with simple poles at the lambda_a."""

    def __init__(self, M: int, C: CycloDivisor, lam_points, mu):
        self.M = M
        self.C = C
        self.N = C.total_degree()
        self.lam = [Q(p) for p in lam_points]
        if len(self.lam) != M:
            raise DivisorMismatch(f"need M = {M} points lambda_a, got {len(self.lam)}")
        if len(set(self.lam)) != M:
            raise BadPoints("lambda_a must be pairwise distinct")
        self.div_z = C.as_divisor()
        self.div_lam = Divisor.of((la, 1) for la in self.lam)
        # the images are built over one table of all the variables
        self.var = VariableTable([f"{q}{a}_{i}" for q in "xp" for a in range(1, M + 1)
                                  for i in range(1, self.N + 1)] + ["z", "lam", "mu", "w"])
        mu = mu if isinstance(mu, MultiPoly) else MultiPoly.const(Q(mu))
        self.mu = mu.lift_to(self.var.names)
        self._sp_inf = self.sp_inf_matrix(Q(0), self.mu)

    # -- gl_M^C side ------------------------------------------------------

    def glMC_generators(self) -> list:
        M = range(1, self.M + 1)
        return ([("pt", i, r, a, b) for i, (_, tau) in enumerate(self.C.points)
                 for r in range(tau) for a in M for b in M]
                + [("or", s, a, b) for s in range(2 * self.C.tau0) for a in M for b in M
                   if a < b or a == b and s % 2]
                + [("inf", a, b) for a in M for b in M if a <= b])

    def glMC_matrix(self, g):
        """The matrix_rows descriptor of a gl_M^C generator (0-based): E_ab at
        depth r < tau_i of point i, Pi_(s) E_ab = _origin_entries(s, a, b) at depth
        s < 2 tau_0 of the origin, E_aa or E_ab + E_ba at infinity, central."""
        if g[0] == "pt":
            _, i, r, a, b = g
            return i, r, self.C.points[i][1], ((a - 1, b - 1, 1),)
        if g[0] == "or":
            _, s, a, b = g
            return "or", s, 2 * self.C.tau0, _origin_entries(s, a - 1, b - 1)
        _, a, b = g
        return "inf", 0, 0, ((a - 1, b - 1, 1),) + (((b - 1, a - 1, 1),) if a != b else ())

    def realize_glMC(self, g, mutation: str | None = None) -> MultiPoly:
        M = self.M
        kind = g[0]
        if kind == "inf":
            _, a, b = g
            return MultiPoly.const(self.lam[a - 1] if a == b else Q(0))
        if kind == "pt":
            _, i, r, a, b = g
            if not (1 <= a <= M and 1 <= b <= M):
                raise IndexOutOfRange(f"{a},{b} exceed M={M}")
            return takiff_block_sum(self.C.block_offsets()[i + 1], self.C.points[i][1], r,
                                    lambda u, v: self.var[f"x{a}_{v}"] * self.var[f"p{b}_{u}"],
                                    MultiPoly.zero(), mutation)
        _, s, a, b = g
        tau0 = self.C.tau0
        ysign = Q(-1) if (s % 2 == 0) == (mutation != "y-sign") else Q(1)
        # y part: sum_u x^a_(u+s) p^b_u - (-1)^s x^b_(u+s) p^a_u
        total = takiff_block_sum(0, tau0, s, lambda u, v: (
            self.var[f"x{a}_{v}"] * self.var[f"p{b}_{u}"]
            + ysign * (self.var[f"x{b}_{v}"] * self.var[f"p{a}_{u}"])), MultiPoly.zero())
        # mu part: -mu sum_(u+v=s+1) (-1)^v x^a_u x^b_v
        for u in range(1, tau0 + 1):
            v = s + 1 - u
            if 1 <= v <= tau0:
                sgn = Q(-1) if v % 2 else Q(1)
                total = total - self.mu * sgn * (self.var[f"x{a}_{u}"] * self.var[f"x{b}_{v}"])
        return -total if mutation == "flip-sign" else total

    def glMC_side(self, mutation: str | None = None) -> Side:
        """The gl_M^C side: kappa is 1/2 on the origin's Pi_(s) groups, Pi_(s)
        being twice a projector, and each point z_i is mirrored at -z_i."""
        return Side("glM-cyclotomic", self.glMC_generators(), self.glMC_matrix,
                    lambda g: self.realize_glMC(g, mutation),
                    {"or": Q(0), **{i: loc for i, (loc, _) in enumerate(self.C.points)}},
                    lambda group: Q(1, 2) if group == "or" else 1, True, self.M)

    def lax_glM(self, flavor: str) -> list[list[list[tuple]]]:
        """The realized gl_M^C Lax matrix in z as pole terms, the poles those
        of div_z: entry (b, a) lists the terms of the coefficient of E_ba.
        flavor, which gaudin's engines pass, is the model's one: classical."""
        assert flavor == "classical"
        return lax_terms(self.glMC_side())

    # -- sp_2N side --------------------------------------------------------

    def index_set(self) -> list[int]:
        N = self.N
        return list(range(-N, 0)) + list(range(1, N + 1))

    def pos(self, I: int) -> int:
        return I + self.N if I < 0 else self.N + I - 1

    def I2(self) -> list[tuple[int, int]]:
        N = self.N
        pairs = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
        pairs += [(i, -j) for i in range(1, N + 1) for j in range(i, N + 1)]
        pairs += [(-i, j) for i in range(1, N + 1) for j in range(i, N + 1)]
        return pairs

    def ebar_entries(self, I: int, J: int) -> tuple[tuple[int, int, int], ...]:
        """(row, column, value) entries of Ebar_IJ = E~_IJ - sigma_I sigma_J
        E~_(-J,-I); the two share a position when J = -I."""
        sigma = 1 if (I > 0) == (J > 0) else -1
        return (self.pos(I), self.pos(J), 1), (self.pos(-J), self.pos(-I), -sigma)

    def sp_inf_matrix(self, x, mu) -> list[list]:
        """blkdiag(-J(-x-z_i), -J_tau0(-x), J_tau0(x), J(x-z_i)) + mu E~_(1,-1):
        at x = 0 and mu = self.mu the matrix whose -(J I) entries realize the
        sp generators at infinity."""
        rows = self.C.jordan_data(x)
        mu_row, mu_col = self.pos(1), self.pos(-1)
        rows[mu_row][mu_col] = rows[mu_row][mu_col] + mu
        return rows

    def realize_sp(self, kind: str, a: int, I: int, J: int,
                   mutation: str | None = None) -> MultiPoly:
        """pibar_b on Ebar^(lambda_a)_IJ (kind "lam") / Ebar^(inf)_IJ, the
        latter minus the (J, I) entry of sp_inf_matrix(0, mu), built once per
        instance."""
        if kind == "inf":
            entry = self._sp_inf[self.pos(J)][self.pos(I)]
            return -(entry if isinstance(entry, MultiPoly) else MultiPoly.const(entry))
        if not (1 <= a <= self.M):
            raise IndexOutOfRange(f"point index {a} exceeds M={self.M}")
        sigma_j = 1 if J > 0 else -1

        def q(K: int) -> MultiPoly:
            return self.var[f"x{a}_{K}" if K > 0 else f"p{a}_{-K}"]

        img = q(I) * q(-J) * Q(sigma_j)
        if mutation == "flip-sign":
            img = -img
        return img

    def sp_generators(self) -> list:
        return [("lam", a, I, J) for a in range(1, self.M + 1) for I, J in self.I2()] + [
            ("inf", 0, I, J) for I, J in self.I2()]

    def sp_matrix(self, g):
        """The matrix_rows descriptor of an sp_2N generator: ebar_entries(I, J) at
        depth 0 < 1 of point a, or in group 0 with limit 0 (central) at infinity."""
        kind, a, I, J = g
        return a, 0, int(kind == "lam"), self.ebar_entries(I, J)

    def sp_side(self, mutation: str | None = None) -> Side:
        """The sp_2N side, its poles those of div_lam; kappa is 1/2, so that
        the dual of Ebar_IJ is Ebar^IJ under half the fundamental trace."""
        return Side("sp2N", self.sp_generators(), self.sp_matrix,
                    lambda g: self.realize_sp(*g, mutation), dict(enumerate(self.lam, 1)),
                    lambda group: Q(1, 2), False, 2 * self.N)

    def lax_glN(self, flavor: str) -> list[list[list[tuple]]]:
        """The realized 2N x 2N sp_2N Lax matrix in lam as pole terms, the
        poles those of div_lam, each term on the entries of its Ebar^IJ."""
        assert flavor == "classical"
        return lax_terms(self.sp_side())


def _origin_entries(r: int, a: int, b: int) -> tuple[tuple[int, int, int], ...]:
    """(row, column, value) entries of Pi_(r) E_ab = E_ab - (-1)^r E_ba."""
    return (a, b, 1), (b, a, -1 if r % 2 == 0 else 1)


# -- verifiers -----------------------------------------------------------------


def verify_cyclotomic_homomorphisms(inst: CycloInstance, mutation: str | None = None) -> dict:
    """Exhaustive generator-pair checks for both realization maps; the witness
    names the side and the pair only, as the benchmark's recorded reports pin it."""
    return homomorphism_report((inst.glMC_side(mutation), inst.sp_side(mutation)),
                               MultiPoly.zero(), poisson_bracket, poisson_support, got_want=False)


def verify_cyclotomic_duality(inst: CycloInstance) -> dict:
    """Exact equality of the two spectral polynomials in P_b[z, lam], the
    gl_M^C side (glM) and the sp_2N side (sp2N)."""
    return spectral_duality_report(inst, {"z": "glM", "lam": "sp2N"})


def extract_cyclotomic_generators(inst: CycloInstance) -> list[MultiPoly]:
    return spectral_coefficients(_classical_spectral_poly(inst))


# -- Lax algebra (classical r-matrix) checks -----------------------------------


def lax_algebra_check(inst: CycloInstance, which: str) -> dict:
    """Entrywise check of the classical Lax algebra, multiplied through by
    every denominator so both sides are polynomial in the two spectral
    parameters; A = D L is the cleared Lax matrix, entry (i n + k, j n + l) of
    a two-leg matrix its E_ij x E_kl part.  Each r-matrix is built from a split
    Casimir C = sum g* x g = sum g x g* (matrices._duals), and [g* x y, A x 1] =
    [g*, A] x y, [y x g*, 1 x A] = y x [g*, A]: no n^2 x n^2 product is formed.

    which = "cyclotomic-glM": {L1(z), L2(w)} = [r12(z,w), L1] - [r21(w,z), L2],
        checked as (w^2 - z^2){A1(z), A2(w)} = D_C(w)[P12(z,w), A1]
        + D_C(z)[swap P(w,z), A2] with P(u,v) = (v - u)(v + u) r12(u,v)
        = (v + u) C + (v - u) (1 x sigma) C, C the Casimir of the E_ab
    which = "sp2N": {L1(lam), L2(w)} = [rbar12, L1 + L2], checked as
        (w - lam){A1(lam), A2(w)} = [R, Dbar(w) A1 + Dbar(lam) A2]
        with R = sum Ebar^IJ x Ebar_IJ = (w - lam) rbar12
    """
    spec = {"cyclotomic-glM": "z", "sp2N": "lam"}.get(which)
    if spec is None:
        raise ValueError(f"unknown Lax algebra family {which!r}")
    lax, divisor, _ = classical_side(inst, spec)
    lax_u, lax_w = _cleared(lax, divisor, inst.var, spec), _cleared(lax, divisor, inst.var, "w")
    u, w = inst.var[spec], inst.var["w"]
    d_u, d_w = divisor.clearing_poly(u), divisor.clearing_poly(w)
    if which == "cyclotomic-glM":
        # the legs (v + u) g + (v - u) sigma(g) that P(u, v) pairs with g*
        factor, kappa, first, second = w * w - u * u, 1, (w + u, w - u), (u + w, u - w)
        mats = tuple(((a, b, 1),) for a in range(inst.M) for b in range(inst.M))
    else:
        factor, kappa, first, second = w - u, Q(1, 2), (1, 0), (1, 0)
        mats = tuple(inst.ebar_entries(I, J) for I, J in inst.I2())
    a_u, a_w = [[d_w * x for x in row] for row in lax_u], [[d_u * x for x in row] for row in lax_w]
    size = len(lax_u)
    n2 = size * size
    rhs = [[MultiPoly.zero()] * n2 for _ in range(n2)]
    for dual, entries in zip(_duals(mats, kappa), mats):
        for left, right in ((_bracket(dual, a_u), _leg(entries, *first)),
                            (_leg(entries, *second), _bracket(dual, a_w))):
            for (i, j), x in left.items():
                for (k, l), y in right.items():
                    rhs[i * size + k][j * size + l] = rhs[i * size + k][j * size + l] + x * y

    for row in range(n2):
        i, k = divmod(row, size)
        for col in range(n2):
            j, l = divmod(col, size)
            lhs = factor * poisson_bracket(lax_u[i][j], lax_w[k][l])
            if lhs != rhs[row][col]:
                return {"status": "fail", "witness": {"entry": (row, col)}}
    return {"status": "pass", "entries_checked": n2 * n2}


def _leg(entries, s, t) -> dict:
    """s g + t sigma(g), sigma(g) = -g^T, as {(row, column): entry} for the
    matrix g given by its (row, column, value) entries."""
    out: dict = {}
    for r, c, v in entries:
        out[r, c] = out.get((r, c), 0) + s * v
        if t:
            out[c, r] = out.get((c, r), 0) - t * v
    return out


def _bracket(x: dict, a: list[list]) -> dict:
    """[x, a] as {(row, column): entry} for a sparse rational matrix x,
    {(row, column): value}, and an n x n matrix a of MultiPoly entries."""
    out: dict = {}
    for (r, k), v in x.items():
        for c in range(len(a)):
            out[r, c] = out.get((r, c), 0) + a[k][c] * v
            out[c, k] = out.get((c, k), 0) - a[c][r] * v
    return out


# -- Neumann model ---------------------------------------------------------------


def angular_momentum(a: int, b: int) -> MultiPoly:
    """x_a p_b - x_b p_a of the Neumann model (N = 1)."""
    v = MultiPoly.var
    return v(f"x{a}_1") * v(f"p{b}_1") - v(f"x{b}_1") * v(f"p{a}_1")


def neumann_artifacts(M: int, omegas) -> dict:
    """The Neumann instance: N = 1, mu = -1, frequencies omega_a with
    lambda_a = omega_a^2.

    Returns the report body: the determinant relation, Poisson commutativity
    of the Hamiltonian H with every spectral coefficient, the exact
    expression of H as a rational combination of those coefficients, and the
    angular invariance of the sphere constraint.
    """
    omegas = [Q(w) for w in omegas]
    lams = [w * w for w in omegas]
    if len(set(lams)) != len(lams):
        raise DuplicateFrequency("need pairwise distinct omega_a^2")
    inst = CycloInstance(M, CycloDivisor.of(1, []), lams, Q(-1))
    spectral, dual = _spectral_dets(inst)
    duality = polynomial_equality_report(spectral, dual)

    coeffs = spectral_coefficients(spectral)
    # H = 1/4 sum_(a != b) (x_a p_b - x_b p_a)^2 + 1/2 sum omega_a^2 x_a^2
    H = MultiPoly.zero()
    for a in range(1, M + 1):
        for b in range(1, M + 1):
            if a != b:
                k = angular_momentum(a, b)
                H = H + k * k * Q(1, 4)
    for a in range(1, M + 1):
        H = H + MultiPoly.var(f"x{a}_1") ** 2 * lams[a - 1] * Q(1, 2)

    commute = all(not poisson_bracket(H, c) for c in coeffs)
    combo = in_span(H, coeffs)
    sphere = sphere_constraint_is_angular_invariant(M)
    ok = duality["status"] == "pass" and commute and combo is not None and sphere
    return {
        "status": "pass" if ok else "fail",
        "duality": duality,
        "hamiltonian_commutes": commute,
        "hamiltonian_combination": None if combo is None else [str(c) for c in combo],
        "spectral_coefficients": len(coeffs),
        "sphere_constraint_invariant": sphere,
    }


def sphere_constraint_is_angular_invariant(M: int) -> bool:
    """{sum x_a^2, x_a p_b - x_b p_a} = 0 for all a, b."""
    r2 = MultiPoly.zero()
    for a in range(1, M + 1):
        r2 = r2 + MultiPoly.var(f"x{a}_1") ** 2
    return not any(poisson_bracket(r2, angular_momentum(a, b))
                   for a in range(1, M + 1) for b in range(1, M + 1))


# -- quantum cyclotomic candidate (negative result) -------------------------------


def quantum_cyclotomic_candidate(inst: CycloInstance) -> list[list[WeylElement]]:
    """The (M + 2N) x (M + 2N) block matrix behind the classical cyclotomic
    duality with momenta replaced by derivatives; it fails the Manin check."""
    M, N = inst.M, inst.N
    if not inst.mu.is_constant():
        raise ValueError("quantum candidate needs a rational mu")
    lam_c, z_c = WeylElement._generator("sp_lam", 1, 0), WeylElement._generator("sp_z", 1, 0)
    x_block = [[WeylElement.d(a, i) for i in range(N, 0, -1)]
               + [WeylElement.x(a, i) for i in range(1, N + 1)] for a in range(1, M + 1)]
    d_block = [[-WeylElement.x(a, -I) if I < 0 else WeylElement.d(a, I) for a in range(1, M + 1)]
               for I in inst.index_set()]
    z_block = inst.sp_inf_matrix(z_c, WeylElement.const(inst.mu.constant_value()))
    return block2x2(jordan_sum(inst.div_lam, lam_c), x_block, d_block, z_block)
