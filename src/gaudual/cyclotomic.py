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
realizations and pole-term Lax matrices (CycloInstance.lax_glM in z,
lax_glN in lam), the Lax algebra check and the Neumann model.  The duality,
the generator extraction and the homomorphism checks run on the engines of
gaudin.

Note: at mu = 0 the cyclotomic model does NOT reduce to the non-cyclotomic
duality even where the finite divisors look alike -- the origin carries the
invariant-current structure and the dual side is sp_2N rather than gl_N.
This non-reduction is documented here rather than asserted by any check.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .errors import BadPoints, DivisorMismatch, DuplicateFrequency, IndexOutOfRange
from .gaudin import (Divisor, _classical_spectral_poly, _cleared, _spectral_dets,
                     check_generator_pairs, exact_int, jordan_sum, matrix_rows,
                     polynomial_equality_report, spectral_coefficients, spectral_duality_report,
                     takiff_block_sum)
from .linalg import in_span
from .matrices import _perm_expansion  # noqa: F401 (unused; bench/test_bench.py traces it)
from .matrices import block2x2, block_diag, jordan_block
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
        offsets = [0]
        acc = self.tau0
        for _, t in self.points:
            offsets.append(acc)
            acc += t
        return tuple(offsets)

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
        gens = []
        M = self.M
        for i, (_, tau) in enumerate(self.C.points):
            for r in range(tau):
                for a in range(1, M + 1):
                    for b in range(1, M + 1):
                        gens.append(("pt", i, r, a, b))
        for s in range(2 * self.C.tau0):
            for a in range(1, M + 1):
                for b in range(a, M + 1):
                    if s % 2 == 0 and a == b:
                        continue
                    gens.append(("or", s, a, b))
        for a in range(1, M + 1):
            for b in range(a, M + 1):
                gens.append(("inf", a, b))
        return gens

    def glMC_matrix(self, g):
        """The matrix_rows descriptor of a gl_M^C generator: E^(z_i)_(ab, r) is E_ab
        at depth r < tau_i of point i, Pi_(s) E_ab is _origin_entries(s, a, b)
        at depth s < 2 tau_0 of the origin; infinity is central."""
        if g[0] == "inf":
            return None
        if g[0] == "pt":
            _, i, r, a, b = g
            return i, r, self.C.points[i][1], ((a, b, 1),)
        _, s, a, b = g
        return "or", s, 2 * self.C.tau0, _origin_entries(s, a, b)

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
        total = MultiPoly.zero()
        ysign = Q(-1) if (s % 2 == 0) == (mutation != "y-sign") else Q(1)
        # y part: sum_u x^a_(u+s) p^b_u - (-1)^s x^b_(u+s) p^a_u
        for u in range(1, tau0 - s + 1):
            total = total + self.var[f"x{a}_{u + s}"] * self.var[f"p{b}_{u}"]
            total = total + ysign * (self.var[f"x{b}_{u + s}"] * self.var[f"p{a}_{u}"])
        # mu part: -mu sum_(u+v=s+1) (-1)^v x^a_u x^b_v
        for u in range(1, tau0 + 1):
            v = s + 1 - u
            if 1 <= v <= tau0:
                sgn = Q(-1) if v % 2 else Q(1)
                total = total - self.mu * sgn * (self.var[f"x{a}_{u}"] * self.var[f"x{b}_{v}"])
        return -total if mutation == "flip-sign" else total

    def glMC_lax_terms(self, a: int, b: int) -> list[tuple[MultiPoly, Fraction, int]]:
        """The coefficient of E_ba in the realized gl_M^C Lax matrix as nonzero
        (numerator, pole, order) terms; order 0 is the constant at infinity."""
        terms = [(self.realize_glMC(("inf", min(a, b), max(a, b))), Q(0), 0)]
        for s in range(2 * self.C.tau0):
            entries: dict = {}
            for x, y, v in _origin_entries(s, a, b):
                entries[(x, y)] = entries.get((x, y), 0) + v
            img = MultiPoly.zero()
            for k, gen in _origin_terms(s, entries):
                img = img + self.realize_glMC(gen) * k
            terms.append((img, Q(0), s + 1))
        for i, (loc, tau) in enumerate(self.C.points):
            for r in range(tau):
                terms.append((self.realize_glMC(("pt", i, r, a, b)), loc, r + 1))
                sgn = Q(1) if (r + 1) % 2 == 0 else Q(-1)
                terms.append((sgn * self.realize_glMC(("pt", i, r, b, a)), -loc, r + 1))
        return [term for term in terms if term[0]]

    def lax_glM(self, flavor: str) -> list[list[list[tuple]]]:
        """The realized gl_M^C Lax matrix in z as pole terms, the poles those
        of div_z: entry (b, a) lists the terms of the coefficient of E_ba.
        flavor, which gaudin's engines pass, is the model's one: classical."""
        assert flavor == "classical"
        M = self.M
        return [[self.glMC_lax_terms(a, b) for a in range(1, M + 1)] for b in range(1, M + 1)]

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

    def ebar_entries(self, I: int, J: int) -> list[tuple[int, int, int]]:
        """(row, column, value) entries of Ebar_IJ = E~_IJ - sigma_I sigma_J
        E~_(-J,-I); the two share a position when J = -I."""
        sigma = 1 if (I > 0) == (J > 0) else -1
        return [(self.pos(I), self.pos(J), 1), (self.pos(-J), self.pos(-I), -sigma)]

    def ebar_dual(self, I: int, J: int) -> list[tuple[int, int, int]]:
        """(row, column, value) entries of the dual basis matrix Ebar^IJ for
        half the fundamental trace form."""
        if J == -I:
            return [(self.pos(-I), self.pos(I), 1)]
        sigma = 1 if (I > 0) == (J > 0) else -1
        return [(self.pos(J), self.pos(I), 1), (self.pos(-I), self.pos(-J), -sigma)]

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
        gens = [("lam", a, I, J) for a in range(1, self.M + 1) for I, J in self.I2()]
        gens += [("inf", 0, I, J) for I, J in self.I2()]
        return gens

    def sp_matrix(self, g):
        """The matrix_rows descriptor of an sp_2N generator: Ebar^(lambda_a)_IJ
        is ebar_entries(I, J) at depth 0 < 1 of point a; infinity is central."""
        kind, a, I, J = g
        return None if kind == "inf" else (a, 0, 1, self.ebar_entries(I, J))

    def lax_glN(self, flavor: str) -> list[list[list[tuple]]]:
        """The realized 2N x 2N sp_2N Lax matrix in lam as pole terms, the
        poles those of div_lam.  The coefficient of Ebar^IJ has its image at
        infinity (order 0) and a simple pole at each lambda_a; each nonzero
        term, times the value of each entry of Ebar^IJ, is listed at that
        entry."""
        assert flavor == "classical"
        n = 2 * self.N
        out = [[[] for _ in range(n)] for _ in range(n)]
        for I, J in self.I2():
            terms = [(self.realize_sp("inf", 0, I, J), Q(0), 0)]
            terms += [(self.realize_sp("lam", a, I, J), la, 1) for a, la in enumerate(self.lam, 1)]
            for r, c, value in self.ebar_dual(I, J):
                out[r][c] += [(img * value, pole, order) for img, pole, order in terms if img]
        return out


def _origin_entries(r: int, a: int, b: int) -> list[tuple[int, int, int]]:
    """(row, column, value) entries of Pi_(r) E_ab = E_ab - (-1)^r E_ba."""
    return [(a, b, 1), (b, a, -1 if r % 2 == 0 else 1)]


def _origin_terms(t: int, entries: dict) -> list:
    """An element of the image of Pi_(t), given by its {(row, column): value}
    entries, on the canonical generators: entry (x, y), x <= y, is the
    coefficient of Pi_(t) E_xy, halved where x = y (Pi_(t) E_xx = 2 E_xx)."""
    return [(Q(v, 2) if x == y else v, ("or", t, x, y))
            for (x, y), v in entries.items() if x <= y and v]


# -- verifiers -----------------------------------------------------------------


def verify_cyclotomic_homomorphisms(inst: CycloInstance, mutation: str | None = None) -> dict:
    """Exhaustive generator-pair checks for both realization maps; every
    bracket term is a canonical generator, so each generator is realized once."""
    checked = 0
    for side, gens, realize, matrix in (
        ("glM-cyclotomic", inst.glMC_generators(), inst.realize_glMC, inst.glMC_matrix),
        ("sp2N", inst.sp_generators(), lambda g, m: inst.realize_sp(*g, m), inst.sp_matrix),
    ):
        images = {g: realize(g, mutation) for g in gens}
        count, failure = check_generator_pairs(
            gens, images.__getitem__, poisson_bracket, poisson_support,
            matrix_rows(gens, matrix), MultiPoly.zero(),
        )
        checked += count
        if failure:
            return {
                "status": "fail",
                "pairs_checked": checked,
                "witness": {"side": side, "pair": (str(failure[0]), str(failure[1]))},
            }
    return {"status": "pass", "pairs_checked": checked}


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
    parameters; A = D L is the cleared Lax matrix.

    which = "cyclotomic-glM": {L1(z), L2(w)} = [r12(z,w), L1] - [r21(w,z), L2],
        checked as (w^2 - z^2){A1(z), A2(w)} = D_C(w)[P12(z,w), A1]
        + D_C(z)[swap P(w,z), A2] with P(u,v) = (v - u)(v + u) r12(u,v)
    which = "sp2N": {L1(lam), L2(w)} = [rbar12, L1 + L2], checked as
        (w - lam){A1(lam), A2(w)} = [R, Dbar(w) A1 + Dbar(lam) A2]
        with R = sum Ebar^IJ x Ebar_IJ = (w - lam) rbar12
    """
    if which == "cyclotomic-glM":
        lax, divisor, spec = inst.lax_glM("classical"), inst.div_z, "z"
    elif which == "sp2N":
        lax, divisor, spec = inst.lax_glN("classical"), inst.div_lam, "lam"
    else:
        raise ValueError(f"unknown Lax algebra family {which!r}")
    lax_u, lax_w = _cleared(lax, divisor, inst.var, spec), _cleared(lax, divisor, inst.var, "w")
    u, w = inst.var[spec], inst.var["w"]
    d_u, d_w = divisor.clearing_poly(u), divisor.clearing_poly(w)
    if which == "cyclotomic-glM":
        factor = w * w - u * u
        rhs = _sum(_commutator(_cyclo_r_matrix(inst.M, u, w), _first_leg(lax_u, d_w)),
                   _commutator(_swap_legs(_cyclo_r_matrix(inst.M, w, u)),
                               _swap_legs(_first_leg(lax_w, d_u))))
    else:
        factor = w - u
        rhs = _commutator(_sp_r_matrix(inst),
                          _sum(_first_leg(lax_u, d_w), _swap_legs(_first_leg(lax_w, d_u))))

    size = len(lax_u)
    n2 = size * size
    for row in range(n2):
        i, k = divmod(row, size)
        for col in range(n2):
            j, l = divmod(col, size)
            lhs = factor * poisson_bracket(lax_u[i][j], lax_w[k][l])
            if lhs != rhs[row][col]:
                return {"status": "fail", "witness": {"entry": (row, col)}}
    return {"status": "pass", "entries_checked": n2 * n2}


def _commutator(x: list[list], y: list[list]) -> list[list]:
    """xy - yx for two n x n matrices of MultiPoly entries."""
    n = range(len(x))
    return [[sum((x[r][k] * y[k][c] - y[r][k] * x[k][c] for k in n), MultiPoly.zero())
             for c in n] for r in n]


def _sum(x: list[list], y: list[list]) -> list[list]:
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _first_leg(lax: list[list], scale: MultiPoly) -> list[list]:
    """scale (lax x 1); entry (i size + k, j size + l) of a two-leg matrix is
    its E_ij x E_kl part, and _swap_legs of this is scale (1 x lax)."""
    size = len(lax)
    out = [[MultiPoly.zero() for _ in range(size * size)] for _ in range(size * size)]
    for i in range(size):
        for j in range(size):
            entry = scale * lax[i][j]
            for k in range(size):
                out[i * size + k][j * size + k] = entry
    return out


def _cyclo_r_matrix(M: int, uu: MultiPoly, vv: MultiPoly) -> list[list]:
    """P(u,v) = (v - u)(v + u) r12(u,v) = sum_ab ((v + u) E_ba x E_ab
    - (v - u) E_ba x E_ba), for the generators uu and vv of u and v."""
    out = [[MultiPoly.zero() for _ in range(M * M)] for _ in range(M * M)]
    for a in range(M):
        for b in range(M):
            out[b * M + a][a * M + b] = out[b * M + a][a * M + b] + (vv + uu)
            out[b * M + b][a * M + a] = out[b * M + b][a * M + a] - (vv - uu)
    return out


def _sp_r_matrix(inst: CycloInstance) -> list[list]:
    """R = sum_(I,J) Ebar^IJ x Ebar_IJ, the numerator of rbar12(u,v) = R / (v - u)."""
    n = 2 * inst.N
    out = [[MultiPoly.zero() for _ in range(n * n)] for _ in range(n * n)]
    for I, J in inst.I2():
        for i, j, dual in inst.ebar_dual(I, J):
            for k, l, value in inst.ebar_entries(I, J):
                out[i * n + k][j * n + l] = out[i * n + k][j * n + l] + dual * value
    return out


def _swap_legs(r: list[list]) -> list[list]:
    """The two-leg matrix with its tensor factors exchanged."""
    size = isqrt(len(r))
    swap = [(k % size) * size + k // size for k in range(len(r))]
    return [[r[row][col] for col in swap] for row in swap]


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
    lam_c = WeylElement({(("sp_lam", 1, 0),): Q(1)})
    z_c = WeylElement({(("sp_z", 1, 0),): Q(1)})
    x_block = [[WeylElement.d(a, i) for i in range(N, 0, -1)]
               + [WeylElement.x(a, i) for i in range(1, N + 1)] for a in range(1, M + 1)]
    d_block = [[-WeylElement.x(a, -I) if I < 0 else WeylElement.d(a, I) for a in range(1, M + 1)]
               for I in inst.index_set()]
    z_block = inst.sp_inf_matrix(z_c, WeylElement.const(inst.mu.constant_value()))
    return block2x2(jordan_sum(inst.div_lam, lam_c), x_block, d_block, z_block)
