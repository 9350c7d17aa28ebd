from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import mul

import pytest

from gaudual.cyclotomic import quantum_cyclotomic_candidate
from gaudual.errors import (ExponentOverflow, GaudualError, NonSquare, NoncommutativeRing,
                            NotInvertible, RefusedMinor)
from gaudual.gaudin import quantum_block_matrix, ratfunc_lax
from gaudual.grassmann import GrassmannAlgebra, GrassmannElement
from gaudual.matrices import (
    _perm_expansion,
    block2x2,
    block_diag,
    cdet,
    det,
    jordan_block,
    manin_check,
    transpose,
)
from gaudual.multipoly import MultiPoly
from gaudual.presets import paper_core, quantum_grid
from gaudual.ratfunc import RatFunc, rational_roots
from gaudual.weyl import OrderedDiffOp, WeylElement
from helpers import (build_instance, jordan_block_inverse, linear, matmul, random_fraction,
                     random_grassmann, random_poly, rng, weyl_to_ordered)

Q = Fraction
X = WeylElement.x
D = WeylElement.d


def frac_matrix(rows):
    return [[Q(e) for e in row] for row in rows]


def map_entries(m: list[list], fn) -> list[list]:
    return [[fn(e) for e in row] for row in m]


def difference(a: list[list], b: list[list]) -> list[list]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def eye(n, one=Q(1)):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


# -- det / cdet -------------------------------------------------------------


def test_det_identity():
    assert det(eye(3)) == 1


def test_det_2x2_commutative():
    a, b, c, d = (MultiPoly.var(v) for v in ["a", "b", "c", "d"])
    m = [[a, b], [c, d]]
    assert det(m) == a * d - b * c


def test_det_raises_on_an_exponent_overflow_instead_of_wrapping():
    # x^20000 x^20000 passes the largest exponent a monomial field holds
    # (2^15 - 1): the product inside the expansion raises, and no wrapped
    # x^40000 - 1 comes out
    x = MultiPoly.var("x", 20000)
    with pytest.raises(ExponentOverflow):
        det([[x, 1], [1, x]])


def test_det_jordan_block_lower_triangular():
    xv = MultiPoly.var("x")
    m = jordan_block(2, xv)
    assert det(m) == xv * xv


def test_det_refuses_noncommutative():
    m = [[D(1, 1), X(1, 1)], [X(1, 1), D(1, 1)]]
    with pytest.raises(NoncommutativeRing):
        det(m)
    with pytest.raises(NonSquare):
        det([[Q(1), Q(2)]])


@pytest.mark.parametrize("check", [det, cdet, manin_check], ids=["det", "cdet", "manin"])
@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1, 2, 3], [4, 5, 6]]],
                         ids=["ragged", "2x3"])
def test_a_ragged_or_non_square_list_of_rows_is_refused(check, rows):
    with pytest.raises(NonSquare):
        check(frac_matrix(rows))


_LAX_SPEC = {"kind": "quantum-bosonic", "M": 2, "N": 2, "divisor": [["1", 1], ["2", 1]],
             "dual_divisor": [["5", 2]]}


def _refused_by_det():
    alg = GrassmannAlgebra(1, 2)
    psi, pi = alg.psi(1, 1), alg.pi(1, 2)
    return {
        "weyl": [[D(1, 1), X(1, 1)], [X(1, 1), D(1, 1)]],
        "odd-grassmann": [[psi, pi], [pi, psi]],
        "mixed-grassmann": [[psi + 1]],
        "ordered-diffop": [[weyl_to_ordered(X(1, 1), "z", "z")]],
        "weyl-ratfunc": ratfunc_lax(build_instance(_LAX_SPEC).lax_glM("quantum"), "z"),
    }


def _accepted_by_det():
    r = rng(48)
    alg = GrassmannAlgebra(2, 2)
    z = MultiPoly.var("z")
    inst = build_instance(_LAX_SPEC)
    even = [[random_grassmann(r, alg, 0) + GrassmannElement({0: z - i - j}) for j in range(2)]
            for i in range(2)]
    return {
        "fraction": frac_matrix([[1, 2], [3, 4]]),
        "multipoly": [[z, z - 1], [MultiPoly.const(2), z * z]],
        "even-grassmann": even,
        "classical-ratfunc": ratfunc_lax(inst.lax_glM("classical"), "z"),
        "fermionic-ratfunc": ratfunc_lax(inst.lax_glM("fermionic"), "z"),
    }


@pytest.mark.parametrize("case", list(_refused_by_det()))
def test_det_refuses_an_entry_that_need_not_commute(case):
    with pytest.raises(NoncommutativeRing):
        det(_refused_by_det()[case])


@pytest.mark.parametrize("case", list(_accepted_by_det()))
def test_det_accepts_commuting_entries(case):
    m = _accepted_by_det()[case]
    assert det(m) == perm_definition(m)


def test_cdet_column_order():
    # cdet [[a,b],[c,d]] = ad - cb, factors ordered by column
    a, b = WeylElement.dz(), X(1, 1)
    c, d = D(1, 1), WeylElement.z()
    m = [[a, b], [c, d]]
    assert cdet(m) == a * d - c * b
    assert cdet(eye(2, WeylElement.const(1))) == 1


def test_cdet_equals_det_on_random_commutative():
    r = rng(41)
    for _ in range(50):
        n = r.randint(1, 4)
        m = frac_matrix([[random_fraction(r) for _ in range(n)] for _ in range(n)])
        assert cdet(m) == det(m)


# -- the subset recursion against the permutation definition ----------------


def perm_definition(m: list[list]):
    """sum over permutations s of sign(s) m[s(0)][0] m[s(1)][1] ... m[s(n-1)][n-1],
    factors in column order: the definition of det and cdet, as an oracle for
    the memoized expansion of `_perm_expansion`."""
    n = len(m)
    total = None
    for perm in permutations(range(n)):
        prod = reduce(mul, (m[perm[c]][c] for c in range(n)))
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        if inversions & 1:
            prod = -prod
        total = prod if total is None else total + prod
    return total


def _square_matrices(entries, max_size=4):
    st = pytest.importorskip("hypothesis").strategies
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def _check_against_definition(entries, max_examples=60):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=max_examples, deadline=None)
    @hypothesis.given(_square_matrices(entries))
    def check(rows):
        assert _perm_expansion(rows) == perm_definition(rows)

    check()


def test_expansion_matches_definition_on_fraction_matrices():
    st = pytest.importorskip("hypothesis").strategies
    # small integers make zero entries, zero minors and cancellations common
    entries = st.one_of(st.integers(-2, 2).map(Q),
                        st.builds(Q, st.integers(-6, 6), st.integers(1, 4)))
    _check_against_definition(entries, max_examples=120)


def test_expansion_matches_definition_on_polynomial_matrices():
    st = pytest.importorskip("hypothesis").strategies
    monomials = st.lists(st.sampled_from(["x", "y", "z"]), max_size=2).map(
        lambda names: reduce(mul, [MultiPoly.var(v) for v in names], MultiPoly.const(1)))
    entries = st.lists(st.tuples(st.integers(-2, 2), monomials), max_size=3).map(
        lambda terms: sum((mono * c for c, mono in terms), MultiPoly.zero()))
    _check_against_definition(entries)


def _weyl_elements():
    """Short sums of words of at most two x/d letters on two pairs: entries
    that mostly do not commute."""
    st = pytest.importorskip("hypothesis").strategies
    letters = st.tuples(st.sampled_from([X, D]), st.sampled_from([(1, 1), (2, 1)]))
    monomials = st.lists(letters, max_size=2).map(
        lambda word: reduce(mul, [f(*at) for f, at in word], WeylElement.const(1)))
    return st.lists(st.tuples(st.integers(-2, 2), monomials), max_size=2).map(
        lambda terms: sum((mono * c for c, mono in terms), WeylElement.zero()))


def test_expansion_matches_definition_on_weyl_matrices():
    _check_against_definition(_weyl_elements())


def test_expansion_matches_definition_on_a_grassmann_even_matrix():
    r = rng(47)
    alg = GrassmannAlgebra(2, 2)
    z = MultiPoly.var("z")
    m = [[random_grassmann(r, alg, 0) + GrassmannElement({0: z - i - j})
          for j in range(3)] for i in range(3)]
    assert det(m) == perm_definition(m)
    assert det(m) != GrassmannElement({0: perm_definition(map_entries(
        m, lambda e: e.terms.get(0, MultiPoly.zero())))})


def test_expansion_is_column_ordered():
    # swapping rows 1 and 2 (from 0) contributes -X1 D2 X2 in column order
    # and -X1 X2 D2 in row order, so the two expansions differ by -X1
    zero, one = WeylElement.zero(), WeylElement.const(1)
    m = [[X(1, 1), D(1, 1), zero],
         [D(1, 1), X(1, 1), X(2, 1)],
         [zero, D(2, 1), one]]
    got = cdet(m)
    assert got == perm_definition(m)
    assert got - perm_definition(transpose(m)) == -X(1, 1)


def test_per_step_division_by_a_common_factor():
    # every k x k minor of d A is d^k times a minor of A, so dividing each new
    # minor by d once leaves d^n det(A) / d^(n-1)
    r = rng(21)
    d = MultiPoly.var("z") - 2
    for n in (1, 2, 3, 4):
        a = [[random_poly(r, ["x", "z"], 2) for _ in range(n)] for _ in range(n)]
        scaled = [[d * x for x in row] for row in a]
        assert _perm_expansion(scaled, lambda p: p.divide_linear("z", [(2, 1)])) == d * det(a)


def test_per_step_division_refusal_names_the_minor_size():
    # the 2 x 2 minor of rows 0, 1 and the last two columns is -1
    d, one, zero = MultiPoly.var("z") - 2, MultiPoly.const(1), MultiPoly.zero()
    m = [[d, one, zero], [zero, d, one], [zero, zero, d]]
    with pytest.raises(RefusedMinor) as refused:
        _perm_expansion(m, lambda p: p.divide_linear("z", [(2, 1)]))
    assert (refused.value.size, refused.value.var, refused.value.root) == (2, "z", 2)


# -- Manin checks -----------------------------------------------------------


def duality_block_matrix(M, N, z_points, lam_points):
    """[[Lam, X], [tD, Z]] with Weyl entries: the Manin matrix whose two Schur
    factorizations produce the dual spectral operators."""
    zero = WeylElement.zero()
    lam_block = [[zero for _ in range(M)] for _ in range(M)]
    for a in range(M):
        lam_block[a][a] = WeylElement.dz() - WeylElement.const(lam_points[a])
    x_block = [[X(a + 1, i + 1) for i in range(N)] for a in range(M)]
    d_block = [[D(a + 1, i + 1) for a in range(M)] for i in range(N)]
    z_block = [[zero for _ in range(N)] for _ in range(N)]
    for i in range(N):
        z_block[i][i] = WeylElement.z() - WeylElement.const(z_points[i])
    return block2x2(lam_block, x_block, d_block, z_block)


def random_manin(r, max_size=4):
    """Random Manin matrix built from Weyl generators.

    Manin-ness is preserved by row permutations, right multiplication by
    scalar matrices, and passing to submatrices.
    """
    M, N = r.randint(1, 2), r.randint(1, 2)
    zs = r.sample([Q(1), Q(2), Q(3), Q(5)], N)
    lams = r.sample([Q(7), Q(11), Q(-1), Q(4)], M)
    m = duality_block_matrix(M, N, zs, lams)
    n = len(m)
    rows = list(range(n))
    r.shuffle(rows)
    m = [m[i] for i in rows]
    scal = [[WeylElement.const(random_fraction(r)) for _ in range(n)] for _ in range(n)]
    m = matmul(m, scal)
    k = min(max_size, r.randint(2, n))
    ridx = sorted(r.sample(range(n), k))
    cidx = sorted(r.sample(range(n), k))
    return [[m[i][j] for j in cidx] for i in ridx]


def test_duality_block_is_manin():
    m = duality_block_matrix(2, 2, [Q(1), Q(2)], [Q(5), Q(7)])
    ok, witness = manin_check(m)
    assert ok and witness is None


def test_commutative_matrix_is_manin():
    r = rng(42)
    m = frac_matrix([[random_fraction(r) for _ in range(3)] for _ in range(3)])
    assert manin_check(m)[0]


def test_manin_failure_gives_witness():
    m = [[D(1, 1), X(1, 1)], [X(1, 1), D(1, 1)]]
    ok, witness = manin_check(m)
    assert not ok
    i, j, k, l = witness
    a, b = m[i][j], m[k][l]
    c, d = m[k][j], m[i][l]
    assert a * b - b * a != c * d - d * c or (j == l and a * b - b * a != 0)


def manin_reference(m: list[list]):
    """manin_check over every quadruple: all i != k column pairs and the
    cross condition for all (i, k, j, l), each commutator recomputed as
    a*b - b*a."""
    n = len(m)

    def comm(a, b):
        return a * b - b * a

    for j in range(n):
        for i in range(n):
            for k in range(i + 1, n):
                if comm(m[i][j], m[k][j]):
                    return False, (i, j, k, j)
    for i in range(n):
        for k in range(n):
            for j in range(n):
                for l in range(n):
                    lhs = comm(m[i][j], m[k][l])
                    rhs = comm(m[k][j], m[i][l])
                    if lhs != rhs:
                        return False, (i, j, k, l)
    return True, None


def test_manin_check_matches_reference_on_quantum_grid():
    for spec in quantum_grid():
        m = quantum_block_matrix(build_instance(spec))
        assert manin_check(m) == manin_reference(m) == (True, None)


def test_manin_check_matches_reference_on_cyclotomic_candidates():
    specs = [s for s in paper_core() if s.get("options", {}).get("quantum_candidate")]
    assert specs
    for spec in specs:
        m = quantum_cyclotomic_candidate(build_instance(spec))
        ok, witness = manin_check(m)
        assert not ok and witness is not None
        assert (ok, witness) == manin_reference(m)


@pytest.mark.parametrize(
    "rows, witness",
    [
        ([[X(1, 1), 0], [0, D(1, 1)]], (0, 0, 1, 1)),
        ([[0, X(1, 1)], [D(1, 1), 0]], (0, 0, 1, 1)),
        ([[1, 0, 0], [0, X(1, 1), 0], [0, 0, D(1, 1)]], (1, 1, 2, 2)),
        ([[X(1, 1), 0, 0], [0, 0, X(2, 1)], [0, D(2, 1), 0]], (1, 1, 2, 2)),
    ],
    ids=["diagonal", "anti-diagonal", "diagonal-3", "corner-3"],
)
def test_manin_check_finds_a_cross_condition_violation(rows, witness):
    # every column condition holds; one cross condition fails
    m = [[e if isinstance(e, WeylElement) else WeylElement.const(e) for e in row]
         for row in rows]
    assert manin_check(m) == manin_reference(m) == (False, witness)


def test_manin_check_matches_reference_on_random_weyl_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    elements = _weyl_elements()

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(st.integers(2, 3).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)))
    def check(rows):
        assert manin_check(rows) == manin_reference(rows)

    check()


def test_row_exchange_always_flips_sign():
    r = rng(43)
    for _ in range(10):
        m = random_manin(r)
        swapped = [m[-1], *m[1:-1], m[0]]
        assert cdet(swapped) == cdet(m) * Fraction(-1)


def test_column_exchange_flips_sign_for_manin():
    r = rng(44)
    for _ in range(10):
        m = random_manin(r)
        swapped = [[row[-1], *row[1:-1], row[0]] for row in m]
        assert cdet(swapped) == cdet(m) * Fraction(-1)


def test_column_exchange_can_fail_off_manin():
    # counterexample artifact: cdet(swap) + cdet = [a,d] + [b,c], which is
    # nonzero for diag(d, x) since [d, x] = 1
    m = [[D(1, 1), WeylElement.zero()], [WeylElement.zero(), X(1, 1)]]
    assert not manin_check(m)[0]
    assert cdet([row[::-1] for row in m]) != cdet(m) * Fraction(-1)
    # the spec's [[d, x], [x, d]] example is non-Manin but happens to keep
    # the sign symmetry; record both outcomes
    m2 = [[D(1, 1), X(1, 1)], [X(1, 1), D(1, 1)]]
    assert not manin_check(m2)[0]
    assert cdet([row[::-1] for row in m2]) == cdet(m2) * Fraction(-1)


def test_x_block_proposition_random():
    # cdet M = cdet(M [[1, X],[0, 1]]) for Manin M and arbitrary Weyl X
    r = rng(45)
    for _ in range(20):
        m = random_manin(r)
        n = len(m)
        k = r.randint(1, n - 1)
        unit = [[WeylElement.const(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for i in range(k):
            for j in range(k, n):
                unit[i][j] = WeylElement.const(random_fraction(r)) * X(1, 1) + (
                    WeylElement.const(random_fraction(r)) * D(2, 1)
                )
        assert cdet(matmul(m, unit)) == cdet(m)


# -- Jordan blocks ----------------------------------------------------------


def test_jordan_inverse_smallest():
    xv = linear("x", 0)
    inv = jordan_block_inverse(1, xv)
    assert inv[0][0] == xv.invert()


def test_jordan_inverse_2x2_entries():
    xv = linear("x", 0)
    inv = jordan_block_inverse(2, xv)
    xinv = xv.invert()
    assert inv[0][0] == xinv
    assert inv[0][1] == RatFunc.const("x", 0)
    assert inv[1][0] == xinv * xinv
    assert inv[1][1] == xinv


def test_jordan_inverse_two_sided_symbolic():
    xv = linear("x", 0)
    for k in range(1, 6):
        j = jordan_block(k, xv)
        inv = jordan_block_inverse(k, xv)
        left = matmul(inv, j)
        right = matmul(j, inv)
        for i in range(k):
            for jj in range(k):
                want = RatFunc.const("x", 1 if i == jj else 0)
                assert left[i][jj] == want
                assert right[i][jj] == want


def test_jordan_inverse_rejects_zero():
    with pytest.raises(NotInvertible):
        jordan_block_inverse(2, RatFunc.const("x", 0))


# -- Schur complement factorizations ----------------------------------------


class BlockNotInvertible(GaudualError):
    pass


class SingularBlock(GaudualError):
    pass


def adjugate(m: list[list]) -> list[list]:
    """Adjugate over a commutative ring: adj(m) * m = det(m) * 1."""
    n = len(m)
    if n == 1:
        e = m[0][0]
        one = e - e + Fraction(1)
        return [[one]]
    idx = list(range(n))
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in idx if c != i] for r in idx if r != j]
            cof = _perm_expansion(minor)
            if (i + j) & 1:
                cof = cof * Fraction(-1)
            out[i][j] = cof
    return out


def invert_scalar_poly_matrix(m: list[list], var: str) -> list[list]:
    """Inverse of a matrix of scalar polynomials (RatFunc values in `var`)
    whose determinant splits over rational roots.

    Returns a matrix of RatFunc entries; raises BlockNotInvertible when
    the determinant vanishes or has a non-rational root.
    """
    d = _perm_expansion(m)
    if not d:
        raise BlockNotInvertible("zero determinant")
    if d.den:
        raise BlockNotInvertible("determinant is not polynomial")
    frac_num = {}
    for k, c in d.num.items():
        if isinstance(c, (int, Fraction)):
            frac_num[k] = Fraction(c)
        elif isinstance(c, WeylElement) and all(key == () for key in c.terms):
            frac_num[k] = c.terms.get((), Fraction(0))
        else:
            raise BlockNotInvertible("determinant has non-scalar coefficients")
    roots, rest = rational_roots(frac_num)
    if {k for k, v in rest.items() if v and k > 0}:
        raise BlockNotInvertible("determinant does not split over rational roots")
    lead = rest.get(0, Fraction(1))
    dinv = RatFunc(var, {0: Fraction(1) / lead}, roots)
    adj = adjugate(m)
    return map_entries(adj, lambda e: e * dinv)


def schur_cdet_factor(A: list[list], B: list[list], C: list[list], D: list[list],
                      which: str):
    """cdet factorization of the Manin block matrix [[A, B], [C, D]].

    which = "top-left":      (cdet A, cdet(D - C A^-1 B))
    which = "bottom-right":  (cdet D, cdet(A - B D^-1 C))

    Blocks must carry OrderedDiffOp entries of a common side; the designated
    block must be scalar (pure spectral) so its inverse can be taken by
    adjugate over rational functions.
    """
    if which == "top-left":
        block, P, Q, rest = A, C, B, D
    elif which == "bottom-right":
        block, P, Q, rest = D, B, C, A
    else:
        raise ValueError("which must be 'top-left' or 'bottom-right'")
    sides = {e.side for blk in (A, B, C, D) for row in blk for e in row}
    if len(sides) != 1:
        raise ValueError("blocks must share an ordering side")
    side = sides.pop()
    var = "dz" if side == "dz" else "z"

    scalar_entries = []
    for row in block:
        out_row = []
        for e in row:
            f = None
            for power, rf in e.terms.items():
                if power != 0:
                    raise BlockNotInvertible("designated block is not scalar")
                f = rf
            out_row.append(f if f is not None else RatFunc.const(var, 0))
        scalar_entries.append(out_row)
    inv = invert_scalar_poly_matrix(scalar_entries, var)
    inv_ops = map_entries(inv, lambda f: OrderedDiffOp(side, {0: f}))
    schur = difference(rest, matmul(matmul(P, inv_ops), Q))
    return cdet(block), cdet(schur)



def lift_block(m, side, var):
    return map_entries(m, lambda w: weyl_to_ordered(w, side, var))


def test_schur_block_diagonal():
    A = [[WeylElement.dz() - 5]]
    Dm = [[WeylElement.z() - 2]]
    zeroM = [[WeylElement.zero()]]
    f1, f2 = schur_cdet_factor(
        lift_block(A, "dz", "dz"),
        lift_block(zeroM, "dz", "dz"),
        lift_block(zeroM, "dz", "dz"),
        lift_block(Dm, "dz", "dz"),
        "top-left",
    )
    assert (f1 * f2).to_polynomial() == (WeylElement.dz() - 5) * (WeylElement.z() - 2)


def test_schur_both_factorizations_match_cdet():
    # the duality block matrix at M = N = 1
    full = duality_block_matrix(1, 1, [Q(2)], [Q(5)])
    reference = cdet(full)
    A = [[full[0][0]]]
    B = [[full[0][1]]]
    C = [[full[1][0]]]
    Dm = [[full[1][1]]]

    f1, f2 = schur_cdet_factor(
        lift_block(A, "dz", "dz"), lift_block(B, "dz", "dz"),
        lift_block(C, "dz", "dz"), lift_block(Dm, "dz", "dz"), "top-left",
    )
    assert (f1 * f2).to_polynomial() == reference

    g1, g2 = schur_cdet_factor(
        lift_block(A, "z", "z"), lift_block(B, "z", "z"),
        lift_block(C, "z", "z"), lift_block(Dm, "z", "z"), "bottom-right",
    )
    assert (g1 * g2).to_polynomial() == reference


def test_corrected_two_by_two_remark():
    # For Manin [[a,b],[c,d]] with d invertible: cdet = ad - cb = (a - c b d^-1) d,
    # while the flagged-misprint form (a - b d^-1 c) d differs.
    a = weyl_to_ordered(WeylElement.dz() - 5, "z", "z")
    b = weyl_to_ordered(X(1, 1), "z", "z")
    c = weyl_to_ordered(D(1, 1), "z", "z")
    d = weyl_to_ordered(WeylElement.z() - 2, "z", "z")
    dinv = OrderedDiffOp("z", {0: RatFunc("z", {0: Q(1)}, {Q(2): 1})})
    reference = cdet(
        [[WeylElement.dz() - 5, X(1, 1)], [D(1, 1), WeylElement.z() - 2]]
    )
    corrected = ((a - c * b * dinv) * d).to_polynomial()
    assert corrected == reference
    misprint = ((a - b * dinv * c) * d).to_polynomial()
    assert misprint != reference


# -- Berezinian -------------------------------------------------------------


def berezinian_identity_check(Lam: list[list], Pi: list[list], Psi: list[list],
                              Z: list[list]) -> bool:
    """Check det(Lam - Pi Z^-1 Psi) det(Z - Psi Lam^-1 Pi) = det Z det Lam.

    Lam (M x M) and Z (N x N) are commutative-scalar blocks; Pi (M x N) and
    Psi (N x M) carry odd Grassmann entries.  Denominators are cleared with
    adjugates so the whole check runs on polynomial data:

        det(Lam detZ - Pi adj(Z) Psi) det(Z detLam - Psi adj(Lam) Pi)
            = (det Z)^(M+1) (det Lam)^(N+1).
    """
    det_z = _perm_expansion(Z)
    det_l = _perm_expansion(Lam)
    if not det_z or not det_l:
        raise SingularBlock("Lam and Z must both be invertible")

    def lift(e):
        return e if isinstance(e, GrassmannElement) else GrassmannElement({0: e})

    adj_z = map_entries(adjugate(Z), lift)
    adj_l = map_entries(adjugate(Lam), lift)
    lam_g = map_entries(Lam, lambda e: lift(e * det_z))
    z_g = map_entries(Z, lambda e: lift(e * det_l))
    M, N = len(Lam), len(Z)
    left = _perm_expansion(difference(lam_g, matmul(matmul(Pi, adj_z), Psi)))
    right = _perm_expansion(difference(z_g, matmul(matmul(Psi, adj_l), Pi)))
    expected = GrassmannElement({0: det_z ** (M + 1) * det_l ** (N + 1)})
    return left * right == expected



def test_berezinian_trivial_without_fermions():
    lam = MultiPoly.var("lam")
    z = MultiPoly.var("z")
    Lam = [[lam - 5]]
    Z = [[z - 1]]
    zero = GrassmannElement.zero()
    Pi = [[zero]]
    Psi = [[zero]]
    assert berezinian_identity_check(Lam, Pi, Psi, Z)


def test_berezinian_one_one_instance():
    alg = GrassmannAlgebra(1, 1)
    lam = MultiPoly.var("lam")
    z = MultiPoly.var("z")
    Lam = [[lam - 5]]
    Z = [[z - 1]]
    Pi = [[alg.pi(1, 1)]]
    Psi = [[alg.psi(1, 1)]]
    assert berezinian_identity_check(Lam, Pi, Psi, Z)


def test_berezinian_two_two_random_points():
    alg = GrassmannAlgebra(2, 2)
    lam = MultiPoly.var("lam")
    z = MultiPoly.var("z")
    Lam = [[lam - 5, MultiPoly.const(-1)], [MultiPoly.zero(), lam - 5]]
    Z = [[z - 1, MultiPoly.zero()], [MultiPoly.const(-1), z - 1]]
    Pi = [[alg.pi(a, i) for i in (1, 2)] for a in (1, 2)]
    Psi = [[alg.psi(a, i) for a in (1, 2)] for i in (1, 2)]
    assert berezinian_identity_check(Lam, Pi, Psi, Z)


def test_block_diag_helper():
    b = block_diag([frac_matrix([[1]]), frac_matrix([[2, 0], [1, 2]])])
    assert b == [[1, 0, 0], [0, 2, 0], [0, 1, 2]]
    assert block_diag([]) == []


def test_cdet_non_square_raises():
    with pytest.raises(NonSquare):
        cdet([[Q(1), Q(2)]])


def test_berezinian_singular_block_raises():
    zero_block = [[MultiPoly.zero()]]
    z = [[MultiPoly.var("z")]]
    pi = [[GrassmannElement.zero()]]
    with pytest.raises(SingularBlock):
        berezinian_identity_check(zero_block, pi, pi, z)


def test_schur_block_not_invertible():
    # designated block contains a Weyl generator: not a scalar polynomial
    bad = [[weyl_to_ordered(X(1, 1), "z", "z")]]
    zed = [[weyl_to_ordered(WeylElement.z(), "z", "z")]]
    with pytest.raises(BlockNotInvertible):
        schur_cdet_factor(zed, zed, zed, bad, "bottom-right")
