"""MultiPoly against sympy on random polynomials, plus the packed-monomial
invariants: term order, exponent overflow and integer coefficients."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gaudual.errors import ExponentOverflow, InexactDivision  # noqa: E402
from gaudual.multipoly import MAX_EXP, MultiPoly, var_key  # noqa: E402
from gaudual.poisson import poisson_bracket, poisson_support  # noqa: E402
from helpers import meet_conjugately  # noqa: E402

NAMES = ["x1_1", "x2_1", "p1_1", "p2_1", "z", "lam"]
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES}
PAIRS = [("x1_1", "p1_1"), ("x2_1", "p2_1")]

coeffs = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)
monomials = st.dictionaries(st.sampled_from(NAMES), st.integers(1, 3), max_size=3)
polys = st.lists(st.tuples(coeffs, monomials), max_size=5)
# (root, power) pairs with distinct roots, zero, negative or fractional
factor_lists = st.lists(st.tuples(coeffs, st.integers(1, 3)), min_size=1, max_size=3,
                        unique_by=lambda factor: factor[0])
SETTINGS = settings(max_examples=40, deadline=None)


def build(terms) -> MultiPoly:
    out = MultiPoly.zero()
    for c, mono in terms:
        term = MultiPoly.const(c)
        for name, e in mono.items():
            term = term * MultiPoly.var(name, e)
        out = out + term
    return out


def to_sympy(p: MultiPoly):
    out = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for name, e in zip(p.vars, p.unpack(mono)):
            if e:
                term *= SYMBOLS[name] ** e
        out += term
    return out


def same(p: MultiPoly, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


@SETTINGS
@given(polys, polys, st.integers(0, 3))
def test_ring_operations_match_sympy(ta, tb, n):
    a, b = build(ta), build(tb)
    sa, sb = to_sympy(a), to_sympy(b)
    assert same(a + b, sa + sb)
    assert same(a - b, sa - sb)
    assert same(a * b, sa * sb)
    assert same(a ** n, sa ** n)
    assert same(-a + 3, 3 - sa)


@SETTINGS
@given(polys, st.sampled_from(NAMES))
def test_derivative_matches_sympy(ta, name):
    a = build(ta)
    assert same(a.derivative(name), sympy.diff(to_sympy(a), SYMBOLS[name]))


def sympy_factor(root, power):
    return (SYMBOLS["z"] - sympy.Rational(root.numerator, root.denominator)) ** power


@SETTINGS
@given(polys, factor_lists)
def test_divide_linear_matches_sympy(ta, factors):
    p = build(ta)
    product, divisor = p, sympy.Integer(1)
    for root, power in factors:
        product = (MultiPoly.var("z") - root) ** power * product
        divisor *= sympy_factor(root, power)
    quotient = product.divide_linear("z", factors)
    want, rem = sympy.div(to_sympy(product), divisor, SYMBOLS["z"])
    assert rem == 0
    assert quotient == p
    assert same(quotient, want)
    if p:
        # product + 1 is 1 at every root, so the first factor refuses
        with pytest.raises(InexactDivision) as refused:
            (product + 1).divide_linear("z", factors)
        assert refused.value.root == factors[0][0]


@SETTINGS
@given(polys, polys, factor_lists, st.data())
def test_divide_linear_refuses_one_power_too_many(ta, tb, factors, data):
    # the product holds every factor but one power short at factor `short`,
    # times g = (z - root) a + h with h = b(z = root) nonzero, so g(root) = h
    # != 0 and, the roots being distinct, the factor at `short` is the first
    # that does not divide what the ones before it leave
    short = data.draw(st.integers(0, len(factors) - 1))
    root = factors[short][0]
    h = build(tb).substitute({"z": root})
    hypothesis.assume(h)
    g = (MultiPoly.var("z") - root) * build(ta) + h
    fewer = [(r, power - (k == short)) for k, (r, power) in enumerate(factors)]
    product = g
    for r, power in fewer:
        product = (MultiPoly.var("z") - r) ** power * product
    assert product.divide_linear("z", fewer) == g
    with pytest.raises(InexactDivision) as refused:
        product.divide_linear("z", factors)
    assert (refused.value.var, refused.value.root) == ("z", root)


@SETTINGS
@given(polys, coeffs, coeffs)
def test_substitute_matches_sympy(ta, value, other):
    a = build(ta)
    got = a.substitute({"x1_1": value, "p2_1": other})
    want = to_sympy(a).subs(
        {SYMBOLS[name]: sympy.Rational(v.numerator, v.denominator)
         for name, v in (("x1_1", value), ("p2_1", other))},
        simultaneous=True,
    )
    assert same(got, want)
    assert got.vars == a.vars


def sympy_bracket(sf, sg):
    return sum(
        sympy.diff(sf, SYMBOLS[p]) * sympy.diff(sg, SYMBOLS[x])
        - sympy.diff(sf, SYMBOLS[x]) * sympy.diff(sg, SYMBOLS[p])
        for x, p in PAIRS
    )


@SETTINGS
@given(polys, polys)
def test_poisson_bracket_matches_sympy(ta, tb):
    f, g = build(ta), build(tb)
    assert same(poisson_bracket(f, g), sympy_bracket(to_sympy(f), to_sympy(g)))


@SETTINGS
@given(polys)
def test_poisson_self_bracket_is_zero(ta):
    """{f, f} = 0: check_commutativity counts its self-pairs without
    bracketing them."""
    f = build(ta)
    assert not poisson_bracket(f, f)
    assert same(poisson_bracket(f, f), sympy_bracket(to_sympy(f), to_sympy(f)))


def _letter(name: str) -> tuple[str, int] | None:
    """The letter (pair, kind) of an x (kind 0) or p (kind 1) name; None for
    a spectator."""
    return (name[1:], "xp".index(name[0])) if name[0] in "xp" else None


@SETTINGS
@given(polys, polys)
def test_disjoint_supports_give_a_zero_poisson_bracket(ta, tb):
    """g keeps only the terms that use no conjugate of a letter of f, so it
    may share pairs with f: no letter of either support has its conjugate
    in the other, and the bracket is zero both ways.  The support is the
    set of letters f's terms use, over any table."""
    f = build(ta)
    support = poisson_support(f)
    used = {_letter(v) for e in f.terms for v, k in zip(f.vars, f.unpack(e)) if k}
    assert support == used - {None}
    assert poisson_support(f.lift_to(WIDE)) == support
    conjugates = {(pair, 1 - kind) for pair, kind in support}
    g = build([(c, mono) for c, mono in tb if not {_letter(v) for v in mono} & conjugates])
    assert not meet_conjugately(support, poisson_support(g))
    assert not poisson_bracket(f, g) and not poisson_bracket(g, f)


# the names of NAMES (z among them) and unused x/p names around them
WIDE = tuple(sorted({*NAMES, "x1_2", "p1_2", "x3_1", "p3_1", "x2_2"}, key=var_key))
TABLE = tuple(sorted(NAMES, key=var_key))
fraction_polys = st.lists(
    st.tuples(st.builds(Fraction, st.integers(-6, 6), st.integers(2, 4)), monomials),
    min_size=1, max_size=5)


@SETTINGS
@given(fraction_polys, st.lists(polys, min_size=1, max_size=3))
def test_poisson_bracket_partials_are_kept_per_polynomial(ta, tbs):
    # one f against several g and itself, in both orders, over the tables
    # the polynomials were built on, over one shared table and over a wider
    # one: the partials each polynomial keeps must give the sympy bracket
    # every time
    f, gs = build(ta), [build(tb) for tb in tbs]
    sf = to_sympy(f)
    wants = [sympy_bracket(sf, to_sympy(g)) for g in gs] + [0]
    for table in (None, TABLE, WIDE):
        lf = f.lift_to(table) if table else f
        lgs = [g.lift_to(table) if table else g for g in gs] + [lf]
        for lg, want in zip(lgs, wants):
            assert same(poisson_bracket(lf, lg), want)
            assert same(poisson_bracket(lg, lf), -want)


@SETTINGS
@given(polys, polys)
def test_poisson_bracket_is_independent_of_the_table(ta, tb):
    f, g = build(ta), build(tb)
    narrow = poisson_bracket(f, g)
    wide = poisson_bracket(f.lift_to(WIDE), g.lift_to(WIDE))
    assert wide.vars == WIDE
    assert wide == narrow and repr(wide) == repr(narrow)


@SETTINGS
@given(polys)
def test_repr_lists_terms_in_exponent_tuple_order(ta):
    p = build(ta)
    by_tuple = sorted(p.terms.items(), key=lambda item: p.unpack(item[0]))
    assert by_tuple == sorted(p.terms.items())
    bits = []
    for mono, c in by_tuple:
        names = "*".join(f"{v}^{e}" if e > 1 else v
                         for v, e in zip(p.vars, p.unpack(mono)) if e)
        bits.append(str(c) if not names else (names if c == 1 else f"{c}*{names}"))
    assert repr(p) == (" + ".join(bits) or "0")


def test_exponent_overflow_raises_instead_of_wrapping():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    top = MultiPoly.var("x", MAX_EXP) * y
    assert top.vars == ("x", "y") and [top.unpack(e) for e in top.terms] == [(MAX_EXP, 1)]
    with pytest.raises(ExponentOverflow):
        top * x
    with pytest.raises(ExponentOverflow):
        MultiPoly.var("x", 2 ** 14) ** 2
    with pytest.raises(ExponentOverflow):
        MultiPoly.var("y", MAX_EXP + 1)
    # cancellation does not hide an overflow in a surviving term
    with pytest.raises(ExponentOverflow):
        (top + 1) * (x + y)


def test_integral_coefficients_are_ints():
    x = MultiPoly.var("x")
    half = x * Fraction(1, 2)
    assert type(half.terms[1]) is Fraction
    for p in [half * 2, half + half, (x ** 2 * Fraction(1, 2)).derivative("x"),
              MultiPoly.const(Fraction(6, 3)), (half * half) * 4,
              ((x - Fraction(1, 2)) * (x + 2)).divide_linear("x", [(Fraction(1, 2), 1)])]:
        assert all(type(c) is int for c in p.terms.values()), p
    assert str(MultiPoly.const(Fraction(6, 3))) == str(MultiPoly.const(2)) == "2"
    assert MultiPoly.const(Fraction(6, 3)) == MultiPoly.const(2)
