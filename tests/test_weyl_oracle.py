"""WeylElement against an independent normal orderer on random words, the
commutator against ``a*b - b*a``, and the coefficient convention."""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from gaudual.weyl import WeylElement, weyl_commutator, weyl_support  # noqa: E402
from helpers import meet_conjugately  # noqa: E402

# two ordinary pairs and the spectral pair; their names sort the same way
# as strings and under the package's pair order
PAIRS = ["1_1", "2_1", "z"]
SETTINGS = settings(max_examples=60, deadline=None)

coeffs = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)
# a letter is (pair, "x" or "d", power); power 0 is the identity
letters = st.tuples(st.sampled_from(PAIRS), st.sampled_from("xd"), st.integers(0, 3))
words = st.lists(letters, max_size=3)


# -- the oracle ----------------------------------------------------------------


def _canonical(word: tuple) -> tuple:
    """The monomial key of a word in which every x stands left of every d."""
    counts: dict = {}
    for pair, kind in word:
        x, d = counts.get(pair, (0, 0))
        counts[pair] = (x + 1, d) if kind == "x" else (x, d + 1)
    return tuple(sorted((p, x, d) for p, (x, d) in counts.items()))


def _word(key: tuple) -> tuple:
    xs = tuple((p, "x") for p, x, _ in key for _ in range(x))
    return xs + tuple((p, "d") for p, _, d in key for _ in range(d))


def _swap_until_ordered(word: tuple) -> dict:
    """Rewrite a word one adjacent swap at a time until no d stands directly
    left of an x: a d and an x of different pairs commute, and within one
    pair d x = x d + 1."""
    pending, done = {word: 1}, {}
    while pending:
        w, c = pending.popitem()
        i = next((i for i in range(len(w) - 1) if w[i][1] == "d" and w[i + 1][1] == "x"), None)
        if i is None:
            key = _canonical(w)
            done[key] = done.get(key, 0) + c
            continue
        swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
        pending[swapped] = pending.get(swapped, 0) + c
        if w[i][0] == w[i + 1][0]:
            dropped = w[:i] + w[i + 2:]
            pending[dropped] = pending.get(dropped, 0) + c
    return done


def normal_order(letters_: list, coeff=1) -> dict:
    """{monomial key: coefficient} of coeff times the product of the letters,
    built by pushing one generator at a time onto an ordered word."""
    result = {(): coeff} if coeff else {}
    for pair, kind, power in reversed(letters_):
        for _ in range(power):
            nxt: dict = {}
            for key, c in result.items():
                for key2, w in _swap_until_ordered(((pair, kind),) + _word(key)).items():
                    nxt[key2] = nxt.get(key2, 0) + c * w
            result = {k: c for k, c in nxt.items() if c}
    return result


def generator(pair: str, kind: str, power: int) -> WeylElement:
    if pair == "z":
        return WeylElement.z(power) if kind == "x" else WeylElement.dz(power)
    a, i = map(int, pair.split("_"))
    return WeylElement.x(a, i, power) if kind == "x" else WeylElement.d(a, i, power)


def element(word: list, coeff=1) -> WeylElement:
    return reduce(mul, [generator(*letter) for letter in word], WeylElement.const(coeff))


def random_element(pairs: list[str]):
    """Sums of coefficient-times-word terms over the given pairs."""
    return random_element_over([(pair, kind) for pair in pairs for kind in "xd"])


def random_element_over(generators: list[tuple[str, str]]):
    """Sums of coefficient-times-word terms over the given (pair, "x" or
    "d") generators."""
    letter = st.tuples(st.sampled_from(generators), st.integers(1, 2)).map(
        lambda drawn: (*drawn[0], drawn[1]))
    term = st.tuples(coeffs, st.lists(letter, min_size=1, max_size=3))
    return st.lists(term, min_size=1, max_size=3).map(
        lambda terms: sum((element(w, c) for c, w in terms), WeylElement.zero())
    )


# -- the oracle on its own -------------------------------------------------------


def test_oracle_hand_cases():
    assert normal_order([("1_1", "d", 1), ("1_1", "x", 1)]) == {(("1_1", 1, 1),): 1, (): 1}
    # d^2 x^2 = x^2 d^2 + 4 x d + 2
    assert normal_order([("1_1", "d", 2), ("1_1", "x", 2)]) == {
        (("1_1", 2, 2),): 1, (("1_1", 1, 1),): 4, (): 2,
    }
    # Dz z = z Dz + 1, and a derivative of another pair passes z freely
    assert normal_order([("z", "d", 1), ("z", "x", 1)]) == {(("z", 1, 1),): 1, (): 1}
    assert normal_order([("1_1", "d", 1), ("z", "x", 1)]) == {(("1_1", 0, 1), ("z", 1, 0)): 1}


# -- products --------------------------------------------------------------------


@SETTINGS
@given(words, words, coeffs)
@example([("1_1", "d", 3), ("2_1", "d", 1)], [("1_1", "x", 3), ("2_1", "x", 2)], 1)
@example([("z", "d", 2)], [("z", "x", 0), ("1_1", "x", 1)], Fraction(1, 2))
@example([("2_1", "x", 0)], [("1_1", "d", 1)], 1)
def test_products_of_words_match_the_swap_orderer(w1, w2, c):
    got = element(w1, c) * element(w2)
    assert got.terms == normal_order(w1 + w2, c)


# -- commutators -----------------------------------------------------------------

SUPPORTS = {
    "overlapping": (["1_1", "2_1"], ["2_1", "z"]),
    "disjoint": (["1_1"], ["2_1", "z"]),
    "with-z": (["z"], ["z", "1_1"]),
}


@pytest.mark.parametrize("support", sorted(SUPPORTS))
@SETTINGS
@given(data=st.data())
def test_commutator_is_ab_minus_ba(support, data):
    left, right = SUPPORTS[support]
    a = data.draw(random_element(left))
    b = data.draw(random_element(right))
    bracket = weyl_commutator(a, b)
    assert bracket == a * b - b * a
    assert weyl_commutator(b, a) == -bracket
    if support == "disjoint":
        assert not bracket


@SETTINGS
@given(st.lists(st.tuples(coeffs, words), min_size=1, max_size=3))
def test_self_commutator_is_zero(terms):
    """[a, a] = 0, with a * a itself checked against the swap orderer:
    check_commutativity counts its self-pairs without bracketing them."""
    a = sum((element(w, c) for c, w in terms), WeylElement.zero())
    square: dict = {}
    for c1, w1 in terms:
        for c2, w2 in terms:
            for key, c in normal_order(w1 + w2, c1 * c2).items():
                square[key] = square.get(key, 0) + c
    assert (a * a).terms == {k: c for k, c in square.items() if c}
    assert not weyl_commutator(a, a)


def _supports(w: WeylElement) -> list:
    """Per term: monomial, coefficient, the letters (pair, kind) it uses and
    their conjugates (pair, 1 - kind)."""
    out = []
    for k, c in w.terms.items():
        letters = {(p, kind) for p, x, d in k for kind, e in enumerate((x, d)) if e}
        out.append((k, c, letters, {(p, 1 - kind) for p, kind in letters}))
    return out


@SETTINGS
@given(random_element(PAIRS), st.lists(random_element(PAIRS), min_size=1, max_size=4))
def test_kept_supports_serve_every_bracket(a, others):
    """One element bracketed in both positions against several others and
    against itself, its kept letters reused each time."""
    for b in others + [a]:
        assert weyl_commutator(a, b) == a * b - b * a
        assert weyl_commutator(b, a) == b * a - a * b
    assert a.supports() is a.supports()
    assert a.supports() == _supports(a)


@SETTINGS
@given(random_element(PAIRS), random_element(PAIRS))
def test_arithmetic_results_keep_their_own_supports(a, b):
    weyl_commutator(a, b)
    kept = (a.supports(), b.supports())
    for result in (a + b, a - b, -a, a * b, a * 2, 3 * a, a + 0, 1 - a, a ** 1,
                   weyl_commutator(a, b)):
        assert all(result.supports() is not memo for memo in kept)
        assert result.supports() == _supports(result)


@SETTINGS
@given(data=st.data())
def test_disjoint_supports_give_a_zero_commutator(data):
    """b is drawn over the generators whose conjugates a does not use, so it
    may share pairs with a: no letter of either support has its conjugate
    in the other, and the commutator is zero both ways."""
    a = data.draw(random_element(PAIRS))
    support = weyl_support(a)
    assert support == {(p, kind) for key in a.terms for p, x, d in key
                       for kind, e in enumerate((x, d)) if e}
    rest = [(p, kind) for p in PAIRS for k, kind in enumerate("xd")
            if (p, 1 - k) not in support]
    b = data.draw(random_element_over(rest)) if rest else WeylElement.const(data.draw(coeffs))
    assert not meet_conjugately(support, weyl_support(b))
    assert not weyl_commutator(a, b) and not weyl_commutator(b, a)


def test_commutator_of_partly_overlapping_monomials():
    x11, d11, x21 = WeylElement.x(1, 1), WeylElement.d(1, 1), WeylElement.x(2, 1)
    assert weyl_commutator(x11 * x21, d11) == -x21
    assert weyl_commutator(d11 * WeylElement.dz(), x11 * WeylElement.z()) == (
        x11 * d11 + WeylElement.z() * WeylElement.dz() + 1
    )


# -- coefficients ------------------------------------------------------------------


@SETTINGS
@given(words, words, coeffs, coeffs)
def test_integral_coefficients_are_ints(w1, w2, c1, c2):
    a = element(w1, c1) + element(w2, c2)
    for value in (a, a * a, a * Fraction(1, 2) * 2, weyl_commutator(a, element(w2))):
        assert all(type(c) is int or c.denominator != 1 for c in value.terms.values())
    assert all(type(c) is int for c in (element(w1, Fraction(6, 3)) * 3).terms.values())


@SETTINGS
@given(words, words, coeffs)
def test_repr_does_not_depend_on_int_or_fraction(w1, w2, c):
    a = element(w1, c) * element(w2) + element(w2, 2)
    as_fractions = WeylElement.zero()
    as_fractions.terms = {k: Fraction(v) for k, v in a.terms.items()}
    assert repr(as_fractions) == repr(a)
