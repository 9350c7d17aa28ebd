"""RatFunc against the field axioms on random rational functions whose
poles lie in a fixed pool, exact reciprocals, and partial fractions
reassembling to the function they decompose."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gaudual.ratfunc import RatFunc, partial_fractions  # noqa: E402
from helpers import reassemble  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)
POLES = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2))
MAX_ORDER = 2
# numerator roots: the poles, so that factors cancel, and points off the pool
ROOTS = POLES + (Fraction(3), Fraction(-1, 3))

coeffs = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)
denominators = st.dictionaries(st.sampled_from(POLES), st.integers(1, MAX_ORDER), max_size=3)
ratfuncs = st.builds(lambda num, den: RatFunc("z", dict(enumerate(num)), den),
                     st.lists(coeffs, max_size=4), denominators)


@st.composite
def split_ratfuncs(draw):
    """A nonzero c prod (z - r) / prod (z - p)^k: its numerator splits over
    the rationals, so it has an exact reciprocal."""
    f = RatFunc("z", {0: draw(coeffs.filter(bool))}, draw(denominators))
    for root in draw(st.lists(st.sampled_from(ROOTS), max_size=3)):
        f = f * RatFunc.linear("z", root)
    return f


@SETTINGS
@given(ratfuncs, ratfuncs)
def test_add_and_mul_commute(f, g):
    assert f + g == g + f
    assert f * g == g * f


@SETTINGS
@given(ratfuncs, ratfuncs, ratfuncs)
def test_add_and_mul_associate(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)


@SETTINGS
@given(ratfuncs, ratfuncs, ratfuncs)
def test_mul_distributes_over_add(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@SETTINGS
@given(split_ratfuncs())
def test_reciprocal_is_exact(f):
    assert f * f.invert() == 1


@SETTINGS
@given(ratfuncs)
def test_partial_fractions_reassemble(f):
    poly, pieces = partial_fractions(f, [(p, MAX_ORDER) for p in POLES])
    assert reassemble("z", poly, pieces) == f
