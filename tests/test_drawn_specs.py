"""Every duality holds on drawn specs whose points are rationals that are
zero, negative or fractional, with each divisor degree split at random into
Takiff degrees; the built-in grids use only the integer points {1, 2, 3} and
{5, 7, 11}.  On the same specs, every cleared determinant divided inside its
expansion equals the full determinant with D^(n-1) divided out."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gaudual import cyclotomic, gaudin  # noqa: E402
from gaudual.gaudin import _spectral_dets  # noqa: E402
from gaudual.runner import _build_cyclo, _build_duality, run_instance  # noqa: E402
from helpers import check_cleared_against_ratfunc, check_per_step_division  # noqa: E402

SETTINGS = settings(max_examples=15, deadline=None)

points = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def takiff_degrees(draw, degree: int) -> list[int]:
    """A random split of degree into positive parts (none for degree 0)."""
    cuts = sorted(draw(st.sets(st.integers(1, degree - 1)))) if degree > 1 else []
    bounds = [0, *cuts, degree]
    return [b - a for a, b in zip(bounds, bounds[1:]) if b > a]


@st.composite
def divisors(draw, degree: int, locations=points, unique_by=lambda loc: loc) -> list:
    """[location, Takiff degree] pairs at locations distinct under unique_by,
    degrees summing to degree."""
    taus = draw(takiff_degrees(degree))
    locs = draw(st.lists(locations, min_size=len(taus), max_size=len(taus),
                         unique_by=unique_by))
    return [[str(loc), tau] for loc, tau in zip(locs, taus)]


@st.composite
def gaudin_specs(draw, kind: str, max_mn: int) -> dict:
    M, N = draw(st.integers(1, max_mn)), draw(st.integers(1, max_mn))
    return {"kind": kind, "M": M, "N": N,
            "divisor": draw(divisors(N)), "dual_divisor": draw(divisors(M))}


@st.composite
def cyclotomic_specs(draw) -> dict:
    """N <= 2: tau0 at the origin plus points +-z_i, z_i nonzero and
    distinct up to sign; lambda_a distinct, 0 allowed."""
    M, N = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    tau0 = draw(st.integers(1, N))
    nonzero = points.filter(bool)
    return {"kind": "cyclotomic", "M": M, "N": N, "tau0": tau0,
            "divisor": draw(divisors(N - tau0, nonzero, unique_by=abs)),
            "lambda_points": [str(la) for la in draw(st.lists(points, min_size=M, max_size=M,
                                                              unique=True))],
            "mu": str(draw(st.sampled_from([Fraction(0), Fraction(-1), Fraction(3, 2),
                                            Fraction(-5, 7)])))}


def _passes(spec: dict):
    report = run_instance(spec)
    assert report["status"] == "pass", report


@SETTINGS
@given(gaudin_specs("classical-bosonic", 3))
def test_drawn_classical_bosonic_duality(spec):
    _passes(spec)


@SETTINGS
@given(gaudin_specs("classical-fermionic", 2))
def test_drawn_classical_fermionic_duality(spec):
    _passes(spec)


@SETTINGS
@given(gaudin_specs("quantum-bosonic", 2))
def test_drawn_quantum_duality(spec):
    _passes(spec)


@SETTINGS
@given(cyclotomic_specs())
def test_drawn_cyclotomic_duality(spec):
    _passes(spec)


@SETTINGS
@given(gaudin_specs("classical-bosonic", 3))
def test_drawn_classical_per_step_division(spec):
    inst = _build_duality(spec)
    check_per_step_division(gaudin, lambda: _spectral_dets(inst, "classical"),
                            [(inst.div_z, "z"), (inst.div_lam, "lam")])


@SETTINGS
@given(gaudin_specs("classical-bosonic", 3))
def test_drawn_cleared_entries_equal_the_cleared_ratfunc_lax(spec):
    check_cleared_against_ratfunc(_build_duality(spec))


@SETTINGS
@given(cyclotomic_specs())
def test_drawn_cyclotomic_per_step_division(spec):
    inst = _build_cyclo(spec)
    check_per_step_division(gaudin, lambda: cyclotomic.verify_cyclotomic_duality(inst),
                            [(inst.div_lam, "lam"), (inst.div_z, "z")])
