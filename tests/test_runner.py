"""The table of checks in gaudual.runner: validation returns the job that
dispatch runs, each spec field is parsed once per run, and every entry of
the table is run by the paper-core preset."""

from fractions import Fraction

import pytest

from gaudual import runner
from gaudual.multipoly import MultiPoly
from gaudual.presets import cyclotomic_grid, paper_core
from gaudual.runner import CHECKS, run_instance, validate_instance


# paper-core runs no cyclotomic commutativity spec: the benchmark's
# workloads partition paper-core, so adding one waits for a change to the
# benchmark.  The cyclotomic grid stands in for it here.
NOT_IN_PAPER_CORE = {("commutativity", "cyclotomic")}
CYCLOTOMIC_COMMUTATIVITY = [dict(spec, kind="commutativity", flavor="cyclotomic")
                            for spec in cyclotomic_grid()]


def _check_key(spec):
    job = validate_instance(spec)
    return job.kind, job.variant


def _smallest_spec(key):
    return min((spec for spec in paper_core() + CYCLOTOMIC_COMMUTATIVITY
                if _check_key(spec) == key),
               key=lambda spec: (spec["M"] + spec.get("N", 0), repr(spec)))


def test_every_check_is_run_by_a_paper_core_spec():
    assert set(map(_check_key, paper_core())) == set(CHECKS) - NOT_IN_PAPER_CORE


@pytest.mark.parametrize("spec", CYCLOTOMIC_COMMUTATIVITY,
                         ids=[f"grid-{k}" for k in range(len(CYCLOTOMIC_COMMUTATIVITY))])
def test_cyclotomic_commutativity_passes_on_the_cyclotomic_grid(spec):
    report = run_instance(spec)
    assert report["status"] == "pass"
    assert report["generators"] >= 1


def test_cyclotomic_commutativity_fails_on_one_perturbed_generator(monkeypatch):
    """p1_1 added to the first extracted generator g_0: {g_0 + p1_1, g_j} =
    dg_j/dx1_1, so the check fails at the first later generator that uses
    x1_1, after the pairs (0, 0) .. (0, j)."""
    spec = next(spec for spec in CYCLOTOMIC_COMMUTATIVITY
                if (spec["M"], spec["tau0"], spec["divisor"], spec["mu"]) == (2, 2, [], "-1"))
    extract = runner.extract_cyclotomic_generators
    gens = extract(runner._instance(validate_instance(spec)))
    j = next(j for j, g in enumerate(gens) if j and g.derivative("x1_1"))
    assert j == 2

    def perturbed(inst):
        first, *rest = extract(inst)
        return [first + MultiPoly.var("p1_1"), *rest]

    monkeypatch.setattr(runner, "extract_cyclotomic_generators", perturbed)
    report = run_instance(spec)
    assert report["status"] == "fail"
    assert report["pairs_checked"] == j + 1
    assert report["witness"] == {"pair": (0, j), "bracket": repr(gens[j].derivative("x1_1"))}
    assert report["generators"] == len(gens)


@pytest.mark.parametrize("key", [key for key, check in CHECKS.items() if check.model != "neumann"],
                         ids=lambda key: "-".join(filter(None, key)))
def test_each_divisor_is_parsed_once_per_run(monkeypatch, key):
    """A Gaudin spec has two divisors and a cyclotomic one has one: each is
    parsed by validation, and dispatch builds the model from what
    validation returned."""
    spec = _smallest_spec(key)
    calls = []
    original = runner._points

    def spy(raw, name):
        calls.append(name)
        return original(raw, name)

    monkeypatch.setattr(runner, "_points", spy)
    report = run_instance(spec)
    assert report["status"] == "pass"
    want = ["divisor", "dual_divisor"] if CHECKS[key].model == "gaudin" else ["divisor"]
    assert calls == want


def test_the_job_holds_the_parsed_constructor_arguments():
    spec = {"kind": "homomorphism", "realization": "quantum-bosonic", "M": 2, "N": 1,
            "divisor": [["1/2", 1]], "dual_divisor": [["5", 2]],
            "options": {"mutation": "range-up"}}
    job = validate_instance(spec)
    assert (job.kind, job.variant, job.model, job.size) == (
        "homomorphism", "quantum-bosonic", "gaudin", (2, 1))
    M, N, div_z, div_lam = job.args
    assert (M, N) == (2, 1)
    assert div_z.points == ((Fraction(1, 2), 1),)
    assert div_lam.points == ((5, 2),)
    assert job.options == {"mutation": "range-up"}
