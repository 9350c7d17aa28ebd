"""The classical z sides that runner.run_job shares between the jobs of one
(M, N, divisor, dual_divisor): the classical duality job and the classical
commutativity job of a spec build their z side once, whichever runs first,
and report what they report from empty stores.  A quantum side, a sampled
side, a side that raises and the side of an instance built outside run_job
are never shared."""

import pytest

from gaudual import gaudin, presets, runner
from gaudual.multipoly import MultiPoly
from gaudual.runner import run_instance, validate_instance
from helpers import build_instance, perturb_divided_expansion

# (duality spec, commutativity spec) on the same (M, N, divisors)
SIBLINGS = [(spec, dict(spec, kind="commutativity", flavor="classical"))
            for spec in presets.classical_bosonic_grid()]
QUANTUM_SIBLINGS = [(spec, dict(spec, kind="commutativity", flavor="quantum"))
                    for spec in presets.quantum_grid()]
SMALL = {"kind": "classical-bosonic", "M": 2, "N": 2, "divisor": [["1", 1], ["2", 1]],
         "dual_divisor": [["5", 2]]}


def _side_builds(monkeypatch) -> list:
    """Record each classical side determinant (_side_det) and each quantum
    side (_cdet_side) built from now on, as ("det" or "cdet", its variable)."""
    calls = []
    side_det, cdet_side = gaudin._side_det, gaudin._cdet_side

    def det_spy(inst, spec_var, *args):
        calls.append(("det", spec_var))
        return side_det(inst, spec_var, *args)

    def cdet_spy(entries, divisor, var):
        calls.append(("cdet", var))
        return cdet_side(entries, divisor, var)

    monkeypatch.setattr(gaudin, "_side_det", det_spy)
    monkeypatch.setattr(gaudin, "_cdet_side", cdet_spy)
    return calls


def _fresh(spec: dict, mode=None) -> dict:
    """The report of spec run from empty stores."""
    runner._shared.clear()
    return run_instance(spec, mode)


def _store_of(spec: dict) -> dict | None:
    return runner._shared.get(validate_instance(spec).args)


def _z_builds_in_either_order(monkeypatch, duality, commuting, z_build) -> list[int]:
    """How often each order of the two siblings, from empty stores, builds
    z_build; each order must give the bodies of fresh stores."""
    want = {"duality": _fresh(duality), "commutativity": _fresh(commuting)}
    assert want["duality"]["status"] == want["commutativity"]["status"] == "pass"
    calls = _side_builds(monkeypatch)
    counts = []
    for order in (("duality", "commutativity"), ("commutativity", "duality")):
        runner._shared.clear()
        calls.clear()
        got = {name: run_instance(duality if name == "duality" else commuting)
               for name in order}
        assert got == want, order
        counts.append(calls.count(z_build))
    return counts


@pytest.mark.parametrize("duality, commuting", SIBLINGS,
                         ids=[f"classical-{k}" for k in range(len(SIBLINGS))])
def test_siblings_build_their_z_side_once_in_either_order(monkeypatch, duality, commuting):
    assert _z_builds_in_either_order(monkeypatch, duality, commuting, ("det", "z")) == [1, 1]


@pytest.mark.parametrize("duality, commuting", QUANTUM_SIBLINGS,
                         ids=[f"quantum-{k}" for k in range(len(QUANTUM_SIBLINGS))])
def test_quantum_siblings_each_build_their_z_side(monkeypatch, duality, commuting):
    assert _z_builds_in_either_order(monkeypatch, duality, commuting, ("cdet", "z")) == [2, 2]


def test_a_sampled_run_neither_reads_nor_fills_the_store():
    sampled = _fresh(SMALL, "sampled")
    assert sampled["status"] == "pass" and sampled["mode"] == "sampled"
    assert runner._shared == {}
    # a wrong z side in the spec's store: the symbolic run reads it, the
    # sampled run does not
    runner._store(validate_instance(SMALL).args)["classical"] = MultiPoly.const(1)
    assert run_instance(SMALL, "sampled") == sampled
    assert run_instance(SMALL)["status"] == "fail"


def test_a_refused_z_side_is_not_kept_and_its_sibling_rebuilds_it(monkeypatch):
    commuting = dict(SMALL, kind="commutativity", flavor="classical")
    want = _fresh(commuting)
    runner._shared.clear()
    perturb_divided_expansion(monkeypatch, gaudin, 0)
    report = run_instance(SMALL)
    assert report["status"] == "fail" and report["witness"]["side"] == "z"
    assert _store_of(SMALL) == {}
    monkeypatch.undo()
    calls = _side_builds(monkeypatch)
    assert run_instance(commuting) == want
    assert calls == [("det", "z")]
    assert list(_store_of(SMALL)) == ["classical"]


def test_a_crashed_z_side_is_not_kept_and_its_sibling_rebuilds_it(monkeypatch):
    commuting = dict(SMALL, kind="commutativity", flavor="classical")
    want = _fresh(SMALL)
    runner._shared.clear()

    def crash(inst, spec_var, *args):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(gaudin, "_side_det", crash)
    report = run_instance(commuting)
    assert report["status"] == "error"
    assert report["witness"]["error"] == "ZeroDivisionError"
    assert _store_of(SMALL) == {}
    monkeypatch.undo()
    calls = _side_builds(monkeypatch)
    assert run_instance(SMALL) == want
    assert calls == [("det", "z"), ("det", "lam")]


def test_specs_that_differ_only_in_the_dual_divisor_get_different_z_sides(monkeypatch):
    # the dual divisor's Jordan data are the images at infinity of L^D(z)
    other = dict(SMALL, kind="commutativity", flavor="classical",
                 dual_divisor=[["5", 1], ["7", 1]])
    want = _fresh(other)
    runner._shared.clear()
    calls = _side_builds(monkeypatch)
    assert run_instance(SMALL)["status"] == "pass"
    assert run_instance(other) == want
    assert calls.count(("det", "z")) == 2
    assert _store_of(SMALL)["classical"] != _store_of(other)["classical"]


def test_an_instance_built_outside_run_job_has_no_store(monkeypatch):
    inst = build_instance(SMALL)
    assert inst.shared is None
    calls = _side_builds(monkeypatch)
    first = gaudin._classical_spectral_poly(inst)
    assert gaudin._classical_spectral_poly(inst) == first
    assert calls == [("det", "z"), ("det", "z")]
    assert runner._shared == {}


def test_the_stores_are_dropped_least_recently_used_first(monkeypatch):
    monkeypatch.setattr(runner, "SHARED_LIMIT", 2)
    first, second = runner._store("a"), runner._store("b")
    assert runner._store("a") is first  # now the most recently used
    runner._store("c")
    assert list(runner._shared) == ["a", "c"]
    assert runner._store("a") is first and runner._store("b") is not second
