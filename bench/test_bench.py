"""Self-tests of the benchmark: its workloads, its tracer and its checks.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pass_worker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gaudual import cli, cyclotomic, gaudin, linalg, matrices, poisson, presets, runner  # noqa: E402

# the workload where each per-layer metric should move; it must be nonzero there
HOME = {name: "classical" for name in tracer.METRICS}
HOME.update({name: "quantum" for name in tracer.METRICS if name.startswith("weyl.")})
HOME.update({name: "small-mixed" for name in tracer.METRICS
             if name.split(".")[0] in ("cyclotomic", "ratfunc", "grassmann", "linalg")})
HOME.update({
    "gaudin.quantum_sides_ms": "quantum",
    "matrices.cdet_ms": "quantum",
    "matrices.manin_ms": "quantum",
    "multipoly.substitute_ms": "small-mixed",
    "ratfunc.partial_fractions_ms": "quantum",
})

# metrics that must read exactly zero on a workload: no Weyl or Grassmann code
# runs on classical, no Grassmann code on quantum
ZERO = {
    "classical": [name for name in tracer.METRICS if name.startswith(("weyl.", "grassmann."))],
    "quantum": [name for name in tracer.METRICS if name.startswith("grassmann.")],
}


def test_symbolic_instances_are_paper_core_once():
    symbolic = Counter()
    for name in workloads.WORKLOADS:
        symbolic.update(workloads.canonical(spec)
                        for mode, spec in workloads.instances(name, presets) if mode is None)
    assert symbolic == Counter(workloads.canonical(spec) for spec in presets.paper_core())


def test_workload_sizes_and_sampled_half():
    sizes = {name: len(workloads.instances(name, presets)) for name in workloads.WORKLOADS}
    assert sizes == {"classical": 110, "quantum": 57, "small-mixed": 126}
    sampled = [spec for mode, spec in workloads.instances("small-mixed", presets)
               if mode == "sampled"]
    assert sampled == presets.classical_bosonic_grid()


def test_seed_changes_order_only():
    entries = workloads.instances("quantum", presets)
    one, two = workloads.shuffled(entries, 1), workloads.shuffled(entries, 2)
    assert one == workloads.shuffled(entries, 1)
    assert one != two

    def ids(xs):
        return Counter(workloads.instance_id(mode, spec) for mode, spec in xs)

    assert ids(one) == ids(two) == ids(entries)


def test_tracer_wraps_every_binding_and_restores_them():
    bindings = {
        (gaudin, "poisson_bracket"), (cyclotomic, "poisson_bracket"),
        (gaudin, "cdet"), (gaudin, "manin_check"), (runner, "manin_check"),
        (gaudin, "solve_linear"), (cyclotomic, "in_span"),
        (cyclotomic, "_perm_expansion"), (matrices, "_perm_expansion"),
        (poisson, "poisson_bracket"), (linalg, "in_span"), (cli, "_render"),
    }
    originals = {(mod, name): getattr(mod, name) for mod, name in bindings}
    t = tracer.Tracer()
    with t:
        for mod, name in bindings:
            assert getattr(mod, name).__wrapped__ is originals[mod, name], (mod, name)
        # no gaudual module still binds an unwrapped original
        wrapped = {id(w.__wrapped__) for mod in _gaudual_modules()
                   for w in vars(mod).values() if hasattr(w, "__wrapped__")}
        for mod in _gaudual_modules():
            for name, value in vars(mod).items():
                assert not (callable(value) and id(value) in wrapped), (mod.__name__, name)
    for (mod, name), original in originals.items():
        assert getattr(mod, name) is original


def _gaudual_modules():
    return [m for n, m in sys.modules.items() if n == "gaudual" or n.startswith("gaudual.")]


def _subset(name: str) -> list:
    """One instance of each instance shape in the workload, the one with
    M + N closest to 4: large enough to divide out, small enough to be quick."""
    best = {}
    for mode, spec in workloads.instances(name, presets):
        shape = (mode, spec["kind"], spec.get("realization"), spec.get("flavor"),
                 spec.get("which"), workloads.canonical(spec.get("options", {})))
        size = (abs(spec.get("M", 0) + spec.get("N", 0) - 4), workloads.canonical(spec))
        if shape not in best or size < best[shape][0]:
            best[shape] = (size, (mode, spec))
    return [entry for _, entry in best.values()]


@pytest.fixture(scope="module")
def traced_subsets():
    out = {}
    for name in workloads.WORKLOADS:
        entries = _subset(name)
        plain, _ = pass_worker.run_pass(entries, runner, cli)
        with tracer.Tracer() as t:
            for _, spec in entries:
                runner.validate_instance(spec)
            traced, _ = pass_worker.run_pass(entries, runner, cli)
        out[name] = (t.metrics(), plain, traced)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_home_metrics_nonzero_and_zero_predictions(traced_subsets, name):
    metrics = traced_subsets[name][0]
    home = [m for m, w in HOME.items() if w == name and m != "trace.overhead"]
    assert home
    assert [m for m in home if not metrics[m]] == []
    assert [m for m in ZERO.get(name, []) if metrics[m]] == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_bodies_are_byte_identical(traced_subsets, name):
    _, plain, traced = traced_subsets[name]
    assert [r[3] for r in plain + traced] == [None] * (2 * len(plain))
    assert [workloads.canonical(r[2]) for r in traced] == \
        [workloads.canonical(r[2]) for r in plain]


class _FlakyRunner:
    """Raises for one spec; passes everything else."""

    def __init__(self, bad: dict):
        self.bad = bad

    def run_instance(self, spec, mode=None):
        if spec is self.bad:
            raise KeyError("boom")
        return {"status": "pass", "instance": spec}


def test_a_crash_fails_one_instance_and_the_pass_goes_on():
    entries = [(None, {"kind": "x", "k": k}) for k in range(3)]
    runs, _ = pass_worker.run_pass(entries, _FlakyRunner(entries[1][1]), cli)
    assert [r[3] is None for r in runs] == [True, False, True]
    assert "KeyError" in runs[1][3]
    reasons = pass_worker.failure_reasons(runs[1][2], runs[1][3], {})
    assert reasons and "raised" in reasons[0]


def test_reference_check_counts_changed_values_not_added_keys():
    report = {"status": "pass", "sizes": {"lhs_terms": 3}, "big": "x" * 500}
    reference = {k: pass_worker.stored(v) for k, v in report.items()}
    assert reference["big"].startswith("sha256:")
    assert pass_worker.failure_reasons(dict(report, mode="symbolic"), None, reference) == []
    changed = dict(report, sizes={"lhs_terms": 4})
    assert pass_worker.failure_reasons(changed, None, reference) == ["key 'sizes' changed"]
    missing = {k: v for k, v in report.items() if k != "big"}
    assert pass_worker.failure_reasons(missing, None, reference) == ["key 'big' missing"]
    failing = dict(report, status="fail")
    assert len(pass_worker.failure_reasons(failing, None, reference)) == 2
    assert pass_worker.failure_reasons(report, None, None) == ["no reference report"]
