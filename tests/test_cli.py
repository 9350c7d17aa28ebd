import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gaudual import cli, runner
from gaudual.errors import SpecValidationError
from gaudual.presets import PRESETS, paper_core
from gaudual.runner import run_instance, validate_instance


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "gaudual.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_validation_error_names_constraint():
    with pytest.raises(SpecValidationError) as err:
        validate_instance(
            {
                "kind": "classical-bosonic",
                "M": 1,
                "N": 2,
                "divisor": [["1", 1]],
                "dual_divisor": [["5", 1]],
            }
        )
    assert "Σ τ_i = N" in str(err.value)


def test_cli_exit_2_on_bad_spec(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(
        json.dumps(
            {
                "instances": [
                    {
                        "kind": "classical-bosonic",
                        "M": 1,
                        "N": 2,
                        "divisor": [["1", 1]],
                        "dual_divisor": [["5", 1]],
                    }
                ]
            }
        )
    )
    proc = run_cli("verify", str(spec))
    assert proc.returncode == 2
    assert "τ_i = N" in proc.stderr


def test_cli_exit_1_on_verification_failure(tmp_path):
    # an unmutated homomorphism check declared expect=fail must fail
    spec = tmp_path / "failing.json"
    spec.write_text(
        json.dumps(
            {
                "instances": [
                    {
                        "kind": "homomorphism",
                        "realization": "classical-bosonic",
                        "M": 1,
                        "N": 1,
                        "divisor": [["1", 1]],
                        "dual_divisor": [["5", 1]],
                        "options": {"expect": "fail"},
                    }
                ]
            }
        )
    )
    proc = run_cli("verify", str(spec))
    assert proc.returncode == 1


def test_cli_spec_file_roundtrip(tmp_path):
    spec = tmp_path / "ok.json"
    spec.write_text(
        json.dumps(
            {
                "instances": [
                    {
                        "kind": "classical-bosonic",
                        "M": 1,
                        "N": 1,
                        "divisor": [["2", 1]],
                        "dual_divisor": [["5", 1]],
                    },
                    {"kind": "neumann", "M": 2, "omega": ["1", "2"]},
                ]
            }
        )
    )
    out = tmp_path / "report.jsonl"
    proc = run_cli("verify", str(spec), "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    reports = [json.loads(line) for line in lines]
    assert all(r["status"] == "pass" for r in reports)
    # report order follows spec order
    assert reports[0]["instance"]["kind"] == "classical-bosonic"
    assert reports[1]["instance"]["kind"] == "neumann"


def test_report_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"instances": PRESETS["neumann"]()}))
    outs = []
    for k in range(2):
        out = tmp_path / f"r{k}.jsonl"
        proc = run_cli("verify", str(spec), "--out", str(out))
        assert proc.returncode == 0
        stripped = []
        for line in out.read_text().splitlines():
            obj = json.loads(line)
            obj.pop("timing_ms")
            stripped.append(json.dumps(obj, sort_keys=True))
        outs.append(stripped)
    assert outs[0] == outs[1]


def test_parallel_jobs_preserve_order(tmp_path):
    spec = tmp_path / "spec.json"
    instances = PRESETS["quantum-grid"]()[:4] + PRESETS["neumann"]()
    spec.write_text(json.dumps({"instances": instances}))
    seq = tmp_path / "seq.jsonl"
    par = tmp_path / "par.jsonl"
    assert run_cli("verify", str(spec), "--out", str(seq)).returncode == 0
    assert run_cli("verify", str(spec), "--jobs", "3", "--out", str(par)).returncode == 0

    def strip(path):
        out = []
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            obj.pop("timing_ms")
            out.append(json.dumps(obj, sort_keys=True))
        return out

    assert strip(seq) == strip(par)


def test_serial_import_loads_no_process_pool():
    """The process pool is imported only for --jobs > 1."""
    root = Path(__file__).resolve().parent.parent
    probe = ("import sys, gaudual.cli; "
             "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_presets_listing():
    proc = run_cli("presets")
    assert proc.returncode == 0
    names = proc.stdout.split()
    assert "paper-core" in names
    assert "neumann" in names


def test_preset_neumann_with_size_override():
    proc = run_cli("verify", "--preset", "neumann", "--M", "3")
    assert proc.returncode == 0
    report = json.loads(proc.stdout.splitlines()[0])
    assert report["instance"]["M"] == 3
    assert report["duality"]["common_polynomial_terms"] > 0


@pytest.mark.parametrize("args", [
    ["--preset", "neumann", "--M", "4"],
    ["--preset", "neumann", "--M", "-1"],
    ["--preset", "neumann", "--M", "0"],
    ["--preset", "lax-algebra", "--M", "2"],
    ["SPEC", "--M", "2"],
], ids=["neumann-4", "neumann-minus-1", "neumann-0", "other-preset", "spec-file"])
def test_cli_exit_2_on_m_without_a_neumann_size(tmp_path, capsys, args):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"kind": "neumann", "M": 2, "omega": ["1", "2"]}]))
    argv = ["verify", *(str(spec) if a == "SPEC" else a for a in args)]
    assert cli.main(argv) == 2
    assert "--M needs --preset neumann and one of the sizes [2, 3]" in capsys.readouterr().err


def test_every_paper_core_instance_validates():
    for spec in paper_core():
        validate_instance(spec)


@pytest.mark.parametrize("name", sorted(set(PRESETS) - {"paper-core"}))
def test_every_preset_instance_validates(name):
    for spec in PRESETS[name]():
        validate_instance(spec)


def test_sampled_mode_runs():
    spec = {
        "kind": "classical-bosonic",
        "M": 2,
        "N": 2,
        "divisor": [["1", 2]],
        "dual_divisor": [["5", 2]],
    }
    report = run_instance(spec, mode="sampled")
    assert report["status"] == "pass"
    assert report["mode"] == "sampled"


@pytest.mark.parametrize("flags,modes", [
    ([], ["symbolic", "symbolic", "sampled", "symbolic"]),
    (["--symbolic"], ["symbolic"] * 4),
    (["--sampled"], ["sampled", "symbolic", "sampled", "symbolic"]),
], ids=["spec-options", "symbolic", "sampled"])
def test_reports_say_whether_a_sample_seed_was_used(tmp_path, capsys, flags, modes):
    # only the classical-bosonic duality takes a sample seed; --sampled and
    # --symbolic override a spec's own mode option
    instances = [dict(_GAUDIN, kind="classical-bosonic"), dict(_GAUDIN, kind="quantum-bosonic"),
                 dict(_GAUDIN, kind="classical-bosonic", options={"mode": "sampled"}), _NEUMANN]
    assert cli.main(["verify", _write(tmp_path, instances), *flags]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["mode"] for r in reports] == modes
    assert [r["status"] for r in reports] == ["pass"] * 4


def test_an_error_report_says_its_mode():
    spec = dict(_GAUDIN, kind="classical-bosonic")
    for mode in ("symbolic", "sampled"):
        report = run_instance(spec, mode=mode, max_terms=10)
        assert report["status"] == "error" and "guard" in report["witness"]
        assert report["mode"] == mode


def test_guard_rejects_oversized_instance():
    spec = {
        "kind": "classical-bosonic",
        "M": 2,
        "N": 2,
        "divisor": [["1", 2]],
        "dual_divisor": [["5", 2]],
    }
    report = run_instance(spec, max_terms=10)
    assert report["status"] == "error"
    assert report["witness"]["guard"] == (
        "classical-bosonic instance estimate 6144 exceeds --max-terms 10")


@pytest.mark.parametrize("M", [1307, 1308, 10**6])
def test_guard_refuses_a_large_instance_quickly(M):
    """The estimate is built one factor at a time: at M = 10**6 the guard
    answers in well under a second, and past 4,300 digits, where str() of
    the estimate raises ValueError, its message names M and N instead."""
    spec = {"kind": "classical-bosonic", "M": M, "N": 1, "divisor": [["1", 1]],
            "dual_divisor": [["5", M]]}
    start = time.perf_counter()
    report = run_instance(spec)
    assert time.perf_counter() - start < 1
    assert report["status"] == "error"
    if M == 1307:
        estimate = math.factorial(M + 1) * 4 ** (M + 1)
        want = f"classical-bosonic instance estimate {estimate} exceeds --max-terms 10000000"
    else:
        want = (f"classical-bosonic instance estimate (M + N)! * 4^(M + N) at M = {M}, N = 1 "
                "exceeds --max-terms 10000000")
    assert report["witness"] == {"guard": want}


_GAUDIN = {"M": 1, "N": 1, "divisor": [["1", 1]], "dual_divisor": [["5", 1]]}
_CYCLO = {"M": 2, "N": 2, "tau0": 2, "divisor": [], "lambda_points": ["5", "7"], "mu": "-1"}
_CYCLO_NO_MU = {key: value for key, value in _CYCLO.items() if key != "mu"}
# gaudin fields with the cyclotomic ones but no tau0
_CYCLO_NO_TAU0 = dict(_GAUDIN, lambda_points=["5"], mu="-1")


# each case with a fragment of the message of the rule that must refuse it,
# so a reordering of validate_instance cannot move a case onto another rule
@pytest.mark.parametrize(
    "spec, refusal",
    [
        (dict(_CYCLO, kind="lax-algebra", which="glN"), "unknown Lax algebra family 'glN'"),
        (dict(_CYCLO, kind="lax-algebra"), "unknown Lax algebra family None"),
        (dict(_GAUDIN, kind="commutativity", flavor="fermionic"),
         "unknown commutativity flavor 'fermionic'"),
        (dict(_GAUDIN, kind="homomorphism", realization="quantum-fermionic"),
         "unknown realization 'quantum-fermionic'"),
        (dict(_GAUDIN, kind="homomorphism", options={"mutation": "y-sign"}),
         "unknown mutation 'y-sign' for homomorphism; expected one of ['flip-sign', 'range-up']"),
        (dict(_CYCLO, kind="homomorphism", realization="cyclotomic",
              options={"mutation": "range-up"}),
         "unknown mutation 'range-up' for homomorphism; expected one of ['flip-sign', 'y-sign']"),
        (dict(_GAUDIN, kind="homomorphism", realization="classical-fermionic",
              options={"mutation": "range-up"}),
         "unknown mutation 'range-up' for homomorphism; expected one of ['flip-sign']"),
        (dict(_GAUDIN, kind="classical-bosonic", options={"mutation": "flip-sign"}),
         "unknown mutation 'flip-sign' for classical-bosonic"),
        (dict(_GAUDIN, kind="classical-bosonic", options=None), "options must be an object"),
        (dict(_GAUDIN, kind="classical-bosonic", options={"mutaton": "flip-sign"}),
         "unknown option 'mutaton'"),
        (dict(_GAUDIN, kind="homomorphism", options={"mutation": "flip-sign", "expect": "fial"}),
         "unknown expect 'fial'"),
        (dict(_GAUDIN, kind="classical-bosonic", options={"mode": "sampeld"}),
         "unknown mode 'sampeld'"),
        (dict(_CYCLO, kind="cyclotomic", options={"symbolic_mu": "yes"}),
         "option symbolic_mu must be true or false"),
        (dict(_CYCLO, kind="cyclotomic", options={"quantum_candidate": 1}),
         "option quantum_candidate must be true or false"),
        (dict(_CYCLO, kind="cyclotomic", options={"symbolic_mu": True, "quantum_candidate": True}),
         "the quantum candidate needs a rational mu"),
        (dict(_GAUDIN, kind="commutativity", flavour="quantum"), "unknown field 'flavour'"),
        (["kind"], "an instance must be a JSON object, not ['kind']"),
        ("neumann", "an instance must be a JSON object, not 'neumann'"),
        (3, "an instance must be a JSON object, not 3"),
        (dict(_CYCLO_NO_MU, kind="cyclotomic"), "missing field 'mu' for a cyclotomic instance"),
        (dict(_CYCLO_NO_MU, kind="lax-algebra", which="sp2N"),
         "missing field 'mu' for a lax-algebra instance"),
        # _CYCLO_NO_TAU0 carries dual_divisor, which no cyclotomic check
        # reads: that refuses it first (tau0 alone: the test after this one)
        (dict(_CYCLO_NO_TAU0, kind="cyclotomic"),
         "field 'dual_divisor' is not read by a cyclotomic instance (cyclotomic model)"),
        (dict(_CYCLO_NO_TAU0, kind="homomorphism", realization="cyclotomic"),
         "field 'dual_divisor' is not read by a homomorphism instance (cyclotomic model)"),
        (dict(_CYCLO_NO_TAU0, kind="commutativity", flavor="cyclotomic"),
         "field 'dual_divisor' is not read by a commutativity instance (cyclotomic model)"),
        (dict(_CYCLO, kind="classical-bosonic"),
         "field 'lambda_points' is not read by a classical-bosonic instance (gaudin model)"),
        (dict(_GAUDIN, kind="classical-bosonic", M=0, dual_divisor=[]), "need M >= 1, got 0"),
        (dict(_GAUDIN, kind="quantum-bosonic", options={"mode": "sampled"}),
         "mode 'sampled' is not read by a quantum-bosonic instance"),
        (dict(_GAUDIN, kind="classical-bosonic", divisor=[["1", 1.5]]),
         "the Takiff degree of divisor entry 0 must be a JSON integer, not 1.5"),
        ({"kind": "neumann", "M": 2.9, "omega": ["1", "2"]}, "M must be a JSON integer, not 2.9"),
        (dict(_GAUDIN, kind="classical-bosonic", M=True), "M must be a JSON integer, not True"),
        (dict(_GAUDIN, kind="classical-bosonic", N="1"), "N must be a JSON integer, not '1'"),
        (dict(_CYCLO, kind="cyclotomic", N=2.5), "N must be a JSON integer, not 2.5"),
        (dict(_CYCLO, kind="cyclotomic", tau0=2.7), "tau0 must be a JSON integer, not 2.7"),
        (dict(_CYCLO, kind="cyclotomic", lambda_points="57"),
         "lambda_points must be a JSON list, not '57'"),
        (dict(_GAUDIN, kind="classical-bosonic", dual_divisor={"51": 1}),
         "dual_divisor must be a JSON list, not {'51': 1}"),
        ({"kind": "neumann", "M": 2, "omega": "12"}, "omega must be a JSON list, not '12'"),
        (dict(_GAUDIN, kind="classical-bosonic", divisor=[["1/0", 1]]),
         "'1/0' has a zero denominator"),
        (dict(_CYCLO, kind="cyclotomic", lambda_points=["5", "1/0"]),
         "'1/0' has a zero denominator"),
        (dict(_CYCLO, kind="cyclotomic", mu="1/0"), "'1/0' has a zero denominator"),
        ({"kind": "neumann", "M": 2, "omega": ["1", "1/0"]}, "'1/0' has a zero denominator"),
        (dict(_GAUDIN, kind="classical-bosonic", divisor=[[True, 1]]),
         "cannot interpret True as an exact rational"),
        (dict(_GAUDIN, kind="classical-bosonic", dual_divisor=[[False, 1]]),
         "cannot interpret False as an exact rational"),
        (dict(_CYCLO, kind="cyclotomic", lambda_points=["5", True]),
         "cannot interpret True as an exact rational"),
        (dict(_CYCLO, kind="cyclotomic", mu=True), "cannot interpret True as an exact rational"),
        ({"kind": "neumann", "M": 2, "omega": [True, "2"]},
         "cannot interpret True as an exact rational"),
        (dict(_GAUDIN, kind="classical-bosonic", options={"symbolic_mu": True}),
         "option 'symbolic_mu' is not read by a classical-bosonic instance"),
        (dict(_CYCLO, kind="lax-algebra", which="sp2N", options={"quantum_candidate": True}),
         "option 'quantum_candidate' is not read by a lax-algebra instance with which 'sp2N'"),
        (dict(_CYCLO, kind="homomorphism", realization="cyclotomic",
              options={"quantum_candidate": True}),
         "option 'quantum_candidate' is not read by a homomorphism instance"),
        ({"kind": "neumann", "M": 2, "omega": ["1"]}, "need M frequencies"),
        ({"kind": "neumann", "M": 2, "omega": ["1", "-1"]},
         "frequencies must have distinct squares"),
        (dict(_CYCLO, kind="cyclotomic", tau0=1), "cyclotomic divisor violates τ_0 + Σ τ_i = N"),
        (dict(_CYCLO, kind="cyclotomic", lambda_points=["5"]), "need M distinct lambda points"),
        (dict(_CYCLO, kind="cyclotomic", lambda_points=["5", "5"]),
         "need M distinct lambda points"),
        (dict(_GAUDIN, kind="classical-bosonic", dual_divisor=[["5", 2]]),
         "dual divisor violates Σ τ̃_a = M"),
    ],
    ids=["lax-which", "lax-no-which", "commutativity-flavor", "realization",
         "gaudin-mutation", "cyclotomic-mutation", "fermionic-range-up", "mutation-on-duality", "options-not-object",
         "option-key", "expect-fial", "mode-sampeld", "symbolic-mu-string",
         "quantum-candidate-int", "symbolic-mu-quantum-candidate", "field-flavour", "instance-list", "instance-string",
         "instance-number", "cyclotomic-no-mu", "lax-no-mu", "cyclotomic-no-tau0",
         "cyclotomic-homomorphism-no-tau0", "cyclotomic-commutativity-no-tau0",
         "gaudin-kind-with-tau0", "m-zero", "sampled-mode-on-quantum", "takiff-degree-float",
         "neumann-m-float", "m-bool", "n-string", "cyclotomic-n-float", "tau0-float",
         "lambda-points-string", "dual-divisor-object", "omega-string", "point-over-zero",
         "lambda-point-over-zero", "mu-over-zero", "omega-over-zero", "point-bool",
         "dual-point-bool", "lambda-point-bool", "mu-bool", "omega-bool", "symbolic-mu-on-bosonic",
         "quantum-candidate-on-lax", "quantum-candidate-on-homomorphism", "omega-count",
         "omega-equal-squares", "cyclotomic-degree-sum", "lambda-point-count",
         "lambda-point-repeated", "dual-divisor-degree-sum"],
)
def test_validation_rejects_names_dispatch_cannot_run(spec, refusal):
    with pytest.raises(SpecValidationError, match=re.escape(refusal)):
        validate_instance(spec)
    with pytest.raises(SpecValidationError, match=re.escape(refusal)):
        run_instance(spec)


@pytest.mark.parametrize(
    "spec, field",
    [
        (dict(_GAUDIN, kind="classical-bosonic", tau0=3), "tau0"),
        (dict(_GAUDIN, kind="classical-bosonic", which="sp2N"), "which"),
        (dict(_GAUDIN, kind="classical-bosonic", omega=["1"]), "omega"),
        (dict(_GAUDIN, kind="homomorphism", flavor="quantum"), "flavor"),
        (dict(_GAUDIN, kind="commutativity", realization="quantum-bosonic"), "realization"),
        (dict(_CYCLO, kind="cyclotomic", dual_divisor=[["5", 1]]), "dual_divisor"),
        (dict(_CYCLO, kind="lax-algebra", which="sp2N", flavor="cyclotomic"), "flavor"),
        ({"kind": "neumann", "M": 2, "omega": ["1", "2"], "N": 2}, "N"),
    ],
    ids=["bosonic-tau0", "bosonic-which", "bosonic-omega", "homomorphism-flavor",
         "commutativity-realization", "cyclotomic-dual-divisor", "lax-flavor", "neumann-N"],
)
def test_validation_refuses_a_field_the_model_never_reads(spec, field):
    with pytest.raises(SpecValidationError, match=f"field '{field}' is not read by a {spec['kind']}"):
        run_instance(spec)


@pytest.mark.parametrize(
    "extra",
    [{"kind": "cyclotomic"}, {"kind": "homomorphism", "realization": "cyclotomic"},
     {"kind": "commutativity", "flavor": "cyclotomic"}],
    ids=["cyclotomic", "homomorphism", "commutativity"],
)
def test_validation_of_a_cyclotomic_model_spec_without_tau0_names_it(extra):
    spec = {key: value for key, value in _CYCLO.items() if key != "tau0"}
    with pytest.raises(SpecValidationError, match="missing field 'tau0'"):
        validate_instance(dict(spec, **extra))


def test_cli_exit_2_on_unknown_lax_family(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"instances": [dict(_CYCLO, kind="lax-algebra", which="glN")]}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "unknown Lax algebra family 'glN'" in proc.stderr



def test_cli_exit_2_on_unknown_field(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"instances": [dict(_GAUDIN, kind="commutativity",
                                                   flavour="quantum")]}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "unknown field 'flavour'" in proc.stderr


@pytest.mark.parametrize(
    "options, message",
    [
        ({"mutation": "flip-sign", "expect": "fial"}, "unknown expect 'fial'"),
        ({"mode": "sampeld"}, "unknown mode 'sampeld'"),
    ],
    ids=["expect-fial", "mode-sampeld"],
)
def test_cli_exit_2_on_bad_option_value(tmp_path, options, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"instances": [dict(_GAUDIN, kind="homomorphism", options=options)]}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert message in proc.stderr


# a list or dict where a choice field takes a name: each is refused by the
# field it stands in, not with a TypeError or a bare "unhashable type"
_UNHASHABLE_CHOICES = [
    (dict(_GAUDIN, kind=[]), "unknown kind []"),
    (dict(_GAUDIN, kind={}), "unknown kind {}"),
    (dict(_GAUDIN, kind="homomorphism", realization=[]), "unknown realization []"),
    (dict(_GAUDIN, kind="commutativity", flavor={}), "unknown commutativity flavor {}"),
    (dict(_CYCLO, kind="lax-algebra", which=[]), "unknown Lax algebra family [] in field 'which'"),
    (dict(_GAUDIN, kind="homomorphism", options={"mutation": []}), "unknown mutation []"),
    (dict(_GAUDIN, kind="homomorphism", options={"expect": {}}), "unknown expect {}"),
    (dict(_GAUDIN, kind="classical-bosonic", options={"mode": []}), "unknown mode []"),
]


@pytest.mark.parametrize("spec, message", _UNHASHABLE_CHOICES,
                         ids=["kind-list", "kind-dict", "realization", "flavor", "which",
                              "mutation", "expect", "mode"])
def test_cli_exit_2_on_an_unhashable_choice_names_the_field(tmp_path, capsys, spec, message):
    assert cli.main(["verify", _write(tmp_path, [spec])]) == 2
    err = capsys.readouterr().err
    assert f"instance 0 invalid: {message}" in err
    assert "unhashable" not in err


def test_cli_exit_2_on_a_list_kind_without_a_traceback(tmp_path):
    proc = run_cli("verify", _write(tmp_path, [dict(_GAUDIN, kind=[])]))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "unknown kind []" in proc.stderr


def test_cli_exit_2_on_quantum_candidate_with_symbolic_mu(tmp_path):
    spec = {"kind": "cyclotomic", "M": 1, "N": 1, "tau0": 1, "lambda_points": ["5"], "mu": "0",
            "options": {"symbolic_mu": True, "quantum_candidate": True}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"instances": [spec]}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "the quantum candidate needs a rational mu" in proc.stderr
    assert "Traceback" not in proc.stderr


_NEUMANN = {"kind": "neumann", "M": 2, "omega": ["1", "2"]}


def _write(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_accepts_a_top_level_list(tmp_path, capsys):
    assert cli.main(["verify", _write(tmp_path, [_NEUMANN])]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["instance"] == _NEUMANN


@pytest.mark.parametrize(
    "doc",
    [{"instances": _NEUMANN}, {"kind": "neumann"}, "neumann", 3, None],
    ids=["instances-not-list", "no-instances", "string", "number", "null"],
)
def test_cli_exit_2_on_spec_neither_object_nor_list(tmp_path, capsys, doc):
    assert cli.main(["verify", _write(tmp_path, doc)]) == 2
    assert "spec must be" in capsys.readouterr().err


def test_cli_exit_2_on_a_zero_denominator(tmp_path, capsys):
    doc = [_NEUMANN, dict(_NEUMANN, omega=["1", "1/0"]), _NEUMANN]
    assert cli.main(["verify", _write(tmp_path, doc)]) == 2
    assert "instance 1 invalid: '1/0' has a zero denominator" in capsys.readouterr().err


def test_cli_exit_2_on_a_bool_rational(tmp_path, capsys):
    # JSON true is a Python int, but no rational
    doc = [_NEUMANN, dict(_NEUMANN, omega=[True, "2"])]
    assert cli.main(["verify", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "instance 1 invalid: cannot interpret True as an exact rational" in err


@pytest.mark.parametrize("doc", [[["kind"]], {"instances": ["neumann"]}], ids=["list", "object"])
def test_cli_exit_2_on_non_object_instance(tmp_path, capsys, doc):
    assert cli.main(["verify", _write(tmp_path, doc)]) == 2
    assert "instance 0 invalid: an instance must be a JSON object" in capsys.readouterr().err


def test_reports_stream_as_each_instance_finishes(tmp_path, capsys, monkeypatch):
    # each run sees every earlier report already in --out and its line on stderr
    instances = [dict(_NEUMANN, omega=[str(k), str(k + 1)]) for k in (1, 2, 3)]
    out = tmp_path / "r.jsonl"
    seen = []

    def fake_run_job(job, spec, mode=None, max_terms=None):
        done = out.read_text().splitlines()
        seen.append(([json.loads(line)["instance"] for line in done],
                     capsys.readouterr().err.count("[ pass]")))
        return {"status": "pass", "instance": spec}

    monkeypatch.setattr(cli, "run_job", fake_run_job)
    spec = _write(tmp_path, {"instances": instances})
    assert cli.main(["verify", spec, "--out", str(out)]) == 0
    assert seen == [([], 0), (instances[:1], 1), (instances[:2], 1)]
    assert len(out.read_text().splitlines()) == 3


class _SerialPool:
    """A stand-in for ProcessPoolExecutor that records max_workers and maps
    in this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, work):
        return map(fn, work)


@pytest.mark.parametrize("jobs, count, cpus, workers",
                         [("5000", 1, 8, []), ("5000", 3, 8, [3]), ("2", 3, 8, [2]),
                          ("3", 0, 8, []), ("5000", 3, 2, [2]), ("5000", 3, 1, []),
                          ("5000", 3, None, [])],
                         ids=["one-instance", "capped", "below-the-count", "no-instance",
                              "capped-by-the-cpus", "one-cpu", "cpus-unknown"])
def test_the_pool_gets_no_more_workers_than_instances(tmp_path, capsys, monkeypatch, jobs,
                                                      count, cpus, workers):
    # the pool forks every worker it is allowed at the first submit, so
    # --jobs 5000 on one instance forked 5,000 processes, and on the 257
    # paper-core instances it would fork 257 on a 2-CPU machine; the pool
    # gets at most one worker per instance and per CPU (one when the count
    # is unknown), and with at most one, the run is serial
    import concurrent.futures

    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    instances = [dict(_NEUMANN, omega=[str(k), str(k + 1)]) for k in range(1, count + 1)]
    out = tmp_path / "r.jsonl"
    assert cli.main(["verify", _write(tmp_path, instances), "--jobs", jobs,
                     "--out", str(out)]) == 0
    assert _SerialPool.sizes == workers
    assert len(out.read_text().splitlines()) == count
    assert f"{count} instances, {count} pass" in capsys.readouterr().err


def test_the_cli_parses_each_spec_once(tmp_path, monkeypatch):
    # validation keeps the job it parsed and the worker runs that job, so the
    # divisors are parsed once (the run used to validate the spec again)
    calls = []
    points = runner._points

    def spy(raw, name):
        calls.append(name)
        return points(raw, name)

    monkeypatch.setattr(runner, "_points", spy)
    spec = {"kind": "classical-bosonic", "M": 1, "N": 2, "divisor": [["1", 2]],
            "dual_divisor": [["5", 1]]}
    out = tmp_path / "r.jsonl"
    assert cli.main(["verify", _write(tmp_path, [spec]), "--jobs", "1", "--out", str(out)]) == 0
    assert calls == ["divisor", "dual_divisor"]
    assert json.loads(out.read_text())["status"] == "pass"


def _no_validation(spec):
    raise AssertionError("an instance was validated")


def test_cli_exit_2_on_an_unwritable_out_before_any_work(tmp_path, capsys, monkeypatch):
    # refused before validation, so before the pool starts or any instance runs
    monkeypatch.setattr(cli, "validate_instance", _no_validation)
    out = tmp_path / "missing" / "x.jsonl"
    argv = ["verify", "--preset", "paper-core", "--jobs", "2", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write --out: ") and len(err.splitlines()) == 1
    assert not out.parent.exists()


@pytest.mark.parametrize("flag, value", [("--jobs", "-2"), ("--jobs", "0"),
                                         ("--max-terms", "-1"), ("--max-terms", "0")],
                         ids=["jobs-negative", "jobs-zero", "max-terms-negative", "max-terms-zero"])
def test_cli_exit_2_on_a_count_below_one(tmp_path, capsys, monkeypatch, flag, value):
    # --jobs -2 ran serially and --max-terms -1 made every instance an error
    monkeypatch.setattr(cli, "validate_instance", _no_validation)
    out = tmp_path / "r.jsonl"
    assert cli.main(["verify", "--preset", "neumann", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{flag} must be at least 1, not {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("doc", [[{"kind": "nope"}], [{"kind": "neumann", "M": 2,
                                                        "omega": ["1", "2"]}]],
                         ids=["invalid-spec", "valid-spec"])
def test_cli_exit_2_on_a_spec_file_with_a_preset(tmp_path, capsys, monkeypatch, doc):
    # the preset ran and the spec file was silently ignored, exiting 0
    monkeypatch.setattr(cli, "validate_instance", _no_validation)
    spec, out = tmp_path / "spec.json", tmp_path / "r.jsonl"
    spec.write_text(json.dumps(doc))
    assert cli.main(["verify", str(spec), "--preset", "neumann", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "give a spec file or --preset, not both\n"
    assert not out.exists()


_LAX = {"kind": "lax-algebra", "which": "sp2N", "M": 1, "N": 1, "tau0": 1, "divisor": [],
        "lambda_points": ["5"], "mu": "-1"}


def _crashing_check(inst, which):
    raise KeyError("missing entry")


def test_crash_in_one_instance_is_an_error_report(monkeypatch):
    monkeypatch.setattr(runner, "lax_algebra_check", _crashing_check)
    for options in ({}, {"expect": "fail"}):
        report = run_instance(dict(_LAX, options=options))
        assert report["status"] == "error"
        assert "expected" not in report
        witness = report["witness"]
        assert witness["error"] == "KeyError"
        assert witness["detail"] == "'missing entry'"
        line = _crashing_check.__code__.co_firstlineno + 1
        assert witness["where"] == f"test_cli.py:{line}"


def test_crash_still_raises_on_an_invalid_spec(monkeypatch):
    monkeypatch.setattr(runner, "lax_algebra_check", _crashing_check)
    with pytest.raises(SpecValidationError):
        run_instance(dict(_LAX, which="gl2"))


def test_cli_runs_on_after_a_crash_and_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(runner, "lax_algebra_check", _crashing_check)
    out = tmp_path / "r.jsonl"
    assert cli.main(["verify", _write(tmp_path, [_LAX, _NEUMANN]), "--out", str(out)]) == 1
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["status"] for r in reports] == ["error", "pass"]
    assert reports[0]["witness"]["error"] == "KeyError"
    assert "1 pass, 0 fail, 1 error" in capsys.readouterr().err


def test_readme_python_example_prints_a_passing_report():
    """README.md's one python block, run as a script on the source tree."""
    root = Path(__file__).resolve().parent.parent
    blocks = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 0, proc.stderr
    assert "'status': 'pass'" in proc.stdout


def _with_divisor_entry(model, field, bad):
    """A spec of model whose field ends with the entry bad."""
    if model == "cyclotomic":
        return dict(_CYCLO, kind="cyclotomic", N=3, **{field: [["1", 1], bad]})
    return dict(_GAUDIN, kind="classical-bosonic", **{field: [["1", 1], bad]})


@pytest.mark.parametrize(
    "model, field, bad",
    [("gaudin", "divisor", ["1", 1, "x"]),
     ("gaudin", "divisor", 5),
     ("gaudin", "divisor", []),
     ("gaudin", "dual_divisor", "ab"),
     ("cyclotomic", "divisor", ["2"])],
    ids=["three-fields", "number", "empty", "string", "cyclotomic-one-field"],
)
def test_cli_exit_2_on_a_malformed_divisor_entry(tmp_path, capsys, model, field, bad):
    # these were refused with a bare unpacking error, and "ab" was read as a
    # (point, degree) pair
    doc = [_NEUMANN, _with_divisor_entry(model, field, bad)]
    assert cli.main(["verify", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        f"instance 1 invalid: {field} entry 1 must be a JSON list [point, Takiff degree], "
        f"not {bad!r}\n")


def test_cli_exit_2_on_a_float_degree_names_the_entry(tmp_path, capsys):
    doc = [_with_divisor_entry("gaudin", "dual_divisor", ["7", 1.5])]
    assert cli.main(["verify", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == ("instance 0 invalid: the Takiff degree of dual_divisor "
                                       "entry 1 must be a JSON integer, not 1.5\n")
