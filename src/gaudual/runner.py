"""Instance validation and dispatch.

An instance is a plain JSON-compatible dict (see README for the schema);
rationals travel as "p/q" strings so exactness survives serialization.
Reports are deterministic dicts: no timestamps, sizes and witnesses only.

Validation parses every field once and returns the job that dispatch runs:
the check is looked up in CHECKS, and its model is built from arguments
that validation has already converted.
"""

from __future__ import annotations

import os
from collections import namedtuple
from fractions import Fraction

from .cyclotomic import (
    CycloDivisor,
    CycloInstance,
    extract_cyclotomic_generators,
    lax_algebra_check,
    neumann_artifacts,
    quantum_cyclotomic_candidate,
    verify_cyclotomic_duality,
    verify_cyclotomic_homomorphisms,
)
from .errors import GaudualError, GuardExceeded, SpecValidationError
from .gaudin import (
    Divisor,
    DualityInstance,
    check_commutativity,
    extract_gaudin_generators,
    verify_classical_bosonic_duality,
    verify_classical_fermionic_duality,
    verify_homomorphism,
    verify_quantum_duality,
)
from .matrices import manin_check
from .multipoly import MultiPoly
from .scalars import rat

SAMPLE_SEED = 8093  # fixed: sampled runs stay deterministic

# A runnable check: the model its instance is built on ("gaudin": a
# DualityInstance, "cyclotomic": a CycloInstance, "neumann": M and the
# frequencies), run(instance, options, sample seed) -> report, the options
# it reads besides expect and mutation, and the mutations it understands.
# Every check reads mode at its default "symbolic"; one that reads mode
# also runs at a sample point.  run looks the verifiers up among this
# module's globals when it is called, so a patched binding is seen.
Check = namedtuple("Check", "model run options mutations", defaults=(frozenset(), frozenset()))
# A validated instance: its check is CHECKS[kind, variant], args are the
# model's constructor arguments, size is (M, N) for the guard.
Job = namedtuple("Job", "kind variant model args size options")


def _commuting(gens: list, flavor: str) -> dict:
    return dict(check_commutativity(gens, flavor), generators=len(gens))


def _cyclotomic_duality(inst: CycloInstance, opts: dict, seed) -> dict:
    if not opts.get("quantum_candidate"):
        return verify_cyclotomic_duality(inst)
    ok, witness = manin_check(quantum_cyclotomic_candidate(inst))
    return {"status": "pass" if ok else "fail", "manin": ok,
            "witness": None if ok else {"manin_quadruple": list(witness)}}


_MU = frozenset({"symbolic_mu"})  # read by every check on the cyclotomic model
# "range-up" reads a psi or pi past the last index, which the fermionic map
# has no generator for
_BOSONIC = frozenset({"flip-sign", "range-up"})
CHECKS = {
    ("classical-bosonic", None): Check(
        "gaudin", lambda inst, opts, seed: verify_classical_bosonic_duality(
            inst, sample_seed=seed), frozenset({"mode"})),
    ("classical-fermionic", None): Check(
        "gaudin", lambda inst, opts, seed: verify_classical_fermionic_duality(inst)),
    ("quantum-bosonic", None): Check(
        "gaudin", lambda inst, opts, seed: verify_quantum_duality(inst)),
    ("cyclotomic", None): Check("cyclotomic", _cyclotomic_duality, _MU | {"quantum_candidate"}),
    ("neumann", None): Check("neumann", lambda args, opts, seed: neumann_artifacts(*args)),
    ("homomorphism", "classical-bosonic"): Check(
        "gaudin", lambda inst, opts, seed: verify_homomorphism(
            inst, "classical", opts.get("mutation")), mutations=_BOSONIC),
    ("homomorphism", "classical-fermionic"): Check(
        "gaudin", lambda inst, opts, seed: verify_homomorphism(
            inst, "fermionic", opts.get("mutation")), mutations=frozenset({"flip-sign"})),
    ("homomorphism", "quantum-bosonic"): Check(
        "gaudin", lambda inst, opts, seed: verify_homomorphism(
            inst, "quantum", opts.get("mutation")), mutations=_BOSONIC),
    ("homomorphism", "cyclotomic"): Check(
        "cyclotomic", lambda inst, opts, seed: verify_cyclotomic_homomorphisms(
            inst, opts.get("mutation")), _MU, frozenset({"flip-sign", "y-sign"})),
    ("commutativity", "classical"): Check(
        "gaudin", lambda inst, opts, seed: _commuting(
            extract_gaudin_generators(inst, "classical"), "classical")),
    ("commutativity", "quantum"): Check(
        "gaudin", lambda inst, opts, seed: _commuting(
            extract_gaudin_generators(inst, "quantum"), "quantum")),
    ("commutativity", "cyclotomic"): Check(
        "cyclotomic", lambda inst, opts, seed: _commuting(
            extract_cyclotomic_generators(inst), "classical"), _MU),
    ("lax-algebra", "cyclotomic-glM"): Check(
        "cyclotomic", lambda inst, opts, seed: lax_algebra_check(inst, "cyclotomic-glM"), _MU),
    ("lax-algebra", "sp2N"): Check(
        "cyclotomic", lambda inst, opts, seed: lax_algebra_check(inst, "sp2N"), _MU),
}
# the field that names a kind's variant, its default, and how messages name it
VARIANTS = {"homomorphism": ("realization", "classical-bosonic", "realization"),
            "commutativity": ("flavor", "classical", "commutativity flavor"),
            "lax-algebra": ("which", None, "Lax algebra family")}
# the top-level fields each model reads; a kind with a variant reads its field too
MODEL_KEYS = {
    "neumann": {"kind", "M", "omega", "options"},
    "cyclotomic": {"kind", "M", "N", "tau0", "divisor", "lambda_points", "mu", "options"},
    "gaudin": {"kind", "M", "N", "divisor", "dual_divisor", "options"},
}
# the top-level fields of the README schema
SPEC_KEYS = set().union(*MODEL_KEYS.values(), (field for field, _, _ in VARIANTS.values()))
OPTION_CHOICES = {"expect": {"pass", "fail"}, "mode": {"symbolic", "sampled"}}
BOOLEAN_OPTIONS = ("symbolic_mu", "quantum_candidate")
OPTION_KEYS = {"mutation", *OPTION_CHOICES, *BOOLEAN_OPTIONS}
# 2^14284 < 10^4300: a guard estimate of at most this many bits has at most
# 4,300 digits, Python's default limit for str() of an int, so it is shown
_SHOWN_BITS = 14_284


def _integer(value, name: str) -> int:
    """A JSON integer field: a float, a bool or a string is refused, not
    truncated."""
    if type(value) is not int:
        raise SpecValidationError(f"{name} must be a JSON integer, not {value!r}")
    return value


def _size(spec: dict, name: str) -> int:
    """M or N: a JSON integer of at least 1."""
    value = _integer(spec[name], name)
    if value < 1:
        raise SpecValidationError(f"need {name} >= 1, got {value}")
    return value


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise SpecValidationError(f"{name} must be a JSON list, not {value!r}")
    return value


def _points(raw, name: str) -> tuple[tuple[Fraction, int], ...]:
    """A divisor field: a list of [point, Takiff degree] lists."""
    points = []
    for k, entry in enumerate(_list(raw, name)):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SpecValidationError(
                f"{name} entry {k} must be a JSON list [point, Takiff degree], not {entry!r}")
        p, t = entry
        points.append((rat(p), _integer(t, f"the Takiff degree of {name} entry {k}")))
    return tuple(points)


def _one_of(value, choices) -> bool:
    """value in choices, for any JSON value: a list or dict is no choice."""
    return isinstance(value, str) and value in choices


def validate_instance(spec: dict) -> Job:
    """Parse every field the instance's check reads, refuse every field and
    option it does not, and return the job run_job runs; raises
    SpecValidationError."""
    if not isinstance(spec, dict):
        raise SpecValidationError(f"an instance must be a JSON object, not {spec!r}")
    kind = spec.get("kind")
    if not _one_of(kind, {k for k, _ in CHECKS}):
        raise SpecValidationError(f"unknown kind {kind!r}")
    try:
        unknown = sorted(set(spec) - SPEC_KEYS)
        if unknown:
            raise SpecValidationError(
                f"unknown field {unknown[0]!r}; expected fields among {sorted(SPEC_KEYS)}")
        field, default, noun = VARIANTS.get(kind, (None, None, None))
        variant = spec.get(field, default) if field else None
        if field and not (isinstance(variant, str) and (kind, variant) in CHECKS):
            raise SpecValidationError(
                f"unknown {noun} {variant!r} in field {field!r}; "
                f"expected one of {sorted(v for k, v in CHECKS if k == kind)}")
        check = CHECKS[kind, variant]
        options = _options(kind, variant, check, spec.get("options", {}))
        allowed = MODEL_KEYS[check.model] | ({field} if field else set())
        unread = sorted(set(spec) - allowed)
        if unread:
            raise SpecValidationError(
                f"field {unread[0]!r} is not read by a {kind} instance ({check.model} model); "
                f"expected fields among {sorted(allowed)}")
        M = _size(spec, "M")
        if check.model == "neumann":
            omegas = [rat(w) for w in _list(spec["omega"], "omega")]
            if len(omegas) != M:
                raise SpecValidationError("need M frequencies")
            if len({w * w for w in omegas}) != len(omegas):
                raise SpecValidationError("frequencies must have distinct squares")
            return Job(kind, variant, check.model, (M, omegas), (M, 1), options)
        N = _size(spec, "N")
        if check.model == "cyclotomic":
            tau0 = _integer(spec["tau0"], "tau0")
            pts = _points(spec.get("divisor", []), "divisor")
            total = tau0 + sum(t for _, t in pts)
            if total != N:
                raise SpecValidationError(
                    f"cyclotomic divisor violates τ_0 + Σ τ_i = N: {total} != {N}")
            lams = [rat(p) for p in _list(spec["lambda_points"], "lambda_points")]
            if len(lams) != M or len(set(lams)) != M:
                raise SpecValidationError("need M distinct lambda points")
            mu = MultiPoly.var("mu") if options.get("symbolic_mu") else rat(spec["mu"])
            args = (M, CycloDivisor(tau0, pts), lams, mu)  # checks 0 != z_i != +-z_j
        else:
            dz = _points(spec["divisor"], "divisor")
            dl = _points(spec["dual_divisor"], "dual_divisor")
            if sum(t for _, t in dz) != N:
                raise SpecValidationError(
                    f"divisor violates Σ τ_i = N: {sum(t for _, t in dz)} != {N}")
            if sum(t for _, t in dl) != M:
                raise SpecValidationError(
                    f"dual divisor violates Σ τ̃_a = M: {sum(t for _, t in dl)} != {M}")
            args = (M, N, Divisor(dz), Divisor(dl))
        return Job(kind, variant, check.model, args, (M, N), options)
    except SpecValidationError:
        raise
    except KeyError as err:
        raise SpecValidationError(f"missing field {err} for a {kind} instance") from err
    except (ValueError, TypeError, GaudualError) as err:
        raise SpecValidationError(str(err)) from err


def _options(kind: str, variant: str | None, check: Check, options) -> dict:
    """The options of an instance whose check is check, each key known, each
    value one the check accepts, and each key one it reads."""
    if not isinstance(options, dict):
        raise SpecValidationError(f"options must be an object, not {options!r}")
    unknown = sorted(set(options) - OPTION_KEYS)
    if unknown:
        raise SpecValidationError(
            f"unknown option {unknown[0]!r}; expected keys among {sorted(OPTION_KEYS)}")
    for key, choices in OPTION_CHOICES.items():
        if key in options and not _one_of(options[key], choices):
            raise SpecValidationError(
                f"unknown {key} {options[key]!r}; expected one of {sorted(choices)}")
    if options.get("mode") == "sampled" and "mode" not in check.options:
        raise SpecValidationError(f"mode 'sampled' is not read by a {kind} instance")
    for key in BOOLEAN_OPTIONS:
        if key in options and not isinstance(options[key], bool):
            raise SpecValidationError(f"option {key} must be true or false, not {options[key]!r}")
        if key in options and key not in check.options:
            raise SpecValidationError(
                f"option {key!r} is not read by a {kind} instance"
                + (f" with {VARIANTS[kind][0]} {variant!r}" if variant else ""))
    if options.get("symbolic_mu") and options.get("quantum_candidate"):
        raise SpecValidationError("the quantum candidate needs a rational mu, not symbolic_mu")
    mutation = options.get("mutation")
    if mutation is not None and not _one_of(mutation, check.mutations):
        raise SpecValidationError(
            f"unknown mutation {mutation!r} for {kind}; expected one of {sorted(check.mutations)}")
    return options


def _size_guard(kind: str, M: int, N: int, max_terms: int) -> None:
    # crude desk-scale ceiling: the bivariate determinant has at most
    # (M + N)! * 4^(M + N) monomials before cancellation.  The estimate is
    # built one factor at a time, and only while it is at most max_terms or
    # printable, so a huge M + N costs a few thousand small products
    estimate, k = 1, 0
    while k < M + N and (estimate <= max_terms or estimate.bit_length() <= _SHOWN_BITS):
        k += 1
        estimate *= 4 * k
    if estimate > max_terms:
        shown = (estimate if estimate.bit_length() <= _SHOWN_BITS
                 else f"(M + N)! * 4^(M + N) at M = {M}, N = {N}")
        raise GuardExceeded(f"{kind} instance estimate {shown} exceeds --max-terms {max_terms}")


def _instance(job: Job):
    """The instance job's check runs on, built from its parsed arguments."""
    if job.model == "neumann":
        return job.args
    return (DualityInstance if job.model == "gaudin" else CycloInstance)(*job.args)


def run_instance(spec: dict, mode: str | None = None, max_terms: int = 10**7) -> dict:
    """Validate and run one instance (run_job)."""
    return run_job(validate_instance(spec), spec, mode, max_terms)


def run_job(job: Job, spec: dict, mode: str | None = None, max_terms: int = 10**7) -> dict:
    """The deterministic report body of the job validate_instance(spec) gave,
    whose ``mode`` says if a sample seed was used ("sampled") or not ("symbolic")."""
    check = CHECKS[job.kind, job.variant]
    opts = dict(job.options, mode=mode) if mode else job.options
    # only a check that reads mode has a sampled form
    sampled = opts.get("mode") == "sampled" and "mode" in check.options
    try:
        # the guard comes first: it refuses an instance too large to build
        _size_guard(job.kind, *job.size, max_terms)
        report = check.run(_instance(job), opts, SAMPLE_SEED if sampled else None)
    except GuardExceeded as err:
        report = {"status": "error", "witness": {"guard": str(err)}}
    except GaudualError as err:
        report = {"status": "error", "witness": {"error": type(err).__name__, "detail": str(err)}}
    except Exception as err:  # a crash ends this instance, not the batch
        # imported here: traceback loads linecache and tokenize, which a run
        # without a crash never needs
        import traceback

        frame = traceback.extract_tb(err.__traceback__)[-1]
        report = {
            "status": "error",
            "witness": {"error": type(err).__name__, "detail": str(err),
                        "where": f"{os.path.basename(frame.filename)}:{frame.lineno}"},
        }
    else:
        if opts.get("expect") == "fail":
            inner = report.get("status")
            report["status"] = "pass" if inner == "fail" else "fail"
            report["expected"] = "fail"
            if report["status"] == "pass" and "witness" not in report:
                report["witness"] = {"note": "inner check failed as expected"}
    report["instance"] = spec
    report["mode"] = "sampled" if sampled else "symbolic"
    return report
