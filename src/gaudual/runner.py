"""Instance validation and dispatch.

An instance is a plain JSON-compatible dict (see README for the schema);
rationals travel as "p/q" strings so exactness survives serialization.
Reports are deterministic dicts: no timestamps, sizes and witnesses only.
"""

from __future__ import annotations

import os
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

KINDS = {
    "classical-bosonic",
    "classical-fermionic",
    "quantum-bosonic",
    "cyclotomic",
    "neumann",
    "homomorphism",
    "commutativity",
    "lax-algebra",
}

SAMPLE_SEED = 8093  # fixed: sampled runs stay deterministic

LAX_FAMILIES = {"cyclotomic-glM", "sp2N"}
COMMUTATIVITY_FLAVORS = {"classical", "quantum", "cyclotomic"}
GAUDIN_FLAVORS = {
    "classical-bosonic": "classical",
    "classical-fermionic": "fermionic",
    "quantum-bosonic": "quantum",
}
# the mutations each realization map understands; "range-up" reads a psi or
# pi past the last index, which the fermionic map has no generator for
MUTATIONS = {
    "classical-bosonic": {"flip-sign", "range-up"},
    "classical-fermionic": {"flip-sign"},
    "quantum-bosonic": {"flip-sign", "range-up"},
    "cyclotomic": {"flip-sign", "y-sign"},
}
# the keys `options` may carry besides `mutation`, with their values
OPTION_CHOICES = {"expect": {"pass", "fail"}, "mode": {"symbolic", "sampled"}}
BOOLEAN_OPTIONS = ("symbolic_mu", "quantum_candidate")
OPTION_KEYS = {"mutation", *OPTION_CHOICES, *BOOLEAN_OPTIONS}
# the top-level fields each model reads, and the ones only one kind reads
MODEL_KEYS = {
    "neumann": {"kind", "M", "omega", "options"},
    "cyclotomic": {"kind", "M", "N", "tau0", "divisor", "lambda_points", "mu", "options"},
    "gaudin": {"kind", "M", "N", "divisor", "dual_divisor", "options"},
}
KIND_KEYS = {"homomorphism": {"realization"}, "commutativity": {"flavor"},
             "lax-algebra": {"which"}}
# the top-level fields of the README schema
SPEC_KEYS = set().union(*MODEL_KEYS.values(), *KIND_KEYS.values())
# 2^14284 < 10^4300: a guard estimate of at most this many bits has at most
# 4,300 digits, Python's default limit for str() of an int, so it is shown
_SHOWN_BITS = 14_284


def _integer(value, name: str) -> int:
    """A JSON integer field: a float, a bool or a string is refused, not
    truncated."""
    if type(value) is not int:
        raise SpecValidationError(f"{name} must be a JSON integer, not {value!r}")
    return value


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise SpecValidationError(f"{name} must be a JSON list, not {value!r}")
    return value


def _points(raw, name: str) -> list[tuple[Fraction, int]]:
    """A divisor field: a list of [point, Takiff degree] lists."""
    points = []
    for k, entry in enumerate(_list(raw, name)):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SpecValidationError(
                f"{name} entry {k} must be a JSON list [point, Takiff degree], not {entry!r}")
        p, t = entry
        points.append((rat(p), _integer(t, f"the Takiff degree of {name} entry {k}")))
    return points


def _one_of(value, choices) -> bool:
    """value in choices, for any JSON value: a list or dict is no choice."""
    return isinstance(value, str) and value in choices


def _model(spec: dict) -> str:
    """The model dispatch builds an instance on: "neumann", "cyclotomic"
    (CycloInstance) or "gaudin" (DualityInstance)."""
    kind = spec["kind"]
    if kind == "neumann":
        return "neumann"
    if (kind in ("cyclotomic", "lax-algebra")
            or kind == "homomorphism" and spec.get("realization") == "cyclotomic"
            or kind == "commutativity" and spec.get("flavor") == "cyclotomic"):
        return "cyclotomic"
    return "gaudin"


def validate_instance(spec: dict) -> None:
    """Cheap validation of every field the instance's builder reads, and
    refusal of every field it does not; raises SpecValidationError."""
    if not isinstance(spec, dict):
        raise SpecValidationError(f"an instance must be a JSON object, not {spec!r}")
    kind = spec.get("kind")
    if not _one_of(kind, KINDS):
        raise SpecValidationError(f"unknown kind {kind!r}")
    try:
        _check_choices(kind, spec)
        model = _model(spec)
        allowed = MODEL_KEYS[model] | KIND_KEYS.get(kind, set())
        unread = sorted(set(spec) - allowed)
        if unread:
            raise SpecValidationError(
                f"field {unread[0]!r} is not read by a {kind} instance ({model} model); "
                f"expected fields among {sorted(allowed)}"
            )
        M = _integer(spec["M"], "M")
        if M < 1:
            raise SpecValidationError(f"need M >= 1, got {M}")
        if model == "neumann":
            omegas = [rat(w) for w in _list(spec["omega"], "omega")]
            if len(omegas) != M:
                raise SpecValidationError("need M frequencies")
            if len({w * w for w in omegas}) != len(omegas):
                raise SpecValidationError("frequencies must have distinct squares")
            return
        N = _integer(spec["N"], "N")
        if N < 1:
            raise SpecValidationError(f"need N >= 1, got {N}")
        if model == "cyclotomic":
            tau0 = _integer(spec["tau0"], "tau0")
            pts = _points(spec.get("divisor", []), "divisor")
            total = tau0 + sum(t for _, t in pts)
            if total != N:
                raise SpecValidationError(
                    f"cyclotomic divisor violates τ_0 + Σ τ_i = N: {total} != {N}"
                )
            lams = [rat(p) for p in _list(spec["lambda_points"], "lambda_points")]
            if len(lams) != M or len(set(lams)) != M:
                raise SpecValidationError("need M distinct lambda points")
            if not spec.get("options", {}).get("symbolic_mu"):
                rat(spec["mu"])
            CycloDivisor.of(tau0, pts)  # distinctness of +-z_i
        else:
            dz = _points(spec["divisor"], "divisor")
            dl = _points(spec["dual_divisor"], "dual_divisor")
            if sum(t for _, t in dz) != N:
                raise SpecValidationError(
                    f"divisor violates Σ τ_i = N: {sum(t for _, t in dz)} != {N}"
                )
            if sum(t for _, t in dl) != M:
                raise SpecValidationError(
                    f"dual divisor violates Σ τ̃_a = M: {sum(t for _, t in dl)} != {M}"
                )
            Divisor.of(dz)
            Divisor.of(dl)
    except SpecValidationError:
        raise
    except KeyError as err:
        raise SpecValidationError(f"missing field {err} for a {kind} instance") from err
    except (ValueError, TypeError, GaudualError) as err:
        raise SpecValidationError(str(err)) from err


def _check_choices(kind: str, spec: dict) -> None:
    """Reject the names dispatch would fail on or silently ignore."""
    unknown = sorted(set(spec) - SPEC_KEYS)
    if unknown:
        raise SpecValidationError(
            f"unknown field {unknown[0]!r}; expected fields among {sorted(SPEC_KEYS)}"
        )
    if kind == "lax-algebra" and not _one_of(spec.get("which"), LAX_FAMILIES):
        raise SpecValidationError(
            f"unknown Lax algebra family {spec.get('which')!r} in field 'which'; "
            f"expected one of {sorted(LAX_FAMILIES)}"
        )
    if kind == "commutativity" and not _one_of(spec.get("flavor", "classical"),
                                               COMMUTATIVITY_FLAVORS):
        raise SpecValidationError(
            f"unknown commutativity flavor {spec.get('flavor')!r}; "
            f"expected one of {sorted(COMMUTATIVITY_FLAVORS)}"
        )
    allowed = set()
    if kind == "homomorphism":
        realization = spec.get("realization", "classical-bosonic")
        if not _one_of(realization, MUTATIONS):
            raise SpecValidationError(
                f"unknown realization {realization!r}; expected one of {sorted(MUTATIONS)}"
            )
        allowed = MUTATIONS[realization]
    options = spec.get("options", {})
    if not isinstance(options, dict):
        raise SpecValidationError(f"options must be an object, not {options!r}")
    unknown = sorted(set(options) - OPTION_KEYS)
    if unknown:
        raise SpecValidationError(
            f"unknown option {unknown[0]!r}; expected keys among {sorted(OPTION_KEYS)}"
        )
    for key, choices in OPTION_CHOICES.items():
        if key in options and not _one_of(options[key], choices):
            raise SpecValidationError(
                f"unknown {key} {options[key]!r}; expected one of {sorted(choices)}"
            )
    if options.get("mode") == "sampled" and kind != "classical-bosonic":
        raise SpecValidationError(f"mode 'sampled' applies to classical-bosonic only, not {kind}")
    for key in BOOLEAN_OPTIONS:
        if key in options and not isinstance(options[key], bool):
            raise SpecValidationError(f"option {key} must be true or false, not {options[key]!r}")
    if options.get("symbolic_mu") and options.get("quantum_candidate"):
        raise SpecValidationError("the quantum candidate needs a rational mu, not symbolic_mu")
    mutation = options.get("mutation")
    if mutation is not None and not _one_of(mutation, allowed):
        raise SpecValidationError(
            f"unknown mutation {mutation!r} for {kind}; expected one of {sorted(allowed)}"
        )


def _size_guard(spec: dict, max_terms: int) -> None:
    M = int(spec.get("M", 1))
    N = int(spec.get("N", 1))
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
        raise GuardExceeded(
            f"{spec['kind']} instance estimate {shown} exceeds --max-terms {max_terms}")


def _build_duality(spec: dict) -> DualityInstance:
    return DualityInstance(
        _integer(spec["M"], "M"),
        _integer(spec["N"], "N"),
        Divisor.of(_points(spec["divisor"], "divisor")),
        Divisor.of(_points(spec["dual_divisor"], "dual_divisor")),
    )


def _build_cyclo(spec: dict) -> CycloInstance:
    opts = spec.get("options", {})
    mu = MultiPoly.var("mu") if opts.get("symbolic_mu") else rat(spec["mu"])
    return CycloInstance(
        _integer(spec["M"], "M"),
        CycloDivisor.of(_integer(spec["tau0"], "tau0"),
                        _points(spec.get("divisor", []), "divisor")),
        [rat(p) for p in _list(spec["lambda_points"], "lambda_points")],
        mu,
    )


def run_instance(spec: dict, mode: str | None = None, max_terms: int = 10**7) -> dict:
    """Dispatch one instance; returns the deterministic report body, whose
    ``mode`` says whether a sample seed was used ("sampled") or not
    ("symbolic")."""
    validate_instance(spec)
    opts = dict(spec.get("options", {}))
    if mode:
        opts["mode"] = mode
    expect = opts.get("expect", "pass")
    # only the classical-bosonic duality has a sampled check
    sampled = opts.get("mode") == "sampled" and spec["kind"] == "classical-bosonic"
    seed = SAMPLE_SEED if sampled else None
    try:
        _size_guard(spec, max_terms)
        report = _dispatch(spec, opts, seed)
    except SpecValidationError:
        raise
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
        if expect == "fail":
            inner = report.get("status")
            report["status"] = "pass" if inner == "fail" else "fail"
            report["expected"] = "fail"
            if report["status"] == "pass" and "witness" not in report:
                report["witness"] = {"note": "inner check failed as expected"}
    report["instance"] = spec
    report["mode"] = "sampled" if sampled else "symbolic"
    return report


def _dispatch(spec: dict, opts: dict, sample_seed: int | None) -> dict:
    kind, model = spec["kind"], _model(spec)
    mutation = opts.get("mutation")
    if model == "neumann":
        return neumann_artifacts(_integer(spec["M"], "M"),
                                 [rat(w) for w in _list(spec["omega"], "omega")])
    if model == "cyclotomic":
        inst = _build_cyclo(spec)
        if kind == "homomorphism":
            return verify_cyclotomic_homomorphisms(inst, mutation)
        if kind == "commutativity":
            gens = extract_cyclotomic_generators(inst)
            return dict(check_commutativity(gens, "classical"), generators=len(gens))
        if kind == "lax-algebra":
            return lax_algebra_check(inst, spec["which"])
        if opts.get("quantum_candidate"):
            ok, witness = manin_check(quantum_cyclotomic_candidate(inst))
            return {
                "status": "pass" if ok else "fail",
                "manin": ok,
                "witness": None if ok else {"manin_quadruple": list(witness)},
            }
        return verify_cyclotomic_duality(inst)
    inst = _build_duality(spec)
    if kind == "homomorphism":
        realization = spec.get("realization", "classical-bosonic")
        return verify_homomorphism(inst, GAUDIN_FLAVORS[realization], mutation)
    if kind == "commutativity":
        flavor = spec.get("flavor", "classical")
        gens = extract_gaudin_generators(inst, flavor)
        return dict(check_commutativity(gens, flavor), generators=len(gens))
    if kind == "classical-bosonic":
        return verify_classical_bosonic_duality(inst, sample_seed=sample_seed)
    if kind == "classical-fermionic":
        return verify_classical_fermionic_duality(inst)
    return verify_quantum_duality(inst)
