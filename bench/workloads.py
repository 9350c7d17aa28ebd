"""The benchmark's instance workloads.

Every instance comes from ``gaudual.presets``.  The symbolic instances of
the three workloads partition ``paper_core()``; ``small-mixed`` also runs
the classical-bosonic grid in sampled mode.  An entry is a pair
``(mode, spec)``: ``mode`` is passed to ``runner.run_instance`` as the
CLI's ``--sampled`` flag would pass it, ``None`` for the default.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("classical", "quantum", "small-mixed")


def workload_of(spec: dict) -> str:
    """Which workload a paper-core instance belongs to."""
    kind = spec["kind"]
    realization = spec.get("realization")
    flavor = spec.get("flavor")
    if (kind == "classical-bosonic"
            or (kind == "commutativity" and flavor == "classical")
            or (kind == "homomorphism" and realization == "classical-bosonic")):
        return "classical"
    if (kind == "quantum-bosonic"
            or (kind == "commutativity" and flavor == "quantum")
            or (kind == "homomorphism" and realization == "quantum-bosonic")
            or (kind == "cyclotomic" and spec.get("options", {}).get("quantum_candidate"))):
        return "quantum"
    return "small-mixed"


def instances(name: str, presets) -> list[tuple[str | None, dict]]:
    """The workload's instances in preset order; `presets` is gaudual.presets."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    out = [(None, spec) for spec in presets.paper_core() if workload_of(spec) == name]
    if name == "small-mixed":
        out += [("sampled", spec) for spec in presets.classical_bosonic_grid()]
    return out


def shuffled(entries: list, seed: int) -> list:
    """The same entries in a seed-determined order."""
    out = list(entries)
    random.Random(seed).shuffle(out)
    return out


def canonical(value) -> str:
    """Canonical JSON text, with the CLI's fallback for non-JSON values."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def instance_id(mode: str | None, spec: dict) -> str:
    return f"{mode or 'default'} {canonical(spec)}"
