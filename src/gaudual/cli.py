"""Batch driver: read instance specifications, dispatch verifiers, emit
JSON-lines reports plus a human-readable summary.

Exit codes: 0 all instances pass, 1 any verification failure or error,
2 specification validation error, a spec file given with --preset, a count
option below 1 or an unwritable --out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack

from .errors import SpecValidationError
from .presets import PRESETS, neumann_instances
from .runner import run_job, validate_instance


def _render(report: dict, timing_ms: int) -> str:
    # timing lives in its own field, outside the deterministic body
    body = dict(sorted(report.items()))
    body["timing_ms"] = timing_ms
    return json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)


def _worker(args):
    start = time.monotonic()
    report = run_job(*args)
    elapsed = int((time.monotonic() - start) * 1000)
    return report, elapsed


def _summary_line(spec: dict) -> str:
    kind = spec.get("kind", "?")
    bits = [kind]
    if "realization" in spec:
        bits.append(spec["realization"])
    if "which" in spec:
        bits.append(spec["which"])
    if "flavor" in spec:
        bits.append(spec["flavor"])
    if "M" in spec:
        bits.append(f"M={spec['M']}")
    if "N" in spec:
        bits.append(f"N={spec['N']}")
    if "tau0" in spec:
        bits.append(f"tau0={spec['tau0']}")
    if "divisor" in spec and spec["divisor"]:
        bits.append("tau=" + ",".join(str(t) for _, t in spec["divisor"]))
    if "dual_divisor" in spec:
        bits.append("tau~=" + ",".join(str(t) for _, t in spec["dual_divisor"]))
    if "mu" in spec:
        bits.append(f"mu={spec['mu']}")
    if spec.get("options", {}).get("mutation"):
        bits.append("mutation=" + spec["options"]["mutation"])
    if spec.get("options", {}).get("quantum_candidate"):
        bits.append("quantum-candidate")
    if spec.get("options", {}).get("symbolic_mu"):
        bits.append("mu=symbolic")
    return " ".join(bits)


def cmd_verify(args) -> int:
    for flag, value in (("--jobs", args.jobs), ("--max-terms", args.max_terms)):
        if value < 1:
            print(f"{flag} must be at least 1, not {value}", file=sys.stderr)
            return 2
    if args.spec and args.preset:
        print("give a spec file or --preset, not both", file=sys.stderr)
        return 2
    if args.M is not None:
        sizes = [spec["M"] for spec in neumann_instances()]
        if args.preset != "neumann" or args.M not in sizes:
            print(f"--M needs --preset neumann and one of the sizes {sizes}", file=sys.stderr)
            return 2
    if args.preset:
        if args.preset not in PRESETS:
            print(f"unknown preset {args.preset!r}; known: {', '.join(sorted(PRESETS))}",
                  file=sys.stderr)
            return 2
        if args.M is not None:
            instances = neumann_instances(args.M)
        else:
            instances = PRESETS[args.preset]()
    elif args.spec:
        try:
            with open(args.spec) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"cannot read spec: {err}", file=sys.stderr)
            return 2
        instances = doc.get("instances") if isinstance(doc, dict) else doc
        if not isinstance(instances, list):
            print("spec must be {\"instances\": [...]} or a JSON list", file=sys.stderr)
            return 2
    else:
        print("need a spec file or --preset", file=sys.stderr)
        return 2

    with ExitStack() as stack:
        # opened first, so an unwritable path is refused before any work
        try:
            out = stack.enter_context(open(args.out, "w")) if args.out else sys.stdout
        except OSError as err:
            print(f"cannot write --out: {err}", file=sys.stderr)
            return 2
        # validate everything before any computation starts
        jobs = []
        for k, spec in enumerate(instances):
            try:
                jobs.append(validate_instance(spec))
            except SpecValidationError as err:
                print(f"instance {k} invalid: {err}", file=sys.stderr)
                return 2

        mode = "sampled" if args.sampled else ("symbolic" if args.symbolic else None)
        work = [(job, spec, mode, args.max_terms) for job, spec in zip(jobs, instances)]
        counts = {"pass": 0, "fail": 0, "error": 0}
        total_ms = 0
        # both maps are lazy and yield in input order: each report is written
        # as soon as it and every report before it are finished.  The pool
        # forks every worker it may have at the first submit, so it gets at
        # most one per instance and per CPU, and one instance or none runs
        # serially
        workers = min(args.jobs, len(instances), os.cpu_count() or 1)
        if workers > 1:
            # imported here: the pool loads multiprocessing, which a serial
            # run never needs
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            finished = pool.map(_worker, work)
        else:
            finished = map(_worker, work)
        for (report, elapsed), spec in zip(finished, instances):
            counts[report["status"]] = counts.get(report["status"], 0) + 1
            total_ms += elapsed
            out.write(_render(report, elapsed) + "\n")
            out.flush()
            print(f"[{report['status']:>5}] {_summary_line(spec)} ({elapsed} ms)",
                  file=sys.stderr, flush=True)
    print(
        f"gaudual: {len(instances)} instances, {counts['pass']} pass, "
        f"{counts['fail']} fail, {counts.get('error', 0)} error ({total_ms} ms)",
        file=sys.stderr,
    )
    return 0 if counts["fail"] == 0 and counts.get("error", 0) == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gaudual",
        description="exact verification of Gaudin-model dualities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run verification instances")
    v.add_argument("spec", nargs="?",
                   help="JSON spec file: {\"instances\": [...]} or a JSON list of instances")
    v.add_argument("--preset", help="built-in instance grid (e.g. paper-core)")
    v.add_argument("--M", type=int, help="size override for the neumann preset")
    v.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    group = v.add_mutually_exclusive_group()
    group.add_argument("--symbolic", action="store_true",
                       help="fully symbolic classical checks (default)")
    group.add_argument("--sampled", action="store_true",
                       help="substitute fixed random rationals for x, p")
    v.add_argument("--out", help="write JSONL reports to this file")
    v.add_argument("--max-terms", type=int, default=10**7,
                   help="abort instances whose size estimate exceeds this")
    v.set_defaults(func=cmd_verify)
    lp = sub.add_parser("presets", help="list built-in presets")
    lp.set_defaults(func=lambda args: print("\n".join(sorted(PRESETS))) or 0)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
