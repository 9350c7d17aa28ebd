"""One benchmark pass in a fresh process, as one `gaudual verify` batch.

    PYTHONPATH=src python3 bench/pass_worker.py --workload quantum --seed 1

Set-up imports gaudual, builds the workload's instance list and validates
every instance.  The pass then runs ``runner.run_instance`` on one
instance at a time and renders each report with the CLI's renderer.
After the pass, each report is checked against the workload's reference
in ``bench/reference``.  The result is one JSON line on stdout.

Before each instance, and around set-up, the pass times ``probe()``: a
fixed pure-Python kernel that shares no code with gaudual.  On a shared
machine the CPU speed a process gets drifts by tens of percent over
minutes; the probe times measure the speed the pass got around each
instance, and ``run.py`` scales the instance times by them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

import workloads

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
INLINE_LIMIT = 80  # longer values are stored as digests
SETUP_PROBES = 5  # probe runs before and after set-up
REFERENCE_PROBE_S = 0.003  # probe time at the speed times are scaled to

_PROBE_A = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(5)}
_PROBE_B = {(i, j): Fraction(j + 3, i + 1) for i in range(5) for j in range(4)}


def probe() -> float:
    """Seconds for one sparse product of two fixed Fraction-valued dicts."""
    start = perf_counter()
    out = {}
    for (i1, j1), c1 in _PROBE_A.items():
        for (i2, j2), c2 in _PROBE_B.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return perf_counter() - start


def stored(value) -> str:
    """A reference value: its canonical JSON, or a digest of it."""
    text = workloads.canonical(value)
    if len(text) <= INLINE_LIMIT:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def describe(err: BaseException) -> str:
    frame = traceback.extract_tb(err.__traceback__)[-1]
    where = f"{Path(frame.filename).name}:{frame.lineno}"
    return f"{type(err).__name__} at {where}: {err}"


def failure_reasons(report: dict | None, error: str | None, reference: dict | None) -> list[str]:
    """Reasons the instance failed; empty when it passed and every key of
    its reference report still has the reference value."""
    if error is not None:
        return [f"run_instance raised {error}"]
    reasons = []
    if report.get("status") != "pass":
        reasons.append(f"status {report.get('status')!r}: "
                       f"{workloads.canonical(report.get('witness'))[:200]}")
    if reference is None:
        reasons.append("no reference report")
        return reasons
    for key, want in reference.items():
        if key not in report:
            reasons.append(f"key {key!r} missing")
        elif stored(report[key]) != want:
            reasons.append(f"key {key!r} changed")
    return reasons


def run_pass(entries: list, runner, cli, probes: list | None = None):
    """Run and render every entry in order, as a serial `gaudual verify`.

    Returns (mode, spec, report, error, ms) per entry and the pass's wall
    seconds; ms covers run_instance and rendering.  With a `probes` list,
    ``probe()`` runs before each entry, and its times are appended to the
    list and left out of the pass's seconds.
    """
    runs = []
    start = perf_counter()
    for mode, spec in entries:
        if probes is not None:
            probes.append(probe())
        began = perf_counter()
        report, error = None, None
        try:
            report = runner.run_instance(spec, mode=mode)
        except Exception as err:  # one crash is one failed instance, not a lost pass
            error = describe(err)
        else:
            cli._render(report, int((perf_counter() - began) * 1000))
        runs.append((mode, spec, report, error, (perf_counter() - began) * 1000))
    return runs, perf_counter() - start - sum(probes or ())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("--record", action="store_true",
                        help="return reference reports instead of checking them")
    args = parser.parse_args(argv)

    probes = [probe() for _ in range(SETUP_PROBES)]
    start = perf_counter()
    from gaudual import cli, presets, runner

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    entries = workloads.shuffled(workloads.instances(args.workload, presets), args.seed)
    for _, spec in entries:
        runner.validate_instance(spec)
    setup_s = perf_counter() - start
    probes += [probe() for _ in range(SETUP_PROBES)]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": median(probes)}))
        return 0

    setup_probe_s, probes = median(probes), []
    runs, batch_s = run_pass(entries, runner, cli, probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
    reference_file = REFERENCE_DIR / f"{args.workload}.json"
    references = {} if args.record else json.loads(reference_file.read_text())
    instances, failures, recorded = [], [], {}
    for (mode, spec, report, error, ms), probe_s in zip(runs, probes):
        key = workloads.instance_id(mode, spec)
        body = None if report is None else workloads.canonical(report)
        instances.append({
            "id": key,
            "ms": ms,
            "probe_s": probe_s,
            "body_sha": body and hashlib.sha256(body.encode()).hexdigest(),
        })
        if args.record:
            if error is not None or report.get("status") != "pass":
                raise SystemExit(f"refusing to record a failing instance: {key}\n"
                                 f"{error or report.get('witness')}")
            recorded[key] = {k: stored(v) for k, v in sorted(report.items())}
            continue
        reasons = failure_reasons(report, error, references.get(key))
        if reasons:
            failures.append({"id": key, "reasons": reasons})

    result = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "batch_s": batch_s,
        "peak_rss_mb": peak_rss_mb,
        "instances": instances,
        "failures": failures,
    }
    if args.record:
        result["reference"] = recorded
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
