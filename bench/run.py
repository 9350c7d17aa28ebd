"""Batch-verification benchmark for gaudual.

    python3 bench/run.py --workload classical --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload quantum --seed 1 --seconds 40 --trace 1
    python3 bench/run.py                   # every workload in turn
    python3 bench/run.py --record          # rewrite bench/reference/*.json

Run from the root of a checkout; the package is imported from ``src``.
A closed loop with one caller: each pass is a fresh process
(``pass_worker.py``) that sets up like ``gaudual verify`` and then runs the
workload's instances one at a time, so one core is busy.

``--trace 0`` runs set-up alone a few times, then passes until
``--seconds`` would be exceeded (at least enough passes for ten instance
times above the 90th percentile), and prints the end-to-end metrics.
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics, with ``trace.overhead`` the ratio of their batch times.
Every report is checked against its reference; the last line of stdout
is the JSON result, and the exit code is 1 when any instance failed.

Times are scaled to a fixed CPU speed: each pass process times a probe
kernel before every instance (see ``pass_worker.probe``), and an instance
time measured while the nearby probes took a median ``p`` seconds is
reported as ``time * REFERENCE_PROBE_S / p``; ``batch_s`` is the sum of a
pass's scaled instance times.  On a shared machine the speed a process
gets drifts by tens of percent over minutes, and the scaling removes most
of that drift from the figures; the unscaled batch time is printed beside
them.  ``instance_ms_p50`` and ``instance_ms_p90`` pool the scaled times of
all passes of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pass_worker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
TAIL_SAMPLES = 10  # instance times that must lie above the 90th percentile
TIME_LIMIT_S = 170  # a run ends within this, whatever --seconds says
PROBE_WINDOW = 5  # probes on each side of an instance that set its speed


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Starts pass processes for one workload and seed, within a deadline."""

    def __init__(self, workload: str, seed: int):
        self.base = ["--workload", workload, "--seed", str(seed)]
        # set iteration order follows the hash seed: tie it to --seed too
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED=str(seed % 2**32))
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def __call__(self, *flags: str) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S} s reached")
        cmd = [sys.executable, str(HERE / "pass_worker.py"), *self.base, *flags]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"pass process exceeded the {TIME_LIMIT_S} s limit") from err
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"pass process exited with {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def speed(probe_s: float) -> float:
    """Factor that scales a time measured at this probe time to the reference speed."""
    return pass_worker.REFERENCE_PROBE_S / probe_s


def tail_count(n: int) -> int:
    """Samples above the 90th percentile of n samples."""
    return n - math.ceil(0.9 * n)


def quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by the Beta((n+1)q, (n+1)(1-q)) density at their rank midpoints.

    Instance times cluster by instance shape, with gaps between clusters; a
    single order statistic jumps across a gap when two instances swap, the
    weighted average moves smoothly.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def scaled_ms(p: dict) -> list[float]:
    """The pass's instance times, each scaled by the median of the probe
    times around it, so that a change of speed within a pass is followed."""
    probes = [i["probe_s"] for i in p["instances"]]
    return [i["ms"] * speed(statistics.median(probes[max(0, k - PROBE_WINDOW):
                                                     k + PROBE_WINDOW + 1]))
            for k, i in enumerate(p["instances"])]


def measure(run: Runner, seconds: float) -> tuple[dict, list[dict]]:
    started = time.monotonic()
    run("--setup-only")  # compiles bytecode; not timed
    setups = [run("--setup-only") for _ in range(SETUP_REPEATS)]
    passes = []
    while True:
        began = time.monotonic()
        passes.append(run())
        samples = sum(len(p["instances"]) for p in passes)
        finish = time.monotonic() + (time.monotonic() - began)
        if tail_count(samples) >= TAIL_SAMPLES and finish - started > seconds:
            break
    setup_times = [s["setup_s"] * speed(s["setup_probe_s"]) for s in setups + passes]
    per_pass = [scaled_ms(p) for p in passes]
    times = [t for ts in per_pass for t in ts]
    p50, p90 = quantile(times, 0.5), quantile(times, 0.9)
    raw = statistics.median(p["batch_s"] for p in passes)
    metrics = {
        "batch_s": (statistics.median(sum(ts) / 1000 for ts in per_pass), "s",
                    f"median of {len(passes)} passes; unscaled {raw:.3f} s"),
        "instance_ms_p50": (p50, "ms", f"n={len(times)}"),
        "instance_ms_p90": (p90, "ms", f"n={len(times)}, {sum(t > p90 for t in times)} above"),
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB",
                        f"median of {len(passes)} passes"),
    }
    return metrics, passes


def trace(run: Runner) -> tuple[dict, list[dict]]:
    run("--setup-only")  # compiles bytecode; not timed
    untraced = run()
    traced = run("--trace")
    scale = speed(statistics.median(i["probe_s"] for i in traced["instances"]))
    metrics = {name: (value * scale if name.endswith("_ms") else value,
                      tracer.METRICS[name][0], "")
               for name, value in traced["layers"].items()}
    traced_s, untraced_s = sum(scaled_ms(traced)) / 1000, sum(scaled_ms(untraced)) / 1000
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio",
                                 f"{traced_s:.3f} s traced / {untraced_s:.3f} s untraced")
    bodies = {i["id"]: i["body_sha"] for i in untraced["instances"]}
    for inst in traced["instances"]:
        if inst["body_sha"] != bodies.get(inst["id"]):
            traced["failures"].append({"id": inst["id"],
                                       "reasons": ["traced report body differs from untraced"]})
    return metrics, [untraced, traced]


def record(workload: str, seed: int) -> None:
    result = Runner(workload, seed)("--record")
    path = HERE / "reference" / f"{workload}.json"
    path.write_text(json.dumps(result["reference"], indent=1, sort_keys=True) + "\n")
    print(f"{workload}: {len(result['reference'])} reference reports -> "
          f"{path.relative_to(ROOT)}", file=sys.stderr)


def report(workload: str, seed: int, seconds: float, traced: bool) -> bool:
    """Measure one workload, print its metrics and the JSON result line;
    True when no instance failed."""
    run = Runner(workload, seed)
    metrics, passes = trace(run) if traced else measure(run, seconds)
    attempted = sum(len(p["instances"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(f"workload {workload}: {len(passes[0]['instances'])} instances, seed {seed}, "
          f"{len(passes)} passes{' (untraced, traced)' if traced else ''}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<30} {value:>14.4f} {unit:<6} {note}")
    print(f"  {'failed_share':<30} {len(failures) / attempted:>14.4f} ratio  "
          f"{len(failures)} of {attempted}")
    for failure in failures:
        print(f"FAILED {failure['id']}: {'; '.join(failure['reasons'])}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }), flush=True)
    return not failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record reference reports instead of measuring")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gaudual" / "__init__.py").is_file():
        print(f"no gaudual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        if args.record:
            for name in names:
                record(name, args.seed)
            return 0
        results = [report(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
