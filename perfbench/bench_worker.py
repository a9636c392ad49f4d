"""One benchmark worker process: set up a workload, then run its closed loop.

Usage (started by run.py, not by hand):
    python bench_worker.py --workload NAME --seed N --seconds S --trace 0|1 --root DIR

The worker imports keyedqkd, builds the workload's inputs and runs one
checked warm-up op, then prints `ready` and waits on stdin. `exit` ends it
there (a set-up-only sample); `go` starts the measured loop, after which it
prints one JSON line with the raw op times, counts and, when tracing, the
per-layer metrics.

Untraced (--trace 0): ops run back to back until S seconds have passed.
Traced (--trace 1): each round runs one untraced op, then one op with the
wrappers of bench_trace installed (and, for attacks, a threads = 1 replica
of it), so the tracing overhead is measured inside the run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import bench_calibration
import bench_trace
import bench_workloads

# Counts a workload's check reports whose per-op mean is a per-layer metric;
# the phi_star mismatch is reported as its largest per-op value.
MEAN_COUNTS = ("protocol.detected", "protocol.kept", "protocol.key_bits", "protocol.net")
MAX_COUNTS = ("analysis.phi_star_tiebreak_mismatch",)

class Loop:
    """Op bookkeeping shared by the timed and the traced loop."""

    def __init__(self, workload):
        self.workload = workload
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.speeds: list[float] = []
        self.attempted = self.failed = 0
        # Start and end of the last op, for scaling its time.
        self.start = self.end = 0.0
        self.works: list[float] = []
        self.counts: dict[str, list[float]] = {}

    def run(self, k: int, tracer=None, **kwargs):
        """Run and check op k; returns (seconds, output), with seconds None
        if the op raised or failed its check."""
        self.attempted += 1
        start = self.start = time.perf_counter()
        try:
            if tracer is None:
                out = self.workload.op(k, **kwargs)
            else:
                out = tracer.call("op", self.workload.op, (k, tracer), kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None, None
        self.end = time.perf_counter()
        seconds = self.end - start
        errors, counts = self.workload.check(out)
        if errors:
            self.failed += 1
            print(f"op {k} failed its check: {'; '.join(errors)}", file=sys.stderr)
            return None, out
        self.times.append(seconds)
        self.works.append(self.workload.work(out))
        for key, value in counts.items():
            self.counts.setdefault(key, []).append(value)
        return seconds, out

    def result(self, peak_rss_mb: float) -> dict:
        counts = {}
        for key in MEAN_COUNTS:
            values = self.counts.get(key, ())
            counts[key] = sum(values) / len(values) if values else 0.0
        for key in MAX_COUNTS:
            counts[key] = max(self.counts.get(key, ()), default=0)
        qubits = self.counts.get("qubits", ())
        return {
            "times": self.times,
            "scaled": self.scaled,
            "speeds": self.speeds,
            "attempted": self.attempted,
            "failed": self.failed,
            "works": self.works,
            "work_unit": self.workload.work_unit,
            "qubits": float(sum(qubits)),
            "counts": counts,
            "peak_rss_mb": peak_rss_mb,
        }


def timed(loop: Loop, seconds: float):
    """Back-to-back ops, each bracketed by calibration samples and scaled by
    them and by the samples the op took inside it (see bench_calibration)."""
    start = time.perf_counter()
    loop.speeds.append(bench_calibration.sample()[2])
    k = 1
    while True:
        op_seconds, _ = loop.run(k)
        loop.speeds.append(bench_calibration.sample()[2])
        if op_seconds is not None:
            inner = getattr(loop.workload, "samples", ())
            loop.scaled.append(bench_calibration.scaled_seconds(
                loop.start, loop.end, loop.speeds[-2], loop.speeds[-1], inner))
        k += 1
        if time.perf_counter() - start >= seconds:
            return


def traced(loop: Loop, tracer, seconds: float) -> dict:
    workload = loop.workload
    wall = {"untraced": [], "traced": []}
    start = time.perf_counter()
    k = 1
    while True:
        seconds_untraced, _ = loop.run(k)
        tracer.install()
        tracer.op, tracer.phase = k + 1, "op"
        try:
            seconds_traced, out = loop.run(k + 1, tracer)
            if getattr(workload, "thread_replica", False) and seconds_traced is not None:
                tracer.phase = "threads1"
                replica = tracer.call("op", workload.op, (k + 1, tracer), {"threads": 1})
                if not workload.same(out, replica):
                    loop.failed += 1
                    print(f"op {k + 1}: threads = 1 report differs from threads = "
                          f"{bench_workloads.ATTACK_THREADS}", file=sys.stderr)
        finally:
            tracer.uninstall()
        for key, value in (("untraced", seconds_untraced), ("traced", seconds_traced)):
            if value is not None:
                wall[key].append(value)
        k += 2
        if time.perf_counter() - start >= seconds:
            return bench_trace.layer_metrics(tracer, wall)


def peak_rss_mb(workload) -> float:
    """Peak resident set of this process, or of its children for the CLI workload."""
    who = resource.RUSAGE_CHILDREN if isinstance(workload, bench_workloads.SweepCli) \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args(argv)

    # Set-up is scaled by samples taken during it: before the import (numpy
    # is not loaded yet), after it and after the warm-up op. Their own time
    # is reported so that it can be taken out of the set-up time.
    samples = [bench_calibration.sample(python_only=True)]
    out_dir = args.root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workload = bench_workloads.make_workload(args.workload, args.seed, args.root, out_dir)
    tracer = bench_trace.Tracer() if args.trace else None
    workload.setup(tracer)
    loop = Loop(workload)
    try:
        samples.append(bench_calibration.sample())
        loop.run(0, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if loop.failed:
        print("warm-up op failed", file=sys.stderr)
        return 1
    loop = Loop(workload)
    samples += getattr(workload, "samples", [])
    samples.append(bench_calibration.sample())
    speed = sum(s[2] for s in samples) / len(samples)
    calibration_s = sum(s[1] - s[0] for s in samples)
    print(f"ready {speed!r} {calibration_s!r}", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    layers = {}
    if tracer is None:
        timed(loop, args.seconds)
    else:
        layers = traced(loop, tracer, args.seconds)
        if tracer.missing:
            print(f"trace: wrap targets missing: {', '.join(tracer.missing)}", file=sys.stderr)
        tracer.dump(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    result = loop.result(peak_rss_mb(workload))
    result["layers"] = layers
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
