"""keyedqkd benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: keygen-small, attacks, sweep-cli (see bench_workloads.py and
BENCHMARK.json for what each one stresses).

With --trace 0 the command starts SETUPS fresh worker interpreters; each
imports keyedqkd from src/, builds its inputs and runs one warm-up op, and
the median of their start-to-ready times is `setup_s`. The last one then
runs the workload's ops for S seconds. With --trace 1 one worker runs the
traced loop and the per-layer metrics are printed instead.

Every op's output is checked. A readable summary goes to stdout first; the
last stdout line is one JSON object with keys correct, attempted, failed
and metrics. The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402
from bench_workloads import NAMES  # noqa: E402

SETUPS = 3
# Everything the command does must end well inside the 180 s a run may take.
DEADLINE_S = 170.0
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("keystream.running_key_s", "s"),
    ("keystream.bits_per_s", "1/s"),
    ("keystream.calls_per_op", "count"),
    ("qubits.measure_many_s", "s"),
    ("qubits.measured_per_s", "1/s"),
    ("qubits.optimal_fixed_basis_s", "s"),
    ("qubits.keyless_error_s", "s"),
    ("protocol.verify_s", "s"),
    ("protocol.privacy_amplify_s", "s"),
    ("protocol.pa_bits_per_s", "1/s"),
    ("protocol.transmit_self_s", "s"),
    ("protocol.reconcile_s", "s"),
    ("protocol.run_self_s", "s"),
    ("protocol.detected", "count"),
    ("protocol.kept", "count"),
    ("protocol.key_bits", "count"),
    ("protocol.net", "count"),
    ("adversary.breidbart_s", "s"),
    ("adversary.intercept_s", "s"),
    ("adversary.keyguess_s", "s"),
    ("adversary.blockguess_s", "s"),
    ("adversary.thread_speedup.breidbart", "ratio"),
    ("adversary.thread_speedup.intercept", "ratio"),
    ("adversary.thread_speedup.keyguess", "ratio"),
    ("adversary.thread_speedup.blockguess", "ratio"),
    ("analysis.sweep_m_s", "s"),
    ("analysis.phi_star_tiebreak_mismatch", "count"),
    ("cli.import_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unaccounted_frac", "fraction"),
    ("trace.missing", "count"),
)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile with
    at least TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND samples that rule would fall below the
    median, so the tail then keeps as many samples beyond it as the upper
    half allows; the percentile and count say which case applies.
    """
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def worker_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class Worker:
    """One worker interpreter in its own process group, killed with its
    children if it outlives the run's deadline."""

    def __init__(self, args, deadline: float):
        cmd = [sys.executable, str(HERE / "bench_worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", str(ROOT)]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     start_new_session=True)
        self.timer = threading.Timer(max(0.0, deadline - time.perf_counter()), self.kill)
        self.timer.start()

    def ready(self) -> tuple[float, float]:
        """Seconds from launch until the worker reported ready: raw, and
        without its calibration samples at the reference speed."""
        words = self.proc.stdout.readline().split()
        wall = time.perf_counter() - self.started
        if len(words) != 3 or words[0] != "ready":
            raise RuntimeError("worker failed during set-up")
        speed, calibration_s = float(words[1]), float(words[2])
        return wall, (wall - calibration_s) / speed

    def finish(self, command: str) -> str:
        try:
            out, _ = self.proc.communicate(command + "\n")
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close(self):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.kill()
        self.proc.wait()


def measure(args) -> tuple[list[tuple[float, float]], dict]:
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    for i in range(SETUPS if args.trace == 0 else 1):
        worker = Worker(args, deadline)
        try:
            setups.append(worker.ready())
        except BaseException:
            worker.close()
            raise
        last = i == (SETUPS if args.trace == 0 else 1) - 1
        out = worker.finish("go" if last else "exit")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return setups, json.loads(lines[-1])


def end_to_end(setups: list[tuple[float, float]], result: dict) -> tuple[dict, list[str]]:
    times = result["times"]
    if not times:
        raise RuntimeError("no op passed its check")
    scaled = result["scaled"]
    value, percentile, beyond = tail(scaled)
    metrics = {
        "setup_s": bench_trace.median(scaled_setup for _, scaled_setup in setups),
        "op_p50_s": bench_trace.median(scaled),
        "op_tail_s": value,
        "work_per_s": bench_trace.median(w / t for w, t in zip(result["works"], scaled)),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [
        f"op_tail_s is p{percentile:.1f} of {len(times)} ops ({beyond} beyond it)",
        f"wall time: setup {bench_trace.median(wall for wall, _ in setups):.6g} s, "
        f"op p50 {bench_trace.median(times):.6g} s, tail {tail(times)[0]:.6g} s",
        f"work_per_s counts {result['work_unit']}",
        f"calibration slowdown: median {bench_trace.median(result['speeds']):.4g} in the loop, "
        f"{bench_trace.median(wall / scaled for wall, scaled in setups):.4g} in set-up",
        f"qubits_per_s {result['qubits'] / sum(times):.6g} 1/s (wall time)",
        f"fail_frac {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']} of {result['attempted']} ops)",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="keyedqkd benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")
    if not (ROOT / "src" / "keyedqkd" / "__init__.py").is_file():
        print(f"error: no keyedqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace == 0:
        # The timed run is pinned, with the workers, their threads and child
        # processes, to one core, so that the calibration samples see the
        # core the ops ran on. The traced run is not, so thread_speedup uses
        # every core.
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-1:])
    try:
        setups, result = measure(args)
        if args.trace:
            layers = dict(result["layers"], **result["counts"])
            metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
            notes = [f"fail_frac {result['failed'] / result['attempted']:.6g}"]
        else:
            values, notes = end_to_end(setups, result)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:40s} {value:.6g} {unit}")
    for note in notes:
        print(f"{args.workload:14s} {note}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(value) if math.isfinite(value) else 0.0, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
