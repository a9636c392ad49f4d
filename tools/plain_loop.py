"""Plain `run_protocol` loop: seconds and minor page faults per op.

The loop takes no calibration sample and allocates nothing between ops, so
the allocator is left as a user's own loop leaves it (the benchmark's
harness warms it first). Run from the root of a checkout, pinned to one CPU:

    PYTHONPATH=src python tools/plain_loop.py --n 100000 --ops 100 --cpu 1

The config is the benchmark's keygen-small one (m = 2, LFSR
`64:64,63,61,60`, flip 0.02, loss 0, R = 0.6, s = 64, |K_v| = 32) at the
given n. Op k draws from `np.random.default_rng([seed, k])`, and the
`--warmup` ops run first and are not counted. Each op's CPU seconds
(user + system) and minor faults are the changes in the process's own
`resource.getrusage(RUSAGE_SELF)` counts, and its wall seconds come from
`time.perf_counter`. Prints one JSON object: n, ops, the median CPU and
wall seconds per op, the mean minor faults per op and the process's peak
RSS in MB.
"""

import argparse
import json
import os
import resource
import statistics
import time

import numpy as np

from keyedqkd import (BasisAlphabet, ChannelModel, LfsrKeystream, LfsrSpec, ProtocolConfig,
                      SeedKey, run_protocol)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--n", type=int, required=True, help="qubits per run")
    parser.add_argument("--ops", type=int, default=50, help="timed runs")
    parser.add_argument("--warmup", type=int, default=3, help="untimed runs before them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    config = ProtocolConfig(
        n=args.n, alphabet=BasisAlphabet(2),
        keystream=LfsrKeystream(LfsrSpec.from_text("64:64,63,61,60"),
                                SeedKey.from_string("1" + "0" * 62 + "1")),
        channel=ChannelModel(flip_prob=0.02),
        code_rate=0.6, pa_security_param=64, verification_len=32,
    )
    cpu, wall, faults = [], [], []
    for k in range(args.warmup + args.ops):
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        outcome = run_protocol(config, np.random.default_rng([args.seed, k]))
        elapsed = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if not outcome.verified:
            raise SystemExit(f"op {k}: run not verified ({outcome.abort_reason})")
        if k >= args.warmup:
            cpu.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
            wall.append(elapsed)
            faults.append(after.ru_minflt - before.ru_minflt)
    print(json.dumps({
        "n": args.n, "ops": args.ops,
        "cpu_median_s": statistics.median(cpu), "wall_median_s": statistics.median(wall),
        "minflt_per_op": statistics.fmean(faults), "peak_rss_mb": after.ru_maxrss / 1024,
    }))


if __name__ == "__main__":
    main()
