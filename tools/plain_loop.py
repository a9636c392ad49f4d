"""Plain loops of the benchmark's ops: seconds and minor page faults per op.

The loops take no calibration sample and allocate nothing between ops, so
the allocator is left as a user's own loop leaves it (the benchmark's
harness warms it first). Run from the root of a checkout, pinned to one CPU:

    PYTHONPATH=src python tools/plain_loop.py --n 100000 --ops 100 --cpu 1
    PYTHONPATH=src python tools/plain_loop.py --mode attacks --ops 60 --cpu 1
    PYTHONPATH=src python tools/plain_loop.py --mode attacks --ops 60 --threads 2
    PYTHONPATH=src python tools/plain_loop.py --mode attacks --m 16 --ops 60 --cpu 1
    PYTHONPATH=src python tools/plain_loop.py --mode attacks --only blockguess:3 --cpu 1
    PYTHONPATH=src python tools/plain_loop.py --mode attacks --only intercept:0.5 --cpu 1

`keygen` (the default) runs `run_protocol` on the benchmark's keygen-small
config (m = 2, LFSR `64:64,63,61,60`, flip 0.02, loss 0, R = 0.6, s = 64,
|K_v| = 32) at the given n. Op k draws from
`np.random.default_rng([seed, k])`. It prints one JSON object: n, ops, the
median CPU and wall seconds per op, the mean minor faults per op and the
process's peak RSS in MB.

`attacks` runs the attacks workload's four `run_attack` calls back to back
at `--threads` (default 1; the workload runs 2): breidbart and intercept
(16 trials) and keyguess (1e5 trials, 16 simulated transmissions) on the
noiseless LFSR config at n (default 12 500), and blockguess:3 (2.5e4
trials) on the repetition key `10011010` at n = 40. Breidbart and keyguess
run on `--m` keyed bases (default 2, the workload's); intercept, defined
on two bases, and blockguess stay on two at every `--m`. Attack i of op k
draws from `np.random.default_rng([seed, 4k + i])`, as in the workload.
`--only STRATEGY` (repeatable) runs only the named attacks, each on its own
seeds still, so that one attack can be timed, and its faults counted, on a
heap that the others have not touched; `intercept:<fraction>` runs as
intercept does (16 trials, on intercept's seeds) at that attacked
fraction. It prints one JSON object: n, m, threads, ops, per attack run
the median CPU and wall milliseconds per attack and the mean minor faults
per attack, and the peak RSS in MB. To
compare threads = 1 with threads = 2, run it once at each, unpinned; the
CPU time of a two-thread attack is summed over its threads.

In both modes the `--warmup` ops run first and are not counted. CPU seconds
(user + system) and minor faults are the changes in the process's own
`resource.getrusage(RUSAGE_SELF)` counts, and wall seconds come from
`time.perf_counter`.
"""

import argparse
import json
import os
import resource
import statistics
import time

import numpy as np

from keyedqkd import (AttackStrategy, BasisAlphabet, ChannelModel, LfsrKeystream, LfsrSpec,
                      ProtocolConfig, RepetitionKeystream, SeedKey, run_attack, run_protocol)

# (strategy, trials) of the attacks workload; blockguess runs on its own config.
ATTACKS = (("breidbart", 16), ("intercept", 16), ("keyguess", 100_000), ("blockguess:3", 25_000))


def attack_name(text: str) -> str:
    """An --only value: an attack of ATTACKS, or intercept:<fraction>."""
    if run_as(text) not in dict(ATTACKS):
        raise argparse.ArgumentTypeError(f"not an attack of the workload: {text!r}")
    AttackStrategy.parse(text)  # a bad fraction raises ValueError
    return text


def run_as(text: str) -> str:
    """The attack of ATTACKS whose trials and seeds `text` takes."""
    return "intercept" if text.startswith("intercept:") else text


def lfsr_config(n: int, flip: float, m: int = 2) -> ProtocolConfig:
    return ProtocolConfig(
        n=n, alphabet=BasisAlphabet(m),
        keystream=LfsrKeystream(LfsrSpec.from_text("64:64,63,61,60"),
                                SeedKey.from_string("1" + "0" * 62 + "1")),
        channel=ChannelModel(flip_prob=flip),
        code_rate=0.6, pa_security_param=64, verification_len=32,
    )


def timed(call):
    """call()'s result, CPU seconds, wall seconds and minor faults."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return result, cpu, elapsed, after.ru_minflt - before.ru_minflt


def keygen(args) -> dict:
    config = lfsr_config(args.n or 100_000, 0.02)
    cpu, wall, faults = [], [], []
    for k in range(args.warmup + args.ops):
        outcome, *counts = timed(
            lambda: run_protocol(config, np.random.default_rng([args.seed, k])))
        if not outcome.verified:
            raise SystemExit(f"op {k}: run not verified ({outcome.abort_reason})")
        if k >= args.warmup:
            for values, count in zip((cpu, wall, faults), counts):
                values.append(count)
    return {"n": config.n, "ops": args.ops,
            "cpu_median_s": statistics.median(cpu), "wall_median_s": statistics.median(wall),
            "minflt_per_op": statistics.fmean(faults)}


def attacks(args) -> dict:
    lfsr, keyed = (lfsr_config(args.n or 12_500, 0.0, m) for m in (2, args.m))
    block = ProtocolConfig(
        n=40, alphabet=BasisAlphabet(2),
        keystream=RepetitionKeystream(SeedKey.from_string("10011010")),
        channel=ChannelModel(), code_rate=0.6, pa_security_param=64, verification_len=32)
    configs = {"breidbart": keyed, "intercept": lfsr, "keyguess": keyed, "blockguess:3": block}
    jobs = [(i, text, AttackStrategy.parse(text), configs[name], trials)
            for i, (name, trials) in enumerate(ATTACKS)
            for text in dict.fromkeys(args.only or [name]) if run_as(text) == name]
    counts = {text: ([], [], []) for _, text, *_ in jobs}
    for k in range(args.warmup + args.ops):
        for i, text, strategy, config, trials in jobs:
            rng = np.random.default_rng([args.seed, k * len(ATTACKS) + i])
            _, *measured = timed(lambda: run_attack(strategy, config, rng, trials=trials,
                                                    threads=args.threads))
            if k >= args.warmup:
                for values, count in zip(counts[text], measured):
                    values.append(count)
    return {"n": lfsr.n, "m": args.m, "threads": args.threads, "ops": args.ops, "attacks": {
        text: {"cpu_median_ms": 1e3 * statistics.median(cpu),
               "wall_median_ms": 1e3 * statistics.median(wall),
               "minflt_per_attack": statistics.fmean(faults)}
        for text, (cpu, wall, faults) in counts.items()}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--mode", choices=("keygen", "attacks"), default="keygen")
    parser.add_argument("--n", type=int, help="qubits per run (keygen 100 000, attacks 12 500)")
    parser.add_argument("--ops", type=int, default=50, help="timed ops")
    parser.add_argument("--warmup", type=int, default=3, help="untimed ops before them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    parser.add_argument("--threads", type=int, default=1, help="attack worker threads (attacks)")
    parser.add_argument("--m", type=int, default=2,
                        help="keyed bases of the LFSR strategies (attacks; blockguess keeps 2)")
    parser.add_argument("--only", action="append", type=attack_name, metavar="STRATEGY",
                        help="run only this attack, or intercept:<fraction> (attacks; repeatable)")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    result = keygen(args) if args.mode == "keygen" else attacks(args)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
