"""Benchmark workloads: inputs built from the workload seed, one op, its check.

Every workload is a closed loop with one client. Op k draws its randomness
from `np.random.default_rng([seed, k])`; op 0 is the set-up warm-up. The
in-process workloads call keyedqkd through module attributes
(`protocol.run_protocol`, `adversary.run_attack`) so that a traced run's
wrappers see the calls.

Sizes are constructor parameters so the benchmark's own tests can run every
workload at a tiny size; `make_workload` builds the measured sizes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import bench_checks

LFSR_SPEC = "64:64,63,61,60"
LFSR_SEED = "1" + "0" * 62 + "1"
BASES = 2
KEYGEN_FLIP = 0.02
ATTACK_THREADS = 2
REPETITION_KEY = "10011010"
BLOCK_N = 40
BLOCK_GUESSES = 3
SWEEP_M = tuple(2 ** k for k in range(1, 13))
SWEEP_TIMEOUT_S = 120.0

# Transmissions a keyguess report simulates (the adversary module's
# MAX_QUBIT_TRIALS): its error statistics come from these, not every trial.
KEYGUESS_TRANSMISSIONS = 16

HERE = Path(__file__).resolve().parent


def _rng(seed: int, k: int):
    import numpy as np

    return np.random.default_rng([seed, k])


def _import_keyedqkd(tracer):
    """Import the package (timed as cli.import) and install the trace wrappers."""
    start = time.perf_counter()
    import keyedqkd  # noqa: F401
    import keyedqkd.adversary
    import keyedqkd.cli
    import keyedqkd.protocol
    end = time.perf_counter()
    if tracer is not None:
        tracer.record("cli.import", start, end)
        tracer.install()
    return keyedqkd


def _lfsr_config(kq, n: int, flip: float):
    return kq.ProtocolConfig(
        n=n, alphabet=kq.BasisAlphabet(BASES),
        keystream=kq.LfsrKeystream(kq.LfsrSpec.from_text(LFSR_SPEC),
                                   kq.SeedKey.from_string(LFSR_SEED)),
        channel=kq.ChannelModel(flip_prob=flip),
        code_rate=0.6, pa_security_param=64, verification_len=32,
    )


class Keygen:
    """`run_protocol` on the README config; work is verified final key bits."""

    work_unit = "verified key bits"

    def __init__(self, name: str, seed: int, n: int):
        self.name, self.seed, self.n = name, seed, n

    def setup(self, tracer=None):
        kq = _import_keyedqkd(tracer)
        self.protocol = kq.protocol
        self.config = _lfsr_config(kq, self.n, KEYGEN_FLIP)

    def op(self, k: int, tracer=None):
        return self.protocol.run_protocol(self.config, _rng(self.seed, k))

    def check(self, outcome) -> tuple[list[str], dict]:
        c = self.config
        errors = bench_checks.check_keygen(
            outcome, c.n, c.alphabet.m, c.code_rate, c.pa_security_param,
            c.keystream.secret_bits, c.verification_len)
        detected = int(outcome.detected_positions.size)
        counts = {
            "protocol.detected": detected,
            "protocol.kept": detected - max(1, round(bench_checks.SAMPLE_FRACTION * detected)),
            "protocol.key_bits": int(outcome.alice_key.size),
            "protocol.net": int(outcome.ledger.net),
            "qubits": self.n,
        }
        return errors, counts

    def work(self, outcome) -> float:
        return float(outcome.alice_key.size) if outcome.verified else 0.0


class Attacks:
    """One `run_attack` per strategy on a noiseless channel; work is the
    qubits the reports say they sent through a simulated channel."""

    thread_replica = True
    work_unit = "qubits sent through a simulated channel"

    def __init__(self, name: str, seed: int, n: int = 12_500, qubit_trials: int = 16,
                 keyguess_trials: int = 100_000, block_trials: int = 25_000):
        self.name, self.seed, self.n = name, seed, n
        block_qubits = BLOCK_GUESSES * (BLOCK_N // len(REPETITION_KEY))
        block_width = bench_checks.block_guess_half_width(block_trials, BLOCK_GUESSES)
        # (strategy text, trials, benchmark-side analytic eve error, induced
        # error, smallest four-sigma half-width of the error rates, qubits
        # the report must have simulated)
        self.plan = (
            ("breidbart", qubit_trials, None, None, 0.0, qubit_trials * n),
            ("intercept", qubit_trials, None, None, 0.0, qubit_trials * n),
            ("keyguess", keyguess_trials, 0.25, 0.25, 0.0,
             min(keyguess_trials, KEYGUESS_TRANSMISSIONS) * n),
            (f"blockguess:{BLOCK_GUESSES}", block_trials, 0.25, None, block_width,
             block_trials * block_qubits),
        )

    def setup(self, tracer=None):
        kq = _import_keyedqkd(tracer)
        self.adversary = kq.adversary
        lfsr = _lfsr_config(kq, self.n, 0.0)
        block = kq.ProtocolConfig(
            n=BLOCK_N, alphabet=kq.BasisAlphabet(BASES),
            keystream=kq.RepetitionKeystream(kq.SeedKey.from_string(REPETITION_KEY)),
            channel=kq.ChannelModel(), code_rate=0.6, pa_security_param=64,
            verification_len=32)
        self.jobs = [(kq.AttackStrategy.parse(text), block if text.startswith("block") else lfsr,
                      *rest) for text, *rest in self.plan]

    def op(self, k: int, tracer=None, threads: int = ATTACK_THREADS):
        reports = []
        for i, (strategy, config, trials, *_) in enumerate(self.jobs):
            rng = _rng(self.seed, k * len(self.jobs) + i)
            reports.append(self.adversary.run_attack(strategy, config, rng,
                                                     trials=trials, threads=threads))
        return reports

    def check(self, reports) -> tuple[list[str], dict]:
        errors = []
        for report, (_, config, trials, eve, induced, width, simulated) in zip(reports, self.jobs):
            errors += bench_checks.check_attack(report.to_json_dict(), trials, config.n,
                                                eve_error=eve, induced=induced,
                                                min_half_width=width, simulated=simulated)
        return errors, {"qubits": self.work(reports)}

    def same(self, reports, replica) -> bool:
        """Reports are identical for every thread count."""
        return [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in replica]

    def work(self, reports) -> float:
        return float(sum(bench_checks.simulated_qubits(r.to_json_dict()) for r in reports))


class SweepCli:
    """A fresh `keyedqkd.cli sweep` process per op; work is sweep rows.

    The process runs the CLI through calibrated_cli.py, or traced_cli.py
    when tracing, which writes its calibration samples, or its spans, to
    `self.child_out`; the samples of the last op are kept in `self.samples`.
    """

    work_unit = "sweep rows"

    def __init__(self, name: str, seed: int, root: Path, out_dir: Path, m_values=SWEEP_M):
        self.name, self.seed = name, seed
        self.root, self.m_values = root, tuple(m_values)
        self.csv = out_dir / f"sweep-{os.getpid()}.csv"
        self.child_out = out_dir / f"sweep-{os.getpid()}-child.json"

    def setup(self, tracer=None):
        src = str(self.root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.argv = ["sweep", "--m", ",".join(str(m) for m in self.m_values),
                     "--output", str(self.csv)]

    def op(self, k: int, tracer=None):
        for stale in (self.csv, self.child_out):
            stale.unlink(missing_ok=True)
        self.samples = []
        script = HERE / ("calibrated_cli.py" if tracer is None else "traced_cli.py")
        cmd = [sys.executable, str(script), str(self.child_out), *self.argv]
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, timeout=SWEEP_TIMEOUT_S,
                              stdout=subprocess.DEVNULL)
        text = self.csv.read_text() if self.csv.exists() else ""
        if self.child_out.exists():
            with open(self.child_out) as fh:
                if tracer is None:
                    self.samples = [tuple(s) for s in json.load(fh)]
                else:
                    tracer.merge([json.loads(line) for line in fh], tracer.current())
        return proc.returncode, text

    def check(self, result) -> tuple[list[str], dict]:
        errors, mismatches = bench_checks.check_sweep(*result, self.m_values)
        return errors, {"analysis.phi_star_tiebreak_mismatch": mismatches}

    def work(self, result) -> float:
        return float(len(self.m_values))


# keygen-large (n = 1e6, m = 16, loss 0.2) is left out: see README.md.
NAMES = ("keygen-small", "attacks", "sweep-cli")


def make_workload(name: str, seed: int, root: Path, out_dir: Path):
    """The workload `name` at its measured size."""
    if name == "keygen-small":
        return Keygen(name, seed, n=100_000)
    if name == "attacks":
        return Attacks(name, seed)
    if name == "sweep-cli":
        return SweepCli(name, seed, root, out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
