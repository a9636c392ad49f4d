"""Golden CLI outputs: `run`, `attack` and `sweep` must reproduce recorded bytes.

Refactors promise byte-identical outputs; this turns the promise into a
check. Each case is an argv for `keyedqkd.cli.main` plus the file under
tests/golden/ that holds its expected output. Attack cases run at --threads 1
and 2 against the same file.

A change that is meant to alter outputs regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its change notes which outputs moved and why; the script prints
each file it changed with the sha256 prefixes of its old and new bytes.

Bytes alone would accept any regenerated file, so the recorded attack rates
and the recorded run are also checked against what they estimate.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from keyedqkd.cli import main

GOLDEN = Path(__file__).with_name("golden")

# (name, argv without --output, expected exit code); "{golden}" is the
# directory that holds the configs.
CASES = [
    ("run-criterion10.json",
     ["run", "--config", "{golden}/lfsr-m2.json", "--seed", "31"], 0),
    ("attack-breidbart.json",
     ["attack", "breidbart", "--config", "{golden}/lfsr-m2-small.json",
      "--trials", "8", "--seed", "5"], 0),
    ("attack-intercept-0.5.json",
     ["attack", "intercept:0.5", "--config", "{golden}/lfsr-m2-small.json",
      "--trials", "8", "--seed", "6"], 0),
    ("attack-keyguess.json",
     ["attack", "keyguess", "--config", "{golden}/lfsr-m2-small.json",
      "--trials", "5000", "--seed", "7"], 0),
    # A 4-bit seed, so about one guess in 16 succeeds and the success count
    # is pinned, not just its zero.
    ("attack-keyguess-4bit.json",
     ["attack", "keyguess", "--config", "{golden}/lfsr-m2-4bit.json",
      "--trials", "3000", "--seed", "1001"], 0),
    ("attack-blockguess-3.json",
     ["attack", "blockguess:3", "--config", "{golden}/repetition.json",
      "--trials", "5000", "--seed", "12"], 0),
    # Many bases under a dense 64-bit seed: at m = 16 the measurement
    # tables draw doubles; at m = 1024 > n every measurement is per position.
    ("attack-breidbart-m16.json",
     ["attack", "breidbart", "--config", "{golden}/lfsr-m16.json",
      "--trials", "8", "--seed", "16"], 0),
    ("attack-keyguess-m16.json",
     ["attack", "keyguess", "--config", "{golden}/lfsr-m16.json",
      "--trials", "2000", "--seed", "17"], 0),
    ("attack-keyguess-m1024.json",
     ["attack", "keyguess", "--config", "{golden}/lfsr-m1024.json",
      "--trials", "2000", "--seed", "1024"], 0),
    ("attack-fixed-0.3-m1024.json",
     ["attack", "fixed:0.3", "--config", "{golden}/lfsr-m1024.json",
      "--trials", "16", "--seed", "1025"], 0),
    # A lossy channel, so the detected mask is drawn and read; fixed:1.2
    # lies past pi/4 of basis 0, so its decoding flips are read too.
    ("attack-fixed-1.2-lossy.json",
     ["attack", "fixed:1.2", "--config", "{golden}/lfsr-m2-lossy.json",
      "--trials", "16", "--seed", "2001"], 0),
    ("attack-intercept-0.5-lossy.json",
     ["attack", "intercept:0.5", "--config", "{golden}/lfsr-m2-lossy.json",
      "--trials", "16", "--seed", "2002"], 0),
    ("attack-keyguess-lossy.json",
     ["attack", "keyguess", "--config", "{golden}/lfsr-m2-lossy.json",
      "--trials", "2000", "--seed", "2003"], 0),
    ("attack-blockguess-3-lossy.json",
     ["attack", "blockguess:3", "--config", "{golden}/repetition-lossy.json",
      "--trials", "5000", "--seed", "2004"], 0),
    ("sweep.csv", ["sweep", "--m", "2,4,8,16"], 0),
]


def _argv(case, output, threads=None):
    _, argv, _ = case
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in argv]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return argv + ["--output", str(output)]


def _params():
    for case in CASES:
        if case[1][0] == "attack":
            for threads in (1, 2):
                yield pytest.param(case, threads, id=f"{case[0]}-threads{threads}")
        else:
            yield pytest.param(case, None, id=case[0])


@pytest.mark.parametrize("case,threads", _params())
def test_cli_output_matches_golden(tmp_path, case, threads):
    name, _, code = case
    out = tmp_path / name
    assert main(_argv(case, out, threads)) == code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def _config(case) -> dict:
    _, argv, _ = case
    return json.loads((GOLDEN / Path(argv[argv.index("--config") + 1]).name).read_text())


# A recorded rate lies within CI_SLACK times its half-width (four standard
# errors, so 6 sigma in all) of the value it estimates.
CI_SLACK = 1.5

ATTACK_CASES = [case for case in CASES if case[1][0] == "attack"]


def test_every_attack_golden_is_a_case():
    assert sorted(p.name for p in GOLDEN.glob("attack-*.json")) == \
        sorted(case[0] for case in ATTACK_CASES)


@pytest.mark.parametrize("case", ATTACK_CASES, ids=[case[0] for case in ATTACK_CASES])
def test_attack_golden_rates_lie_near_their_expected_values(case):
    # Expected values are the report's analytic ones, or 1/4 where it has
    # none (key and block guessing). The induced rate crosses the config's
    # channel, which flips a bit with probability q: e(1 - q) + (1 - e)q.
    report = json.loads((GOLDEN / case[0]).read_text())
    q = _config(case)["channel"]["flip_prob"]
    eve = report["eve_bit_error_analytic"]
    induced = report["induced_qber_analytic"]
    eve = 0.25 if eve is None else eve
    induced = 0.25 if induced is None else induced
    # A block's qubits share one guessed basis, so the binomial half-width
    # understates the spread of the error rates: bound a per-block rate in
    # [0, 1] with mean 1/4 by its largest variance, 1/4 * 3/4, instead.
    floor = 0.0
    if report["strategy"].startswith("blockguess:"):
        blocks = int(report["strategy"].partition(":")[2])
        floor = 4.0 * math.sqrt(3.0 / 16 / (report["trials"] * blocks))
    for field, expected in (("eve_bit_error", eve),
                            ("induced_qber", induced * (1 - q) + (1 - induced) * q)):
        ci = report[field]
        assert abs(ci["estimate"] - expected) <= CI_SLACK * max(ci["half_width"], floor), field
    success = report["success_probability"]
    if success is not None:
        if success["analytic"] < 1.0 / report["trials"]:
            assert success["estimate"] == 0.0
        else:
            assert abs(success["estimate"] - success["analytic"]) <= \
                CI_SLACK * success["half_width"]


def test_run_golden_is_verified_and_its_ledger_adds_up():
    case = next(case for case in CASES if case[0] == "run-criterion10.json")
    run, config = json.loads((GOLDEN / case[0]).read_text()), _config(case)
    assert run["verified"] and run["abort_reason"] is None
    assert run["alice_key"] == run["bob_key"]
    seed_bits = len(config["keystream"]["seed"])
    assert run["ledger"]["generated"] == run["key_bits"]
    assert run["ledger"]["net"] == run["key_bits"] - seed_bits - 2 * config["verification_len"]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12] if path.exists() else "(none)"


if __name__ == "__main__":
    for case in CASES:
        path = GOLDEN / case[0]
        before = _digest(path)
        status = main(_argv(case, path))
        if status != case[2]:
            sys.exit(f"{case[0]}: exit {status}, expected {case[2]}")
        if _digest(path) != before:
            print(f"{case[0]}: {before} -> {_digest(path)}")
