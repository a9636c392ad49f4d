"""Golden CLI outputs: `run`, `attack` and `sweep` must reproduce recorded bytes.

Refactors promise byte-identical outputs; this turns the promise into a
check. Each case is an argv for `keyedqkd.cli.main` plus the file under
tests/golden/ that holds its expected output. Attack cases run at --threads 1
and 2 against the same file.

A change that is meant to alter outputs regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its change notes which outputs moved and why.
"""

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


if __name__ == "__main__":
    for case in CASES:
        status = main(_argv(case, GOLDEN / case[0]))
        if status != case[2]:
            sys.exit(f"{case[0]}: exit {status}, expected {case[2]}")
