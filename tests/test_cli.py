"""Command-line interface: exit codes, file outputs, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import keyedqkd.protocol
from keyedqkd.cli import EXIT_ABORT, EXIT_OK, EXIT_USAGE, main

BASE_CONFIG = {
    "n": 20000,
    "m": 2,
    "keystream": {"kind": "lfsr", "spec": "16:16,12,3,1", "seed": "1011001110001111"},
    "channel": {"flip_prob": 0.02, "loss": 0.0},
    "code_rate": 0.6,
    "pa_security_param": 64,
    "verification_len": 32,
    "mode": "key-generation",
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return path


def write_config(tmp_path, **overrides):
    doc = dict(BASE_CONFIG, **overrides)
    path = tmp_path / "override.json"
    path.write_text(json.dumps(doc))
    return path


class TestRunCommand:
    def test_verified_run_exits_zero(self, tmp_path, config_path):
        out = tmp_path / "out.json"
        assert main(["run", "--config", str(config_path), "--seed", "7",
                     "--output", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["verified"] is True
        assert doc["abort_reason"] is None
        assert doc["ledger"]["net"] > 0

    def test_noiseless_run_verifies(self, tmp_path):
        config = write_config(tmp_path, channel={"flip_prob": 0.0, "loss": 0.0})
        out = tmp_path / "out.json"
        assert main(["run", "--config", str(config), "--seed", "3",
                     "--output", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["verified"] is True and doc["qber_raw"] == 0.0

    def test_noisy_channel_aborts_with_exit_two(self, tmp_path):
        config = write_config(tmp_path, channel={"flip_prob": 0.16, "loss": 0.0})
        out = tmp_path / "out.json"
        assert main(["run", "--config", str(config), "--seed", "7",
                     "--output", str(out)]) == EXIT_ABORT
        assert json.loads(out.read_text())["abort_reason"] == "rate_gate"

    def test_key_too_short_to_verify_exits_two(self, tmp_path):
        # The README config at n = 400 amplifies to fewer than |K_v| = 32 bits.
        config = write_config(tmp_path, n=400, keystream={
            "kind": "lfsr", "spec": "64:64,63,61,60", "seed": "1" + "0" * 62 + "1"})
        out = tmp_path / "out.json"
        assert main(["run", "--config", str(config), "--seed", "7",
                     "--output", str(out)]) == EXIT_ABORT
        doc = json.loads(out.read_text())
        assert doc["abort_reason"] == "key_too_short"
        assert doc["ledger"] == {"consumed_seed": 64, "consumed_verification": 0,
                                 "generated": 0, "net": -64}

    def test_arithmetic_error_exits_one(self, tmp_path, config_path, monkeypatch, capsys):
        def lose_exactness(*args):
            raise ArithmeticError("FFT convolution lost integer exactness")

        monkeypatch.setattr(keyedqkd.protocol, "privacy_amplify", lose_exactness)
        assert main(["run", "--config", str(config_path), "--seed", "7",
                     "--output", str(tmp_path / "o.json")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: FFT convolution lost integer exactness\n"

    def test_verification_abort_exits_two(self, tmp_path, config_path, monkeypatch):
        # A "corrected" key with one residual error fails verification.
        reconcile = keyedqkd.protocol.reconcile

        def leave_one_error(alice_bits, bob_bits, code_rate):
            corrected, leaked, ok = reconcile(alice_bits, bob_bits, code_rate)
            corrected[0] ^= 1
            return corrected, leaked, ok

        monkeypatch.setattr(keyedqkd.protocol, "reconcile", leave_one_error)
        out = tmp_path / "out.json"
        assert main(["run", "--config", str(config_path), "--seed", "7",
                     "--output", str(out)]) == EXIT_ABORT
        doc = json.loads(out.read_text())
        assert doc["abort_reason"] == "verification" and doc["verified"] is False
        assert doc["ledger"] == {"consumed_seed": 16, "consumed_verification": 64,
                                 "generated": 0, "net": -80}

    def test_missing_config_exits_one(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--seed", "1",
                     "--output", str(tmp_path / "o.json")]) == EXIT_USAGE

    def test_malformed_config_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad), "--seed", "1",
                     "--output", str(tmp_path / "o.json")]) == EXIT_USAGE

    def test_invalid_field_exits_one(self, tmp_path):
        config = write_config(tmp_path, code_rate=1.5)
        assert main(["run", "--config", str(config), "--seed", "1",
                     "--output", str(tmp_path / "o.json")]) == EXIT_USAGE

    def test_direct_encryption_config_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, mode="direct-encryption")
        assert main(["run", "--config", str(config), "--seed", "1",
                     "--output", str(tmp_path / "o.json")]) == EXIT_USAGE
        assert "key-generation" in capsys.readouterr().err

    def test_unknown_config_field_exits_one(self, tmp_path):
        config = write_config(tmp_path, extra_field=1)
        assert main(["run", "--config", str(config), "--seed", "1",
                     "--output", str(tmp_path / "o.json")]) == EXIT_USAGE

    @pytest.mark.parametrize("field,extra", [("channel", {"los": 0.5}),
                                             ("keystream", {"key": "1001"})])
    def test_unknown_nested_config_field_exits_one(self, tmp_path, capsys, field, extra):
        config = write_config(tmp_path, **{field: dict(BASE_CONFIG[field], **extra)})
        assert main(["run", "--config", str(config), "--seed", "1",
                     "--output", str(tmp_path / "o.json")]) == EXIT_USAGE
        assert f"unknown {field} fields" in capsys.readouterr().err

    def test_seed_required(self, config_path, tmp_path, capsys):
        code = main(["run", "--config", str(config_path), "--output", str(tmp_path / "o.json")])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_identical_seeds_identical_bytes(self, tmp_path, config_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--config", str(config_path), "--seed", "99", "--output", str(a)])
        main(["run", "--config", str(config_path), "--seed", "99", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_meta_sidecar(self, tmp_path, config_path):
        out, meta = tmp_path / "o.json", tmp_path / "meta.json"
        main(["run", "--config", str(config_path), "--seed", "1",
              "--output", str(out), "--meta", str(meta)])
        assert "written_at" in json.loads(meta.read_text())
        assert "written_at" not in out.read_text()


class TestAttackCommand:
    def test_breidbart_report(self, tmp_path, config_path):
        out = tmp_path / "report.json"
        assert main(["attack", "breidbart", "--config", str(config_path),
                     "--trials", "2", "--seed", "3", "--output", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert abs(doc["eve_bit_error"]["estimate"] - 0.146447) < 0.02
        assert abs(doc["eve_bit_error_analytic"] - 0.146447) < 1e-6

    def test_blockguess_analytic_value(self, tmp_path):
        config = write_config(
            tmp_path, n=1000,
            keystream={"kind": "repetition", "key": "10" * 50},
        )
        out = tmp_path / "report.json"
        assert main(["attack", "blockguess:15", "--config", str(config),
                     "--trials", "64", "--seed", "3", "--output", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert abs(doc["success_probability"]["analytic"] - 3.0517578125e-5) < 1e-9
        assert doc["info_fraction"] == 0.15

    def test_unparseable_strategy_exits_one(self, tmp_path, config_path, capsys):
        # A NaN angle once ran and wrote a report that was not valid JSON.
        for strategy in ("fixed:banana", "fixed:nan", "fixed:inf", "fixed:-inf"):
            out = tmp_path / "r.json"
            assert main(["attack", strategy, "--config", str(config_path),
                         "--seed", "1", "--output", str(out)]) == EXIT_USAGE, strategy
            assert not out.exists(), strategy
        assert "angle must be finite" in capsys.readouterr().err

    def test_mismatched_keystream_exits_one(self, tmp_path, config_path):
        assert main(["attack", "blockguess:3", "--config", str(config_path),
                     "--seed", "1", "--output", str(tmp_path / "r.json")]) == EXIT_USAGE

    def test_zero_trials_exits_one(self, tmp_path, config_path):
        assert main(["attack", "breidbart", "--config", str(config_path), "--trials", "0",
                     "--seed", "1", "--output", str(tmp_path / "r.json")]) == EXIT_USAGE

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_fewer_than_one_thread_exits_one(self, tmp_path, config_path, threads):
        assert main(["attack", "breidbart", "--config", str(config_path), "--threads", threads,
                     "--seed", "1", "--output", str(tmp_path / "r.json")]) == EXIT_USAGE

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        config = write_config(tmp_path, n=40,
                              keystream={"kind": "repetition", "key": "10011010"})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["attack", "blockguess:3", "--config", str(config), "--trials", "20000",
              "--seed", "11", "--output", str(a), "--threads", "1"])
        main(["attack", "blockguess:3", "--config", str(config), "--trials", "20000",
              "--seed", "11", "--output", str(b), "--threads", "8"])
        assert a.read_bytes() == b.read_bytes()


class TestSweepCommand:
    def test_three_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--m", "2,4,8", "--output", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "m,e_key_granted,e_keyless,phi_star"
        assert len(lines) == 4
        assert lines[1].startswith("2,0.146446609,0.146446609,0.392699082")

    def test_rejects_non_power_of_two(self, tmp_path):
        assert main(["sweep", "--m", "3", "--output", str(tmp_path / "s.csv")]) == EXIT_USAGE

    def test_rejects_garbage(self, tmp_path):
        assert main(["sweep", "--m", "two", "--output", str(tmp_path / "s.csv")]) == EXIT_USAGE


class TestRateWindowCommand:
    def test_open_window(self, capsys):
        assert main(["rate-window", "0.05"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["lower"] - 0.390159695) < 1e-9
        assert abs(doc["upper"] - 0.713603043) < 1e-9
        assert doc["nonempty"] is True

    def test_threshold_window_empty(self, capsys):
        assert main(["rate-window", "0.15"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["nonempty"] is False

    def test_out_of_range_exits_one(self, capsys):
        assert main(["rate-window", "0.49"]) == EXIT_OK
        capsys.readouterr()
        assert main(["rate-window", "0.6"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err


def run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports keyedqkd from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60)


CLI_MAIN = "import sys\nfrom keyedqkd.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def run_capped(code: str, *args: str) -> subprocess.CompletedProcess:
    """run_child in a child that caps its own address space at 2 GB before
    it loads anything, so a huge allocation fails there and never reaches
    the machine."""
    pytest.importorskip("resource")
    return run_child("import resource\n"
                     "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n" + code, *args)


def run_python(code: str, *args: str) -> str:
    """run_child's stdout; a nonzero exit raises."""
    out = run_child(code, *args)
    out.check_returncode()
    return out.stdout


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; no module of the package may pull it in.
    probe = ("import sys, keyedqkd.cli; from keyedqkd import *; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert run_python(probe).strip() == "[]"


# What each command must not load: sweep and rate-window need only the
# qubit algebra and the analysis, and no numpy, run needs no attack code, and
# one-worker attacks start no thread pool.
ARRAY_CODE = ("numpy", "keyedqkd.protocol", "keyedqkd.keystream", "keyedqkd.adversary",
              "concurrent.futures")
UNUSED_MODULES = [
    pytest.param(["sweep", "--m", "2,4,8", "--output", "{tmp}/sweep.csv"], ARRAY_CODE,
                 id="sweep"),
    pytest.param(["rate-window", "0.05"], ARRAY_CODE, id="rate-window"),
    pytest.param(["run", "--config", "{config}", "--seed", "7", "--output", "{tmp}/run.json"],
                 ("keyedqkd.adversary", "concurrent.futures"), id="run"),
    pytest.param(["attack", "breidbart", "--config", "{config}", "--seed", "7",
                  "--threads", "1", "--output", "{tmp}/attack.json"],
                 ("concurrent.futures",), id="attack-one-thread"),
]


@pytest.mark.parametrize("argv, unused", UNUSED_MODULES)
def test_command_loads_only_what_it_uses(tmp_path, config_path, argv, unused):
    probe = ("import json, sys, keyedqkd.cli\n"
             "code = keyedqkd.cli.main(sys.argv[1:])\n"
             "print(json.dumps([code, sorted(sys.modules)]))")
    argv = [a.format(tmp=tmp_path, config=config_path) for a in argv]
    code, modules = json.loads(run_python(probe, *argv).splitlines()[-1])
    assert code == EXIT_OK
    assert "keyedqkd.analysis" in modules
    assert [m for m in unused if m in modules] == []


class TestExitCodes:
    def test_disjoint_codes(self):
        assert {EXIT_OK, EXIT_USAGE, EXIT_ABORT} == {0, 1, 2}

    @pytest.mark.parametrize("command", ["run", "attack"])
    @pytest.mark.parametrize("text", [
        "5", "[]", "null",
        json.dumps(dict(BASE_CONFIG, channel=5)),
        json.dumps(dict(BASE_CONFIG, keystream=5)),
        json.dumps(dict(BASE_CONFIG, keystream=dict(BASE_CONFIG["keystream"], seed=5))),
        json.dumps(dict(BASE_CONFIG, keystream=dict(BASE_CONFIG["keystream"], spec=16))),
        json.dumps(dict(BASE_CONFIG, keystream=dict(BASE_CONFIG["keystream"], kind=5))),
        json.dumps(dict(BASE_CONFIG, keystream={"kind": "repetition", "key": 1001})),
    ], ids=["number", "list", "null", "channel", "keystream", "seed", "spec", "kind", "key"])
    def test_wrong_json_shape_exits_one(self, tmp_path, capsys, command, text):
        config = tmp_path / "shape.json"
        config.write_text(text)
        strategy = ["intercept"] if command == "attack" else []
        assert main([command, *strategy, "--config", str(config), "--seed", "1",
                     "--output", str(tmp_path / "o.json")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_command_exits_one(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--output", "--meta"])
    @pytest.mark.parametrize("command", [
        ["run"], ["attack", "intercept"], ["sweep", "--m", "2,4"],
    ], ids=["run", "attack", "sweep"])
    def test_unwritable_path_exits_one(self, tmp_path, config_path, capsys, command, flag):
        # A directory where a file is to be written is an error, not a traceback,
        # and the command leaves neither file behind.
        paths = {"--output": str(tmp_path / "o.out"), "--meta": str(tmp_path / "m.json")}
        paths[flag] = str(tmp_path)
        config = [] if command[0] == "sweep" else ["--config", str(config_path), "--seed", "1"]
        argv = [*command, *config, "--output", paths["--output"], "--meta", paths["--meta"]]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        other = "--meta" if flag == "--output" else "--output"
        assert not Path(paths[other]).exists()


    @pytest.mark.parametrize("command", [
        ["run"], ["attack", "intercept"], ["sweep", "--m", "2,4"],
    ], ids=["run", "attack", "sweep"])
    def test_meta_on_the_output_path_exits_one(self, tmp_path, config_path, capsys,
                                               monkeypatch, command):
        # The same file by another spelling is rejected before anything is written.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        config = [] if command[0] == "sweep" else ["--config", str(config_path), "--seed", "1"]
        argv = [*command, *config, "--output", "x.json", "--meta", "sub/../x.json"]
        before = sorted(tmp_path.iterdir())
        assert main(argv) == EXIT_USAGE
        assert "same file" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before


    @pytest.mark.parametrize("strategy", ["breidbart", "blockguess:1"])
    def test_attack_out_of_memory_exits_one(self, tmp_path, strategy):
        # At n = 2^40 the running key (breidbart) or the guessed block
        # (blockguess) asks for terabytes at once.
        config = write_config(tmp_path, n=2 ** 40,
                              keystream={"kind": "repetition", "key": "10011010"})
        out = run_capped(CLI_MAIN, "attack", strategy, "--config", str(config), "--seed", "1",
                         "--output", str(tmp_path / "o.json"))
        assert out.returncode == EXIT_USAGE
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("strategy", ["breidbart", "keyguess"])
    def test_attack_at_a_huge_basis_count_runs_under_the_cap(self, tmp_path, strategy):
        # At m = 2^36 the attack builds only the bases its 200 positions use.
        # A random guess at large m leaves the keyed and guessed angles
        # independent and uniform on [0, pi/2), so her raw error is
        # 1/2 - |E exp(2i theta)|^2 / 2 = 1/2 - 2/pi^2; the key-guess report
        # gives it in closed form (to the nine digits the CLI writes).
        config = write_config(tmp_path, n=200, m=2 ** 36)
        out = run_capped(CLI_MAIN, "attack", strategy, "--config", str(config), "--seed", "1",
                         "--trials", "16", "--output", str(tmp_path / "o.json"))
        assert out.returncode == EXIT_OK, out.stderr
        report = json.loads((tmp_path / "o.json").read_text())
        eve_error = report["eve_bit_error_analytic"]
        if strategy == "keyguess":
            assert eve_error == pytest.approx(0.5 - 2 / math.pi ** 2, rel=0, abs=1e-9)
        expected = [(report["eve_bit_error"], eve_error), (report["induced_qber"], 0.25)]
        for interval, rate in expected:
            assert abs(interval["estimate"] - rate) <= interval["half_width"], (interval, rate)

    def test_every_admitted_attack_runs_at_any_basis_count_under_the_cap(self):
        # Configs at m up to 2^63 and small n, each with every strategy: each
        # attack returns a report or raises ValueError, in well under 2 GB.
        property_check = """
import numpy as np
from hypothesis import given, settings, strategies as st
from keyedqkd import (AttackStrategy, BasisAlphabet, ChannelModel, LfsrKeystream, LfsrSpec,
                      ProtocolConfig, RepetitionKeystream, SeedKey, run_attack)

@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(bits=st.one_of(st.just(1), st.integers(2, 63)), n=st.integers(1, 48),
       lfsr=st.booleans(), seed=st.integers(0, 2 ** 32))
def check(bits, n, lfsr, seed):
    keystream = (LfsrKeystream(LfsrSpec.from_text("4:4,3"), SeedKey.from_string("1001"))
                 if lfsr else RepetitionKeystream(SeedKey.from_string("1")))
    try:
        config = ProtocolConfig(n=n, alphabet=BasisAlphabet(2 ** bits), keystream=keystream,
                                channel=ChannelModel(flip_prob=0.1), code_rate=0.6,
                                pa_security_param=0, verification_len=16)
    except ValueError:
        return
    for text in ["breidbart", "fixed:1.2", "intercept", "intercept:0.5", "keyguess",
                 "blockguess:1", "blockguess:2"]:
        try:
            report = run_attack(AttackStrategy.parse(text), config,
                                np.random.default_rng(seed), trials=2)
        except ValueError:
            continue
        assert report.trials == 2 and report.qubits == n

check()
"""
        out = run_capped(property_check)
        assert out.returncode == 0, out.stderr


# Text without decimal digits, so stray tokens never spell a huge basis count.
NO_DIGITS = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Config paths (good, bad, missing, a directory) and output paths (files,
    a new subdirectory, a directory, a path under a file) for the argv fuzzer."""
    root = tmp_path_factory.mktemp("fuzz")
    documents = {
        "lfsr.json": json.dumps(dict(BASE_CONFIG, n=2000, pa_security_param=0,
                                     verification_len=16)),
        "repetition.json": json.dumps(dict(BASE_CONFIG, n=300, keystream={
            "kind": "repetition", "key": "10011010"})),
        "bad-rate.json": json.dumps(dict(BASE_CONFIG, n=300, code_rate=1.5)),
        "malformed.json": "{not json",
    }
    for name, text in documents.items():
        (root / name).write_text(text)
    configs = [str(root / name) for name in documents]
    configs += [configs[0], configs[1], str(root / "missing.json"), str(root)]
    outputs = [str(root / "o.out"), str(root / "p.out"), str(root / "new" / "o.out"),
               str(root), str(root / "lfsr.json" / "o.out")]
    return configs, outputs


# Options each command takes; the required ones are dropped only now and then.
COMMAND_OPTIONS = {
    "run": ["--config", "--seed", "--output", "--meta"],
    "attack": ["--config", "--seed", "--output", "--meta", "--trials", "--threads"],
    "sweep": ["--m", "--output", "--meta", "--no-keyless"],
    "rate-window": [],
    "frobnicate": [],
}
REQUIRED_OPTIONS = {"--config", "--seed", "--output", "--m"}
MOSTLY = st.sampled_from([True] * 9 + [False])


@st.composite
def cli_argv(draw, configs, outputs):
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = [command]
    if command == "attack":
        argv.append(draw(st.one_of(st.sampled_from([
            "breidbart", "intercept", "intercept:0.3", "intercept:2", "fixed:0.2", "fixed:banana",
            "keyguess", "blockguess:3", "blockguess:0"]), NO_DIGITS)))
    if command == "rate-window":
        argv.append(draw(st.one_of(st.floats(-1, 1), st.floats()).map(repr)))
    # Good values first, so that most runs get past argparse.
    values = {
        "--config": st.sampled_from(configs),
        "--seed": st.one_of(st.integers(0, 99), st.integers(-3, 2 ** 70), NO_DIGITS),
        "--output": st.sampled_from(outputs),
        "--meta": st.sampled_from(outputs),
        "--trials": st.integers(-1, 4),
        "--threads": st.integers(-1, 2),
        "--m": st.one_of(st.lists(st.sampled_from([2, 4, 16, 256, 3, 0, -2]), max_size=4)
                         .map(lambda ms: ",".join(map(str, ms))), NO_DIGITS),
        "--no-keyless": st.none(),
    }
    for flag in COMMAND_OPTIONS[command]:
        if draw(MOSTLY if flag in REQUIRED_OPTIONS else st.booleans()):
            value = draw(values[flag])
            argv += [flag] if value is None else [flag, str(value)]
    if not draw(MOSTLY):
        argv.append(draw(NO_DIGITS))
    return argv


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_cleanly(fuzz_paths, data):
    argv = data.draw(cli_argv(*fuzz_paths))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {EXIT_OK, EXIT_USAGE, EXIT_ABORT}
    assert "Traceback" not in err.getvalue()
