"""tools/plain_loop.py's attacks mode: `--only` runs the named attacks alone,
each on the generator it draws from in the full loop, and intercept at any
attacked fraction as intercept runs."""

import argparse
import importlib.util
import pathlib

import pytest

import numpy as np

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "plain_loop.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("plain_loop", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_attacks(monkeypatch, only):
    """The attacks mode's result at one op and one warm-up op on 200 qubits,
    with run_attack recording (strategy, generator state) per call."""
    tool, calls = load_tool(), []

    def recording(strategy, config, rng, trials, threads):
        calls.append((strategy, rng.bit_generator.state))

    monkeypatch.setattr(tool, "run_attack", recording)
    args = argparse.Namespace(n=200, m=2, ops=1, warmup=1, seed=7, threads=1, only=only)
    return tool, tool.attacks(args), calls


def test_only_runs_the_named_attacks_on_their_own_seeds(monkeypatch):
    tool, result, calls = run_attacks(monkeypatch, ["blockguess:3", "breidbart"])
    assert list(result["attacks"]) == ["breidbart", "blockguess:3"]
    chosen = [(i, text) for i, (text, _) in enumerate(tool.ATTACKS)
              if text in ("breidbart", "blockguess:3")]
    # Attack i of op k draws from [seed, 4k + i], as in the full loop.
    want = [(tool.AttackStrategy.parse(text),
             np.random.default_rng([7, 4 * k + i]).bit_generator.state)
            for k in range(2) for i, text in chosen]
    assert calls == want


def test_without_only_every_attack_runs(monkeypatch):
    tool, result, calls = run_attacks(monkeypatch, None)
    assert list(result["attacks"]) == [text for text, _ in tool.ATTACKS]
    assert len(calls) == 2 * len(tool.ATTACKS)


def test_only_runs_intercept_at_a_fraction_as_intercept(monkeypatch):
    tool, calls = load_tool(), []

    def recording(strategy, config, rng, trials, threads):
        calls.append((strategy, config.n, trials, rng.bit_generator.state))

    monkeypatch.setattr(tool, "run_attack", recording)
    args = argparse.Namespace(n=200, m=2, ops=1, warmup=1, seed=7, threads=1,
                              only=["intercept:0.5", "intercept"])
    assert list(tool.attacks(args)["attacks"]) == ["intercept:0.5", "intercept"]
    # Both run 16 trials on intercept's seeds, [seed, 4k + 1].
    want = [(tool.AttackStrategy.parse(text), 200, 16,
             np.random.default_rng([7, 4 * k + 1]).bit_generator.state)
            for k in range(2) for text in ("intercept:0.5", "intercept")]
    assert calls == want
    assert calls[0][0].fraction == 0.5


@pytest.mark.parametrize("text", ["intercept:2", "intercept:x", "keyguess:3", "fixed:0.3"])
def test_only_rejects_what_the_workload_does_not_run(text):
    with pytest.raises((argparse.ArgumentTypeError, ValueError)):
        load_tool().attack_name(text)
