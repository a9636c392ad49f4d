"""The benchmark's own tests: tiny-size smoke runs and the correctness checks.

Run from the repository root with `PYTHONPATH=src python -m pytest perfbench`.
"""

import dataclasses
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_calibration  # noqa: E402
import bench_checks  # noqa: E402
import bench_trace  # noqa: E402
import bench_worker  # noqa: E402
import bench_workloads  # noqa: E402


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_workloads(tmp_path):
    return [
        bench_workloads.Keygen("keygen-small", 3, n=5000),
        bench_workloads.Attacks("attacks", 3, n=2000, qubit_trials=2, keyguess_trials=1000,
                                block_trials=2000),
        bench_workloads.SweepCli("sweep-cli", 3, ROOT, tmp_path, m_values=(2, 4, 4096)),
    ]


@pytest.fixture
def keygen():
    workload = bench_workloads.Keygen("keygen-small", 5, n=5000)
    workload.setup()
    return workload


@pytest.mark.parametrize("index", range(3), ids=bench_workloads.NAMES)
def test_tiny_workload_ops_pass_their_checks(tmp_path, index):
    workload = tiny_workloads(tmp_path)[index]
    workload.setup()
    loop = bench_worker.Loop(workload)
    bench_worker.timed(loop, seconds=0.0)
    assert (loop.attempted, loop.failed) == (1, 0)
    assert loop.works[0] > 0
    if isinstance(workload, bench_workloads.SweepCli):
        assert loop.counts["analysis.phi_star_tiebreak_mismatch"] == [1]
        assert len(workload.samples) == 3
    assert 0 < loop.scaled[0] < 10 * loop.times[0]


@pytest.mark.parametrize("index", range(3), ids=bench_workloads.NAMES)
def test_tiny_traced_round_reports_layers(tmp_path, index):
    workload = tiny_workloads(tmp_path)[index]
    tracer = bench_trace.Tracer()
    try:
        workload.setup(tracer)
    finally:
        tracer.uninstall()
    loop = bench_worker.Loop(workload)
    layers = bench_worker.traced(loop, tracer, seconds=0.0)
    assert loop.failed == 0
    assert tracer.missing == []
    reported = set(layers) | set(loop.result(0.0)["counts"])
    assert {name for name, _ in load_run_module().PER_LAYER} <= reported
    assert layers["cli.import_s"] > 0
    assert 0 <= layers["trace.unaccounted_frac"] < 1
    expected = {
        "keygen-small": "protocol.verify_s",
        "attacks": "adversary.thread_speedup.keyguess",
        "sweep-cli": "analysis.sweep_m_s",
    }[workload.name]
    assert layers[expected] > 0


def test_uninstall_restores_originals_and_missing_names_do_not_crash(keygen):
    import keyedqkd.protocol

    original = keyedqkd.protocol.verify_key
    tracer = bench_trace.Tracer()
    wraps = bench_trace.WRAPS + (bench_trace.Wrap("keyedqkd.protocol", "gone_in_refactor", "x"),
                                 bench_trace.Wrap("keyedqkd.nonexistent", "f", "y"))
    tracer.install(wraps)
    try:
        assert keyedqkd.protocol.verify_key is not original
        tracer.op, tracer.phase = 1, "op"
        tracer.call("op", keygen.op, (1,))
    finally:
        tracer.uninstall()
    assert keyedqkd.protocol.verify_key is original
    assert tracer.missing == ["keyedqkd.protocol.gone_in_refactor", "keyedqkd.nonexistent.f"]
    names = {span.name for span in tracer.spans}
    assert {"op", "protocol.run_protocol", "protocol.verify_key",
            "keystream.running_key", "qubits.measure_many"} <= names


def test_scaled_seconds_divides_each_stretch_by_its_slowdown():
    assert bench_calibration.scaled_seconds(0.0, 4.0, 1.0, 3.0) == pytest.approx(2.0)
    # Samples inside the interval are left out and split it into stretches.
    inner = [(1.0, 1.5, 3.0), (2.5, 3.0, 1.0)]
    assert bench_calibration.scaled_seconds(0.0, 4.0, 1.0, 1.0, inner) == \
        pytest.approx(1.0 / 2 + 1.0 / 2 + 1.0 / 1)


def test_self_time_subtracts_overlapping_children_once():
    spans = [bench_trace.Span(0, "root", 0.0, 10.0, None, 1, "op"),
             bench_trace.Span(1, "a", 1.0, 5.0, 0, 1, "op"),
             bench_trace.Span(2, "b", 3.0, 6.0, 0, 1, "op")]
    assert bench_trace.self_times(spans)[0] == pytest.approx(5.0)
    assert bench_trace.busy(spans[1:]) == pytest.approx(5.0)


def test_keygen_check_rejects_corrupted_outputs(keygen):
    outcome = keygen.op(1)
    assert keygen.check(outcome)[0] == []

    flipped = outcome.bob_key.copy()
    flipped[0] ^= 1
    assert keygen.check(dataclasses.replace(outcome, bob_key=flipped))[0]

    ledger = dataclasses.replace(outcome.ledger, generated=outcome.ledger.generated + 1)
    assert keygen.check(dataclasses.replace(outcome, ledger=ledger))[0]

    short = outcome.alice_key[:-1]
    assert keygen.check(dataclasses.replace(outcome, alice_key=short, bob_key=short))[0]


def test_pa_length_matches_the_program():
    from keyedqkd import BasisAlphabet, pa_output_length

    for m in (2, 16):
        for kept in range(0, 200_000, 997):
            assert bench_checks.pa_length(kept, 0.6, m, 64) == \
                pa_output_length(kept, 0.6, BasisAlphabet(m), 64)


def test_attack_check_rejects_a_shifted_estimate():
    report = {"strategy": "fixed:0.39", "trials": 16, "qubits": 100,
              "eve_bit_error": {"estimate": 0.147, "half_width": 0.002},
              "eve_bit_error_analytic": 0.1464,
              "induced_qber": {"estimate": 0.25, "half_width": 0.002},
              "induced_qber_analytic": 0.25, "success_probability": None}
    assert bench_checks.check_attack(report, 16, 100) == []
    shifted = dict(report, eve_bit_error={"estimate": 0.1464 + 0.0031, "half_width": 0.002})
    assert bench_checks.check_attack(shifted, 16, 100)

    guessed = dict(report, success_probability={"analytic": 2.0 ** -64,
                                                "estimate": 1e-5, "half_width": 4e-5})
    assert bench_checks.check_attack(guessed, 16, 100)

    # Block guessing: 4.3 report half-widths off is within the block-level bound.
    block = dict(report, trials=200_000, qubits=40,
                 eve_bit_error={"estimate": 0.24821, "half_width": 0.000998},
                 eve_bit_error_analytic=0.25, induced_qber={"estimate": 0.25, "half_width": 0.001})
    assert bench_checks.check_attack(block, 200_000, 40)
    width = bench_checks.block_guess_half_width(200_000, 3)
    assert bench_checks.check_attack(block, 200_000, 40, min_half_width=width) == []


def test_attack_check_reads_the_simulated_qubits_from_the_report():
    n = 12_500
    keyguess = {"strategy": "keyguess", "trials": 100_000, "qubits": n,
                "eve_bit_error": {"estimate": 0.2501,
                                  "half_width": 4.0 * math.sqrt(0.25 / (16 * n))},
                "eve_bit_error_analytic": None, "induced_qber": None,
                "induced_qber_analytic": None, "success_probability": None}
    assert bench_checks.simulated_qubits(keyguess) == 16 * n
    assert bench_checks.check_attack(keyguess, 100_000, n, simulated=16 * n) == []
    fewer = dict(keyguess, eve_bit_error={"estimate": 0.2501,
                                          "half_width": 4.0 * math.sqrt(0.25 / (8 * n))})
    assert bench_checks.check_attack(fewer, 100_000, n, simulated=16 * n)

    errors, total = 36_571, 16 * n
    p = errors / total
    counted = dict(keyguess, strategy="intercept",
                   eve_bit_error={"estimate": p, "half_width": 4.0 * math.sqrt(p * (1 - p) / total)})
    assert bench_checks.simulated_qubits(counted) == total


def sweep_csv(m_values, perturb=None):
    lines = [bench_checks.SWEEP_HEADER]
    for m in m_values:
        row = [m, bench_checks.key_granted_error(m), bench_checks.keyless_error(m),
               math.pi / (4 * m)]
        if perturb and perturb[0] == m:
            row[perturb[1]] += perturb[2]
        lines.append(",".join(f"{v:.9g}" for v in row))
    return "\n".join(lines) + "\n"


def test_sweep_check_rejects_a_perturbed_row():
    m_values = (2, 8, 4096)
    assert bench_checks.check_sweep(0, sweep_csv(m_values), m_values) == ([], 0)
    assert bench_checks.check_sweep(0, sweep_csv(m_values, (8, 1, 1e-6)), m_values)[0]
    assert bench_checks.check_sweep(0, sweep_csv(m_values, (8, 2, 1e-6)), m_values)[0]
    assert bench_checks.check_sweep(0, sweep_csv(m_values, (4096, 3, 1.0)), m_values) == ([], 1)
    assert bench_checks.check_sweep(1, sweep_csv(m_values), m_values)[0]
    assert bench_checks.check_sweep(0, sweep_csv(m_values[:2]), m_values)[0]


def test_tail_keeps_ten_samples_beyond():
    run = load_run_module()
    value, percentile, beyond = run.tail([float(i) for i in range(40)])
    assert (value, percentile, beyond) == (29.0, 75.0, 10)
    assert run.tail([1.0, 2.0, 3.0])[2] == 1


def test_benchmark_json_lists_the_printed_metrics():
    run = load_run_module()
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(bench_workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    run = load_run_module()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "keygen-small",
                           "--seed", "4", "--seconds", "0.1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(table)


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "keygen-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
