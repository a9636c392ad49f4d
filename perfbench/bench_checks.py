"""Correctness checks applied to every benchmark op.

Each check returns a list of error strings; an empty list means the op's
output is correct. Expected values come from closed forms written out here,
not from the functions under test, so a check can catch a defect in them.
"""

from __future__ import annotations

import math

# Share of detected bits the protocol discloses for channel estimation.
SAMPLE_FRACTION = 0.05

# Monte Carlo estimates must lie within this multiple of the report's
# four-standard-error half-width: 6 sigma, so a reordering of random draws
# cannot fail a check by chance.
CI_SLACK = 1.5

SWEEP_TOL = 1e-9
PHI_STAR_TOL = 1e-6
SWEEP_HEADER = "m,e_key_granted,e_keyless,phi_star"


def h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def key_granted_error(m: int) -> float:
    """Optimal fixed-basis error with the selectors granted: (1 - 1/(m sin(pi/2m)))/2."""
    return (1.0 - 1.0 / (m * math.sin(math.pi / (2 * m)))) / 2.0


def keyless_error(m: int) -> float:
    """Keyless discrimination error on the uniform 2m-state tiling: (1 - 1/(m cos(pi/2m)))/2."""
    return (1.0 - 1.0 / (m * math.cos(math.pi / (2 * m)))) / 2.0


def pa_length(kept: int, code_rate: float, m: int, security_bits: int) -> int:
    """floor(kept * (R - (1 - h2(e*)))) - s, clamped at 0."""
    margin = code_rate - (1.0 - h2(key_granted_error(m)))
    return max(0, math.floor(kept * margin) - security_bits)


def check_keygen(outcome, n: int, m: int, code_rate: float, security_bits: int,
                 seed_bits: int, verification_len: int) -> list[str]:
    """A verified run with equal keys of the length the ledger arithmetic predicts."""
    errors = []
    detected = int(outcome.detected_positions.size)
    key_bits = int(outcome.alice_key.size)
    if not outcome.verified:
        errors.append(f"run not verified (abort {outcome.abort_reason!r})")
    if not 0 < detected <= n:
        errors.append(f"detected count {detected} outside (0, {n}]")
    if outcome.alice_key.shape != outcome.bob_key.shape or \
            bool((outcome.alice_key != outcome.bob_key).any()):
        errors.append("alice and bob keys differ")
    kept = detected - max(1, round(SAMPLE_FRACTION * detected))
    expected = pa_length(kept, code_rate, m, security_bits)
    if key_bits != expected:
        errors.append(f"key length {key_bits} != {expected} for {kept} kept bits")
    net = key_bits - seed_bits - 2 * verification_len
    if outcome.ledger.net != net:
        errors.append(f"ledger net {outcome.ledger.net} != {net}")
    return errors


def check_estimate(label: str, ci: dict | None, analytic: float | None,
                   samples: int, min_half_width: float = 0.0) -> list[str]:
    """One Monte Carlo estimate over `samples` draws against its analytic value.

    Rates below 1/samples must not be observed at all, so there the estimate
    must be exactly 0. The four-sigma half-width is the report's, or
    `min_half_width` where that is wider.
    """
    if analytic is None:
        return []
    if ci is None:
        return [f"{label}: estimate missing"]
    estimate, half_width = ci["estimate"], max(ci["half_width"], min_half_width)
    if analytic < 1.0 / samples:
        return [] if estimate == 0.0 else [f"{label}: estimate {estimate} != 0 "
                                           f"(analytic {analytic:.3g} < 1/{samples})"]
    if abs(estimate - analytic) > CI_SLACK * half_width:
        return [f"{label}: estimate {estimate} farther than {CI_SLACK} x {half_width} "
                f"from analytic {analytic}"]
    return []


def block_guess_half_width(trials: int, k_blocks: int) -> float:
    """Four sigma of a block-guessing error rate, bounded without a model.

    A block's qubits share one guessed basis: the block is error-free when
    the guess is right and errs on about half its qubits when it is wrong,
    so its qubits are not independent draws and the report's binomial
    half-width understates the spread. A per-block rate in [0, 1] with mean
    1/4 has variance at most 1/4 * 3/4, which bounds it.
    """
    return 4.0 * math.sqrt(3.0 / 16 / (trials * k_blocks))


def simulated_qubits(report: dict) -> int:
    """Qubits behind a report's eve error rate, read back from its half-width.

    Reports give four standard errors: 4*sqrt(p(1-p)/N) for a count over N
    qubits, and 4*sqrt(1/4 / N) for key guessing, which averages the rates of
    its simulated transmissions. Solving for N is exact up to rounding.
    """
    ci = report.get("eve_bit_error")
    if not ci or ci["half_width"] <= 0.0:
        return 0
    p = ci["estimate"]
    variance = 0.25 if report.get("strategy") == "keyguess" else p * (1.0 - p)
    return round(16.0 * variance / ci["half_width"] ** 2)


def check_attack(report: dict, trials: int, qubits: int, eve_error: float | None = None,
                 induced: float | None = None, min_half_width: float = 0.0,
                 simulated: int | None = None) -> list[str]:
    """An attack report (`AttackReport.to_json_dict()`) against its analytic values.

    `eve_error` and `induced` supply the noiseless analytic values a report
    leaves empty (1/4 for key and block guessing); `min_half_width` widens
    the error-rate checks where the report's half-width understates the
    spread (see block_guess_half_width). `simulated`, when given, is the
    number of qubits the report must have sent through the channel.
    """
    errors = []
    name = report.get("strategy")
    if report.get("trials") != trials or report.get("qubits") != qubits:
        errors.append(f"{name}: trials/qubits {report.get('trials')}/{report.get('qubits')} "
                      f"!= {trials}/{qubits}")
    if simulated is not None and simulated_qubits(report) != simulated:
        errors.append(f"{name}: {simulated_qubits(report)} qubits simulated, not {simulated}")
    eve_analytic = report.get("eve_bit_error_analytic")
    induced_analytic = report.get("induced_qber_analytic")
    # Error rates are estimated over qubits, success over trials.
    errors += check_estimate(f"{name} eve_bit_error", report.get("eve_bit_error"),
                             eve_error if eve_analytic is None else eve_analytic, qubits,
                             min_half_width)
    errors += check_estimate(f"{name} induced_qber", report.get("induced_qber"),
                             induced if induced_analytic is None else induced_analytic, qubits,
                             min_half_width)
    success = report.get("success_probability")
    if success is not None:
        errors += check_estimate(f"{name} success", success, success.get("analytic"), trials)
    return errors


def check_sweep(returncode: int, csv_text: str, m_values) -> tuple[list[str], int]:
    """Sweep CSV rows against the closed forms.

    Returns (errors, phi_star mismatches). A row whose phi_star is not
    pi/(4m) is counted, not failed: it is a known defect of the basis search,
    whose error value stays right.
    """
    if returncode != 0:
        return [f"sweep exited with code {returncode}"], 0
    lines = csv_text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"bad sweep header {lines[:1]}"], 0
    rows = lines[1:]
    if len(rows) != len(m_values):
        return [f"{len(rows)} sweep rows for {len(m_values)} basis counts"], 0
    errors, mismatches = [], 0
    for line, m in zip(rows, m_values):
        try:
            m_text, granted, keyless, phi = line.split(",")
            values = int(m_text), float(granted), float(keyless), float(phi)
        except ValueError:
            errors.append(f"unparsable sweep row {line!r}")
            continue
        if values[0] != m:
            errors.append(f"row m={values[0]} where {m} was asked for")
            continue
        if abs(values[1] - key_granted_error(m)) > SWEEP_TOL:
            errors.append(f"m={m}: e_key_granted {values[1]} != {key_granted_error(m)}")
        if abs(values[2] - keyless_error(m)) > SWEEP_TOL:
            errors.append(f"m={m}: e_keyless {values[2]} != {keyless_error(m)}")
        if abs(values[3] - math.pi / (4 * m)) > PHI_STAR_TOL:
            mismatches += 1
    return errors, mismatches
