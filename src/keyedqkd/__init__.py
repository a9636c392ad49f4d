"""Simulator and analysis toolkit for keyed-basis qubit key generation.

A short shared seed key, expanded by a deterministic keystream, selects the
encoding basis of every transmitted qubit. The library covers the qubit
algebra, keystream expanders, the full protocol pipeline with key accounting,
a catalog of eavesdropping strategies, and the information-theoretic analysis
around them.

Submodules load on first use (PEP 562): `import keyedqkd` loads none of
them, and reading `keyedqkd.run_protocol` or `keyedqkd.protocol` imports the
owning module.
"""

import importlib

_EXPORTS = {
    "adversary": (
        "AttackReport",
        "AttackStrategy",
        "attack_block_guess",
        "attack_fixed_basis",
        "attack_intercept_resend",
        "attack_key_guess",
        "block_guess_trials",
        "ciphertext_only_state",
        "measure_resend_interference",
        "run_attack",
    ),
    "analysis": (
        "ConfidenceInterval",
        "RateWindow",
        "SweepRow",
        "binomial_ci",
        "eve_capacity",
        "h2",
        "net_key_rate",
        "rate_window",
        "sweep_csv",
        "sweep_m",
    ),
    "keystream": (
        "LfsrKeystream",
        "LfsrSpec",
        "RepetitionKeystream",
        "RunningKey",
        "SeedKey",
        "expand_running_key",
        "lfsr_period",
        "lfsr_stream",
        "repetition_running_key",
    ),
    "protocol": (
        "ChannelModel",
        "DirectEncryptionResult",
        "KeyLedger",
        "ProtocolConfig",
        "ProtocolOutcome",
        "RateVerdict",
        "pa_output_length",
        "privacy_amplify",
        "rate_gate",
        "reconcile",
        "run_direct_encryption",
        "run_protocol",
        "transmit_round",
        "verification_tag",
        "verify_key",
    ),
    "qubits": (
        "BasisAlphabet",
        "DensityMatrix",
        "MeasBasis",
        "eve_error_key_granted",
        "keyless_error",
        "measure_many",
        "optimal_fixed_basis",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

# `from keyedqkd import *` binds the submodules as well as the names.
__all__ = sorted([*_OWNER, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
