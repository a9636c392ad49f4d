"""Simulator and analysis toolkit for keyed-basis qubit key generation.

A short shared seed key, expanded by a deterministic keystream, selects the
encoding basis of every transmitted qubit. The library covers the qubit
algebra, keystream expanders, the full protocol pipeline with key accounting,
a catalog of eavesdropping strategies, and the information-theoretic analysis
around them.
"""

from .adversary import (
    AttackReport,
    AttackStrategy,
    attack_block_guess,
    attack_fixed_basis,
    attack_intercept_resend,
    attack_key_guess,
    block_guess_trials,
    ciphertext_only_state,
    key_guess_round,
    measure_resend_interference,
    run_attack,
)
from .analysis import (
    ConfidenceInterval,
    RateWindow,
    SweepRow,
    binomial_ci,
    eve_capacity,
    h2,
    net_key_rate,
    rate_window,
    sweep_csv,
    sweep_m,
)
from .keystream import (
    LfsrKeystream,
    LfsrSpec,
    RepetitionKeystream,
    RunningKey,
    SeedKey,
    expand_running_key,
    lfsr_period,
    lfsr_stream,
    repetition_running_key,
)
from .protocol import (
    ChannelModel,
    DirectEncryptionResult,
    KeyLedger,
    ProtocolConfig,
    ProtocolOutcome,
    RateVerdict,
    pa_output_length,
    privacy_amplify,
    rate_gate,
    reconcile,
    run_direct_encryption,
    run_protocol,
    transmit_round,
    verification_tag,
    verify_key,
)
from .qubits import (
    BasisAlphabet,
    DensityMatrix,
    MeasBasis,
    StateAngle,
    density_of_mixture,
    eve_error_key_granted,
    helstrom_error,
    keyless_error,
    measure_many,
    optimal_fixed_basis,
)

__version__ = "0.1.0"
