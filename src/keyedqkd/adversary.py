"""Eavesdropper strategies with analytic and Monte Carlo statistics.

Active attacks are measure-resend: the attacker measures the transmitted
state and forwards her projected state, which then crosses the users' channel.
Passive bounds elsewhere grant her a perfect copy, so measure-resend covers
every strategy quantified here. Strategy evaluation is deterministic given
(config, rng seed); Monte Carlo trials run in fixed-size chunks whose
sub-seeds derive from the caller's generator, so results are independent of
the worker-thread count.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analysis import ConfidenceInterval, binomial_ci
from .keystream import (
    LfsrKeystream,
    RepetitionKeystream,
    RunningKey,
    SeedKey,
    expand_running_key,
    lfsr_bits,
    uniform_bits,
    uniform_words,
)
from .protocol import ChannelModel, ProtocolConfig
from .qubits import (
    BasisAlphabet,
    DensityMatrix,
    MeasBasis,
    StateAngle,
    density_of_mixture,
    eve_error_key_granted,
    measure_many,
    turn_by_bits,
    _sample_outcomes,
    _sin2,
)

BREIDBART_ANGLE = math.pi / 8

# Monte Carlo trials are processed in chunks of this size; each chunk draws
# its own child generator so thread scheduling cannot reorder randomness.
TRIAL_CHUNK = 4096

# Child seeds are drawn this many at a time, so a huge trial count never
# holds every chunk's seed at once.
SEED_DRAW = 1024

# Transmission simulations are capped when a strategy's success statistic
# needs far more trials than its error statistics do.
MAX_QUBIT_TRIALS = 16

# The two-basis alphabet's basis angles, 0 and pi/4, by code.
_TWO_BASES = BasisAlphabet(2).angle(np.arange(2))


@dataclass(frozen=True)
class AttackStrategy:
    """Parsed attack selection.

    kinds: intercept_resend_random (optional attacked fraction),
    fixed_basis (basis angle), key_guess, block_guess (k_blocks).
    """

    kind: str
    phi: float | None = None
    k_blocks: int | None = None
    fraction: float = 1.0

    def __post_init__(self):
        if self.kind == "fixed_basis":
            if self.phi is None:
                raise ValueError("fixed_basis needs a basis angle")
            object.__setattr__(self, "phi", MeasBasis(self.phi).phi)
        elif self.kind == "block_guess":
            if self.k_blocks is None or self.k_blocks < 1:
                raise ValueError("block_guess needs k_blocks >= 1")
        elif self.kind == "intercept_resend_random":
            if not 0.0 <= self.fraction <= 1.0:
                raise ValueError(f"attacked fraction must lie in [0, 1], got {self.fraction}")
        elif self.kind != "key_guess":
            raise ValueError(f"unknown attack kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "AttackStrategy":
        """Grammar: "intercept[:f]", "fixed:<phi>", "breidbart", "keyguess", "blockguess:<k>"."""
        name, _, arg = text.partition(":")

        def number(convert):
            try:
                return convert(arg)
            except ValueError:
                raise ValueError(f"bad parameter {arg!r} in strategy {text!r}") from None

        if name == "intercept":
            return cls("intercept_resend_random", fraction=number(float) if arg else 1.0)
        if name == "fixed":
            return cls("fixed_basis", phi=number(float))
        if name == "breidbart" and not arg:
            return cls("fixed_basis", phi=BREIDBART_ANGLE)
        if name == "keyguess" and not arg:
            return cls("key_guess")
        if name == "blockguess":
            return cls("block_guess", k_blocks=number(int))
        raise ValueError(f"unknown strategy {text!r}")


@dataclass(frozen=True)
class AttackReport:
    """Per-strategy statistics; confidence half-widths are four standard errors.

    A binomial interval at 0 or `trials` successes has zero width, since the
    plug-in standard error vanishes there. It then records the observed
    count only; it does not claim that the rate is exactly 0 or 1, and any
    rate much closer than 1/trials to that boundary is expected to read the
    same.
    """

    strategy: str
    trials: int
    qubits: int
    eve_bit_error: ConfidenceInterval | None = None
    induced_qber: ConfidenceInterval | None = None
    eve_bit_error_analytic: float | None = None
    induced_qber_analytic: float | None = None
    success_analytic: float | None = None
    success_mc: ConfidenceInterval | None = None
    info_fraction: float | None = None

    def __post_init__(self):
        for ci in (self.eve_bit_error, self.induced_qber, self.success_mc):
            if ci is not None and not 0.0 <= ci.estimate <= 1.0:
                raise ValueError("rates must lie in [0, 1]")

    def to_json_dict(self) -> dict:
        def ci(value):
            if value is None:
                return None
            return {"estimate": value.estimate, "half_width": value.half_width}

        return {
            "strategy": self.strategy,
            "trials": self.trials,
            "qubits": self.qubits,
            "eve_bit_error": ci(self.eve_bit_error),
            "eve_bit_error_analytic": self.eve_bit_error_analytic,
            "induced_qber": ci(self.induced_qber),
            "induced_qber_analytic": self.induced_qber_analytic,
            "success_probability": None if self.success_analytic is None and self.success_mc is None
            else {"analytic": self.success_analytic, **(ci(self.success_mc) or {})},
            "info_fraction": self.info_fraction,
        }


def _chunk_rngs(rng: np.random.Generator, trials: int, chunk: int = TRIAL_CHUNK):
    """Yield (size, child generator) for `trials` split into chunks, lazily.

    Child seeds come from the caller's generator, SEED_DRAW at a time; each
    seed is one 64-bit draw, so the pieces reproduce a single draw of all the
    seeds and the split is deterministic and identical for every thread count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    chunks = -(-trials // chunk)
    for first in range(0, chunks, SEED_DRAW):
        seeds = rng.integers(0, 2 ** 63, size=min(SEED_DRAW, chunks - first))
        for index, seed in enumerate(seeds, first):
            yield min(chunk, trials - index * chunk), np.random.default_rng(int(seed))


def _map_chunks(kernel, chunks, threads: int) -> list:
    """kernel(*chunk) per chunk, in order; min(threads, usable CPUs) workers,
    as many in flight. Usable CPUs are the process's affinity set where the
    OS reports one; with one worker the chunks run on the calling thread."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, usable or 1)
    if workers == 1:
        return [kernel(*c) for c in chunks]
    # Imported here, so one-worker runs never load concurrent.futures.
    from concurrent.futures import ThreadPoolExecutor

    results, pending = [], deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for c in chunks:
            if len(pending) == workers:
                results.append(pending.popleft().result())
            pending.append(pool.submit(kernel, *c))
        results.extend(future.result() for future in pending)
    return results


def _with_bit(angles: np.ndarray) -> np.ndarray:
    """The angles turned by a bit: angles[i] + b * pi/2 at code 2*i + b.
    The two turns go in as Python floats: a bit array would cost a numpy
    multiply on every call, about 2 us, three times per simulated round."""
    return (angles[:, None] + (turn_by_bits(0.0, 0), turn_by_bits(0.0, 1))).ravel()


def _decode_flip(d: np.ndarray) -> np.ndarray:
    """Likelihood decoding flips an outcome whose basis is more than pi/4 off the keyed one."""
    return np.cos(d) ** 2 < 0.5


def _by_codes(func, rows, row_codes, cols, col_codes):
    """func(rows[row_codes] - cols[col_codes]) for an elementwise func.

    When the table of every (row, col) difference has no more entries than
    there are positions, func runs once over that table and the positions
    gather from it; otherwise it runs over the gathered differences. The
    differences are the same floats either way, and np.sin and np.cos give
    each float the same result wherever it sits in an array (a test checks
    this for np.sin), so both ways give the float path's bits.
    """
    if rows.size * cols.size <= row_codes.size:
        table = func(np.subtract.outer(rows, cols)).ravel()
        return table[row_codes * cols.size + col_codes]
    return func(rows[row_codes] - cols[col_codes])


def _resend_round(key, eve, attacked, channel: ChannelModel, rng):
    """One transmission of any shape with measure-resend on the positions that
    `attacked` (indices, a mask or a slice) selects.

    Bases come as (angles, codes) pairs: `key` holds the keyed bases and
    `eve` the attacker's, each code array the shape of the transmission.
    States are codes too, 2*i + b for angle i turned by bit b, and every p1
    is measure_many's sin^2(theta - phi) on the same floats, sampled with its
    draws in its order. Returns per-position arrays: alice bits, eve outcomes
    (on attacked positions), bob bits, detected mask.
    """
    (key_angles, key_codes), (eve_angles, eve_codes) = key, eve
    alice = uniform_bits(rng, key_codes.size).reshape(key_codes.shape)
    keyed = _with_bit(key_angles)
    state = 2 * key_codes + alice
    eve_codes = eve_codes[attacked]
    outcome = _sample_outcomes(_by_codes(_sin2, keyed, state[attacked], eve_angles, eve_codes), rng)
    state[attacked] = keyed.size + 2 * eve_codes + outcome
    sent = np.concatenate([keyed, _with_bit(eve_angles)])
    lost, flipped = channel.draw(state.shape, rng)
    bob = _sample_outcomes(
        _by_codes(_sin2, _with_bit(sent), 2 * state + flipped, key_angles, key_codes), rng)
    return alice, outcome, bob, ~lost


def _eve_bases(strategy: AttackStrategy, n: int, rng: np.random.Generator):
    """Attacked positions (indices or a slice) and attacker bases as (angles, codes)
    for one round of an intercept or fixed-basis strategy."""
    if strategy.kind == "intercept_resend_random":
        attacked = np.flatnonzero(rng.random(n) < strategy.fraction)
        return attacked, (_TWO_BASES, uniform_bits(rng, n).astype(np.int64))
    return slice(None), (np.array([strategy.phi]), np.zeros(n, dtype=np.int64))


def _state_attack_counts(strategy: AttackStrategy, key, channel: ChannelModel, rng):
    """One round of intercept or fixed-basis measure-resend against the keyed
    bases `key`, an (angles, codes) pair: (her bit errors, attacked positions,
    user errors, detected positions)."""
    key_angles, key_codes = key
    attacked, (eve_angles, eve_codes) = _eve_bases(strategy, key_codes.size, rng)
    alice, outcome, bob, detected = _resend_round(
        key, (eve_angles, eve_codes), attacked, channel, rng)
    flip = _by_codes(_decode_flip, key_angles, key_codes[attacked], eve_angles, eve_codes[attacked])
    return (int(np.count_nonzero((outcome ^ flip) != alice[attacked])), outcome.size,
            int(np.count_nonzero((bob != alice) & detected)), int(np.count_nonzero(detected)))


def _state_attack_errors(strategy: AttackStrategy, config: ProtocolConfig,
                         rng: np.random.Generator, trials: int, threads: int):
    """Error rates of intercept or fixed-basis measure-resend over `trials` rounds.

    The attacker is granted the running key afterwards and decodes each bit
    by likelihood: keep the outcome when her basis is within pi/4 of the
    keyed basis, flip it otherwise. On the two-basis alphabet a random-basis
    attacker is never off by more than pi/4, so her outcome stands.
    Returns (her bit error over attacked positions, user error over detected
    positions), each None when there are no such positions.
    """
    key = (config.alphabet.angle(np.arange(config.alphabet.m)), config.key_selectors())

    def kernel(_, chunk_rng):
        return _state_attack_counts(strategy, key, config.channel, chunk_rng)

    parts = _map_chunks(kernel, _chunk_rngs(rng, trials, chunk=1), threads)
    eve_err, eve_tot, user_err, user_tot = (sum(p[i] for p in parts) for i in range(4))
    return (binomial_ci(eve_err, eve_tot) if eve_tot else None,
            binomial_ci(user_err, user_tot) if user_tot else None)


def attack_intercept_resend(config: ProtocolConfig, rng: np.random.Generator,
                            trials: int = 1, fraction: float = 1.0,
                            threads: int = 1) -> AttackReport:
    """Opaque attack on the two-basis alphabet: the attacker measures each
    attacked qubit in a uniformly random one of the two bases and resends her
    outcome state.

    Her bit error is reported over attacked positions after the selectors are
    granted; the induced user error is reported over all detected positions.
    Analytic fields are the noiseless-channel values: 1/4 for her error and
    fraction/4 for the induced rate.
    """
    if config.alphabet.m != 2:
        raise ValueError("the random-basis opaque attack is defined on the two-basis alphabet")
    eve_error, induced = _state_attack_errors(
        AttackStrategy("intercept_resend_random", fraction=fraction), config, rng, trials, threads)
    return AttackReport(
        strategy=f"intercept:{fraction:g}" if fraction != 1.0 else "intercept",
        trials=trials, qubits=config.n,
        eve_bit_error=eve_error, induced_qber=induced,
        eve_bit_error_analytic=0.25,
        induced_qber_analytic=0.25 * fraction,
    )


def attack_fixed_basis(config: ProtocolConfig, phi: float, rng: np.random.Generator,
                       trials: int = 1, threads: int = 1) -> AttackReport:
    """Measure-resend with one fixed basis for every qubit.

    The attacker stores outcomes, is granted the running key afterwards, and
    decodes each bit by likelihood. Her error matches
    eve_error_key_granted(phi, m). The noiseless induced user error is 1/4
    for every phi and m: averaging the projection products over bases and
    bits gives (1/(2m)) * sum_j sin^2(2*d_j) with d_j = theta_j - phi, and
    sin^2(2*d_j) = (1 - cos(4*d_j))/2 where 4*d_j = 2*pi*j/m - 4*phi, whose
    cosines sum to 0 for m >= 2; the sum is m/2 and the rate 1/4.
    """
    basis = MeasBasis(phi)
    eve_error, induced = _state_attack_errors(
        AttackStrategy("fixed_basis", phi=basis.phi), config, rng, trials, threads)
    return AttackReport(
        strategy=f"fixed:{basis.phi:.9g}",
        trials=trials, qubits=config.n,
        eve_bit_error=eve_error, induced_qber=induced,
        eve_bit_error_analytic=eve_error_key_granted(basis, config.alphabet),
        induced_qber_analytic=0.25,
    )


def key_guess_round(config: ProtocolConfig, guess: SeedKey, rng: np.random.Generator):
    """One transmission attacked under a guessed seed key.

    Returns (success, eve bit-error rate, induced user error rate); the
    induced rate is None when no qubit was detected. The guess expands
    through the same register spec; an all-zero guess expands to the
    all-zero stream (the attacker is free to guess a degenerate seed).
    """
    if not isinstance(config.keystream, LfsrKeystream):
        raise ValueError("the key-guessing attack targets an LFSR keystream")
    if len(guess) != len(config.keystream.seed):
        raise ValueError("guess length must match the seed length")
    success, eve_error, user_errors, detected = _guess_round(
        config, config.key_selectors(), guess, rng)
    return success, eve_error, user_errors / detected if detected else None


def _guess_round(config: ProtocolConfig, key_selectors, guess: SeedKey,
                 rng: np.random.Generator):
    """(success, eve bit-error rate, user errors, detected count) of one round."""
    bits, _ = lfsr_bits(config.keystream.spec.taps, guess.bits,
                        config.n * config.alphabet.bits_per_selector)
    guess_selectors = expand_running_key(bits, config.n, config.alphabet).selectors
    bases = config.alphabet.angle(np.arange(config.alphabet.m))
    alice, outcome, bob, detected = _resend_round(
        (bases, key_selectors), (bases, guess_selectors), slice(None), config.channel, rng)
    eve_error = float(np.mean(outcome != alice))
    return (guess == config.keystream.seed, eve_error,
            int(np.sum((bob != alice) & detected)), int(np.sum(detected)))


def _key_guess_successes(seed_bits: np.ndarray, count: int, rng: np.random.Generator) -> int:
    """How many of `count` uniform guesses equal `seed_bits`.

    The guesses are those of rng.integers(0, 2, size=(count, L)): each bit
    is the top bit of one 32-bit draw (Lemire's bounded draw with range 2).
    The draws are read as a (count, L) array of uniform_words and rows are
    filtered a column at a time, so no int64 guess matrix is built.
    """
    length = seed_bits.size
    head, words = uniform_words(rng, count * length)
    if head:  # a pending half, which a fresh chunk generator never has
        words = np.concatenate([np.array(head, dtype=np.uint32), words])
    words = words.reshape(count, length)
    alive = np.arange(count)
    for column, bit in zip(words.T, seed_bits):
        alive = alive[column[alive] >> 31 == bit]
        if not alive.size:
            break
    return int(alive.size)


def attack_key_guess(config: ProtocolConfig, rng: np.random.Generator,
                     trials: int = 1, threads: int = 1) -> AttackReport:
    """Uniform seed-key guessing before measurement.

    Success (guess equals the actual seed) is counted over every trial; the
    analytic rate is 2^-|K_s|. Its interval is binomial_ci's, which has zero
    width at 0 or `trials` successes: an estimate of 0 with half-width 0
    says that no guess in `trials` hit, not that the rate is 0; any rate
    well below 1/trials, such as 2^-|K_s| for a long seed, is expected to
    read exactly that. Transmission-level error statistics come from a
    capped number of simulated rounds, since the success statistic alone
    needs very large trial counts; the induced user error pools errors over
    the detected qubits of every round and is None when none was detected.
    """
    if not isinstance(config.keystream, LfsrKeystream):
        raise ValueError("the key-guessing attack targets an LFSR keystream")
    seed_bits = np.array(config.keystream.seed.bits, dtype=np.uint8)
    length = seed_bits.size

    successes = sum(_map_chunks(partial(_key_guess_successes, seed_bits),
                                _chunk_rngs(rng, trials), threads))

    qubit_trials = min(trials, MAX_QUBIT_TRIALS)
    key_selectors = config.key_selectors()

    def round_kernel(_, chunk_rng):
        guess = SeedKey(tuple(int(b) for b in chunk_rng.integers(0, 2, size=length)))
        return _guess_round(config, key_selectors, guess, chunk_rng)[1:]

    rounds = _map_chunks(round_kernel, _chunk_rngs(rng, qubit_trials, chunk=1), threads)
    eve_err_sum, user_errors, detected = (sum(r[i] for r in rounds) for i in range(3))
    return AttackReport(
        strategy="keyguess",
        trials=trials, qubits=config.n,
        eve_bit_error=ConfidenceInterval(eve_err_sum / qubit_trials,
                                         4.0 * math.sqrt(0.25 / (qubit_trials * config.n))),
        induced_qber=ConfidenceInterval(user_errors / detected, 4.0 * math.sqrt(0.25 / detected))
        if detected else None,
        success_analytic=2.0 ** -length,
        success_mc=binomial_ci(successes, trials),
        info_fraction=1.0,
    )


@dataclass(frozen=True)
class BlockGuessTrials:
    """Per-trial records of the block-guessing attack (noiseless unless a
    channel is supplied): success flags plus user and attacker error counts
    on attacked positions."""

    success: np.ndarray
    attacked_errors: np.ndarray
    eve_errors: np.ndarray
    attacked_per_trial: int


def _block_guess_chunk(count: int, rng: np.random.Generator, k_blocks: int, block_len: int,
                       channel: ChannelModel):
    """`count` block-guess trials: (success flags, user errors, attacker errors)."""
    key_blocks = rng.integers(0, 2, size=(count, k_blocks), dtype=np.int64)
    guesses = rng.integers(0, 2, size=(count, k_blocks), dtype=np.int64)
    success = np.all(guesses == key_blocks, axis=1)
    alice, outcome, bob, detected = _resend_round(
        (_TWO_BASES, np.repeat(key_blocks, block_len, axis=1)),
        (_TWO_BASES, np.repeat(guesses, block_len, axis=1)), slice(None), channel, rng)
    return success, np.sum((bob != alice) & detected, axis=1), np.sum(outcome != alice, axis=1)


def block_guess_trials(n: int, m_k: int, k_blocks: int, rng: np.random.Generator,
                       trials: int = 1, threads: int = 1,
                       channel: ChannelModel | None = None) -> BlockGuessTrials:
    """Simulate the per-block guessing attack on the repetition running key.

    The users' m_k-bit key is drawn fresh each trial; the attacker picks the
    first k_blocks blocks (the choice is irrelevant by symmetry), guesses one
    basis bit per block, and measure-resends the k*n/m_k covered qubits.
    """
    if not 1 <= k_blocks <= m_k:
        raise ValueError(f"k_blocks must lie in [1, {m_k}], got {k_blocks}")
    if n % m_k:
        raise ValueError(f"block arithmetic needs m_k | n, got n={n}, m_k={m_k}")
    block_len = n // m_k
    kernel = partial(_block_guess_chunk, k_blocks=k_blocks, block_len=block_len,
                     channel=channel or ChannelModel())
    parts = _map_chunks(kernel, _chunk_rngs(rng, trials), threads)
    return BlockGuessTrials(
        success=np.concatenate([p[0] for p in parts]),
        attacked_errors=np.concatenate([p[1] for p in parts]),
        eve_errors=np.concatenate([p[2] for p in parts]),
        attacked_per_trial=k_blocks * block_len,
    )


def attack_block_guess(n: int, m_k: int, k_blocks: int, rng: np.random.Generator,
                       trials: int = 1, threads: int = 1,
                       channel: ChannelModel | None = None) -> AttackReport:
    """Block-guessing attack statistics.

    Success (all k guesses right) has analytic probability 2^-k; a successful
    trial reads k/m_k of the data with zero induced error on the attacked
    region, while each wrongly guessed block suffers 50% errors, which
    averages to an unconditional 1/4 over attacked positions.
    """
    record = block_guess_trials(n, m_k, k_blocks, rng, trials, threads, channel)
    attacked_total = record.attacked_per_trial * trials
    return AttackReport(
        strategy=f"blockguess:{k_blocks}",
        trials=trials, qubits=n,
        eve_bit_error=binomial_ci(int(record.eve_errors.sum()), attacked_total),
        induced_qber=binomial_ci(int(record.attacked_errors.sum()), attacked_total),
        induced_qber_analytic=0.25,
        success_analytic=2.0 ** -k_blocks,
        success_mc=binomial_ci(int(record.success.sum()), trials),
        info_fraction=k_blocks / m_k,
    )


def ciphertext_only_state(running_key: RunningKey, alphabet: BasisAlphabet,
                          p_zero: float = 0.5) -> list[DensityMatrix]:
    """Per-position ciphertext state averaged over the data distribution.

    With uniform data every position reduces to the maximally mixed state
    regardless of the selector, so the transmitted sequence carries no
    information about the running key. A biased data prior breaks that
    reduction, which is what makes the uniform-data premise load-bearing.
    """
    if not 0.0 <= p_zero <= 1.0:
        raise ValueError(f"data prior must lie in [0, 1], got {p_zero}")
    out = []
    for selector in running_key.selectors:
        theta = alphabet.basis_angle(int(selector))
        out.append(density_of_mixture([
            (p_zero, StateAngle(theta)),
            (1.0 - p_zero, StateAngle(turn_by_bits(theta, 1))),
        ]))
    return out


def measure_resend_interference(strategy: AttackStrategy):
    """In-line interference callable for transmit_round/run_protocol.

    Realizes the measure-resend strategies against a live run: the returned
    function measures the transmitted states in the strategy's bases and
    forwards the projected states. Only intercept and fixed-basis strategies
    act on states alone; key-targeting strategies need the run's keystream
    and are evaluated through their dedicated attack functions.
    """
    if strategy.kind not in ("intercept_resend_random", "fixed_basis"):
        raise ValueError(f"{strategy.kind} cannot run as in-line interference")

    def interfere(theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        attacked, (angles, codes) = _eve_bases(strategy, theta.size, rng)
        eve_phi = angles[codes[attacked]]
        forwarded = theta.copy()
        forwarded[attacked] = turn_by_bits(eve_phi, measure_many(theta[attacked], eve_phi, rng))
        return forwarded

    return interfere


def run_attack(strategy: AttackStrategy, config: ProtocolConfig, rng: np.random.Generator,
               trials: int = 1, threads: int = 1) -> AttackReport:
    """Dispatch a parsed strategy against a protocol configuration."""
    if strategy.kind == "intercept_resend_random":
        return attack_intercept_resend(config, rng, trials=trials,
                                       fraction=strategy.fraction, threads=threads)
    if strategy.kind == "fixed_basis":
        return attack_fixed_basis(config, strategy.phi, rng, trials=trials, threads=threads)
    if strategy.kind == "key_guess":
        return attack_key_guess(config, rng, trials=trials, threads=threads)
    if strategy.kind == "block_guess":
        if not isinstance(config.keystream, RepetitionKeystream):
            raise ValueError("the block-guessing attack targets a repetition keystream")
        return attack_block_guess(config.n, config.keystream.secret_bits, strategy.k_blocks,
                                  rng, trials=trials, threads=threads, channel=config.channel)
    raise ValueError(f"unknown attack kind {strategy.kind!r}")
