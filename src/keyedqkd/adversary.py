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
    bits_int,
    expand_running_key,
    lfsr_bits,
)
from .protocol import ChannelModel, ProtocolConfig
from .qubits import (
    BasisAlphabet,
    DensityMatrix,
    MeasBasis,
    OffsetTable,
    eve_error_key_granted,
    measure_codes,
    measure_many,  # not called here: perfbench's trace wraps this module's binding
    require_integer,
    require_real,
    uniform_below,
    uniform_bits,
    uniform_words,
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

# Attack rounds run in blocks whose (rounds, positions) code array holds at
# most this many bytes: half of glibc's default 128 KiB mmap threshold, so a
# block's arrays come from the heap and its numpy calls stay few. A block's
# rounds share one generator, so a change here moves multi-round draws.
BLOCK_BYTES = 1 << 16


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
            object.__setattr__(self, "k_blocks", require_integer(self.k_blocks, "k_blocks"))
            if self.k_blocks < 1:
                raise ValueError("block_guess needs k_blocks >= 1")
        elif self.kind == "intercept_resend_random":
            object.__setattr__(self, "fraction", require_real(self.fraction, "attacked fraction"))
            if not 0.0 <= self.fraction <= 1.0:
                raise ValueError(f"attacked fraction must lie in [0, 1], got {self.fraction}")
        elif self.kind != "key_guess":
            raise ValueError(f"unknown attack kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "AttackStrategy":
        """Grammar: "intercept[:f]", "fixed:<phi>", "breidbart", "keyguess", "blockguess:<k>"."""
        name, colon, arg = text.partition(":")
        if colon and not arg:
            raise ValueError(f"empty parameter in strategy {text!r}")

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
    Each child is default_rng(seed), built as the Generator(PCG64(seed)) it
    returns, without its argument checks.
    """
    chunks = -(-_trial_count(trials) // chunk)
    for first in range(0, chunks, SEED_DRAW):
        seeds = rng.integers(0, 2 ** 63, size=min(SEED_DRAW, chunks - first))
        for index, seed in enumerate(seeds.tolist(), first):
            yield min(chunk, trials - index * chunk), np.random.Generator(np.random.PCG64(seed))


def _trial_count(trials) -> int:
    """`trials` as an int; non-integers and counts below 1 raise ValueError."""
    if require_integer(trials, "trials") < 1:
        raise ValueError("trials must be >= 1")
    return int(trials)


def _block_size(trials: int, row_bytes: int) -> int:
    """B, the rounds to a block of _chunk_rngs(rng, trials, B) for rows of
    `row_bytes`: at most BLOCK_BYTES // row_bytes, one at least, spread
    evenly over as few blocks as that allows (4 for 16 rows of 12 500
    bytes), so B, and with it every draw, depends on the trial count and
    the row alone, never on the thread count."""
    trials = _trial_count(trials)
    most = max(1, BLOCK_BYTES // row_bytes)
    return -(-trials // -(-trials // most))


def _map_chunks(kernel, chunks, threads: int) -> list:
    """kernel(*chunk) per chunk, a chunk of trials or a block of rounds, in
    order; min(threads, usable CPUs) workers, as many in flight. Usable CPUs
    are the process's affinity set where the OS reports one; with one worker
    the chunks run on the calling thread."""
    threads = require_integer(threads, "threads")
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


@dataclass(frozen=True)
class _Attack:
    """What every measure-resend round of one attack shares, built once by
    _attack and read by every round and thread: m, the code dtype of its
    states and offsets, its OffsetTables `eve` (keyed states in the
    attacker's bases) and `bob` (keyed or resent states, turned by a
    channel flip, in the keyed bases), the keyed codes (None for block
    guessing), a fixed basis's codes, all 0 (None otherwise), and
    intercept's attacked fraction (1 for every other attack)."""

    m: int
    code: np.dtype
    eve: OffsetTable
    bob: OffsetTable
    key_codes: np.ndarray | None
    zeros: np.ndarray | None
    fraction: float


def _attack(m: int, positions: int, strategy: AttackStrategy | None = None,
            selectors: np.ndarray | None = None) -> _Attack:
    """The read-only _Attack of `strategy` (None for block guessing) on m
    keyed bases, whose rounds measure at most `positions` positions at once,
    with a round's keyed `selectors`, if any. An attacker on the keyed
    lattice shares one table between both measurements; against a fixed
    basis at phi, she reads keyed states at shift -phi and the receiver her
    resent states at +phi. The code dtype is the narrowest unsigned type
    that holds 2m - 1, the largest state code and offset."""
    phi = strategy.phi if strategy is not None and strategy.kind == "fixed_basis" else None
    if phi is None:
        eve = bob = OffsetTable(m, 0.0, positions)
    else:
        eve, bob = OffsetTable(m, -phi, positions), OffsetTable(m, phi, positions)
    code = np.min_scalar_type(2 * m - 1)
    return _Attack(m, code, eve, bob,
                   None if selectors is None else _read_only(selectors.astype(code)),
                   None if phi is None else _read_only(np.zeros(positions, np.uint8)),
                   1.0 if strategy is None else strategy.fraction)


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a`, frozen in place: a value that every round and thread of an attack shares."""
    a.setflags(write=False)
    return a


def _resend_round(attack: _Attack, key_codes, eve_codes, attacked,
                  channel: ChannelModel, count: int, rng: np.random.Generator):
    """A block of `count` transmissions, one per row, with measure-resend
    on the positions of each row that `attacked` (indices, a mask or a
    slice along the rows) selects. Each step is one numpy call over the
    block and draws for all its rows from `rng` in C order, so a block of
    one row draws what one round does.

    `key_codes` are the keyed selectors and `eve_codes` the attacker's
    bases on the keyed lattice, or 0 for a fixed basis, whose angle the
    tables' shifts carry and which attacks every position; each is one row
    of the transmission, shared by every row, or one per row, of any
    integer dtype. States are codes too, j + m*b for basis j turned by bit
    b, and each measurement reads the offset (state + m*flip - basis) mod
    2m through qubits.measure_codes with the attack's prebuilt tables, so a
    block does only per-position work. The offsets come from wrapping
    arithmetic in the attack's code dtype and & (2m - 1): 2m divides the
    dtype's range, and every code, below 2m, casts into it exactly.
    Returns (rows, positions) arrays: alice bits, eve outcomes (on attacked
    positions), bob bits, and the detected mask, None when the channel
    loses nothing.

    Key codes in the code dtype, as every attack passes them, are not
    copied.
    """
    m, code, lattice = attack.m, attack.code, 2 * attack.m - 1
    key_codes = key_codes.astype(code, copy=False)
    n = key_codes.shape[-1]
    alice = uniform_bits(rng, (count, n))
    state = np.multiply(alice, m, dtype=code)
    state += key_codes
    # Her resent states replace the attacked ones, so their offsets, and
    # then the resent codes, may overwrite them in place.
    offsets, eve_codes = state[:, attacked], eve_codes[..., attacked]
    np.subtract(offsets, eve_codes, out=offsets, dtype=code, casting="unsafe")
    offsets &= lattice
    outcome = measure_codes(attack.eve, offsets, rng)
    np.multiply(outcome, m, out=offsets, dtype=code)
    np.add(offsets, eve_codes, out=offsets, dtype=code, casting="unsafe")
    state[:, attacked] = offsets
    lost, flipped = channel.draw(rng, state.shape)
    if flipped is not None:
        state += np.multiply(flipped, m, dtype=code)
    state -= key_codes
    state &= lattice
    bob = measure_codes(attack.bob, state, rng)
    return alice, outcome, bob, None if lost is None else ~lost


def _row_counts(bits: np.ndarray) -> np.ndarray:
    """The ones in each row of a 2-D 0/1 array, as int64: rows of fewer
    than 256 positions by np.einsum over their uint8 bytes, which cannot
    wrap there and makes no wider copy of the rows, and wider rows by one
    count_nonzero each, as a count along an axis casts every entry to an
    integer first."""
    if bits.shape[1] < 256:
        return np.einsum("ij->i", bits.view(np.uint8)).astype(np.int64)
    return np.array([np.count_nonzero(row) for row in bits], dtype=np.int64)


def _counts(alice, outcome, bob, detected, attacked=slice(None), flips=None):
    """(her bit errors, attacked positions, user errors, detected
    positions) of each row of a block of _resend_round's arrays, as int64
    arrays: her outcomes on the `attacked` positions, each flipped where
    her decoding `flips` (_decoding_flips; not read when None) are set, and
    the receiver's bits on the detected positions, every position for a
    detected mask of None, each against the sent bits. Overwrites `outcome`
    and `bob` with the errors."""
    wrong = np.bitwise_xor(outcome, alice[:, attacked], out=outcome)
    if flips is not None:
        wrong ^= flips[attacked]
    user = np.bitwise_xor(bob, alice, out=bob)
    if detected is not None:
        user &= detected
    return (_row_counts(wrong), np.full(len(wrong), wrong.shape[1], np.int64), _row_counts(user),
            np.full(len(user), user.shape[1], np.int64) if detected is None
            else _row_counts(detected))


def _decoding_flips(strategy: AttackStrategy, alphabet: BasisAlphabet,
                    selectors: np.ndarray) -> np.ndarray | None:
    """Her likelihood decoding flip at each position once she is granted
    the keyed `selectors`, read-only, or None when she flips nothing.

    She flips an outcome whose basis is more than pi/4 off the keyed one:
    for a fixed basis at phi, where cos^2(alphabet.angle(k) - phi) < 1/2
    for keyed selector k. Intercept, defined on the two-basis alphabet
    alone, is never more than pi/4 off and never flips; nor does breidbart
    there, while a fixed basis past pi/4, such as fixed:1.2, flips basis 0.
    Only the Monte Carlo attack decodes, so an in-line run never builds
    them. At m <= n the test runs once per basis, and the selectors gather
    from it only if some basis flips; at m > n once per position."""
    if strategy.kind != "fixed_basis":
        return None
    per_basis = alphabet.m <= selectors.size
    bases = np.arange(alphabet.m) if per_basis else selectors
    flips = np.cos(alphabet.angle(bases) - strategy.phi) ** 2 < 0.5
    if per_basis and flips.any():
        flips = flips[selectors]
    return _read_only(flips) if flips.any() else None


def _state_round(attack: _Attack, channel: ChannelModel, count: int, rng: np.random.Generator):
    """A block of `count` intercept or fixed-basis measure-resend rounds:
    _resend_round's arrays and the attacked positions, in
    _counts' order. A fixed basis attacks every position at code 0.
    Intercept draws her bases at 0 and pi/4, lattice codes 0 and m/2, at
    every m; at fraction 1 she attacks slice(None), which draws no mask, so
    no n-element index array is gathered or scattered; below it she first
    draws the indices one round attacks (slice(0), no draw, at fraction 0),
    and the block holds that round alone, as rounds attack different
    numbers of positions."""
    attacked, eve_codes = slice(None), attack.zeros
    if eve_codes is None:
        n = attack.key_codes.size
        if attack.fraction < 1.0:
            mask = uniform_below(attack.fraction, rng, n)
            attacked = slice(0) if mask is None else np.flatnonzero(mask)
        eve_codes = uniform_bits(rng, (count, n))
        if attack.m != 2:
            eve_codes = np.multiply(eve_codes, attack.m // 2, dtype=attack.code)
    return (*_resend_round(attack, attack.key_codes, eve_codes, attacked, channel, count, rng),
            attacked)


def _state_attack_errors(strategy: AttackStrategy, config: ProtocolConfig,
                         rng: np.random.Generator, trials: int, threads: int):
    """Error rates of intercept or fixed-basis measure-resend over `trials` rounds.

    The attacker is granted the running key afterwards and decodes each bit
    by likelihood: keep the outcome when her basis is within pi/4 of the
    keyed basis, flip it otherwise. On the two-basis alphabet a random-basis
    attacker is never off by more than pi/4, so her outcome stands.
    The rounds run in blocks (_block_size), but those of intercept at a
    fraction below 1, which attack different numbers of positions, run
    one to a block.
    Returns (her bit error over attacked positions, user error over detected
    positions), each None when there are no such positions.
    """
    attack = _attack(config.alphabet.m, config.n, strategy, config.key_selectors())
    flips = _decoding_flips(strategy, config.alphabet, attack.key_codes)

    def counts(count, rng):
        return _counts(*_state_round(attack, config.channel, count, rng), flips)

    row_bytes = attack.key_codes.nbytes if strategy.fraction == 1.0 else BLOCK_BYTES
    parts = _map_chunks(counts, _chunk_rngs(rng, trials, _block_size(trials, row_bytes)), threads)
    eve_err, eve_tot, user_err, user_tot = (sum(int(p[i].sum()) for p in parts)
                                            for i in range(4))
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


def _guess_round(config: ProtocolConfig, attack: _Attack, guesses, rng: np.random.Generator):
    """A block of rounds, row r under the guessed seed bits guesses[r]
    (any 0/1 sequence), drawing from `rng` against the key-guess _Attack
    `attack` of `config`: the _counts of the block. An all-zero
    guess expands to the all-zero stream (the attacker is free to guess a
    degenerate seed)."""
    guess_codes = np.empty((len(guesses), config.n), attack.code)
    for row, guess_bits in zip(guess_codes, guesses):
        bits, _ = lfsr_bits(config.keystream.spec.taps, guess_bits,
                            config.n * config.alphabet.bits_per_selector)
        row[...] = expand_running_key(bits, config.n, config.alphabet).selectors
    return _counts(*_resend_round(attack, attack.key_codes, guess_codes, slice(None),
                                  config.channel, len(guesses), rng))


def _key_guess_target(seed_bits: np.ndarray):
    """(seed words, mask words): the L seed bits packed as ceil(L/64) uint64
    words, lowest first, and the mask of the L low bits packed the same
    way, read-only, as views of immutable bytes. Built once per attack for
    _key_guess_successes."""
    size = 8 * -(-seed_bits.size // 64)
    return tuple(np.frombuffer(value.to_bytes(size, "little"), "<u8")
                 for value in (bits_int(seed_bits), (1 << seed_bits.size) - 1))


def _key_guess_successes(target, count: int, rng: np.random.Generator) -> int:
    """How many of `count` uniform guesses equal the seed whose
    _key_guess_target is `target`.

    A guess of an L-bit seed is uniform_bits(rng, L): the first L bits of
    ceil(L/64) whole 64-bit words. The guesses are therefore one
    (count, ceil(L/64)) uniform_words draw, and a row hits when its words XOR
    the packed seed, with the bits past L masked off, are all zero.
    """
    seed, mask = target
    words = uniform_words(rng, (count, seed.size))
    words ^= seed
    words &= mask
    misses = words[:, 0]
    for column in words.T[1:]:
        misses |= column
    return count - int(np.count_nonzero(misses))


def _key_guess_error(m: int) -> float:
    """Raw bit error of an attacker who measures in the bases of a uniformly
    guessed seed, with selectors uniform over m bases: 1/2 - 1/(2 m^2
    sin^2(pi/(2m))).

    Her error at basis offset d is sin^2(d). The guessed and keyed
    selectors differ by k with triangular weight (m - |k|)/m^2, so the
    error is 1/2 - (1/(2m^2)) sum_k (m - |k|) cos(k pi/m), and that sum is
    the Fejer kernel sin^2(m x/2)/sin^2(x/2) at x = pi/m. As 1/(2 sin^2 h)
    = (1 + cos 2h)/sin^2 2h, it is evaluated as 1/2 - (1 + cos(pi/m))/(m
    sin(pi/m))^2, which is exactly 1/4 at m = 2; it rises to 1/2 - 2/pi^2
    as m grows.
    """
    x = math.pi / m
    return 0.5 - (1.0 + math.cos(x)) / (m * math.sin(x)) ** 2


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
    Her analytic error is _key_guess_error(m), which treats a wrong
    guess's selectors as uniform and independent of the key's.
    """
    if not isinstance(config.keystream, LfsrKeystream):
        raise ValueError("the key-guessing attack targets an LFSR keystream")
    seed_bits = np.array(config.keystream.seed.bits, dtype=np.uint8)
    length = seed_bits.size

    successes = sum(_map_chunks(partial(_key_guess_successes, _key_guess_target(seed_bits)),
                                _chunk_rngs(rng, trials), threads))

    qubit_trials = min(trials, MAX_QUBIT_TRIALS)
    attack = _attack(config.alphabet.m, config.n, selectors=config.key_selectors())

    def round_kernel(count, rng):
        return _guess_round(config, attack, uniform_bits(rng, (count, length)), rng)

    block = _block_size(qubit_trials, attack.key_codes.nbytes)
    blocks = _map_chunks(round_kernel, _chunk_rngs(rng, qubit_trials, block), threads)
    # Her rates add up round by round, in order, as Python floats.
    eve_err_sum = sum(rate for b in blocks for rate in (b[0] / config.n).tolist())
    user_errors, detected = (sum(int(b[i].sum()) for b in blocks) for i in (2, 3))
    return AttackReport(
        strategy="keyguess",
        trials=trials, qubits=config.n,
        eve_bit_error=ConfidenceInterval(eve_err_sum / qubit_trials,
                                         4.0 * math.sqrt(0.25 / (qubit_trials * config.n))),
        induced_qber=ConfidenceInterval(user_errors / detected, 4.0 * math.sqrt(0.25 / detected))
        if detected else None,
        eve_bit_error_analytic=_key_guess_error(config.alphabet.m),
        success_analytic=2.0 ** -length,
        success_mc=binomial_ci(successes, trials),
        info_fraction=1.0,
    )


@dataclass(frozen=True)
class BlockGuessTrials:
    """Per-trial records of the block-guessing attack (noiseless unless a
    channel is supplied): success flags, user error counts over detected
    attacked positions, attacker error counts over attacked positions, and
    the detected attacked positions."""

    success: np.ndarray
    attacked_errors: np.ndarray
    eve_errors: np.ndarray
    attacked_per_trial: int
    attacked_detected: np.ndarray


def _block_guess_chunk(count: int, rng: np.random.Generator, attack: _Attack,
                       k_blocks: int, block_len: int, channel: ChannelModel):
    """`count` block-guess trials: (success flags, user errors, attacker errors,
    detected positions), the errors and positions per trial as in
    BlockGuessTrials. The users' key blocks and the attacker's guesses come
    from one bit draw; `attack` holds the two-basis tables that every chunk
    of the attack shares."""
    key_blocks, guesses = uniform_bits(rng, 2 * count * k_blocks).reshape(2, count, k_blocks)
    success = _row_counts(guesses ^ key_blocks) == 0
    # The chunk is one row of a resend block, as its trials draw from one
    # generator in C order, and splits into one row per trial after it.
    arrays = _resend_round(attack, np.repeat(key_blocks, block_len, axis=1).reshape(1, -1),
                           np.repeat(guesses, block_len, axis=1).reshape(1, -1), slice(None),
                           channel, 1, rng)
    eve_errors, _, errors, detected = _counts(*(a if a is None else a.reshape(count, -1)
                                                for a in arrays))
    return success, errors, eve_errors, detected


def block_guess_trials(n: int, m_k: int, k_blocks: int, rng: np.random.Generator,
                       trials: int = 1, threads: int = 1,
                       channel: ChannelModel | None = None) -> BlockGuessTrials:
    """Simulate the per-block guessing attack on the repetition running key.

    The users' m_k-bit key is drawn fresh each trial; the attacker picks the
    first k_blocks blocks (the choice is irrelevant by symmetry), guesses one
    basis bit per block, and measure-resends the k*n/m_k covered qubits.
    """
    n, m_k = require_integer(n, "qubit count"), require_integer(m_k, "key length")
    k_blocks = require_integer(k_blocks, "k_blocks")
    if not 1 <= k_blocks <= m_k:
        raise ValueError(f"k_blocks must lie in [1, {m_k}], got {k_blocks}")
    if n % m_k:
        raise ValueError(f"block arithmetic needs m_k | n, got n={n}, m_k={m_k}")
    block_len = n // m_k
    # The first chunk is the largest: it sizes the tables.
    chunk = min(require_integer(trials, "trials"), TRIAL_CHUNK)
    kernel = partial(_block_guess_chunk, attack=_attack(2, chunk * k_blocks * block_len),
                     k_blocks=k_blocks, block_len=block_len, channel=channel or ChannelModel())
    parts = _map_chunks(kernel, _chunk_rngs(rng, trials), threads)
    return BlockGuessTrials(
        success=np.concatenate([p[0] for p in parts]),
        attacked_errors=np.concatenate([p[1] for p in parts]),
        eve_errors=np.concatenate([p[2] for p in parts]),
        attacked_per_trial=k_blocks * block_len,
        attacked_detected=np.concatenate([p[3] for p in parts]),
    )


def attack_block_guess(n: int, m_k: int, k_blocks: int, rng: np.random.Generator,
                       trials: int = 1, threads: int = 1,
                       channel: ChannelModel | None = None) -> AttackReport:
    """Block-guessing attack statistics.

    Success (all k guesses right) has analytic probability 2^-k; a successful
    trial reads k/m_k of the data with zero induced error on the attacked
    region, while each wrongly guessed block suffers 50% errors, which
    averages to an unconditional 1/4 over attacked positions. Her bit error
    is reported over attacked positions, the induced user error over the
    detected ones (None when none was detected), as for the other attacks.
    """
    record = block_guess_trials(n, m_k, k_blocks, rng, trials, threads, channel)
    detected = int(record.attacked_detected.sum())
    return AttackReport(
        strategy=f"blockguess:{k_blocks}",
        trials=trials, qubits=n,
        eve_bit_error=binomial_ci(int(record.eve_errors.sum()), record.attacked_per_trial * trials),
        induced_qber=binomial_ci(int(record.attacked_errors.sum()), detected)
        if detected else None,
        eve_bit_error_analytic=0.25,
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

    The mixture of bit 0 at theta (weight p0) and bit 1 at theta + pi/2 is
    I/2 + (p0 - 1/2) [[cos 2theta, sin 2theta], [sin 2theta, -cos 2theta]]:
    Bloch vector (2p0 - 1)(cos 2theta, sin 2theta). One matrix is built per
    distinct selector, and positions with equal selectors share it. The
    running key must select from `alphabet`'s m bases.
    """
    if running_key.m != alphabet.m:
        raise ValueError(f"running key selects from {running_key.m} bases, "
                         f"the alphabet has {alphabet.m}")
    p_zero = require_real(p_zero, "data prior")
    if not 0.0 <= p_zero <= 1.0:
        raise ValueError(f"data prior must lie in [0, 1], got {p_zero}")
    selectors, position = np.unique(running_key.selectors, return_inverse=True)
    bias = p_zero - 0.5
    states = []
    for j in selectors.tolist():
        two_theta = 2.0 * alphabet.basis_angle(j)
        c, s = bias * math.cos(two_theta), bias * math.sin(two_theta)
        states.append(DensityMatrix([[0.5 + c, s], [s, 0.5 - c]]))
    return [states[i] for i in position.tolist()]


def measure_resend_interference(strategy: AttackStrategy):
    """In-line interference callable for transmit_round/run_protocol.

    Realizes the measure-resend strategies against a live run: the returned
    function (config, rng) -> (alice bits, bob bits, detected mask) makes
    the run's whole transmission as one _state_round of the attack, in which
    the attacker measures the sent states in the strategy's bases and
    forwards the projected states; intercept measures in the bases at 0 and
    pi/4 at every m. Only intercept and fixed-basis strategies act on states
    alone; key-targeting strategies need the run's keystream and are
    evaluated through their dedicated attack functions.
    """
    if strategy.kind not in ("intercept_resend_random", "fixed_basis"):
        raise ValueError(f"{strategy.kind} cannot run as in-line interference")

    def interfere(config: ProtocolConfig, rng: np.random.Generator):
        attack = _attack(config.alphabet.m, config.n, strategy, config.key_selectors())
        alice, _, bob, detected, _ = _state_round(attack, config.channel, 1, rng)
        return alice[0], bob[0], np.ones(config.n, bool) if detected is None else detected[0]

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
