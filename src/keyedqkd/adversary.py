"""Eavesdropper strategies with analytic and Monte Carlo statistics.

Active attacks are measure-resend: the attacker measures the transmitted
state and forwards her projected state, which then crosses the users' channel.
Passive bounds elsewhere grant her a perfect copy, so measure-resend covers
every strategy quantified here. Strategy evaluation is deterministic given
(config, rng seed); Monte Carlo rounds run in fixed-size chunks whose
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
    lfsr_row_bytes,
    lfsr_rows,
)
from .protocol import ChannelModel, ProtocolConfig
from .qubits import (
    BasisAlphabet,
    DensityMatrix,
    MeasBasis,
    OffsetTable,
    eve_error_key_granted,
    measure_codes,
    measure_coin_words,
    measure_many,  # not called here: perfbench's trace wraps this module's binding
    require_integer,
    require_real,
    uniform_below,
    uniform_bits,
    uniform_words,
)

BREIDBART_ANGLE = math.pi / 8

# Block-guess trials run in chunks of this size, each drawing from its own
# child generator so thread scheduling cannot reorder randomness; key-guess
# successes draw this many guesses per call from the caller's generator.
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
    chunks = -(-_positive(trials, "trials") // chunk)
    for first in range(0, chunks, SEED_DRAW):
        seeds = rng.integers(0, 2 ** 63, size=min(SEED_DRAW, chunks - first))
        for index, seed in enumerate(seeds.tolist(), first):
            yield min(chunk, trials - index * chunk), np.random.Generator(np.random.PCG64(seed))


def _positive(count, what: str) -> int:
    """`count`, a count of `what`, as an int; non-integers and counts below
    1 raise ValueError."""
    if require_integer(count, what) < 1:
        raise ValueError(f"{what} must be >= 1, got {count}")
    return int(count)


def _block_size(trials: int, row_bytes: int) -> int:
    """B, the rounds to a block of _chunk_rngs(rng, trials, B) for rows of
    `row_bytes`: at most BLOCK_BYTES // row_bytes, one at least, spread
    evenly over as few blocks as that allows (4 for 16 rows of 12 500
    bytes), so B, and with it every draw, depends on the trial count and
    the row alone, never on the thread count."""
    trials = _positive(trials, "trials")
    most = max(1, BLOCK_BYTES // row_bytes)
    return -(-trials // -(-trials // most))


def _map_chunks(kernel, chunks, threads: int) -> list:
    """kernel(*chunk) per chunk, a chunk of trials or a block of rounds, in
    order; min(threads, usable CPUs) workers, as many in flight. Usable CPUs
    are the process's affinity set where the OS reports one; with one worker
    the chunks run on the calling thread."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(_positive(threads, "threads"), usable or 1)
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
    guessing), whether she measures in a fixed basis (at code 0 on either
    kernel, the tables' shifts carrying its angle), intercept's attacked
    fraction (1 for every other attack), and the keyed codes _pack'ed when
    every round runs on packed words (_packs; intercept, key guessing, or a
    fixed basis on a multiple of pi/4, each on two bases), None otherwise."""

    m: int
    code: np.dtype
    eve: OffsetTable
    bob: OffsetTable
    key_codes: np.ndarray | None
    fixed: bool
    fraction: float
    key_words: np.ndarray | None


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
    fraction = 1.0 if strategy is None else strategy.fraction
    key_codes = None if selectors is None else _read_only(selectors.astype(code))
    packed = key_codes is not None and _packs(eve, bob, positions)
    return _Attack(m, code, eve, bob, key_codes, phi is not None, fraction,
                   _read_only(_pack(key_codes)) if packed else None)


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a`, frozen in place: a value that every round and thread of an attack shares."""
    a.setflags(write=False)
    return a


def _packs(eve: OffsetTable, bob: OffsetTable, positions: int) -> bool:
    """Whether rows of `positions` positions measured under the tables
    `eve` and `bob` run on packed words (_packed_round): both are coin
    tables, so m = 2, and no row is shorter than a table."""
    return eve.coins and bob.coins and eve.p1.size <= positions


def _pack(bits: np.ndarray) -> np.ndarray:
    """0/1 or bool `bits`, packed along their last axis into uint64 words
    as uniform_words' words hold uniform_bits: position p at bit p % 64 of
    word p // 64, and 0 past the last position."""
    n = bits.shape[-1]
    packed = np.zeros((*bits.shape[:-1], 8 * -(-n // 64)), np.uint8)
    packed[..., :-(-n // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view("<u8")


def _resend_round(attack: _Attack, key_codes, eve_codes, channel: ChannelModel, count: int,
                  rng: np.random.Generator):
    """A block of `count` transmissions, one per row, with measure-resend
    on every position. Each step is one numpy call over the block and
    draws for all its rows from `rng` in C order, so a block of one row
    draws what one round does.

    `key_codes` are the keyed selectors and `eve_codes` the attacker's
    bases on the keyed lattice, or 0 for a fixed basis, whose angle the
    tables' shifts carry; each is one row of the transmission, shared by
    every row, or one per row, of any integer dtype. A position that she
    measures in its keyed basis sits at offset m*a: her outcome is the
    sent bit a and she resends the sent state. States are codes too, j +
    m*b for basis j turned by bit b, and each measurement reads the offset
    (state + m*flip - basis) mod 2m through qubits.measure_codes with the
    attack's prebuilt tables, so a block does only per-position work. The
    offsets come from wrapping arithmetic in the attack's code dtype and &
    (2m - 1): 2m divides the dtype's range, and every code, below 2m,
    casts into it exactly. Returns (alice, errors, detected), as
    _packed_round does on words: the sent bits; her outcomes and the
    receiver's bits on detected positions, each XORed with the sent bits
    in place, as a pair; and the detected mask, None when the channel loses
    nothing; all (rows, positions).

    Key codes in the code dtype, as every attack passes them, are not
    copied. The Monte Carlo attacks and in-line interference run their
    rounds on two-basis coin tables on _packed_round; this kernel runs
    every other round: breidbart and other fixed angles, m >= 4, and rows
    shorter than a table.
    """
    m, code, lattice = attack.m, attack.code, 2 * attack.m - 1
    key_codes = key_codes.astype(code, copy=False)
    alice = uniform_bits(rng, (count, key_codes.shape[-1]))
    state = np.multiply(alice, m, dtype=code)
    state += key_codes
    # Her resent states replace the sent ones, so their offsets, and then
    # the resent codes, overwrite them in place.
    np.subtract(state, eve_codes, out=state, dtype=code, casting="unsafe")
    state &= lattice
    outcome = measure_codes(attack.eve, state, rng)
    np.multiply(outcome, m, out=state, dtype=code)
    np.add(state, eve_codes, out=state, dtype=code, casting="unsafe")
    lost, flipped = channel.draw(rng, state.shape)
    if flipped is not None:
        state += np.multiply(flipped, m, dtype=code)
    state -= key_codes
    state &= lattice
    bob = measure_codes(attack.bob, state, rng)
    outcome ^= alice
    bob ^= alice
    if lost is None:
        return alice, (outcome, bob), None
    detected = np.logical_not(lost, out=lost)
    bob &= detected
    return alice, (outcome, bob), detected


def _packed_round(attack: _Attack, n: int, key_words, eve_words, channel: ChannelModel,
                  count: int, rng: np.random.Generator):
    """_resend_round of a block of `count` rows of n positions on packed
    words: the rounds that _packs admits. `key_words` and `eve_words` are
    the keyed bases and hers (0 for a fixed basis, which measures at code
    0), _pack'ed, each broadcasting to (count, ceil(n/64)). The block
    draws the words _resend_round draws, in its order: the sent bits, her
    coins, the channel's masks, the receiver's coins (measure_coin_words).

    On two bases a state code is 2a + k, sent bit a in keyed basis k, and
    an offset's bits are word logic. She measures (2a + k - e) mod 4 in
    her basis e: low bit k ^ e, high bit a ^ (e & ~k), where the borrow
    e & ~k is e & (k ^ e). She resends 2x + e for her outcome x, which a
    channel flip f turns by 2, and the receiver measures it in basis k:
    low bit e ^ k again, high bit x ^ f ^ (k & (k ^ e)). At e = 0 these
    read low k, high a and resent k.

    Returns _resend_round's (alice, errors, detected), the sent bits and
    the errors as words, the errors one (2, count, ceil(n/64)) array whose
    bits past n are set at random unless the channel loses.
    """
    alice = uniform_words(rng, (count, -(-n // 64)))
    low = key_words ^ eve_words
    high, resent = alice ^ (eve_words & low), key_words & low
    outcome = measure_coin_words(attack.eve, high, low, rng)
    lost, flipped = channel.draw(rng, (count, n))
    high = outcome ^ resent
    if flipped is not None:
        high ^= _pack(flipped)
    bob = measure_coin_words(attack.bob, high, low, rng)
    errors = np.empty((2, *alice.shape), alice.dtype)
    np.bitwise_xor(outcome, alice, out=errors[0])
    np.bitwise_xor(bob, alice, out=errors[1])
    if lost is None:
        return alice, errors, None
    detected = np.logical_not(lost, out=lost)
    errors[1] &= _pack(detected)
    return alice, errors, detected


def _row_counts(bits: np.ndarray) -> np.ndarray:
    """The ones in each row of a 2-D 0/1 array, as int64: rows of fewer
    than 256 positions by np.einsum over their uint8 bytes, which cannot
    wrap there and makes no wider copy of the rows, and wider rows by one
    count_nonzero each, as a count along an axis casts every entry to an
    integer first."""
    if bits.shape[1] < 256:
        return np.einsum("ij->i", bits.view(np.uint8)).astype(np.int64)
    return np.array([np.count_nonzero(row) for row in bits], dtype=np.int64)


def _word_counts(words: np.ndarray, n: int) -> np.ndarray:
    """The ones among the first n positions of each word in packed `words`,
    rows of ceil(n/64) along the last axis, per word as uint8; clears the
    bits past n."""
    if n % 64:
        words[..., -1] &= (1 << n % 64) - 1
    return np.bitwise_count(words)


def _counts(n: int, errors, detected, flips=None):
    """(her bit errors, her positions, user errors, detected positions) of
    each row of a block of n positions, as int64 arrays, from the errors
    and detected mask of either kernel (_resend_round, _packed_round): her
    errors flipped where her decoding `flips` (_decoding_flips, _pack'ed
    on words; not read when None) are set, and every position detected for
    a mask of None. Words count their first n positions (_word_counts),
    bytes their ones (_row_counts). Overwrites `errors`."""
    her, user = errors
    if flips is not None:
        her ^= flips
    if her.dtype == np.uint64:  # one array of both rows' words
        her, user = _word_counts(errors, n).sum(axis=-1, dtype=np.int64)
    else:
        her, user = _row_counts(her), _row_counts(user)
    every = np.full(len(her), n, np.int64)
    return her, every, user, every if detected is None else _row_counts(detected)


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


def _attacked(attack: _Attack, count: int, rng: np.random.Generator) -> np.ndarray | None:
    """Intercept's attacked mask of a block of `count` rounds, one row per
    round (uniform_below, drawn per row in C order): None at fraction 1,
    where she attacks every position and nothing is drawn, and all false at
    fraction 0, where nothing is drawn either."""
    if attack.fraction == 1.0:
        return None
    shape = (count, attack.key_codes.size)
    mask = uniform_below(attack.fraction, rng, shape)
    return np.zeros(shape, bool) if mask is None else mask


def _state_round(attack: _Attack, channel: ChannelModel, count: int, rng: np.random.Generator):
    """A block of `count` intercept or fixed-basis measure-resend rounds on
    the attack's kernel, _packed_round when it has key words and
    _resend_round otherwise: the kernel's (alice, errors, detected) and her
    attacked mask (None: every position). A fixed basis measures every
    position at code 0. Intercept draws her mask (_attacked), then her
    bases at 0 and pi/4, lattice codes 0 and m/2, at every m, as bits r,
    and where the mask att is clear she measures in the keyed basis k
    instead, whose outcome is the sent bit: no error, and the sent state
    resent. On codes her bases are np.where(att, r, k), on words (r & att)
    | (k & ~att), the bit draw's words under her _pack'ed mask."""
    n, key_words, attacked, eve = attack.key_codes.size, attack.key_words, None, 0
    if not attack.fixed:
        attacked = _attacked(attack, count, rng)
        if key_words is None:
            eve = uniform_bits(rng, (count, n))
            if attack.m != 2:
                eve = np.multiply(eve, attack.m // 2, dtype=attack.code)
            if attacked is not None:
                eve = np.where(attacked, eve, attack.key_codes)
        else:
            eve = uniform_words(rng, (count, key_words.shape[-1]))
            if attacked is not None:
                att = _pack(attacked)
                eve &= att
                eve |= key_words & ~att
    if key_words is None:
        return (*_resend_round(attack, attack.key_codes, eve, channel, count, rng), attacked)
    return (*_packed_round(attack, n, key_words, eve, channel, count, rng), attacked)


def _state_counts(attack: _Attack, flips, channel: ChannelModel, count: int,
                  rng: np.random.Generator):
    """_counts of a block of `count` _state_round rounds, her errors
    flipped where her decoding `flips` are set (_pack'ed when the attack
    has key words). Her positions are those of her attacked mask, where
    one is drawn: off it she measures in the keyed basis and makes no
    error."""
    _, errors, detected, attacked = _state_round(attack, channel, count, rng)
    her, every, user, detected = _counts(attack.key_codes.size, errors, detected, flips)
    return her, every if attacked is None else _row_counts(attacked), user, detected


def _state_attack_errors(strategy: AttackStrategy, config: ProtocolConfig,
                         rng: np.random.Generator, trials: int, threads: int):
    """Error rates of intercept or fixed-basis measure-resend over `trials` rounds.

    The attacker is granted the running key afterwards and decodes each bit
    by likelihood: keep the outcome when her basis is within pi/4 of the
    keyed basis, flip it otherwise. On the two-basis alphabet a random-basis
    attacker is never off by more than pi/4, so her outcome stands.
    The rounds run in blocks (_block_size) of _state_counts at every
    fraction, the decoding flips of an attack with key words packed once.
    Returns (her bit error over attacked positions, user error over detected
    positions), each None when there are no such positions.
    """
    attack = _attack(config.alphabet.m, config.n, strategy, config.key_selectors())
    flips = _decoding_flips(strategy, config.alphabet, attack.key_codes)
    if attack.key_words is not None and flips is not None:
        flips = _read_only(_pack(flips))

    block = _block_size(trials, attack.key_codes.nbytes)
    parts = _map_chunks(partial(_state_counts, attack, flips, config.channel),
                        _chunk_rngs(rng, trials, block), threads)
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
    strategy = AttackStrategy("intercept_resend_random", fraction=fraction)
    fraction = strategy.fraction
    eve_error, induced = _state_attack_errors(strategy, config, rng, trials, threads)
    return AttackReport(
        # The float's repr, so that the label parses back to the same fraction.
        strategy=f"intercept:{fraction!r}" if fraction != 1.0 else "intercept",
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
    degenerate seed). One lfsr_rows call and one running key expand the
    block; on two bases the block runs on _packed_round, and the words of
    lfsr_row_bytes, before their unpack, are her bases."""
    rows, n, k = len(guesses), config.n, config.alphabet.bits_per_selector
    taps = config.keystream.spec.taps
    if attack.key_words is not None:
        words = lfsr_row_bytes(taps, guesses, n).view("<u8")[:, :attack.key_words.size]
        _, errors, detected = _packed_round(attack, n, attack.key_words, words, config.channel,
                                            rows, rng)
    else:
        codes = lfsr_rows(taps, guesses, n * k)
        if k > 1:  # at m = 2 each bit is its own selector
            codes = expand_running_key(codes.reshape(-1), rows * n, config.alphabet).selectors
        _, errors, detected = _resend_round(attack, attack.key_codes, codes.reshape(rows, n),
                                            config.channel, rows, rng)
    return _counts(n, errors, detected)


def _key_guess_successes(seed_bits: np.ndarray, trials: int, rng: np.random.Generator) -> int:
    """How many of `trials` uniform guesses, drawn from `rng`, equal the L
    seed bits `seed_bits`.

    A guess of an L-bit seed is uniform_bits(rng, L): the first L bits of
    ceil(L/64) whole 64-bit words. The guesses are therefore rows of
    ceil(L/64) uniform_words, TRIAL_CHUNK rows to a draw, as split word
    draws take what one draw does; a row hits when its words XOR the seed
    packed lowest word first, with the bits past L masked off, are all zero.
    """
    size = 8 * -(-seed_bits.size // 64)
    seed, mask = (np.frombuffer(value.to_bytes(size, "little"), "<u8")
                  for value in (bits_int(seed_bits), (1 << seed_bits.size) - 1))
    hits = 0
    for done in range(0, trials, TRIAL_CHUNK):
        count = min(TRIAL_CHUNK, trials - done)
        words = uniform_words(rng, (count, seed.size))
        words ^= seed
        words &= mask
        misses = words[:, 0]
        for column in words.T[1:]:
            misses |= column
        hits += count - int(np.count_nonzero(misses))
    return hits


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
    guess's selectors as uniform and independent of the key's. The guesses
    come from `rng` itself, before the rounds' child seeds.
    """
    if not isinstance(config.keystream, LfsrKeystream):
        raise ValueError("the key-guessing attack targets an LFSR keystream")
    trials = _positive(trials, "trials")
    _positive(threads, "threads")  # raises before anything is drawn
    seed_bits = np.array(config.keystream.seed.bits, dtype=np.uint8)
    length = seed_bits.size
    successes = _key_guess_successes(seed_bits, trials, rng)

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
    of the attack shares. The chunk is one resend block of its count * k
    (trial, block) pairs' positions, rows along the shorter side: block_len
    rows sharing a key row and a guess row, or a row per pair, its two bits
    broadcast. It runs on _packed_round unless its rows are shorter than a
    table (_packs): a pair's counts are then the ones of its row's words,
    or the sums of its position in each row, unpacked. Counts sum over a
    pair's positions, then a trial's pairs, in the narrowest type that
    holds k * block_len: several times quicker than in int64, to which
    block_guess_trials widens them as it joins chunks."""
    pairs = count * k_blocks
    blocks = uniform_bits(rng, 2 * pairs).reshape(2, -1)  # key blocks, guesses
    success = _row_counts((blocks[0] ^ blocks[1]).reshape(count, k_blocks)) == 0
    axis, dtype = int(block_len > pairs), np.min_scalar_type(k_blocks * block_len)
    rows, n = min(block_len, pairs), max(block_len, pairs)
    if _packs(attack.eve, attack.bob, n):
        if axis:  # a row per pair: its two bits fill every position of its words
            key, eve = blocks.astype(np.uint64)[..., None] * np.uint64(2 ** 64 - 1)
        else:
            key, eve = _pack(blocks)
        _, errors, detected = _packed_round(attack, n, key, eve, channel, rows, rng)
        if not axis:  # a pair is a position of each row: summed over rows, unpacked
            errors = np.unpackbits(errors.astype("<u8", copy=False).view(np.uint8), axis=-1,
                                   count=n, bitorder="little")
    else:
        if axis:
            blocks = np.broadcast_to(blocks[..., None], (2, pairs, block_len))
        _, errors, detected = _resend_round(attack, *blocks, channel, rows, rng)
    if errors[0].dtype == np.uint64:  # a row of words per pair
        her, user = _word_counts(errors, n).sum(axis=-1, dtype=dtype)
    else:
        her, user = (a.sum(axis=axis, dtype=dtype) for a in errors)
    if detected is not None:
        detected = detected.sum(axis=axis, dtype=dtype)
    return (success, *(np.full(count, k_blocks * block_len, dtype) if a is None else
                       np.einsum("ij->i", a.reshape(count, k_blocks))
                       for a in (user, her, detected)))


def block_guess_trials(n: int, m_k: int, k_blocks: int, rng: np.random.Generator,
                       trials: int = 1, threads: int = 1,
                       channel: ChannelModel | None = None) -> BlockGuessTrials:
    """Simulate the per-block guessing attack on the repetition running key.

    The users' m_k-bit key is drawn fresh each trial; the attacker picks the
    first k_blocks blocks (the choice is irrelevant by symmetry), guesses one
    basis bit per block, and measure-resends the k*n/m_k covered qubits.
    """
    parts, attacked = _block_guess_chunks(n, m_k, k_blocks, rng, trials, threads, channel)
    success, *counts = zip(*parts)
    errors, eve_errors, detected = (np.concatenate(c, dtype=np.int64) for c in counts)
    return BlockGuessTrials(np.concatenate(success), errors, eve_errors, attacked, detected)


def _block_guess_chunks(n: int, m_k: int, k_blocks: int, rng: np.random.Generator,
                        trials: int, threads: int, channel: ChannelModel | None):
    """block_guess_trials' _block_guess_chunk records, chunk by chunk, and
    the attacked positions of a trial."""
    n, m_k = _positive(n, "qubit count"), _positive(m_k, "key length")
    k_blocks = require_integer(k_blocks, "k_blocks")
    if not 1 <= k_blocks <= m_k:
        raise ValueError(f"k_blocks must lie in [1, {m_k}], got {k_blocks}")
    if n % m_k:
        raise ValueError(f"block arithmetic needs m_k | n, got n={n}, m_k={m_k}")
    block_len = n // m_k
    # The first chunk is the largest: its longer side sizes the tables.
    chunk = min(require_integer(trials, "trials"), TRIAL_CHUNK)
    kernel = partial(_block_guess_chunk, attack=_attack(2, max(chunk * k_blocks, block_len)),
                     k_blocks=k_blocks, block_len=block_len, channel=channel or ChannelModel())
    return _map_chunks(kernel, _chunk_rngs(rng, trials), threads), k_blocks * block_len


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
    The report reads block_guess_trials' totals only, summed over its
    chunks' narrow counts, with no int64 array per trial.
    """
    parts, attacked = _block_guess_chunks(n, m_k, k_blocks, rng, trials, threads, channel)
    successes, errors, eve_errors, detected = (int(np.concatenate(c).sum(dtype=np.int64))
                                               for c in zip(*parts))
    return AttackReport(
        strategy=f"blockguess:{k_blocks}",
        trials=trials, qubits=n,
        eve_bit_error=binomial_ci(eve_errors, attacked * trials),
        induced_qber=binomial_ci(errors, detected) if detected else None,
        eve_bit_error_analytic=0.25,
        induced_qber_analytic=0.25,
        success_analytic=2.0 ** -k_blocks,
        success_mc=binomial_ci(successes, trials),
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
    the run's whole transmission as one round of the attack, in which
    the attacker measures the sent states in the strategy's bases and
    forwards the projected states; intercept measures in the bases at 0 and
    pi/4 at every m. The round is one _state_round: the receiver's bits are
    its user errors XOR the sent bits, read at detected positions only, and
    on packed words both unpack in one call. Only intercept and
    fixed-basis strategies act on states alone; key-targeting strategies
    need the run's keystream and are evaluated through their dedicated
    attack functions.
    """
    if strategy.kind not in ("intercept_resend_random", "fixed_basis"):
        raise ValueError(f"{strategy.kind} cannot run as in-line interference")

    def interfere(config: ProtocolConfig, rng: np.random.Generator):
        attack = _attack(config.alphabet.m, config.n, strategy, config.key_selectors())
        alice, (_, bob), detected, _ = _state_round(attack, config.channel, 1, rng)
        bob ^= alice
        if alice.dtype == np.uint64:
            words = np.stack((alice, bob)).astype("<u8", copy=False)
            alice, bob = np.unpackbits(words.view(np.uint8), axis=-1, count=config.n,
                                       bitorder="little")
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
