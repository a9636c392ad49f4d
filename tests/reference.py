"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own code paths: GF(2)
polynomial order for primitivity, explicit Toeplitz matrix construction,
outer-product mixtures and brute-force scans.
"""

import functools
import math

import numpy as np


def gf2_mulmod(a: int, b: int, poly: int, degree: int) -> int:
    """Carry-less multiply of a*b modulo `poly` (bit i = coefficient of x^i)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if (a >> degree) & 1:
            a ^= poly
    return result


def order_of_x(poly: int, degree: int) -> int | None:
    """Multiplicative order of x modulo `poly`, or None if it exceeds 2^degree."""
    current = 1
    for i in range(1, 2 ** degree):
        current = gf2_mulmod(current, 2, poly, degree)
        if current == 1:
            return i
    return None


def primitive_tap_sets(max_degree: int) -> dict[int, list[tuple[int, ...]]]:
    """All primitive connection polynomials up to max_degree, as tap tuples.

    A degree-L polynomial with constant term 1 is primitive iff x has order
    2^L - 1 modulo it; tap positions are the nonzero exponents. (The taps of a
    primitive polynomial drive a maximal-length register under either
    reciprocal convention, since reciprocals of primitives are primitive.)
    """
    table: dict[int, list[tuple[int, ...]]] = {}
    for degree in range(2, max_degree + 1):
        found = []
        for middle in range(2 ** (degree - 1)):
            poly = (1 << degree) | (middle << 1) | 1
            if order_of_x(poly, degree) == 2 ** degree - 1:
                taps = tuple(i for i in range(degree, 0, -1) if (poly >> i) & 1)
                found.append(taps)
        table[degree] = found
    return table


@functools.lru_cache(maxsize=8)
def lfsr_matrix(taps: tuple, count: int) -> np.ndarray:
    """The (count, L) 0/1 matrix whose row k selects the seed bits that term
    k of lfsr_reference's recurrence XORs: the terms are linear over GF(2)
    in the seed. Rows 0..L-1 are the identity and row k is the XOR of rows
    k - t over the taps, min(taps) rows at a time, as no row of such a step
    reads another. Read-only, as it is cached."""
    length, step = max(taps), min(taps)
    rows = np.zeros((max(count, length), length), np.uint8)
    rows[:length] = np.eye(length, dtype=np.uint8)
    for k in range(length, count, step):
        end = min(k + step, count)
        for t in taps:
            rows[k:end] ^= rows[k - t:end - t]
    rows.setflags(write=False)
    return rows[:count]


def lfsr_reference(taps, seed_bits, count: int) -> np.ndarray:
    """First `count` terms of a[k] = XOR over taps t of a[k - t], one at a time,
    with a[0..L-1] = seed_bits and L the highest tap."""
    seq = [int(b) for b in seed_bits]
    if len(seq) != max(taps):
        raise ValueError("seed length must equal the highest tap")
    while len(seq) < count:
        seq.append(sum(seq[-t] for t in taps) % 2)
    return np.array(seq[:count], dtype=np.uint8)


def toeplitz_hash_direct(bits, out_len: int, seed) -> np.ndarray:
    """Hash via explicit matrix: T[i, j] = seed[i - j + len(bits) - 1]."""
    bits = np.asarray(bits, dtype=np.int64)
    seed = np.asarray(seed, dtype=np.int64)
    n = bits.size
    matrix = np.zeros((out_len, n), dtype=np.int64)
    for i in range(out_len):
        for j in range(n):
            matrix[i, j] = seed[i - j + n - 1]
    return ((matrix @ bits) % 2).astype(np.uint8)


def granted_error_sum(phis, m: int) -> np.ndarray:
    """Key-granted error as its m-point sum, (1/m) * sum_j min(sin^2, cos^2)(theta_j - phi)
    with theta_j = j * (pi/2) / m, one value per angle in phis."""
    deltas = np.arange(m) * (np.pi / 2 / m) - np.asarray(phis, dtype=float).reshape(-1, 1)
    s2 = np.sin(deltas) ** 2
    return np.minimum(s2, 1.0 - s2).mean(axis=1)


def brute_force_basis_scan(m: int, points: int) -> tuple[float, float]:
    """Grid scan of the key-granted error profile; returns (phi, error) at the
    smallest-angle grid minimum."""
    best_phi, best_val = 0.0, np.inf
    for chunk in np.array_split(np.arange(points) * (np.pi / 2 / points), max(1, points // 4096)):
        values = granted_error_sum(chunk, m)
        idx = int(np.argmin(values))
        if values[idx] < best_val - 1e-15:
            best_val, best_phi = float(values[idx]), float(chunk[idx])
    return best_phi, best_val


# The basis search's grid scan as it was on numpy arrays: the closed-form
# profile at every point of the 4096-point grid.

def granted_error_profile(phis, m: int) -> np.ndarray:
    """Key-granted error 1/2 - cos(h(1 - 2|f|)) / (2m sin h) of every angle in phis,
    with h = pi/(2m) and f = u - rint(u) for u = phi/h."""
    h = np.pi / 2 / m
    u = np.asarray(phis, dtype=float) / h
    f = u - np.rint(u)
    return 0.5 - np.cos(h * (1.0 - 2.0 * np.abs(f))) / (2 * m * math.sin(h))


def grid_scan_index(m: int, points: int = 4096) -> int:
    """Smallest index of the grid angles i*(pi/2)/points whose profile value
    lies within 1e-12 of the grid minimum."""
    values = granted_error_profile(np.arange(points) * (np.pi / 2 / points), m)
    return int(np.nonzero(values <= values.min() + 1e-12)[0].min())


# Mixed states and minimum-error discrimination from first principles: plain
# 2x2 arrays summed from outer products, with no validated types.

def mixture(weights, thetas) -> np.ndarray:
    """sum_k w_k v_k v_k^T for the real-plane pure states v_k = (cos theta_k, sin theta_k)."""
    vectors = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    return sum(w * np.outer(v, v) for w, v in zip(weights, vectors))


def helstrom_error(rho0, rho1, p0: float) -> float:
    """Minimum error of telling rho0 (prior p0) from rho1, (1 - ||(1 - p0) rho1 - p0 rho0||_1)/2,
    with the trace norm as the sum of the absolute eigenvalues."""
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"prior must lie in [0, 1], got {p0}")
    eigs = np.linalg.eigvalsh((1.0 - p0) * np.asarray(rho1) - p0 * np.asarray(rho0))
    return 0.5 * (1.0 - float(np.abs(eigs).sum()))


def measure_many_snapped(thetas, phis, rng, rule: str = "doubles") -> np.ndarray:
    """Projective measurement that snaps sin^2(theta - phi) within 1e-12 of 0 or 1
    to certainty before drawing by `rule` (draw_rule): "doubles" compares
    one uniform double per element against it; "coins" needs every snapped
    p1 to be 0, 1/2 or 1 within 1e-12 and reads one uniform bit per element
    instead, the bit itself where p1 is 1/2; "bytes" reads p1 within 1e-12
    of 1/2 as 1/2 and draws byte_outcomes."""
    p1 = np.sin(np.asarray(thetas) - np.asarray(phis)) ** 2
    p1 = np.where(p1 <= 1e-12, 0.0, np.where(p1 >= 1.0 - 1e-12, 1.0, p1))
    if rule == "coins":
        bits = integer_bits(rng, p1.shape)
        return np.where(is_coin(p1), bits, p1).astype(np.uint8)
    if rule == "bytes":
        return byte_outcomes(np.where(is_coin(p1), 0.5, p1), rng)
    return (rng.random(p1.shape) < p1).astype(np.uint8)


def byte_outcomes(p1, rng) -> np.ndarray:
    """Outcomes of p1, n or (rows, n), by the byte rule: one byte per
    element, each row's first n bytes of its ceil(n/8) words, byte i the
    bits 8(i % 8) up of word i // 8; outcome 1 below t = min(floor(256 p1),
    255), 0 above it, and at a tie, after every byte is drawn, one double
    per tie in C order, below f = 256 p1 - t."""
    p1 = np.asarray(p1)
    rows = p1.reshape(-1, p1.shape[-1]) if p1.ndim else p1.reshape(1, 1)
    n = rows.shape[1]
    words = rng.integers(0, np.iinfo(np.uint64).max, size=(len(rows), -(-n // 8)),
                         dtype=np.uint64, endpoint=True)
    shifts = np.uint64(8) * (np.arange(n) % 8).astype(np.uint64)
    draws = (words[:, np.arange(n) // 8] >> shifts) & np.uint64(0xFF)
    t = np.minimum(np.floor(256 * rows), 255)
    outcomes = draws < t
    tie = draws == t
    outcomes[tie] = rng.random(int(tie.sum())) < (256 * rows - t)[tie]
    return outcomes.reshape(p1.shape).astype(np.uint8)


class GivenDraws:
    """A stand-in generator whose uniform draws are `draws`, tiled to each
    requested shape; each call advances the real generator `rng` by as many
    draws, so its state shows how many were taken."""

    def __init__(self, draws, seed):
        self.draws, self.rng = np.asarray(draws), np.random.default_rng(seed)

    def random(self, shape=None, out=None):
        if out is not None:
            out[...] = self.random(out.shape)
            return out
        self.rng.random(shape)
        return np.resize(self.draws, shape)


class GivenWords:
    """A stand-in generator off PCG64, so uniform_words asks it for
    integers: its 64-bit words carry the bytes `data`, 8 to a word,
    little-endian, and its doubles are `doubles`, in order. `calls` records
    each draw, ("words", shape) or ("doubles", count)."""

    bit_generator = None

    def __init__(self, data, doubles):
        self.words = np.frombuffer(np.asarray(data, np.uint8).tobytes(), "<u8")
        self.doubles, self.calls = np.asarray(doubles, float), []

    def integers(self, low, high, size=None, dtype=None):
        self.calls.append(("words", size))
        return self.words.reshape(size).astype(dtype)

    def random(self, size=None):
        self.calls.append(("doubles", size))
        return self.doubles[:size]


def is_coin(p1):
    """p1 in [1/2 - 1e-12, 1/2 + 1e-12], the bounds rounded to doubles."""
    return (p1 >= 0.5 - 1e-12) & (p1 <= 0.5 + 1e-12)


def coin_table(p1) -> bool:
    """Whether every snapped p1 entry is 0, 1 or within 1e-12 of 1/2."""
    p1 = np.asarray(p1)
    return bool(np.all((p1 == 0.0) | (p1 == 1.0) | is_coin(p1)))


def draw_rule(states, bases, m: int, positions: int) -> str:
    """How measuring `positions` qubits whose states lie in `states` and
    bases in `bases`, against m keyed bases, draws: "doubles" when the
    table of the 2m offsets between state and basis has more entries than
    positions; otherwise "coins" when sin^2(state - basis) over every pair
    lies within 1e-12 of 0, 1/2 or 1, and "bytes" when it does not. The
    pairs are checked about 4096 at a time, a chunk of states against
    every basis, stopping at the first chunk with another value, so memory
    does not grow with the number of pairs."""
    if 2 * m > positions:
        return "doubles"
    states, step = np.ravel(states), max(1, 4096 // np.size(bases))
    for first in range(0, states.size, step):
        p1 = np.sin(np.subtract.outer(states[first:first + step], bases)) ** 2
        if not np.all((p1 <= 1e-12) | (p1 >= 1.0 - 1e-12) | is_coin(p1)):
            return "bytes"
    return "coins"


def key_guess_successes(seed_bits, count: int, rng) -> int:
    """Rows of a (count, L) int64 matrix of uniform bits that equal seed_bits;
    row i is the bits of the i-th guess's whole words, as integer_bits draws them."""
    seed_bits = np.asarray(seed_bits)
    width = -(-seed_bits.size // 64)
    guesses = word_bits(rng, (count, width))[:, :seed_bits.size].astype(np.int64)
    return int(np.sum(np.all(guesses == seed_bits, axis=1)))


# The attack kernels as they were on float angles: every state and basis is an
# angle array and every outcome comes from measure_many_snapped. The library
# carries the same kernels on integer angle codes.

HALF_PI = np.pi / 2


def key_angles(config):
    """Keyed basis angle of every qubit: selector j at j*(pi/2)/m."""
    return config.key_selectors() * (HALF_PI / config.alphabet.m)


def basis_angles(m: int) -> np.ndarray:
    """The m basis angles j*(pi/2)/m."""
    return np.arange(m) * (HALF_PI / m)


def with_turns(angles) -> np.ndarray:
    """Every angle and the angle turned by pi/2."""
    return np.add.outer(np.ravel(angles), [0.0, HALF_PI])


def resend_round(phi_key, channel, eve_phi, rng, bases):
    """A transmission, or a block of them, one per row of `phi_key` (n
    angles, or (rows, n)), with measure-resend on every position: (alice
    bits, eve outcomes, bob bits, detected mask). `bases` holds every
    angle the keyed and the attacker bases may take, (key, eve); with the
    bit and flip turns they give the states each measurement may meet,
    which decide how it draws (draw_rule), as do the positions of a row.
    Draws, each for every row in C order: alice, eve, lost, flipped, bob."""
    key_bases, eve_bases = bases
    keyed = with_turns(key_bases)
    alice = integer_bits(rng, phi_key.shape)
    theta = phi_key + alice * HALF_PI
    outcome = measure_many_snapped(theta, eve_phi, rng,
                                   draw_rule(keyed, eve_bases, key_bases.size, theta.shape[-1]))
    theta = eve_phi + outcome * HALF_PI
    lost = draw_below(channel.loss, theta.shape, rng)
    flipped = draw_below(channel.flip_prob, theta.shape, rng)
    sent = with_turns(np.concatenate([keyed.ravel(), with_turns(eve_bases).ravel()]))
    bob = measure_many_snapped(theta + flipped * HALF_PI, phi_key, rng,
                               draw_rule(sent, key_bases, key_bases.size, theta.shape[-1]))
    return alice, outcome, bob, ~lost


def row_counts(rows: int, *masks):
    """Per row of a block of `rows`, the ones of each 0/1 mask, as tuples of ints."""
    return [tuple(int(c) for c in counts)
            for counts in zip(*(np.reshape(mask, (rows, -1)).sum(axis=1) for mask in masks))]


def state_attack_round(strategy, config, channel, rng, rows=1):
    """A block of `rows` intercept or fixed-basis rounds against `config`'s
    keyed bases over `channel`: resend_round's arrays, one row per round,
    and her attacked mask. Intercept draws the mask (draw_below, which
    draws nothing at fraction 0 or 1), then her basis bits, 0 or pi/4 where
    the mask is set; where it is clear she measures in the keyed basis."""
    phi_key = np.tile(key_angles(config), (rows, 1))
    bases = basis_angles(config.alphabet.m)
    if strategy.kind == "intercept_resend_random":
        attacked = draw_below(strategy.fraction, phi_key.shape, rng)
        eve_phi = np.where(attacked, integer_bits(rng, phi_key.shape) * (HALF_PI / 2), phi_key)
        # Her bases at 0 and pi/4 lie on the keyed lattice at every m.
        eve_bases = bases
    else:
        attacked = np.ones(phi_key.shape, bool)
        eve_bases = np.array([strategy.phi])
        eve_phi = np.full(phi_key.shape, strategy.phi)
    return (*resend_round(phi_key, channel, eve_phi, rng, (bases, eve_bases)), attacked)


def state_attack_counts(strategy, config, channel, rng, rows=1):
    """state_attack_round's block as counts: per row (eve bit errors,
    attacked, user errors, detected), her errors over her attacked
    positions. A fixed basis decodes by likelihood once the key is
    granted; intercept keeps her outcomes, as on the two-basis alphabet,
    where her basis is never more than pi/4 off."""
    alice, outcome, bob, detected, attacked = state_attack_round(strategy, config, channel, rng,
                                                                 rows)
    phi_key = key_angles(config)
    flip = (np.cos(phi_key - strategy.phi) ** 2 < 0.5 if strategy.kind == "fixed_basis"
            else np.zeros(phi_key.shape, bool))
    return row_counts(rows, ((outcome ^ flip) != alice) & attacked, attacked,
                      (bob != alice) & detected, detected)


def key_guess_rounds(config, rng, rows=1):
    """A block of `rows` key-guessing rounds against `config`'s LFSR key over
    its channel: per row (her bit-error rate, user errors, detected).
    Draws: her guesses of the seed, one per row, then the transmissions;
    a guess's selectors come from the recurrence (lfsr_matrix), grouped
    big-endian, and an all-zero guess gives basis 0 everywhere."""
    spec, n, m = config.keystream.spec, config.n, config.alphabet.m
    k = m.bit_length() - 1
    guesses = integer_bits(rng, (rows, max(spec.taps))).astype(np.int64)
    bits = guesses @ lfsr_matrix(spec.taps, n * k).T.astype(np.int64) % 2
    selectors = np.stack([selectors_matmul(row, n, k) for row in bits])
    bases = basis_angles(m)
    alice, outcome, bob, detected = resend_round(np.tile(key_angles(config), (rows, 1)),
                                                 config.channel, bases[selectors], rng,
                                                 (bases, bases))
    return [(float(np.mean(wrong)), errors, seen) for wrong, (errors, seen) in
            zip(outcome != alice, row_counts(rows, (bob != alice) & detected, detected))]


def block_guess_chunk(count, rng, k_blocks, block_len, channel):
    """`count` block-guess trials on the two-basis alphabet: (success flags,
    user errors on detected positions, attacker errors, detected positions)
    per trial. Draws: the key blocks and then the guesses, in one bit draw;
    then the trials' transmissions, as one block over the blocks of every
    trial, trial by trial, and the positions of each, its rows along the
    shorter side: block_len rows, row r position r of every block, or one
    row per block."""
    blocks = integer_bits(rng, 2 * count * k_blocks).astype(np.int64)
    key_blocks = blocks[:count * k_blocks].reshape(count, k_blocks)
    guesses = blocks[count * k_blocks:].reshape(count, k_blocks)
    success = np.all(guesses == key_blocks, axis=1)
    # Angle [r, i * k_blocks + b]: position r of block b of trial i.
    key_phi, guess_phi = (np.tile(bits.reshape(1, -1) * (HALF_PI / 2), (block_len, 1))
                          for bits in (key_blocks, guesses))
    by_block = block_len > count * k_blocks
    if by_block:
        key_phi, guess_phi = np.ascontiguousarray(key_phi.T), np.ascontiguousarray(guess_phi.T)
    arrays = resend_round(key_phi, channel, guess_phi, rng, (basis_angles(2), basis_angles(2)))
    alice, outcome, bob, detected = (a.T.reshape(block_len, count, k_blocks) if by_block
                                     else a.reshape(block_len, count, k_blocks) for a in arrays)
    return (success, *(np.sum(mask, axis=(0, 2)) for mask in (
        (bob != alice) & detected, outcome != alice, detected)))


# The draw contract of uniform_bits and uniform_below, rebuilt with shifts
# over the raw bytes, and selector and jump-table code as it was before the
# keygen kernels.

def word_bits(rng, shape) -> np.ndarray:
    """Uniform 64-bit words of `shape` (every value 0..2^64 - 1, endpoint
    included), each expanded to its 64 bits: bit j of a word is bit j % 8 of
    its little-endian byte j // 8. Shape (..., 64 * shape[-1]), uint8."""
    words = rng.integers(0, np.iinfo(np.uint64).max, size=shape, dtype=np.uint64, endpoint=True)
    raw = np.frombuffer(words.astype("<u8").tobytes(), dtype=np.uint8)
    bits = (raw[:, None] >> np.arange(8, dtype=np.uint8)) & 1
    return bits.reshape(*np.shape(words)[:-1], -1)


def integer_bits(rng, shape) -> np.ndarray:
    """Uniform bits of `shape` n or (rows, n): each row the first n bits of
    its ceil(n/64) words, the rows' words drawn in one call."""
    *rows, n = np.atleast_1d(shape).tolist()
    return word_bits(rng, (*rows, -(-n // 64)))[..., :n]


def mask_below(p: float, rng, shape):
    """draw_below(p, shape, rng), or None at p <= 0, where nothing is drawn
    and every element is false."""
    return None if p <= 0 else draw_below(p, shape, rng)


def draw_below(p: float, shape, rng) -> np.ndarray:
    """One uniform double per element, compared with p; no draw at p <= 0 or
    p >= 1, where every double is at least p or below it."""
    if p <= 0 or p >= 1:
        return np.zeros(shape, dtype=bool) | (p >= 1)
    return rng.random(shape) < p


def selectors_matmul(bits, n: int, k: int) -> np.ndarray:
    """The first n*k bits grouped big-endian into selectors by an (n, k) @ (k,) product."""
    weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    return np.asarray(bits)[:n * k].reshape(n, k).astype(np.int64) @ weights


def jump_rows_recurrence(taps, block: int) -> tuple:
    """Jump table of lfsr_rows from the recurrence: row j has bit k set when
    sequence bit k (k < block + L) depends on state bit L - 1 - j. The
    dependences are ints, one per sequence bit, read out as a bit matrix
    whose columns are the rows."""
    length = max(taps)
    forms = [1 << i for i in range(length)]  # forms[k]: the state bits sequence bit k depends on
    for k in range(block):
        term = 0
        for t in taps:
            term ^= forms[k + length - t]
        forms.append(term)
    width = -(-length // 8)
    data = np.frombuffer(b"".join(form.to_bytes(width, "little") for form in forms), np.uint8)
    matrix = np.unpackbits(data.reshape(len(forms), width), axis=1, count=length,
                           bitorder="little")
    return tuple(int.from_bytes(np.packbits(matrix[:, bit], bitorder="little").tobytes(),
                                "little") for bit in reversed(range(length)))
