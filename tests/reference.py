"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own code paths: GF(2)
polynomial order for primitivity, explicit Toeplitz matrix construction,
and brute-force scans.
"""

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


def measure_many_snapped(thetas, phis, rng) -> np.ndarray:
    """Projective measurement that snaps sin^2(theta - phi) within 1e-12 of 0 or 1
    to certainty before comparing one uniform draw per element against it."""
    p1 = np.sin(np.asarray(thetas) - np.asarray(phis)) ** 2
    p1 = np.where(p1 <= 1e-12, 0.0, np.where(p1 >= 1.0 - 1e-12, 1.0, p1))
    return (rng.random(p1.shape) < p1).astype(np.uint8)


def key_guess_successes(seed_bits, count: int, rng) -> int:
    """Rows of a (count, L) int64 matrix of uniform bits that equal seed_bits."""
    seed_bits = np.asarray(seed_bits)
    guesses = rng.integers(0, 2, size=(count, seed_bits.size), dtype=np.int64)
    return int(np.sum(np.all(guesses == seed_bits, axis=1)))


# The attack kernels as they were on float angles: every state and basis is an
# angle array and every outcome comes from measure_many_snapped. The library
# carries the same kernels on integer angle codes.

HALF_PI = np.pi / 2


def key_angles(config):
    """Keyed basis angle of every qubit: selector j at j*(pi/2)/m."""
    return config.key_selectors() * (HALF_PI / config.alphabet.m)


def resend_round(phi_key, channel, eve_phi, attacked, rng):
    """One transmission with measure-resend on the positions `attacked` (a mask
    or slice) selects: (alice bits, eve outcomes on attacked positions, bob
    bits, detected mask). Draws: alice, eve, lost, flipped, bob."""
    alice = rng.integers(0, 2, size=phi_key.shape, dtype=np.int64).astype(np.uint8)
    theta = phi_key + alice * HALF_PI
    outcome = measure_many_snapped(theta[attacked], eve_phi[attacked], rng)
    theta[attacked] = eve_phi[attacked] + outcome * HALF_PI
    lost = rng.random(theta.shape) < channel.loss
    flipped = rng.random(theta.shape) < channel.flip_prob
    bob = measure_many_snapped(theta + flipped * HALF_PI, phi_key, rng)
    return alice, outcome, bob, ~lost


def state_attack_counts(strategy, phi_key, channel, rng):
    """One intercept or fixed-basis round, decoded by likelihood once the key
    is granted: (eve bit errors, attacked, user errors, detected)."""
    n = phi_key.size
    if strategy.kind == "intercept_resend_random":
        attacked = rng.random(n) < strategy.fraction
        eve_phi = rng.integers(0, 2, size=n, dtype=np.int64) * (HALF_PI / 2)
    else:
        attacked = np.ones(n, dtype=bool)
        eve_phi = np.full(n, strategy.phi)
    alice, outcome, bob, detected = resend_round(phi_key, channel, eve_phi, attacked, rng)
    flip = (np.cos(phi_key[attacked] - eve_phi[attacked]) ** 2) < 0.5
    return (int(np.sum((outcome ^ flip) != alice[attacked])), int(np.sum(attacked)),
            int(np.sum((bob != alice) & detected)), int(np.sum(detected)))


def block_guess_chunk(count, rng, k_blocks, block_len, channel):
    """`count` block-guess trials on the two-basis alphabet: (success flags,
    user errors, attacker errors) per trial."""
    key_blocks = rng.integers(0, 2, size=(count, k_blocks), dtype=np.int64)
    guesses = rng.integers(0, 2, size=(count, k_blocks), dtype=np.int64)
    success = np.all(guesses == key_blocks, axis=1)
    key_phi = np.repeat(key_blocks, block_len, axis=1) * (HALF_PI / 2)
    guess_phi = np.repeat(guesses, block_len, axis=1) * (HALF_PI / 2)
    alice, outcome, bob, detected = resend_round(key_phi, channel, guess_phi, slice(None), rng)
    return success, np.sum((bob != alice) & detected, axis=1), np.sum(outcome != alice, axis=1)


# Draw, selector and jump-table code as it was before the keygen kernels.

def integer_bits(rng, n: int) -> np.ndarray:
    """n uniform bits through the bounded-integer draw."""
    return rng.integers(0, 2, size=n, dtype=np.int64).astype(np.uint8)


def draw_below(p: float, shape, rng) -> np.ndarray:
    """One uniform double per element, compared with p."""
    return rng.random(shape) < p


def selectors_matmul(bits, n: int, k: int) -> np.ndarray:
    """The first n*k bits grouped big-endian into selectors by an (n, k) @ (k,) product."""
    weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    return np.asarray(bits)[:n * k].reshape(n, k).astype(np.int64) @ weights


def jump_rows_recurrence(taps, block: int) -> tuple:
    """Jump table of lfsr_bits from the recurrence: row j has bit k set when
    sequence bit k (k < block + L) depends on state bit L - 1 - j."""
    length = max(taps)
    forms = [1 << i for i in range(length)]  # forms[k]: the state bits sequence bit k depends on
    for k in range(block):
        term = 0
        for t in taps:
            term ^= forms[k + length - t]
        forms.append(term)
    return tuple(sum(((form >> bit) & 1) << k for k, form in enumerate(forms))
                 for bit in reversed(range(length)))
