"""Keyed-basis protocol pipeline: transmission, rate gate, reconciliation,
privacy amplification, key verification, key accounting, and the
direct-encryption mode.

Every detected qubit yields a bit (there is no sifting: the receiver always
measures in the keyed basis), so raw frames are as long as the detected
position list. A run is fully deterministic given (config, rng seed). Aborts
are outcomes, not exceptions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analysis import h2, rate_window
from .keystream import (MAX_SELECTOR_BITS, LfsrKeystream, LfsrSpec, RepetitionKeystream, SeedKey,
                        as_bits, bits_int, lfsr_rows)
from .qubits import (BasisAlphabet, measure_many, optimal_fixed_basis, require_integer,
                     require_real, turn_by_bits, uniform_below, uniform_bits)

# Idealized Shannon-limit reconciliation succeeds when the empirical error
# entropy stays this far below the code redundancy 1 - R. Chosen so finite-n
# fluctuation at n >= 1e4 rarely crosses the gate.
RECONCILE_MARGIN = 0.02

# Fraction of detected bits disclosed for channel estimation and discarded.
QBER_SAMPLE_FRACTION = 0.05

MODE_KEY_GENERATION = "key-generation"
MODE_DIRECT_ENCRYPTION = "direct-encryption"


@dataclass(frozen=True)
class ChannelModel:
    """Per-qubit erasure followed by bit flip (state rotation by pi/2)."""

    flip_prob: float = 0.0
    loss: float = 0.0

    def __post_init__(self):
        for field in ("flip_prob", "loss"):
            object.__setattr__(self, field, require_real(getattr(self, field), field))
        if not 0.0 <= self.flip_prob < 0.5:
            raise ValueError(f"flip probability must lie in [0, 0.5), got {self.flip_prob}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must lie in [0, 1), got {self.loss}")

    def draw(self, rng: np.random.Generator, shape):
        """(lost, flipped) for states of `shape`, n or (rows, n), the
        erasure draw before the flip draw: each a mask of that shape, or
        None when its probability is 0, where no state is lost or flipped
        and nothing is drawn."""
        return uniform_below(self.loss, rng, shape), uniform_below(self.flip_prob, rng, shape)


@dataclass(frozen=True)
class ProtocolConfig:
    """Full description of one protocol run."""

    n: int
    alphabet: BasisAlphabet
    keystream: LfsrKeystream | RepetitionKeystream
    channel: ChannelModel
    code_rate: float
    pa_security_param: int
    verification_len: int
    mode: str = MODE_KEY_GENERATION

    def __post_init__(self):
        for field in ("n", "pa_security_param", "verification_len"):
            object.__setattr__(self, field, require_integer(getattr(self, field), field))
        object.__setattr__(self, "code_rate", _code_rate(self.code_rate))
        if self.n < 1:
            raise ValueError("qubit count must be >= 1")
        if self.pa_security_param < 0:
            raise ValueError("security parameter must be >= 0")
        if not 1 <= self.verification_len <= MAX_VERIFICATION_LEN:
            raise ValueError(f"verification length must lie in [1, {MAX_VERIFICATION_LEN}]")
        if self.mode not in (MODE_KEY_GENERATION, MODE_DIRECT_ENCRYPTION):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.alphabet.bits_per_selector > MAX_SELECTOR_BITS:
            raise ValueError(f"basis count {self.alphabet.m} exceeds 2^{MAX_SELECTOR_BITS}")
        if isinstance(self.keystream, RepetitionKeystream):
            if self.alphabet.m != 2:
                raise ValueError("repetition keystream requires the two-basis alphabet")
            if self.keystream.secret_bits > self.n:
                raise ValueError(f"repetition key of {self.keystream.secret_bits} bits "
                                 f"exceeds the qubit count {self.n}")

    def to_json_dict(self) -> dict:
        if isinstance(self.keystream, LfsrKeystream):
            ks = {"kind": "lfsr", "spec": self.keystream.spec.to_text(),
                  "seed": self.keystream.seed.to_string()}
        else:
            ks = {"kind": "repetition", "key": self.keystream.key.to_string()}
        return {
            "n": self.n,
            "m": self.alphabet.m,
            "keystream": ks,
            "channel": {"flip_prob": self.channel.flip_prob, "loss": self.channel.loss},
            "code_rate": self.code_rate,
            "pa_security_param": self.pa_security_param,
            "verification_len": self.verification_len,
            "mode": self.mode,
        }

    _JSON_FIELDS = frozenset({"n", "m", "keystream", "channel", "code_rate",
                              "pa_security_param", "verification_len", "mode"})

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ProtocolConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config document must be a JSON object, got {doc!r}")
        _known(doc, "config", cls._JSON_FIELDS)
        try:
            ks_doc = _object(doc, "keystream")
            kind = _string(ks_doc, "kind")
            if kind == "lfsr":
                _known(ks_doc, "keystream", ("kind", "spec", "seed"))
                keystream = LfsrKeystream(LfsrSpec.from_text(_string(ks_doc, "spec")),
                                          SeedKey.from_string(_string(ks_doc, "seed")))
            elif kind == "repetition":
                _known(ks_doc, "keystream", ("kind", "key"))
                keystream = RepetitionKeystream(SeedKey.from_string(_string(ks_doc, "key")))
            else:
                raise ValueError(f"unknown keystream kind {kind!r}")
            channel = _known(_object(doc, "channel"), "channel", ("flip_prob", "loss"))
            return cls(
                n=_integer(doc, "n"),
                alphabet=BasisAlphabet(_integer(doc, "m")),
                keystream=keystream,
                channel=ChannelModel(_real(channel, "flip_prob"), _real(channel, "loss")),
                code_rate=_real(doc, "code_rate"),
                pa_security_param=_integer(doc, "pa_security_param"),
                verification_len=_integer(doc, "verification_len"),
                mode=str(doc.get("mode", MODE_KEY_GENERATION)),
            )
        except KeyError as exc:
            raise ValueError(f"config document is missing field {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ProtocolConfig":
        return cls.from_json_dict(json.loads(text))

    def key_selectors(self) -> np.ndarray:
        """Keyed basis index of every qubit: the running key's selectors."""
        return self.keystream.running_key(self.n, self.alphabet).selectors


def _known(doc: dict, what: str, fields) -> dict:
    """`doc`, whose keys must all be among `fields`; a stray one raises ValueError."""
    if set(doc) - set(fields):
        raise ValueError(f"unknown {what} fields: {sorted(set(doc) - set(fields))}")
    return doc


def _object(doc: dict, field: str) -> dict:
    """Nested config object; any other JSON value is rejected."""
    value = doc[field]
    if not isinstance(value, dict):
        raise ValueError(f"config field {field!r} must be a JSON object, got {value!r}")
    return value


def _string(doc: dict, field: str) -> str:
    """Text config field; numbers and other JSON values are rejected, not converted."""
    value = doc[field]
    if not isinstance(value, str):
        raise ValueError(f"config field {field!r} must be a string, got {value!r}")
    return value


def _real(doc: dict, field: str) -> float:
    """Numeric config field; bools, strings and other JSON values are rejected, not coerced."""
    return require_real(doc[field], f"config field {field!r}")


def _integer(doc: dict, field: str) -> int:
    """Integer config field; bools, strings and non-integral numbers are rejected, not truncated."""
    value = doc[field]
    if isinstance(value, bool) or not (isinstance(value, int) or
                                       isinstance(value, float) and value.is_integer()):
        raise ValueError(f"config field {field!r} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class KeyLedger:
    """Secret-key accounting for one run; net may be negative."""

    consumed_seed: int
    consumed_verification: int
    generated: int

    @property
    def net(self) -> int:
        return self.generated - (self.consumed_seed + self.consumed_verification)

    def to_json_dict(self) -> dict:
        return {
            "consumed_seed": self.consumed_seed,
            "consumed_verification": self.consumed_verification,
            "generated": self.generated,
            "net": self.net,
        }


def bits_to_hex(bits) -> str:
    """Hex rendering of a 0/1 vector, big-endian, right-padded to a nibble."""
    bits = as_bits(bits, "key bits")
    return np.packbits(bits).tobytes().hex()[:-(-bits.size // 4)]


@dataclass(frozen=True)
class ProtocolOutcome:
    """Result of one run: final keys, observed error rate, ledger, verdict."""

    alice_key: np.ndarray
    bob_key: np.ndarray
    qber_raw: float | None
    detected_positions: np.ndarray
    verified: bool
    ledger: KeyLedger
    abort_reason: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "verified": self.verified,
            "abort_reason": self.abort_reason,
            "qber_raw": self.qber_raw,
            "detected_count": int(self.detected_positions.size),
            "key_bits": int(self.alice_key.size),
            "alice_key": bits_to_hex(self.alice_key),
            "bob_key": bits_to_hex(self.bob_key),
            "ledger": self.ledger.to_json_dict(),
        }


def keyed_channel(config: ProtocolConfig, bits, rng: np.random.Generator):
    """Send one bit per qubit in its keyed basis, erase, flip, and measure it there.

    Returns (sent state angles, bob bits, detected mask).
    """
    phi = config.alphabet.angle(config.key_selectors())
    theta = turn_by_bits(phi, bits)
    lost, flipped = config.channel.draw(rng, config.n)
    received = theta if flipped is None else turn_by_bits(theta, flipped)
    detected = np.ones(config.n, bool) if lost is None else ~lost
    return theta, measure_many(received, phi, rng), detected


def transmit_round(config: ProtocolConfig, rng: np.random.Generator, interference=None):
    """One keyed transmission: returns (alice bits, bob bits, detected positions).

    The sender draws n uniform bits and sends them across keyed_channel.
    `interference`, if given, makes the whole transmission in their place:
    a callable (config, rng) -> (alice bits, bob bits, detected mask), a
    tuple or list of three arrays of one entry per qubit; any other return
    raises ValueError. It is the hook an eavesdropper uses to measure and
    resend in-line with a full run (adversary.measure_resend_interference).
    """
    if interference is None:
        alice = uniform_bits(rng, config.n)
        _, bob, detected = keyed_channel(config, alice, rng)
    else:
        sent = interference(config, rng)
        if (not isinstance(sent, (tuple, list)) or len(sent) != 3
                or any(np.shape(a) != (config.n,) for a in sent)):
            raise ValueError("interference must return three arrays of one entry per qubit")
        alice, bob, detected = sent
    detected = np.flatnonzero(detected)
    if detected.size == config.n:
        return alice, bob, detected
    return alice[detected], bob[detected], detected


def _code_rate(value) -> float:
    """A code rate R as a float; non-reals and R outside (0, 1) raise ValueError."""
    rate = require_real(value, "code rate")
    if not 0.0 < rate < 1.0:
        raise ValueError(f"code rate must lie in (0, 1), got {rate}")
    return rate


class RateVerdict(str, Enum):
    OK = "ok"
    RATE_TOO_HIGH = "rate_too_high"
    RATE_TOO_LOW_FOR_SECURITY = "rate_too_low_for_security"


def rate_gate(p_c_hat: float, code_rate: float) -> RateVerdict:
    """Feasibility of code rate R against the estimated channel error.

    ok requires R inside rate_window(p_c_hat): below the users' capacity
    1 - h2(p_c_hat) (they can correct) and above 1 - h2(0.15) (the rate
    exceeds a fixed-basis eavesdropper's capacity). When both fail, the
    correction failure is reported.
    """
    code_rate = _code_rate(code_rate)
    window = rate_window(p_c_hat)
    if window.upper <= code_rate:
        return RateVerdict.RATE_TOO_HIGH
    if code_rate <= window.lower:
        return RateVerdict.RATE_TOO_LOW_FOR_SECURITY
    return RateVerdict.OK


def reconcile(alice_bits, bob_bits, code_rate: float):
    """Idealized Shannon-limit reconciliation.

    Succeeds iff h2(empirical error rate) <= (1 - R) - margin; on success the
    receiver's bits are replaced by the sender's and ceil(l*(1-R)) bits count
    as leaked syndrome.
    """
    code_rate = _code_rate(code_rate)
    alice = as_bits(alice_bits, "sender bits")
    bob = as_bits(bob_bits, "receiver bits")
    if alice.shape != bob.shape:
        raise ValueError(f"length mismatch: {alice.size} vs {bob.size}")
    length = alice.size
    error_rate = float(np.mean(alice != bob)) if length else 0.0
    leaked = math.ceil(length * (1.0 - code_rate))
    if h2(error_rate) > (1.0 - code_rate) - RECONCILE_MARGIN:
        return bob.copy(), leaked, False
    return alice.copy(), leaked, True


def privacy_amplify(bits, out_len: int, hash_seed) -> np.ndarray:
    """Toeplitz-matrix binary hash of `bits` down to `out_len` bits.

    The matrix is T[i, j] = seed[i - j + (len(bits) - 1)], so the seed runs
    along the diagonals and must have length len(bits) + out_len - 1. Linear
    over GF(2) in the input for a fixed seed. Inputs must be 0/1.
    """
    return _toeplitz_hash(as_bits(bits, "hash input"), require_integer(out_len, "output length"),
                          as_bits(hash_seed, "hash seed"))


def _toeplitz_hash(bits: np.ndarray, out_len: int, seed: np.ndarray) -> np.ndarray:
    """privacy_amplify on uint8 0/1: word parities to MAX_VERIFICATION_LEN bits, else an FFT."""
    n = bits.size
    if not 0 <= out_len <= n:
        raise ValueError(f"output length must lie in [0, {n}], got {out_len}")
    if seed.size != max(0, n + out_len - 1):
        raise ValueError(f"hash seed must have {max(0, n + out_len - 1)} bits, got {seed.size}")
    if out_len <= MAX_VERIFICATION_LEN:
        # Bit i = XOR_j seed[i - j + n - 1] & bits[j] = parity(reversed bits & seed >> i).
        word, seed_int = bits_int(bits[::-1]), bits_int(seed)
        return np.array([(word & (seed_int >> i)).bit_count() & 1 for i in range(out_len)],
                        dtype=np.uint8)
    # At least len(seed) circular points leave the window [n - 1, n - 1 + out_len) unaliased.
    size = _fft_size(seed.size)
    conv = np.fft.irfft(np.fft.rfft(seed, size) * np.fft.rfft(bits, size), size)
    window = conv[n - 1:n - 1 + out_len]
    seg = np.rint(window)
    if np.abs(window - seg).max() > 0.25:
        raise ArithmeticError("FFT convolution lost integer exactness")
    # Parity by an integer AND, not a float remainder.
    return (seg.astype(np.int64) & 1).astype(np.uint8)


def _fft_size(length: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= length, for length >= 1: a size pocketfft transforms fast."""
    best = 1 << (length - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-length // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def pa_output_length(reconciled_len: int, code_rate: float, alphabet: BasisAlphabet,
                     security_bits: int) -> int:
    """Privacy-amplified key length: floor(l * (R - eve capacity)) - s, clamped at 0.

    The margin subtracts the best fixed-basis eavesdropper capacity
    1 - h2(e*) from the code rate, so reconciliation side information is
    covered by the rate condition itself; s is an extra security haircut.
    """
    reconciled_len = require_integer(reconciled_len, "reconciled length")
    security_bits = require_integer(security_bits, "security parameter")
    code_rate = _code_rate(code_rate)
    if reconciled_len < 0:
        raise ValueError("reconciled length must be >= 0")
    if security_bits < 0:
        raise ValueError("security parameter must be >= 0")
    _, err = optimal_fixed_basis(alphabet)
    margin = code_rate - (1.0 - h2(err))
    return max(0, math.floor(reconciled_len * margin) - security_bits)


# Primitive tap sets for the verification-hash expander, one per register
# length; each entry is order-checked against the factorization of 2^k - 1.
# Length 1 is x + 1, whose register repeats its one state bit.
_VERIFICATION_TAPS = {
    1: (1,), 2: (2, 1), 3: (3, 1), 4: (4, 1), 5: (5, 2), 6: (6, 1), 7: (7, 1),
    8: (8, 7, 2, 1), 9: (9, 4), 10: (10, 3), 11: (11, 2), 12: (12, 8, 2, 1),
    13: (13, 5, 2, 1), 14: (14, 12, 2, 1), 15: (15, 1), 16: (16, 12, 3, 1),
    17: (17, 3), 18: (18, 7), 19: (19, 5, 2, 1), 20: (20, 3), 21: (21, 2),
    22: (22, 1), 23: (23, 5), 24: (24, 7, 2, 1), 25: (25, 3),
    26: (26, 6, 2, 1), 27: (27, 5, 2, 1), 28: (28, 3), 29: (29, 2),
    30: (30, 23, 2, 1), 31: (31, 3), 32: (32, 22, 2, 1), 33: (33, 13),
    34: (34, 27, 2, 1), 35: (35, 2), 36: (36, 11), 37: (37, 9, 2, 1),
    38: (38, 13, 3, 1), 39: (39, 4), 40: (40, 35, 2, 1), 41: (41, 3),
    42: (42, 29, 2, 1), 43: (43, 12, 2, 1), 44: (44, 38, 3, 1),
    45: (45, 4, 3, 1), 46: (46, 9, 3, 1), 47: (47, 5), 48: (48, 28, 3, 1),
    49: (49, 9), 50: (50, 16, 2, 1), 51: (51, 28, 2, 1), 52: (52, 3),
    53: (53, 6, 2, 1), 54: (54, 17, 2, 1), 55: (55, 24), 56: (56, 42, 2, 1),
    57: (57, 7), 58: (58, 19), 59: (59, 24, 2, 1), 60: (60, 1),
    61: (61, 5, 2, 1), 62: (62, 28, 3, 1), 63: (63, 1), 64: (64, 11, 2, 1),
}

MAX_VERIFICATION_LEN = max(_VERIFICATION_TAPS)


def verification_tag(key_bits, selector) -> np.ndarray:
    """Keyed hash for key verification.

    The |selector|-bit selector seeds a maximal-length register whose output
    becomes the diagonal seed of a |selector|-row Toeplitz hash: Krawczyk's
    LFSR-based hash (CRYPTO '94), each row one word parity over Python ints.
    A maximal sequence never shows |selector| consecutive zeros, so for a
    random selector any single-bit difference in the hashed keys collides
    only on the all-zero selector, i.e. with probability 2^-|selector|;
    random unequal keys collide at the same order.
    For |selector| = 1 the register is x + 1, which repeats the selector bit:
    the tag is the key's parity or 0. Inputs must be 0/1.
    """
    return _tag(as_bits(key_bits, "key bits"), as_bits(selector, "selector bits"))


def _tag(key_bits: np.ndarray, selector: np.ndarray) -> np.ndarray:
    """verification_tag on uint8 0/1 arrays."""
    kv = selector.size
    taps = _VERIFICATION_TAPS.get(kv)
    if taps is None:
        raise ValueError(f"verification hash supports 1 <= |K_v| <= {MAX_VERIFICATION_LEN}, got {kv}")
    seed = lfsr_rows(taps, [selector], key_bits.size + kv - 1)[0]
    return _toeplitz_hash(key_bits, kv, seed)


def verify_key(alice_key, bob_key, verification_key) -> bool:
    """Compare keyed hashes of the two final keys, one-time padded for exchange.

    The verification key splits in half: |K_v| bits select the hash, |K_v|
    bits pad the transmitted digest. Unequal keys are accepted with
    probability about 2^-|K_v|. The hash is GF(2)-linear and the pad is the
    same on both sides, so the padded tags agree exactly when the tag of
    a XOR b is zero: that one tag is computed, and the pad cancels. Keys and
    the verification key must be 0/1.
    """
    vk = as_bits(verification_key, "verification key")
    if vk.size < 2 or vk.size % 2:
        raise ValueError("verification key must be 2*|K_v| bits (selector + pad)")
    alice = as_bits(alice_key, "key bits")
    bob = as_bits(bob_key, "key bits")
    if alice.shape != bob.shape:
        raise ValueError(f"length mismatch: {alice.size} vs {bob.size}")
    return not _tag(alice ^ bob, vk[:vk.size // 2]).any()


def run_protocol(config: ProtocolConfig, rng: np.random.Generator,
                 interference=None) -> ProtocolOutcome:
    """Full key-generation run: transmit, estimate, gate, reconcile, amplify, verify.

    Channel estimation discloses a random 5% subsample of detected bits, which
    is discarded from the key material. The privacy-amplification seed and the
    estimation subsample are public coins: only the seed key and the 2*|K_v|
    verification bits count as consumed secret key. Aborts before the
    verification step, including an amplified key shorter than |K_v|
    ("key_too_short"), consume no verification bits.

    An `interference` callable (see transmit_round) runs the pipeline against
    an in-line eavesdropper; errors she induces surface in the estimate and
    close the rate gate like any other channel noise.
    """
    if config.mode != MODE_KEY_GENERATION:
        raise ValueError("run_protocol requires a key-generation config")
    consumed_seed = config.keystream.secret_bits
    kv = config.verification_len
    empty = np.zeros(0, dtype=np.uint8)

    def aborted(reason, detected, qber=None):
        return ProtocolOutcome(
            alice_key=empty, bob_key=empty, qber_raw=qber,
            detected_positions=detected, verified=False,
            ledger=KeyLedger(consumed_seed, 0, 0),
            abort_reason=reason,
        )

    alice, bob, detected = transmit_round(config, rng, interference)
    if detected.size == 0:
        return aborted("no_detected", detected)

    sample_size = max(1, round(QBER_SAMPLE_FRACTION * detected.size))
    sample = rng.choice(detected.size, size=sample_size, replace=False)
    qber_hat = float(np.mean(alice[sample] != bob[sample]))

    # Estimates at or beyond 1/2 are hopeless; clamp into the gate's domain.
    if rate_gate(min(qber_hat, 0.5 - 1e-9), config.code_rate) is not RateVerdict.OK:
        return aborted("rate_gate", detected, qber_hat)

    kept = np.ones(detected.size, dtype=bool)
    kept[sample] = False
    alice_kept = alice[kept]
    bob_kept = bob[kept]
    bob_corrected, _, reconciled = reconcile(alice_kept, bob_kept, config.code_rate)
    if not reconciled:
        return aborted("reconcile", detected, qber_hat)

    out_len = pa_output_length(alice_kept.size, config.code_rate, config.alphabet,
                               config.pa_security_param)
    if out_len < kv:
        return aborted("key_too_short", detected, qber_hat)
    pa_seed = uniform_bits(rng, max(0, alice_kept.size + out_len - 1))
    key_a = privacy_amplify(alice_kept, out_len, pa_seed)
    # The hash is a function of the frame, so an exactly reconciled frame
    # needs no second one.
    if np.array_equal(bob_corrected, alice_kept):
        key_b = key_a.copy()
    else:
        key_b = privacy_amplify(bob_corrected, out_len, pa_seed)

    verification_key = uniform_bits(rng, 2 * kv)
    verified = verify_key(key_a, key_b, verification_key)
    return ProtocolOutcome(
        alice_key=key_a, bob_key=key_b, qber_raw=qber_hat,
        detected_positions=detected, verified=verified,
        ledger=KeyLedger(consumed_seed, 2 * kv, key_a.size if verified else 0),
        abort_reason=None if verified else "verification",
    )


@dataclass(frozen=True)
class DirectEncryptionResult:
    """Transcript of one direct-encryption exchange."""

    ciphertext_angles: np.ndarray
    recovered_plaintext: np.ndarray | None
    ok: bool
    reason: str | None = None


def run_direct_encryption(config: ProtocolConfig, plaintext,
                          rng: np.random.Generator) -> DirectEncryptionResult:
    """Send data directly over the keyed-basis channel: rate-R coding, no
    privacy amplification, message authentication instead of verification.

    The frame is plaintext plus ceil(n*(1-R)) idealized parity bits (random
    placeholders; the code itself is the Shannon-limit gate from reconcile).
    Erased positions enter the receiver's frame as zeros, i.e. as errors. The
    ciphertext transcript records the transmitted state angles; that is
    simulator bookkeeping, not information an attacker could read out.
    """
    if config.mode != MODE_DIRECT_ENCRYPTION:
        raise ValueError("run_direct_encryption requires a direct-encryption config")
    pt = as_bits(plaintext, "plaintext")
    n = config.n
    data_capacity = math.floor(n * config.code_rate)
    if pt.size > data_capacity:
        raise ValueError(f"plaintext of {pt.size} bits exceeds rate-R payload {data_capacity}")
    if pt.size < config.verification_len:
        raise ValueError(f"plaintext of {pt.size} bits is shorter than the "
                         f"{config.verification_len}-bit authentication tag")

    filler = uniform_bits(rng, data_capacity - pt.size)
    parity = uniform_bits(rng, n - data_capacity)
    frame = np.concatenate([pt, filler, parity])

    theta, bob_frame, detected = keyed_channel(config, frame, rng)
    bob_frame[~detected] = 0

    corrected, _, reconciled = reconcile(frame, bob_frame, config.code_rate)
    if not reconciled:
        return DirectEncryptionResult(theta, None, False, "reconcile")

    recovered = corrected[:pt.size]
    auth_key = uniform_bits(rng, 2 * config.verification_len)
    if not verify_key(pt, recovered, auth_key):
        return DirectEncryptionResult(theta, recovered, False, "authentication")
    return DirectEncryptionResult(theta, recovered, True)
