"""Seed-keyed deterministic expansion of a short secret key into a running key
of per-qubit basis selectors.

Two expanders are built in: a Fibonacci-configuration LFSR over the seed key
(`lfsr_stream`, one block-parallel kernel `lfsr_rows`) and the repetition
expander that stretches an m_k-bit key over n qubits in contiguous blocks.
`expand_running_key` groups a 0/1 bit array into selectors.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import xor

import numpy as np

from .qubits import BasisAlphabet, require_integer

# Selectors are int64, so a selector holds at most 63 bits (m <= 2^63).
MAX_SELECTOR_BITS = 63


@dataclass(frozen=True)
class SeedKey:
    """Ordered secret bit vector, length >= 1."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise ValueError("seed key needs at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("seed key bits must be 0 or 1")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @classmethod
    def from_string(cls, text: str) -> "SeedKey":
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"seed key string must be nonempty 0/1 text, got {text!r}")
        return cls(tuple(int(ch) for ch in text))

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    @property
    def is_zero(self) -> bool:
        return not any(self.bits)

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class LfsrSpec:
    """Tap positions of a shift register; highest tap is the register length.

    Text form is "L:tap,tap,..." (e.g. "4:4,1"), with the leading L checked
    against the highest tap.
    """

    taps: tuple[int, ...]

    def __post_init__(self):
        taps = tuple(sorted({require_integer(t, "tap position") for t in self.taps},
                            reverse=True))
        if len(taps) < 2:
            raise ValueError("at least two taps are required")
        if taps[-1] < 1:
            raise ValueError("tap positions start at 1")
        object.__setattr__(self, "taps", taps)

    @property
    def length(self) -> int:
        return self.taps[0]

    @classmethod
    def from_text(cls, text: str) -> "LfsrSpec":
        try:
            head, tail = text.split(":", 1)
            length = int(head)
            taps = tuple(int(t) for t in tail.split(","))
        except ValueError as exc:
            raise ValueError(f"LFSR spec must look like 'L:tap,tap,...', got {text!r}") from exc
        spec = cls(taps)
        if spec.length != length:
            raise ValueError(f"declared length {length} != highest tap {spec.length} in {text!r}")
        return spec

    def to_text(self) -> str:
        return f"{self.length}:{','.join(str(t) for t in self.taps)}"


# Output bits per jump-table block of lfsr_rows, and the bits (1 MiB) of
# the largest table it doubles that block towards.
_BLOCK, _TABLE_BITS = 4096, 1 << 23
# bytes.translate table turning the digits of format(state, "b") into 0/1 bytes.
_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def as_bits(values, what: str) -> np.ndarray:
    """`values` as a uint8 0/1 array; other values raise before the cast can wrap them."""
    arr = np.asarray(values)
    unsigned = arr.view(f"u{arr.itemsize}") if arr.dtype.kind == "i" else arr  # -1 > 1 too
    if arr.size and (unsigned.dtype.kind not in "bu" or unsigned.max() > 1):
        raise ValueError(f"{what} must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def bits_int(bits) -> int:
    """The 0/1 sequence as a Python int, bits[k] at bit k."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _jump(rows: tuple[int, ...], state: int, digits: str) -> int:
    """The XOR of the jump-table rows that the set bits of `state` pick."""
    state_bits = format(state, digits).encode().translate(_BINARY_DIGITS)
    return functools.reduce(xor, itertools.compress(rows, state_bits), 0)


@functools.lru_cache(maxsize=16)
def _jump_rows(taps: tuple[int, ...], block: int) -> tuple[int, ...]:
    """Jump table of the register with `taps` for blocks of `block` output
    bits: one row per state bit. lfsr_rows keeps a table within about 1 MiB
    and a register's tables within 2 MiB, so the cache holds 16 MiB at most.

    Row j holds the first block + L sequence bits (bit k = sequence bit k) of
    the register started from the unit state with only bit L - 1 - j set, i.e.
    rows run from the top state bit down, in the order format(state, "b")
    lists the bits. Row 0 is the impulse response. One step takes unit state
    i to unit state i - 1, plus unit state L - 1 when L - i is a tap, so row j
    shifted down one bit is row j + 1, XOR row 0 when j + 1 is a tap. Rows of
    B + L bits thus take B + 2L - 1 impulse bits, and a table of block B
    extends the impulse response by B bits (from its last L bits as a state),
    so the block doubles from 1 until it reaches `block`.
    """
    length = max(taps)
    digits = f"0{length}b"
    impulse, size = 1 << length - 1, 2 * length
    for k in range(length, size):
        impulse |= (functools.reduce(xor, (impulse >> k - t for t in taps)) & 1) << k
    while True:
        step = min(size - 2 * length + 1, block)
        rows = [impulse]
        for j in range(1, length):
            rows.append(rows[-1] >> 1 ^ (impulse if j in taps else 0))
        mask = (1 << step + length) - 1
        rows = tuple(row & mask for row in rows)
        if step == block:
            return rows
        impulse |= _jump(rows, impulse >> size - length, digits) >> length << size
        size += step


def lfsr_rows(taps: tuple[int, ...], states, count: int) -> np.ndarray:
    """The first `count` output bits of the register with `taps` from each
    state of the sequence `states`, as a (states, count) uint8 array.

    A state is the next L sequence bits a[s..s+L-1], as a 0/1 sequence;
    nothing is validated, and state 0 yields zeros. The recurrence is
    lfsr_stream's. The kernel is block-parallel (the F2-linear jump-ahead of
    Haramoto et al., 2008): the sequence is linear in the state, so the next
    B + L bits from any state are the XOR of the rows of `_jump_rows` that
    its set bits pick. A block yields B output bits, and its last L bits are
    the state B steps on. B doubles from _BLOCK while it is short of `count`
    and the table of L rows of 2B bits stays within _TABLE_BITS, so up to
    2^17 bits at L = 64 take one XOR per state. Rows are Python ints, so any
    L works. Every row's bytes (lfsr_row_bytes) go to one unpack.
    """
    spans = lfsr_row_bytes(taps, states, count)
    if len(states) == 1:  # a flat unpack, a microsecond quicker than one by rows
        return np.unpackbits(spans.reshape(-1), count=count, bitorder="little")[None]
    return np.unpackbits(spans, axis=1, count=count, bitorder="little")


def lfsr_row_bytes(taps: tuple[int, ...], states, count: int) -> np.ndarray:
    """lfsr_rows' bits before the unpack: a read-only (states, bytes) uint8
    array whose row s holds the first `count` output bits from states[s],
    bit k at bit k % 8 of byte k // 8, and then the next output bits up to a
    whole number of jump-table blocks, each a whole number of 64-bit words."""
    length, block = max(taps), _BLOCK
    while block < count and 2 * block * length <= _TABLE_BITS:
        block *= 2
    rows, digits, size = _jump_rows(taps, block), f"0{length}b", (block + length + 7) // 8
    blocks, spans = -(-count // block), []
    for state in states:
        state = bits_int(state)
        for _ in range(blocks):
            span = _jump(rows, state, digits)
            spans.append(span.to_bytes(size, "little")[:block // 8])
            state = span >> block
    return np.frombuffer(b"".join(spans), np.uint8).reshape(len(states), blocks * block // 8)


def lfsr_stream(spec: LfsrSpec, seed: SeedKey, count: int) -> np.ndarray:
    """First `count` output bits of the Fibonacci-configuration LFSR started
    from `seed`.

    The output bit leaves at position 1 and the feedback enters at position L;
    tap t combines the bit sitting t stages before the feedback point, which
    realizes the recurrence

        a[k+L] = XOR over taps t of a[k+L-t],   a[0..L-1] = seed bits,

    i.e. the usual shift-register-table convention where taps name the
    exponents of the connection polynomial 1 + sum_t x^t. The all-zero seed is
    rejected: its cycle is degenerate. A register of length L has at most
    2^L - 1 nonzero states, so the maximal period is 2^L - 1, attained exactly
    when the connection polynomial is primitive.
    """
    if len(seed) != spec.length:
        raise ValueError(f"seed length {len(seed)} != register length {spec.length}")
    if seed.is_zero:
        raise ValueError("all-zero seed is rejected (degenerate cycle)")
    if require_integer(count, "count") < 0:
        raise ValueError("count must be nonnegative")
    return lfsr_rows(spec.taps, [seed.bits], count)[0]


def lfsr_period(spec: LfsrSpec, seed: SeedKey) -> int:
    """Smallest T > 0 with state(T) = state(0).

    The highest tap is L, so a step is invertible and a nonzero state returns
    within 2^L - 1 steps. State(T) is sequence bits T..T+L-1, so T is the first
    place after 0 where the seed reappears in the first 2^L - 1 + L bits. That
    stream takes 2^L bytes, so register lengths above 24 are refused.
    """
    if spec.length > 24:
        raise ValueError("exhaustive period search supports register lengths up to 24")
    bits = lfsr_stream(spec, seed, 2 ** spec.length - 1 + spec.length)
    return bits.tobytes().find(bytes(seed.bits), 1)


@dataclass(frozen=True)
class RunningKey:
    """Sequence of n basis selectors, each an integer in [0, m)."""

    selectors: np.ndarray
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", require_integer(self.m, "basis count"))
        if self.m < 1:
            raise ValueError(f"basis count must be >= 1, got {self.m}")
        raw = np.asarray(self.selectors)
        if raw.ndim != 1:
            raise ValueError("selectors must be one-dimensional")
        # Checked before the int64 cast, which would truncate 1.9 to 1.
        if raw.size and raw.dtype.kind not in "biu":
            raise ValueError(f"selectors must be integers, got {raw.dtype}")
        if raw.size and (raw.min() < 0 or raw.max() >= self.m):
            raise ValueError(f"selectors must lie in [0, {self.m})")
        # Always a copy: the caller's array, or any view of it, may be written
        # later, and a read-only flag can be set back to writeable.
        sel = np.array(raw, dtype=np.int64)
        sel.setflags(write=False)
        object.__setattr__(self, "selectors", sel)

    @classmethod
    def _adopt(cls, selectors: np.ndarray, m: int) -> "RunningKey":
        """Wrap int64 selectors in [0, m) that no other code references.

        expand_running_key builds its selectors fresh and in range, so it hands
        them over here without the second 8n-byte copy.
        """
        selectors.setflags(write=False)
        key = object.__new__(cls)
        object.__setattr__(key, "selectors", selectors)
        object.__setattr__(key, "m", m)
        return key

    def __len__(self) -> int:
        return int(self.selectors.size)


def expand_running_key(bit_source, n: int, alphabet: BasisAlphabet) -> RunningKey:
    """Group the first n*log2(m) bits of a 0/1 sequence (array, list or tuple)
    big-endian into selectors.

    Prefix-stable: extending n extends, never changes, earlier selectors. A
    sequence that runs out raises a keystream-exhausted error, and selectors
    of more than MAX_SELECTOR_BITS bits, which would wrap in int64, raise too.
    """
    if require_integer(n, "selector count") < 0:
        raise ValueError("selector count must be nonnegative")
    k = alphabet.bits_per_selector
    if k > MAX_SELECTOR_BITS:
        raise ValueError(f"selectors of {k} bits exceed the {MAX_SELECTOR_BITS}-bit limit")
    need = n * k
    raw = as_bits(bit_source, "keystream bits")
    if raw.size < need:
        raise ValueError(f"keystream exhausted: needed {need} bits, got {raw.size}")
    columns = raw[:need].reshape(n, k)
    selectors = columns[:, 0].astype(np.int64)
    for column in columns.T[1:]:
        selectors <<= 1
        selectors |= column
    return RunningKey._adopt(selectors, alphabet.m)


def repetition_running_key(key: SeedKey, n: int) -> RunningKey:
    """Stretch an m_k-bit key over n two-basis selectors in contiguous blocks.

    Selector i is key bit (i*m_k) // n: blocks of length n/m_k per key bit when
    m_k divides n, with the trailing block truncated otherwise. The block
    layout is what makes a per-block guessing attack well-defined.
    """
    m_k, n = len(key), require_integer(n, "sequence length")
    if m_k > n:
        raise ValueError(f"key length {m_k} exceeds sequence length {n}")
    idx = (np.arange(n, dtype=np.int64) * m_k) // n
    return RunningKey(np.array(key.bits, dtype=np.int64)[idx], 2)


@dataclass(frozen=True)
class LfsrKeystream:
    """Protocol keystream choice: LFSR expansion of the seed key."""

    spec: LfsrSpec
    seed: SeedKey

    def __post_init__(self):
        lfsr_stream(self.spec, self.seed, 0)  # validates length and nonzero seed

    def running_key(self, n: int, alphabet: BasisAlphabet) -> RunningKey:
        bits = lfsr_stream(self.spec, self.seed, n * alphabet.bits_per_selector)
        return expand_running_key(bits, n, alphabet)

    @property
    def secret_bits(self) -> int:
        return len(self.seed)


@dataclass(frozen=True)
class RepetitionKeystream:
    """Protocol keystream choice: repetition expansion (two-basis alphabet only)."""

    key: SeedKey

    def running_key(self, n: int, alphabet: BasisAlphabet) -> RunningKey:
        if alphabet.m != 2:
            raise ValueError("repetition keys drive the two-basis alphabet only")
        return repetition_running_key(self.key, n)

    @property
    def secret_bits(self) -> int:
        return len(self.key)
