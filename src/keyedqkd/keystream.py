"""Seed-keyed deterministic expansion of a short secret key into a running key
of per-qubit basis selectors.

Two expanders are built in: a Fibonacci-configuration LFSR over the seed key
(`lfsr_stream`, one block-parallel kernel `lfsr_bits`) and the repetition
expander that stretches an m_k-bit key over n qubits in contiguous blocks.
`expand_running_key` groups a 0/1 bit array into selectors. `uniform_bits`
and `uniform_below` are the uniform draws of a run, read from raw generator
words or skipped where the bit generator's layout allows it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import xor

import numpy as np

from .qubits import BasisAlphabet


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
        taps = tuple(sorted({int(t) for t in self.taps}, reverse=True))
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


# Output bits per jump-table block of lfsr_bits.
_BLOCK = 4096
_BLOCK_MASK = (1 << _BLOCK) - 1
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


def _half_buffered(bitgen) -> bool:
    """Whether the bit generator's 32-bit draws take the low, then the buffered
    high half of each 64-bit output, and its advance(k) skips k outputs.
    np.random is looked up at call time: importing it with this module would
    add about 6 MB of RSS to processes that draw nothing, such as a sweep."""
    return type(bitgen) in (np.random.PCG64, np.random.PCG64DXSM)


def uniform_words(rng: np.random.Generator, count: int):
    """The generator's next `count` 32-bit draws, leaving the state they
    leave, as (head, words): a list of the first 0 or 1 draws and a uint32
    array of the rest, so no array is copied to join them.

    On a half-buffered bit generator the head is a pending high half and the
    words are read from random_raw: the low, then the high half of each raw
    output; after an odd count the last high half is left pending, and
    `uinteger` keeps the last high half drawn, as the 32-bit draw does. Other
    bit generators take rng.integers over the whole uint32 range, one 32-bit
    draw a value.
    """
    bitgen = rng.bit_generator
    if not count or not _half_buffered(bitgen):
        return [], rng.integers(0, 1 << 32, size=count, dtype=np.uint32)
    state = bitgen.state
    head = [state["uinteger"]] if state["has_uint32"] else []
    fresh = count - len(head)
    words = bitgen.random_raw(-(-fresh // 2)).astype("<u8", copy=False).view("<u4")
    if fresh:
        state = bitgen.state
        state["uinteger"] = int(words[-1])
    state["has_uint32"] = fresh & 1
    bitgen.state = state
    return head, words[:fresh]


def uniform_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """rng.integers(0, 2, size=n, dtype=np.int64).astype(np.uint8), equal in
    its bits and in the generator state it leaves.

    Each bit of that call is Lemire's bounded draw with range 2 (2019), i.e.
    the top bit of one 32-bit draw, so the bits are uniform_words' top bits.
    """
    head, words = uniform_words(rng, n)
    bits = np.empty(n, dtype=np.uint8)
    bits[:len(head)] = [word >> 31 for word in head]
    np.right_shift(words, 31, out=bits[len(head):], casting="unsafe")
    return bits


def uniform_below(p: float, shape, rng: np.random.Generator) -> np.ndarray:
    """rng.random(shape) < p, leaving the same generator state.

    No uniform is below 0, so at p = 0 a half-buffered bit generator skips
    the draws with advance (O'Neill, PCG, 2014; one raw output per double)
    and gets back the pending half that advance clears. Other bit generators
    draw: Philox's advance does not count raw outputs.
    """
    bitgen = rng.bit_generator
    if p or not _half_buffered(bitgen):
        return rng.random(shape) < p
    buffered = bitgen.state
    bitgen.advance(math.prod(shape))
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = buffered["has_uint32"], buffered["uinteger"]
    bitgen.state = state
    return np.zeros(shape, dtype=bool)


def _jump(rows: tuple[int, ...], state: int, digits: str) -> int:
    """The XOR of the jump-table rows that the set bits of `state` pick."""
    state_bits = format(state, digits).encode().translate(_BINARY_DIGITS)
    return functools.reduce(xor, itertools.compress(rows, state_bits), 0)


@functools.lru_cache(maxsize=64)
def _jump_rows(taps: tuple[int, ...]) -> tuple[int, ...]:
    """Jump table of the register with `taps`: one row per state bit.

    Row j holds the first _BLOCK + L sequence bits (bit k = sequence bit k) of
    the register started from the unit state with only bit L - 1 - j set, i.e.
    rows run from the top state bit down, in the order format(state, "b")
    lists the bits. Row 0 is the impulse response. One step takes unit state
    i to unit state i - 1, plus unit state L - 1 when L - i is a tap, so row j
    shifted down one bit is row j + 1, XOR row 0 when j + 1 is a tap. Rows of
    B + L bits thus take B + 2L - 1 impulse bits, and a table of block B
    extends the impulse response by B bits (from its last L bits as a state),
    so the block doubles from 1 until it reaches _BLOCK.
    """
    length = max(taps)
    digits = f"0{length}b"
    impulse, size = 1 << length - 1, 2 * length
    for k in range(length, size):
        impulse |= (functools.reduce(xor, (impulse >> k - t for t in taps)) & 1) << k
    while True:
        block = min(size - 2 * length + 1, _BLOCK)
        rows = [impulse]
        for j in range(1, length):
            rows.append(rows[-1] >> 1 ^ (impulse if j in taps else 0))
        mask = (1 << block + length) - 1
        rows = tuple(row & mask for row in rows)
        if block == _BLOCK:
            return rows
        impulse |= _jump(rows, impulse >> size - length, digits) >> length << size
        size += block


def lfsr_bits(taps: tuple[int, ...], state, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Next `count` output bits of the register with `taps` from `state`, and
    the state after them.

    A state is the next L sequence bits a[s..s+L-1], as a 0/1 sequence;
    nothing is validated, and state 0 yields zeros. The recurrence is
    lfsr_stream's. The kernel is block-parallel (the F2-linear jump-ahead of
    Haramoto et al., 2008): the sequence is linear in the state, so the next
    B + L bits from any state, B = _BLOCK = 4096, are the XOR of the rows of
    `_jump_rows` picked by its set bits. A block yields B output bits, and its
    last L bits are the state B steps on. Rows are Python ints, so any L works,
    and the table of each tap tuple is built once per process. Blocks run
    until count + L sequence bits are out; the first count are returned and
    the last L are the new state.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    rows = _jump_rows(taps)
    length = len(rows)
    state = bits_int(state)
    digits = f"0{length}b"
    blocks = []
    for _ in range(-(-(count + length) // _BLOCK)):
        span = _jump(rows, state, digits)
        blocks.append((span & _BLOCK_MASK).to_bytes(_BLOCK // 8, "little"))
        state = span >> _BLOCK
    bits = np.unpackbits(np.frombuffer(b"".join(blocks), dtype=np.uint8),
                         count=count + length, bitorder="little")
    return bits[:count], bits[count:]


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
    return lfsr_bits(spec.taps, seed.bits, count)[0]


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
        them over here without the second 8n-byte copy; copying them cost
        keygen-small about 4 % of its rate.
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
    sequence that runs out raises a keystream-exhausted error.
    """
    if n < 0:
        raise ValueError("selector count must be nonnegative")
    k = alphabet.bits_per_selector
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
    m_k = len(key)
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
