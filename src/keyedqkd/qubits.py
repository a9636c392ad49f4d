"""Real-plane qubit algebra: encoding, uniform draws, projective
measurement, and eavesdropper error-rate functionals.

Every state handled here lies on the real great circle of the Bloch sphere, so a
pure state is a single angle theta with vector (cos theta, sin theta), and an
orthogonal measurement basis is a single angle phi with vectors
(cos phi, sin phi) and (-sin phi, cos phi). `DensityMatrix` is the validated
2x2 container for a mixed state; its entries are complex for generality, but
all in-scope entries are real.

Measurement searches are restricted to orthogonal projective measurements:
for the binary decision problems treated here, general POVMs reduce to
orthogonal ones on a qubit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

# numpy loads inside the functions that build or sample arrays, so the
# scalar functionals (and the `sweep` and `rate-window` commands) never load it.
if TYPE_CHECKING:
    import numpy as np

HALF_PI = math.pi / 2

# Angle / matrix-invariant tolerance; probability assertions elsewhere use 1e-9.
ANGLE_TOL = 1e-12

# Largest uniform draw measure_many keeps: the last double below 1 - ANGLE_TOL.
_DRAW_MAX = math.nextafter(1.0 - ANGLE_TOL, 0.0)

# measure_many's float32 filter: it decides from a float32 sin^2 when every
# float32 theta - phi lies within _F32_ANGLE of 0, and recomputes the draws
# within _F32_BAND of that p1, 100 times the float32 p1's error bound.
_F32_ANGLE = 8.0
_F32_BAND = 1e-4

# Grid values within this distance of the minimum are treated as exact ties,
# so co-minimizers are resolved by angle rather than by float noise.
_TIE_TOL = 1e-12

# Angles in the grid scan of optimal_fixed_basis, and doubles per rng.random
# call of uniform_below: 64 KiB, half of glibc's default mmap threshold.
_GRID_POINTS, _MASK_BUFFER = 4096, 1 << 13


def _wrap(angle: float) -> float:
    """angle reduced to [0, pi/2)."""
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    a = math.fmod(angle, HALF_PI)
    if a < 0.0:
        a += HALF_PI
    if a >= HALF_PI:  # fmod rounding can land exactly on the period
        a = 0.0
    return a


@dataclass(frozen=True)
class MeasBasis:
    """Orthogonal basis {(cos phi, sin phi), (-sin phi, cos phi)}.

    phi is canonical in [0, pi/2); outcome 0 labels the vector at phi. The
    basis at phi + pi/2 is the same vector set with outcome labels swapped and
    normalizes to the same canonical form.
    """

    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", _wrap(require_real(self.phi, "basis angle")))


def require_integer(value, what: str) -> int:
    """`value` as an int; bools, floats and other non-integers raise ValueError
    rather than reaching arithmetic that would truncate them or raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def require_real(value, what: str) -> float:
    """`value` as a float; bools, strings and other non-reals raise ValueError
    rather than TypeError from a range comparison."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class BasisAlphabet:
    """Family of m measurement bases at angles j*(pi/2)/m for j in [0, m).

    m must be a power of two (>= 2) so that running-key selectors consume
    whole keystream bits. m = 2 is the standard four-state alphabet.
    """

    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", require_integer(self.m, "basis count"))
        if self.m < 2 or (self.m & (self.m - 1)) != 0:
            raise ValueError(f"basis count must be a power of two >= 2, got {self.m}")

    def angle(self, j):
        """Basis angle j*(pi/2)/m of a basis index or an integer array of them,
        unchecked: one multiply per element, so a keyed n-qubit run gathers nothing."""
        return j * (HALF_PI / self.m)

    def basis_angle(self, j: int) -> float:
        j = require_integer(j, "basis index")
        if not 0 <= j < self.m:
            raise ValueError(f"basis index {j} out of range [0, {self.m})")
        return self.angle(j)

    @property
    def bits_per_selector(self) -> int:
        return self.m.bit_length() - 1


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 Hermitian, positive-semidefinite, unit-trace matrix.

    Invariants are enforced at construction: Hermitian within 1e-12, trace 1
    within 1e-12, eigenvalues >= -1e-12. The stored array is read-only.
    """

    entries: np.ndarray

    def __post_init__(self):
        import numpy as np

        a = np.array(self.entries, dtype=complex)
        if a.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {a.shape}")
        if not np.allclose(a, a.conj().T, rtol=0.0, atol=ANGLE_TOL):
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(a.trace() - 1.0) > ANGLE_TOL:
            raise ValueError(f"density matrix trace {a.trace()} != 1 within tolerance")
        if float(np.linalg.eigvalsh(a).min()) < -ANGLE_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)


def turn_by_bits(angles, bits):
    """angle + b*pi/2: the state carrying bit b in the basis at that angle."""
    return angles + bits * HALF_PI


def uniform_words(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """The uint64 words, and the state after them, of rng.integers(0, 2**64,
    size=shape, dtype=np.uint64) for a tuple `shape`, by uniform_bits' contract."""
    import numpy as np

    bits = rng.bit_generator
    if type(bits) is np.random.PCG64:
        return bits.random_raw(shape)
    return rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)


def uniform_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform 0/1 bits as uint8, of `shape` n or (rows, n): each row the
    first n bits of its ceil(n/64) whole words, read as little-endian bytes
    and each byte from its low bit up, from one uniform_words draw of every
    row's words in C order, which is what the rows drawn in turn would take.

    The words are those of rng.integers(0, 2**64, dtype=np.uint64), and so
    is the generator state after them, pending 32-bit half included. That
    draw takes one 64-bit output per word, so on exactly PCG64, the
    generator of every caller here, the words are bit_generator.random_raw(k).
    Any other bit generator, a subclass of PCG64 included, draws rng.integers
    itself.
    """
    import numpy as np

    *rows, n = np.atleast_1d(shape).tolist()
    words = uniform_words(rng, (*rows, -(-n // 64)))
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=-1, count=n,
                         bitorder="little")


def uniform_below(p: float, rng: np.random.Generator, shape) -> np.ndarray | None:
    """The mask rng.random(shape) < p of `shape` n or (rows, n), or None at
    p <= 0, where every element is false: nothing is drawn or built, and a
    caller skips the pass that would read the mask. The doubles are drawn
    _MASK_BUFFER at a time into one buffer, across rows, as split calls
    draw the same."""
    import numpy as np

    if p <= 0.0:
        return None
    mask = np.empty(shape, bool)
    flat, u = mask.reshape(-1), np.empty(min(mask.size, _MASK_BUFFER))
    for start in range(0, mask.size, _MASK_BUFFER):
        np.less(rng.random(out=u[:mask.size - start]), p, out=flat[start:start + _MASK_BUFFER])
    return mask


def measure_many(thetas: np.ndarray, phis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Projective measurement: outcome array for state/basis angle arrays.

    This module owns the sampling rule. Outcome 1 has probability
    p1 = sin^2(theta - phi), and p1 within 1e-12 of 0 or 1 is certain, so
    aligned and anti-aligned measurements are exactly deterministic for every
    rng state. One uniform draw per element in C order, regardless of
    degeneracy, so draw alignment is shape-stable. Here the certainty comes
    from clipping each draw u into [1e-12, _DRAW_MAX] and comparing u < p1,
    p1 evaluated in the dtype of theta - phi: no p1 <= 1e-12 exceeds a
    clipped u and every p1 >= 1 - 1e-12 does.

    A float32 filter decides first and u < p1 recomputes what it leaves
    uncertain (Shewchuk's adaptive predicates). When every float32(theta -
    phi) lies in [-8, 8], p32 = sin^2(float32(theta - phi)) in float32:
    rounding the difference errs by at most 2^-21 and the float32 sine and
    square by a few ulp, so p32 lies within 1e-6 of p1 (a test holds the
    host's float32 sine to that). Each outcome is float32(u) < p32 where the
    two differ by more than 1e-4, 100 times the margin the float32 errors
    could move; about 1e-4 n draws are uncertain when every p1 is 0 or 1,
    2e-4 n otherwise. Any other input (out of range, non-finite or empty)
    leaves every position uncertain.

    measure_codes snaps a small p1 table instead (_snap) and draws from it
    by its own rule, one byte per position (measure_coin_words: one bit),
    the same distribution from other draws.
    """
    import numpy as np

    thetas, phis = np.asarray(thetas), np.asarray(phis)
    dtype = np.result_type(thetas, phis, 1.0)
    u = rng.random(np.broadcast_shapes(thetas.shape, phis.shape))
    u.clip(ANGLE_TOL, _DRAW_MAX, out=u)
    outcomes = np.empty(u.shape, bool)
    # Out-of-range differences fail the test below; the exact step warns for them.
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.subtract(thetas, phis, out=np.empty(u.shape, np.float32), dtype=dtype,
                        casting="same_kind")
    if p.size and -_F32_ANGLE <= p.min() and p.max() <= _F32_ANGLE:
        np.subtract(_sin2(p), u, out=p, dtype=np.float32, casting="same_kind")
        np.greater(p, 0.0, out=outcomes)
        near = np.flatnonzero(np.abs(p, out=p) <= _F32_BAND)
    else:
        near = np.arange(u.size)
    d = np.subtract(np.broadcast_to(thetas, u.shape).flat[near],
                    np.broadcast_to(phis, u.shape).flat[near], dtype=dtype)
    outcomes.flat[near] = u.flat[near] < _sin2(d)
    return outcomes.view("u1")[()]  # a 0-d call returns a numpy scalar


class OffsetTable:
    """The p1 of every offset of a measurement on the keyed lattice, for
    measure_codes.

    Every keyed state and basis lies on the lattice of h = pi/(2m): a state
    j + m*b (selector j turned by bit b) turned by a channel flip f and
    measured in basis k sits at the offset o = ((j - k) + m(b + f)) mod 2m
    from it. So p1 depends only on o, plus one constant `shift` for a
    fixed basis off the lattice: entry o is sin^2(o*h + shift). Built once
    per attack and shared read-only by its rounds and threads. When its
    2m entries are no more than `positions`, the most that any call will
    measure, it is built and snapped once (_snap) as `p1`, with `coins`
    true when every entry is 0, 1/2 or 1, the tables that measure_coin_words
    reads. Only a two-basis table (2m = 4) can be one: at m >= 4 adjacent
    entries lie h < pi/4 apart, so they cannot both sit on multiples of
    pi/4. Beside p1 it holds the byte rule's `threshold` t = min(floor(256
    p1), 255) as uint8 and `fraction` f = 256 p1 - t as float64, exact: a
    snapped 0 gives t = 0, f = 0 and a snapped 1 gives t = 255, f = 1, and
    at m = 2 the `terms` of _thresholds (None at m >= 4). A larger table
    is never built: those are None too and `coins` is false.
    """

    __slots__ = ("step", "shift", "p1", "coins", "threshold", "fraction", "terms")

    def __init__(self, m: int, shift: float, positions: int):
        import numpy as np

        self.step, self.shift = HALF_PI / m, shift
        self.p1 = self.threshold = self.fraction = self.terms = None
        self.coins = False
        if 2 * m <= positions:
            self.p1 = _snap(_sin2(np.arange(2 * m) * self.step + shift))
            scaled = self.p1 * 256.0
            self.threshold = np.minimum(scaled, 255.0).astype(np.uint8)
            self.fraction = scaled - self.threshold
            for a in (self.p1, self.threshold, self.fraction):
                a.setflags(write=False)
            self.coins = m == 2 and set(self.p1.tolist()) <= {0.0, 0.5, 1.0}
            if m == 2:
                t0, t1, t2, t3 = self.threshold.tolist()
                self.terms = tuple(c % 256 for c in (t0, t1 - t0, t2 - t0, t3 - t2 - t1 + t0))


def measure_codes(table: OffsetTable, offsets, rng) -> np.ndarray:
    """Outcomes of measurements at lattice offsets `offsets` (a 2-D array
    of any integer dtype, each entry in [0, 2m)) under `table`, every draw
    from `rng`. On the per-position path a block of rows draws what the
    same rows measured one after another would; the byte path draws every
    row's bytes before the block's ties.

    When the table's p1 is built and has no more entries than a row has
    positions, the positions read it: the block draws one byte per
    position, each row's first n bytes of its ceil(n/8) uniform_words read
    little-endian, rows in C order, and the outcome is byte <
    threshold[o]. The ties, byte == threshold[o] (1 in 256), then draw one
    double R each, in C order, in one rng.random call, and their outcome
    is R < fraction[o]. So P(1) = (t + f)/256, p1 to within 2^-61, and
    snapped entries are certain for every byte (Knuth and Yao's lazy
    comparison of uniform bits with p1's binary expansion, cut after 8
    bits). _thresholds forms the t, with no gather at m = 2. A block of
    rows with fewer positions than table entries takes
    measure_many(offsets * table.step, -table.shift, rng) itself, so no
    call builds a table of m entries. Offsets packed 64 to a word under a
    table with `coins` draw one bit per position instead
    (measure_coin_words).

    The table path gives the float path's distribution, not its outcomes
    from the same draws: its draws are bytes, not doubles. Its o*h +
    shift is that path's theta - phi to the bit, and np.sin gives a float
    the same bits wherever it sits in an array (a test checks this). An
    offset angle o*h rounds differently from the j*h + b*pi/2 - k*h of the
    keyed send by an ulp or so, so p1 can differ from that path's by as
    much."""
    import numpy as np

    p1, (rows, positions) = table.p1, offsets.shape
    if p1 is None or p1.size > positions:
        return measure_many(offsets * table.step, -table.shift, rng)
    draws = uniform_words(rng, (rows, -(-positions // 8)))
    draws = draws.astype("<u8", copy=False).view(np.uint8)[:, :positions]
    outcomes = np.empty(offsets.shape, bool)  # _thresholds' work buffer until the compare
    thresholds = _thresholds(table, offsets, outcomes.view(np.uint8))
    np.less(draws, thresholds, out=outcomes)
    ties = np.flatnonzero(draws == thresholds)
    outcomes.flat[ties] = rng.random(ties.size) < table.fraction[offsets.flat[ties]]
    return outcomes.view("u1")


def _thresholds(table: OffsetTable, offsets, bits) -> np.ndarray:
    """table.threshold[o] at every offset o of the 2-D `offsets`, as uint8,
    overwriting `bits`, a uint8 array of their shape. At m = 2 with no
    gather: c0 + c1 lo + c2 hi + c3 (lo & hi), exact in wrapping uint8, for
    lo = o & 1, hi = o >> 1 = (o > 1), lo & hi = (o == 3), each formed in
    `bits`, and `terms` c0 = t0, c1 = t1 - t0, c2 = t2 - t0 and c3 = t3 -
    t2 - t1 + t0, zero terms skipped. At m >= 4 a take a row at a time, so
    its intp copy of the indices never grows past one row; its clip mode
    clips nothing, and it writes straight into the row."""
    import numpy as np

    thresholds = np.empty(offsets.shape, np.uint8)
    if table.terms is None:
        for row, out in zip(offsets, thresholds):
            table.threshold.take(row, out=out, mode="clip")
        return thresholds
    c0, c1, c2, c3 = table.terms
    offsets, flags = offsets.astype(np.uint8, copy=False), bits.view(bool)
    thresholds.fill(c0)
    for c, rule, value, out in ((c1, np.bitwise_and, 1, bits), (c2, np.greater, 1, flags),
                                (c3, np.equal, 3, flags)):
        if c:
            rule(offsets, value, out=out)
            bits *= c
            thresholds += bits
    return thresholds


def measure_coin_words(table: OffsetTable, high, low, rng) -> np.ndarray:
    """The outcomes at the two-basis offsets o = 2 high + low under
    `table`, which has coins (every entry 0, 1/2 or 1), bit-sliced. `high`
    is a (rows, words) uint64 array of the offsets' high bits, 64
    positions to a word (position p at bit p % 64 of word p // 64, as
    uniform_bits reads its words), and `low`, their low bits, broadcasts
    to it. Each position draws one coin bit, whatever entry it reads: the
    bits of uniform_words(rng, high.shape), which are uniform_bits' bits
    of rows of 64 * words - 63 to 64 * words positions. The outcome is the
    bit where the entry is 1/2 and the entry itself where it is 0 or 1.

    As p1[o + 2] = 1 - p1[o] (the state turned by pi/2), one low bit reads
    a coin at both high bits and the other reads 0 and 1: high itself where
    its entry at high 0 is 0, its complement where it is 1. The outcome is
    the word select r0 ^ (low & (r0 ^ r1)) of what low bits 0 and 1 read.
    Bits past a row's positions hold outcomes of nothing, which the caller
    masks; the coin words are overwritten."""
    import numpy as np

    coin = uniform_words(rng, high.shape)
    first, second = (coin if p1 == 0.5 else high if p1 == 0.0 else ~high
                     for p1 in table.p1[:2].tolist())
    outcome = np.bitwise_xor(first, second, out=None if first is coin else coin)
    outcome &= low
    outcome ^= first
    return outcome


def _sin2(d: np.ndarray) -> np.ndarray:
    """sin^2 in place: every p1, per element in measure_many (float32 first,
    then the draws near it) or per table entry."""
    import numpy as np

    np.sin(d, out=d)
    return np.square(d, out=d)


def _snap(p1: np.ndarray) -> np.ndarray:
    """p1 in place with values <= ANGLE_TOL set to 0, values >= 1 - ANGLE_TOL
    set to 1 and values within ANGLE_TOL of 1/2, bounds included, set to
    1/2. Certain at or beyond the tolerances, as measure_many's clip makes
    them for every draw. A fair coin on every route: the two-basis coin
    rule reads it as one bit, and the byte rule's ties follow floor(256 p1),
    which an ulp either side of 1/2 would move, so the p1 an offset table
    and a float-angle sum round to would tie on different bytes."""
    p1[p1 <= ANGLE_TOL] = 0.0
    p1[p1 >= 1.0 - ANGLE_TOL] = 1.0
    p1[(p1 >= 0.5 - ANGLE_TOL) & (p1 <= 0.5 + ANGLE_TOL)] = 0.5
    return p1


def _peak_offsets(phi: float, m: int) -> tuple[float, float]:
    """h = pi/(2m) and the angle's offset f = u - round(u) from its nearest peak, u = phi/h."""
    h = HALF_PI / m
    u = phi / h
    return h, u - round(u)


def _granted_error_profile(alphabet: BasisAlphabet):
    """Key-granted bit-error rate of a fixed-basis observer as a function of the
    basis angle phi, with h and 2m sin h computed once per alphabet:
    1/2 - cos(h(1 - 2|f|)) / (2m sin h), h and f as in _peak_offsets (round, half
    to even, makes it bitwise even in phi). As min(sin^2, cos^2)(x) = (1 - |cos 2x|)/2, this is
    sum_j |sin(y + j*pi/m)| = cos(y - pi/(2m)) / sin(pi/(2m)), y in [0, pi/m], over the
    m angles 2(theta_j - phi) + pi/2: one period pi of |sin|, peaks at k*h as m is even.
    """
    m = alphabet.m
    h = HALF_PI / m
    scale = 2 * m * math.sin(h)

    def profile(phi: float) -> float:
        u = phi / h
        return 0.5 - math.cos(h * (1.0 - 2.0 * abs(u - round(u)))) / scale

    return profile


def eve_error_key_granted(basis: MeasBasis, alphabet: BasisAlphabet) -> float:
    """Average bit error of an observer who measures every qubit in `basis` and
    decodes optimally once the basis selectors are revealed to her.

    Equals (1/m) * sum_j min(sin^2, cos^2)(theta_j - phi): on each basis the
    better of the two outcome-to-bit decodings is available after disclosure.
    """
    return _granted_error_profile(alphabet)(basis.phi)


def _golden_section_min(f, lo: float, hi: float, tol: float) -> float:
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _granted_error_slope(phi: float, alphabet: BasisAlphabet) -> float:
    """Derivative of the key-granted error profile at phi; 0 on a peak."""
    h, f = _peak_offsets(phi, alphabet.m)
    sign = (f > 0.0) - (f < 0.0)  # sign(0) = 0
    return -sign * math.sin(h * (1.0 - 2.0 * abs(f))) / (alphabet.m * math.sin(h))


def _refine_minimum(f, alphabet: BasisAlphabet, lo: float, hi: float) -> float:
    """Locate the minimizer inside one basin to ~1e-12.

    Golden-section search stalls near sqrt(machine eps), so when the bracket
    has the expected falling/rising slopes the zero of the analytic derivative
    is bisected instead.
    """
    if _granted_error_slope(lo, alphabet) < 0.0 < _granted_error_slope(hi, alphabet):
        a, b = lo, hi
        while b - a > 1e-12:
            mid = (a + b) / 2.0
            if _granted_error_slope(mid, alphabet) < 0.0:
                a = mid
            else:
                b = mid
        return (a + b) / 2.0
    return _golden_section_min(f, lo, hi, tol=1e-10)


@lru_cache(maxsize=None)
def optimal_fixed_basis(alphabet: BasisAlphabet) -> tuple[MeasBasis, float]:
    """Fixed measurement basis minimizing the key-granted error, with its error.

    Grid scan of one profile period of the _GRID_POINTS-angle grid over
    [0, pi/2), followed by sub-nanoradian refinement of the best basin.
    Co-minimizers (the error profile has period (pi/2)/m) are tie-broken
    toward the smallest angle, with grid values within 1e-12 of the minimum
    treated as exact ties. The grid step divides the period 4096/m times for
    m <= 4096, and the grid values repeat with it to about 1e-16; for
    m >= 4096 every grid point is a peak and all tie. Either way the smallest
    tied index of the whole grid lies in its first period, the points scanned.
    """
    profile = _granted_error_profile(alphabet)
    step = HALF_PI / _GRID_POINTS
    values = [profile(i * step) for i in range(max(1, _GRID_POINTS // alphabet.m))]
    low = min(values) + _TIE_TOL
    best = next(i for i, value in enumerate(values) if value <= low)
    phi = best * step
    phi_star = _refine_minimum(profile, alphabet, phi - step, phi + step)
    return MeasBasis(phi_star), profile(phi_star)


def keyless_error(alphabet: BasisAlphabet) -> float:
    """Minimum bit error of an observer who never learns the basis selectors.

    Helstrom discrimination of the two equal-weight bit ensembles. Adjacent
    bases take opposite bit orientation, so the 2m encodings tile the state
    circle uniformly. On the Bloch circle (doubled angles) the bit-0 state of
    basis j sits at (-1)^j e^{i j pi/m}, so rho0's Bloch vector is a geometric
    sum of length 1/(m cos(pi/(2m))); rho1 = I - rho0 has the opposite vector,
    and the error is (1 - 1/(m cos(pi/(2m))))/2. That is (2 - sqrt(2))/4, the
    optimal fixed-basis error, at m = 2, and it rises to 1/2 as m grows.
    """
    m = alphabet.m
    return 0.5 * (1.0 - 1.0 / (m * math.cos(math.pi / (2 * m))))
