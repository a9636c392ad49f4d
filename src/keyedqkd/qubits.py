"""Real-plane qubit algebra: encoding, projective measurement, density matrices,
minimum-error discrimination, and eavesdropper error-rate functionals.

Every state handled here lies on the real great circle of the Bloch sphere, so a
pure state is a single angle theta with vector (cos theta, sin theta), and an
orthogonal measurement basis is a single angle phi with vectors
(cos phi, sin phi) and (-sin phi, cos phi). Density matrices keep a complex 2x2
container for generality, but all in-scope entries are real.

Measurement searches are restricted to orthogonal projective measurements:
for the binary decision problems treated here, general POVMs reduce to
orthogonal ones on a qubit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

HALF_PI = math.pi / 2

# Angle / matrix-invariant tolerance; probability assertions elsewhere use 1e-9.
ANGLE_TOL = 1e-12

# Largest uniform draw measure_many keeps: the last double below 1 - ANGLE_TOL.
_DRAW_MAX = float(np.nextafter(1.0 - ANGLE_TOL, 0.0))

# Grid values within this distance of the minimum are treated as exact ties,
# so co-minimizers are resolved by angle rather than by float noise.
_TIE_TOL = 1e-12

# Angles in the grid scan of optimal_fixed_basis.
_GRID_POINTS = 4096


def _wrap(angle: float, period: float) -> float:
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    a = math.fmod(angle, period)
    if a < 0.0:
        a += period
    if a >= period:  # fmod rounding can land exactly on the period
        a = 0.0
    return a


@dataclass(frozen=True)
class StateAngle:
    """Pure qubit state (cos theta, sin theta); theta normalized to [0, pi).

    A vector and its negation are the same state, hence the modulo-pi range.
    """

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _wrap(float(self.theta), math.pi))

    def vector(self) -> np.ndarray:
        return np.array([math.cos(self.theta), math.sin(self.theta)])


@dataclass(frozen=True)
class MeasBasis:
    """Orthogonal basis {(cos phi, sin phi), (-sin phi, cos phi)}.

    phi is canonical in [0, pi/2); outcome 0 labels the vector at phi. The
    basis at phi + pi/2 is the same vector set with outcome labels swapped and
    normalizes to the same canonical form.
    """

    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", _wrap(float(self.phi), HALF_PI))


def require_integer(value, what: str) -> int:
    """`value` as an int; bools, floats and other non-integers raise ValueError
    rather than reaching arithmetic that would truncate them or raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


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

    @classmethod
    def pure(cls, state: StateAngle) -> "DensityMatrix":
        v = state.vector().astype(complex)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls) -> "DensityMatrix":
        return cls(np.eye(2, dtype=complex) / 2.0)


def turn_by_bits(angles, bits):
    """angle + b*pi/2: the state carrying bit b in the basis at that angle."""
    return angles + bits * HALF_PI


def measure_many(thetas: np.ndarray, phis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Projective measurement: outcome array for state/basis angle arrays.

    Outcome 1 has probability sin^2(theta - phi). Probabilities within 1e-12
    of 0 or 1 are snapped to certainty, so aligned and anti-aligned
    measurements are exactly deterministic for every rng state. The snap is
    done on the draw instead of the probability: clipping u into
    [1e-12, nextafter(1 - 1e-12, 0)] gives the same `u < p1` for every p1,
    since no p1 <= 1e-12 exceeds the clipped u and every p1 >= 1 - 1e-12
    does. One uniform draw per element regardless of degeneracy, so draw
    alignment is shape-stable.
    """
    thetas, phis = np.asarray(thetas), np.asarray(phis)
    # A 0-d subtraction returns a numpy scalar, which `out=` rejects.
    d = np.asarray(np.subtract(thetas, phis, dtype=np.result_type(thetas, phis, 1.0)))
    return _sample_outcomes(_sin2(d), rng)


def _sin2(d: np.ndarray) -> np.ndarray:
    """sin^2 in place: every p1, per element in measure_many or per table entry."""
    np.sin(d, out=d)
    return np.square(d, out=d)


def _sample_outcomes(p1: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Outcome 1 with probability p1, one uniform draw per element in C order;
    the clipped draw that measure_many's docstring describes."""
    u = rng.random(p1.shape)
    np.clip(u, ANGLE_TOL, _DRAW_MAX, out=u)
    return (u < p1).view(np.uint8)


def _mixture_entries(weights: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    c, s = np.cos(thetas), np.sin(thetas)
    off = float(np.sum(weights * c * s))
    return np.array(
        [
            [float(np.sum(weights * c * c)), off],
            [off, float(np.sum(weights * s * s))],
        ],
        dtype=complex,
    )


def density_of_mixture(components: Iterable[tuple[float, StateAngle]]) -> DensityMatrix:
    """Density matrix of a weighted mixture of pure states.

    Weights must be nonnegative and sum to 1 within 1e-12.
    """
    comp = list(components)
    if not comp:
        raise ValueError("mixture needs at least one component")
    weights = np.array([w for w, _ in comp], dtype=float)
    if (weights < 0.0).any():
        raise ValueError("mixture weights must be nonnegative")
    if abs(weights.sum() - 1.0) > ANGLE_TOL:
        raise ValueError(f"mixture weights sum to {weights.sum()}, not 1")
    thetas = np.array([st.theta for _, st in comp])
    return DensityMatrix(_mixture_entries(weights, thetas))


def helstrom_error(rho0: DensityMatrix, rho1: DensityMatrix, p0: float) -> float:
    """Minimum error probability for discriminating rho0 (prior p0) from rho1.

    Standard minimum-error bound: (1 - ||p1*rho1 - p0*rho0||_1) / 2 with the
    trace norm evaluated by eigendecomposition of the Hermitian difference.
    """
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"prior must lie in [0, 1], got {p0}")
    diff = (1.0 - p0) * rho1.entries - p0 * rho0.entries
    trace_norm = float(np.abs(np.linalg.eigvalsh(diff)).sum())
    return max(0.0, 0.5 * (1.0 - trace_norm))


def _peak_offsets(phis, m: int):
    """h = pi/(2m) and each angle's offset f = u - rint(u) from its nearest peak, u = phi/h."""
    h = HALF_PI / m
    u = np.asarray(phis, dtype=float) / h
    return h, u - np.rint(u)


def _granted_error_profile(phis, alphabet: BasisAlphabet):
    """Key-granted bit-error rate of a fixed-basis observer at basis angle(s) phis:
    1/2 - cos(h(1 - 2|f|)) / (2m sin h), h and f from _peak_offsets (rint makes it
    bitwise even in phi). As min(sin^2, cos^2)(x) = (1 - |cos 2x|)/2, this is
    sum_j |sin(y + j*pi/m)| = cos(y - pi/(2m)) / sin(pi/(2m)), y in [0, pi/m], over the
    m angles 2(theta_j - phi) + pi/2: one period pi of |sin|, peaks at k*h as m is even.
    """
    h, f = _peak_offsets(phis, alphabet.m)
    return 0.5 - np.cos(h * (1.0 - 2.0 * np.abs(f))) / (2 * alphabet.m * math.sin(h))


def eve_error_key_granted(basis: MeasBasis, alphabet: BasisAlphabet) -> float:
    """Average bit error of an observer who measures every qubit in `basis` and
    decodes optimally once the basis selectors are revealed to her.

    Equals (1/m) * sum_j min(sin^2, cos^2)(theta_j - phi): on each basis the
    better of the two outcome-to-bit decodings is available after disclosure.
    """
    return float(_granted_error_profile(basis.phi, alphabet))


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
    return float(-np.sign(f) * np.sin(h * (1.0 - 2.0 * np.abs(f))) / (alphabet.m * math.sin(h)))


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

    Grid scan of _GRID_POINTS angles over [0, pi/2) followed by
    sub-nanoradian refinement of the best basin. Co-minimizers (the error
    profile has period (pi/2)/m) are tie-broken toward the smallest angle,
    with grid values within 1e-12 of the minimum treated as exact ties.
    """
    step = HALF_PI / _GRID_POINTS
    grid = np.arange(_GRID_POINTS) * step
    values = _granted_error_profile(grid, alphabet)
    tied = np.nonzero(values <= values.min() + _TIE_TOL)[0]
    best = int(tied.min())

    def f(phi: float) -> float:
        return float(_granted_error_profile(phi, alphabet))

    phi_star = _refine_minimum(f, alphabet, grid[best] - step, grid[best] + step)
    return MeasBasis(phi_star), f(phi_star)


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
