"""Qubit algebra: encoding, measurement, density-matrix invariants, error functionals,
and the reference mixture and discrimination oracles they are checked against."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from keyedqkd import (
    BasisAlphabet,
    DensityMatrix,
    MeasBasis,
    eve_error_key_granted,
    keyless_error,
    measure_many,
    optimal_fixed_basis,
)
import keyedqkd.qubits
from keyedqkd.qubits import (ANGLE_TOL, HALF_PI, _DRAW_MAX, _F32_BAND, _granted_error_profile,
                             _granted_error_slope, _refine_minimum, _sin2, turn_by_bits)

from reference import (GivenDraws, brute_force_basis_scan, granted_error_profile,
                       granted_error_sum, grid_scan_index, helstrom_error, measure_many_snapped,
                       mixture)

PI = math.pi
BREIDBART_ERROR = (2.0 - math.sqrt(2.0)) / 4.0  # = sin^2(pi/8) ~ 0.146447
M2 = BasisAlphabet(2)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_meas_basis_normalizes_mod_half_pi(phi):
    assert 0.0 <= MeasBasis(phi).phi < PI / 2


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_rejected(angle):
    with pytest.raises(ValueError, match="finite"):
        MeasBasis(angle)


@pytest.mark.parametrize("angle", ["0.3", True])
def test_non_real_angles_rejected(angle):
    with pytest.raises(ValueError, match="must be a real number"):
        MeasBasis(angle)


def test_alphabet_requires_power_of_two():
    for bad in (0, 1, 3, 6, 12):
        with pytest.raises(ValueError):
            BasisAlphabet(bad)
    for m in (2, 4, 8, 1024):
        angles = np.array([BasisAlphabet(m).basis_angle(j) for j in range(m)])
        assert (np.diff(angles) > 0).all()
        assert angles[0] == 0.0 and angles[-1] < PI / 2


@pytest.mark.parametrize("m", [2, 16, 4096])
def test_angle_takes_indices_and_index_arrays(m):
    alphabet = BasisAlphabet(m)
    j = np.arange(m)
    expected = np.array([alphabet.basis_angle(int(i)) for i in j])
    assert np.array_equal(alphabet.angle(j), expected)
    assert np.array_equal(alphabet.angle(j.astype(np.uint16)), expected)
    assert alphabet.angle(m - 1) == expected[-1]
    assert np.array_equal(turn_by_bits(expected[:, None], np.arange(2)),
                          np.stack([expected, expected + PI / 2], axis=1))


class TestEncodeState:
    """Bit b in basis j is sent as the state at basis_angle(j) + b*pi/2."""

    def test_vertical_state(self):
        assert M2.basis_angle(0) == 0.0

    def test_diagonal_state(self):
        assert abs(M2.basis_angle(1) - PI / 4) < 1e-15

    def test_orthogonal_partner_of_diagonal(self):
        partner = M2.basis_angle(1) + PI / 2
        assert abs(partner - 3 * PI / 4) < 1e-15
        outcomes = measure_many(np.full(64, partner), np.full(64, M2.basis_angle(1)),
                                np.random.default_rng(2))
        assert (outcomes == 1).all()

    def test_wraps_mod_pi_for_m4(self):
        # 3*(pi/2)/4 + pi/2 = 7*pi/8: the last basis's bit-1 state stays below pi
        assert abs(turn_by_bits(BasisAlphabet(4).basis_angle(3), 1) - 7 * PI / 8) < 1e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            M2.basis_angle(2)
        with pytest.raises(ValueError):
            M2.basis_angle(-1)

    @pytest.mark.parametrize("j", [1.5, True])
    def test_rejects_a_non_integer_index(self, j):
        with pytest.raises(ValueError, match="must be an integer"):
            BasisAlphabet(4).basis_angle(j)


class PinnedDraws:
    """Stand-in generator whose uniform draws all equal `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


class TestMeasure:
    def test_deterministic_when_aligned(self):
        rng = np.random.default_rng(0)
        assert (measure_many(np.zeros(64), np.zeros(64), rng) == 0).all()
        assert (measure_many(np.full(64, PI / 2), np.zeros(64), rng) == 1).all()
        # Within 1e-12 of certainty the outcome is snapped: even the most
        # extreme uniform draw cannot flip a near-aligned or near-anti-aligned state.
        phis = np.arange(16) * (PI / 32)
        for offset in (-1e-7, 1e-7):
            assert (measure_many(phis + offset, phis, PinnedDraws(0.0)) == 0).all()
            anti = phis + PI / 2 + offset
            assert (measure_many(anti, phis, PinnedDraws(np.nextafter(1.0, 0.0))) == 1).all()

    @pytest.mark.parametrize("shape", [(), (0,), (40,), (8, 5)])
    @pytest.mark.parametrize("m", [2, 16])
    def test_matches_the_snapped_reference(self, shape, m):
        # States near every multiple of pi/(2m), offset onto, just off and
        # across the 1e-12 snapping band (p1 ~ offset^2 near alignment), with
        # pinned draws at both ends of the clip and random draws.
        size = math.prod(shape)
        ks = np.random.default_rng(m + size).integers(0, 4 * m, size=size).reshape(shape)
        phis = np.random.default_rng(size).integers(0, m, size=size).reshape(shape) * (PI / 2 / m)
        draws = [PinnedDraws(v) for v in (0.0, ANGLE_TOL, np.nextafter(1.0 - ANGLE_TOL, 0.0),
                                          np.nextafter(1.0, 0.0))]
        for offset in (0.0, 1e-13, -1e-13, 1e-7, -1e-7, 1e-6, -1e-6):
            thetas = phis + ks * (PI / 2 / m) + offset
            for rng, expected_rng in [(d, d) for d in draws] + [
                    (np.random.default_rng(s), np.random.default_rng(s)) for s in (0, 1)]:
                got = measure_many(thetas, phis, rng)
                expected = measure_many_snapped(thetas, phis, expected_rng)
                assert type(got) is type(expected) and got.dtype == np.uint8
                assert np.shape(got) == shape and np.array_equal(got, expected)

    def test_probability_on_the_tolerance_is_snapped_to_zero(self):
        d = np.array([1.0000000000001666e-06])
        if float(np.sin(d[0]) ** 2) != ANGLE_TOL:
            pytest.skip("this libm's sine does not land on the tolerance here")
        for value in (0.0, ANGLE_TOL):
            assert measure_many(d, np.zeros(1), PinnedDraws(value))[0] == 0
            assert measure_many_snapped(d, np.zeros(1), PinnedDraws(value))[0] == 0

    def test_frequencies_match_probabilities(self):
        # 16-point (theta, phi) grid, 1e5 draws each, 4 standard errors.
        rng = np.random.default_rng(123)
        trials = 10 ** 5
        for theta in np.linspace(0.1, PI - 0.2, 4):
            for phi in np.linspace(0.0, PI / 2 - 0.1, 4):
                p0 = math.cos(theta - phi) ** 2
                ones = measure_many(np.full(trials, theta), np.full(trials, phi), rng)
                zeros = trials - int(ones.sum())
                sigma = math.sqrt(max(p0 * (1 - p0), 1e-12) / trials)
                assert abs(zeros / trials - p0) < 4 * sigma + 1e-9

    def test_seeded_reproducibility(self):
        thetas = np.random.default_rng(8).uniform(0, PI, 500)
        a = measure_many(thetas, np.full(500, 0.2), np.random.default_rng(9))
        b = measure_many(thetas, np.full(500, 0.2), np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_eighth_turn_frequency_at_one_million_draws(self):
        rng = np.random.default_rng(77)
        n = 10 ** 6
        ones = int(measure_many(np.full(n, PI / 8), np.zeros(n), rng).sum())
        p0 = math.cos(PI / 8) ** 2
        sigma = math.sqrt(p0 * (1 - p0) / n)
        assert abs((n - ones) / n - p0) < 4 * sigma


EIGHT_UP = math.nextafter(8.0, 9.0)

# Differences theta - phi the float32 stage decides: near every multiple of
# pi/32 up to pi, on and just off alignment; generic angles; both ends of
# [-8, 8] and the next double above 8, which rounds to 8 in float32.
FILTERED = np.concatenate(
    [np.arange(33) * (PI / 32) + offset for offset in (0.0, 1e-13, -1e-7, 1e-6)]
    + [np.random.default_rng(22).uniform(-8.0, 8.0, 40), [8.0, -8.0, EIGHT_UP, -EIGHT_UP]])
# One of these sends every position of the call to the exact step: the next
# float32 above 8, a larger difference, NaN and +-inf, and for float64 one
# that overflows float32.
UNFILTERED = [float(np.nextafter(np.float32(8.0), np.float32(9.0))), -100.0,
              math.nan, math.inf, -math.inf]
DIFFERENCES = [(np.float32, FILTERED, UNFILTERED), (np.float64, FILTERED, UNFILTERED + [1e39]),
               (np.int64, np.arange(-8, 9), [9, -100])]


def _edge_draws(thetas, phis):
    """Draw columns for each element: its p1 in the angles' own dtype and one
    ulp either side, float32 p1 -+ 1e-4 and 1e-7 inside and outside each band
    edge, and both ends of the clip."""
    d = np.subtract(thetas, phis, dtype=np.result_type(thetas, phis, 1.0))
    with np.errstate(invalid="ignore", over="ignore"):
        p1 = (np.sin(d) ** 2).astype(float)
        p32 = (np.sin(d.astype(np.float32)) ** 2).astype(float)
    p1, p32 = np.nan_to_num(p1, nan=0.5), np.nan_to_num(p32, nan=0.5)
    columns = [p1, np.nextafter(p1, -1.0), np.nextafter(p1, 2.0)]
    for edge in (-_F32_BAND, _F32_BAND):
        columns += [p32 + edge + step for step in (-1e-7, 0.0, 1e-7)]
    columns += [np.full(d.shape, v) for v in (0.0, ANGLE_TOL, _DRAW_MAX, math.nextafter(1.0, 0.0))]
    return [np.clip(c, 0.0, math.nextafter(1.0, 0.0)) for c in columns]


def _chunks(values, shape):
    """values as arrays of `shape`, the last one wrapped around; a 0-d shape
    takes every ninth value, and a 0-size one gives one empty array."""
    size = math.prod(shape)
    if not shape:
        return [np.array(v) for v in values[::9]]
    return [np.resize(values[i:], size).reshape(shape)
            for i in range(0, values.size if size else 1, max(size, 1))]


def _filter_cases():
    """(thetas, phis, whether the float32 stage runs) over dtypes and shapes:
    each chunk of differences, then the chunk with one outlier."""
    bases = np.arange(40) % 4 * (PI / 4)
    for dtype, kept, outliers in DIFFERENCES:
        for shape in [(), (0,), (40,), (8, 5)]:
            for chunk in _chunks(kept, shape):
                cases = [(chunk, chunk.size > 0)]
                for outlier in outliers if chunk.size else []:
                    mixed = chunk.copy()
                    mixed.flat[0] = outlier
                    cases.append((mixed, False))
                for diffs, filtered in cases:
                    # A scalar basis keeps each difference exact; an array of
                    # them exercises the gathered subtraction.
                    yield diffs.astype(dtype), dtype(0), filtered
                    if dtype is not np.int64:
                        phis = bases[:diffs.size].reshape(shape)
                        yield (diffs + phis).astype(dtype), phis.astype(dtype), filtered


class TestFloat32Filter:
    """measure_many's float32 stage against the float64 snapped reference, on
    draws placed on and around each p1 and the stage's band edges."""

    def test_matches_the_snapped_reference(self, monkeypatch):
        stages = []

        def recording_sin2(d):
            stages.append(d.dtype)
            return _sin2(d)

        monkeypatch.setattr(keyedqkd.qubits, "_sin2", recording_sin2)
        cases = 0
        for thetas, phis, filtered in _filter_cases():
            dtype = np.result_type(thetas, phis, 1.0)
            for draws in _edge_draws(thetas, phis):
                rng, ref_rng = GivenDraws(draws, 3), GivenDraws(draws, 3)
                stages.clear()
                with np.errstate(invalid="ignore"):
                    got = measure_many(thetas, phis, rng)
                    expected = measure_many_snapped(thetas, phis, ref_rng)
                assert type(got) is type(expected) and got.dtype == np.uint8
                assert np.shape(got) == np.shape(thetas)
                assert np.array_equal(got, expected), (thetas, phis, draws)
                assert rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state
                # The float32 stage's p1 comes first, then the near draws'.
                assert stages[0] == (np.float32 if filtered else dtype)
                assert filtered or stages == [dtype]
                cases += 1
        assert cases > 3000

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_draws_leave_the_generator_where_the_reference_does(self, dtype):
        thetas = np.random.default_rng(5).uniform(-8.0, 8.0, (64, 33)).astype(dtype)
        phis = (np.arange(33) * (PI / 32)).astype(dtype)
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(measure_many(thetas, phis, rng),
                                  measure_many_snapped(thetas, phis, ref_rng))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_out_of_range_angles_warn_as_before(self):
        # 1e39 overflows float32 but not sin; only the non-finite sine warns.
        rng = np.random.default_rng(0)
        assert measure_many(np.array([1e39, 0.0]), 0.0, rng).tolist() == \
            measure_many_snapped(np.array([1e39, 0.0]), 0.0, np.random.default_rng(0)).tolist()
        with pytest.warns(RuntimeWarning, match="invalid value encountered in sin"):
            measure_many(np.array([math.inf, 0.0]), 0.0, rng)

    def test_float32_sine_errs_by_at_most_a_hundredth_of_the_band(self):
        # The float32 stage's p1 against float64 sin^2: a million generic
        # differences in [-8, 8], and nine points within 1e-6 of every
        # k pi/(2m) there for m <= 4096 (all multiples of pi/8192). A host
        # whose float32 sine errs more fails here rather than moving outcomes.
        peaks = np.arange(-20860, 20861) * (HALF_PI / 4096)
        d = np.concatenate([np.random.default_rng(2022).uniform(-8.0, 8.0, 10 ** 6),
                            np.add.outer(peaks, np.linspace(-1e-6, 1e-6, 9)).ravel(),
                            [-8.0, 8.0]])
        assert np.abs(d).max() <= 8.0
        p32 = _sin2(d.astype(np.float32))
        assert np.abs(p32 - _sin2(d)).max() <= _F32_BAND / 100


class TestDensityOfMixture:
    """The reference mixture on ensembles whose density matrices are known."""

    def test_pure_state(self):
        assert np.allclose(mixture([1.0], [0.0]), [[1, 0], [0, 0]], atol=1e-15)

    def test_orthogonal_equal_mixture(self):
        assert np.allclose(mixture([0.5, 0.5], [0.0, PI / 2]), np.eye(2) / 2, atol=1e-15)

    def test_four_state_mixture_is_maximally_mixed(self):
        rho = mixture([0.25] * 4, [0, PI / 4, PI / 2, 3 * PI / 4])
        assert np.abs(rho - np.eye(2) / 2).max() < 1e-12

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 64])
    def test_uniform_mixture_over_all_encodings_is_identity_over_two(self, m):
        angles = BasisAlphabet(m).angle(np.arange(m))
        rho = mixture(np.full(2 * m, 0.5 / m), np.concatenate([angles, angles + PI / 2]))
        assert np.abs(rho - np.eye(2) / 2).max() < 1e-12


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.6, 0.0], [0.0, 0.6]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]))

    def test_entries_read_only(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.9


class TestHelstromError:
    """The reference minimum-error oracle on pairs whose error is known."""

    def test_indistinguishable(self):
        rho = np.eye(2) / 2
        assert helstrom_error(rho, rho, 0.5) == 0.5

    def test_orthogonal_pure_states(self):
        assert abs(helstrom_error(mixture([1.0], [0.0]), mixture([1.0], [PI / 2]), 0.5)) < 1e-15

    def test_conjugate_pair_mixtures(self):
        # Equal mixtures of {0, pi/4} vs {pi/2, 3pi/4}: the 2x2 difference has
        # eigenvalues +-sqrt(1/8), so the error is 1/2 - sqrt(1/8) = (2-sqrt(2))/4.
        rho0 = mixture([0.5, 0.5], [0.0, PI / 4])
        rho1 = mixture([0.5, 0.5], [PI / 2, 3 * PI / 4])
        assert abs(helstrom_error(rho0, rho1, 0.5) - BREIDBART_ERROR) < 1e-12

    def test_symmetry_and_prior_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(32):
            thetas = rng.uniform(0, PI, size=4)
            w = rng.dirichlet(np.ones(2))
            rho0, rho1 = mixture(w, thetas[:2]), mixture(w, thetas[2:])
            p0 = rng.uniform(0, 1)
            e = helstrom_error(rho0, rho1, p0)
            assert abs(e - helstrom_error(rho1, rho0, 1.0 - p0)) < 1e-12
            assert -1e-12 <= e <= min(p0, 1.0 - p0) + 1e-12

    def test_rejects_bad_prior(self):
        rho = np.eye(2) / 2
        with pytest.raises(ValueError):
            helstrom_error(rho, rho, 1.5)


class TestEveErrorKeyGranted:
    def test_first_basis_aligned(self):
        # Right basis errs 0, conjugate basis errs 1/2: average 1/4.
        assert abs(eve_error_key_granted(MeasBasis(0), M2) - 0.25) < 1e-12

    def test_bisecting_basis(self):
        assert abs(eve_error_key_granted(MeasBasis(PI / 8), M2) - BREIDBART_ERROR) < 1e-12

    def test_rotated_cominimizer(self):
        assert abs(eve_error_key_granted(MeasBasis(PI / 8 + PI / 4), M2) - BREIDBART_ERROR) < 1e-12

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_periodic_in_basis_count_period(self, m):
        alphabet = BasisAlphabet(m)
        period = (PI / 2) / m
        for phi in np.linspace(0.01, PI / 2 - period - 0.01, 7):
            a = eve_error_key_granted(MeasBasis(phi), alphabet)
            b = eve_error_key_granted(MeasBasis(phi + period), alphabet)
            assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("m", [2 ** k for k in range(1, 13)])
    def test_closed_form_matches_the_m_point_sum(self, m):
        alphabet, h = BasisAlphabet(m), (PI / 2) / m
        k = np.arange(-6, 7)
        phis = np.concatenate([np.random.default_rng(m).uniform(-4, 4, 64), k * h, (k + 0.5) * h])
        got = [eve_error_key_granted(MeasBasis(phi), alphabet) for phi in phis]
        assert np.abs(np.array(got) - granted_error_sum(phis, m)).max() <= 1e-15
        profile = _granted_error_profile(alphabet)
        assert [profile(float(-phi)) for phi in phis] == [profile(float(phi)) for phi in phis]

    @pytest.mark.parametrize("m", [2, 16, 1024])
    def test_scalar_profile_equals_the_array_profile(self, m):
        phis = np.random.default_rng(m).uniform(0.0, PI / 2, 256)
        got = [eve_error_key_granted(MeasBasis(phi), BasisAlphabet(m)) for phi in phis]
        assert got == granted_error_profile(phis, m).tolist()

    @pytest.mark.parametrize("m", [2 ** k for k in range(1, 13)])
    def test_slope_matches_a_central_difference_of_the_sum(self, m):
        alphabet, h = BasisAlphabet(m), (PI / 2) / m
        rng = np.random.default_rng(m)
        # Offsets of 0.05...0.5 periods on either side of a peak, where the sum is smooth.
        offsets = rng.choice([-1.0, 1.0], 32) * rng.uniform(0.05, 0.5, 32)
        phis = (rng.integers(-20, 20, 32) + offsets) * h
        eps = 1e-4 * h
        central = (granted_error_sum(phis + eps, m) - granted_error_sum(phis - eps, m)) / (2 * eps)
        slopes = [_granted_error_slope(float(phi), alphabet) for phi in phis]
        assert np.abs(np.array(slopes) - central).max() < 1e-6
        assert _granted_error_slope(0.0, alphabet) == 0.0

    def test_invariant_under_half_pi_shift(self):
        for phi in (0.1, 0.3, 0.7):
            a = eve_error_key_granted(MeasBasis(phi), M2)
            b = eve_error_key_granted(MeasBasis(phi + PI / 2), M2)
            assert abs(a - b) < 1e-15

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 128])
    def test_minimum_at_most_quarter(self, m):
        _, err = optimal_fixed_basis(BasisAlphabet(m))
        assert err <= 0.25 + 1e-12


class TestOptimalFixedBasis:
    def test_two_bases_breidbart(self):
        basis, err = optimal_fixed_basis(M2)
        assert abs(err - BREIDBART_ERROR) < 1e-9
        assert abs(basis.phi - PI / 8) < 1e-9

    def test_tie_broken_to_smallest_angle(self):
        basis, _ = optimal_fixed_basis(M2)
        assert basis.phi < PI / 4  # pi/8 rather than the pi/4-rotated co-minimizer

    def test_four_bases_against_brute_force(self):
        # Independent oracle: 1e6-point scan; centered closed form must match
        # if it is truly the minimizer.
        _, err = optimal_fixed_basis(BasisAlphabet(4))
        closed_form = (2.0 - math.cos(PI / 8) - math.cos(3 * PI / 8)) / 4.0
        _, scan_err = brute_force_basis_scan(4, 10 ** 6)
        assert abs(err - closed_form) < 1e-12
        assert err <= scan_err + 1e-12
        assert scan_err - err < 1e-9

    def test_large_m_approaches_integral_limit(self):
        # The dense-basis limit is the average of min(sin^2, cos^2) over one
        # basis period; quadrature confirms the closed form 1/2 - 1/pi.
        from scipy.integrate import quad
        integral, _ = quad(lambda d: min(math.sin(d) ** 2, math.cos(d) ** 2), 0, PI / 2)
        limit = integral / (PI / 2)
        assert abs(limit - (0.5 - 1.0 / PI)) < 1e-9
        _, err = optimal_fixed_basis(BasisAlphabet(2 ** 12))
        assert abs(err - limit) < 2e-3

    @pytest.mark.parametrize("m", [2 ** k for k in range(1, 21)])
    def test_one_period_scan_matches_the_whole_grid_scan(self, m):
        # The numpy scan of all 4096 grid points, refined as the library refines,
        # gives the same angle and error bit for bit.
        alphabet, step = BasisAlphabet(m), (PI / 2) / 4096
        phi = grid_scan_index(m) * step

        def profile(x):
            return float(granted_error_profile(x, m))

        phi_star = _refine_minimum(profile, alphabet, phi - step, phi + step)
        basis, err = optimal_fixed_basis(alphabet)
        assert (basis.phi, err) == (MeasBasis(phi_star).phi, profile(phi_star))

    def test_error_nondecreasing_in_m(self):
        errors = [optimal_fixed_basis(BasisAlphabet(2 ** k))[1] for k in range(1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(errors, errors[1:]))


class TestKeylessError:
    def test_two_bases_matches_fixed_basis_optimum(self):
        assert abs(keyless_error(M2) - BREIDBART_ERROR) < 1e-9
        assert abs(keyless_error(M2) - optimal_fixed_basis(M2)[1]) < 1e-9

    @pytest.mark.parametrize("m", [2, 4, 8, 64, 1024])
    def test_against_direct_construction(self, m):
        # The alternating-orientation ensembles: bit 0 of basis j at its angle
        # turned by (j % 2) * pi/2, bit 1 a quarter turn further.
        angles = np.array([j * (PI / 2) / m + (j % 2) * (PI / 2) for j in range(m)])
        weights = np.full(m, 1.0 / m)
        expected = helstrom_error(mixture(weights, angles), mixture(weights, angles + PI / 2), 0.5)
        assert abs(keyless_error(BasisAlphabet(m)) - expected) < 1e-12

    @pytest.mark.parametrize("m", [2, 4, 16, 256, 2 ** 16])
    def test_bounded_by_half(self, m):
        assert 0.0 <= keyless_error(BasisAlphabet(m)) <= 0.5

    def test_limit_approaches_half(self):
        assert keyless_error(BasisAlphabet(2 ** 16)) >= 0.499
