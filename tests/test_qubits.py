"""Qubit algebra: encoding, measurement, density matrices, discrimination."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from keyedqkd import (
    BasisAlphabet,
    DensityMatrix,
    MeasBasis,
    StateAngle,
    density_of_mixture,
    eve_error_key_granted,
    helstrom_error,
    keyless_error,
    measure_many,
    optimal_fixed_basis,
)
from keyedqkd.qubits import ANGLE_TOL, _granted_error_profile, _granted_error_slope, turn_by_bits

from reference import brute_force_basis_scan, granted_error_sum, measure_many_snapped

PI = math.pi
BREIDBART_ERROR = (2.0 - math.sqrt(2.0)) / 4.0  # = sin^2(pi/8) ~ 0.146447
M2 = BasisAlphabet(2)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_state_angle_normalizes_mod_pi(theta):
    state = StateAngle(theta)
    assert 0.0 <= state.theta < PI
    assert abs(StateAngle(theta + PI).theta - state.theta) < 1e-6 or (
        # wrap-around comparison for values that normalize near 0 / pi
        min(state.theta, PI - state.theta) < 1e-6
    )


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_meas_basis_normalizes_mod_half_pi(phi):
    assert 0.0 <= MeasBasis(phi).phi < PI / 2


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_rejected(angle):
    for kind in (StateAngle, MeasBasis):
        with pytest.raises(ValueError, match="finite"):
            kind(angle)


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
        assert abs(StateAngle(partner).theta - 3 * PI / 4) < 1e-15
        outcomes = measure_many(np.full(64, partner), np.full(64, M2.basis_angle(1)),
                                np.random.default_rng(2))
        assert (outcomes == 1).all()

    def test_wraps_mod_pi_for_m4(self):
        # 3*(pi/2)/4 + pi/2 = 7*pi/8
        assert abs(StateAngle(BasisAlphabet(4).basis_angle(3) + PI / 2).theta - 7 * PI / 8) < 1e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            M2.basis_angle(2)
        with pytest.raises(ValueError):
            M2.basis_angle(-1)


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


class TestDensityOfMixture:
    def test_pure_state(self):
        rho = density_of_mixture([(1.0, StateAngle(0))])
        assert np.allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-15)

    def test_orthogonal_equal_mixture(self):
        rho = density_of_mixture([(0.5, StateAngle(0)), (0.5, StateAngle(PI / 2))])
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    def test_four_state_mixture_is_maximally_mixed(self):
        rho = density_of_mixture(
            [(0.25, StateAngle(t)) for t in (0, PI / 4, PI / 2, 3 * PI / 4)]
        )
        assert np.abs(rho.entries - np.eye(2) / 2).max() < 1e-12

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 64])
    def test_uniform_mixture_over_all_encodings_is_identity_over_two(self, m):
        alphabet = BasisAlphabet(m)
        angles = [alphabet.basis_angle(j) for j in range(m)]
        states = [(0.5 / m, StateAngle(a)) for a in angles]
        states += [(0.5 / m, StateAngle(a + PI / 2)) for a in angles]
        rho = density_of_mixture(states)
        assert np.abs(rho.entries - np.eye(2) / 2).max() < 1e-12

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            density_of_mixture([(0.7, StateAngle(0)), (0.2, StateAngle(1))])
        with pytest.raises(ValueError):
            density_of_mixture([(1.5, StateAngle(0)), (-0.5, StateAngle(1))])
        with pytest.raises(ValueError):
            density_of_mixture([])


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
        rho = DensityMatrix.maximally_mixed()
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.9


class TestHelstromError:
    def test_indistinguishable(self):
        rho = DensityMatrix.maximally_mixed()
        assert helstrom_error(rho, rho, 0.5) == 0.5

    def test_orthogonal_pure_states(self):
        rho0 = DensityMatrix.pure(StateAngle(0))
        rho1 = DensityMatrix.pure(StateAngle(PI / 2))
        assert helstrom_error(rho0, rho1, 0.5) < 1e-15

    def test_conjugate_pair_mixtures(self):
        # Equal mixtures of {0, pi/4} vs {pi/2, 3pi/4}: the 2x2 difference has
        # eigenvalues +-sqrt(1/8), so the error is 1/2 - sqrt(1/8) = (2-sqrt(2))/4.
        rho0 = density_of_mixture([(0.5, StateAngle(0)), (0.5, StateAngle(PI / 4))])
        rho1 = density_of_mixture([(0.5, StateAngle(PI / 2)), (0.5, StateAngle(3 * PI / 4))])
        assert abs(helstrom_error(rho0, rho1, 0.5) - BREIDBART_ERROR) < 1e-12

    def test_symmetry_and_prior_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(32):
            thetas = rng.uniform(0, PI, size=4)
            w = rng.dirichlet(np.ones(2))
            rho0 = density_of_mixture([(w[0], StateAngle(thetas[0])), (w[1], StateAngle(thetas[1]))])
            rho1 = density_of_mixture([(w[0], StateAngle(thetas[2])), (w[1], StateAngle(thetas[3]))])
            p0 = rng.uniform(0, 1)
            e = helstrom_error(rho0, rho1, p0)
            assert abs(e - helstrom_error(rho1, rho0, 1.0 - p0)) < 1e-12
            assert -1e-12 <= e <= min(p0, 1.0 - p0) + 1e-12

    def test_rejects_bad_prior(self):
        rho = DensityMatrix.maximally_mixed()
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
        profile = _granted_error_profile(phis, alphabet)
        assert np.array_equal(_granted_error_profile(-phis, alphabet), profile)

    @pytest.mark.parametrize("m", [2 ** k for k in range(1, 13)])
    def test_slope_matches_a_central_difference_of_the_sum(self, m):
        alphabet, h = BasisAlphabet(m), (PI / 2) / m
        rng = np.random.default_rng(m)
        # Offsets of 0.05...0.5 periods on either side of a peak, where the sum is smooth.
        offsets = rng.choice([-1.0, 1.0], 32) * rng.uniform(0.05, 0.5, 32)
        phis = (rng.integers(-20, 20, 32) + offsets) * h
        eps = 1e-4 * h
        central = (granted_error_sum(phis + eps, m) - granted_error_sum(phis - eps, m)) / (2 * eps)
        slopes = [_granted_error_slope(phi, alphabet) for phi in phis]
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

    def test_error_nondecreasing_in_m(self):
        errors = [optimal_fixed_basis(BasisAlphabet(2 ** k))[1] for k in range(1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(errors, errors[1:]))


class TestKeylessError:
    def test_two_bases_matches_fixed_basis_optimum(self):
        assert abs(keyless_error(M2) - BREIDBART_ERROR) < 1e-9
        assert abs(keyless_error(M2) - optimal_fixed_basis(M2)[1]) < 1e-9

    @pytest.mark.parametrize("m", [4, 8, 64, 1024])
    def test_against_direct_construction(self, m):
        # Rebuild the alternating-orientation ensembles from outer products.
        angles = [j * (PI / 2) / m + (j % 2) * (PI / 2) for j in range(m)]

        def ensemble(shift):
            vecs = [np.array([math.cos(t + shift), math.sin(t + shift)]) for t in angles]
            return sum(np.outer(v, v) for v in vecs) / m

        eigs = np.linalg.eigvalsh(0.5 * ensemble(PI / 2) - 0.5 * ensemble(0.0))
        expected = 0.5 * (1.0 - np.abs(eigs).sum())
        assert abs(keyless_error(BasisAlphabet(m)) - expected) < 1e-12

    @pytest.mark.parametrize("m", [2, 4, 16, 256, 2 ** 16])
    def test_bounded_by_half(self, m):
        assert 0.0 <= keyless_error(BasisAlphabet(m)) <= 0.5

    def test_limit_approaches_half(self):
        assert keyless_error(BasisAlphabet(2 ** 16)) >= 0.499
