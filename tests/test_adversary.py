"""Eavesdropper strategies: analytic values vs Monte Carlo, strategy parsing,
ciphertext-only states."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keyedqkd import (
    AttackStrategy,
    BasisAlphabet,
    ChannelModel,
    LfsrKeystream,
    LfsrSpec,
    ProtocolConfig,
    RepetitionKeystream,
    RunningKey,
    SeedKey,
    attack_block_guess,
    attack_fixed_basis,
    attack_intercept_resend,
    attack_key_guess,
    block_guess_trials,
    ciphertext_only_state,
    eve_error_key_granted,
    run_attack,
)
import keyedqkd.adversary
import keyedqkd.qubits
from keyedqkd.adversary import (
    BLOCK_BYTES,
    MAX_QUBIT_TRIALS,
    SEED_DRAW,
    TRIAL_CHUNK,
    _attack,
    _block_guess_chunk,
    _block_size,
    _chunk_rngs,
    _counts,
    _decoding_flips,
    _key_guess_error,
    _guess_round,
    _key_guess_successes,
    _key_guess_target,
    _map_chunks,
    _resend_round,
    _row_counts,
    _state_round,
)
from keyedqkd.analysis import ConfidenceInterval, binomial_ci
from keyedqkd.qubits import (ANGLE_TOL, MeasBasis, OffsetTable, _DRAW_MAX, _sin2, measure_codes,
                             measure_many, uniform_bits)

import reference
from reference import GivenDraws, GivenWords, key_angles, key_guess_successes

PI = math.pi
BREIDBART_ERROR = (2.0 - math.sqrt(2.0)) / 4.0
CHANNELS = [ChannelModel(), ChannelModel(flip_prob=0.1, loss=0.2)]
CHANNEL_IDS = ["noiseless", "flip0.1-loss0.2"]


def lfsr_config(n=10 ** 5, flip=0.0, loss=0.0, seed_text="10110101", taps="8:8,7,2,1", m=2):
    return ProtocolConfig(
        n=n, alphabet=BasisAlphabet(m),
        keystream=LfsrKeystream(LfsrSpec.from_text(taps), SeedKey.from_string(seed_text)),
        channel=ChannelModel(flip_prob=flip, loss=loss),
        code_rate=0.6, pa_security_param=64, verification_len=32,
    )


def state_round(strategy, config, channel, rng):
    """One intercept or fixed-basis round against `config`'s keyed bases: the
    counts of a block of one row, as ints."""
    attack = _attack(config.alphabet.m, config.n, strategy, config.key_selectors())
    flips = _decoding_flips(strategy, config.alphabet, attack.key_codes)
    return tuple(int(c[0]) for c in _counts(*_state_round(attack, channel, 1, rng), flips))


def guess_key(config):
    """What every key-guess round against `config` shares."""
    return _attack(config.alphabet.m, config.n, selectors=config.key_selectors())


def guess_round(config, guess_bits, rng):
    """One key-guess round under `guess_bits`, a block of one row: (her
    bit-error rate, user errors, detected count)."""
    eve_errors, _, errors, detected = _guess_round(config, guess_key(config), [guess_bits], rng)
    return float(eve_errors[0] / config.n), int(errors[0]), int(detected[0])


def one_row(arrays, n):
    """A one-row block's arrays as one round's: row 0 of each, and an
    all-true mask of n entries for a detected mask of None."""
    return tuple(np.ones(n, bool) if a is None else a[0] for a in arrays)


def table_of(monkeypatch, p1, positions):
    """An OffsetTable whose snapped entries are `p1`, padded with zeros to 2m
    for the smallest power of two m with 2m >= len(p1): its build reads
    sin^2 from the list instead of the angles."""
    m = max(2, 1 << (len(p1) - 1).bit_length() - 1)
    padded = np.zeros(2 * m)
    padded[:len(p1)] = p1
    with monkeypatch.context() as patch:
        patch.setattr(keyedqkd.qubits, "_sin2", lambda d: padded.copy())
        return OffsetTable(m, 0.0, positions)


def repetition_config(n, key_bits):
    return ProtocolConfig(
        n=n, alphabet=BasisAlphabet(2),
        keystream=RepetitionKeystream(SeedKey.from_string(key_bits)),
        channel=ChannelModel(),
        code_rate=0.6, pa_security_param=64, verification_len=32,
    )


class TestStrategyParsing:
    def test_known_forms(self):
        assert AttackStrategy.parse("intercept").kind == "intercept_resend_random"
        assert AttackStrategy.parse("intercept:0.1").fraction == 0.1
        assert abs(AttackStrategy.parse("fixed:0.3927").phi - 0.3927) < 1e-12
        assert abs(AttackStrategy.parse("breidbart").phi - PI / 8) < 1e-15
        assert AttackStrategy.parse("keyguess").kind == "key_guess"
        assert AttackStrategy.parse("blockguess:15").k_blocks == 15

    def test_rejects_malformed(self):
        for bad in ("fixed:banana", "fixed:", "bogus", "blockguess:x", "blockguess:0",
                    "intercept:1.5", "breidbart:1", "keyguess:2", "intercept:", "breidbart:",
                    "keyguess:", "blockguess:"):
            with pytest.raises(ValueError):
                AttackStrategy.parse(bad)

    def test_fixed_basis_angle_normalized(self):
        assert 0.0 <= AttackStrategy.parse("fixed:3.0").phi < PI / 2

    @pytest.mark.parametrize("k_blocks", [2.5, 2.0, True, "2"])
    def test_block_count_must_be_an_integer(self, k_blocks):
        with pytest.raises(ValueError, match="must be an integer"):
            AttackStrategy("block_guess", k_blocks=k_blocks)

    def test_numpy_block_count_is_stored_as_an_int(self):
        assert type(AttackStrategy("block_guess", k_blocks=np.int64(3)).k_blocks) is int

    @pytest.mark.parametrize("fraction", [True, "0.5"])
    def test_fraction_must_be_a_real_number(self, fraction):
        with pytest.raises(ValueError, match="must be a real number"):
            AttackStrategy("intercept_resend_random", fraction=fraction)


# A float count raises ValueError before it reaches a numpy shape or range.
@pytest.mark.parametrize("call", [
    lambda rng: attack_block_guess(40, 4, 2.5, rng, trials=3),
    lambda rng: attack_block_guess(40, 4, 2, rng, trials=2.5),
    lambda rng: block_guess_trials(40.0, 4, 2, rng),
    lambda rng: attack_intercept_resend(lfsr_config(), rng, trials=2.5),
    lambda rng: attack_key_guess(lfsr_config(), rng, trials=2.5),
], ids=["block-guess-k", "block-guess-trials", "block-guess-n", "intercept-trials",
        "keyguess-trials"])
def test_non_integer_counts_raise_value_error(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call(np.random.default_rng(0))


class TestInterceptResend:
    def test_quarter_error_rates(self):
        report = attack_intercept_resend(lfsr_config(), np.random.default_rng(1))
        sigma = math.sqrt(0.25 * 0.75 / 10 ** 5)
        assert abs(report.eve_bit_error.estimate - 0.25) < 4 * sigma
        assert abs(report.induced_qber.estimate - 0.25) < 4 * sigma
        assert report.eve_bit_error_analytic == 0.25

    def test_partial_interception_scales_linearly(self):
        report = attack_intercept_resend(lfsr_config(), np.random.default_rng(2), fraction=0.1)
        sigma = math.sqrt(0.025 * 0.975 / 10 ** 5)
        assert abs(report.induced_qber.estimate - 0.025) < 4 * sigma
        assert report.induced_qber_analytic == 0.025

    def test_no_interception_no_errors(self):
        report = attack_intercept_resend(lfsr_config(n=10 ** 4), np.random.default_rng(3), fraction=0.0)
        assert report.induced_qber.estimate == 0.0
        # Nothing attacked: no error estimate rather than a perfect eavesdropper.
        assert report.eve_bit_error is None and report.to_json_dict()["eve_bit_error"] is None
        lost = attack_fixed_basis(lfsr_config(n=4, loss=0.999), PI / 8, np.random.default_rng(0))
        assert lost.induced_qber is None and lost.to_json_dict()["induced_qber"] is None

    def test_requires_two_basis_alphabet(self):
        with pytest.raises(ValueError):
            attack_intercept_resend(lfsr_config(m=4), np.random.default_rng(0))


class TestFixedBasis:
    def test_bisecting_basis_error(self):
        report = attack_fixed_basis(lfsr_config(n=2 * 10 ** 5), PI / 8, np.random.default_rng(4))
        sigma = math.sqrt(BREIDBART_ERROR * (1 - BREIDBART_ERROR) / (2 * 10 ** 5))
        assert abs(report.eve_bit_error.estimate - BREIDBART_ERROR) < 4 * sigma
        assert abs(report.eve_bit_error_analytic - BREIDBART_ERROR) < 1e-12

    def test_aligned_basis_error(self):
        report = attack_fixed_basis(lfsr_config(n=2 * 10 ** 5), 0.0, np.random.default_rng(5))
        sigma = math.sqrt(0.25 * 0.75 / (2 * 10 ** 5))
        assert abs(report.eve_bit_error.estimate - 0.25) < 4 * sigma

    def test_induced_qber_matches_brute_force_average(self):
        # Oracle: enumerate (basis, bit, outcome) cases and average the
        # projection products directly; every fixed basis induces 1/4.
        for m, phi in [(2, PI / 8), (2, 0.0), (4, 0.3), (8, 0.11)]:
            total = 0.0
            for j in range(m):
                theta_j = j * (PI / 2) / m
                for bit in (0, 1):
                    theta = theta_j + bit * (PI / 2)
                    for outcome in (0, 1):
                        p_outcome = math.cos(theta - phi) ** 2 if outcome == 0 else math.sin(theta - phi) ** 2
                        resent = phi + outcome * (PI / 2)
                        p_wrong = math.cos(resent - (theta_j + (1 - bit) * PI / 2)) ** 2
                        total += p_outcome * p_wrong
            oracle = total / (2 * m)
            assert abs(oracle - 0.25) < 1e-12, (m, phi)

    def test_bisecting_basis_induces_quarter_qber(self):
        report = attack_fixed_basis(lfsr_config(n=2 * 10 ** 5), PI / 8, np.random.default_rng(6))
        sigma = math.sqrt(0.25 * 0.75 / (2 * 10 ** 5))
        assert abs(report.induced_qber.estimate - 0.25) < 4 * sigma
        assert abs(report.induced_qber_analytic - 0.25) < 1e-12

    @pytest.mark.parametrize("phi,m", [(0.2, 2), (0.5, 2), (0.15, 4)])
    def test_mc_matches_key_granted_functional(self, phi, m):
        config = lfsr_config(n=2 * 10 ** 5, m=m)
        report = attack_fixed_basis(config, phi, np.random.default_rng(7))
        expected = eve_error_key_granted(MeasBasis(phi), config.alphabet)
        sigma = math.sqrt(expected * (1 - expected) / (2 * 10 ** 5))
        assert abs(report.eve_bit_error.estimate - expected) < 4 * sigma
        assert report.induced_qber_analytic == 0.25
        sigma_q = math.sqrt(0.25 * 0.75 / (2 * 10 ** 5))
        assert abs(report.induced_qber.estimate - 0.25) < 4 * sigma_q


class TestKeyGuess:
    def test_success_rate_at_eight_bits(self):
        config = lfsr_config(n=64)
        report = attack_key_guess(config, np.random.default_rng(8), trials=10 ** 6)
        expected = 2.0 ** -8
        assert report.success_analytic == expected
        sigma = math.sqrt(expected * (1 - expected) / 10 ** 6)
        assert abs(report.success_mc.estimate - expected) < 4 * sigma
        assert report.info_fraction == 1.0

    def test_two_bit_seed_success_rate(self):
        config = lfsr_config(n=32, seed_text="10", taps="2:2,1")
        report = attack_key_guess(config, np.random.default_rng(9), trials=10 ** 5)
        sigma = math.sqrt(0.25 * 0.75 / 10 ** 5)
        assert abs(report.success_mc.estimate - 0.25) < 4 * sigma

    def test_correct_guess_is_invisible(self):
        config = lfsr_config(n=4096)
        eve_err, errors, detected = guess_round(
            config, config.keystream.seed.bits, np.random.default_rng(10))
        assert eve_err == 0.0 and errors == 0 and detected == config.n

    def test_wrong_guess_leaves_errors(self):
        config = lfsr_config(n=4096)
        wrong = SeedKey.from_string("01101011")
        assert wrong != config.keystream.seed
        eve_err, errors, detected = guess_round(config, wrong.bits, np.random.default_rng(11))
        assert eve_err > 0.1 and errors / detected > 0.1

    def test_all_zero_guess_measures_in_basis_zero(self):
        # State 0 expands to zeros: every qubit is measured at angle 0, which
        # errs on the half of the qubits keyed to pi/4, half of the time.
        config = lfsr_config(n=20000)
        eve_err, errors, detected = guess_round(
            config, (0,) * len(config.keystream.seed), np.random.default_rng(12))
        sigma = math.sqrt(0.25 * 0.75 / config.n)
        assert abs(eve_err - 0.25) < 4 * sigma and abs(errors / detected - 0.25) < 4 * sigma

    def test_requires_lfsr_keystream(self):
        with pytest.raises(ValueError):
            attack_key_guess(repetition_config(40, "10011010"), np.random.default_rng(0))

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 7, 16, 64, 65, 130])
    @pytest.mark.parametrize("count", [1, 7, 3001, 4096])
    def test_success_count_matches_the_int64_reference(self, length, count):
        # Seeds taken from rows the reference itself draws, so long seeds
        # still have successes to count; a guess takes whole 64-bit words,
        # and past 64 bits it spans several, the last one masked.
        width = -(-length // 64)
        for seed in range(4):
            rows = reference.word_bits(np.random.default_rng(seed), (count, width))[:, :length]
            # Each row is the guess uniform_bits draws for one trial.
            draw = np.random.default_rng(seed)
            for row in rows[:7]:
                assert np.array_equal(uniform_bits(draw, length), row)
            for row in (0, count // 2, count - 1):
                seed_bits = rows[row]
                got = _key_guess_successes(_key_guess_target(seed_bits), count,
                                           np.random.default_rng(seed))
                assert got >= 1
                assert got == key_guess_successes(seed_bits, count, np.random.default_rng(seed))
                # The seed with its last bit flipped: a guess that matches
                # only its earlier words is no hit.
                near = seed_bits.copy()
                near[-1] ^= 1
                assert (_key_guess_successes(_key_guess_target(near), count,
                                             np.random.default_rng(seed))
                        == key_guess_successes(near, count, np.random.default_rng(seed)))
        # A pending 32-bit half is left pending: the guesses take whole 64-bit draws.
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        rng.integers(0, 2), ref.integers(0, 2)
        assert (_key_guess_successes(_key_guess_target(seed_bits), count, rng)
                == key_guess_successes(seed_bits, count, ref))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_induced_rate_pools_detected_qubits(self):
        # Under heavy loss some rounds detect nothing: they add to neither
        # the error nor the detection count, instead of adding a rate of 0.
        config = lfsr_config(n=4, loss=0.8, flip=0.2)
        trials = MAX_QUBIT_TRIALS
        report = attack_key_guess(config, np.random.default_rng(21), trials=trials)
        _, rounds = _reference_rounds(AttackStrategy.parse("keyguess"), config, 21, trials)
        counts = [row[1:] for row in rounds]
        errors, detected = (sum(c[i] for c in counts) for i in range(2))
        assert any(d == 0 for _, d in counts) and detected > 0
        assert report.induced_qber.estimate == errors / detected
        assert report.induced_qber.half_width == 4.0 * math.sqrt(0.25 / detected)

    @pytest.mark.parametrize("bits", range(1, 21))
    def test_closed_form_error_equals_the_triangular_sum(self, bits):
        # Guessed and keyed selectors differ by k with weight (m - |k|)/m^2,
        # and her error at that offset is sin^2(k pi/(2m)).
        m = 2 ** bits
        k = np.arange(1 - m, m)
        triangular = np.sum((m - np.abs(k)) * np.sin(k * PI / (2 * m)) ** 2) / m ** 2
        assert _key_guess_error(m) == pytest.approx(triangular, rel=0, abs=1e-12)

    def test_closed_form_error_values(self):
        assert _key_guess_error(2) == 0.25
        assert _key_guess_error(4) == pytest.approx(0.2866, abs=5e-5)
        assert _key_guess_error(2 ** 40) == pytest.approx(0.5 - 2 / PI ** 2, rel=0, abs=1e-15)

    @pytest.mark.parametrize("m,seed", [(2, 30), (4, 31), (16, 32), (1024, 33)])
    def test_report_error_matches_the_closed_form(self, m, seed):
        # A 64-bit register from a dense seed, so the keyed selectors of one
        # config are near uniform, as the closed form assumes. (From the
        # sparse seed 10...01 the first selectors are mostly 0, which at
        # m = 16 raises her error for that key by about one half-width.)
        seed_text = "1111000011100111101010011100010111110111110101100110000011101110"
        config = lfsr_config(n=20_000, m=m, taps="64:64,63,61,60", seed_text=seed_text)
        report = run_attack(AttackStrategy.parse("keyguess"), config, np.random.default_rng(seed),
                            trials=MAX_QUBIT_TRIALS)
        assert report.eve_bit_error_analytic == _key_guess_error(m)
        assert (abs(report.eve_bit_error.estimate - report.eve_bit_error_analytic)
                <= report.eve_bit_error.half_width)

    def test_nothing_detected_reads_null(self):
        config = lfsr_config(n=4, loss=0.999)
        guess = SeedKey.from_string("01101011")
        assert guess_round(config, guess.bits, np.random.default_rng(0))[1:] == (0, 0)
        report = attack_key_guess(config, np.random.default_rng(0), trials=3)
        assert report.induced_qber is None and report.to_json_dict()["induced_qber"] is None


class TestBlockGuess:
    def test_analytic_reference_point(self):
        report = attack_block_guess(1000, 100, 15, np.random.default_rng(12), trials=8)
        assert abs(report.success_analytic - 2 ** -15) < 1e-9
        assert abs(report.success_analytic - 3.0517578125e-5) < 1e-9
        assert abs(report.info_fraction - 0.15) < 1e-12
        assert report.eve_bit_error_analytic == 0.25

    def test_scaled_monte_carlo(self):
        report = attack_block_guess(40, 8, 3, np.random.default_rng(13), trials=10 ** 5)
        sigma = math.sqrt(0.125 * 0.875 / 10 ** 5)
        assert abs(report.success_mc.estimate - 0.125) < 4 * sigma

    def test_single_block_is_coin_flip(self):
        report = attack_block_guess(40, 8, 1, np.random.default_rng(14), trials=10 ** 4)
        sigma = math.sqrt(0.25 / 10 ** 4)
        assert report.success_analytic == 0.5
        assert abs(report.success_mc.estimate - 0.5) < 4 * sigma

    def test_success_trials_are_error_free(self):
        record = block_guess_trials(40, 8, 3, np.random.default_rng(15), trials=2 * 10 ** 4)
        successes = record.success
        assert successes.any()
        assert not record.attacked_errors[successes].any()
        assert not record.eve_errors[successes].any()

    def test_failed_trials_average_quarter_qber_on_attacked_region(self):
        record = block_guess_trials(40, 8, 3, np.random.default_rng(16), trials=2 * 10 ** 4)
        # Unconditionally each attacked position errs with probability
        # P(block guessed wrong) * 1/2 = 1/4; wrong blocks err at 1/2 within.
        total = record.attacked_errors.sum() / (record.attacked_per_trial * record.success.size)
        sigma = math.sqrt(0.25 * 0.75 / (record.attacked_per_trial * record.success.size))
        assert abs(total - 0.25) < 6 * sigma  # positions within a trial correlate by block

    @pytest.mark.parametrize("loss", [0.2, 0.5])
    def test_induced_error_is_over_detected_positions(self, loss):
        # Lost positions carry no user error; counting them in the
        # denominator read 0.199 at loss 0.2 and 0.125 at loss 0.5.
        report = attack_block_guess(40, 8, 3, np.random.default_rng(1), trials=20_000,
                                    channel=ChannelModel(loss=loss))
        record = block_guess_trials(40, 8, 3, np.random.default_rng(1), trials=20_000,
                                    channel=ChannelModel(loss=loss))
        detected = int(record.attacked_detected.sum())
        attacked = record.attacked_per_trial * record.success.size
        assert abs(detected / attacked - (1 - loss)) < 6 * math.sqrt(loss * (1 - loss) / attacked)
        assert report.induced_qber == binomial_ci(int(record.attacked_errors.sum()), detected)
        sigma = math.sqrt(0.25 * 0.75 / detected)
        assert abs(report.induced_qber.estimate - 0.25) < 6 * sigma

    def test_nothing_detected_reads_null(self):
        report = attack_block_guess(40, 8, 1, np.random.default_rng(0), trials=1,
                                    channel=ChannelModel(loss=0.999))
        assert report.induced_qber is None and report.to_json_dict()["induced_qber"] is None
        assert report.eve_bit_error is not None

    def test_rejects_bad_block_counts(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            attack_block_guess(40, 8, 0, rng)
        with pytest.raises(ValueError):
            attack_block_guess(40, 8, 9, rng)
        with pytest.raises(ValueError):
            attack_block_guess(41, 8, 2, rng)


class TestCiphertextOnlyState:
    @pytest.mark.parametrize("m", [2, 4, 16])
    def test_uniform_data_erases_key_dependence(self, m):
        alphabet = BasisAlphabet(m)
        rng = np.random.default_rng(17)
        config = lfsr_config(n=64, m=m)
        running_key = config.keystream.running_key(64, alphabet)
        identity_half = np.eye(2) / 2
        for rho in ciphertext_only_state(running_key, alphabet):
            assert np.abs(rho.entries - identity_half).max() < 1e-12

    def test_biased_data_leaks(self):
        config = lfsr_config(n=8)
        running_key = config.keystream.running_key(8, config.alphabet)
        states = ciphertext_only_state(running_key, config.alphabet, p_zero=0.7)
        selector0 = int(running_key.selectors[0])
        theta = config.alphabet.basis_angle(selector0)
        if theta == 0.0:
            assert np.allclose(states[0].entries, [[0.7, 0], [0, 0.3]], atol=1e-12)
        assert any(np.abs(rho.entries - np.eye(2) / 2).max() > 0.1 for rho in states)

    def test_rejects_bad_prior(self):
        config = lfsr_config(n=4)
        running_key = config.keystream.running_key(4, config.alphabet)
        for bad in (1.2, "0.5", True):
            with pytest.raises(ValueError):
                ciphertext_only_state(running_key, config.alphabet, p_zero=bad)

    def test_rejects_a_selector_outside_the_alphabet(self):
        with pytest.raises(ValueError, match="selects from 4 bases, the alphabet has 2"):
            ciphertext_only_state(RunningKey([0, 1, 3], 4), BasisAlphabet(2))

    def test_rejects_a_key_of_fewer_bases_than_the_alphabet(self):
        # Read through 16 bases, selector 1 would be the basis at pi/32, not
        # pi/4: at p0 = 0.9 the off-diagonal would read 0.078 instead of 0.4.
        key = RunningKey([0, 1, 1, 0], 2)
        with pytest.raises(ValueError, match="selects from 2 bases, the alphabet has 16"):
            ciphertext_only_state(key, BasisAlphabet(16), p_zero=0.9)
        assert ciphertext_only_state(key, BasisAlphabet(2), p_zero=0.9)[1].entries[0, 1] == \
            pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("p_zero", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("m", [2, 16, 1024])
    def test_closed_form_matches_the_reference_mixture(self, m, p_zero):
        alphabet = BasisAlphabet(m)
        selectors = np.random.default_rng(m).integers(0, m, 4 * m).tolist()
        states = ciphertext_only_state(RunningKey(selectors, m), alphabet, p_zero=p_zero)
        assert len(states) == len(selectors)
        shared = {}
        for j, rho in zip(selectors, states):
            theta = alphabet.basis_angle(j)
            expected = reference.mixture([p_zero, 1.0 - p_zero], [theta, theta + PI / 2])
            assert np.abs(rho.entries - expected).max() <= 1e-15
            assert shared.setdefault(j, rho) is rho


class TestInlineInterference:
    def test_full_interception_trips_the_rate_gate(self):
        from keyedqkd import measure_resend_interference, run_protocol
        config = lfsr_config(n=2 * 10 ** 4, seed_text="1011001110001111", taps="16:16,12,3,1")
        evil = measure_resend_interference(AttackStrategy.parse("breidbart"))
        outcome = run_protocol(config, np.random.default_rng(20), interference=evil)
        assert outcome.abort_reason == "rate_gate"
        assert outcome.qber_raw > 0.2

    def test_light_interception_is_priced_into_the_estimate(self):
        from keyedqkd import measure_resend_interference, run_protocol
        config = lfsr_config(n=2 * 10 ** 4, seed_text="1011001110001111", taps="16:16,12,3,1")
        light = measure_resend_interference(AttackStrategy.parse("intercept:0.1"))
        outcome = run_protocol(config, np.random.default_rng(21), interference=light)
        assert outcome.verified
        assert 0.01 < outcome.qber_raw < 0.06

    def test_key_targeting_strategies_cannot_interfere_inline(self):
        from keyedqkd import measure_resend_interference
        with pytest.raises(ValueError):
            measure_resend_interference(AttackStrategy.parse("keyguess"))
        with pytest.raises(ValueError):
            measure_resend_interference(AttackStrategy.parse("blockguess:3"))

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("text", ["breidbart", "fixed:0.3", "intercept:0.5", "intercept:1"])
    def test_interference_is_the_attack_round(self, text, channel):
        # The in-line hook makes the transmission as one round of the
        # attack kernels: the same arrays, detected mask as positions, and
        # the same generator state.
        from keyedqkd import measure_resend_interference, transmit_round
        config = dataclasses.replace(lfsr_config(n=3000), channel=channel)
        strategy = AttackStrategy.parse(text)
        rng, ref_rng = np.random.default_rng(22), np.random.default_rng(22)
        got = transmit_round(config, rng, measure_resend_interference(strategy))
        attack = _attack(config.alphabet.m, config.n, strategy, config.key_selectors())
        *arrays, _ = _state_round(attack, channel, 1, ref_rng)
        alice, _, bob, detected = one_row(arrays, config.n)
        positions = np.flatnonzero(detected)
        _same_arrays(got, (alice[positions], bob[positions], positions))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("text", ["intercept:0.5", "intercept:1"])
    def test_inline_intercept_off_two_bases_measures_at_0_and_pi_4(self, text, channel):
        # At m = 16 her bases are lattice codes 0 and m/2, which the float
        # reference gives as angles.
        from keyedqkd import measure_resend_interference, transmit_round
        config = dataclasses.replace(lfsr_config(n=3000, m=16), channel=channel)
        strategy = AttackStrategy.parse(text)
        rng, ref_rng = np.random.default_rng(24), np.random.default_rng(24)
        got = transmit_round(config, rng, measure_resend_interference(strategy))
        attacked, codes = reference.eve_bases(strategy, config.n, ref_rng)
        two = reference.basis_angles(2)
        alice, _, bob, detected = reference.resend_round(
            key_angles(config), channel, two[codes], attacked, ref_rng,
            (reference.basis_angles(16), two))
        positions = np.flatnonzero(detected)
        _same_arrays(got, (alice[positions], bob[positions], positions))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    # sha256 of a run's outcome JSON with its final generator state, and of
    # Bob's bits from one round. The intercept pins at m = 2 were recorded
    # once in-line interference became the attack round, which draws her
    # mask and bases before Alice's bits and, at m = 2, draws coin bits, not
    # doubles, for her measurement and Bob's. The breidbart pins and
    # intercept at m = 16 were recorded when every other table measurement
    # came to draw one byte per position and a double per tie.
    INLINE_PINS = {
        ("breidbart", 2): ("a81d9da1807527ee679715dac01d68b75f6c397fc465f7e1e67bbc92c3cb91ac",
                           "dbf93ffbf160333fceea0b1088472b5f06dda22c949d68b7227e2dc45083fb79"),
        ("breidbart", 16): ("20902ea1afae0a547e57df7a15fa22cef68c9decfaa0c8b7062a5c3d2bb8b30f",
                            "535456ee2d6bb120fadc88a2a612d71aaefa86cb94b329d8205774c9f7e3dc51"),
        ("intercept:0.5", 2): (
            "dd8f2e657c7c5b5b420fb4e66de6e15d0408adf898d703bad14c8a5405aa2e1e",
            "3d8db0fa8212bb171349b62bccd66d23d0f530a8037e71f41d7f8b337ff86429"),
        ("intercept:0.5", 16): (
            "036f56d3696809fa4b84a8b008e28302828cdc762e34b82947b3d87adb0ee452",
            "3f6da7a44d5a16a31796151f43d8fc58d412232a4f6f143a28c16aa165a8a736"),
    }

    @pytest.mark.parametrize("text,m", list(INLINE_PINS))
    def test_interfered_runs_match_their_pins(self, text, m):
        from keyedqkd import measure_resend_interference, run_protocol, transmit_round
        config = lfsr_config(n=20001, flip=0.02, loss=0.3, m=m)
        hook = measure_resend_interference(AttackStrategy.parse(text))
        rng = np.random.default_rng(2201)
        outcome = run_protocol(config, rng, interference=hook)
        record = json.dumps([outcome.to_json_dict(), rng.bit_generator.state], sort_keys=True)
        _, bob, _ = transmit_round(config, np.random.default_rng(2202), hook)
        assert bob.dtype == np.uint8
        assert (hashlib.sha256(record.encode()).hexdigest(),
                hashlib.sha256(bob.tobytes()).hexdigest()) == self.INLINE_PINS[text, m], record


class TestRunAttackDispatch:
    def test_block_guess_needs_repetition_keystream(self):
        with pytest.raises(ValueError):
            run_attack(AttackStrategy.parse("blockguess:2"), lfsr_config(n=40),
                       np.random.default_rng(0))

    def test_key_guess_needs_lfsr_keystream(self):
        with pytest.raises(ValueError):
            run_attack(AttackStrategy.parse("keyguess"), repetition_config(40, "1001"),
                       np.random.default_rng(0))

    @pytest.mark.parametrize("text", ["intercept", "intercept:0.3", "fixed:0", "breidbart",
                                      "keyguess", "blockguess:2"])
    def test_rejects_zero_trials(self, text):
        # Through run_attack and through the public function that runs the strategy.
        strategy = AttackStrategy.parse(text)
        config = repetition_config(40, "1001") if text.startswith("block") else lfsr_config(n=40)
        direct = {
            "intercept_resend_random": [partial(attack_intercept_resend, config,
                                                fraction=strategy.fraction)],
            "fixed_basis": [partial(attack_fixed_basis, config, strategy.phi)],
            "key_guess": [partial(attack_key_guess, config)],
            "block_guess": [partial(f, 40, 4, strategy.k_blocks)
                            for f in (attack_block_guess, block_guess_trials)],
        }[strategy.kind]
        for trials in (0, -1):
            for attack in [partial(run_attack, strategy, config), *direct]:
                with pytest.raises(ValueError, match="trials must be >= 1"):
                    attack(np.random.default_rng(0), trials=trials)

    def test_block_guess_from_config(self):
        report = run_attack(AttackStrategy.parse("blockguess:3"),
                            repetition_config(40, "10011010"),
                            np.random.default_rng(1), trials=2000)
        assert report.success_analytic == 0.125

    def test_deterministic_and_thread_invariant(self):
        config = repetition_config(40, "10011010")
        strategy = AttackStrategy.parse("blockguess:3")
        a = run_attack(strategy, config, np.random.default_rng(5), trials=20000, threads=1)
        b = run_attack(strategy, config, np.random.default_rng(5), trials=20000, threads=8)
        assert a == b


class TestTrialChunks:
    def test_seed_pieces_reproduce_one_draw(self):
        trials = 2 * SEED_DRAW + 5
        seeds = np.random.default_rng(9).integers(0, 2 ** 63, size=trials)
        chunks = list(_chunk_rngs(np.random.default_rng(9), trials, chunk=1))
        assert [size for size, _ in chunks] == [1] * trials
        for seed, (_, child) in zip(seeds, chunks):
            assert child.random() == np.random.default_rng(int(seed)).random()
        sizes = [size for size, _ in _chunk_rngs(np.random.default_rng(0), 2 * TRIAL_CHUNK + 7)]
        assert sizes == [TRIAL_CHUNK, TRIAL_CHUNK, 7]

    def test_enormous_trials_are_not_built_up_front(self):
        rng = np.random.default_rng(3)
        first = list(itertools.islice(_chunk_rngs(rng, 10 ** 18), 3))
        assert [size for size, _ in first] == [TRIAL_CHUNK] * 3
        # Only the first piece of seeds was drawn from the caller's generator.
        reference = np.random.default_rng(3)
        reference.integers(0, 2 ** 63, size=SEED_DRAW)
        assert rng.random() == reference.random()

    def test_at_most_threads_chunks_in_flight(self):
        threads, lock = 2, threading.Lock()
        pulled = finished = 0
        ahead = []

        def chunks():
            nonlocal pulled
            for index in range(40):
                with lock:
                    pulled += 1
                    ahead.append(pulled - finished)
                yield (index,)

        def kernel(index):
            nonlocal finished
            time.sleep(0.001)
            with lock:
                finished += 1
            return index * index

        assert _map_chunks(kernel, chunks(), threads) == [i * i for i in range(40)]
        assert max(ahead) <= threads + 1

    def test_pool_is_bounded_by_the_cpu_count(self):
        idents = set()

        def kernel(index):
            idents.add(threading.get_ident())
            time.sleep(0.01)
            return index

        assert _map_chunks(kernel, ((i,) for i in range(64)), 10_000) == list(range(64))
        assert len(idents) <= (os.cpu_count() or 1)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity API")
    def test_one_usable_cpu_runs_on_the_calling_thread(self):
        idents = []

        def kernel(index):
            idents.append(threading.get_ident())
            return index * index

        config = lfsr_config(n=64)
        strategy = AttackStrategy.parse("keyguess")
        expected = run_attack(strategy, config, np.random.default_rng(4), trials=10 ** 4, threads=1)
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(saved)})
        try:
            assert _map_chunks(kernel, ((i,) for i in range(16)), 8) == [i * i for i in range(16)]
            pinned = run_attack(strategy, config, np.random.default_rng(4), trials=10 ** 4,
                                threads=8)
        finally:
            os.sched_setaffinity(0, saved)
        assert set(idents) == {threading.get_ident()}
        assert pinned == expected

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_fewer_than_one_thread(self, threads):
        with pytest.raises(ValueError, match="threads"):
            run_attack(AttackStrategy.parse("breidbart"), lfsr_config(n=40),
                       np.random.default_rng(0), threads=threads)

    @pytest.mark.parametrize("threads", [1.5, True, "2"])
    def test_rejects_a_non_integer_thread_count(self, threads):
        with pytest.raises(ValueError, match="threads must be an integer"):
            _map_chunks(lambda size, rng: size, _chunk_rngs(np.random.default_rng(0), 3), threads)
        with pytest.raises(ValueError, match="threads must be an integer"):
            run_attack(AttackStrategy.parse("breidbart"), lfsr_config(n=40),
                       np.random.default_rng(0), threads=threads)


# A 64-bit register from a dense seed, whose selectors are near uniform at any m.
DENSE_KEY = dict(taps="64:64,63,61,60",
                 seed_text="1111000011100111101010011100010111110111110101100110000011101110")


def _same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def _recording_state_round(seen):
    """The library's _state_round, appending the attacked positions of each block to `seen`."""
    real = keyedqkd.adversary._state_round

    def state_round(attack, channel, count, rng):
        arrays = real(attack, channel, count, rng)
        seen.append(arrays[-1])
        return arrays

    return state_round


def _index_path(attack, key_codes, eve_codes, attacked, channel, count, rng):
    """The library's _resend_round, which attacks the positions of a slice
    through the index array of every position it selects."""
    if isinstance(attacked, slice):
        attacked = np.arange(key_codes.shape[-1])[attacked]
    return _resend_round(attack, key_codes, eve_codes, attacked, channel, count, rng)


class TestCodedKernels:
    """The attack kernels on integer lattice offsets against their
    float-angle originals in tests/reference.py: identical outputs and the
    same generator state afterwards, both where a call gathers from its
    table of 2m entries (2m <= positions) and where it measures per
    position."""

    @pytest.fixture
    def table_use(self, monkeypatch):
        """Records, per measure_codes call, whether it took the table branch."""
        seen = []

        def spy(table, offsets, rng):
            seen.append(table.p1 is not None and table.p1.size <= offsets.shape[1])
            return measure_codes(table, offsets, rng)

        monkeypatch.setattr(keyedqkd.adversary, "measure_codes", spy)
        return seen

    # (m, n) on the table path (2m <= n) and on the per-position path
    # (2m > n); at n = 3 intercept:0.5 attacks at most 3 positions.
    STATE_PATHS = ([(text, m, n) for text in ("fixed:0.3", "breidbart")
                    for m, n in [(2, 3), (2, 3000), (16, 31), (16, 3000), (1024, 300),
                                 (1024, 2048), (2 ** 16, 300)]]
                   + [(text, 2, n) for text in ("intercept:0.5", "intercept:1", "fixed:1.2")
                      for n in (3, 3000)])

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("text,m,n", STATE_PATHS)
    def test_state_attack_round(self, table_use, text, m, n, channel):
        config = lfsr_config(n=n, m=m, **DENSE_KEY)
        strategy = AttackStrategy.parse(text)
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = state_round(strategy, config, channel, rng)
            assert [got] == reference.state_attack_counts(strategy, config, channel, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert table_use == [2 * m <= n] * 6

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("m,n", [(2, 500), (2, 3), (16, 2500), (16, 31), (1024, 2048),
                                     (1024, 300), (4096, 300), (2 ** 16, 300),
                                     (2 ** 16, 2 ** 17)])
    def test_key_guess_round(self, table_use, m, n, channel):
        # One table of 2m entries, gathered from where 2m <= n, up to the
        # table of 2^17 entries at m = 2^16.
        config = dataclasses.replace(lfsr_config(n=n, m=m), channel=channel)
        spec = config.keystream.spec
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            guess_bits = np.random.default_rng(100 + seed).integers(0, 2, 8)
            guess = SeedKey(tuple(int(b) for b in guess_bits))
            guessed = dataclasses.replace(config, keystream=LfsrKeystream(spec, guess))
            got = guess_round(config, guess.bits, rng)
            bases = reference.basis_angles(m)
            alice, outcome, bob, detected = reference.resend_round(
                key_angles(config), channel, key_angles(guessed), slice(None), ref_rng,
                (bases, bases))
            assert got == (float(np.mean(outcome != alice)),
                           int(np.sum((bob != alice) & detected)), int(np.sum(detected)))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert table_use == [2 * m <= n] * 6

    @pytest.fixture
    def code_dtypes(self, monkeypatch):
        """Records the dtype of the offsets of every measure_codes call."""
        seen = []

        def spy(table, offsets, rng):
            seen.append(offsets.dtype)
            return measure_codes(table, offsets, rng)

        monkeypatch.setattr(keyedqkd.adversary, "measure_codes", spy)
        return seen

    # The narrowest unsigned dtype that holds 2m - 1: a uint8 up to m = 128,
    # whose offsets fill it, a uint16 from m = 256 and a uint32 at m = 2^16.
    # The attacker measures in bases on the keyed lattice, given by codes of
    # their own narrow dtype, or in a fixed basis at 0.3, which attacks
    # every position.
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("phi", [None, 0.3], ids=["lattice", "fixed"])
    @pytest.mark.parametrize("m,n,code", [
        (2, 3000, np.uint8), (16, 3000, np.uint8), (128, 3000, np.uint8),
        (256, 3000, np.uint16), (4096, 300, np.uint16), (2 ** 16, 300, np.uint32)])
    def test_resend_round_at_each_code_width(self, code_dtypes, m, n, code, phi, channel):
        key_angles = BasisAlphabet(m).angle(np.arange(m))
        draw = np.random.default_rng(m)
        key_codes = draw.integers(0, m, n)
        if phi is None:
            eve_codes = draw.integers(0, m, n).astype(np.min_scalar_type(m - 1))
            eve_angles, eve_bases = key_angles[eve_codes], key_angles
        else:
            eve_codes = np.zeros(n, dtype=np.uint8)
            eve_angles, eve_bases = np.full(n, phi), np.array([phi])
        inputs = key_codes.copy(), eve_codes.copy()
        mask = draw.random(n) < 0.4
        for attacked in (mask, np.flatnonzero(mask), slice(None))[0 if phi is None else 2:]:
            rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
            attack = _attack(m, n, None if phi is None else AttackStrategy("fixed_basis", phi=phi))
            got = one_row(_resend_round(attack, key_codes, eve_codes, attacked, channel, 1, rng), n)
            want = reference.resend_round(key_angles[key_codes], channel, eve_angles, attacked,
                                          ref_rng, (key_angles, eve_bases))
            _same_arrays(got, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        _same_arrays((key_codes, eve_codes), inputs)
        assert set(code_dtypes) == {np.dtype(code)}

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("m,text,code", [
        (2, "breidbart", np.uint8), (2, "intercept:1", np.uint8), (16, "fixed:0.3", np.uint8),
        (128, "fixed:0.3", np.uint8), (256, "breidbart", np.uint16)])
    def test_state_attack_round_at_each_code_width(self, code_dtypes, m, text, code, channel):
        config = lfsr_config(n=3000, m=m)
        strategy = AttackStrategy.parse(text)
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        got = state_round(strategy, config, channel, rng)
        assert [got] == reference.state_attack_counts(strategy, config, channel, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # The round's two measurements read offsets of the round's dtype.
        assert code_dtypes == [np.dtype(code)] * 2
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    def test_full_interception_slice_equals_the_index_path(self, monkeypatch, channel, threads):
        config = dataclasses.replace(lfsr_config(n=600), channel=channel)
        strategy, seen = AttackStrategy.parse("intercept"), []
        monkeypatch.setattr(keyedqkd.adversary, "_state_round", _recording_state_round(seen))
        fast = run_attack(strategy, config, np.random.default_rng(8), trials=5, threads=threads)
        # The five rounds of 600 positions run as one block.
        assert seen == [slice(None)]
        monkeypatch.setattr(keyedqkd.adversary, "_resend_round", _index_path)
        assert fast == run_attack(strategy, config, np.random.default_rng(8), trials=5,
                                  threads=threads)

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    def test_full_interception_inline_slice_equals_the_index_path(self, monkeypatch, channel):
        from keyedqkd import measure_resend_interference, run_protocol
        config = dataclasses.replace(lfsr_config(n=4000), channel=channel)
        hook = measure_resend_interference(AttackStrategy.parse("intercept"))
        seen, runs = [], []
        monkeypatch.setattr(keyedqkd.adversary, "_state_round", _recording_state_round(seen))
        for resend_round in (_resend_round, _index_path):
            monkeypatch.setattr(keyedqkd.adversary, "_resend_round", resend_round)
            rng = np.random.default_rng(23)
            outcome = run_protocol(config, rng, interference=hook)
            runs.append((outcome.to_json_dict(), outcome.detected_positions.tolist(),
                         rng.bit_generator.state))
        assert seen == [slice(None)] * 2
        assert runs[0] == runs[1]

    # 200-qubit blocks give rows of 600 positions, whose counts pass 255; a
    # chunk of one trial of 1-qubit blocks measures 3 positions, fewer than
    # the table's 4 entries, so per position.
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("count,block_len", [(1, 1), (1, 8), (50, 8), (50, 200)])
    def test_block_guess_chunk(self, count, block_len, channel):
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            attack = _attack(2, count * 3 * block_len)
            got = _block_guess_chunk(count, rng, attack, k_blocks=3, block_len=block_len,
                                     channel=channel)
            _same_arrays(got, reference.block_guess_chunk(count, ref_rng, 3, block_len, channel))
            assert rng.bit_generator.state == ref_rng.bit_generator.state


    def test_snapped_edges_are_certain_as_the_clip_makes_them(self, monkeypatch):
        # Every edge p1 against measure_many's edge draws and the table's
        # every byte with edge tie draws: measure_many's sin^2 is replaced by
        # the identity, so that its angles are the p1 values themselves.
        p1 = np.array([0.0, ANGLE_TOL, math.nextafter(ANGLE_TOL, 1.0), 0.5 - ANGLE_TOL, 0.5,
                       _DRAW_MAX, 1.0 - ANGLE_TOL, 1.0])
        table = table_of(monkeypatch, p1, 256 * p1.size)
        assert table.p1.tolist() == [0.0, 0.0, p1[2], 0.5, 0.5, _DRAW_MAX, 1.0, 1.0]
        assert table.threshold.tolist() == [0, 0, 0, 128, 128, 255, 255, 255]
        codes = np.repeat(np.arange(p1.size, dtype=np.uint8), 256)
        data = np.tile(np.arange(256, dtype=np.uint8), p1.size)
        monkeypatch.setattr(keyedqkd.qubits, "_sin2", lambda d: d)
        for draw in [0.0, 1e-13, _DRAW_MAX, math.nextafter(1.0, 0.0)]:
            got = measure_codes(table, codes[None], GivenWords(data, [draw] * p1.size))[0]
            got = got.reshape(p1.size, 256)
            want = measure_many(p1, np.zeros(p1.size), GivenDraws([draw], 7))
            # Certain below and above the tolerances, on both paths.
            certain = [0, 1, 6, 7]
            assert want[certain].tolist() == [0, 0, 1, 1]
            assert (got[certain] == want[certain, None]).all()

    # Shifted tables, and unshifted ones off the two-basis alphabet, draw
    # bytes from the table.
    @pytest.mark.parametrize("m,shift", [(2, 0.3), (2, -PI / 8), (16, 0.0), (16, -0.3),
                                         (128, 0.0), (1024, 0.3), (1024, -PI / 8)])
    def test_the_table_draws_the_byte_rule_on_the_per_position_p1(self, m, shift):
        # The same offsets, of the narrowest dtype, through a table of 2m
        # entries and through the float reference on their angles.
        offsets = np.random.default_rng(m).integers(0, 2 * m, 4 * m)
        offsets = offsets.astype(np.min_scalar_type(2 * m - 1))
        table = OffsetTable(m, shift, offsets.size)
        assert table.p1 is not None and table.coins is None
        rng, ref_rng = np.random.default_rng(19), np.random.default_rng(19)
        _same_arrays([measure_codes(table, offsets.reshape(1, -1), rng)[0]],
                     [reference.measure_many_snapped(offsets * table.step, -shift, ref_rng,
                                                     "bytes")])
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    def test_resend_round_arrays(self, channel):
        config = lfsr_config(n=1000, m=16)
        bases = config.alphabet.angle(np.arange(16))
        mask = np.random.default_rng(1).random(config.n) < 0.4
        guess = np.random.default_rng(2).integers(0, 16, config.n)
        for attacked in (mask, slice(None)):
            rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
            got = one_row(_resend_round(_attack(16, config.n), config.key_selectors(),
                                        guess, attacked, channel, 1, rng), config.n)
            want = reference.resend_round(key_angles(config), channel, bases[guess], attacked,
                                          ref_rng, (bases, bases))
            _same_arrays(got, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("text", ["fixed:0.3", "breidbart", "intercept:0.5", "intercept:1"])
    def test_run_attack_state_strategies(self, text, channel, threads):
        config = dataclasses.replace(lfsr_config(n=600), channel=channel)
        strategy, trials = AttackStrategy.parse(text), 5
        report = run_attack(strategy, config, np.random.default_rng(8), trials=trials,
                            threads=threads)
        assert _statistics(report) == _reference_report(strategy, config, 8, trials)

    @pytest.mark.parametrize("text", ["fixed:0.3", "breidbart"])
    def test_state_attack_on_more_bases_than_positions(self, table_use, text):
        # At 2m > n every measurement is per position, and the counts equal
        # the float path's over all m bases.
        config = lfsr_config(n=300, m=4096, flip=0.1)
        strategy, trials = AttackStrategy.parse(text), 3
        report = run_attack(strategy, config, np.random.default_rng(8), trials=trials)
        assert _statistics(report) == _reference_report(strategy, config, 8, trials)
        # One block of the three rounds, whose two measurements are per position.
        assert table_use == [False] * 2

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    def test_run_attack_block_guess(self, channel, threads):
        config = dataclasses.replace(repetition_config(64, "10011010"), channel=channel)
        trials = TRIAL_CHUNK + 100
        report = run_attack(AttackStrategy.parse("blockguess:3"), config,
                            np.random.default_rng(9), trials=trials, threads=threads)
        parts = [reference.block_guess_chunk(count, chunk_rng, 3, 8, channel)
                 for count, chunk_rng in _chunk_rngs(np.random.default_rng(9), trials)]
        success, errors, eve_errors, detected = (np.concatenate([p[i] for p in parts])
                                                 for i in range(4))
        assert report.success_mc == binomial_ci(int(success.sum()), trials)
        assert report.induced_qber == binomial_ci(int(errors.sum()), int(detected.sum()))
        assert report.eve_bit_error == binomial_ci(int(eve_errors.sum()), 3 * 8 * trials)


class TestSharedTables:
    """Each attack builds its round-invariant values once, before its
    rounds run, and its rounds and threads share them read-only."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Records every OffsetTable the adversary builds."""
        seen = []

        def spy(m, shift, positions):
            seen.append(OffsetTable(m, shift, positions))
            return seen[-1]

        monkeypatch.setattr(keyedqkd.adversary, "OffsetTable", spy)
        return seen

    CASES = [("breidbart", 2), ("breidbart", 16), ("intercept", 2), ("intercept:0.5", 2),
             ("fixed:1.2", 2), ("keyguess", 2), ("keyguess", 16), ("blockguess:3", 2)]

    @staticmethod
    def attack(text, m, trials, threads=1, n=4096):
        config = (repetition_config(40, "10011010") if text.startswith("block")
                  else lfsr_config(n=n, m=m, flip=0.1, loss=0.1))
        return run_attack(AttackStrategy.parse(text), config, np.random.default_rng(3),
                          trials=trials, threads=threads)

    @pytest.mark.parametrize("text,m", CASES)
    def test_an_attack_builds_its_tables_once(self, built, text, m):
        # Whatever the trial count, one table per attack, which the
        # attacker's and the receiver's measurements share, and two for a
        # fixed basis, whose shifts set them apart. Block guessing at
        # 2 * TRIAL_CHUNK + 1 trials spans three chunks.
        tables = 2 if AttackStrategy.parse(text).kind == "fixed_basis" else 1
        counts = []
        for trials in (1, 64) + ((2 * TRIAL_CHUNK + 1,) if text.startswith("block") else ()):
            built.clear()
            self.attack(text, m, trials)
            counts.append(len(built))
        assert counts == [tables] * len(counts)

    def test_key_guessing_at_more_bases_than_positions_builds_one_table(self, built):
        # Every guess reads the same lattice, so one table serves all
        # rounds; at 2m > n it holds no entries, and each call measures per
        # position.
        for trials in (1, 5):
            built.clear()
            self.attack("keyguess", 4096, trials, n=300)
            assert len(built) == 1 and built[0].p1 is None

    @pytest.mark.parametrize("text,m", CASES)
    def test_shared_values_are_read_only(self, built, monkeypatch, text, m):
        shared = []
        for name in ("_attack", "_decoding_flips", "_key_guess_target"):
            real = getattr(keyedqkd.adversary, name)

            def spy(*args, real=real, **kwargs):
                shared.append(real(*args, **kwargs))
                return shared[-1]

            monkeypatch.setattr(keyedqkd.adversary, name, spy)
        self.attack(text, m, 3)

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)
            elif dataclasses.is_dataclass(value):
                yield from arrays([getattr(value, f.name) for f in dataclasses.fields(value)])
            elif isinstance(value, OffsetTable):
                yield from arrays([getattr(value, name) for name in OffsetTable.__slots__])

        found = list(arrays(shared + built))
        assert built and any(table.p1 is not None for table in built)
        assert found and not any(a.flags.writeable for a in found)
        with pytest.raises(ValueError, match="read-only"):
            built[0].p1[0] = 0.0

    @pytest.mark.parametrize("text,m", CASES)
    def test_reports_are_equal_at_one_and_two_threads(self, text, m):
        # More than one chunk of guesses or block trials, and several rounds;
        # a short switch interval makes the two workers interleave often.
        trials = TRIAL_CHUNK + 5 if text.startswith(("key", "block")) else 6
        one = self.attack(text, m, trials, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            two = self.attack(text, m, trials, threads=2)
        finally:
            sys.setswitchinterval(interval)
        assert one == two


def _same_state(a, b) -> bool:
    """Generator states equal, array entries (MT19937's key) included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


class TestRoundBlocks:
    """Attack rounds run in blocks of B rounds, one child generator per
    block: each step of a block is one numpy call over all its rows, and
    draws for every row from the block's generator in C order. A block
    equals tests/reference.py drawing that stream by hand, and a block of
    one row draws what one round drew when each round had a generator of
    its own."""

    CHANNELS = [ChannelModel(), ChannelModel(loss=0.3), ChannelModel(flip_prob=0.1)]
    CHANNEL_IDS = ["noiseless", "lossy", "flipping"]

    # (m, n): tables of 2m <= n entries, the coin table of intercept and
    # key guessing at m = 2 and doubles elsewhere, rows of doubles past
    # one compare piece at n = 9000, and per-position measurements at
    # m = 1024 and 2^16 with n = 300 < 2m.
    PATHS = [(2, 700), (2, 9000), (16, 700), (1024, 2100), (1024, 300), (2 ** 16, 300)]

    @staticmethod
    def kernel(strategy, config):
        """The block kernel of `strategy` against `config`, a function of the
        block's row count and generator; key guessing draws the rows'
        guesses first."""
        if strategy.kind == "key_guess":
            attack, length = guess_key(config), len(config.keystream.seed)
            return lambda count, rng: _guess_round(config, attack,
                                                   uniform_bits(rng, (count, length)), rng)
        attack = _attack(config.alphabet.m, config.n, strategy, config.key_selectors())
        flips = _decoding_flips(strategy, config.alphabet, attack.key_codes)
        return lambda count, rng: _counts(*_state_round(attack, config.channel, count, rng), flips)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937],
                             ids=["pcg64", "mt19937"])
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("m,n", PATHS)
    @pytest.mark.parametrize("text", ["breidbart", "fixed:0.3", "fixed:1.2", "intercept",
                                      "keyguess"])
    def test_a_block_equals_the_reference_drawing_its_stream(self, text, m, n, channel,
                                                             bit_generator):
        config = dataclasses.replace(lfsr_config(n=n, m=m, **DENSE_KEY), channel=channel)
        strategy = AttackStrategy.parse(text)
        kernel = self.kernel(strategy, config)
        for rows in (1, 3):
            rng, ref_rng = (np.random.Generator(bit_generator(rows)) for _ in range(2))
            eve, attacked, user, detected = (c.tolist() for c in kernel(rows, rng))
            if strategy.kind == "key_guess":
                got = [(e / n, u, d) for e, u, d in zip(eve, user, detected)]
                want = reference.key_guess_rounds(config, ref_rng, rows)
            else:
                got = list(zip(eve, attacked, user, detected))
                want = reference.state_attack_counts(strategy, config, channel, ref_rng, rows)
            assert got == want, rows
            assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state), rows

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("text,m", [
        ("breidbart", 2), ("breidbart", 16), ("fixed:0.3", 2), ("fixed:1.2", 2),
        ("intercept", 2), ("intercept:0.5", 2), ("keyguess", 2), ("keyguess", 16)])
    def test_reports_equal_the_reference_blocks_at_one_and_two_threads(self, monkeypatch, text,
                                                                       m, channel):
        # 13 rounds of 12 500 uint8 codes: blocks of 5, 5 and 3 rounds,
        # except intercept below fraction 1, whose rounds attack different
        # numbers of positions and run one to a block.
        config = dataclasses.replace(lfsr_config(n=12_500, m=m, **DENSE_KEY), channel=channel)
        strategy = AttackStrategy.parse(text)
        sizes, real = [], keyedqkd.adversary._resend_round

        def spy(*args):
            sizes.append(args[-2])
            return real(*args)

        def attack(threads):
            return run_attack(strategy, config, np.random.default_rng(40), trials=13,
                              threads=threads)

        monkeypatch.setattr(keyedqkd.adversary, "_resend_round", spy)
        blocked = attack(1)
        assert sizes == ([1] * 13 if strategy.fraction < 1.0 else [5, 5, 3])
        assert _statistics(blocked) == _reference_report(strategy, config, 40, 13)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert attack(2) == blocked
        finally:
            sys.setswitchinterval(interval)
        # One round to a block: each round draws from a child of its own,
        # as every round did before blocks shared a generator, and the
        # reports of multi-round blocks move.
        sizes.clear()
        monkeypatch.setattr(keyedqkd.adversary, "BLOCK_BYTES", 1)
        alone = attack(1)
        assert sizes == [1] * 13
        assert _statistics(alone) == _reference_report(strategy, config, 40, 13)
        assert (alone == blocked) == (strategy.fraction < 1.0)

    def test_block_sizes_depend_on_the_rounds_and_their_bytes_alone(self):
        def sizes(trials, row_bytes):
            blocks = _chunk_rngs(np.random.default_rng(0), trials, _block_size(trials, row_bytes))
            return [count for count, _ in blocks]

        # The attacks workload: 16 rounds of 12 500 uint8 codes.
        assert sizes(16, 12_500) == [4] * 4
        assert sizes(13, 12_500) == [5, 5, 3]
        assert sizes(16, 25_000) == [2] * 8
        assert sizes(6, 4096) == [6]
        assert sizes(1, 10 ** 6) == [1]
        assert sizes(5, BLOCK_BYTES) == [1] * 5
        # Every block holds at most BLOCK_BYTES of codes.
        for trials in range(1, 40):
            for row_bytes in (1, 300, 4096, 12_500, 40_000):
                assert max(sizes(trials, row_bytes)) * row_bytes <= max(BLOCK_BYTES, row_bytes)

    def test_each_block_draws_from_one_child_generator(self):
        # Blocks of 5, 5 and 3 rounds take the first three seeds of one draw.
        seeds = np.random.default_rng(3).integers(0, 2 ** 63, size=3)
        blocks = list(_chunk_rngs(np.random.default_rng(3), 13, _block_size(13, 12_500)))
        assert [count for count, _ in blocks] == [5, 5, 3]
        for seed, (_, child) in zip(seeds.tolist(), blocks):
            assert child.random() == np.random.default_rng(seed).random()

    def test_blocks_are_grouped_lazily(self):
        rng = np.random.default_rng(3)
        count, _ = next(_chunk_rngs(rng, 10 ** 18, _block_size(10 ** 18, BLOCK_BYTES)))
        assert count == 1
        # Only the first piece of seeds was drawn from the caller's generator.
        reference = np.random.default_rng(3)
        reference.integers(0, 2 ** 63, size=SEED_DRAW)
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("trials", [0, -1, 2.5])
    def test_rejects_a_bad_trial_count(self, trials):
        with pytest.raises(ValueError, match="trials must be"):
            _block_size(trials, 100)


def _row_bytes(strategy, config) -> int:
    """The bytes of one round's codes, which size its block; intercept below
    fraction 1 runs one round to a block."""
    if strategy.fraction < 1.0:
        return BLOCK_BYTES
    return config.n * np.min_scalar_type(2 * config.alphabet.m - 1).itemsize


def _reference_rounds(strategy, config, seed, trials):
    """(successful guesses, per-round counts) of run_attack on a generator
    seeded with `seed`, from tests/reference.py's kernels: each block of
    _block_size rounds drawn by hand from the child generator that
    run_attack seeds for it. Key guessing first counts its successes over
    chunks of guesses (None for the other attacks), and its counts are
    (her error rate, user errors, detected)."""
    rng = np.random.default_rng(seed)
    if strategy.kind == "key_guess":
        successes = sum(reference.key_guess_successes(config.keystream.seed.bits, count, child)
                        for count, child in _chunk_rngs(rng, trials))
        trials = min(trials, MAX_QUBIT_TRIALS)

        def block(child, rows):
            return reference.key_guess_rounds(config, child, rows)
    else:
        successes = None

        def block(child, rows):
            return reference.state_attack_counts(strategy, config, config.channel, child, rows)
    blocks = _chunk_rngs(rng, trials, _block_size(trials, _row_bytes(strategy, config)))
    return successes, [row for rows, child in blocks for row in block(child, rows)]


def _reference_report(strategy, config, seed, trials):
    """_statistics of run_attack's report, rebuilt from _reference_rounds."""
    successes, rounds = _reference_rounds(strategy, config, seed, trials)
    if successes is None:
        eve_err, eve_tot, user_err, user_tot = (sum(r[i] for r in rounds) for i in range(4))
        return (binomial_ci(eve_err, eve_tot) if eve_tot else None,
                binomial_ci(user_err, user_tot) if user_tot else None, None)
    # Her rates add up round by round, in order, as Python floats.
    rate, errors, detected = (sum(r[i] for r in rounds) for i in range(3))
    qubits = len(rounds) * config.n
    return (ConfidenceInterval(rate / len(rounds), 4.0 * math.sqrt(0.25 / qubits)),
            ConfidenceInterval(errors / detected, 4.0 * math.sqrt(0.25 / detected))
            if detected else None,
            binomial_ci(successes, trials))


def _statistics(report):
    """The Monte Carlo fields of an AttackReport: her bit error, the induced
    rate and the success rate."""
    return report.eve_bit_error, report.induced_qber, report.success_mc


@st.composite
def attack_cases(draw):
    """A run_attack case: (strategy, config, seed, trials, threads). Intercept
    runs on the two-basis alphabet, at fractions 0 and 1 and between."""
    kind = draw(st.sampled_from(["intercept", "breidbart", "fixed", "keyguess"]))
    if kind == "intercept":
        fraction = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        strategy = AttackStrategy("intercept_resend_random", fraction=fraction)
    elif kind == "fixed":
        strategy = AttackStrategy("fixed_basis", phi=draw(st.floats(0.0, PI, exclude_max=True)))
    else:
        strategy = AttackStrategy.parse(kind)
    m = 2 if kind == "intercept" else 2 ** draw(st.integers(1, 10))
    config = lfsr_config(n=draw(st.integers(1, 300)), m=m, loss=draw(st.sampled_from([0.0, 0.2])),
                         flip=draw(st.sampled_from([0.0, 0.1])))
    return (strategy, config, draw(st.integers(0, 2 ** 32)), draw(st.integers(1, 7)),
            draw(st.sampled_from([1, 2])))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(case=attack_cases())
def test_reports_equal_the_reference_on_the_same_streams(case):
    # The statistics of run_attack's report, rebuilt from tests/reference.py's
    # float-angle kernels drawing each block from the same child generator.
    strategy, config, seed, trials, threads = case
    report = run_attack(strategy, config, np.random.default_rng(seed), trials=trials,
                        threads=threads)
    assert _statistics(report) == _reference_report(strategy, config, seed, trials)


class TestCertainMasks:
    """A probability of 0 draws, builds and reads no mask, and a full
    interception draws no attack mask; draws and outputs stay the same."""

    def test_a_noiseless_channel_draws_nothing(self):
        rng = np.random.default_rng(0)
        assert ChannelModel().draw(rng, (3, 100)) == (None, None)
        lost, flipped = ChannelModel(loss=0.3).draw(rng, (3, 100))
        assert lost.shape == (3, 100) and flipped is None
        lost, flipped = ChannelModel(flip_prob=0.1).draw(rng, 100)
        assert lost is None and flipped.shape == (100,)
        want = np.random.default_rng(0)
        want.random(300), want.random(100)
        assert rng.bit_generator.state == want.bit_generator.state

    def test_a_round_that_loses_nothing_has_no_detected_mask(self):
        config = lfsr_config(n=500)
        attack = _attack(2, config.n, AttackStrategy.parse("breidbart"), config.key_selectors())
        *_, detected, _ = _state_round(attack, ChannelModel(flip_prob=0.1), 1,
                                       np.random.default_rng(0))
        assert detected is None
        *_, detected, _ = _state_round(attack, ChannelModel(loss=0.1), 1, np.random.default_rng(0))
        assert detected.shape == (1, 500)

    def test_full_interception_draws_no_attack_mask(self, monkeypatch):
        def no_mask(*args):
            raise AssertionError("a mask was drawn at fraction 1")

        monkeypatch.setattr(keyedqkd.adversary, "uniform_below", no_mask)
        selectors = lfsr_config(n=64).key_selectors()
        attack = _attack(2, 64, AttackStrategy.parse("intercept"), selectors)
        _, outcome, *_, attacked = _state_round(attack, ChannelModel(), 2, np.random.default_rng(0))
        assert attacked == slice(None) and outcome.shape == (2, 64)
        # At fraction 0 the mask is None, and she attacks nothing.
        monkeypatch.undo()
        attack = _attack(2, 64, AttackStrategy.parse("intercept:0"), selectors)
        _, outcome, *_, attacked = _state_round(attack, ChannelModel(), 1, np.random.default_rng(1))
        assert attacked == slice(0) and outcome.shape == (1, 0)

    @pytest.mark.parametrize("text", ["breidbart", "fixed:1.2", "intercept:0.5"])
    def test_only_the_monte_carlo_attack_builds_decoding_flips(self, monkeypatch, text):
        from keyedqkd import measure_resend_interference, run_protocol
        built, real = [], keyedqkd.adversary._decoding_flips

        def spy(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(keyedqkd.adversary, "_decoding_flips", spy)
        strategy, config = AttackStrategy.parse(text), lfsr_config(n=4000)
        run_protocol(config, np.random.default_rng(0),
                     interference=measure_resend_interference(strategy))
        assert built == []
        run_attack(strategy, config, np.random.default_rng(0), trials=2)
        assert len(built) == 1
        assert (built[0] is not None) == (text == "fixed:1.2")

    # pi/4 lies on the threshold of basis 0; n = 5 < m = 16 tests per position.
    @pytest.mark.parametrize("phi", [PI / 8, 0.3, PI / 4, 1.2])
    @pytest.mark.parametrize("m,n", [(2, 300), (4, 300), (16, 300), (16, 5), (1024, 300)])
    def test_decoding_flips_equal_the_per_position_test(self, m, n, phi):
        alphabet = BasisAlphabet(m)
        strategy = AttackStrategy("fixed_basis", phi=phi)
        for seed in range(3):
            selectors = np.random.default_rng(seed).integers(0, m, n)
            selectors = selectors.astype(np.min_scalar_type(2 * m - 1))
            want = np.cos(alphabet.angle(selectors) - strategy.phi) ** 2 < 0.5
            got = _decoding_flips(strategy, alphabet, selectors)
            if want.any():
                _same_arrays([got], [want])
                assert not got.flags.writeable
            else:
                assert got is None


@pytest.mark.parametrize("width", [1, 15, 255, 256, 300])
def test_row_counts_equal_count_nonzero(width):
    # Random rows, and all-ones rows whose counts reach the row width.
    bits = (np.random.default_rng(width).random((70, width)) < 0.5).view(np.uint8)
    bits[:3] = 1
    for rows in (bits, bits.view(bool)):
        counts = _row_counts(rows)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.count_nonzero(rows, axis=1))


class TestCoinDraws:
    """measure_codes draws one bit per position, not one double, when every
    entry of its snapped p1 table is 0, 1 or within ANGLE_TOL of 1/2 and the
    table has the 4 entries of the two-basis alphabet. The
    rule reads the table, never the positions. table_of builds a table of
    the given entries."""

    @staticmethod
    def measure(monkeypatch, p1, codes, seed):
        """measure_codes on a table of the entries `p1` at offsets `codes`, and
        the generator it drew from."""
        rng = np.random.default_rng(seed)
        got = measure_codes(table_of(monkeypatch, p1, codes.size), codes.reshape(1, -1), rng)
        return got.reshape(codes.shape), rng

    @pytest.mark.parametrize("shift", [0.0, PI / 8, -PI / 8, PI / 4, -PI / 4, 0.3])
    @pytest.mark.parametrize("m", [4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_a_table_past_two_bases_never_draws_coins(self, m, shift):
        # Adjacent entries lie pi/(2m) < pi/4 apart, so they cannot both sit
        # on multiples of pi/4: the per-entry oracle finds no coin table either.
        table = OffsetTable(m, shift, 2 * m)
        assert table.coins is None
        assert reference.coin_outcome_bytes(table.p1) is None

    @pytest.mark.parametrize("k", range(-4, 5))
    def test_a_two_basis_mask_holds_the_outcome_of_each_entry_at_each_bit(self, k):
        # Shifts on the multiples of pi/4 give coin tables; bit 2e + b of the
        # mask is byte 2e + b of the per-(entry, bit) oracle.
        table = OffsetTable(2, k * PI / 4, 4)
        assert table.coins.shape == () and table.coins.dtype == np.uint8
        assert not table.coins.flags.writeable
        slots = bytes(int(table.coins) >> i & 1 for i in range(8))
        assert slots == reference.coin_outcome_bytes(table.p1)

    @pytest.mark.parametrize("edge", [0.5 - ANGLE_TOL, 0.5 + ANGLE_TOL])
    def test_an_entry_on_the_half_tolerance_is_a_coin(self, monkeypatch, edge):
        codes = np.tile(np.arange(3, dtype=np.uint8), 100).reshape(20, 15)
        got, rng = self.measure(monkeypatch, [0.0, 1.0, edge], codes, 11)
        want_rng = np.random.default_rng(11)
        bits = uniform_bits(want_rng, codes.size).reshape(codes.shape)
        # Certain 0 at code 0, certain 1 at code 1, the position's bit at code 2.
        _same_arrays([got], [np.where(codes == 2, bits, codes).astype(np.uint8)])
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_a_coin_table_past_half_the_code_range_does_not_wrap(self, monkeypatch):
        # 201 entries (256 with the padding) on uint8 codes, each 0, 1 or
        # 1/2: only a two-basis table draws coins, so this one draws one
        # byte per position against the entry its code gathers.
        p1 = np.tile([0.0, 1.0, 0.5], 67)
        codes = np.tile(np.arange(p1.size, dtype=np.uint8), 3)
        got, rng = self.measure(monkeypatch, p1, codes, 17)
        want_rng = np.random.default_rng(17)
        _same_arrays([got], [reference.byte_outcomes(p1[codes], want_rng)])
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("entries", ["halves", "sines"])
    def test_a_table_index_past_the_range_of_the_codes_does_not_wrap(self, monkeypatch, entries):
        # Offsets that fill their uint8: 256 entries, m = 128. Entries of
        # 0, 1/2 and 1 still draw bytes there, as only a two-basis table
        # draws coins.
        offsets = np.tile(np.random.default_rng(3).permutation(256).astype(np.uint8), 3)
        rng = np.random.default_rng(18)
        if entries == "halves":
            p1 = np.tile([0.0, 0.5, 1.0, 0.5], 64)
            got = measure_codes(table_of(monkeypatch, p1, offsets.size), offsets[None], rng)[0]
            want = reference.byte_outcomes(p1[offsets], np.random.default_rng(18))
        else:
            got = measure_codes(OffsetTable(128, 0.0, offsets.size), offsets[None], rng)[0]
            want = reference.measure_many_snapped(offsets * (PI / 2 / 128), 0.0,
                                                  np.random.default_rng(18), "bytes")
        _same_arrays([got], [want])

    @pytest.mark.parametrize("p1", [
        [0.0, 1.0, 0.5 - 2 * ANGLE_TOL], [0.0, 1.0, 0.5 + 2 * ANGLE_TOL],
        [0.0, 1.0, 0.5, 0.3]], ids=["half-minus-2tol", "half-plus-2tol", "one-other-entry"])
    def test_a_table_with_another_entry_draws_bytes(self, monkeypatch, p1):
        # Positions gather codes 0..2 only: the entry that sends the call
        # down the byte path need not be gathered at all.
        codes = np.tile(np.arange(3, dtype=np.uint8), 100)
        got, rng = self.measure(monkeypatch, p1, codes, 12)
        want_rng = np.random.default_rng(12)
        _same_arrays([got], [reference.byte_outcomes(np.array(p1)[codes], want_rng)])
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("positions", [64, 130])
    def test_certain_positions_of_a_coin_table_still_draw_a_bit_each(self, monkeypatch,
                                                                     positions):
        codes = np.arange(positions) % 2
        got, rng = self.measure(monkeypatch, [0.0, 1.0, 0.5], codes, 13)
        want_rng = np.random.default_rng(13)
        want_rng.integers(0, 1 << 64, size=-(-positions // 64), dtype=np.uint64)
        _same_arrays([got], [codes.astype(np.uint8)])
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_coin_positions_read_half(self):
        # State 0 in the basis at pi/4, offset -1 mod 4 on the two-basis
        # lattice, from the table that intercept reads.
        positions = 2 ** 20
        offsets = np.full(positions, 3, dtype=np.uint8)
        ones = int(measure_codes(OffsetTable(2, 0.0, positions), offsets[None],
                                 np.random.default_rng(14)).sum())
        assert abs(ones / positions - 0.5) < 4 * math.sqrt(0.25 / positions)

    @pytest.fixture
    def coin_draws(self, monkeypatch):
        """Counts the bit draws measure_codes makes; the adversary's own bit
        draws go through its imported name and are not counted."""
        seen = []

        def spy(rng, shape):
            seen.append(shape)
            return uniform_bits(rng, shape)

        monkeypatch.setattr(keyedqkd.qubits, "uniform_bits", spy)
        return seen

    @pytest.mark.parametrize("m,text,coins", [
        (2, "fixed:0.3", 0), (2, "breidbart", 0), (16, "fixed:0.3", 0), (16, "breidbart", 0),
        (2, "fixed:0", 2), (16, "fixed:0", 0), (2, "intercept:1", 2), (2, "intercept:0.5", 2)])
    def test_only_two_basis_measure_resend_rounds_draw_coins(self, coin_draws, m, text, coins):
        config = lfsr_config(n=3000, m=m)
        state_round(AttackStrategy.parse(text), config, ChannelModel(flip_prob=0.1),
                    np.random.default_rng(15))
        assert len(coin_draws) == coins

    @pytest.mark.parametrize("m,coins", [(2, 2), (16, 0)])
    def test_key_guess_rounds_draw_coins_on_two_bases_only(self, coin_draws, m, coins):
        config = lfsr_config(n=2500, m=m, flip=0.1)
        guess = SeedKey.from_string("01101100")
        guess_round(config, guess.bits, np.random.default_rng(16))
        assert len(coin_draws) == coins


class TestByteDraws:
    """measure_codes on a table that is not a coin table draws one byte per
    position and, after all of them, one double per tie: outcome 1 below
    t = min(floor(256 p1), 255), 0 above it, and R < f = 256 p1 - t at
    the tie. Here t and f are rebuilt from the table's p1."""

    @staticmethod
    def table(monkeypatch, name):
        if name == "edges":
            p1 = [0.0, 1.0, 2.0 ** -9, 1.0 - 2.0 ** -9, 1.0 / 3.0, 0.5 - 2 * ANGLE_TOL,
                  0.5 + 2 * ANGLE_TOL, _DRAW_MAX, math.nextafter(ANGLE_TOL, 1.0)]
            return table_of(monkeypatch, p1, 1 << 20)
        m, shift = name
        return OffsetTable(m, shift, 1 << 20)

    TABLES = ["edges", (2, PI / 8), (2, -1.2), (16, 0.0), (16, -0.3), (128, 0.3)]

    @pytest.mark.parametrize("name", TABLES, ids=str)
    def test_every_byte_at_every_entry(self, monkeypatch, name):
        table = self.table(monkeypatch, name)
        assert table.coins is None
        entries = table.p1.size
        t = np.minimum(np.floor(256 * table.p1), 255)
        f = 256 * table.p1 - t
        assert table.threshold.tolist() == t.tolist() and table.fraction.tolist() == f.tolist()
        codes = np.repeat(np.arange(entries), 256).astype(np.min_scalar_type(entries - 1))
        data = np.tile(np.arange(256, dtype=np.uint8), entries)
        below = np.arange(256) < t[:, None]
        # One tie per entry, at its byte t, drawn in entry order: a double
        # on f itself, just below it, and random ones; none reaches 1.
        last = math.nextafter(1.0, 0.0)
        for doubles in (np.minimum(f, last), np.maximum(np.nextafter(f, 0.0), 0.0),
                        np.random.default_rng(entries).random(entries)):
            rng = GivenWords(data, doubles)
            got = measure_codes(table, codes[None], rng)[0].reshape(entries, 256)
            assert rng.calls == [("words", (1, 32 * entries)), ("doubles", entries)]
            want = below.astype(np.uint8)
            want[np.arange(entries), t.astype(int)] = doubles < f
            _same_arrays([got], [want])
            # A snapped entry is certain for every byte.
            assert not got[table.p1 == 0.0].any() and got[table.p1 == 1.0].all()

    @pytest.mark.parametrize("p1", [2.0 ** -9, math.sin(PI / 8) ** 2, 1.0 / 3.0, 1.0 - 2.0 ** -9],
                             ids=["2^-9", "sin2(pi/8)", "1/3", "1-2^-9"])
    def test_frequencies_match_probabilities(self, monkeypatch, p1):
        # 2^20 draws in 16 rows, a table of [p1, 0, 0, 0] read at entry 0.
        codes = np.zeros((16, 1 << 16), np.uint8)
        table = table_of(monkeypatch, [p1, 0.0, 0.0, 0.0], codes.size)
        ones = int(measure_codes(table, codes, np.random.default_rng(31)).sum())
        assert abs(ones / codes.size - p1) < 4 * math.sqrt(p1 * (1 - p1) / codes.size)

    # Rows whose bytes fill their words and rows that leave some unread, on
    # PCG64 (random_raw) and on Philox (integers).
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
    @pytest.mark.parametrize("m,shift", [(2, PI / 8), (16, -0.3)])
    @pytest.mark.parametrize("rows,n", [(1, 32), (1, 37), (3, 1001), (4, 4096)])
    def test_a_block_draws_its_bytes_then_its_ties(self, bit_generator, m, shift, rows, n):
        table = OffsetTable(m, shift, n)
        offsets = np.random.default_rng(n).integers(0, 2 * m, (rows, n)).astype(np.uint8)
        rng = np.random.Generator(bit_generator(5))
        ref_rng = np.random.Generator(bit_generator(5))
        got = measure_codes(table, offsets, rng)
        _same_arrays([got], [reference.byte_outcomes(table.p1[offsets], ref_rng)])
        # Philox's state holds arrays, which repr writes out in full.
        assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)


@pytest.mark.parametrize("shift", [0.0, -0.3, 0.3])
@pytest.mark.parametrize("m", [2, 16, 1024])
def test_numpy_sin_of_a_table_is_bitwise_equal_to_sin_of_the_full_array(m, shift):
    """The coded kernels rest on this: np.sin gives each float the same bits
    whether it is computed once in a table of the 2m offset angles or
    wherever it sits in a full per-position array. If a numpy build breaks
    it, the table path's outcomes drift from the per-position path's and
    this test names the cause.
    """
    positions = 2 ** 18
    offsets = np.random.default_rng(m).integers(0, 2 * m, positions)
    step = BasisAlphabet(m).angle(1)
    full = np.sin(offsets * step + shift) ** 2
    coded = _sin2(np.arange(2 * m) * step + shift).take(offsets)
    assert np.array_equal(coded.view(np.uint64), full.view(np.uint64))
