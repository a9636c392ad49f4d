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
    expand_running_key,
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
    _key_guess_successes,
    _map_chunks,
    _pack,
    _packed_round,
    _packs,
    _resend_round,
    _row_counts,
    _state_counts,
    _state_round,
    _word_counts,
)
from keyedqkd.analysis import ConfidenceInterval, binomial_ci
from keyedqkd.keystream import lfsr_rows
from keyedqkd.qubits import (ANGLE_TOL, MeasBasis, OffsetTable, _DRAW_MAX, _sin2, _thresholds,
                             measure_codes, measure_coin_words, measure_many, uniform_bits)

import reference
from reference import GivenDraws, GivenWords, key_angles, key_guess_successes
from test_keystream import table_blocks

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


def state_kernel(strategy, config, channel):
    """The block kernel of intercept, fixed-basis or key-guess rounds
    against `config`'s keyed bases over `channel`, a function of the
    block's row count and generator, as the Monte Carlo attack runs it: its
    decoding flips _pack'ed when it runs on packed words."""
    taps = config.keystream.spec.taps if strategy.kind == "key_guess" else None
    attack = _attack(config.alphabet.m, config.n, strategy, config.key_selectors(), taps)
    flips = _decoding_flips(strategy, config.alphabet, attack.key_codes)
    if attack.key_words is not None and flips is not None:
        flips = _pack(flips)
    return partial(_state_counts, attack, flips, channel)


def state_round(strategy, config, channel, rng):
    """One intercept or fixed-basis round against `config`'s keyed bases: the
    counts of a block of one row, as ints."""
    return tuple(int(c[0]) for c in state_kernel(strategy, config, channel)(1, rng))


def guess_key(config):
    """What every key-guess round against `config` shares."""
    return _attack(config.alphabet.m, config.n, AttackStrategy("key_guess"),
                   config.key_selectors(), config.keystream.spec.taps)


class GuessFirst:
    """A stand-in generator off PCG64, so uniform_words asks it for
    integers: its first draw, the guesses of a key-guess _state_round,
    returns the words of the 0/1 rows `guesses` and draws nothing; every
    later draw is the generator `rng`'s own, which on PCG64 takes what its
    raw words would."""

    bit_generator = None

    def __init__(self, guesses, rng):
        self.words, self.rng = _pack(np.asarray(guesses, np.uint8)), rng

    def integers(self, low, high, size=None, dtype=None):
        if self.words is None:
            return self.rng.integers(low, high, size=size, dtype=dtype)
        words, self.words = self.words.reshape(size), None
        return words

    def __getattr__(self, name):
        return getattr(self.rng, name)


def guess_round(config, guess_bits, rng):
    """One key-guess round under `guess_bits`, a _state_round block of one
    row whose other draws come from `rng`: (her bit-error rate, user
    errors, detected count)."""
    _, errors, detected, _ = _state_round(guess_key(config), config.channel, 1,
                                          GuessFirst([guess_bits], rng))
    eve_errors, _, errors, detected = _counts(config.n, errors, detected)
    return float(eve_errors[0] / config.n), int(errors[0]), int(detected[0])


def one_row(result, n):
    """A one-row block's (alice, errors, detected) as one round's (alice,
    her errors, user errors, detected): row 0 of each, and an all-true
    mask of n entries for a detected mask of None."""
    alice, (her, user), detected = result
    return tuple(np.ones(n, bool) if a is None else a[0] for a in (alice, her, user, detected))


def reference_errors(alice, outcome, bob, detected):
    """reference.resend_round's arrays as one_row reads a kernel's: alice,
    her outcomes XOR alice, the receiver's bits XOR alice on detected
    positions, and the detected mask."""
    return alice, outcome ^ alice, (bob ^ alice) & detected, detected


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

    # Fractions that a %g label would round to 1, or to one label for two.
    @pytest.mark.parametrize("fraction", [0, 0.0, 0.1, 0.5, 0.1234567, 0.1234568, 0.9999999,
                                          np.float64(1 / 3), 1, 1.0])
    def test_the_report_names_the_attack_that_ran(self, fraction):
        strategy = AttackStrategy("intercept_resend_random", fraction=fraction)
        report = run_attack(strategy, lfsr_config(n=64), np.random.default_rng(0))
        assert AttackStrategy.parse(report.strategy).fraction == strategy.fraction
        assert "np." not in report.strategy
        assert (report.strategy == "intercept") == (fraction == 1)


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

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox,
                                               np.random.SFC64])
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 7, 16, 64, 65, 130])
    # A draw takes BLOCK_BYTES of guess rows: 8192 of one word, 4096 of
    # two and 2730 of three, so the counts fall on either side of each.
    @pytest.mark.parametrize("count", [2730, 2731, 4095, 4096, 4097, 8191, 8192, 8193, 16385])
    def test_success_count_matches_the_int64_reference(self, length, count, bit_generator):
        # Seeds taken from rows the reference itself draws, so long seeds
        # still have successes to count; a guess takes whole 64-bit words,
        # and past 64 bits it spans several, the last one masked. The
        # reference draws every guess at once, so guesses drawn a chunk at
        # a time must split one draw; the last row lies past every chunk.
        width = -(-length // 64)
        for seed in range(2):
            def generator():
                return np.random.Generator(bit_generator(seed))

            rows = reference.word_bits(generator(), (count, width))[:, :length]
            # Each row is the guess uniform_bits draws for one trial.
            draw = generator()
            for row in rows[:3]:
                assert np.array_equal(uniform_bits(draw, length), row)
            for row in (0, count // 2, count - 1):
                seed_bits = rows[row]
                got = _key_guess_successes(seed_bits, count, generator())
                assert got >= 1
                assert got == key_guess_successes(seed_bits, count, generator())
                # The seed with its last bit flipped: a guess that matches
                # only its earlier words is no hit.
                near = seed_bits.copy()
                near[-1] ^= 1
                rng, ref = generator(), generator()
                assert (_key_guess_successes(near, count, rng)
                        == key_guess_successes(near, count, ref))
                assert _same_state(rng.bit_generator.state, ref.bit_generator.state)
        # A pending 32-bit half is left pending: the guesses take whole 64-bit draws.
        rng, ref = generator(), generator()
        rng.integers(0, 2), ref.integers(0, 2)
        assert (_key_guess_successes(seed_bits, count, rng)
                == key_guess_successes(seed_bits, count, ref))
        assert _same_state(rng.bit_generator.state, ref.bit_generator.state)
        assert rng.integers(0, 2, size=3).tolist() == ref.integers(0, 2, size=3).tolist()

    @pytest.mark.parametrize("length,rows", [(1, 8192), (64, 8192), (65, 4096), (130, 2730)])
    def test_success_draws_take_block_bytes_of_rows(self, monkeypatch, length, rows):
        shapes, real = [], keyedqkd.adversary.uniform_words
        monkeypatch.setattr(keyedqkd.adversary, "uniform_words",
                            lambda rng, shape: shapes.append(shape) or real(rng, shape))
        width = -(-length // 64)
        assert rows * width * 8 <= BLOCK_BYTES < (rows + 1) * width * 8
        _key_guess_successes(np.zeros(length, np.uint8), 2 * rows + 1, np.random.default_rng(0))
        assert shapes == [(rows, width), (rows, width), (1, width)]

    @pytest.mark.parametrize("trials,threads", [(0, 1), (2.5, 1), (5, 0), (5, 1.5)])
    def test_a_bad_count_raises_before_anything_is_drawn(self, trials, threads):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="trials|threads"):
            attack_key_guess(lfsr_config(n=40), rng, trials=trials, threads=threads)
        assert rng.bit_generator.state == state

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

    # Streams on either side of one 4096-bit block and of the largest
    # table's block, for registers of 4, 16 and 64 bits.
    @pytest.mark.parametrize("bits", [1, 2, 4, 10, 16])
    @pytest.mark.parametrize("taps", ["4:4,3", "16:16,15,13,4", "64:64,63,61,60"])
    def test_each_guess_row_is_the_per_guess_expansion(self, monkeypatch, taps, bits):
        spec, alphabet = LfsrSpec.from_text(taps), BasisAlphabet(2 ** bits)
        length, largest = spec.length, table_blocks(spec.length)[-1]
        seen, tables = [], []

        def recording_round(attack, key_codes, codes, channel, count, rng):
            seen.append(codes)
            zeros = np.zeros((count, 1), np.uint8)
            return zeros, (zeros, zeros), None

        monkeypatch.setattr(keyedqkd.adversary, "_resend_round", recording_round)
        jump_rows = keyedqkd.keystream._jump_rows
        monkeypatch.setattr(keyedqkd.keystream, "_jump_rows",
                            lambda taps, block: tables.append(block) or jump_rows(taps, block))
        rng = np.random.default_rng(length * bits)
        for stream in (4095, 4096, 4097, largest, largest + 1):
            for n in sorted({stream // bits, -(-stream // bits)}):
                config = lfsr_config(n=n, m=2 ** bits, taps=taps, seed_text="1" * length)
                # Codes at every m, so each row reaches _resend_round.
                attack = dataclasses.replace(guess_key(config), key_words=None)
                guesses = np.vstack([uniform_bits(rng, (2, length)), np.zeros(length, np.uint8)])
                tables.clear()
                _state_round(attack, config.channel, 3, GuessFirst(guesses, None))
                # One table, the smallest that covers the stream, or the largest.
                assert tables == [min(b for b in table_blocks(length) + [largest]
                                      if b >= min(n * bits, largest))]
                rows = seen.pop()
                assert rows.shape == (3, n)
                for row, guess in zip(rows, guesses):
                    want = expand_running_key(lfsr_rows(spec.taps, [guess], n * bits)[0], n,
                                              alphabet).selectors
                    assert np.array_equal(row, want), (n, guess)
                assert not rows[2].any()

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
        # No qubits, or no key, raise as such, not as a count of trials.
        for n, m_k, what in [(0, 4, "qubit count"), (-40, 4, "qubit count"),
                             (40, 0, "key length"), (40, -8, "key length")]:
            for run in (attack_block_guess, block_guess_trials):
                with pytest.raises(ValueError, match=f"{what} must be >= 1, got {min(n, m_k)}"):
                    run(n, m_k, 2, rng, trials=3)
        # Every count is checked before anything is drawn.
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


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


def inline_equals_the_reference(strategy, config, seed, bit_generator=np.random.PCG64):
    """transmit_round under `strategy`'s in-line interference draws what
    tests/reference.py's state_attack_round does on a generator of the same
    seed: the same arrays, the detected mask as positions, and the same
    generator state after."""
    from keyedqkd import measure_resend_interference, transmit_round
    rng, ref_rng = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    got = transmit_round(config, rng, measure_resend_interference(strategy))
    alice, _, bob, detected, _ = reference.state_attack_round(strategy, config, config.channel,
                                                              ref_rng)
    positions = np.flatnonzero(detected[0])
    _same_arrays(got, (alice[0, positions], bob[0, positions], positions))
    assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state)


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
        # attack, which the float reference draws by hand: the same arrays,
        # detected mask as positions, and the same generator state.
        # Intercept at m = 2 runs on packed words, breidbart and fixed:0.3
        # on codes.
        inline_equals_the_reference(AttackStrategy.parse(text),
                                    dataclasses.replace(lfsr_config(n=3000), channel=channel),
                                    22)

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("text", ["intercept:0.5", "intercept:1"])
    def test_inline_intercept_off_two_bases_measures_at_0_and_pi_4(self, text, channel):
        # At m = 16 her bases are lattice codes 0 and m/2, which the float
        # reference gives as angles, and the keyed codes off her mask.
        inline_equals_the_reference(AttackStrategy.parse(text),
                                    dataclasses.replace(lfsr_config(n=3000, m=16),
                                                        channel=channel),
                                    24)

    # sha256 of a run's outcome JSON with its final generator state, and of
    # Bob's bits from one round. The intercept pins were recorded once she
    # came to draw her mask per row and measure every position, in the
    # keyed basis off the mask, which at m = 2 runs on packed words. The
    # breidbart pins were recorded when every other table measurement
    # came to draw one byte per position and a double per tie.
    INLINE_PINS = {
        ("breidbart", 2): ("a81d9da1807527ee679715dac01d68b75f6c397fc465f7e1e67bbc92c3cb91ac",
                           "dbf93ffbf160333fceea0b1088472b5f06dda22c949d68b7227e2dc45083fb79"),
        ("breidbart", 16): ("20902ea1afae0a547e57df7a15fa22cef68c9decfaa0c8b7062a5c3d2bb8b30f",
                            "535456ee2d6bb120fadc88a2a612d71aaefa86cb94b329d8205774c9f7e3dc51"),
        ("intercept:0.5", 2): (
            "0c566c0a04a8fc3bd6a8935df14b59ca410564b8bf11e57bcaf3532abce68f5d",
            "78e459553991ef7a0521f17cfcbbe7f41e5d1d1a251d968f9360437a8ffc45a9"),
        ("intercept:0.5", 16): (
            "2c2e3f00f826dbb4aab285c5d3301011a9eb52a461dbfd24856b9d4607d92830",
            "a4d9ad2cc5d5e58494a2fcf9c9ff57be4f47310e2c6c20135e61e9d71cd9cc63"),
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


def _same_chunk(got, want, attacked):
    """A block-guess chunk's records equal the reference's, its counts held
    in the narrowest unsigned type that holds the `attacked` positions of a
    trial."""
    assert [a.dtype for a in got[1:]] == [np.min_scalar_type(attacked)] * 3
    _same_arrays([got[0], *(a.astype(np.int64) for a in got[1:])], want)


def _full_mask(seen):
    """The library's _attacked, but with an all-true mask, drawn from
    nothing, where it returns None at fraction 1: the path of a fraction
    below 1 on every position. Appends each mask to `seen`."""
    real = keyedqkd.adversary._attacked

    def attacked(attack, count, rng):
        mask = real(attack, count, rng)
        seen.append(np.ones((count, attack.key_codes.size), bool) if mask is None else mask)
        return seen[-1]

    return attacked


class TestCodedKernels:
    """The attack kernels on integer lattice offsets against their
    float-angle originals in tests/reference.py: identical outputs and the
    same generator state afterwards, both where a call gathers from its
    table of 2m entries (2m <= positions) and where it measures per
    position."""

    @pytest.fixture
    def table_use(self, monkeypatch):
        """Records, per measure_codes call, whether it took the table
        branch, and "packed" per measure_coin_words call."""
        seen = []

        def spy(table, offsets, rng):
            seen.append(table.p1 is not None and table.p1.size <= offsets.shape[1])
            return measure_codes(table, offsets, rng)

        def packed(table, high, low, rng):
            seen.append("packed")
            return measure_coin_words(table, high, low, rng)

        monkeypatch.setattr(keyedqkd.adversary, "measure_codes", spy)
        monkeypatch.setattr(keyedqkd.adversary, "measure_coin_words", packed)
        return seen

    # (m, n) on the table path (2m <= n) and on the per-position path
    # (2m > n); at n = 3000 two-basis intercept runs on packed words.
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
        packed = strategy.kind == "intercept_resend_random" and n >= 4
        assert table_use == (["packed"] if packed else [2 * m <= n]) * 6

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
                key_angles(config), channel, key_angles(guessed), ref_rng, (bases, bases))
            assert got == (float(np.mean(outcome != alice)),
                           int(np.sum((bob != alice) & detected)), int(np.sum(detected)))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        # Two-basis rounds of at least 4 positions run packed.
        assert table_use == (["packed"] if m == 2 and n >= 4 else [2 * m <= n]) * 6

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
    # their own narrow dtype, or in a fixed basis at 0.3. (On two bases
    # the lattice's coin table runs on packed words, never on codes.)
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("m,n,code,phi", [
        (2, 3000, np.uint8, 0.3), *((m, n, code, phi) for phi in (None, 0.3) for m, n, code in [
            (16, 3000, np.uint8), (128, 3000, np.uint8), (256, 3000, np.uint16),
            (4096, 300, np.uint16), (2 ** 16, 300, np.uint32)])])
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
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        attack = _attack(m, n, None if phi is None else AttackStrategy("fixed_basis", phi=phi))
        got = one_row(_resend_round(attack, key_codes, eve_codes, channel, 1, rng), n)
        want = reference.resend_round(key_angles[key_codes], channel, eve_angles, ref_rng,
                                      (key_angles, eve_bases))
        _same_arrays(got, reference_errors(*want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        _same_arrays((key_codes, eve_codes), inputs)
        assert set(code_dtypes) == {np.dtype(code)}

    # Intercept at m = 16, as in-line interference runs it, measures
    # keyed codes off her mask.
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("m,text,code", [
        (2, "breidbart", np.uint8), (16, "intercept:0.5", np.uint8), (16, "fixed:0.3", np.uint8),
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

    # Fraction 1 draws, builds and ANDs no mask; an all-true mask, drawn
    # from nothing, takes the path of every other fraction. Both give the
    # same report, on packed words and on codes (whose two-basis tables
    # then draw bytes).
    @pytest.mark.parametrize("kernel", ["packed", "codes"])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    def test_full_interception_equals_an_all_true_mask(self, monkeypatch, channel, threads,
                                                      kernel):
        config = dataclasses.replace(lfsr_config(n=600), channel=channel)
        strategy, seen = AttackStrategy.parse("intercept"), []
        if kernel == "codes":
            monkeypatch.setattr(keyedqkd.adversary, "_packs", lambda *args: False)

        def attack():
            return run_attack(strategy, config, np.random.default_rng(8), trials=5,
                              threads=threads)

        fast = attack()
        monkeypatch.setattr(keyedqkd.adversary, "_attacked", _full_mask(seen))
        assert attack() == fast
        # The five rounds of 600 positions run as one block.
        assert [mask.shape for mask in seen] == [(5, 600)]

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    def test_full_interception_inline_equals_an_all_true_mask(self, monkeypatch, channel):
        from keyedqkd import measure_resend_interference, run_protocol
        config = dataclasses.replace(lfsr_config(n=4000), channel=channel)
        hook = measure_resend_interference(AttackStrategy.parse("intercept"))
        seen, runs = [], []
        for attacked in (keyedqkd.adversary._attacked, _full_mask(seen)):
            monkeypatch.setattr(keyedqkd.adversary, "_attacked", attacked)
            rng = np.random.default_rng(23)
            outcome = run_protocol(config, rng, interference=hook)
            runs.append((outcome.to_json_dict(), outcome.detected_positions.tolist(),
                         rng.bit_generator.state))
        assert [mask.shape for mask in seen] == [(1, 4000)]
        assert runs[0] == runs[1]

    # 200-qubit blocks give trials of 600 positions, whose counts pass 255;
    # blocks longer than the chunk has blocks (3 a trial) give a row each;
    # a chunk of one trial with 1-qubit blocks has one row of 3 positions,
    # fewer than the table's 4 entries, so it measures per position.
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("count,block_len", [(1, 1), (1, 8), (50, 8), (50, 200)])
    def test_block_guess_chunk(self, count, block_len, channel):
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            attack = _attack(2, max(count * 3, block_len))
            got = _block_guess_chunk(count, rng, attack, k_blocks=3, block_len=block_len,
                                     channel=channel)
            _same_chunk(got, reference.block_guess_chunk(count, ref_rng, 3, block_len, channel),
                        3 * block_len)
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
        assert table.p1 is not None and not table.coins
        rng, ref_rng = np.random.default_rng(19), np.random.default_rng(19)
        _same_arrays([measure_codes(table, offsets.reshape(1, -1), rng)[0]],
                     [reference.measure_many_snapped(offsets * table.step, -shift, ref_rng,
                                                     "bytes")])
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    def test_resend_round_arrays(self, channel):
        config = lfsr_config(n=1000, m=16)
        bases = config.alphabet.angle(np.arange(16))
        guess = np.random.default_rng(2).integers(0, 16, config.n)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = one_row(_resend_round(_attack(16, config.n), config.key_selectors(), guess, channel,
                                    1, rng), config.n)
        want = reference.resend_round(key_angles(config), channel, bases[guess], ref_rng,
                                      (bases, bases))
        _same_arrays(got, reference_errors(*want))
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


PACKED_N = [1, 63, 64, 65, 1000, 12_500]


def _packed_layouts():
    """(n, rows, layout, count, k_blocks, block_len) of a block-guess chunk
    whose rows hold n positions: `rows` rows of n (trial, block) pairs
    (layout "pairs"), or a row of block_len = n positions per pair ("rows";
    it needs n > rows)."""
    for n in PACKED_N:
        for rows in (1, 2, 5):
            k = max(d for d in range(1, 6) if n % d == 0)
            if rows <= n:
                yield n, rows, "pairs", n // k, k, rows
            if rows < n:
                yield n, rows, "rows", 1 if rows % 2 else rows // 2, rows if rows % 2 else 2, n


class TestPackedRounds:
    """The packed kernel (_packed_round) against tests/reference.py's
    float-angle kernels, whose coin rule draws one bit per position and
    shares no code with it, on the same stream: equal counts, or arrays,
    and generator states after, for every round that takes the packed path
    (intercept at every fraction, a fixed basis on a multiple of pi/4 and
    key guessing, each on two bases, in-line interference there, and every
    block-guess chunk in both row layouts). Rows of n < 4 positions, fewer
    than a table's entries, never run packed. Streams come from PCG64 (raw
    words) and from Philox and SFC64 (integers)."""

    CHANNELS = [ChannelModel(), ChannelModel(loss=0.2), ChannelModel(flip_prob=0.1),
                ChannelModel(flip_prob=0.1, loss=0.2)]
    CHANNEL_IDS = ["noiseless", "loss0.2", "flip0.1", "flip0.1-loss0.2"]
    GENERATORS = [np.random.PCG64, np.random.Philox, np.random.SFC64]

    @pytest.fixture
    def packed(self, monkeypatch):
        """Records the row count of every _packed_round block."""
        seen, real = [], keyedqkd.adversary._packed_round

        def spy(attack, n, key_words, eve_words, channel, count, rng):
            seen.append(count)
            return real(attack, n, key_words, eve_words, channel, count, rng)

        monkeypatch.setattr(keyedqkd.adversary, "_packed_round", spy)
        return seen

    @pytest.mark.parametrize("bit_generator", GENERATORS, ids=lambda g: g.__name__)
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("n", PACKED_N)
    # Fixed angles within the snap tolerance of pi/4 and pi/2 read all four
    # two-basis coin tables, and past them her decoding flips basis 0.
    @pytest.mark.parametrize("text", ["intercept", "intercept:0.5", "intercept:0", "keyguess",
                                      "fixed:0", f"fixed:{PI / 4!r}", f"fixed:{PI / 4 + 4e-13!r}",
                                      f"fixed:{PI / 2 - 4e-13!r}"])
    def test_attack_rounds(self, packed, text, n, channel, bit_generator):
        config = dataclasses.replace(lfsr_config(n=n, **DENSE_KEY), channel=channel)
        for rows in (1, 2, 5):
            _block_equals_the_reference(AttackStrategy.parse(text), config, rows, bit_generator,
                                        100 * n + rows)
        assert packed == ([] if n < 4 else [1, 2, 5])

    @pytest.mark.parametrize("bit_generator", GENERATORS, ids=lambda g: g.__name__)
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("n", PACKED_N)
    @pytest.mark.parametrize("text", ["intercept", "intercept:0.5", "intercept:0", "fixed:0",
                                      f"fixed:{PI / 4!r}"])
    def test_inline_rounds(self, packed, text, n, channel, bit_generator):
        config = dataclasses.replace(lfsr_config(n=n, **DENSE_KEY), channel=channel)
        inline_equals_the_reference(AttackStrategy.parse(text), config, 7 * n, bit_generator)
        assert packed == ([] if n < 4 else [1])

    @pytest.mark.parametrize("bit_generator", GENERATORS, ids=lambda g: g.__name__)
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("n,rows,layout,count,k_blocks,block_len", _packed_layouts())
    def test_block_guess_chunks(self, packed, n, rows, layout, count, k_blocks, block_len,
                                channel, bit_generator):
        pairs = count * k_blocks
        assert (min(pairs, block_len), max(pairs, block_len)) == (rows, n)
        assert (block_len > pairs) == (layout == "rows")
        rng, ref_rng = (np.random.Generator(bit_generator(n + rows)) for _ in range(2))
        got = _block_guess_chunk(count, rng, _attack(2, n), k_blocks, block_len, channel)
        _same_chunk(got, reference.block_guess_chunk(count, ref_rng, k_blocks, block_len,
                                                     channel), k_blocks * block_len)
        assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
        assert packed == ([] if n < 4 else [rows])


def _einsum_chunk(count, rng, attack, k_blocks, block_len, channel):
    """_block_guess_chunk as it reduced before its one array of per-pair
    rows: success flags from _row_counts of each trial's key ^ guess bits,
    and each count by np.einsum over a trial's pairs."""
    pairs = count * k_blocks
    blocks = uniform_bits(rng, 2 * pairs).reshape(2, -1)
    success = _row_counts((blocks[0] ^ blocks[1]).reshape(count, k_blocks)) == 0
    axis, dtype = int(block_len > pairs), np.min_scalar_type(k_blocks * block_len)
    rows, n = min(block_len, pairs), max(block_len, pairs)
    if _packs(attack.eve, attack.bob, n):
        if axis:
            key, eve = blocks.astype(np.uint64)[..., None] * np.uint64(2 ** 64 - 1)
        else:
            key, eve = _pack(blocks)
        _, errors, detected = _packed_round(attack, n, key, eve, channel, rows, rng)
        if not axis:
            errors = np.unpackbits(errors.astype("<u8", copy=False).view(np.uint8), axis=-1,
                                   count=n, bitorder="little")
    else:
        if axis:
            blocks = np.broadcast_to(blocks[..., None], (2, pairs, block_len))
        _, errors, detected = _resend_round(attack, *blocks, channel, rows, rng)
    if errors[0].dtype == np.uint64:
        her, user = _word_counts(errors, n).sum(axis=-1, dtype=dtype)
    else:
        her, user = (a.sum(axis=axis, dtype=dtype) for a in errors)
    if detected is not None:
        detected = detected.sum(axis=axis, dtype=dtype)
    return (success, *(np.full(count, k_blocks * block_len, dtype) if a is None else
                       np.einsum("ij->i", a.reshape(count, k_blocks))
                       for a in (user, her, detected)))


class TestBlockGuessReduction:
    """A chunk's per-trial records, from one array of per-pair rows summed
    a column at a time, equal the einsum reduction's, on the same stream."""

    @pytest.mark.parametrize("channel", [ChannelModel(), ChannelModel(flip_prob=0.05, loss=0.2)],
                             ids=["noiseless", "flip0.05-loss0.2"])
    @pytest.mark.parametrize("k_blocks", [1, 2, 3, 8])
    # n = 40 in 8 blocks: rows of 5 shorter than the pairs; n = 1e4 in 8
    # blocks, 3 trials: a row of 1250 positions per pair. One trial at n =
    # 8 and 24 (blocks of 1 and 3) makes rows shorter than a table, which
    # measure per position, in either layout.
    @pytest.mark.parametrize("n,count", [(40, 1), (40, 7), (40, TRIAL_CHUNK), (10_000, 3),
                                         (8, 1), (24, 1)])
    def test_records_equal_the_einsum_reduction(self, n, count, k_blocks, channel):
        block_len = n // 8
        attack = _attack(2, max(count * k_blocks, block_len))
        for seed in range(8):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _block_guess_chunk(count, rng, attack, k_blocks, block_len, channel)
            _same_arrays(got, _einsum_chunk(count, ref_rng, attack, k_blocks, block_len, channel))
            assert rng.bit_generator.state == ref_rng.bit_generator.state


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
        for name in ("_attack", "_decoding_flips"):
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


def _block_equals_the_reference(strategy, config, rows, bit_generator, seed):
    """A block of `rows` rounds of `strategy` against `config`, as the Monte
    Carlo attack runs it (key guessing draws the rows' guesses first), has
    the counts of tests/reference.py drawing the same stream by hand, on
    generators of `bit_generator(seed)`, and leaves the same state."""
    rng, ref_rng = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    got = list(zip(*(c.tolist() for c in state_kernel(strategy, config, config.channel)(
        rows, rng))))
    if strategy.kind == "key_guess":
        got = [(e / config.n, u, d) for e, _, u, d in got]
        want = reference.key_guess_rounds(config, ref_rng, rows)
    else:
        want = reference.state_attack_counts(strategy, config, config.channel, ref_rng, rows)
    assert got == want, rows
    assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state), rows


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

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937],
                             ids=["pcg64", "mt19937"])
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("m,n", PATHS)
    @pytest.mark.parametrize("text", ["breidbart", "fixed:0.3", "fixed:1.2", "intercept",
                                      "keyguess"])
    def test_a_block_equals_the_reference_drawing_its_stream(self, text, m, n, channel,
                                                             bit_generator):
        config = dataclasses.replace(lfsr_config(n=n, m=m, **DENSE_KEY), channel=channel)
        for rows in (1, 3):
            _block_equals_the_reference(AttackStrategy.parse(text), config, rows, bit_generator,
                                        rows)

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("text,m", [
        ("breidbart", 2), ("breidbart", 16), ("fixed:0.3", 2), ("fixed:1.2", 2),
        ("intercept", 2), ("intercept:0.5", 2), ("keyguess", 2), ("keyguess", 16)])
    def test_reports_equal_the_reference_blocks_at_one_and_two_threads(self, monkeypatch, text,
                                                                       m, channel):
        # 13 rounds of 12 500 uint8 codes: blocks of 5, 5 and 3 rounds at
        # every fraction. Two-basis intercept and key guessing run their
        # blocks on _packed_round, every other attack on _resend_round;
        # either takes the block's row count second to last.
        config = dataclasses.replace(lfsr_config(n=12_500, m=m, **DENSE_KEY), channel=channel)
        strategy = AttackStrategy.parse(text)
        sizes = []

        def spy(real):
            def kernel(*args):
                sizes.append(args[-2])
                return real(*args)
            return kernel

        def attack(threads):
            return run_attack(strategy, config, np.random.default_rng(40), trials=13,
                              threads=threads)

        for name in ("_resend_round", "_packed_round"):
            monkeypatch.setattr(keyedqkd.adversary, name, spy(getattr(keyedqkd.adversary, name)))
        blocked = attack(1)
        assert sizes == [5, 5, 3]
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
        assert alone != blocked

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


def _row_bytes(config) -> int:
    """The bytes of one round's codes, which size its block at every fraction."""
    return config.n * np.min_scalar_type(2 * config.alphabet.m - 1).itemsize


def _reference_rounds(strategy, config, seed, trials, bit_generator=np.random.PCG64):
    """(successful guesses, per-round counts) of run_attack on a generator
    Generator(bit_generator(seed)), from tests/reference.py's kernels: each
    block of _block_size rounds drawn by hand from the child generator that
    run_attack seeds for it. Key guessing first counts its successes over
    one draw of every guess from that generator (None for the other
    attacks), and its counts are (her error rate, user errors, detected)."""
    rng = np.random.Generator(bit_generator(seed))
    if strategy.kind == "key_guess":
        successes = reference.key_guess_successes(config.keystream.seed.bits, trials, rng)
        trials = min(trials, MAX_QUBIT_TRIALS)

        def block(child, rows):
            return reference.key_guess_rounds(config, child, rows)
    else:
        successes = None

        def block(child, rows):
            return reference.state_attack_counts(strategy, config, config.channel, child, rows)
    blocks = _chunk_rngs(rng, trials, _block_size(trials, _row_bytes(config)))
    return successes, [row for rows, child in blocks for row in block(child, rows)]


def _reference_report(strategy, config, seed, trials, bit_generator=np.random.PCG64):
    """_statistics of run_attack's report, rebuilt from _reference_rounds."""
    successes, rounds = _reference_rounds(strategy, config, seed, trials, bit_generator)
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
    """A run_attack case: (strategy, config, seed, trials, threads, bit
    generator). Intercept runs on the two-basis alphabet, at fractions 0
    and 1 and between. Key guessing also takes trials past one and two
    draws of guesses (8192 a draw of these one-word seeds); its rounds stay
    capped at MAX_QUBIT_TRIALS."""
    kind = draw(st.sampled_from(["intercept", "breidbart", "fixed", "keyguess"]))
    if kind == "intercept":
        fraction = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        strategy = AttackStrategy("intercept_resend_random", fraction=fraction)
    elif kind == "fixed":
        strategy = AttackStrategy("fixed_basis", phi=draw(st.floats(0.0, PI, exclude_max=True)))
    else:
        strategy = AttackStrategy.parse(kind)
    m = 2 if kind == "intercept" else 2 ** draw(st.integers(1, 12))
    config = lfsr_config(n=draw(st.integers(1, 300)), m=m, loss=draw(st.sampled_from([0.0, 0.2])),
                         flip=draw(st.sampled_from([0.0, 0.1])))
    trials = st.integers(1, 7)
    if kind == "keyguess":
        trials = st.one_of(trials, st.sampled_from([8193, 16385]))
    return (strategy, config, draw(st.integers(0, 2 ** 32)), draw(trials),
            draw(st.sampled_from([1, 2])),
            draw(st.sampled_from([np.random.PCG64, np.random.Philox, np.random.SFC64])))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(case=attack_cases())
def test_reports_equal_the_reference_on_the_same_streams(case):
    # The statistics of run_attack's report, rebuilt from tests/reference.py's
    # float-angle kernels drawing each block from the same child generator,
    # and key guesses from the caller's generator, whatever its bit generator.
    strategy, config, seed, trials, threads, bit_generator = case
    report = run_attack(strategy, config, np.random.Generator(bit_generator(seed)),
                        trials=trials, threads=threads)
    assert _statistics(report) == _reference_report(strategy, config, seed, trials,
                                                     bit_generator)


@st.composite
def inline_cases(draw):
    """An in-line interference case: (strategy, config, seed, bit
    generator). Intercept at fractions 0 and 1 and between, breidbart and
    fixed bases, the multiples of pi/4 among them, on m = 2 to 2^12 keyed
    bases and small n, with loss and flips."""
    kind = draw(st.sampled_from(["intercept", "breidbart", "fixed"]))
    if kind == "intercept":
        fraction = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        strategy = AttackStrategy("intercept_resend_random", fraction=fraction)
    elif kind == "fixed":
        phi = draw(st.one_of(st.sampled_from([0.0, PI / 4, PI / 2]),
                             st.floats(0.0, PI, exclude_max=True)))
        strategy = AttackStrategy("fixed_basis", phi=phi)
    else:
        strategy = AttackStrategy.parse(kind)
    config = lfsr_config(n=draw(st.integers(1, 300)), m=2 ** draw(st.integers(1, 12)),
                         loss=draw(st.sampled_from([0.0, 0.2])),
                         flip=draw(st.sampled_from([0.0, 0.1])))
    return (strategy, config, draw(st.integers(0, 2 ** 32)),
            draw(st.sampled_from([np.random.PCG64, np.random.Philox, np.random.SFC64])))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(case=inline_cases())
def test_inline_rounds_equal_the_reference_on_the_same_streams(case):
    # transmit_round under in-line interference, against tests/reference.py's
    # float-angle round on the same stream, whatever its bit generator.
    inline_equals_the_reference(*case)


@st.composite
def block_guess_cases(draw):
    """A block_guess_trials case: (n, m_k, k, trials, channel, threads, bit
    generator, seed). Trials reach past two chunks, and past one chunk by a
    single trial; a chunk of fewer blocks than block_len has a row per
    block, and one of fewer than 4 blocks, with blocks shorter than 4,
    takes the per-position path; blocks long enough for a trial's counts
    to pass 255 come with fewer trials, so each case measures at most
    about 2e5 positions."""
    m_k = draw(st.integers(1, 8))
    k = draw(st.integers(1, m_k))
    trials = draw(st.one_of(st.integers(1, 9), st.sampled_from([4097, 8193, 9000]),
                            st.integers(1, 9000)))
    block_len = draw(st.integers(1, max(1, min(600, 200_000 // (trials * k)))))
    channel = ChannelModel(loss=draw(st.sampled_from([0.0, 0.2])),
                           flip_prob=draw(st.sampled_from([0.0, 0.1])))
    return (m_k * block_len, m_k, k, trials, channel, draw(st.sampled_from([1, 2])),
            draw(st.sampled_from([np.random.PCG64, np.random.Philox, np.random.SFC64])),
            draw(st.integers(0, 2 ** 32)))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(case=block_guess_cases())
def test_block_guess_trials_equal_the_reference_on_the_same_streams(case):
    # Every per-trial record of block_guess_trials, rebuilt chunk by chunk
    # from tests/reference.py's float-angle kernel on the same child
    # generators; and one chunk drawn straight from the case's generator,
    # as the children are PCG64 whatever the caller's is.
    n, m_k, k, trials, channel, threads, bit_generator, seed = case
    record = block_guess_trials(n, m_k, k, np.random.Generator(bit_generator(seed)), trials,
                                threads, channel)
    parts = [reference.block_guess_chunk(count, child, k, n // m_k, channel) for count, child
             in _chunk_rngs(np.random.Generator(bit_generator(seed)), trials)]
    got = (record.success, record.attacked_errors, record.eve_errors, record.attacked_detected)
    _same_arrays(got, [np.concatenate([p[i] for p in parts]) for i in range(4)])
    assert record.attacked_per_trial == k * (n // m_k)
    count = min(trials, TRIAL_CHUNK)
    rng, ref_rng = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    attack = _attack(2, max(count * k, n // m_k))
    _same_chunk(_block_guess_chunk(count, rng, attack, k, n // m_k, channel),
                reference.block_guess_chunk(count, ref_rng, k, n // m_k, channel), n // m_k * k)
    assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state)


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
        # On packed words (one word a row) and on codes.
        for packs, row in ((True, 1), (False, 64)):
            monkeypatch.setattr(keyedqkd.adversary, "_packs", lambda *args, packs=packs: packs)
            attack = _attack(2, 64, AttackStrategy.parse("intercept"), selectors)
            assert (attack.key_words is not None) == packs
            _, errors, _, attacked = _state_round(attack, ChannelModel(), 2,
                                                  np.random.default_rng(0))
            assert attacked is None and [e.shape for e in errors] == [(2, row)] * 2

    @pytest.mark.parametrize("packs", [True, False], ids=["packed", "codes"])
    def test_no_interception_measures_every_position_in_the_keyed_basis(self, monkeypatch,
                                                                        packs):
        # At fraction 0 the mask draws nothing and is all clear: she
        # measures every position in its keyed basis, errs nowhere and
        # counts no position. On packed words, where each position draws
        # one coin bit whatever it reads, the block draws what fraction 1
        # draws; the byte rule's ties follow the offsets.
        if not packs:
            monkeypatch.setattr(keyedqkd.adversary, "_packs", lambda *args: False)
        config, got = lfsr_config(n=64, flip=0.1), []
        for text in ("intercept:0", "intercept"):
            rng = np.random.default_rng(1)
            counts = state_kernel(AttackStrategy.parse(text), config, config.channel)(3, rng)
            got.append(([c.tolist() for c in counts], rng.bit_generator.state))
        (none, state), (full, full_state) = got
        assert none[:2] == [[0] * 3, [0] * 3] and full[1] == [64] * 3
        assert none[3] == [64] * 3 and 0 < sum(none[2]) < sum(full[2])
        assert (state == full_state) == packs

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


@pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
@pytest.mark.parametrize("flipped", [False, True], ids=["no-flips", "flips"])
@pytest.mark.parametrize("lossy", [False, True], ids=["no-mask", "detected-mask"])
def test_counts_of_words_equal_counts_of_their_bytes(n, flipped, lossy):
    # Errors of 5 rows as random words, with random bits past n in the last
    # word, and the same errors unpacked to bytes, which stop at n: one
    # count tail gives both the same counts, and those of a count by hand,
    # her errors flipped where her decoding flips are set.
    draw = np.random.default_rng(n)
    words = draw.integers(0, 2 ** 64, (2, 5, -(-n // 64)), dtype=np.uint64)
    her, user = np.unpackbits(words.astype("<u8").view(np.uint8), axis=-1, count=n,
                              bitorder="little")
    flips = draw.random(n) < 0.5 if flipped else None
    detected = draw.random((5, n)) < 0.7 if lossy else None
    every = np.full(5, n, np.int64)
    want = tuple(a if a is every else a.sum(axis=1, dtype=np.int64) for a in (
        her ^ flips if flipped else her, every, user, every if detected is None else detected))
    packed = _counts(n, words, detected, None if flips is None else _pack(flips))
    _same_arrays(packed, want)
    _same_arrays(_counts(n, (her, user), detected, flips), packed)


class TestCoinDraws:
    """An OffsetTable is a coin table when it has the 4 entries of the
    two-basis alphabet, each 0, 1 or within ANGLE_TOL of 1/2; then
    measure_coin_words draws one bit per position, whatever entry the
    position reads. measure_codes draws bytes from every table. table_of
    builds a table of the given entries."""

    @staticmethod
    def measure(monkeypatch, p1, codes, seed):
        """measure_codes on a table of the entries `p1` at offsets `codes`, and
        the generator it drew from."""
        rng = np.random.default_rng(seed)
        got = measure_codes(table_of(monkeypatch, p1, codes.size), codes.reshape(1, -1), rng)
        return got.reshape(codes.shape), rng

    @staticmethod
    def coin_words(table, offsets, seed):
        """measure_coin_words under `table` at the two-basis `offsets`, one
        row, and (the coin bits, the generator state) of a twin generator
        that draws the same words."""
        high, low = (_pack(bits[None]) for bits in (offsets >> 1 & 1, offsets & 1))
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got = measure_coin_words(table, high, low, rng)
        got = np.unpackbits(got.view(np.uint8), count=offsets.size, bitorder="little")
        coins = uniform_bits(twin, offsets.size)
        assert rng.bit_generator.state == twin.bit_generator.state
        return got, coins

    @pytest.mark.parametrize("shift", [0.0, PI / 8, -PI / 8, PI / 4, -PI / 4, 0.3])
    @pytest.mark.parametrize("m", [4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_a_table_past_two_bases_never_draws_coins(self, m, shift):
        # Adjacent entries lie pi/(2m) < pi/4 apart, so they cannot both sit
        # on multiples of pi/4: the per-entry oracle finds no coin table either.
        table = OffsetTable(m, shift, 2 * m)
        assert table.coins is False
        assert not reference.coin_table(table.p1)

    @pytest.mark.parametrize("k", range(-4, 5))
    def test_a_two_basis_coin_table_gives_the_outcome_of_each_entry_at_each_bit(self, k):
        # Shifts on the multiples of pi/4 give coin tables. Every offset at
        # both coin bits: the bit where the entry is 1/2, the entry itself
        # where it is 0 or 1.
        table = OffsetTable(2, k * PI / 4, 4)
        assert table.coins is True and reference.coin_table(table.p1)
        # measure_coin_words' select rests on p1[o + 2] = 1 - p1[o].
        assert table.p1[2:].tolist() == (1.0 - table.p1[:2]).tolist()
        offsets = np.arange(1024) % 4
        got, coins = self.coin_words(table, offsets, 10 + k)
        entry = table.p1[offsets]
        assert {0, 1} <= set(coins[entry == 0.5].tolist())
        _same_arrays([got], [np.where(entry == 0.5, coins, entry).astype(np.uint8)])

    @pytest.mark.parametrize("edge", [0.5 - ANGLE_TOL, 0.5 + ANGLE_TOL])
    def test_an_entry_on_the_half_tolerance_is_a_coin(self, monkeypatch, edge):
        table = table_of(monkeypatch, [edge, 0.0, 1.0 - edge, 1.0], 4)
        assert table.coins is True and table.p1.tolist() == [0.5, 0.0, 0.5, 1.0]
        offsets = np.tile(np.arange(4), 75)
        got, coins = self.coin_words(table, offsets, 11)
        # The position's bit at codes 0 and 2, certain 0 at 1 and 1 at 3.
        _same_arrays([got], [np.where(offsets % 2 == 0, coins, offsets >> 1).astype(np.uint8)])

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
    def test_certain_positions_of_a_coin_table_still_draw_a_bit_each(self, positions):
        # Offsets 0 and 2 of the unshifted table, entries 0 and 1.
        offsets = 2 * (np.arange(positions) % 2)
        got, _ = self.coin_words(OffsetTable(2, 0.0, 4), offsets, 13)
        _same_arrays([got], [(offsets >> 1).astype(np.uint8)])

    def test_coin_positions_read_half(self):
        # State 0 in the basis at pi/4, offset -1 mod 4 on the two-basis
        # lattice, from the table that intercept reads.
        words = 2 ** 14
        ones = np.full((1, words), 2 ** 64 - 1, np.uint64)
        got = measure_coin_words(OffsetTable(2, 0.0, 4), ones, ones, np.random.default_rng(14))
        positions = 64 * words
        assert abs(int(np.bitwise_count(got).sum()) / positions - 0.5) < 4 * math.sqrt(
            0.25 / positions)

    @pytest.fixture
    def coin_draws(self, monkeypatch):
        """Records the coin draws of the attack rounds: ("words", shape)
        per word draw of measure_coin_words, the coins of a packed round,
        and ("bits", shape) per bit draw in qubits, which no measurement
        makes. The adversary's own bit draws go through its imported name
        and are not recorded."""
        seen = []

        def bits(rng, shape):
            seen.append(("bits", shape))
            return uniform_bits(rng, shape)

        def words(table, high, low, rng):
            seen.append(("words", high.shape))
            return measure_coin_words(table, high, low, rng)

        monkeypatch.setattr(keyedqkd.qubits, "uniform_bits", bits)
        monkeypatch.setattr(keyedqkd.adversary, "measure_coin_words", words)
        return seen

    # One round of each attack as run_attack runs it: two-basis rounds on
    # coin tables draw their coins as words, the 47 of 3000 positions, at
    # every attacked fraction; every other round none.
    @pytest.mark.parametrize("m,text,coins", [
        (2, "fixed:0.3", 0), (2, "breidbart", 0), (16, "fixed:0.3", 0), (16, "breidbart", 0),
        (2, "fixed:0", 2), (16, "fixed:0", 0), (2, "intercept:1", 2), (2, "intercept:0.5", 2),
        (2, "intercept:0", 2)])
    def test_only_two_basis_measure_resend_rounds_draw_coins(self, coin_draws, m, text, coins):
        strategy = AttackStrategy.parse(text)
        run_attack(strategy, lfsr_config(n=3000, m=m, flip=0.1), np.random.default_rng(15))
        assert coin_draws == [("words", (1, 47))] * coins

    @pytest.mark.parametrize("m,coins", [(2, [("words", (1, 40))] * 2), (16, [])])
    def test_key_guess_rounds_draw_coins_on_two_bases_only(self, coin_draws, m, coins):
        config = lfsr_config(n=2500, m=m, flip=0.1)
        guess = SeedKey.from_string("01101100")
        guess_round(config, guess.bits, np.random.default_rng(16))
        assert coin_draws == coins


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
        assert table.coins is False
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


def _take_spy(array: np.ndarray, calls: list) -> np.ndarray:
    """A view of `array` that appends the indices' shape of each take on it to `calls`."""
    class Spy(np.ndarray):
        def take(self, indices, *args, **kwargs):
            calls.append(np.shape(indices))
            return np.ndarray.take(self, indices, *args, **kwargs)

    return array.view(Spy)


class TestTwoBasisThresholds:
    """At m = 2 the byte rule's thresholds come from an offset's two bits
    by wrapping uint8 arithmetic, never from a gather of the table."""

    # The attacks' shifts (0, -+pi/8, fixed angles), the multiples of
    # pi/16, the coin table at pi/4 from either side, and random angles.
    SHIFTS = [0.0, PI / 8, -PI / 8, *(k * PI / 16 for k in range(-16, 17)), 1.2, -1.2,
              PI / 4 - 1e-13, PI / 4 + 1e-13,
              *np.random.default_rng(38).uniform(-PI, PI, 200).tolist()]

    def test_every_entry_of_every_table_equals_the_gather(self):
        entries = np.tile(np.arange(4), (2, 3))
        for shift in self.SHIFTS:
            table = OffsetTable(2, shift, 4)
            want = table.threshold.take(entries)
            for dtype in (np.uint8, np.uint16, np.int64):
                got = _thresholds(table, entries.astype(dtype), np.empty(entries.shape, np.uint8))
                _same_arrays([got], [want])
        assert OffsetTable(4, 0.3, 8).terms is None and OffsetTable(2, 0.3, 3).terms is None

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    def test_measure_codes_draws_what_the_gather_draws(self, dtype):
        # The gather, through an equal table whose terms are cleared, is
        # the reference; spies on both tables' thresholds count the takes.
        offsets = np.random.default_rng(7).integers(0, 4, (3, 1001)).astype(dtype)
        arithmetic, gathered = [], []
        for seed, shift in enumerate(self.SHIFTS):
            table, gather = (OffsetTable(2, shift, offsets.shape[1]) for _ in range(2))
            gather.terms = None
            table.threshold = _take_spy(table.threshold, arithmetic)
            gather.threshold = _take_spy(gather.threshold, gathered)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            _same_arrays([measure_codes(table, offsets, rng)],
                         [measure_codes(gather, offsets, ref_rng)])
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert arithmetic == [] and gathered == [(1001,)] * 3 * len(self.SHIFTS)


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
