"""Eavesdropper strategies: analytic values vs Monte Carlo, strategy parsing,
ciphertext-only states."""

import dataclasses
import itertools
import math
import os
import threading
import time
from functools import partial

import numpy as np
import pytest

from keyedqkd import (
    AttackStrategy,
    BasisAlphabet,
    ChannelModel,
    LfsrKeystream,
    LfsrSpec,
    ProtocolConfig,
    RepetitionKeystream,
    SeedKey,
    attack_block_guess,
    attack_fixed_basis,
    attack_intercept_resend,
    attack_key_guess,
    block_guess_trials,
    ciphertext_only_state,
    eve_error_key_granted,
    key_guess_round,
    run_attack,
)
import keyedqkd.adversary
from keyedqkd.adversary import (
    MAX_QUBIT_TRIALS,
    SEED_DRAW,
    TRIAL_CHUNK,
    _block_guess_chunk,
    _by_codes,
    _chunk_rngs,
    _guess_round,
    _key_guess_successes,
    _map_chunks,
    _resend_round,
    _state_attack_counts,
    _with_bit,
)
from keyedqkd.analysis import binomial_ci
from keyedqkd.qubits import MeasBasis, _sin2

import reference
from reference import key_angles, key_guess_successes

PI = math.pi
BREIDBART_ERROR = (2.0 - math.sqrt(2.0)) / 4.0


def lfsr_config(n=10 ** 5, flip=0.0, loss=0.0, seed_text="10110101", taps="8:8,7,2,1", m=2):
    return ProtocolConfig(
        n=n, alphabet=BasisAlphabet(m),
        keystream=LfsrKeystream(LfsrSpec.from_text(taps), SeedKey.from_string(seed_text)),
        channel=ChannelModel(flip_prob=flip, loss=loss),
        code_rate=0.6, pa_security_param=64, verification_len=32,
    )


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
                    "intercept:1.5", "breidbart:1", "keyguess:2"):
            with pytest.raises(ValueError):
                AttackStrategy.parse(bad)

    def test_fixed_basis_angle_normalized(self):
        assert 0.0 <= AttackStrategy.parse("fixed:3.0").phi < PI / 2


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
        success, eve_err, induced = key_guess_round(
            config, config.keystream.seed, np.random.default_rng(10))
        assert success and eve_err == 0.0 and induced == 0.0

    def test_wrong_guess_leaves_errors(self):
        config = lfsr_config(n=4096)
        wrong = SeedKey.from_string("01101011")
        success, eve_err, induced = key_guess_round(config, wrong, np.random.default_rng(11))
        assert not success and eve_err > 0.1 and induced > 0.1

    def test_all_zero_guess_measures_in_basis_zero(self):
        # State 0 expands to zeros: every qubit is measured at angle 0, which
        # errs on the half of the qubits keyed to pi/4, half of the time.
        config = lfsr_config(n=20000)
        success, eve_err, induced = key_guess_round(
            config, SeedKey((0,) * len(config.keystream.seed)), np.random.default_rng(12))
        sigma = math.sqrt(0.25 * 0.75 / config.n)
        assert not success
        assert abs(eve_err - 0.25) < 4 * sigma and abs(induced - 0.25) < 4 * sigma

    def test_requires_lfsr_keystream(self):
        with pytest.raises(ValueError):
            attack_key_guess(repetition_config(40, "10011010"), np.random.default_rng(0))

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 16, 64])
    @pytest.mark.parametrize("count", [1, 7, 4096])
    def test_success_count_matches_the_int64_reference(self, length, count):
        # Seeds taken from rows the reference itself draws, so long seeds
        # still have successes to count; odd count * length leaves half of
        # the last raw word unused.
        for seed in range(4):
            rows = np.random.default_rng(seed).integers(0, 2, size=(count, length), dtype=np.int64)
            for row in (0, count // 2, count - 1):
                seed_bits = rows[row].astype(np.uint8)
                got = _key_guess_successes(seed_bits, count, np.random.default_rng(seed))
                assert got >= 1
                assert got == key_guess_successes(seed_bits, count, np.random.default_rng(seed))
        # A pending 32-bit half is the first guess bit, as in the integers draw.
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        rng.integers(0, 2), ref.integers(0, 2)
        assert (_key_guess_successes(seed_bits, count, rng)
                == key_guess_successes(seed_bits, count, ref))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_induced_rate_pools_detected_qubits(self):
        # Under heavy loss some rounds detect nothing: they add to neither
        # the error nor the detection count, instead of adding a rate of 0.
        config = lfsr_config(n=4, loss=0.8, flip=0.2)
        trials = MAX_QUBIT_TRIALS
        report = attack_key_guess(config, np.random.default_rng(21), trials=trials)
        replay = np.random.default_rng(21)
        for _ in _chunk_rngs(replay, trials):
            pass
        counts = []
        for _, chunk_rng in _chunk_rngs(replay, trials, chunk=1):
            guess = SeedKey(tuple(int(b) for b in chunk_rng.integers(0, 2, size=8)))
            counts.append(_guess_round(config, config.key_selectors(), guess, chunk_rng)[2:])
        errors, detected = (sum(c[i] for c in counts) for i in range(2))
        assert any(d == 0 for _, d in counts) and detected > 0
        assert report.induced_qber.estimate == errors / detected
        assert report.induced_qber.half_width == 4.0 * math.sqrt(0.25 / detected)

    def test_nothing_detected_reads_null(self):
        config = lfsr_config(n=4, loss=0.999)
        guess = SeedKey.from_string("01101011")
        assert key_guess_round(config, guess, np.random.default_rng(0))[2] is None
        report = attack_key_guess(config, np.random.default_rng(0), trials=3)
        assert report.induced_qber is None and report.to_json_dict()["induced_qber"] is None


class TestBlockGuess:
    def test_analytic_reference_point(self):
        report = attack_block_guess(1000, 100, 15, np.random.default_rng(12), trials=8)
        assert abs(report.success_analytic - 2 ** -15) < 1e-9
        assert abs(report.success_analytic - 3.0517578125e-5) < 1e-9
        assert abs(report.info_fraction - 0.15) < 1e-12

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
        with pytest.raises(ValueError):
            ciphertext_only_state(running_key, config.alphabet, p_zero=1.2)


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

    def test_interference_matches_standalone_attack_statistics(self):
        # The same strategy through the in-line hook and through the
        # dedicated attack round must induce the same error rate.
        from keyedqkd import measure_resend_interference, transmit_round
        config = lfsr_config(n=10 ** 5)
        hook = measure_resend_interference(AttackStrategy.parse("breidbart"))
        alice, bob, _ = transmit_round(config, np.random.default_rng(22), hook)
        qber = float(np.mean(alice != bob))
        sigma = math.sqrt(0.25 * 0.75 / 10 ** 5)
        assert abs(qber - 0.25) < 4 * sigma


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


CHANNELS = [ChannelModel(), ChannelModel(flip_prob=0.1, loss=0.2)]
CHANNEL_IDS = ["noiseless", "flip0.1-loss0.2"]


def _same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


class TestCodedKernels:
    """The attack kernels on integer angle codes against their float-angle
    originals in tests/reference.py: identical outputs and the same generator
    state afterwards."""

    @pytest.fixture
    def table_use(self, monkeypatch):
        """Records, per _by_codes call, whether it took the table branch."""
        seen = []

        def spy(func, rows, row_codes, cols, col_codes):
            seen.append(rows.size * cols.size <= row_codes.size)
            return _by_codes(func, rows, row_codes, cols, col_codes)

        monkeypatch.setattr(keyedqkd.adversary, "_by_codes", spy)
        return seen

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("m,text", [(2, "fixed:0.3"), (16, "fixed:0.3"), (2, "breidbart"),
                                        (16, "breidbart"), (2, "intercept:0.5"),
                                        (2, "intercept:1")])
    def test_state_attack_round(self, table_use, m, text, channel):
        config = lfsr_config(n=3000, m=m)
        strategy = AttackStrategy.parse(text)
        key = (config.alphabet.angle(np.arange(m)), config.key_selectors())
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _state_attack_counts(strategy, key, channel, rng)
            assert got == reference.state_attack_counts(strategy, key_angles(config), channel,
                                                        ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert all(table_use)

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("m", [128, 256])
    @pytest.mark.parametrize("text", ["intercept:0.5", "intercept:1"])
    def test_intercept_round_on_wide_alphabets(self, m, text, channel):
        # Resent state codes start at 2m, past the range of a uint8.
        config = lfsr_config(n=3000, m=m)
        strategy = AttackStrategy.parse(text)
        key = (config.alphabet.angle(np.arange(m)), config.key_selectors())
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = _state_attack_counts(strategy, key, channel, rng)
        assert got == reference.state_attack_counts(strategy, key_angles(config), channel,
                                                    ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("m,n,tables", [(2, 500, True), (16, 2500, True), (4096, 300, False)])
    def test_key_guess_round(self, table_use, m, n, tables, channel):
        # 8m^2 entries for the receiver's table: taken at m = 2 and 16, too
        # many for 300 positions at m = 4096, where every p1 is per element.
        config = dataclasses.replace(lfsr_config(n=n, m=m), channel=channel)
        spec = config.keystream.spec
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            guess_bits = np.random.default_rng(100 + seed).integers(0, 2, 8)
            guess = SeedKey(tuple(int(b) for b in guess_bits))
            guessed = dataclasses.replace(config, keystream=LfsrKeystream(spec, guess))
            got = _guess_round(config, config.key_selectors(), guess, rng)
            alice, outcome, bob, detected = reference.resend_round(
                key_angles(config), channel, key_angles(guessed), slice(None), ref_rng)
            assert got == (guess == config.keystream.seed, float(np.mean(outcome != alice)),
                           int(np.sum((bob != alice) & detected)), int(np.sum(detected)))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert table_use and all(used == tables for used in table_use)

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    @pytest.mark.parametrize("count", [1, 50])
    def test_block_guess_chunk(self, count, channel):
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _block_guess_chunk(count, rng, k_blocks=3, block_len=8, channel=channel)
            _same_arrays(got, reference.block_guess_chunk(count, ref_rng, 3, 8, channel))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    def test_resend_round_arrays(self, channel):
        config = lfsr_config(n=1000, m=16)
        bases = config.alphabet.angle(np.arange(16))
        mask = np.random.default_rng(1).random(config.n) < 0.4
        guess = np.random.default_rng(2).integers(0, 16, config.n)
        for attacked in (mask, slice(None)):
            rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
            got = _resend_round((bases, config.key_selectors()), (bases, guess), attacked,
                                channel, rng)
            want = reference.resend_round(key_angles(config), channel, bases[guess], attacked,
                                          ref_rng)
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
        rounds = [reference.state_attack_counts(strategy, key_angles(config), channel, chunk_rng)
                  for _, chunk_rng in _chunk_rngs(np.random.default_rng(8), trials, chunk=1)]
        eve_err, eve_tot, user_err, user_tot = (sum(r[i] for r in rounds) for i in range(4))
        assert report.eve_bit_error == (binomial_ci(eve_err, eve_tot) if eve_tot else None)
        assert report.induced_qber == binomial_ci(user_err, user_tot)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
    def test_run_attack_block_guess(self, channel, threads):
        config = dataclasses.replace(repetition_config(64, "10011010"), channel=channel)
        trials = TRIAL_CHUNK + 100
        report = run_attack(AttackStrategy.parse("blockguess:3"), config,
                            np.random.default_rng(9), trials=trials, threads=threads)
        parts = [reference.block_guess_chunk(count, chunk_rng, 3, 8, channel)
                 for count, chunk_rng in _chunk_rngs(np.random.default_rng(9), trials)]
        success, errors, eve_errors = (np.concatenate([p[i] for p in parts]) for i in range(3))
        attacked = 3 * 8 * trials
        assert report.success_mc == binomial_ci(int(success.sum()), trials)
        assert report.induced_qber == binomial_ci(int(errors.sum()), attacked)
        assert report.eve_bit_error == binomial_ci(int(eve_errors.sum()), attacked)


@pytest.mark.parametrize("m", [2, 16, 1024])
def test_numpy_sin_of_a_table_is_bitwise_equal_to_sin_of_the_full_array(m):
    """The coded kernels rest on this: np.sin gives each float the same bits
    whether it is computed once in a small table or wherever it sits in a
    full per-position array. If a numpy build breaks it, coded attack
    outputs drift from the float path's and this test names the cause.

    Both of the key-guess round's measurements are checked: the attacker's
    (keyed states against guessed bases) and the receiver's (resent states,
    turned by a channel flip, against keyed bases).
    """
    rng = np.random.default_rng(m)
    bases = BasisAlphabet(m).angle(np.arange(m))
    positions = 2 ** 18
    for rows in (_with_bit(bases), _with_bit(_with_bit(bases))):
        # At m = 1024 a random subset of the rows keeps the table within
        # `positions` entries, so _by_codes still takes its table branch.
        rows = rows[np.sort(rng.permutation(rows.size)[:positions // m])]
        row_codes = rng.integers(0, rows.size, positions)
        col_codes = rng.integers(0, m, positions)
        full = np.sin(rows[row_codes] - bases[col_codes]) ** 2
        coded = _by_codes(_sin2, rows, row_codes, bases, col_codes)
        assert rows.size * m <= positions
        assert np.array_equal(coded.view(np.uint64), full.view(np.uint64))
