"""Protocol pipeline: rate gate, reconciliation, privacy amplification,
verification, full runs, direct encryption, serialization."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keyedqkd import (
    BasisAlphabet,
    ChannelModel,
    KeyLedger,
    LfsrKeystream,
    LfsrSpec,
    ProtocolConfig,
    RateVerdict,
    RepetitionKeystream,
    SeedKey,
    h2,
    pa_output_length,
    privacy_amplify,
    rate_gate,
    reconcile,
    run_direct_encryption,
    run_protocol,
    transmit_round,
    verification_tag,
    verify_key,
)
import keyedqkd.protocol
from keyedqkd.protocol import bits_to_hex

from reference import draw_below, integer_bits, lfsr_reference, toeplitz_hash_direct

M2 = BasisAlphabet(2)
LFSR16 = LfsrKeystream(LfsrSpec.from_text("16:16,15,13,4"), SeedKey.from_string("1011001110001111"))
LFSR64 = LfsrKeystream(LfsrSpec.from_text("64:64,63,61,60"),
                       SeedKey.from_string("1" + "0" * 62 + "1"))


def make_config(n=10 ** 4, flip=0.0, loss=0.0, rate=0.6, s=64, kv=32,
                keystream=LFSR16, mode="key-generation", m=2):
    return ProtocolConfig(
        n=n, alphabet=BasisAlphabet(m), keystream=keystream,
        channel=ChannelModel(flip_prob=flip, loss=loss),
        code_rate=rate, pa_security_param=s, verification_len=kv, mode=mode,
    )


class TestRateGate:
    def test_window_accepts_interior_rate(self):
        assert rate_gate(0.05, 0.5) is RateVerdict.OK
        # Window endpoints anchored by the entropy function.
        assert abs((1 - h2(0.15)) - 0.390160) < 1e-6
        assert abs((1 - h2(0.05)) - 0.713603) < 1e-6

    def test_threshold_error_rate_closes_window(self):
        for rate in np.linspace(0.05, 0.95, 19):
            assert rate_gate(0.15, float(rate)) is not RateVerdict.OK

    def test_low_rate_fails_security_side(self):
        assert rate_gate(0.02, 0.35) is RateVerdict.RATE_TOO_LOW_FOR_SECURITY

    def test_high_rate_fails_correction_side(self):
        assert rate_gate(0.05, 0.75) is RateVerdict.RATE_TOO_HIGH
        # Both inequalities broken: the correction failure is reported.
        assert rate_gate(0.2, 0.3) is RateVerdict.RATE_TOO_HIGH

    def test_rejects_out_of_range_estimate(self):
        with pytest.raises(ValueError):
            rate_gate(0.5, 0.6)
        with pytest.raises(ValueError):
            rate_gate(-0.01, 0.6)


class TestReconcile:
    def test_error_free_succeeds(self):
        alice = np.ones(1000, dtype=np.uint8)
        bob_fixed, leaked, ok = reconcile(alice, alice.copy(), 0.9)
        assert ok and leaked == 100
        assert np.array_equal(bob_fixed, alice)

    def test_moderate_errors_within_redundancy(self):
        rng = np.random.default_rng(8)
        alice = rng.integers(0, 2, 10 ** 4).astype(np.uint8)
        bob = alice.copy()
        flips = rng.choice(alice.size, size=500, replace=False)
        bob[flips] ^= 1
        fixed, _, ok = reconcile(alice, bob, 0.6)  # h2(0.05) = 0.286 <= 0.38
        assert ok and np.array_equal(fixed, alice)

    def test_excess_errors_fail(self):
        rng = np.random.default_rng(9)
        alice = rng.integers(0, 2, 10 ** 4).astype(np.uint8)
        bob = alice.copy()
        flips = rng.choice(alice.size, size=1100, replace=False)
        bob[flips] ^= 1
        _, _, ok = reconcile(alice, bob, 0.6)  # h2(0.11) = 0.4999 > 0.38
        assert not ok

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            reconcile(np.zeros(4, np.uint8), np.zeros(5, np.uint8), 0.5)

    def test_rejects_non_bits(self):
        # A uint8 cast would read 257 as 1 and report [257, 0] reconciled with [1, 0].
        for bad in ([2, 0], np.array([257, 0]), [-1, 0], [0.5, 0]):
            for args in ((bad, [1, 0]), ([1, 0], bad)):
                with pytest.raises(ValueError, match="must be 0 or 1"):
                    reconcile(*args, 0.5)


class TestPrivacyAmplify:
    def test_hand_oracle(self):
        # 2x3 Toeplitz from seed 1101: rows (0,1,1) and (1,0,1); input 101.
        out = privacy_amplify([1, 0, 1], 2, [1, 1, 0, 1])
        assert out.tolist() == [1, 0]

    def test_zero_output_length(self):
        assert privacy_amplify([1, 0, 1], 0, [1, 1]).size == 0

    def test_all_zero_input(self):
        rng = np.random.default_rng(0)
        seed = rng.integers(0, 2, 40 + 16 - 1)
        assert not privacy_amplify(np.zeros(40, np.uint8), 16, seed).any()

    def test_matches_direct_matrix_construction(self):
        rng = np.random.default_rng(17)
        # (40, 25) and (40, 26) put the seed length at exactly 2^6 and 2^6 + 1; at
        # 130 bits, outputs of 0...64 bits are word parities and 65 is an FFT.
        for n, out_len in [(1, 1), (5, 3), (37, 16), (128, 50), (40, 25), (40, 26),
                           (130, 0), (130, 1), (130, 63), (130, 64), (130, 65)]:
            bits = rng.integers(0, 2, n)
            seed = rng.integers(0, 2, n + out_len - 1)
            assert np.array_equal(privacy_amplify(bits, out_len, seed),
                                  toeplitz_hash_direct(bits, out_len, seed))

    @pytest.mark.parametrize("n, out_len", [(4000, 1500), (19000, 32), (1500, 688), (1500, 689),
                                            (1000, 126), (1000, 127)])
    def test_matches_integer_convolution(self, n, out_len):
        # (19000, 32) is the shape of a 32-bit verification tag over a long key.
        # The last four put the seed at 2187 = 3^7, 2188, 1125 = 3^2 * 5^3 and
        # 1126 bits: an FFT of exactly the seed's length, and the next size up.
        rng = np.random.default_rng(18)
        bits = rng.integers(0, 2, n)
        seed = rng.integers(0, 2, n + out_len - 1)
        out = privacy_amplify(bits, out_len, seed)
        conv = np.convolve(seed.astype(np.int64), bits.astype(np.int64))
        assert np.array_equal(out, (conv[n - 1:n - 1 + out_len] % 2).astype(np.uint8))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=64),
           out_len=st.integers(min_value=0, max_value=32))
    def test_linearity(self, data, n, out_len):
        out_len = min(out_len, n)
        draw = lambda size: np.array(data.draw(st.lists(
            st.integers(0, 1), min_size=size, max_size=size)), dtype=np.uint8)
        a, b = draw(n), draw(n)
        seed = draw(n + out_len - 1 if out_len else max(0, n - 1))
        assert np.array_equal(privacy_amplify(a ^ b, out_len, seed),
                              privacy_amplify(a, out_len, seed) ^ privacy_amplify(b, out_len, seed))

    def test_fft_size_is_the_smallest_five_smooth_length(self):
        from keyedqkd.protocol import _fft_size
        smooth = sorted(2 ** a * 3 ** b * 5 ** c
                        for a in range(14) for b in range(9) for c in range(7))
        for length in range(1, 5001):
            assert _fft_size(length) == next(k for k in smooth if k >= length), length

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            privacy_amplify([1, 0], 3, [1] * 4)
        with pytest.raises(ValueError):
            privacy_amplify([1, 0, 1], 2, [1, 1, 0])


class TestPaOutputLength:
    def test_reference_point(self):
        # Recomputed through the entropy oracle: the eavesdropper capacity
        # margin at m=2 is 0.6 - (1 - h2((2-sqrt2)/4)) = 0.2008760...
        expected = math.floor(10 ** 4 * (0.6 - (1 - h2((2 - math.sqrt(2)) / 4)))) - 64
        assert expected == 1944
        assert pa_output_length(10 ** 4, 0.6, M2, 64) == 1944

    def test_zero_margin(self):
        rate = 1 - h2((2 - math.sqrt(2)) / 4)
        assert pa_output_length(10 ** 4, rate, M2, 0) == 0

    def test_huge_security_param_clamps(self):
        assert pa_output_length(10 ** 4, 0.6, M2, 10 ** 6) == 0


class TestVerifyKey:
    def test_equal_keys_always_verify(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            key = rng.integers(0, 2, 96)
            vk = rng.integers(0, 2, 32)
            assert verify_key(key, key.copy(), vk)

    def test_single_bit_hash_accepts_half_the_time(self):
        # |K_v| = 1: the tag is a parity (selector 1) or constant (selector 0),
        # so a single-bit difference is caught exactly when the selector is 1.
        rng = np.random.default_rng(4)
        trials = 10 ** 4
        accepts = 0
        for _ in range(trials):
            key = rng.integers(0, 2, 64)
            other = key.copy()
            other[rng.integers(64)] ^= 1
            accepts += verify_key(key, other, rng.integers(0, 2, 2))
        sigma = math.sqrt(0.25 / trials)
        assert abs(accepts / trials - 0.5) < 4 * sigma

    def test_single_bit_differences_caught_for_every_nonzero_selector(self):
        # The expanded seed is a maximal sequence, so a window of |K_v|
        # consecutive zeros never occurs: only the all-zero selector can
        # accept a single-bit difference.
        rng = np.random.default_rng(13)
        for _ in range(200):
            key = rng.integers(0, 2, 80)
            other = key.copy()
            other[rng.integers(80)] ^= 1
            selector = rng.integers(0, 2, 16)
            pad = rng.integers(0, 2, 16)
            verdict = verify_key(key, other, np.concatenate([selector, pad]))
            assert verdict == (not selector.any())
        zero_vk = np.zeros(32, np.uint8)
        key = rng.integers(0, 2, 80)
        other = key.copy()
        other[3] ^= 1
        assert verify_key(key, other, zero_vk)  # degenerate selector accepts

    def test_sixteen_bit_hash_false_accepts_rarely(self):
        rng = np.random.default_rng(5)
        trials = 20_000
        accepts = 0
        for _ in range(trials):
            key = rng.integers(0, 2, 64)
            other = key.copy()
            other[rng.integers(64)] ^= 1
            accepts += verify_key(key, other, rng.integers(0, 2, 32))
        rate = accepts / trials
        assert rate <= 2 ** -16 + 4 * math.sqrt(max(rate, 1e-9) / trials)

    def test_random_unequal_pairs_bounded_by_hash_length(self):
        rng = np.random.default_rng(6)
        trials = 20_000
        accepts = 0
        for _ in range(trials):
            key = rng.integers(0, 2, 48)
            other = rng.integers(0, 2, 48)
            if np.array_equal(key, other):
                continue
            accepts += verify_key(key, other, rng.integers(0, 2, 24))
        rate = accepts / trials
        assert rate <= 2 ** -12 + 4 * math.sqrt(max(rate, 1e-9) * (1 - rate) / trials)

    @pytest.mark.parametrize("kv", [1, 2, 16, 64])
    def test_matches_comparing_both_padded_tags(self, kv):
        # Oracle: hash each key, pad both tags and compare them.
        def padded_tags_equal(a, b, vk):
            selector, pad = vk[:kv], vk[kv:]
            return np.array_equal(verification_tag(a, selector) ^ pad,
                                  verification_tag(b, selector) ^ pad)

        rng = np.random.default_rng(kv)
        for length in (kv, 3 * kv, 200):
            for _ in range(40):
                key = rng.integers(0, 2, length)
                flipped = key.copy()
                flipped[rng.integers(length)] ^= 1
                vk = rng.integers(0, 2, 2 * kv)
                if rng.random() < 0.1:
                    vk[:kv] = 0  # the degenerate selector accepts every pair
                for other in (key.copy(), flipped, rng.integers(0, 2, length)):
                    assert verify_key(key, other, vk) == padded_tags_equal(key, other, vk)

    def test_rejects_odd_verification_key(self):
        with pytest.raises(ValueError):
            verify_key(np.zeros(8, np.uint8), np.zeros(8, np.uint8), np.zeros(7, np.uint8))

    def test_rejects_keys_of_different_lengths(self):
        with pytest.raises(ValueError, match="length mismatch"):
            verify_key(np.zeros(8, np.uint8), np.zeros(9, np.uint8), np.zeros(8, np.uint8))

    def test_hash_expander_taps_are_all_primitive(self):
        # The verification hash relies on every table entry driving a
        # maximal-length register; check the polynomial order directly,
        # with 2^k - 1 factored independently.
        import sympy
        from keyedqkd.protocol import _VERIFICATION_TAPS
        from reference import gf2_mulmod

        def modexp(exponent, poly, degree):
            result, base = 1, 2
            while exponent:
                if exponent & 1:
                    result = gf2_mulmod(result, base, poly, degree)
                base = gf2_mulmod(base, base, poly, degree)
                exponent >>= 1
            return result

        assert sorted(_VERIFICATION_TAPS) == list(range(1, 65))
        for degree, taps in _VERIFICATION_TAPS.items():
            assert max(taps) == degree
            # characteristic polynomial of the implemented recurrence
            poly = (1 << degree) | 1
            for t in taps:
                if t < degree:
                    poly |= 1 << (degree - t)
            order = 2 ** degree - 1
            assert modexp(order, poly, degree) == 1, degree
            for q in sympy.factorint(order):
                assert modexp(order // q, poly, degree) != 1, (degree, q)

    def test_tag_expands_every_table_register_like_the_reference(self):
        # A 600-bit key needs a seed of 599 + |K_v| bits: more than one
        # 512-bit block of the keystream kernel.
        from keyedqkd.protocol import _VERIFICATION_TAPS
        rng = np.random.default_rng(17)
        for kv, taps in _VERIFICATION_TAPS.items():
            key = rng.integers(0, 2, 600)
            selector = rng.integers(0, 2, kv)
            selector[rng.integers(kv)] = 1
            for sel in (selector, np.zeros(kv, np.int64)):
                seed = lfsr_reference(taps, sel, key.size + kv - 1)
                assert np.array_equal(verification_tag(key, sel),
                                      toeplitz_hash_direct(key, kv, seed)), (kv, sel.any())

    def test_word_parity_tag_matches_the_toeplitz_reference(self):
        # Key lengths around one 64-bit word and past one 512-bit keystream block.
        from keyedqkd.protocol import _VERIFICATION_TAPS
        rng = np.random.default_rng(23)
        for kv, taps in _VERIFICATION_TAPS.items():
            for length in sorted({kv, 63, 64, 65, 513}):
                if length < kv:
                    continue
                key = rng.integers(0, 2, length)
                selector = rng.integers(0, 2, kv)
                seed = lfsr_reference(taps, selector, length + kv - 1)
                assert np.array_equal(verification_tag(key, selector),
                                      toeplitz_hash_direct(key, kv, seed)), (kv, length)

    def test_key_shorter_than_the_tag_raises(self):
        for kv in (1, 2, 16, 64):
            key = np.ones(kv - 1, np.uint8)
            with pytest.raises(ValueError, match="output length"):
                verification_tag(key, np.ones(kv, np.uint8))
            with pytest.raises(ValueError, match="output length"):
                verify_key(key, key, np.ones(2 * kv, np.uint8))

    def test_verification_len_above_table_rejected(self):
        with pytest.raises(ValueError):
            verification_tag(np.zeros(8, np.uint8), np.zeros(65, np.uint8) + 1)

    def test_rejects_non_bit_selector(self):
        for selector in ([2], [1, 0, 2], [0, 3, 0, 0]):
            with pytest.raises(ValueError):
                verification_tag(np.zeros(8, np.uint8), np.array(selector))
        # Every hash input is checked before the uint8 cast, which would keep
        # 2 -> 0 under the low-bit hash, 257 -> 1 and -1 -> 255.
        zeros, ones = np.zeros(4, np.int64), np.ones(4, np.int64)
        for bad in ([2, 0, 0, 0], np.array([257, 0, 0, 0]), [-1, 0, 0, 0], [0.5, 0, 0, 0]):
            calls = [
                lambda: verification_tag(bad, [1, 0]),
                lambda: verify_key(bad, zeros, [1, 1, 0, 0]),
                lambda: verify_key(zeros, bad, [1, 1, 0, 0]),
                lambda: verify_key(zeros, zeros, bad),
                lambda: privacy_amplify(bad, 2, [1, 1, 0, 1, 1]),
                lambda: privacy_amplify(ones, 2, [1, *bad]),
            ]
            for call in calls:
                with pytest.raises(ValueError, match="must be 0 or 1"):
                    call()


class TestTransmitRound:
    def test_noiseless_is_error_free(self):
        config = make_config(n=10 ** 4)
        alice, bob, detected = transmit_round(config, np.random.default_rng(11))
        assert detected.size == 10 ** 4
        assert np.array_equal(alice, bob)

    def test_flip_probability_calibrates_qber(self):
        config = make_config(n=10 ** 5, flip=0.05)
        alice, bob, _ = transmit_round(config, np.random.default_rng(12))
        qber = float(np.mean(alice != bob))
        sigma = math.sqrt(0.05 * 0.95 / 10 ** 5)
        assert abs(qber - 0.05) < 4 * sigma

    def test_loss_thins_detected_positions(self):
        config = make_config(n=10 ** 4, loss=0.5)
        alice, bob, detected = transmit_round(config, np.random.default_rng(13))
        sigma = math.sqrt(10 ** 4 * 0.25)
        assert abs(detected.size - 5000) < 4 * sigma
        # No sifting: every detected qubit contributes a bit.
        assert alice.size == bob.size == detected.size

    def test_four_basis_alphabet_noiseless(self):
        config = make_config(n=4096, m=4, keystream=LFSR16)
        alice, bob, _ = transmit_round(config, np.random.default_rng(14))
        assert np.array_equal(alice, bob)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_interference(self, bad):
        # A NaN state would read as outcome 0 everywhere, and an infinite one
        # as a made-up error rate, if it reached the channel.
        def interfere(theta, rng):
            theta = theta.copy()
            theta[7] = bad
            return theta

        with pytest.raises(ValueError, match="non-finite"):
            transmit_round(make_config(n=100), np.random.default_rng(15), interfere)


def with_reference_draws(monkeypatch, run):
    """run(rng) once with the library's draw kernels and once with the draws
    they replace; returns both results and both final generator states."""
    fast_rng = np.random.default_rng(2024)
    fast = run(fast_rng)
    monkeypatch.setattr(keyedqkd.protocol, "uniform_bits", integer_bits)
    monkeypatch.setattr(keyedqkd.protocol, "uniform_below", draw_below)
    ref_rng = np.random.default_rng(2024)
    return fast, run(ref_rng), fast_rng.bit_generator.state, ref_rng.bit_generator.state


class TestRunProtocol:
    @pytest.mark.parametrize("m", [2, 16])
    @pytest.mark.parametrize("loss", [0.0, 0.3])
    def test_draw_kernels_match_the_draws_they_replace(self, monkeypatch, m, loss):
        # Odd n leaves a pending 32-bit half after the alice bits.
        config = make_config(n=20_001, m=m, flip=0.02, loss=loss, keystream=LFSR64)
        fast, ref, fast_state, ref_state = with_reference_draws(
            monkeypatch, lambda rng: run_protocol(config, rng))
        assert fast.verified
        assert fast.to_json_dict() == ref.to_json_dict()
        assert np.array_equal(fast.detected_positions, ref.detected_positions)
        assert fast_state == ref_state

    def test_standard_run_generates_key(self):
        config = make_config(n=10 ** 5, flip=0.02, keystream=LFSR64)
        outcome = run_protocol(config, np.random.default_rng(42))
        assert outcome.verified and outcome.abort_reason is None
        assert np.array_equal(outcome.alice_key, outcome.bob_key)
        assert abs(outcome.qber_raw - 0.02) < 4 * math.sqrt(0.02 * 0.98 / 5000)
        # 95000 kept bits * margin 0.200876 -> 19019 - 64; ledger subtracts 192.
        assert outcome.ledger.generated == outcome.alice_key.size
        expected_net = 0.19 * 10 ** 5 - 192
        assert abs(outcome.ledger.net - expected_net) <= 0.05 * expected_net

    def test_high_error_aborts_at_rate_gate(self):
        config = make_config(n=2 * 10 ** 4, flip=0.16, keystream=LFSR64)
        outcome = run_protocol(config, np.random.default_rng(7))
        assert not outcome.verified
        assert outcome.abort_reason == "rate_gate"
        assert outcome.ledger.generated == 0
        assert outcome.ledger.consumed_verification == 0
        assert outcome.ledger.net == -64

    def test_small_n_has_negative_net(self):
        config = make_config(n=100, flip=0.02, keystream=LFSR64)
        outcome = run_protocol(config, np.random.default_rng(1))
        assert outcome.ledger.net < 0

    def test_key_shorter_than_verification_tag_aborts(self):
        # 380 kept bits amplify to floor(380 * 0.2009) - 64 = 12 < |K_v| = 32.
        config = make_config(n=400, keystream=LFSR64)
        outcome = run_protocol(config, np.random.default_rng(3))
        assert not outcome.verified
        assert outcome.abort_reason == "key_too_short"
        assert outcome.qber_raw == 0.0 and outcome.alice_key.size == 0
        assert outcome.ledger == KeyLedger(consumed_seed=64, consumed_verification=0, generated=0)
        assert outcome.ledger.net == -64

    def test_residual_error_aborts_at_verification(self, monkeypatch):
        # The idealized decoder always returns the sender's bits; leave one
        # residual error so the verification step has something to catch.
        def leave_one_error(alice_bits, bob_bits, code_rate):
            corrected, leaked, ok = reconcile(alice_bits, bob_bits, code_rate)
            corrected[0] ^= 1
            return corrected, leaked, ok

        monkeypatch.setattr(keyedqkd.protocol, "reconcile", leave_one_error)
        config = make_config(n=10 ** 4, flip=0.02, keystream=LFSR64, kv=32)
        outcome = run_protocol(config, np.random.default_rng(42))
        assert outcome.abort_reason == "verification" and not outcome.verified
        assert outcome.ledger == KeyLedger(64, 2 * 32, 0)
        assert not np.array_equal(outcome.alice_key, outcome.bob_key)

    def test_verified_run_hashes_once_and_copies_the_key(self, monkeypatch):
        calls = []

        def counting(bits, out_len, hash_seed):
            calls.append(out_len)
            return privacy_amplify(bits, out_len, hash_seed)

        monkeypatch.setattr(keyedqkd.protocol, "privacy_amplify", counting)
        config = make_config(n=10 ** 4, flip=0.02, keystream=LFSR64)
        outcome = run_protocol(config, np.random.default_rng(42))
        assert outcome.verified and len(calls) == 1
        assert np.array_equal(outcome.bob_key, outcome.alice_key)
        assert not np.shares_memory(outcome.bob_key, outcome.alice_key)

    def test_ledger_conservation(self):
        for seed in range(4):
            config = make_config(n=5000, flip=0.03, keystream=LFSR16)
            outcome = run_protocol(config, np.random.default_rng(seed))
            ledger = outcome.ledger
            assert ledger.net == ledger.generated - ledger.consumed_seed - ledger.consumed_verification

    def test_deterministic_given_seed(self):
        config = make_config(n=5000, flip=0.02, loss=0.1)
        a = run_protocol(config, np.random.default_rng(33))
        b = run_protocol(config, np.random.default_rng(33))
        assert a.verified
        assert np.array_equal(a.alice_key, b.alice_key)
        assert a.qber_raw == b.qber_raw and a.ledger == b.ledger

    def test_repetition_keystream_round(self):
        config = make_config(
            n=4000, keystream=RepetitionKeystream(SeedKey.from_string("10011010")))
        outcome = run_protocol(config, np.random.default_rng(44))
        assert outcome.verified
        assert outcome.ledger.consumed_seed == 8

    def test_rejects_direct_encryption_mode(self):
        config = make_config(mode="direct-encryption")
        with pytest.raises(ValueError):
            run_protocol(config, np.random.default_rng(0))


ABORT_REASONS = {None, "no_detected", "rate_gate", "reconcile", "key_too_short", "verification"}

# Primitive and non-primitive registers of a few lengths, drawn by the fuzzer.
FUZZ_TAPS = [(2, 1), (3, 2), (4, 2), (5, 2), (8, 7, 2, 1), (16, 12, 3, 1), (17, 3)]


# Each field mixes a range that reaches every abort reason and a verified key
# (clean channel, rate inside the window) with its whole valid range.
@settings(max_examples=80, deadline=None)
@given(
    n=st.one_of(st.integers(1, 40), st.integers(1, 4000)),
    m=st.sampled_from([2, 4, 8, 16]),
    taps=st.sampled_from([None, None, *FUZZ_TAPS]),
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=40),
    flip=st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.0, 0.49)),
    loss=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
    rate=st.one_of(st.floats(0.45, 0.7), st.floats(0.01, 0.99)),
    s=st.integers(0, 128),
    kv=st.one_of(st.integers(1, 64), st.integers(-1, 70)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_valid_configs_return_an_outcome(n, m, taps, bits, flip, loss, rate, s, kv, seed):
    # Aborts are outcomes: a config either fails validation or runs to an outcome.
    # taps None draws a repetition key of the drawn bits, else an LFSR seed of them.
    try:
        if taps is None:
            keystream = RepetitionKeystream(SeedKey(tuple(bits)))
        else:
            keystream = LfsrKeystream(LfsrSpec(taps),
                                      SeedKey(tuple((bits * max(taps))[:max(taps)])))
        config = make_config(n=n, m=m, keystream=keystream, flip=flip, loss=loss,
                             rate=rate, s=s, kv=kv)
    except ValueError:
        return
    outcome = run_protocol(config, np.random.default_rng(seed))
    assert outcome.abort_reason in ABORT_REASONS
    assert outcome.verified == (outcome.abort_reason is None)
    ledger = outcome.ledger
    assert ledger.net == ledger.generated - ledger.consumed_seed - ledger.consumed_verification
    assert ledger.generated == (outcome.alice_key.size if outcome.verified else 0)


class TestDirectEncryption:
    @pytest.mark.parametrize("loss", [0.0, 0.1])
    def test_draw_kernels_match_the_draws_they_replace(self, monkeypatch, loss):
        config = make_config(n=4001, loss=loss, rate=0.5, mode="direct-encryption")
        plaintext = np.random.default_rng(8).integers(0, 2, 1001).astype(np.uint8)
        fast, ref, fast_state, ref_state = with_reference_draws(
            monkeypatch, lambda rng: run_direct_encryption(config, plaintext, rng))
        assert fast.ok and ref.ok
        assert np.array_equal(fast.ciphertext_angles, ref.ciphertext_angles)
        assert np.array_equal(fast.recovered_plaintext, ref.recovered_plaintext)
        assert fast_state == ref_state

    def test_lossy_noisy_run_matches_recorded_outputs(self):
        # Recorded before the send step moved into the shared keyed channel:
        # a change in its draw order changes the hash or the final state.
        config = make_config(n=4001, m=4, flip=0.03, loss=0.1, rate=0.5,
                             mode="direct-encryption")
        plaintext = np.random.default_rng(9).integers(0, 2, 1001).astype(np.uint8)
        rng = np.random.default_rng(2031)
        result = run_direct_encryption(config, plaintext, rng)
        assert hashlib.sha256(result.ciphertext_angles.tobytes()).hexdigest() == (
            "e6848ad077ffc329afb6f9a6782acf2ce1480a3b313a3053243c415a7bf813e3")
        assert result.ok and result.reason is None
        assert np.array_equal(result.recovered_plaintext, plaintext)
        assert rng.bit_generator.state == {
            "bit_generator": "PCG64",
            "state": {"state": 246312628571000974458910357910331652885,
                      "inc": 327797321855181304204031774571720475759},
            "has_uint32": 0, "uinteger": 3207962984,
        }

    def test_noiseless_recovers_plaintext(self):
        config = make_config(n=4000, mode="direct-encryption")
        rng = np.random.default_rng(2)
        plaintext = rng.integers(0, 2, 2000).astype(np.uint8)
        result = run_direct_encryption(config, plaintext, rng)
        assert result.ok and result.reason is None
        assert np.array_equal(result.recovered_plaintext, plaintext)
        assert result.ciphertext_angles.size == 4000

    def test_moderate_noise_still_decodes(self):
        config = make_config(n=10 ** 4, flip=0.05, mode="direct-encryption")
        rng = np.random.default_rng(3)
        plaintext = rng.integers(0, 2, 5000).astype(np.uint8)
        result = run_direct_encryption(config, plaintext, rng)
        assert result.ok
        assert np.array_equal(result.recovered_plaintext, plaintext)

    def test_noise_beyond_rate_fails(self):
        config = make_config(n=10 ** 4, flip=0.12, rate=0.9, mode="direct-encryption")
        rng = np.random.default_rng(4)
        plaintext = rng.integers(0, 2, 800).astype(np.uint8)
        result = run_direct_encryption(config, plaintext, rng)
        assert not result.ok and result.reason == "reconcile"
        assert result.recovered_plaintext is None

    def test_erasures_count_against_the_code(self):
        # Lost positions appear as coin flips to the idealized decoder:
        # 20% loss sits inside a rate-0.3 budget, 60% loss does not.
        rng = np.random.default_rng(5)
        plaintext = rng.integers(0, 2, 1000).astype(np.uint8)
        light = make_config(n=10 ** 4, loss=0.2, rate=0.3, mode="direct-encryption")
        result = run_direct_encryption(light, plaintext, np.random.default_rng(6))
        assert result.ok
        heavy = make_config(n=10 ** 4, loss=0.6, rate=0.3, mode="direct-encryption")
        result = run_direct_encryption(heavy, plaintext, np.random.default_rng(7))
        assert not result.ok

    def test_rejects_oversized_plaintext(self):
        config = make_config(n=1000, rate=0.5, mode="direct-encryption")
        with pytest.raises(ValueError):
            run_direct_encryption(config, np.ones(501, np.uint8), np.random.default_rng(0))

    def test_rejects_plaintext_shorter_than_the_tag(self):
        config = make_config(n=1000, mode="direct-encryption")
        with pytest.raises(ValueError, match="31 bits is shorter than the 32-bit authentication tag"):
            run_direct_encryption(config, np.ones(31, np.uint8), np.random.default_rng(0))
        assert run_direct_encryption(config, np.ones(32, np.uint8), np.random.default_rng(0)).ok

    def test_rejects_key_generation_mode(self):
        with pytest.raises(ValueError):
            run_direct_encryption(make_config(), np.ones(4, np.uint8), np.random.default_rng(0))

    def test_rejects_non_bit_plaintext_before_sending(self):
        # A 2 travels as the state of a 0 (theta + pi), yet the run once
        # reported ok: the low-bit hash cannot see it. It is refused up front.
        config = make_config(n=1000, mode="direct-encryption")
        plaintext = np.ones(64, np.int64)
        plaintext[5] = 2
        with pytest.raises(ValueError, match="plaintext must be 0 or 1"):
            run_direct_encryption(config, plaintext, np.random.default_rng(0))


class TestConfigSerialization:
    def test_lfsr_round_trip(self):
        config = make_config(n=777, flip=0.01, loss=0.2, rate=0.55, s=32, kv=16)
        doc = config.to_json_dict()
        assert set(doc) == {"n", "m", "keystream", "channel", "code_rate",
                            "pa_security_param", "verification_len", "mode"}
        assert ProtocolConfig.from_json_dict(json.loads(json.dumps(doc))) == config

    def test_repetition_round_trip(self):
        config = make_config(keystream=RepetitionKeystream(SeedKey.from_string("1001")))
        restored = ProtocolConfig.from_json_dict(config.to_json_dict())
        assert restored == config

    def test_missing_field_raises(self):
        doc = make_config().to_json_dict()
        del doc["code_rate"]
        with pytest.raises(ValueError):
            ProtocolConfig.from_json_dict(doc)

    def test_unknown_field_raises(self):
        doc = make_config().to_json_dict()
        doc["code_rte"] = 0.6
        with pytest.raises(ValueError, match="unknown config fields"):
            ProtocolConfig.from_json_dict(doc)

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError):
            make_config(n=0)
        with pytest.raises(ValueError):
            make_config(rate=1.0)
        with pytest.raises(ValueError):
            make_config(kv=0)
        with pytest.raises(ValueError):
            make_config(mode="broadcast")
        with pytest.raises(ValueError):
            make_config(m=4, keystream=RepetitionKeystream(SeedKey.from_string("1001")))
        with pytest.raises(ValueError):
            make_config(n=4, keystream=RepetitionKeystream(SeedKey.from_string("10011010")))
        doc = make_config().to_json_dict()
        for field, value in [("n", 1.7), ("n", True), ("m", 2.9), ("verification_len", 3.5),
                             ("pa_security_param", 64.5), ("pa_security_param", False),
                             ("n", "400"), ("m", None), ("code_rate", "0.6"), ("code_rate", True),
                             ("channel", {"flip_prob": False, "loss": 0.0}),
                             ("channel", {"flip_prob": 0.0, "loss": "0.1"})]:
            with pytest.raises(ValueError):
                ProtocolConfig.from_json_dict(dict(doc, **{field: value}))

    @pytest.mark.parametrize("value", [1.5, 64.0, np.float64(64.0), True, "64", None],
                             ids=["fraction", "float", "numpy-float", "bool", "str", "none"])
    @pytest.mark.parametrize("field", ["n", "m", "s", "kv"])
    def test_non_integer_fields_raise_when_built(self, field, value):
        # Once a TypeError from inside run_protocol, or a truncation.
        with pytest.raises(ValueError, match="must be an integer"):
            make_config(**{field: value})

    def test_numpy_integer_fields_are_stored_as_ints(self):
        config = make_config(n=np.int64(4000), m=np.int32(4), s=np.uint16(64), kv=np.int8(32))
        fields = (config.n, config.alphabet.m, config.pa_security_param, config.verification_len)
        assert fields == (4000, 4, 64, 32) and all(type(f) is int for f in fields)
        json.dumps(config.to_json_dict())
        assert run_protocol(config, np.random.default_rng(0)).verified

    @pytest.mark.parametrize("shape", [
        "top-level number", "top-level list", "top-level null", "channel number",
        "keystream number", "seed number", "spec number", "kind number", "key number",
    ])
    def test_wrong_json_shapes_raise_value_error(self, shape):
        doc = make_config().to_json_dict()
        ks = doc["keystream"]
        bad = {
            "top-level number": 5,
            "top-level list": [doc],
            "top-level null": None,
            "channel number": dict(doc, channel=5),
            "keystream number": dict(doc, keystream=5),
            "seed number": dict(doc, keystream=dict(ks, seed=5)),
            "spec number": dict(doc, keystream=dict(ks, spec=16)),
            "kind number": dict(doc, keystream=dict(ks, kind=5)),
            "key number": dict(doc, keystream={"kind": "repetition", "key": 1001}),
        }[shape]
        with pytest.raises(ValueError):
            ProtocolConfig.from_json_dict(bad)

    def test_integral_floats_are_accepted(self):
        doc = dict(make_config().to_json_dict(), n=1e5, m=4.0, verification_len=32.0,
                   channel={"flip_prob": 0, "loss": 0})
        config = ProtocolConfig.from_json_dict(doc)
        assert (config.n, config.alphabet.m, config.verification_len) == (100000, 4, 32)
        assert config.channel == ChannelModel(0.0, 0.0)


class TestOutcomeSerialization:
    def test_bits_to_hex(self):
        assert bits_to_hex(np.array([], np.uint8)) == ""
        assert bits_to_hex(np.array([1, 0, 1, 0], np.uint8)) == "a"
        assert bits_to_hex(np.array([1, 1, 1, 1, 0, 0, 0, 1], np.uint8)) == "f1"
        assert bits_to_hex(np.array([1, 0, 1], np.uint8)) == "a"  # right-padded

    def test_bits_to_hex_matches_nibble_rendering(self):
        rng = np.random.default_rng(6)
        for n in (*range(40), 19019):
            bits = rng.integers(0, 2, n)
            text = "".join(map(str, bits)) + "0" * (-n % 4)
            nibbles = "".join(f"{int(text[i:i + 4], 2):x}" for i in range(0, len(text), 4))
            assert bits_to_hex(bits) == nibbles, n

    def test_bits_to_hex_rejects_non_bits(self):
        for bad in ([2, 0, 0, 0], np.array([257, 0]), [-1], [0.5]):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                bits_to_hex(bad)

    def test_outcome_json_shape(self):
        outcome = run_protocol(make_config(n=2000, flip=0.02), np.random.default_rng(5))
        doc = outcome.to_json_dict()
        assert doc["verified"] is True
        assert doc["detected_count"] == 2000
        assert doc["key_bits"] == outcome.alice_key.size
        assert doc["ledger"]["net"] == outcome.ledger.net
        assert len(doc["alice_key"]) == math.ceil(outcome.alice_key.size / 4)

    def test_ledger_net_property(self):
        ledger = KeyLedger(consumed_seed=16, consumed_verification=64, generated=50)
        assert ledger.net == -30
