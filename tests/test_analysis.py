"""Entropy, capacities, rate windows, sweeps, confidence intervals, net rate."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from keyedqkd import (
    BasisAlphabet,
    ChannelModel,
    LfsrKeystream,
    LfsrSpec,
    ProtocolConfig,
    RateVerdict,
    SeedKey,
    binomial_ci,
    eve_capacity,
    h2,
    net_key_rate,
    rate_gate,
    rate_window,
    run_protocol,
    sweep_csv,
    sweep_m,
)

PI = math.pi
BREIDBART_ERROR = (2.0 - math.sqrt(2.0)) / 4.0


class TestBinaryEntropy:
    def test_anchors(self):
        assert h2(0.5) == 1.0
        assert h2(0.0) == 0.0
        assert h2(1.0) == 0.0
        assert abs(h2(0.15) - 0.609840) < 1e-6

    def test_against_scipy(self):
        from scipy.stats import entropy as scipy_entropy
        for p in np.linspace(0.01, 0.99, 25):
            assert abs(h2(p) - scipy_entropy([p, 1 - p], base=2)) < 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, p):
        assert abs(h2(p) - h2(1.0 - p)) < 1e-12

    def test_symmetry_on_grid(self):
        for p in np.linspace(0.0, 1.0, 1000):
            assert abs(h2(p) - h2(1.0 - p)) < 1e-12

    def test_concavity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p, q = rng.uniform(0, 1, 2)
            assert h2((p + q) / 2) >= (h2(p) + h2(q)) / 2 - 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            h2(-0.1)
        with pytest.raises(ValueError):
            h2(1.1)

    def test_rejects_a_bool(self):
        with pytest.raises(ValueError, match="must be a real number"):
            h2(True)


class TestEveCapacity:
    def test_two_basis_value(self):
        cap = eve_capacity(BasisAlphabet(2))
        assert abs(cap - (1.0 - h2(BREIDBART_ERROR))) < 1e-12
        assert abs(cap - 0.399124) < 1e-6

    def test_conservative_threshold_figure(self):
        assert abs((1.0 - h2(0.15)) - 0.390160) < 1e-6

    def test_degenerate_half_error_gives_zero_capacity(self):
        assert 1.0 - h2(0.5) == 0.0

    def test_grows_with_fewer_bases_only(self):
        # More bases raise the eavesdropper error, so her capacity shrinks.
        caps = [eve_capacity(BasisAlphabet(2 ** k)) for k in range(1, 7)]
        assert all(b <= a + 1e-12 for a, b in zip(caps, caps[1:]))


class TestRateWindow:
    def test_five_percent_channel(self):
        window = rate_window(0.05)
        assert abs(window.lower - 0.390160) < 1e-6
        assert abs(window.upper - 0.713603) < 1e-6
        assert window.nonempty

    def test_threshold_channel_is_empty(self):
        assert not rate_window(0.15).nonempty
        assert not rate_window(0.49).nonempty

    def test_empty_iff_error_at_threshold(self):
        for p_c in np.linspace(0.0, 0.3, 61):
            assert rate_window(float(p_c)).nonempty == (p_c < 0.15 - 1e-12)

    def test_agrees_with_rate_gate(self):
        for p_c in (0.01, 0.05, 0.1, 0.14, 0.2):
            window = rate_window(p_c)
            for rate in np.linspace(0.05, 0.95, 19):
                ok = rate_gate(p_c, float(rate)) is RateVerdict.OK
                assert ok == (window.lower < rate < window.upper)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rate_window(0.5)

    def test_rejects_a_string(self):
        with pytest.raises(ValueError, match="must be a real number"):
            rate_window("0.1")


class TestSweep:
    def test_two_basis_row(self):
        row = sweep_m([2])[0]
        assert row.m == 2
        assert abs(row.e_key_granted - 0.146447) < 1e-6
        assert abs(row.e_keyless - 0.146447) < 1e-6
        assert abs(row.phi_star - PI / 8) < 1e-6

    def test_rows_monotone_and_bounded(self):
        rows = sweep_m([2 ** k for k in range(1, 11)])
        granted = [r.e_key_granted for r in rows]
        keyless = [r.e_keyless for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(granted, granted[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(keyless, keyless[1:]))
        assert all(0.0 <= v <= 0.5 for v in granted + keyless)

    def test_keyless_column_optional(self):
        row = sweep_m([4], include_keyless=False)[0]
        assert row.e_keyless is None

    def test_keyless_cap(self):
        with pytest.raises(ValueError):
            sweep_m([2 ** 17])
        assert sweep_m([2 ** 17], include_keyless=False)[0].e_key_granted > 0.18

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            sweep_m([3])

    def test_rejects_non_integer_counts(self):
        # Rejected, not truncated to rows for m = 4 and 2.
        with pytest.raises(ValueError, match="must be an integer"):
            sweep_m([4.7, 2.9])

    def test_csv_rendering(self):
        text = sweep_csv(sweep_m([2, 4]))
        lines = text.strip().split("\n")
        assert lines[0] == "m,e_key_granted,e_keyless,phi_star"
        assert len(lines) == 3
        assert lines[1].startswith("2,0.146446609,0.146446609,")
        empty_keyless = sweep_csv(sweep_m([2], include_keyless=False)).strip().split("\n")[1]
        assert ",," in empty_keyless


class TestBinomialCi:
    def test_zero_successes(self):
        ci = binomial_ci(0, 10 ** 6)
        assert ci.estimate == 0.0 and ci.half_width == 0.0

    def test_half_successes(self):
        ci = binomial_ci(500_000, 10 ** 6)
        assert ci.estimate == 0.5
        assert abs(ci.half_width - 0.002) < 1e-12

    def test_single_trial_clamps(self):
        ci = binomial_ci(1, 1)
        assert 0.0 <= ci.lo <= ci.hi <= 1.0

    def test_covers(self):
        assert binomial_ci(500, 1000).covers(0.5)
        assert not binomial_ci(500, 1000).covers(0.9)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            binomial_ci(1, 0)
        with pytest.raises(ValueError):
            binomial_ci(5, 4)

    @pytest.mark.parametrize("successes,trials", [(1.5, 3), (True, 3), (1, 3.5)])
    def test_rejects_non_integer_counts(self, successes, trials):
        with pytest.raises(ValueError, match="must be an integer"):
            binomial_ci(successes, trials)


class TestNetKeyRate:
    @staticmethod
    def config(n):
        return ProtocolConfig(
            n=n, alphabet=BasisAlphabet(2),
            keystream=LfsrKeystream(LfsrSpec.from_text("64:64,63,61,60"),
                                    SeedKey.from_string("1" + "0" * 62 + "1")),
            channel=ChannelModel(flip_prob=0.02),
            code_rate=0.6, pa_security_param=64, verification_len=32,
        )

    def test_abort_is_negative_consumption_rate(self):
        config = ProtocolConfig(
            n=10 ** 4, alphabet=BasisAlphabet(2),
            keystream=LfsrKeystream(LfsrSpec.from_text("16:16,12,3,1"),
                                    SeedKey.from_string("1011001110001111")),
            channel=ChannelModel(flip_prob=0.2),
            code_rate=0.6, pa_security_param=64, verification_len=32,
        )
        outcome = run_protocol(config, np.random.default_rng(2))
        assert outcome.abort_reason == "rate_gate"
        assert net_key_rate(outcome, 10 ** 4) == -16 / 10 ** 4

    def test_standard_run_rate(self):
        outcome = run_protocol(self.config(10 ** 5), np.random.default_rng(3))
        rate = net_key_rate(outcome, 10 ** 5)
        assert 0.17 < rate < 0.21

    def test_rejects_a_non_integer_qubit_count(self):
        outcome = run_protocol(self.config(10 ** 4), np.random.default_rng(3))
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="integer"):
                net_key_rate(outcome, bad)

    def test_rate_improves_with_block_length(self):
        small = net_key_rate(run_protocol(self.config(10 ** 5), np.random.default_rng(4)), 10 ** 5)
        large = net_key_rate(run_protocol(self.config(10 ** 6), np.random.default_rng(4)), 10 ** 6)
        assert large > small
