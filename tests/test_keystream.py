"""Keystream expanders: LFSR, repetition, selector grouping; uniform draw kernels."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keyedqkd import (
    BasisAlphabet,
    LfsrKeystream,
    LfsrSpec,
    RunningKey,
    SeedKey,
    expand_running_key,
    lfsr_period,
    lfsr_stream,
    repetition_running_key,
)

from keyedqkd.adversary import _key_guess_successes
from keyedqkd.keystream import _BLOCK, _TABLE_BITS, _jump_rows, lfsr_rows
from keyedqkd.qubits import uniform_below, uniform_bits

from reference import (draw_below, integer_bits, jump_rows_recurrence, key_guess_successes,
                       lfsr_matrix, lfsr_reference, primitive_tap_sets, selectors_matmul,
                       word_bits)

M2 = BasisAlphabet(2)
M4 = BasisAlphabet(4)


def all_nonzero_seeds(length):
    for value in range(1, 2 ** length):
        yield SeedKey(tuple((value >> i) & 1 for i in range(length)))


class TestSeedKey:
    def test_string_round_trip(self):
        key = SeedKey.from_string("0101")
        assert key.bits == (0, 1, 0, 1)
        assert key.to_string() == "0101"
        assert len(key) == 4 and not key.is_zero
        assert SeedKey.from_string("000").is_zero

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SeedKey.from_string("")
        with pytest.raises(ValueError):
            SeedKey.from_string("012")
        with pytest.raises(ValueError):
            SeedKey(())


class TestLfsrSpec:
    def test_text_round_trip(self):
        spec = LfsrSpec.from_text("4:4,1")
        assert spec.taps == (4, 1)
        assert spec.length == 4
        assert spec.to_text() == "4:4,1"

    def test_rejects_malformed_text(self):
        for bad in ("4", "4:", "x:4,1", "4:4,y", "5:4,1"):
            with pytest.raises(ValueError):
                LfsrSpec.from_text(bad)

    def test_rejects_bad_taps(self):
        with pytest.raises(ValueError):
            LfsrSpec((4,))
        with pytest.raises(ValueError):
            LfsrSpec((4, 0))

    @pytest.mark.parametrize("taps", [(4.7, 1), (True, 4), (4, 1.0), ("4", 1)])
    def test_rejects_non_integer_taps(self, taps):
        # An int() cast would truncate 4.7 to 4 and read True as tap 1.
        with pytest.raises(ValueError, match="tap position must be an integer"):
            LfsrSpec(taps)

    def test_numpy_integer_taps_are_stored_as_ints(self):
        spec = LfsrSpec((np.int64(4), np.uint8(1)))
        assert spec.taps == (4, 1) and all(type(t) is int for t in spec.taps)


class TestLfsrStream:
    def test_maximal_cycle_visits_every_nonzero_state(self):
        # x^4 + x + 1 is primitive: the 15 cyclic 4-bit windows of one period
        # are exactly the nonzero 4-bit patterns.
        out = lfsr_stream(LfsrSpec((4, 1)), SeedKey.from_string("0001"), 15)
        assert out.size == 15
        doubled = np.concatenate([out, out])
        windows = {tuple(doubled[i:i + 4]) for i in range(15)}
        assert len(windows) == 15
        assert (0, 0, 0, 0) not in windows

    def test_period_seven_cycle(self):
        spec = LfsrSpec((3, 2))
        seed = SeedKey.from_string("111")
        assert lfsr_period(spec, seed) == 7
        out = lfsr_stream(spec, seed, 7)
        doubled = np.concatenate([out, out])
        windows = {tuple(doubled[i:i + 3]) for i in range(7)}
        assert len(windows) == 7 and (0, 0, 0) not in windows

    def test_zero_count_gives_empty(self):
        assert lfsr_stream(LfsrSpec((4, 1)), SeedKey.from_string("1000"), 0).size == 0

    def test_rejects_zero_seed_and_length_mismatch(self):
        with pytest.raises(ValueError):
            lfsr_stream(LfsrSpec((4, 1)), SeedKey.from_string("0000"), 4)
        with pytest.raises(ValueError):
            lfsr_stream(LfsrSpec((4, 1)), SeedKey.from_string("101"), 4)

    @pytest.mark.parametrize("count", [True, 3.0, 2.5])
    def test_rejects_a_non_integer_count(self, count):
        # Read as 1, True would give one bit; floats would raise TypeError.
        with pytest.raises(ValueError, match="count must be an integer"):
            lfsr_stream(LfsrSpec((4, 1)), SeedKey.from_string("1001"), count)

    def test_deterministic_across_instances(self):
        spec = LfsrSpec((8, 6, 5, 4))
        seed = SeedKey.from_string("10110101")
        a = lfsr_stream(spec, seed, 200)
        b = lfsr_stream(spec, seed, 200)
        assert np.array_equal(a, b)

    def test_take_continues_midstream(self):
        # The last L of count + L bits are the state that continues the
        # stream where the first count stopped.
        spec, seed = LfsrSpec((5, 3)), SeedKey.from_string("10011")
        head = lfsr_rows(spec.taps, [seed.bits], 13 + 5)[0]
        tail = lfsr_rows(spec.taps, [head[13:]], 20)[0]
        assert np.array_equal(np.concatenate([head[:13], tail]), lfsr_stream(spec, seed, 33))


def table_blocks(length):
    """Every block lfsr_rows may take at register length `length`: _BLOCK,
    doubled while the doubled table's rows stay within _TABLE_BITS."""
    blocks = [_BLOCK]
    while 2 * blocks[-1] * length <= _TABLE_BITS:
        blocks.append(2 * blocks[-1])
    return blocks


def random_register(rng, length):
    """Random tap set with highest tap `length` and a random nonzero seed."""
    taps = {length, *(int(t) for t in rng.integers(1, length, size=rng.integers(1, 5)))}
    bits = rng.integers(0, 2, size=length)
    bits[rng.integers(length)] = 1
    return tuple(taps), SeedKey(tuple(int(b) for b in bits))


class TestTakeKernel:
    """lfsr_rows' jump-table blocks, and lfsr_stream, against the per-bit reference."""

    @pytest.mark.parametrize("length", [2, 3, 7, 16, 31, 32, 33, 63, 64, 65, 97, 127, 128])
    def test_matches_reference_and_iteration(self, length):
        rng = np.random.default_rng(length)
        taps, seed = random_register(rng, length)
        for count in (0, 1, length - 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + length):
            expected = lfsr_reference(taps, seed.bits, count + length)
            bits = lfsr_rows(taps, [seed.bits], count + length)[0]
            assert np.array_equal(bits, expected), (taps, count)
            assert np.array_equal(lfsr_stream(LfsrSpec(taps), seed, count), bits[:count]), \
                (taps, count)

    @pytest.mark.parametrize("length", [5, 64, 100])
    def test_take_after_take_tracks_state(self, length):
        # Chained calls, each fed the last L bits of the previous one's
        # count + L as its state.
        rng = np.random.default_rng(1000 + length)
        taps, seed = random_register(rng, length)
        counts = (0, 1, length - 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + length, 7)
        expected = lfsr_reference(taps, seed.bits, sum(counts) + length + 1)
        state, done = seed.bits, 0
        for count in counts:
            bits = lfsr_rows(taps, [state], count + length)[0]
            assert np.array_equal(bits[:count], expected[done:done + count]), count
            done += count
            state = bits[count:]
            assert np.array_equal(state, expected[done:done + length]), count
        assert lfsr_rows(taps, [state], 1)[0][0] == expected[done]

    @pytest.mark.parametrize("length", [5, 64])
    def test_rows_are_each_states_stream(self, length):
        # One row per state, the all-zero state included, each the stream
        # the reference runs from it, on either side of a block's end.
        rng = np.random.default_rng(3000 + length)
        taps, seed = random_register(rng, length)
        states = [seed.bits, (0,) * length, tuple(rng.integers(0, 2, length))]
        for count in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5):
            rows = lfsr_rows(taps, states, count)
            assert rows.shape == (3, count) and rows.dtype == np.uint8
            for row, state in zip(rows, states):
                assert np.array_equal(row, lfsr_reference(taps, state, count + length)[:count])

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            lfsr_stream(LfsrSpec((4, 1)), SeedKey.from_string("1000"), -1)

    @pytest.mark.parametrize("taps", [(1,), (2, 1), (5, 2), (16, 12, 3, 1), (64, 63, 61, 60),
                                      (100, 37, 5)])
    def test_jump_table_matches_recurrence(self, taps):
        assert _jump_rows(taps, _BLOCK) == jump_rows_recurrence(taps, _BLOCK)

    @pytest.mark.parametrize("taps", [(4, 3), (5, 2), (16, 12, 3, 1), (64, 63, 61, 60),
                                      (100, 37, 5)])
    def test_every_table_block_matches_the_recurrence(self, taps):
        # Each block from _BLOCK up to the largest, a prefix of the rows of
        # the largest from the recurrence.
        length, blocks = max(taps), table_blocks(max(taps))
        largest = jump_rows_recurrence(taps, blocks[-1])
        for block in blocks:
            mask = (1 << block + length) - 1
            assert _jump_rows(taps, block) == tuple(row & mask for row in largest), block

    @pytest.mark.parametrize("taps,period", [((1,), 1), ((2, 1), 3)])
    def test_the_largest_tables_repeat_their_period(self, taps, period):
        # Registers of 1 and 2 bits take blocks of 2^23 and 2^22 bits, too
        # long for the recurrence here; their sequences repeat every
        # `period` bits, so each row repeats its first `period` bits.
        length, block = max(taps), table_blocks(max(taps))[-1]
        assert block == _TABLE_BITS // length
        for got, head in zip(_jump_rows(taps, block), jump_rows_recurrence(taps, period)):
            first = format(head, f"0{period + length}b")[::-1][:period]  # bit k at index k
            assert got == int((first * (block // period + 2))[:block + length][::-1], 2)

    @pytest.mark.parametrize("length", [2, 16, 64, 100])
    def test_kernel_matches_reference_and_keeps_state_zero(self, length):
        rng = np.random.default_rng(2000 + length)
        taps, seed = random_register(rng, length)
        for count in (0, 1, _BLOCK, 2 * _BLOCK + 3):
            expected = lfsr_reference(taps, seed.bits, count + length)
            bits = lfsr_rows(taps, [np.array(seed.bits, dtype=np.uint8)], count + length)[0]
            assert np.array_equal(bits, expected), (taps, count)
            zeros = lfsr_rows(taps, [np.zeros(length, dtype=np.uint8)], count + length)[0]
            assert zeros.size == count + length and not zeros.any()


def reference_periods(taps):
    """Period of every nonzero state of the register, from `lfsr_reference`.

    The highest tap makes a step invertible, so the L-bit windows before the
    seed first reappears are distinct states of one cycle, each returning
    after the cycle's length; one reference sequence serves the whole cycle.
    """
    length = max(taps)
    periods = {}
    for value in range(1, 2 ** length):
        seed = tuple((value >> i) & 1 for i in range(length))
        if seed not in periods:
            seq = lfsr_reference(taps, seed, 2 ** length - 1 + length).tolist()
            period = next(t for t in range(1, 2 ** length) if tuple(seq[t:t + length]) == seed)
            for i in range(period):
                periods[tuple(seq[i:i + length])] = period
    return periods


class TestLfsrPeriod:
    def test_primitive_degree_four(self):
        spec = LfsrSpec((4, 1))
        for seed in all_nonzero_seeds(4):
            assert lfsr_period(spec, seed) == 15

    def test_two_bit_register(self):
        assert lfsr_period(LfsrSpec((2, 1)), SeedKey.from_string("01")) == 3

    def test_non_primitive_degree_four(self):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2: periods divide 6, never reach 15.
        spec = LfsrSpec((4, 2))
        periods = {lfsr_period(spec, seed) for seed in all_nonzero_seeds(4)}
        assert all(6 % p == 0 for p in periods)
        assert len(periods) > 1  # period depends on the seed
        assert max(periods) < 15

    def test_refuses_long_registers(self):
        with pytest.raises(ValueError):
            lfsr_period(LfsrSpec((25, 1)), SeedKey(tuple([1] + [0] * 24)))

    def test_every_primitive_polynomial_up_to_degree_8(self):
        # Oracle: a polynomial is primitive iff x has order 2^L - 1 modulo it,
        # computed by GF(2) arithmetic independent of the register simulation.
        table = primitive_tap_sets(8)
        assert [len(table[d]) for d in range(2, 9)] == [1, 2, 2, 6, 6, 18, 16]
        for degree, tap_sets in table.items():
            for taps in tap_sets:
                spec = LfsrSpec(taps)
                for seed in all_nonzero_seeds(degree):
                    assert lfsr_period(spec, seed) == 2 ** degree - 1


    def test_matches_reference_for_every_register_up_to_length_7(self):
        # Every tap set with highest tap 2..7, primitive or not, every nonzero seed.
        pairs = 0
        for length in range(2, 8):
            for lower in itertools.chain.from_iterable(
                    itertools.combinations(range(1, length), r) for r in range(1, length)):
                taps = (length, *lower)
                for seed_bits, period in reference_periods(taps).items():
                    assert lfsr_period(LfsrSpec(taps), SeedKey(seed_bits)) == period, (taps, seed_bits)
                    pairs += 1
        assert pairs == 10548

    def test_primitive_twenty_bit_register(self):
        # x^20 + x^3 + 1 is primitive.
        assert lfsr_period(LfsrSpec((20, 3)), SeedKey(tuple([1] + [0] * 19))) == 2 ** 20 - 1


class TestExpandRunningKey:
    def test_identity_grouping_two_bases(self):
        rk = expand_running_key([0, 1, 1, 0], 4, M2)
        assert rk.selectors.tolist() == [0, 1, 1, 0]

    def test_big_endian_grouping_four_bases(self):
        rk = expand_running_key([0, 1, 1, 0, 1, 1, 0, 0], 4, M4)
        assert rk.selectors.tolist() == [1, 2, 3, 0]

    def test_lfsr_composition(self):
        spec = LfsrSpec((4, 1))
        seed = SeedKey.from_string("0001")
        rk = LfsrKeystream(spec, seed).running_key(15, M2)
        assert np.array_equal(rk.selectors, lfsr_stream(spec, seed, 15))

    def test_accepts_precomputed_bit_array(self):
        # A numpy bit vector groups the same way as the list and tuple forms.
        stream = lfsr_stream(LfsrSpec((4, 1)), SeedKey.from_string("0001"), 16)
        from_array = expand_running_key(stream, 8, M4)
        for other in (stream.tolist(), tuple(stream.tolist())):
            assert np.array_equal(from_array.selectors, expand_running_key(other, 8, M4).selectors)
        with pytest.raises(ValueError):
            expand_running_key(stream, 9, M4)

    def test_consumes_exactly_needed_bits(self):
        bits = [1, 0] * 8
        assert len(expand_running_key(bits, 8, M2)) == 8
        assert len(expand_running_key(bits, 4, M4)) == 4
        with pytest.raises(ValueError):
            expand_running_key(bits, 9, M4)  # needs 18 bits, have 16

    def test_exhaustion_raises(self):
        with pytest.raises(ValueError):
            expand_running_key([1, 0, 1], 4, M2)

    @pytest.mark.parametrize("n", [True, 2.0, 1.5])
    def test_rejects_a_non_integer_count(self, n):
        with pytest.raises(ValueError, match="selector count must be an integer"):
            expand_running_key([1, 0, 1, 1], n, M2)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_shift_or_matches_matmul(self, k):
        bits = np.random.default_rng(k).integers(0, 2, size=1000 * k + 5).astype(np.uint8)
        selectors = expand_running_key(bits, 1000, BasisAlphabet(2 ** k)).selectors
        assert selectors.dtype == np.int64
        assert np.array_equal(selectors, selectors_matmul(bits, 1000, k))

    def test_selectors_of_63_bits_expand_in_range_and_64_raise(self):
        # Three all-ones selectors: 2^63 - 1 is the largest an int64 holds;
        # at 64 bits the shift-or would wrap each one to -1.
        key = expand_running_key(np.ones(3 * 63, np.uint8), 3, BasisAlphabet(2 ** 63))
        assert key.selectors.tolist() == [2 ** 63 - 1] * 3 and key.m == 2 ** 63
        with pytest.raises(ValueError, match="63-bit limit"):
            expand_running_key(np.ones(3 * 64, np.uint8), 3, BasisAlphabet(2 ** 64))

    def test_rejects_non_bits(self):
        # 257's low byte is 1: the check must come before the uint8 cast.
        for bits in ([0, 1, 2, 1], [0, -1, 1, 1], np.array([0, 1, 257, 1]), [0.0, 1.0, 0.5, 1.0]):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                expand_running_key(bits, 4, M2)

    @settings(max_examples=40, deadline=None)
    @given(
        n1=st.integers(min_value=0, max_value=60),
        n2=st.integers(min_value=0, max_value=60),
        m_exp=st.integers(min_value=1, max_value=3),
        seed_value=st.integers(min_value=1, max_value=255),
    )
    def test_prefix_stability(self, n1, n2, m_exp, seed_value):
        lo, hi = sorted((n1, n2))
        alphabet = BasisAlphabet(2 ** m_exp)
        spec = LfsrSpec((8, 6, 5, 4))
        seed = SeedKey(tuple((seed_value >> i) & 1 for i in range(8)))
        short = LfsrKeystream(spec, seed).running_key(lo, alphabet)
        long = LfsrKeystream(spec, seed).running_key(hi, alphabet)
        assert np.array_equal(long.selectors[:lo], short.selectors)


class TestRunningKey:
    def test_rejects_non_integral_selectors(self):
        # The int64 cast would store [0, 1] for these.
        with pytest.raises(ValueError, match="integers"):
            RunningKey(np.array([0.5, 1.9]), 2)
        with pytest.raises(ValueError, match="integers"):
            RunningKey(np.array([np.nan]), 2)

    def test_integer_and_bool_selectors(self):
        for selectors in ([1, 0, 3], np.array([1, 0, 3], dtype=np.uint8)):
            assert RunningKey(selectors, 4).selectors.tolist() == [1, 0, 3]
        assert RunningKey(np.array([True, False]), 2).selectors.tolist() == [1, 0]
        with pytest.raises(ValueError, match="lie in"):
            RunningKey(np.array([2 ** 64 - 1], dtype=np.uint64), 4)

    @pytest.mark.parametrize("selectors,m,match", [
        ([0, 1], 2.5, "must be an integer"), ([0, 1], "4", "must be an integer"),
        ([0, 1], True, "must be an integer"), ([], -1, ">= 1"), ([], 0, ">= 1"),
        ([0], 0, ">= 1")])
    def test_rejects_a_bad_basis_count(self, selectors, m, match):
        with pytest.raises(ValueError, match=match):
            RunningKey(selectors, m)

    def test_numpy_basis_count_is_stored_as_an_int(self):
        assert type(RunningKey([0, 1], np.int64(2)).m) is int

    def test_leaves_the_callers_array_writeable(self):
        a = np.array([0, 1, 1])
        key = RunningKey(a, 2)
        assert a.flags.writeable and not key.selectors.flags.writeable
        a[0] = 1
        assert key.selectors.tolist() == [0, 1, 1]

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        a = np.arange(3)
        v = a.view()
        v.flags.writeable = False
        key = RunningKey(v, 3)
        a[0] = 2
        assert key.selectors.tolist() == [0, 1, 2]

    def test_read_only_owner_with_a_writeable_view_is_copied(self):
        a = np.arange(3)
        w = a[:]
        a.setflags(write=False)
        key = RunningKey(a, 3)
        w[0] = 2
        assert key.selectors.tolist() == [0, 1, 2]

    def test_read_only_array_made_writeable_again_is_copied(self):
        a = np.arange(3)
        a.setflags(write=False)
        key = RunningKey(a, 3)
        a.setflags(write=True)
        a[0] = 2
        assert key.selectors.tolist() == [0, 1, 2]

    def test_expanded_selectors_are_read_only(self):
        key = expand_running_key([1, 0, 0, 1, 1, 1], 3, BasisAlphabet(4))
        assert key.selectors.tolist() == [2, 1, 3]
        assert key.m == 4 and not key.selectors.flags.writeable


class TestRepetitionRunningKey:
    def test_two_blocks(self):
        assert repetition_running_key(SeedKey.from_string("10"), 4).selectors.tolist() == [1, 1, 0, 0]

    def test_four_blocks(self):
        rk = repetition_running_key(SeedKey.from_string("1001"), 8)
        assert rk.selectors.tolist() == [1, 1, 0, 0, 0, 0, 1, 1]

    def test_hundred_blocks_of_ten(self):
        rng = np.random.default_rng(3)
        key = SeedKey(tuple(int(b) for b in rng.integers(0, 2, 100)))
        rk = repetition_running_key(key, 1000)
        blocks = rk.selectors.reshape(100, 10)
        assert (blocks == blocks[:, :1]).all()  # constant within each block
        assert np.array_equal(blocks[:, 0], key.bits)

    def test_alternating_key_has_m_k_runs(self):
        key = SeedKey(tuple([0, 1] * 8))
        sel = repetition_running_key(key, 64).selectors
        runs = 1 + int(np.sum(sel[1:] != sel[:-1]))
        assert runs == len(key)

    def test_rejects_key_longer_than_sequence(self):
        with pytest.raises(ValueError):
            repetition_running_key(SeedKey.from_string("1010"), 3)

    @pytest.mark.parametrize("n", [True, 4.0, 2.5])
    def test_rejects_a_non_integer_length(self, n):
        # Read as 1, True would give one selector; floats would raise
        # TypeError or IndexError.
        with pytest.raises(ValueError, match="sequence length must be an integer"):
            repetition_running_key(SeedKey.from_string("1"), n)


def same_state(a, b) -> bool:
    """Bit generator state dicts equal, array entries (MT19937's key) included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
                  np.random.MT19937]


class SubclassedPCG64(np.random.PCG64):
    """A PCG64 by another type, whose words must come from rng.integers: its
    raw outputs are not to be read."""

    def random_raw(self, size=None, output=True):
        raise AssertionError("a subclass's raw outputs were read")


def twin_generators(bit_generator, pending):
    """Two equal generators; with `pending`, after an odd 32-bit draw count."""
    pair = [np.random.Generator(bit_generator(77)) for _ in range(2)]
    for rng in pair:
        rng.integers(0, 2, size=3 if pending else 4)
    return pair


class TestUniformDraws:
    """uniform_bits and uniform_below against the draw contract as tests/reference.py
    rebuilds it, bits and state, with and without a pending 32-bit half."""

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS + [SubclassedPCG64])
    def test_bits_match_the_integers_draw(self, bit_generator, pending):
        for n in (0, 1, 2, 3, 7, 63, 64, 65, 12_500, 100_001):
            ref, rng = twin_generators(bit_generator, pending)
            expected, bits = integer_bits(ref, n), uniform_bits(rng, n)
            assert bits.dtype == np.uint8 and np.array_equal(bits, expected), n
            assert same_state(rng.bit_generator.state, ref.bit_generator.state), n
            # The next draws, 32- and 64-bit, agree too.
            assert np.array_equal(rng.integers(0, 2, size=5), ref.integers(0, 2, size=5)), n
            assert rng.random() == ref.random(), n
        # Key guesses of 1, 2 and 3 words, against a seed that the fourth
        # guess equals, so that the count is not 0.
        count = 50
        for length in (64, 65, 130):
            peek, _ = twin_generators(bit_generator, pending)
            seed_bits = word_bits(peek, (count, -(-length // 64)))[3, :length]
            ref, rng = twin_generators(bit_generator, pending)
            expected = key_guess_successes(seed_bits, count, ref)
            assert expected >= 1, length
            assert _key_guess_successes(seed_bits, count, rng) == expected
            assert same_state(rng.bit_generator.state, ref.bit_generator.state), length
            assert rng.random() == ref.random(), length

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_zero_probability_skips_the_draw_state_exactly(self, bit_generator, pending):
        # p <= 0 gives no mask and draws nothing, on every bit generator;
        # every other p below 1, NaN included, draws one double per
        # element, and the state check holds them to rng.random's draws.
        for p in (-0.5, 0.0, 0.3, 0.999, math.nan):
            for n in (0, 1, 1001):
                ref, rng = twin_generators(bit_generator, pending)
                mask = uniform_below(p, rng, n)
                if p <= 0.0:
                    assert mask is None, p
                else:
                    assert mask.dtype == bool and mask.shape == (n,)
                    assert np.array_equal(mask, draw_below(p, n, ref)), (p, n)
                assert same_state(rng.bit_generator.state, ref.bit_generator.state), (p, n)
                assert rng.integers(0, 2) == ref.integers(0, 2), (p, n)

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS + [SubclassedPCG64])
    def test_a_block_draws_its_rows_in_c_order(self, bit_generator, pending):
        # A (3, n) draw holds the bits, or the mask, of the reference's one
        # draw of that shape, and of three one-row draws made one after
        # another, and leaves the generator in the same state as both.
        for n in (0, 1, 63, 65, 12_500):
            for p in (None, 0.0, 0.3, 0.999):
                ref, rng = twin_generators(bit_generator, pending)
                rows, _ = twin_generators(bit_generator, pending)
                if p is None:
                    got = uniform_bits(rng, (3, n))
                    want = integer_bits(ref, (3, n))
                    alone = [uniform_bits(rows, n) for _ in range(3)]
                else:
                    got = uniform_below(p, rng, (3, n))
                    want = None if p == 0.0 else draw_below(p, (3, n), ref)
                    alone = [uniform_below(p, rows, n) for _ in range(3)]
                if p == 0.0:
                    assert got is None and alone == [None] * 3
                else:
                    assert got.shape == (3, n) and got.dtype == want.dtype
                    assert np.array_equal(got, want), (n, p)
                    assert np.array_equal(got, np.stack(alone)), (n, p)
                for other in (ref, rows):
                    assert same_state(rng.bit_generator.state, other.bit_generator.state), (n, p)
                assert rng.random() == ref.random(), (n, p)

    @pytest.mark.parametrize("taps", [(8, 7, 2, 1), (64, 63, 61, 60), (4, 3), (5, 3)])
    def test_the_recurrence_matrix_gives_the_recurrence(self, taps):
        # The oracle of a guessed seed's terms: linear in the seed over GF(2).
        length = max(taps)
        draw = np.random.default_rng(length)
        for count in (1, length, length + 1, 3 * length + 7, 5000):
            matrix = lfsr_matrix(taps, count).astype(np.int64)
            for seed in [np.zeros(length, np.int64), *draw.integers(0, 2, (3, length))]:
                assert np.array_equal(matrix @ seed % 2, lfsr_reference(taps, seed, count))
