"""Frame generation: mapping pins, CP structure, layout and power contracts."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsync import (
    Constellation,
    OfdmParams,
    SampleStream,
    add_awgn,
    build_frame,
    map_bits,
    replicate_branches,
)

from oracles import add_cp, direct_idft, ofdm_symbol

SQRT2 = np.sqrt(2.0)
SQRT10 = np.sqrt(10.0)


class TestMapBits:
    def test_qpsk_zero_bits_pin(self):
        np.testing.assert_allclose(
            map_bits([0, 0], Constellation.QPSK), [(1 + 1j) / SQRT2], atol=1e-15
        )

    def test_qpsk_full_table(self):
        # (b0, b1) -> ((1-2b0) + j(1-2b1)) / sqrt(2), the documented convention.
        expected = {
            (0, 0): (1 + 1j) / SQRT2,
            (0, 1): (1 - 1j) / SQRT2,
            (1, 0): (-1 + 1j) / SQRT2,
            (1, 1): (-1 - 1j) / SQRT2,
        }
        for bits, point in expected.items():
            got = map_bits(list(bits), Constellation.QPSK)[0]
            assert got == pytest.approx(point)

    def test_qpsk_points_equal_documented_expression_bit_for_bit(self):
        for b0 in (0, 1):
            for b1 in (0, 1):
                point = ((1 - 2 * b0) + 1j * (1 - 2 * b1)) * (1 / np.sqrt(2))
                got = map_bits([b0, b1], Constellation.QPSK)
                assert got.tobytes() == np.complex128(point).tobytes()

    def test_qam16_sixteen_distinct_grid_points(self):
        patterns = [[(p >> 3) & 1, (p >> 2) & 1, (p >> 1) & 1, p & 1] for p in range(16)]
        points = np.concatenate([map_bits(p, Constellation.QAM16) for p in patterns])
        assert len(set(np.round(points, 12))) == 16
        levels = {-3 / SQRT10, -1 / SQRT10, 1 / SQRT10, 3 / SQRT10}
        for point in points:
            assert min(abs(point.real - l) for l in levels) < 1e-12
            assert min(abs(point.imag - l) for l in levels) < 1e-12

    def test_qam16_exact_unit_power_over_alphabet(self):
        patterns = [[(p >> 3) & 1, (p >> 2) & 1, (p >> 1) & 1, p & 1] for p in range(16)]
        points = np.concatenate([map_bits(p, Constellation.QAM16) for p in patterns])
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("constellation", list(Constellation))
    def test_mean_power_random_bits(self, constellation):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, size=100_000 * constellation.bits_per_symbol // 2 * 2)
        bits = bits[: bits.size - bits.size % constellation.bits_per_symbol]
        symbols = map_bits(bits, constellation)
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_indivisible_bit_count_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            map_bits([0, 1, 0], Constellation.QPSK)
        with pytest.raises(ValueError, match="divisible"):
            map_bits([0, 1, 0], Constellation.QAM16)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0s and 1s"):
            map_bits([0, 2], Constellation.QPSK)

    @pytest.mark.parametrize(
        "bits", [["0", "1"], [b"0", b"1"], "01", b"01"],
        ids=["str-list", "bytes-list", "str", "bytes"],
    )
    def test_text_bits_rejected(self, bits):
        # Unchecked, numpy parsed each string as a bit.
        with pytest.raises(ValueError, match="^bits must be numbers, got "):
            map_bits(bits, Constellation.QPSK)

    @pytest.mark.parametrize("bits", [[0.5, 1.0], [1.9, 1.0], [1.0, 1 + 1j]])
    def test_non_binary_values_rejected_before_the_cast(self, bits):
        # Cast first, 0.5 and 1.9 were truncated to the bits 0 and 1.
        with pytest.raises(ValueError, match="^bits must contain only 0s and 1s$"):
            map_bits(bits, Constellation.QPSK)

    def test_integer_beyond_64_bits_rejected(self):
        # Cast first, it raised a bare OverflowError naming no argument.
        with pytest.raises(ValueError, match="^bits must be numbers, got "):
            map_bits([2**70, 1], Constellation.QPSK)

    def test_constellation_must_be_a_member(self):
        # Unchecked, the string failed with a bare AttributeError naming no argument.
        with pytest.raises(ValueError, match="^constellation must be a Constellation, got 'qpsk'$"):
            map_bits([0, 1], "qpsk")


class TestAddCp:
    def test_copies_last_samples(self):
        symbol = np.array([1 + 1j, 2.0, 3.0, 4 - 2j])
        out = add_cp(symbol, 2)
        np.testing.assert_array_equal(out, [3.0, 4 - 2j, 1 + 1j, 2.0, 3.0, 4 - 2j])

    def test_full_length_prefix_repeats_symbol(self):
        symbol = np.arange(4) + 0j
        np.testing.assert_array_equal(add_cp(symbol, 4), np.concatenate([symbol, symbol]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            add_cp(np.ones(4, complex), 0)
        with pytest.raises(ValueError):
            add_cp(np.ones(4, complex), 5)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=64),
        cp_frac=st.floats(min_value=0.1, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_copy_property_holds_bitwise(self, n, cp_frac, seed):
        cp_len = max(1, int(n * cp_frac))
        rng = np.random.default_rng(seed)
        symbol = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out = add_cp(symbol, cp_len)
        np.testing.assert_array_equal(out[:cp_len], out[n : n + cp_len])


class TestOfdmSymbol:
    def test_scaled_impulse_spectrum(self):
        params = OfdmParams(n_subcarriers=4, cp_len=1)
        np.testing.assert_allclose(ofdm_symbol([4, 0, 0, 0], params), np.ones(4), atol=1e-15)

    def test_matches_direct_idft_oracle(self):
        params = OfdmParams(n_subcarriers=64, cp_len=16)
        rng = np.random.default_rng(5)
        data = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_allclose(ofdm_symbol(data, params), direct_idft(data), atol=1e-12)

    def test_total_energy_equals_mean_input_power(self):
        # Parseval consequence of the 1/N inverse scaling.
        params = OfdmParams(n_subcarriers=128, cp_len=32)
        rng = np.random.default_rng(6)
        data = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        out = ofdm_symbol(data, params)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(np.mean(np.abs(data) ** 2), rel=1e-12)

    def test_length_mismatch_rejected(self):
        params = OfdmParams(n_subcarriers=8, cp_len=2)
        with pytest.raises(ValueError, match="length"):
            ofdm_symbol(np.ones(4, complex), params)


def _per_symbol_frame(params, seed):
    """build_frame composed symbol by symbol from map_bits and the oracles."""
    rng = np.random.default_rng(seed)
    n = params.n_subcarriers
    symbols = []
    for _ in range(params.symbols_per_frame):
        bits = rng.integers(0, 2, size=n * params.constellation.bits_per_symbol)
        data = map_bits(bits, params.constellation) * np.sqrt(n)
        symbols.append(add_cp(ofdm_symbol(data, params), params.cp_len))
    pad = np.zeros(n, dtype=complex)
    return np.concatenate([pad, *symbols, pad])


class TestBuildFrame:
    @pytest.mark.parametrize("constellation", list(Constellation))
    @pytest.mark.parametrize(
        "n, cp, symbols", [(128, 32, 4), (1024, 72, 4), (12, 3, 1), (64, 16, 3)]
    )
    def test_equals_per_symbol_composition(self, constellation, n, cp, symbols):
        params = OfdmParams(n, cp, constellation=constellation, symbols_per_frame=symbols)
        for seed in (0, 7, 2**40 + 3):
            stream = build_frame(params, seed)
            assert stream.n_branches == 1
            assert np.array_equal(stream.branches[0], _per_symbol_frame(params, seed))

    def test_layout_arithmetic(self):
        params = OfdmParams(n_subcarriers=128, cp_len=32, symbols_per_frame=2)
        stream = build_frame(params, seed=1)
        assert stream.buffer_len == 2 * 160 + 2 * 128
        assert stream.sample_origin == 128
        assert stream.payload_start == 128
        assert stream.payload_stop == 128 + 2 * 160

    def test_deterministic_per_seed(self):
        params = OfdmParams(n_subcarriers=64, cp_len=16)
        a = build_frame(params, seed=99)
        b = build_frame(params, seed=99)
        np.testing.assert_array_equal(a.branches[0], b.branches[0])
        c = build_frame(params, seed=100)
        assert not np.array_equal(a.branches[0], c.branches[0])
        # Unchecked, numpy's SeedSequence refused these without naming the seed.
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1"):
            build_frame(params, -1)
        with pytest.raises(ValueError, match="^seed must be an integer, got 2.5"):
            build_frame(params, 2.5)

    def test_every_symbol_has_bitwise_cp_copy(self):
        params = OfdmParams(n_subcarriers=64, cp_len=16, symbols_per_frame=5)
        stream = build_frame(params, seed=2)
        buf = stream.branches[0]
        n, cp = params.n_subcarriers, params.cp_len
        for s in range(params.symbols_per_frame):
            start = stream.sample_origin + s * params.symbol_len
            np.testing.assert_array_equal(
                buf[start : start + cp], buf[start + n : start + n + cp]
            )

    def test_guard_padding_is_zero(self):
        params = OfdmParams(n_subcarriers=32, cp_len=8)
        stream = build_frame(params, seed=3)
        buf = stream.branches[0]
        assert np.all(buf[:32] == 0)
        assert np.all(buf[-32:] == 0)

    @pytest.mark.parametrize("constellation", list(Constellation))
    def test_payload_mean_power_near_unity(self, constellation):
        # M*N = 80*128 >= 1e4 samples per the power invariant.
        params = OfdmParams(
            n_subcarriers=128, cp_len=32, constellation=constellation, symbols_per_frame=80
        )
        stream = build_frame(params, seed=4)
        assert stream.payload_power() == pytest.approx(1.0, rel=0.02)


def _np_mean_power(stream):
    """payload_power's documented value: the mean over branches of each row's mean |x|^2."""
    payload = stream.branches[:, stream.payload_start : stream.payload_stop]
    return float(np.mean(np.mean(np.abs(payload) ** 2, axis=1)))


class TestPayloadPower:
    @pytest.mark.parametrize("branches", [1, 3, 16])
    def test_equals_np_mean_bit_for_bit(self, branches):
        frame = build_frame(OfdmParams(128, 16), seed=8)
        for seed in range(3):
            stream = add_awgn(replicate_branches(frame, branches), 3.0, seed=seed)
            assert stream.payload_power() == _np_mean_power(stream)
        # Rows whose powers span decades, so the order of the branch sum shows in the bits.
        rng = np.random.default_rng(branches)
        rows = rng.standard_normal((branches, 200)) + 1j * rng.standard_normal((branches, 200))
        rows *= 10.0 ** rng.uniform(-3, 3, size=(branches, 1))
        stream = SampleStream(branches=rows, sample_origin=0, payload_start=7, payload_stop=190)
        assert stream.payload_power() == _np_mean_power(stream)

    # 3, 5 and 7 branches: a sum of n equal row means, divided by n, need not
    # give back the row mean, so a broadcast view still averages its branches.
    @pytest.mark.parametrize("branches", [3, 5, 7, 16])
    def test_broadcast_view_equals_np_mean_bit_for_bit(self, branches):
        row_mean_differs = False
        for seed in range(25):
            stream = replicate_branches(build_frame(OfdmParams(64, 8), seed=seed), branches)
            assert stream.branches.strides[0] == 0
            assert stream.payload_power() == _np_mean_power(stream)
            row = stream.branches[0, stream.payload_start : stream.payload_stop]
            row_mean_differs |= stream.payload_power() != float(np.mean(np.abs(row) ** 2))
        assert row_mean_differs or branches == 16

    def test_one_sample_payload_equals_np_mean_bit_for_bit(self):
        rows = np.array([[0.3 - 1.7j, 2.1 + 0.4j], [1.1 + 0.9j, -0.6 + 0.2j], [5.0j, 1.0]])
        stream = SampleStream(branches=rows, sample_origin=0, payload_start=1, payload_stop=2)
        assert stream.payload_power() == _np_mean_power(stream)


class TestSampleStreamValidation:
    def test_branch_shape_and_finiteness(self):
        from cpsync import SampleStream

        with pytest.raises(ValueError, match="at least one branch"):
            SampleStream(branches=[], sample_origin=0)
        with pytest.raises(ValueError, match="shape"):
            SampleStream(branches=[np.zeros(4, complex), np.zeros(5, complex)], sample_origin=0)
        with pytest.raises(ValueError, match="non-finite"):
            SampleStream(branches=[np.array([1.0, np.nan], complex)], sample_origin=0)
        with pytest.raises(ValueError, match="payload"):
            SampleStream(branches=[np.zeros(4, complex)], sample_origin=0, payload_start=5)
        # Unchecked, each of these failed later: in estimate_sto, payload_power's
        # slicing or the search window, without naming the field.
        frame = build_frame(OfdmParams(64, 16), seed=1).branches
        with pytest.raises(ValueError, match="^sample_origin must be an integer, got 2.5"):
            SampleStream(frame, 2.5)
        for origin in (-5, frame.shape[1], 10**6):
            with pytest.raises(
                ValueError, match=rf"^sample_origin={origin} outside buffer \[0, {frame.shape[1]}\)"
            ):
                SampleStream(frame, origin)
        for name in ("payload_start", "payload_stop"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got 64.0"):
                SampleStream(frame, 64, **{name: 64.0})
        # An unsigned origin used to wrap in the search limits' -n.
        for kind in (np.int8, np.int64, np.uint64):
            stream = SampleStream(frame, kind(64), payload_start=kind(64), payload_stop=kind(100))
            for value in (stream.sample_origin, stream.payload_start, stream.payload_stop):
                assert type(value) is int

    @pytest.mark.parametrize(
        "branches", [[["1", "2", "3j", "4"]], [[b"1", b"2"]]], ids=["str", "bytes"]
    )
    def test_text_branches_rejected(self, branches):
        # Unchecked, numpy parsed the strings as the samples 1, 2, 3j and 4.
        with pytest.raises(ValueError, match="^branches must be numbers, got "):
            SampleStream(branches, 0)

    @pytest.mark.parametrize("shape", [(8,), (1, 2, 8)], ids=["1-D", "3-D"])
    def test_branches_must_be_two_dimensional(self, shape):
        message = f"branches have shape {shape}, expected (n_branches, buffer_len)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SampleStream(np.ones(shape, complex), 0)


class TestOfdmParamsValidation:
    def test_constellation_must_be_a_member(self):
        # Unchecked, a constellation string fails only inside build_frame, naming no field.
        with pytest.raises(ValueError, match="constellation must be a Constellation, got 'qpsk'"):
            OfdmParams(128, 32, constellation="qpsk")

    def test_cp_len_bounds(self):
        with pytest.raises(ValueError, match="cp_len"):
            OfdmParams(n_subcarriers=64, cp_len=0)
        with pytest.raises(ValueError, match="cp_len"):
            OfdmParams(n_subcarriers=64, cp_len=64)

    def test_symbols_per_frame(self):
        with pytest.raises(ValueError, match="symbols_per_frame"):
            OfdmParams(n_subcarriers=64, cp_len=16, symbols_per_frame=0)

    def test_sizes_must_be_integers(self):
        # A float size used to pass here and fail inside build_frame's numpy calls.
        with pytest.raises(ValueError, match="n_subcarriers must be an integer, got 128.0"):
            OfdmParams(n_subcarriers=128.0, cp_len=32)
        with pytest.raises(ValueError, match="cp_len must be an integer"):
            OfdmParams(n_subcarriers=128, cp_len="32")
        for bad in (2.0, True):
            with pytest.raises(ValueError, match="symbols_per_frame must be an integer"):
                OfdmParams(n_subcarriers=128, cp_len=32, symbols_per_frame=bad)
        params = OfdmParams(np.int64(128), np.int32(32), symbols_per_frame=np.int16(2))
        assert params.symbol_len == 160
        for kind in (np.int8, np.int64, np.uint64):
            params = OfdmParams(kind(64), kind(16), symbols_per_frame=kind(2))
            sizes = (params.n_subcarriers, params.cp_len, params.symbols_per_frame)
            assert sizes == (64, 16, 2) and all(type(size) is int for size in sizes)
        # Stored as given, uint8 sizes overflowed in build_frame's layout arithmetic.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream = build_frame(OfdmParams(np.uint8(128), np.uint8(32)), seed=1)
        assert stream.buffer_len == 4 * 160 + 2 * 128
