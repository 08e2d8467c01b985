"""Impairment contracts: timing shift, convolution, noise calibration, CFO."""

import math
import re

import numpy as np
import pytest

from cpsync import (
    CIR_FIXTURE,
    CfoParams,
    ChannelScenario,
    OfdmParams,
    SampleStream,
    add_awgn,
    apply_cfo,
    apply_cir,
    apply_sto,
    build_frame,
    freq_response,
    random_cir,
    replicate_branches,
)
from cpsync.channel import _cfo_ramp

from oracles import tap_major_convolution

# Regression constant: energy of the frozen 10-tap fixture, computed once by
# direct summation over the printed coefficients.
CIR_FIXTURE_ENERGY = 1.13464787

# Worst relative difference allowed between apply_cir and np.convolve, which
# sums each output sample in its own order: about 7x the largest seen, 1.5e-15.
CONVOLVE_RTOL = 1e-14

# Mean tap magnitude for (g_re + j*g_im)/sqrt(2) taps: Rayleigh with
# per-component sigma 1/sqrt(2), mean sigma*sqrt(pi/2) = sqrt(pi)/2.
RAYLEIGH_MEAN_MAGNITUDE = np.sqrt(np.pi) / 2.0


def _unit_stream(n=4096, seed=0, branches=1):
    rng = np.random.default_rng(seed)
    bufs = [
        (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        for _ in range(branches)
    ]
    return SampleStream(branches=bufs, sample_origin=0)


class TestApplySto:
    def test_zero_is_identity(self):
        stream = build_frame(OfdmParams(64, 16), seed=1)
        shifted = apply_sto(stream, 0)
        assert shifted.sample_origin == stream.sample_origin
        np.testing.assert_array_equal(shifted.branches[0], stream.branches[0])

    def test_samples_untouched(self):
        stream = build_frame(OfdmParams(64, 16), seed=1)
        shifted = apply_sto(stream, 5)
        assert shifted.sample_origin == stream.sample_origin - 5
        np.testing.assert_array_equal(shifted.branches[0], stream.branches[0])

    @pytest.mark.parametrize("a,b", [(3, 4), (-5, 2), (10, -10), (0, -7)])
    def test_composition_law(self, a, b):
        stream = build_frame(OfdmParams(64, 16), seed=2)
        two_step = apply_sto(apply_sto(stream, a), b)
        one_step = apply_sto(stream, a + b)
        assert two_step.sample_origin == one_step.sample_origin

    def test_out_of_bounds_rejected(self):
        stream = build_frame(OfdmParams(64, 16), seed=3)
        with pytest.raises(ValueError, match="outside buffer"):
            apply_sto(stream, stream.sample_origin + 1)
        with pytest.raises(ValueError, match="outside buffer"):
            apply_sto(stream, -(stream.buffer_len - stream.sample_origin))
        for bad in (2.5, 2.0, True):
            with pytest.raises(ValueError, match=f"^delta must be an integer, got {bad!r}"):
                apply_sto(stream, bad)
        for kind in (np.int8, np.int64, np.uint64):
            origin = apply_sto(stream, kind(2)).sample_origin
            assert origin == stream.sample_origin - 2 and type(origin) is int


class TestApplyCir:
    def test_unit_tap_is_identity(self):
        stream = _unit_stream(n=512, seed=4)
        out = apply_cir(stream, [1.0])
        np.testing.assert_array_equal(out.branches[0], stream.branches[0])

    def test_shifted_impulse_delays_buffer(self):
        stream = _unit_stream(n=512, seed=5)
        out = apply_cir(stream, [0.0, 1.0])
        np.testing.assert_allclose(out.branches[0][1:], stream.branches[0][:-1], atol=1e-15)
        assert out.branches[0][0] == 0

    def test_output_truncated_to_input_length(self):
        stream = _unit_stream(n=256, seed=6)
        out = apply_cir(stream, CIR_FIXTURE)
        assert out.buffer_len == stream.buffer_len

    def test_fixture_energy_regression(self):
        energy = float(np.sum(np.abs(np.asarray(CIR_FIXTURE)) ** 2))
        assert energy == pytest.approx(CIR_FIXTURE_ENERGY, abs=1e-8)
        assert len(CIR_FIXTURE) == 10

    def test_empty_taps_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            apply_cir(_unit_stream(n=16), [])

    def test_overflow_is_named_without_a_numpy_warning(self):
        # RuntimeWarnings are errors in this suite, so a per-tap overflow warning would fail here.
        with pytest.raises(ValueError, match="^apply_cir output is non-finite"):
            apply_cir(TestOverflowIsNamed._scaled_frame(1e307), [10, 10])

    def test_string_taps_rejected(self):
        # Unchecked, numpy parsed "12" as the one tap 12+0j.
        for taps in ("12", ["1", "2"]):
            with pytest.raises(ValueError, match="^cir taps must be numbers, got "):
                apply_cir(_unit_stream(n=16), taps)


class TestOneTapRule:
    """ChannelScenario, apply_cir and freq_response read taps through one rule."""

    @pytest.mark.parametrize("taps, flat", [
        ([[0.5, 0.25j]], [0.5, 0.25j]),
        (np.array([[1.0], [2.0 - 1j]]), [1.0, 2.0 - 1j]),
        (np.array(0.5 + 0.5j), [0.5 + 0.5j]),
        (0.75, [0.75]),
    ], ids=["nested-list", "column-array", "0-d-array", "scalar"])
    def test_nested_and_0d_taps_ravel_alike(self, taps, flat):
        # Unchecked, ChannelScenario raised numpy's bare TypeError on these taps.
        assert ChannelScenario(snr_db=10.0, cir_taps=taps).cir_taps == tuple(map(complex, flat))
        stream = _unit_stream(n=64, seed=40)
        convolved = apply_cir(stream, taps).branches
        assert convolved.tobytes() == apply_cir(stream, flat).branches.tobytes()
        assert freq_response(taps, 8) == freq_response(flat, 8)

    def test_nested_non_finite_tap_refused_by_each_owner(self):
        taps = [[1.0, math.inf]]
        with pytest.raises(ValueError, match="^cir_taps must be finite$"):
            ChannelScenario(snr_db=10.0, cir_taps=taps)
        with pytest.raises(ValueError, match="^cir taps must be finite$"):
            apply_cir(_unit_stream(n=16), taps)
        with pytest.raises(ValueError, match="^taps must be finite$"):
            freq_response(taps, 4)


def _sparse_stream(length, rows, seed=0):
    """One row per list of [start, stop) spans: random samples inside them, zeros elsewhere."""
    rng = np.random.default_rng(seed)
    branches = np.zeros((len(rows), length), dtype=np.complex128)
    for row, spans in zip(branches, rows):
        for start, stop in spans:
            draw = rng.standard_normal((2, stop - start))
            row[start:stop] = draw[0] + 1j * draw[1]
    return SampleStream(branches=branches, sample_origin=0)


class TestApplyCirEqualsFullConvolution:
    """Each output row is the tap-major convolution of the whole row, truncated, bit for bit.

    The oracle sums tap by tap over every column, with no support scan.
    .tobytes() equality also compares the signs of zeros. np.convolve, which
    sums in its own order, is an independent check within CONVOLVE_RTOL.
    """

    @staticmethod
    def _assert_full_convolution(stream, taps):
        out = apply_cir(stream, taps)
        h = np.asarray(taps, dtype=np.complex128)
        assert out.branches.shape == stream.branches.shape
        assert out.branches.tobytes() == tap_major_convolution(stream.branches, h).tobytes()
        for row, b in zip(out.branches, stream.branches):
            full = np.convolve(b, h)[: b.size]
            scale = np.max(np.abs(full))
            if scale == 0.0:
                assert not row.any()
            else:
                assert np.max(np.abs(row - full)) <= CONVOLVE_RTOL * scale

    @pytest.mark.parametrize("n", [64, 128, 1024])
    @pytest.mark.parametrize("n_taps", [1, 10, "n+5"])
    def test_frames(self, n, n_taps):
        n_taps = n + 5 if n_taps == "n+5" else n_taps
        stream = build_frame(OfdmParams(n, n // 4), seed=n)
        self._assert_full_convolution(stream, random_cir(n_taps, seed=n_taps, normalize=True))

    def test_fixture_on_frame(self):
        self._assert_full_convolution(_frame_128(), CIR_FIXTURE)

    def test_noisy_stream_with_data_in_its_guards(self):
        stream = add_awgn(replicate_branches(_frame_128(), 3), 2.0, seed=7)
        assert stream.branches[:, : stream.payload_start].all()
        assert stream.branches[:, stream.payload_stop :].all()
        self._assert_full_convolution(stream, random_cir(10, seed=8))

    @pytest.mark.parametrize(
        "spans",
        [[(0, 1)], [(299, 300)], [(0, 1), (299, 300)], [(0, 300)]],
        ids=["first-index", "last-index", "both-ends", "whole-row"],
    )
    def test_support_at_the_buffer_ends(self, spans):
        stream = _sparse_stream(300, [spans])
        for taps in ([1.0], CIR_FIXTURE, random_cir(40, seed=9)):
            self._assert_full_convolution(stream, taps)

    def test_all_zero_stream(self):
        stream = SampleStream(branches=np.zeros((2, 100), dtype=np.complex128), sample_origin=0)
        self._assert_full_convolution(stream, CIR_FIXTURE)
        assert not apply_cir(stream, CIR_FIXTURE).branches.any()

    def test_rows_with_different_supports(self):
        stream = _sparse_stream(500, [[(10, 60)], [(200, 210)], [(480, 500)]], seed=3)
        for taps in (CIR_FIXTURE, random_cir(25, seed=4)):
            self._assert_full_convolution(stream, taps)


class TestApplyCirRowsAreIndependent:
    """A multi-row stream convolves each row exactly as that row alone would."""

    @staticmethod
    def _assert_rows_as_alone(stream, taps):
        out = apply_cir(stream, taps).branches
        for row, b in zip(out, stream.branches):
            alone = SampleStream(branches=b[None, :], sample_origin=stream.sample_origin)
            assert row.tobytes() == apply_cir(alone, taps).branches[0].tobytes()

    def test_broadcast_view(self):
        stream = replicate_branches(_frame_128(), 4)
        assert stream.branches.strides[0] == 0
        for taps in (CIR_FIXTURE, random_cir(10, seed=12, normalize=True)):
            self._assert_rows_as_alone(stream, taps)

    def test_rows_with_different_supports(self):
        stream = _sparse_stream(
            500, [[(10, 60)], [(200, 210)], [(480, 500)], [(0, 3), (300, 330)], []], seed=5
        )
        for taps in ([1.0], CIR_FIXTURE, random_cir(25, seed=6)):
            self._assert_rows_as_alone(stream, taps)


class TestRandomCir:
    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(random_cir(10, seed=7), random_cir(10, seed=7))
        assert not np.array_equal(random_cir(10, seed=7), random_cir(10, seed=8))

    def test_normalized_energy(self):
        taps = random_cir(10, seed=9, normalize=True)
        assert abs(np.sum(np.abs(taps) ** 2) - 1.0) < 1e-12

    def test_magnitudes_rayleigh_mean(self):
        taps = random_cir(100_000, seed=10)
        assert np.mean(np.abs(taps)) == pytest.approx(RAYLEIGH_MEAN_MAGNITUDE, rel=0.01)

    def test_tap_count_validated(self):
        with pytest.raises(ValueError, match="n_taps"):
            random_cir(0, seed=0)
        with pytest.raises(ValueError, match="^n_taps must be an integer, got 2.5"):
            random_cir(2.5, seed=1)
        assert random_cir(np.int64(3), seed=1).shape == (3,)
        # Unchecked, numpy's SeedSequence refused the seed without naming it.
        with pytest.raises(ValueError, match="^seed must be an integer, got 'x'"):
            random_cir(3, "x")

    def test_normalize_must_be_a_bool(self):
        # Unchecked, any truthy value normalised: "no" gave unit-energy taps.
        with pytest.raises(ValueError, match="^normalize must be a bool, got 'no'$"):
            random_cir(3, seed=1, normalize="no")


class TestAddAwgn:
    def test_infinite_snr_leaves_stream_unchanged(self):
        stream = _unit_stream(n=128, seed=11)
        out = add_awgn(stream, math.inf, seed=0)
        np.testing.assert_array_equal(out.branches[0], stream.branches[0])

    def test_noise_power_matches_definition(self):
        stream = _unit_stream(n=200_000, seed=12)
        p_sig = stream.payload_power()
        out = add_awgn(stream, 10.0, seed=13)
        noise = out.branches[0] - stream.branches[0]
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(p_sig * 0.1, rel=0.02)

    @pytest.mark.parametrize("target_db", [2.0, 10.0, 30.0])
    def test_measured_snr_within_tenth_db(self, target_db):
        stream = _unit_stream(n=1_000_000, seed=14)
        out = add_awgn(stream, target_db, seed=15)
        noise = out.branches[0] - stream.branches[0]
        measured = 10.0 * np.log10(
            stream.payload_power() / np.mean(np.abs(noise) ** 2)
        )
        assert abs(measured - target_db) < 0.1

    def test_deterministic_per_seed(self):
        stream = _unit_stream(n=256, seed=16)
        a = add_awgn(stream, 5.0, seed=17)
        b = add_awgn(stream, 5.0, seed=17)
        np.testing.assert_array_equal(a.branches[0], b.branches[0])
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1"):
            add_awgn(stream, 5.0, seed=-1)

    def test_branches_get_independent_noise(self):
        stream = replicate_branches(_unit_stream(n=50_000, seed=18), 2)
        out = add_awgn(stream, 0.0, seed=19)
        n0 = out.branches[0] - stream.branches[0]
        n1 = out.branches[1] - stream.branches[1]
        assert not np.array_equal(n0, n1)
        rho = np.abs(np.vdot(n0, n1)) / (np.linalg.norm(n0) * np.linalg.norm(n1))
        assert rho < 0.02

    @pytest.mark.parametrize(
        "make_stream",
        [
            lambda: _unit_stream(n=300, seed=24),
            lambda: _unit_stream(n=300, seed=25, branches=16),
            lambda: replicate_branches(_unit_stream(n=300, seed=26), 4),
        ],
        ids=["1-branch", "16-branches", "replicated-view"],
    )
    def test_equals_scaled_draw_bit_for_bit(self, make_stream):
        stream = make_stream()
        snr_db, seed = 3.0, 27
        out = add_awgn(stream, snr_db, seed)
        scale = np.sqrt(stream.payload_power() / 10.0 ** (snr_db / 10.0) / 2.0)
        draws = np.random.default_rng(seed).standard_normal(
            (stream.n_branches, 2, stream.buffer_len)
        )
        expected = stream.branches + scale * (draws[:, 0] + 1j * draws[:, 1])
        assert np.array_equal(out.branches, expected)

    def test_nan_snr_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            add_awgn(_unit_stream(n=16), math.nan, seed=0)

    @pytest.mark.parametrize("snr_db", [-math.inf, 1e308, -1e308, -3080.0, -3200.0])
    def test_snr_without_finite_positive_ratio_rejected(self, snr_db):
        # 10^(snr_db/10) is 0 or overflows, so no noise variance exists; or
        # snr_db lies below MIN_SNR_DB, where the noise or the metric sums overflow.
        with pytest.raises(ValueError, match="snr_db"):
            add_awgn(_unit_stream(n=16), snr_db, seed=0)

    def test_zero_power_payload_rejected(self):
        silent = SampleStream(branches=[np.zeros(32, complex)], sample_origin=0)
        with pytest.raises(ValueError, match="zero-power"):
            add_awgn(silent, 10.0, seed=0)

    def test_empty_payload_region_rejected(self):
        empty = SampleStream(np.ones((1, 8), complex), 0, payload_start=3, payload_stop=3)
        with pytest.raises(ValueError, match="^stream has an empty payload region$"):
            add_awgn(empty, 10.0, seed=0)


class TestApplyCfo:
    def test_zero_epsilon_is_identity(self):
        stream = _unit_stream(n=64, seed=20)
        out = apply_cfo(stream, 0.0, n_fft=16)
        np.testing.assert_array_equal(out.branches[0], stream.branches[0])

    def test_magnitudes_preserved(self):
        stream = _unit_stream(n=4096, seed=21)
        out = apply_cfo(stream, 0.37, n_fft=64)
        before = np.abs(stream.branches[0])
        after = np.abs(out.branches[0])
        assert np.max(np.abs(after - before) / before) < 1e-14

    def test_direct_phase_evaluation(self):
        # One cycle per N samples: with N=4 sample n is rotated by n*90 degrees.
        stream = SampleStream(branches=[np.ones(4, complex)], sample_origin=0)
        out = apply_cfo(stream, 1.0, n_fft=4)
        expected = np.array([1, 1j, -1, -1j], dtype=complex)
        np.testing.assert_allclose(out.branches[0], expected, atol=1e-15)

    def test_fractional_epsilon_phase_increment(self):
        # epsilon=0.25, N=4: phase advances 2*pi*0.25/4 per sample.
        stream = SampleStream(branches=[np.ones(8, complex)], sample_origin=0)
        out = apply_cfo(stream, 0.25, n_fft=4)
        expected = np.exp(2j * np.pi * 0.25 * np.arange(8) / 4)
        np.testing.assert_allclose(out.branches[0], expected, atol=1e-15)

    def test_non_finite_epsilon_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            apply_cfo(_unit_stream(n=8), math.inf, n_fft=4)
        with pytest.raises(ValueError, match="^epsilon must be a real number, got '0.2'$"):
            apply_cfo(_unit_stream(n=8), "0.2", n_fft=4)

    def test_n_fft_must_be_a_positive_integer(self):
        # A non-integer n_fft used to pass and rotate the stream.
        stream = _unit_stream(n=8)
        for bad in (128.5, True):
            with pytest.raises(ValueError, match=f"^n_fft must be an integer, got {bad!r}"):
                apply_cfo(stream, 0.2, bad)
        with pytest.raises(ValueError, match="^n_fft must be >= 1, got 0"):
            apply_cfo(stream, 0.2, 0)
        expected = apply_cfo(stream, 0.2, 4).branches.tobytes()
        for kind in (np.int8, np.int64, np.uint64):
            assert apply_cfo(stream, 0.2, kind(4)).branches.tobytes() == expected

    @pytest.mark.parametrize("epsilons", [
        (0.0, -0.0),  # equal values: neither may be handed the other's ramp
        (-0.0, 0.0),
        (0.5, np.float32(0.5), 0.5),  # equal: np.float32(0.5) runs as the float 0.5
        (3, 3.0, -1.37, 0.2),
    ])
    def test_memoised_ramp_equals_inline_phase_bytes(self, epsilons):
        # Signed-zero real parts would show a ramp's signed-zero imaginary parts.
        rows = _unit_stream(n=300, seed=22, branches=3).branches.copy()
        rows[:, :4] = [complex(-0.0, 1.0), complex(-0.0, -1.0), complex(0.0, -1.0), complex(-0.0, -0.0)]
        stream = SampleStream(branches=rows, sample_origin=0)
        _cfo_ramp.cache_clear()
        for epsilon in epsilons:  # each call after the first may read the cache
            phase = np.exp(2j * np.pi * float(epsilon) * np.arange(300) / 64)
            out = apply_cfo(stream, epsilon, n_fft=64)
            assert out.branches.tobytes() == (stream.branches * phase).tobytes()

    def test_overflowing_phase_names_epsilon(self):
        # 2*pi*epsilon*m leaves float64's range from m = 287 on. Unchecked, numpy
        # warned, and the memoised NaN ramp turned 609 of the 896 samples into NaN.
        frame = _frame_128()
        _cfo_ramp.cache_clear()
        message = r"^epsilon=1e\+305 makes the phase ramp non-finite over 896 samples$"
        with pytest.raises(ValueError, match=message):
            apply_cfo(frame, 1e305, n_fft=128)
        assert _cfo_ramp.cache_info().currsize == 0
        # A valid epsilon still rotates by the inline phase, byte for byte.
        phase = np.exp(2j * np.pi * 0.2 * np.arange(frame.buffer_len) / 128)
        out = apply_cfo(frame, 0.2, n_fft=128)
        assert out.branches.tobytes() == (frame.branches * phase).tobytes()

    def test_memoised_ramp_is_read_only(self):
        apply_cfo(_unit_stream(n=40, seed=23), 0.3, n_fft=8)
        ramp = _cfo_ramp(40, 0.3, 8, 1.0)
        assert ramp is _cfo_ramp(40, 0.3, 8, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            ramp[0] = 0.0


def _public_copy(stream):
    """The stream rebuilt through the validating public constructor."""
    return SampleStream(
        branches=stream.branches,
        sample_origin=stream.sample_origin,
        payload_start=stream.payload_start,
        payload_stop=stream.payload_stop,
    )


def _frame_128():
    return build_frame(OfdmParams(128, 32), seed=1)


class TestImpairmentsArePubliclyValid:
    """Every impairment's output must survive the public constructor unchanged."""

    @pytest.mark.parametrize(
        "impair",
        [
            lambda s: apply_sto(s, -3),
            lambda s: apply_cir(s, CIR_FIXTURE),
            lambda s: apply_cir(s, random_cir(10, seed=30, normalize=True)),
            lambda s: replicate_branches(s, 4),
            lambda s: add_awgn(s, 2.0, seed=31),
            lambda s: add_awgn(replicate_branches(s, 16), 2.0, seed=32),
            lambda s: apply_cfo(s, 0.2, n_fft=128),
        ],
        ids=[
            "apply_sto",
            "apply_cir-fixture",
            "apply_cir-random",
            "replicate_branches",
            "add_awgn-1-branch",
            "add_awgn-16-branches",
            "apply_cfo",
        ],
    )
    def test_output_passes_public_validation(self, impair):
        out = impair(_frame_128())
        rebuilt = _public_copy(out)
        assert isinstance(out.branches, np.ndarray)
        assert rebuilt.branches.dtype == out.branches.dtype == np.complex128
        assert np.array_equal(rebuilt.branches, out.branches)
        assert (rebuilt.sample_origin, rebuilt.payload_start, rebuilt.payload_stop) == (
            out.sample_origin,
            out.payload_start,
            out.payload_stop,
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOverflowIsNamed:
    """Stages whose arithmetic can overflow finite samples say so."""

    @staticmethod
    def _scaled_frame(factor):
        frame = _frame_128()
        frame.branches = frame.branches * factor
        return _public_copy(frame)

    def test_add_awgn_overflowing_noise_variance(self):
        # Finite samples near 1e160 square past the float64 range in the payload power.
        with pytest.raises(ValueError, match="non-finite"):
            add_awgn(self._scaled_frame(1e160), 10.0, seed=0)

    def test_apply_cir_overflowing_convolution(self):
        with pytest.raises(ValueError, match="non-finite"):
            apply_cir(self._scaled_frame(1e307), [10, 10])


class TestScenarioTypes:
    def test_channel_scenario_validation(self):
        with pytest.raises(ValueError, match="NaN"):
            ChannelScenario(snr_db=math.nan)
        for snr_db in (-math.inf, 1e308, -1e308, -3080.0, -3200.0):
            with pytest.raises(ValueError, match="snr_db"):
                ChannelScenario(snr_db=snr_db)
        with pytest.raises(ValueError, match="rx_branches"):
            ChannelScenario(snr_db=10.0, rx_branches=0)
        with pytest.raises(ValueError, match="rx_branches must be an integer, got 2.5"):
            ChannelScenario(snr_db=10.0, rx_branches=2.5)
        for kind in (np.int8, np.int64, np.uint64):
            rx_branches = ChannelScenario(snr_db=10.0, rx_branches=kind(2)).rx_branches
            assert rx_branches == 2 and type(rx_branches) is int
        with pytest.raises(ValueError, match="cfo must be a CfoParams or None, got 0.2"):
            ChannelScenario(snr_db=10.0, cfo=0.2)
        with pytest.raises(ValueError, match="finite"):
            ChannelScenario(snr_db=10.0, cir_taps=(complex(math.inf, 0),))
        # Unchecked, complex() parsed each character: "12" became the taps (1, 2).
        for taps in ("12", ("1", "2")):
            with pytest.raises(ValueError, match="^cir_taps must be numbers, got "):
                ChannelScenario(snr_db=10.0, cir_taps=taps)
        # Unchecked, a string fails the comparison with a bare TypeError.
        with pytest.raises(ValueError, match="^snr_db must be a real number, got '10'$"):
            ChannelScenario(snr_db="10")

    @pytest.mark.parametrize("taps", [(0j,), (0, 0), (1e-320,)])
    def test_channel_scenario_refuses_taps_without_energy(self, taps):
        # Unchecked, run_monte_carlo failed in its first trial naming no field, or at
        # snr_db=inf scored an all-zero stream.
        message = re.escape("cir_taps must have energy sum(|h|^2) > 0, got ")
        with pytest.raises(ValueError, match=f"^{message}"):
            ChannelScenario(snr_db=10.0, cir_taps=taps)

    def test_channel_scenario_takes_taps_too_large_to_square(self):
        # Their energy overflows float64 but is not 0; warnings are errors in this suite.
        assert ChannelScenario(snr_db=10.0, cir_taps=(1e200,)).cir_taps == (1e200 + 0j,)

    def test_channel_scenario_takes_array_taps_and_stays_hashable(self):
        taps = random_cir(10, seed=1)
        from_array = ChannelScenario(snr_db=10.0, cir_taps=taps)
        from_tuple = ChannelScenario(snr_db=10.0, cir_taps=tuple(taps))
        from_list = ChannelScenario(snr_db=10.0, cir_taps=list(taps))
        assert from_array == from_tuple
        assert hash(from_array) == hash(from_list)

    def test_cfo_params_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            CfoParams(epsilon=math.nan)
        with pytest.raises(ValueError, match="^epsilon must be a real number, got '0.2'$"):
            CfoParams("0.2")

    def test_replicate_branches(self):
        stream = _unit_stream(n=64, seed=22)
        wide = replicate_branches(stream, 3)
        assert wide.n_branches == 3
        for branch in wide.branches:
            np.testing.assert_array_equal(branch, stream.branches[0])
        with pytest.raises(ValueError, match="single-branch"):
            replicate_branches(wide, 2)
        # Unchecked, a float count failed inside numpy without naming the argument.
        with pytest.raises(ValueError, match="^n_branches must be an integer, got 2.5"):
            replicate_branches(stream, 2.5)
        with pytest.raises(ValueError, match="^n_branches must be >= 1, got 0"):
            replicate_branches(stream, 0)


# Values that are not real numbers, though Python or numpy can compare or
# parse some of them: True ran as 1 dB or epsilon 1, and "10" was refused as
# a number that cannot size noise.
NOT_REAL = [True, np.True_, "10", None, 1j, np.complex128(1)]


class TestRealValueRule:
    """snr_db and epsilon pass one rule and are used as the Python float it returns."""

    @staticmethod
    def _refusal(name, value):
        return rf"^{name} must be a real number, got {re.escape(repr(value))}$"

    @pytest.mark.parametrize("bad", NOT_REAL)
    def test_constructors_refuse_non_reals(self, bad):
        with pytest.raises(ValueError, match=self._refusal("snr_db", bad)):
            ChannelScenario(snr_db=bad)
        with pytest.raises(ValueError, match=self._refusal("epsilon", bad)):
            CfoParams(bad)

    @pytest.mark.parametrize("bad", NOT_REAL)
    def test_impairments_refuse_non_reals_before_any_draw(self, bad, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("drew noise or built a ramp for a refused value")

        stream = _unit_stream(n=64, seed=1)
        monkeypatch.setattr(np.random, "default_rng", fail)
        monkeypatch.setattr("cpsync.channel._cfo_ramp", fail)
        with pytest.raises(ValueError, match=self._refusal("snr_db", bad)):
            add_awgn(stream, bad, seed=5)
        with pytest.raises(ValueError, match=self._refusal("epsilon", bad)):
            apply_cfo(stream, bad, n_fft=16)

    @pytest.mark.parametrize("kind", [int, np.int64, np.float32, np.float64])
    def test_constructors_store_a_python_float(self, kind):
        scenario = ChannelScenario(snr_db=kind(10))
        cfo = CfoParams(kind(2) if kind in (int, np.int64) else kind(0.2))
        assert type(scenario.snr_db) is float and scenario.snr_db == 10.0
        assert type(cfo.epsilon) is float
        assert cfo.epsilon == (2.0 if kind in (int, np.int64) else float(kind(0.2)))

    def test_float32_snr_draws_the_same_noise(self):
        stream = _unit_stream(n=256, seed=2, branches=2)
        want = add_awgn(stream, 2.0, seed=5).branches.tobytes()
        assert add_awgn(stream, np.float32(2.0), seed=5).branches.tobytes() == want

    def test_float32_epsilon_rotates_by_its_float_value(self):
        stream = _unit_stream(n=300, seed=3, branches=2)
        want = apply_cfo(stream, float(np.float32(0.2)), n_fft=128).branches.tobytes()
        assert apply_cfo(stream, np.float32(0.2), n_fft=128).branches.tobytes() == want

    def test_int_beyond_float64_is_refused_by_the_owner_rule(self):
        # float() cannot hold it; unchecked, the epsilon raised a bare OverflowError.
        with pytest.raises(ValueError, match=r"^snr_db=1000+ cannot size noise; "):
            ChannelScenario(snr_db=10**400)
        with pytest.raises(ValueError, match=r"^epsilon must be finite, got -1000+$"):
            CfoParams(-(10**400))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).max == np.finfo(np.float64).max,
        reason="longdouble is float64 here, so 1e400 is already inf",
    )
    def test_longdouble_beyond_float64_is_not_the_no_noise_sentinel(self):
        # Narrowed to float, it reads inf; as given, it is a finite SNR that cannot size noise.
        huge = np.longdouble("1e400")
        with pytest.raises(ValueError, match="cannot size noise"):
            ChannelScenario(snr_db=huge)
        with pytest.raises(ValueError, match="cannot size noise"):
            add_awgn(_unit_stream(n=64, seed=1), huge, seed=5)
        with pytest.raises(ValueError, match="^epsilon must be finite"):
            CfoParams(huge)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).max == np.finfo(np.float64).max,
        reason="longdouble is float64 here, so 1e400 is already inf",
    )
    def test_refusals_print_the_value_as_given(self):
        # Formatted through float, both messages read inf.
        huge = np.longdouble("1e400")
        with pytest.raises(ValueError, match=r"^snr_db=1e\+400 cannot size noise; "):
            ChannelScenario(snr_db=huge)
        with pytest.raises(ValueError, match=r"^epsilon must be finite, got 1e\+400$"):
            CfoParams(huge)

    def test_float_refusals_read_word_for_word(self):
        rule = "use +inf or a value >= -300 (not NaN) with 10^(snr_db/10) finite"
        message = f"snr_db=-300.5 cannot size noise; {rule}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ChannelScenario(snr_db=-300.5)
        with pytest.raises(ValueError, match="^epsilon must be finite, got -inf$"):
            CfoParams(-math.inf)
