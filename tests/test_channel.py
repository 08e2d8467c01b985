"""Impairment contracts: timing shift, convolution, noise calibration, CFO."""

import math

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
    random_cir,
    replicate_branches,
)

# Regression constant: energy of the frozen 10-tap fixture, computed once by
# direct summation over the printed coefficients.
CIR_FIXTURE_ENERGY = 1.13464787

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


class TestScenarioTypes:
    def test_channel_scenario_validation(self):
        with pytest.raises(ValueError, match="NaN"):
            ChannelScenario(snr_db=math.nan)
        for snr_db in (-math.inf, 1e308, -1e308, -3080.0, -3200.0):
            with pytest.raises(ValueError, match="snr_db"):
                ChannelScenario(snr_db=snr_db)
        with pytest.raises(ValueError, match="rx_branches"):
            ChannelScenario(snr_db=10.0, rx_branches=0)
        with pytest.raises(ValueError, match="finite"):
            ChannelScenario(snr_db=10.0, cir_taps=(complex(math.inf, 0),))

    def test_cfo_params_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            CfoParams(epsilon=math.nan)

    def test_replicate_branches(self):
        stream = _unit_stream(n=64, seed=22)
        wide = replicate_branches(stream, 3)
        assert wide.n_branches == 3
        for branch in wide.branches:
            np.testing.assert_array_equal(branch, stream.branches[0])
        with pytest.raises(ValueError, match="single-branch"):
            replicate_branches(wide, 2)
