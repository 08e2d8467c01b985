"""The oracles' own contracts, where they are not checked against the library."""

import numpy as np
import pytest

from cpsync import (
    CIR_FIXTURE,
    ChannelScenario,
    Method,
    OfdmParams,
    Scenario,
    derive_seed,
    random_cir,
    run_trial,
)

from oracles import expected_cbm_trace, pdp_median_delay, tap_major_convolution


class TestPdpMedianDelay:
    def test_empty_taps_have_no_delay(self):
        assert pdp_median_delay(()) == 0

    @pytest.mark.parametrize("k", [0, 1, 6])
    def test_lone_tap_sits_at_its_index(self, k):
        taps = [0j] * k + [0.3 - 0.4j]
        assert pdp_median_delay(taps) == k

    def test_fixture_crosses_half_power_at_tap_5(self):
        # Cumulative |h|^2: 0.086, 0.111, 0.156, 0.259, 0.385, 0.654 of 1.135.
        assert pdp_median_delay(CIR_FIXTURE) == 5


class TestTapMajorConvolution:
    """The numpy oracle against the convolution sum in plain Python complex arithmetic."""

    @staticmethod
    def _python_convolution(row, taps):
        return [
            sum(taps[k] * row[j - k] for k in range(min(len(taps), j + 1)))
            for j in range(len(row))
        ]

    @pytest.mark.parametrize("n_taps", [1, 10, 70])
    def test_matches_the_convolution_sum(self, n_taps):
        rng = np.random.default_rng(n_taps)
        branches = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
        taps = random_cir(n_taps, seed=n_taps)
        got = tap_major_convolution(branches, taps)
        for row, b in zip(got, branches):
            want = np.array(self._python_convolution(b.tolist(), taps.tolist()))
            # Both sum in tap order; they differ only where Python's complex multiply rounds.
            assert np.max(np.abs(row - want)) <= 1e-15 * np.max(np.abs(want))

    def test_fixture_impulse_response(self):
        impulse = np.zeros((1, 16), dtype=np.complex128)
        impulse[0, 3] = 1.0
        got = tap_major_convolution(impulse, CIR_FIXTURE)[0]
        assert got.tolist() == [0j] * 3 + list(CIR_FIXTURE) + [0j] * 3


def _argmax(offsets, values):
    """The first offset, so the smallest, at which values peak."""
    return offsets[int(np.argmax(values))]


class TestExpectedCbmTrace:
    """The analytic mean CBM shape and where it peaks."""

    def test_lone_tap_is_a_triangle(self):
        assert expected_cbm_trace([0j, 2.0], 3, range(-2, 5)) == [0, 4, 8, 12, 8, 4, 0]

    @pytest.mark.parametrize("cp_len", [16, 32])
    def test_fixture_peaks_at_its_median_delay(self, cp_len):
        offsets = list(range(-2 * cp_len, 2 * cp_len + 1))
        trace = expected_cbm_trace(CIR_FIXTURE, cp_len, offsets)
        assert _argmax(offsets, trace) == pdp_median_delay(CIR_FIXTURE) == 5

    def test_fixture_still_peaks_at_5_when_cp_is_shorter_than_its_spread(self):
        # Ten taps span 9 samples, more than CP 8: the triangle truncates, yet the peak stays.
        offsets = list(range(-16, 17))
        assert _argmax(offsets, expected_cbm_trace(CIR_FIXTURE, 8, offsets)) == 5

    def test_random_profiles_within_cp_peak_at_their_median_delay(self):
        # 1 to 11 taps span at most 10 samples, less than CP 16.
        offsets = list(range(-32, 33))
        for index in range(200):
            taps = random_cir(1 + index % 11, seed=derive_seed("expected-cbm", index))
            trace = expected_cbm_trace(taps, 16, offsets)
            assert _argmax(offsets, trace) == pdp_median_delay(taps), index

    @pytest.mark.parametrize("cp_len", [16, 32])
    def test_seeded_mean_trace_peaks_where_the_model_does(self, cp_len):
        # Each trial's CBM trace, read at offsets e from its true STO and averaged.
        cell = Scenario(
            label=f"expected-cbm-cp{cp_len}",
            ofdm=OfdmParams(128, cp_len),
            channel=ChannelScenario(snr_db=30.0, cir_taps=CIR_FIXTURE),
            methods=(Method.CBM,),
        )
        aligned = np.arange(-cp_len, cp_len + 1)
        total = np.zeros(aligned.size)
        for index in range(200):
            sto = cell.sto_values[index % len(cell.sto_values)]
            trace = run_trial(cell, sto, derive_seed(7, cell.label, index)).traces[Method.CBM]
            total += trace.values[np.searchsorted(trace.offsets, aligned + sto)]
        model = expected_cbm_trace(CIR_FIXTURE, cp_len, aligned.tolist())
        assert _argmax(aligned, total) == _argmax(aligned, model) == 5
