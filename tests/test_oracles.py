"""The oracles' own contracts, where they are not checked against the library."""

import numpy as np
import pytest

from cpsync import CIR_FIXTURE, random_cir

from oracles import pdp_median_delay, tap_major_convolution


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
