"""Scenario grid, trial pipeline, Monte Carlo aggregation and frequency response."""

import math

import numpy as np
import pytest

from cpsync import (
    CIR_FIXTURE,
    CfoParams,
    ChannelScenario,
    Method,
    MethodStats,
    OfdmParams,
    Scenario,
    default_config,
    derive_seed,
    freq_response,
    harness,
    reference_scenarios,
    run_monte_carlo,
    run_trial,
)
from cpsync.harness import ALL_METHODS, _CHANNELS, _grid

from oracles import direct_dft

NOISELESS = Scenario(
    label="noiseless",
    ofdm=OfdmParams(n_subcarriers=128, cp_len=32),
    channel=ChannelScenario(snr_db=math.inf),
)


class TestDeriveSeed:
    def test_pinned_values(self):
        # Frozen splitting rule; changing it would silently re-randomise
        # every published CSV, so these exact values are pinned.
        assert derive_seed(1, "x", 0) == 8302818928863482535
        assert derive_seed(0, "snr10_cp32_awgn", 0) == 13852384755829635179

    def test_parts_are_order_and_type_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)
        assert derive_seed("1") != derive_seed(1)
        assert derive_seed(10, "tx") != derive_seed(10, "awgn")

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            derive_seed(1.5)

    @pytest.mark.parametrize("part", [2**127, -(2**127) - 1, 2**200])
    def test_out_of_range_int_names_value_and_range(self, part):
        with pytest.raises(ValueError, match=r"\[-2\*\*127, 2\*\*127\), got -?\d+"):
            derive_seed("x", part)

    @pytest.mark.parametrize("seed", [2**127, -(2**127) - 1])
    def test_run_trial_rejects_out_of_range_seed(self, seed):
        with pytest.raises(ValueError, match=rf"got {seed}$"):
            run_trial(NOISELESS, 3, seed)

    @pytest.mark.parametrize("seed", [2**127, -(2**127) - 1])
    def test_run_monte_carlo_rejects_out_of_range_seed_before_any_trial(self, seed,
                                                                       monkeypatch):
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: trials.append(args))
        with pytest.raises(ValueError, match=rf"got {seed}$"):
            run_monte_carlo(NOISELESS, 1, seed)
        assert trials == []


class TestReferenceScenarios:
    def test_grid_shape(self):
        grid = reference_scenarios()
        assert len(grid) == 8
        assert len({s.label for s in grid}) == 8

    def test_awgn_cells_have_empty_taps(self):
        for scenario in reference_scenarios():
            if scenario.channel_mode == "awgn":
                assert scenario.channel.cir_taps == ()
            else:
                assert scenario.channel_mode == "rayleigh-fixture"
                assert tuple(scenario.channel.cir_taps) == CIR_FIXTURE

    def test_channel_modes_round_trip(self):
        for mode in _CHANNELS:
            (cell,) = _grid(128, ALL_METHODS, (3,), (10.0,), (32,), (mode,))
            assert cell.channel_mode == mode
        other = Scenario(
            label="other",
            ofdm=OfdmParams(n_subcarriers=128, cp_len=32),
            channel=ChannelScenario(snr_db=10.0, cir_taps=(1.0, 0.5j)),
        )
        assert other.channel_mode == "cir"

    def test_grid_axes(self):
        grid = reference_scenarios()
        assert {s.channel.snr_db for s in grid} == {10.0, 2.0}
        assert {s.ofdm.cp_len for s in grid} == {32, 16}

    def test_offset_cycle(self):
        for scenario in reference_scenarios():
            assert scenario.sto_values == (3, -3, 2, -2)

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="sto"):
            Scenario(
                label="bad",
                ofdm=OfdmParams(n_subcarriers=128, cp_len=16),
                channel=ChannelScenario(snr_db=10.0),
                sto_values=(40,),
            )
        with pytest.raises(ValueError, match="fresh_cir_per_trial"):
            Scenario(
                label="bad",
                ofdm=OfdmParams(n_subcarriers=128, cp_len=32),
                channel=ChannelScenario(snr_db=10.0, cir_taps=CIR_FIXTURE),
                fresh_cir_per_trial=True,
            )
        # Checked before the repeat check, which reads each method's value.
        for methods in (("cbm",), ("cbm", "cbm")):
            with pytest.raises(ValueError, match="methods must hold Method members, got 'cbm'"):
                Scenario(
                    label="bad",
                    ofdm=OfdmParams(n_subcarriers=128, cp_len=32),
                    channel=ChannelScenario(snr_db=10.0),
                    methods=methods,
                )
        with pytest.raises(ValueError, match="sto must be an integer, got 2.5"):
            Scenario(
                label="bad",
                ofdm=OfdmParams(n_subcarriers=128, cp_len=32),
                channel=ChannelScenario(snr_db=10.0),
                sto_values=(2.5,),
            )

    def test_repeated_method_rejected(self):
        # run_monte_carlo keys its statistics by method, so a repeat would fold two runs into one.
        with pytest.raises(ValueError, match=r"methods must not repeat, got \(cbm, dbm-mag, cbm\)"):
            Scenario(
                label="bad",
                ofdm=OfdmParams(n_subcarriers=128, cp_len=32),
                channel=ChannelScenario(snr_db=10.0),
                methods=(Method.CBM, Method.DBM_MAGNITUDE, Method.CBM),
            )


class TestRunTrial:
    def test_noiseless_recovery(self):
        result = run_trial(NOISELESS, 3, seed=42)
        assert result.estimates[Method.CBM] == 3
        assert result.estimates[Method.DBM_MAGNITUDE] == 3

    def test_deterministic(self):
        a = run_trial(NOISELESS, -2, seed=9)
        b = run_trial(NOISELESS, -2, seed=9)
        assert a.estimates == b.estimates
        for method in a.traces:
            np.testing.assert_array_equal(a.traces[method].values, b.traces[method].values)

    def test_different_seeds_differ(self):
        noisy = Scenario(
            label="noisy",
            ofdm=OfdmParams(n_subcarriers=128, cp_len=32),
            channel=ChannelScenario(snr_db=0.0),
        )
        a = run_trial(noisy, 3, seed=1)
        b = run_trial(noisy, 3, seed=2)
        assert any(
            not np.array_equal(a.traces[m].values, b.traces[m].values) for m in a.traces
        )

    def test_estimates_equal_trace_argopt(self):
        result = run_trial(NOISELESS, 2, seed=5)
        for method, trace in result.traces.items():
            assert result.estimates[method] == trace.argopt

    def test_offset_outside_range_rejected(self):
        with pytest.raises(ValueError, match="true_sto"):
            run_trial(NOISELESS, 70, seed=0)

    def test_cfo_scenario_decisions_match_plain(self):
        base = Scenario(
            label="cfo-base",
            ofdm=OfdmParams(n_subcarriers=128, cp_len=32),
            channel=ChannelScenario(snr_db=10.0),
            methods=(Method.CBM, Method.DBM_MAGNITUDE),
        )
        rotated = Scenario(
            label="cfo-base",  # same label/seed path; CFO is the only difference
            ofdm=base.ofdm,
            channel=ChannelScenario(snr_db=10.0, cfo=CfoParams(epsilon=0.25)),
            methods=base.methods,
        )
        for seed in range(5):
            plain = run_trial(base, 3, seed=seed)
            cfo = run_trial(rotated, 3, seed=seed)
            assert plain.estimates == cfo.estimates

    def test_multi_branch_runs(self):
        scenario = Scenario(
            label="two-branch",
            ofdm=OfdmParams(n_subcarriers=64, cp_len=16),
            channel=ChannelScenario(snr_db=math.inf, rx_branches=2),
            methods=(Method.DBM_MAGNITUDE,),
        )
        result = run_trial(scenario, 2, seed=3)
        assert result.estimates[Method.DBM_MAGNITUDE] == 2

    def test_method_list_is_stored_as_tuple(self):
        scenario = Scenario(
            label="method-list",
            ofdm=OfdmParams(n_subcarriers=64, cp_len=8),
            channel=ChannelScenario(snr_db=math.inf),
            methods=[Method.CBM, Method.DBM_LITERAL],
        )
        assert scenario.methods == (Method.CBM, Method.DBM_LITERAL)
        assert list(run_trial(scenario, 1, seed=2).estimates) == list(scenario.methods)

    def test_every_method_gets_the_default_window(self, monkeypatch):
        seen = []
        original = harness.estimate_sto

        def capture(stream, cfg):
            seen.append((stream, cfg))
            return original(stream, cfg)

        monkeypatch.setattr(harness, "estimate_sto", capture)
        scenario = reference_scenarios()[1]
        result = run_trial(scenario, 3, seed=4)
        assert list(result.traces) == [cfg.method for _, cfg in seen] == list(Method)
        for stream, cfg in seen:
            assert cfg == default_config(stream, scenario.ofdm, cfg.method)

    def test_fresh_cir_mode_draws_per_trial(self):
        scenario = Scenario(
            label="fresh",
            ofdm=OfdmParams(n_subcarriers=128, cp_len=32),
            channel=ChannelScenario(snr_db=math.inf),
            fresh_cir_per_trial=True,
        )
        a = run_trial(scenario, 0, seed=1)
        b = run_trial(scenario, 0, seed=2)
        assert not np.array_equal(
            a.traces[Method.CBM].values, b.traces[Method.CBM].values
        )


class TestMethodStats:
    def test_from_errors_arithmetic(self):
        stats = MethodStats.from_errors(np.array([0, 1, -1, 5]))
        assert stats.exact_hit_rate == 0.25
        assert stats.within_1_rate == 0.75
        assert stats.mean_abs_error == 1.75
        assert stats.mean_sq_error == 6.75
        assert stats.error_histogram == {-1: 1, 0: 1, 1: 1, 5: 1}

    def test_empty_errors_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            MethodStats.from_errors(np.array([], dtype=np.int64))

    @pytest.mark.parametrize("n", [1, 3, 15, 1000, 100_003])
    def test_fields_equal_np_mean_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        errors = rng.integers(-40, 41, n) * (rng.random(n) < 0.6)
        abs_err = np.abs(errors)
        expected = {
            "exact_hit_rate": np.mean(errors == 0),
            "within_1_rate": np.mean(abs_err <= 1),
            "mean_abs_error": np.mean(abs_err),
            "mean_sq_error": np.mean(abs_err.astype(np.float64) ** 2),
        }
        stats = MethodStats.from_errors(errors)
        for name, value in expected.items():
            got = getattr(stats, name)
            assert type(got) is float and got.hex() == float(value).hex(), name


class TestRunMonteCarlo:
    def test_single_trial_base_case(self):
        stats = run_monte_carlo(NOISELESS, n_trials=1, master_seed=0)
        trial = run_trial(NOISELESS, 3, derive_seed(0, NOISELESS.label, 0))
        for method, m in stats.methods.items():
            err = trial.estimates[method] - 3
            assert m.exact_hit_rate == float(err == 0)
            assert m.within_1_rate == float(abs(err) <= 1)
            assert m.mean_abs_error == float(abs(err))
            assert m.error_histogram == {err: 1}

    def test_deterministic_per_master_seed(self):
        a = run_monte_carlo(NOISELESS, n_trials=8, master_seed=77)
        b = run_monte_carlo(NOISELESS, n_trials=8, master_seed=77)
        assert a.methods == b.methods

    def test_noiseless_dbm_magnitude_hits_every_time(self):
        stats = run_monte_carlo(NOISELESS, n_trials=16, master_seed=3)
        assert stats.methods[Method.DBM_MAGNITUDE].exact_hit_rate == 1.0

    def test_stats_invariants(self):
        noisy = Scenario(
            label="stats",
            ofdm=OfdmParams(n_subcarriers=128, cp_len=16),
            channel=ChannelScenario(snr_db=2.0, cir_taps=CIR_FIXTURE),
        )
        stats = run_monte_carlo(noisy, n_trials=24, master_seed=8)
        assert stats.n_trials == 24
        for m in stats.methods.values():
            assert 0.0 <= m.exact_hit_rate <= m.within_1_rate <= 1.0
            assert sum(m.error_histogram.values()) == 24
            assert m.mean_abs_error >= 0.0

    def test_trial_count_validated(self):
        with pytest.raises(ValueError, match="n_trials"):
            run_monte_carlo(NOISELESS, n_trials=0, master_seed=0)

    def test_best_cell_beats_worst_cell(self):
        # Degradation direction across the grid's extreme corners: computed
        # once by Monte Carlo, stable across master seeds with a wide margin.
        methods = (Method.CBM, Method.DBM_MAGNITUDE)
        best = Scenario(
            label="snr10_cp32_awgn",
            ofdm=OfdmParams(n_subcarriers=128, cp_len=32),
            channel=ChannelScenario(snr_db=10.0),
            methods=methods,
        )
        worst = Scenario(
            label="snr2_cp16_rayleigh",
            ofdm=OfdmParams(n_subcarriers=128, cp_len=16),
            channel=ChannelScenario(snr_db=2.0, cir_taps=CIR_FIXTURE),
            methods=methods,
        )
        best_stats = run_monte_carlo(best, 1000, master_seed=0)
        worst_stats = run_monte_carlo(worst, 1000, master_seed=0)
        for method in methods:
            assert (
                best_stats.methods[method].exact_hit_rate
                > worst_stats.methods[method].exact_hit_rate
            )


# Statistics recorded from the list-of-branches implementation; a change to
# the branch layout or to any per-branch draw shows up here first.
_MULTI_BRANCH_PINS = [
    (
        Scenario(
            label="pin-4rx-cfo",
            ofdm=OfdmParams(n_subcarriers=128, cp_len=16),
            channel=ChannelScenario(snr_db=2.0, rx_branches=4, cfo=CfoParams(epsilon=0.2)),
        ),
        {
            Method.CBM: MethodStats(
                0.94, 1.0, 0.06, 0.06,
                {-1: 2, 0: 47, 1: 1},
            ),
            Method.DBM_MAGNITUDE: MethodStats(
                0.46, 0.8, 1.48, 26.0,
                {-35: 1, -4: 1, -3: 1, -2: 4, -1: 11, 0: 23, 1: 6, 2: 2, 3: 1},
            ),
            Method.DBM_LITERAL: MethodStats(
                0.02, 0.02, 18.04, 422.96,
                {-35: 2, -31: 1, -29: 1, -28: 1, -26: 1, -21: 3, -19: 1, -18: 1, -17: 1,
                 -16: 1, -14: 1, -13: 2, -10: 2, -8: 1, -6: 1, -4: 1, -2: 1, 0: 1, 3: 1, 5: 1,
                 7: 1, 8: 2, 9: 3, 12: 1, 13: 2, 15: 1, 16: 1, 18: 1, 20: 1, 21: 1, 23: 2,
                 24: 1, 27: 1, 28: 1, 29: 1, 31: 2, 34: 2, 35: 1},
            ),
        },
    ),
    (
        Scenario(
            label="pin-4rx-fixture",
            ofdm=OfdmParams(n_subcarriers=128, cp_len=32),
            channel=ChannelScenario(snr_db=5.0, rx_branches=4, cir_taps=CIR_FIXTURE),
        ),
        {
            Method.CBM: MethodStats(
                0.0, 0.0, 4.82, 23.94,
                {3: 4, 4: 11, 5: 25, 6: 10},
            ),
            Method.DBM_MAGNITUDE: MethodStats(
                0.0, 0.08, 4.78, 25.26,
                {1: 4, 3: 5, 4: 8, 5: 13, 6: 18, 7: 1, 8: 1},
            ),
            Method.DBM_LITERAL: MethodStats(
                0.0, 0.0, 42.28, 2066.76,
                {-66: 3, -63: 1, -61: 1, -60: 1, -58: 2, -57: 1, -55: 1, -52: 1, -50: 1,
                 -49: 1, -47: 1, -46: 1, -42: 1, -39: 1, -38: 1, -37: 1, -33: 1, -29: 1,
                 -27: 1, -24: 1, -23: 1, -21: 1, -10: 1, -7: 1, -2: 1, 16: 1, 20: 1, 22: 1,
                 27: 1, 31: 2, 32: 1, 35: 1, 37: 1, 39: 1, 40: 2, 46: 1, 52: 2, 53: 2, 55: 1,
                 58: 1, 59: 1, 65: 2},
            ),
        },
    ),
]


@pytest.mark.parametrize(
    "scenario, expected", _MULTI_BRANCH_PINS, ids=[s.label for s, _ in _MULTI_BRANCH_PINS]
)
def test_multi_branch_statistics_pinned(scenario, expected):
    stats = run_monte_carlo(scenario, n_trials=50, master_seed=17)
    assert stats.methods == expected


class TestFreqResponse:
    def test_unit_tap_is_allpass(self):
        for _, magnitude_db, phase_rad in freq_response([1.0], 16):
            assert magnitude_db == pytest.approx(0.0, abs=1e-12)
            assert phase_rad == pytest.approx(0.0, abs=1e-12)

    def test_pure_delay_phase_ramp(self):
        n_points = 32
        records = freq_response([0.0, 1.0], n_points)
        for k, magnitude_db, phase_rad in records:
            assert magnitude_db == pytest.approx(0.0, abs=1e-10)
            expected = -2.0 * np.pi * k / n_points
            wrapped = (expected + np.pi) % (2.0 * np.pi) - np.pi
            if wrapped == -np.pi:
                wrapped = np.pi
            assert phase_rad == pytest.approx(wrapped, abs=1e-9)

    def test_phase_range_half_open(self):
        records = freq_response([0.0, 1.0], 32)
        phases = np.array([p for _, _, p in records])
        assert np.all(phases > -np.pi)
        assert np.all(phases <= np.pi)

    def test_fixture_matches_direct_oracle(self):
        n_points = 256
        padded = np.zeros(n_points, dtype=complex)
        padded[: len(CIR_FIXTURE)] = CIR_FIXTURE
        oracle = direct_dft(padded)
        records = freq_response(CIR_FIXTURE, n_points)
        got_mag = np.array([m for _, m, _ in records])
        got_phase = np.array([p for _, _, p in records])
        want_mag = 20.0 * np.log10(np.abs(oracle))
        want_phase = np.angle(oracle)
        want_phase[want_phase == -np.pi] = np.pi
        np.testing.assert_allclose(got_mag, want_mag, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got_phase, want_phase, rtol=1e-9, atol=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="n_points"):
            freq_response(CIR_FIXTURE, 9)
        with pytest.raises(ValueError, match="at least one"):
            freq_response([], 8)

    def test_non_finite_taps_rejected(self):
        with pytest.raises(ValueError, match="taps"):
            freq_response([np.nan], 4)

    # [1e308, 1e308] overflows inside the DFT; 1.5e308(1+j) is finite, but its magnitude is not.
    @pytest.mark.parametrize("taps", [[1e308, 1e308], [1.5e308 + 1.5e308j]])
    def test_overflowed_bins_rejected(self, taps):
        with pytest.raises(ValueError, match="overflows float64"):
            freq_response(taps, 10)

    def test_exact_zero_bin_reports_minus_inf_db(self):
        (_, dc_db, _), (_, nyquist_db, _) = freq_response([1.0, 1.0], 2)
        assert dc_db == pytest.approx(20.0 * math.log10(2.0))
        assert nyquist_db == -math.inf
