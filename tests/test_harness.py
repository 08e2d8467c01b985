"""Scenario grid, trial pipeline and Monte Carlo aggregation."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    harness,
    reference_scenarios,
    run_monte_carlo,
    run_trial,
)
from cpsync.harness import ALL_METHODS, _CHANNELS, _grid

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

    # Unchecked, True was hashed as the integer 1: derive_seed(True, "x") == derive_seed(1, "x").
    @pytest.mark.parametrize("parts", [(True, "x"), ("x", False), (np.True_,)])
    def test_rejects_bool_parts(self, parts):
        with pytest.raises(TypeError, match="^seed parts must be int or str, got bool$"):
            derive_seed(*parts)

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

    # Unchecked, True was hashed as the integer 1, "7" as a string part, and 2.5
    # raised derive_seed's unnamed TypeError.
    @pytest.mark.parametrize("seed", [True, "7", 2.5])
    def test_run_trial_rejects_non_integer_seed_before_the_frame(self, seed, monkeypatch):
        frames = []
        monkeypatch.setattr(harness, "build_frame", lambda *args: frames.append(args))
        message = rf"^seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            run_trial(NOISELESS, 3, seed)
        assert frames == []

    @pytest.mark.parametrize("seed", [True, "7", 2.5])
    def test_run_monte_carlo_rejects_non_integer_seed_before_any_trial(self, seed, monkeypatch):
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: trials.append(args))
        message = rf"^master_seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            run_monte_carlo(NOISELESS, 1, seed)
        assert trials == []

    @pytest.mark.parametrize("kind", [np.int64, np.uint64])
    def test_numpy_integer_seed_runs_as_the_python_int(self, kind):
        cell = reference_scenarios()[-1]  # 2 dB, CP 16, fixture CIR: every method misses some
        want = run_monte_carlo(cell, 24, 7)
        assert run_monte_carlo(cell, 24, kind(7)).methods == want.methods
        plain, numpy_seeded = run_trial(cell, 3, 11), run_trial(cell, 3, kind(11))
        for method, trace in plain.traces.items():
            assert numpy_seeded.traces[method].values.tobytes() == trace.values.tobytes()


# Any seed derive_seed takes, with both ends of its range drawn often.
SEEDS = st.one_of(st.sampled_from([-(2**127), 2**127 - 1, 0]),
                  st.integers(min_value=-(2**127), max_value=2**127 - 1))


# run_monte_carlo hashes (master_seed, label) once and run_trial its seed once; each
# trial or stage seed continues a copy of that prefix and must equal derive_seed's.
@settings(max_examples=200, deadline=None)
@given(
    master_seed=SEEDS,
    label=st.text(min_size=1),
    index=st.integers(min_value=0, max_value=10**6),
    seed=SEEDS,
    stage=st.sampled_from(["tx", "cir", "awgn"]),
)
@example(master_seed=-(2**127), label="snr10_cp32_rayleigh", index=10**6, seed=2**127 - 1,
         stage="tx")
@example(master_seed=2**127 - 1, label="Δτ ≤ 2·cp ✓", index=0, seed=-(2**127), stage="awgn")
def test_prefix_seeds_equal_derive_seed(master_seed, label, index, seed, stage):
    cell = harness._seed_prefix(master_seed, label)
    trial_seed = harness._seed_from(cell, harness._tagged(index))
    assert trial_seed == derive_seed(master_seed, label, index)
    stage_seed = harness._seed_from(harness._seed_prefix(seed), harness._STAGES[stage])
    assert stage_seed == derive_seed(seed, stage)


@pytest.mark.parametrize("master_seed", [-(2**127), 2**127 - 1])
def test_trials_and_stages_receive_derive_seed_values(master_seed, monkeypatch):
    cell = Scenario(label="ränd-Δ", ofdm=OfdmParams(n_subcarriers=32, cp_len=8),
                    channel=ChannelScenario(snr_db=10.0), fresh_cir_per_trial=True)
    seen = []

    def spy(name, stage, seed_at):
        original = getattr(harness, name)

        def record(*args, **kwargs):
            seen.append((stage, args[seed_at]))
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, name, record)

    spy("run_trial", "trial", 2)
    spy("build_frame", "tx", 1)
    spy("random_cir", "cir", 1)
    spy("add_awgn", "awgn", 2)
    run_monte_carlo(cell, 3, master_seed)
    expected = []
    for index in range(3):
        trial = derive_seed(master_seed, cell.label, index)
        expected += [("trial", trial), *((s, derive_seed(trial, s)) for s in ("tx", "cir", "awgn"))]
    assert seen == expected


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
        fresh = dict(
            label="fresh",
            ofdm=OfdmParams(n_subcarriers=128, cp_len=32),
            channel=ChannelScenario(snr_db=10.0),
            fresh_cir_per_trial=True,
        )
        with pytest.raises(ValueError, match="^n_random_taps must be an integer, got 2.5"):
            Scenario(**fresh, n_random_taps=2.5)
        for kind in (np.int8, np.int64, np.uint64):
            cell = Scenario(**fresh, n_random_taps=kind(3), sto_values=[kind(3), kind(2)])
            assert cell.n_random_taps == 3 and type(cell.n_random_taps) is int
            assert cell.sto_values == (3, 2) and all(type(sto) is int for sto in cell.sto_values)
        # Stored as given, an unsigned offset made each trial's error a uint64, and
        # run_monte_carlo raised OverflowError.
        plain = Scenario(**{**fresh, "fresh_cir_per_trial": False}, sto_values=(3,))
        unsigned = Scenario(**{**fresh, "fresh_cir_per_trial": False}, sto_values=(np.uint64(3),))
        want = run_monte_carlo(plain, n_trials=16, master_seed=4)
        got = run_monte_carlo(unsigned, n_trials=16, master_seed=4)
        assert got.methods == want.methods

    def test_repeated_method_rejected(self):
        # run_monte_carlo keys its statistics by method, so a repeat would fold two runs into one.
        with pytest.raises(ValueError, match=r"methods must not repeat, got \(cbm, dbm-mag, cbm\)"):
            Scenario(
                label="bad",
                ofdm=OfdmParams(n_subcarriers=128, cp_len=32),
                channel=ChannelScenario(snr_db=10.0),
                methods=(Method.CBM, Method.DBM_MAGNITUDE, Method.CBM),
            )


class TestScenarioFields:
    CELL = dict(label="cell", ofdm=OfdmParams(128, 32), channel=ChannelScenario(snr_db=10.0))

    def test_ofdm_must_be_ofdm_params(self):
        # Unchecked, the offset check read the tuple's cp_len: AttributeError.
        with pytest.raises(ValueError, match=r"^ofdm must be an OfdmParams, got \(128, 32\)$"):
            Scenario(**{**self.CELL, "ofdm": (128, 32)})

    def test_channel_must_be_a_channel_scenario(self):
        # Unchecked, the cell was built and run_trial failed on the float's cir_taps.
        with pytest.raises(ValueError, match="^channel must be a ChannelScenario, got 10.0$"):
            Scenario(**{**self.CELL, "channel": 10.0})

    def test_label_must_be_a_non_empty_str(self):
        # Unchecked, the label 5 ran and was hashed into every trial seed as an integer.
        with pytest.raises(ValueError, match="^label must be a str, got 5$"):
            Scenario(**{**self.CELL, "label": 5})
        with pytest.raises(ValueError, match="^scenario label must be non-empty$"):
            Scenario(**{**self.CELL, "label": ""})

    def test_sto_values_take_any_integer_sequence(self):
        # Unchecked, an array failed numpy's truth test and a bare 3 iteration, unnamed.
        cell = Scenario(**self.CELL, sto_values=np.array([1, -2]))
        assert cell.sto_values == (1, -2) and all(type(sto) is int for sto in cell.sto_values)
        with pytest.raises(ValueError, match="^sto_values must be a sequence of integers, got 3$"):
            Scenario(**self.CELL, sto_values=3)
        with pytest.raises(ValueError, match="^scenario needs at least one true offset$"):
            Scenario(**self.CELL, sto_values=np.array([], dtype=np.int64))

    def test_sto_values_text_is_refused_whole(self):
        # Unsplit, "32" was refused as its first character: "sto must be an integer, got '3'".
        message = "^sto_values must be a sequence of integers, got '32'$"
        with pytest.raises(ValueError, match=message):
            Scenario(**self.CELL, sto_values="32")

    def test_fresh_cir_per_trial_must_be_a_bool(self):
        # Unchecked, "no" drew a fresh random CIR every trial and read channel_mode "cir".
        with pytest.raises(ValueError, match="^fresh_cir_per_trial must be a bool, got 'no'$"):
            Scenario(**self.CELL, fresh_cir_per_trial="no")

    @pytest.mark.parametrize("bad, message", [
        ("q", "^n_random_taps must be an integer, got 'q'$"),
        (0, "^n_random_taps must be >= 1, got 0$"),
    ], ids=["text", "zero"])
    def test_n_random_taps_checked_without_the_flag(self, bad, message):
        # Unchecked while fresh_cir_per_trial was False, both were stored silently.
        with pytest.raises(ValueError, match=message):
            Scenario(**self.CELL, n_random_taps=bad)

    def test_methods_text_is_refused_whole(self):
        # Split into characters, "cbm" was refused as got 'c', and b"cbm" as got 99.
        with pytest.raises(ValueError, match="^methods must hold Method members, got 'cbm'$"):
            Scenario(**self.CELL, methods="cbm")
        with pytest.raises(ValueError, match="^methods must hold Method members, got b'cbm'$"):
            Scenario(**self.CELL, methods=b"cbm")

    def test_methods_lone_member_is_refused(self):
        # Unchecked, tuple(Method.CBM) raised a bare TypeError.
        message = r"^methods must hold Method members, got <Method.CBM: 'cbm'>$"
        with pytest.raises(ValueError, match=message):
            Scenario(**self.CELL, methods=Method.CBM)

    def test_methods_non_iterable_is_refused(self):
        with pytest.raises(ValueError, match="^methods must hold Method members, got None$"):
            Scenario(**self.CELL, methods=None)

    def test_methods_must_not_be_empty(self):
        with pytest.raises(ValueError, match="^scenario needs at least one method$"):
            Scenario(**self.CELL, methods=())


class TestRunTrial:
    @pytest.mark.parametrize(
        "run",
        [lambda s: run_trial(s, 3, seed=1), lambda s: run_monte_carlo(s, 1, master_seed=0)],
        ids=["run_trial", "run_monte_carlo"],
    )
    @pytest.mark.parametrize("scenario", ["x", NOISELESS.ofdm], ids=["str", "ofdm-params"])
    def test_scenario_must_be_a_scenario(self, run, scenario):
        # Unchecked, each raised a bare AttributeError that named no field.
        message = f"scenario must be a Scenario, got {scenario!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(scenario)

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

    def test_errors_must_be_integers(self):
        # A cast to int64 read [1.5, 2.7] as {1: 1, 2: 1}, bools as 1 and 0 and "1" as 1.
        for errors, message in (
            ([1.5, 2.7], "errors must be integers, got float64 values"),
            ([True, False], "errors must be integers, got bool values"),
            (["1"], "errors must be numbers, got ['1']"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                MethodStats.from_errors(errors)
        stats = MethodStats.from_errors(np.array([0, 1, -1, 5], dtype=np.int8))
        assert stats == MethodStats.from_errors(np.array([0, 1, -1, 5]))
        assert all(type(key) is int for key in stats.error_histogram)

    @pytest.mark.parametrize("errors", [[[1, 2], [3, 4]], [[0]], 5], ids=["2x2", "1x1", "0-d"])
    def test_errors_must_be_one_dimensional(self, errors):
        # Unchecked, np.unique flattened [[1, 2], [3, 4]] into four trials, and 5 read as one.
        shape = np.shape(errors)
        message = f"errors must be 1-D, one error per trial, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MethodStats.from_errors(np.array(errors))

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

    def test_overflowing_cfo_names_epsilon(self):
        # Unchecked, the NaN-rotated stream failed as "cbm metric values are not finite".
        cell = Scenario(label="cfo", ofdm=OfdmParams(128, 32),
                        channel=ChannelScenario(snr_db=10.0, cfo=CfoParams(1e305)))
        with pytest.raises(ValueError, match=r"^epsilon=1e\+305 makes the phase ramp"):
            run_monte_carlo(cell, n_trials=1, master_seed=0)

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
        with pytest.raises(ValueError, match="^n_trials must be an integer, got 2.5"):
            run_monte_carlo(NOISELESS, n_trials=2.5, master_seed=0)
        for kind in (np.int8, np.int64, np.uint64):
            n_trials = run_monte_carlo(NOISELESS, n_trials=kind(2), master_seed=0).n_trials
            assert n_trials == 2 and type(n_trials) is int

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

