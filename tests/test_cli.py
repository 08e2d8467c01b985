"""CLI behaviour: CSV schemas, determinism, validation and exit codes."""

import csv
import dataclasses
import io
import re
from pathlib import Path

import numpy as np
import pytest

from cpsync import (
    CIR_FIXTURE,
    ChannelScenario,
    OfdmParams,
    cli,
    derive_seed,
    freq_response,
    reference_scenarios,
)
from cpsync.cli import main
from cpsync.sync import check_search_offset

DATA_DIR = Path(__file__).parent / "data"


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    """Rows of a comment-headed CSV as dicts; returns (comments, rows)."""
    comments, lines = [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                lines.append(line)
    reader = csv.DictReader(io.StringIO("".join(lines)))
    return comments, list(reader)


class TestFixtureCommand:
    def test_prints_ten_taps(self, capsys):
        assert run_cli("fixture") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        assert lines[0] == "-0.2338 +0.1770j"
        assert lines[-1] == "0.0113 -0.0004j"


class TestTraceCommand:
    def test_noiseless_trace_shapes_and_values(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "trace", "--snr-db", "inf", "--cp", "32", "--channel", "awgn",
            "--sto", "2", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        comments, rows = read_csv(out)
        assert len(rows) == 129  # search range +-64
        offsets = [int(r["offset"]) for r in rows]
        assert offsets == list(range(-64, 65))
        cbm = np.array([float(r["cbm_value"]) for r in rows])
        dbm = np.array([float(r["dbm_mag_value"]) for r in rows])
        at_true = offsets.index(2)
        assert np.argmax(cbm) == at_true
        assert dbm[at_true] == 0.0
        assert any("true_sto=2" in c for c in comments)
        assert any("sto_hat_dbm_mag=2" in c for c in comments)
        assert any("seed=5" in c for c in comments)

    def test_method_subset_columns(self, tmp_path):
        out = tmp_path / "trace.csv"
        run_cli("trace", "--method", "cbm", "--sto", "3", "--out", str(out))
        _, rows = read_csv(out)
        assert set(rows[0].keys()) == {"offset", "cbm_value"}

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["trace", "--snr-db", "10", "--sto", "3", "--seed", "11"]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_trace_runs_first_reference_cell(self, tmp_path, monkeypatch):
        calls = []
        run_trial = cli.run_trial

        def recording_run_trial(scenario, true_sto, seed):
            calls.append((scenario, true_sto))
            return run_trial(scenario, true_sto, seed)

        monkeypatch.setattr(cli, "run_trial", recording_run_trial)
        assert run_cli("trace", "--out", str(tmp_path / "trace.csv")) == 0
        first = dataclasses.replace(reference_scenarios()[0], sto_values=(3,))
        assert calls == [(first, 3)]

    def test_trace_requires_single_sto(self, tmp_path, capsys):
        code = run_cli("trace", "--sto", "3,-3", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "sto" in capsys.readouterr().err


class TestSweepCommand:
    def test_default_grid_is_24_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--trials", "2", "--out", str(out)) == 0
        comments, rows = read_csv(out)
        assert len(rows) == 24  # 8 cells x 3 methods
        assert any("trials=2" in c for c in comments)
        for row in rows:
            exact = float(row["exact_hit_rate"])
            within = float(row["within_1_rate"])
            assert 0.0 <= exact <= within <= 1.0
            assert row["channel"] in {"awgn", "rayleigh-fixture"}
            assert float(row["mean_abs_error"]) >= 0.0
            assert float(row["mean_sq_error"]) >= 0.0

    def test_default_grid_is_reference_scenarios(self, tmp_path, monkeypatch):
        scenarios = []
        run_monte_carlo = cli.run_monte_carlo

        def recording_run_monte_carlo(scenario, n_trials, master_seed):
            scenarios.append(scenario)
            return run_monte_carlo(scenario, n_trials, master_seed)

        monkeypatch.setattr(cli, "run_monte_carlo", recording_run_monte_carlo)
        assert run_cli("sweep", "--trials", "1", "--out", str(tmp_path / "sweep.csv")) == 0
        assert scenarios == reference_scenarios()

    def test_selectors_restrict_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(
            "sweep", "--trials", "2", "--snr-db", "10", "--cp", "32",
            "--channel", "awgn", "--method", "dbm-mag", "--out", str(out),
        )
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["method"] == "dbm-mag"
        assert rows[0]["snr_db"] == "10.0"

    def test_noiseless_dbm_magnitude_rate_is_one(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(
            "sweep", "--trials", "4", "--snr-db", "inf", "--channel", "awgn",
            "--cp", "32", "--method", "dbm-mag", "--out", str(out),
        )
        _, rows = read_csv(out)
        assert [float(r["exact_hit_rate"]) for r in rows] == [1.0]

    def test_rayleigh_random_mode_runs(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--trials", "2", "--snr-db", "10", "--cp", "32",
            "--channel", "rayleigh-random", "--method", "cbm", "--out", str(out),
        )
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0]["channel"] == "rayleigh-random"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--trials", "3", "--snr-db", "2", "--cp", "16", "--seed", "21"]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


    # Committed sweep output: a change to the CSV bytes for the same flags and
    # seed fails here, whatever the refactor behind it.
    @pytest.mark.parametrize("golden,flags", [
        ("sweep_seed17.csv", ["--trials", "25", "--seed", "17"]),
        ("sweep_wideband_seed17.csv", ["--n", "1024", "--cp", "72", "--snr-db", "10",
                                       "--channel", "rayleigh-random", "--trials", "10",
                                       "--seed", "17"]),
        ("sweep_rayleigh_random_seed17.csv", ["--channel", "rayleigh-random", "--snr-db", "30",
                                              "--cp", "8", "--trials", "100", "--seed", "17"]),
    ])
    def test_matches_committed_golden_bytes(self, tmp_path, golden, flags):
        out = tmp_path / golden
        assert run_cli("sweep", *flags, "--out", str(out)) == 0
        assert out.read_bytes() == (DATA_DIR / golden).read_bytes()


class TestResponseCommand:
    def test_row_count_honours_points(self, tmp_path):
        out = tmp_path / "resp.csv"
        assert run_cli("response", "--points", "64", "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert len(rows) == 64

    def test_unit_tap_allpass(self, tmp_path):
        out = tmp_path / "resp.csv"
        run_cli("response", "--taps", "1", "--points", "16", "--out", str(out))
        _, rows = read_csv(out)
        assert all(float(r["magnitude_db"]) == 0.0 for r in rows)

    def test_fixture_matches_committed_oracle(self, tmp_path):
        out = tmp_path / "resp.csv"
        run_cli("response", "--points", "256", "--out", str(out))
        _, rows = read_csv(out)
        from pathlib import Path

        oracle_path = Path(__file__).parent / "data" / "cir_fixture_response_256.csv"
        _, oracle_rows = read_csv(oracle_path)
        got = np.array([float(r["magnitude_db"]) for r in rows])
        want = np.array([float(r["magnitude_db"]) for r in oracle_rows])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_points_smaller_than_taps_rejected(self, tmp_path, capsys):
        code = run_cli("response", "--points", "4", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "points" in capsys.readouterr().err

    def test_overflowed_response_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli("response", "--taps", "1e308,1e308", "--points", "10", "--out", str(out))
        assert code == 2
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_is_not_a_response_flag(self, tmp_path):
        assert run_cli("response", "--seed", "3", "--out", str(tmp_path / "x.csv")) == 2


class TestValidationAndExitCodes:
    def test_bad_cp_names_field(self, tmp_path, capsys):
        code = run_cli("trace", "--cp", "300", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cp" in err

    def test_bad_sto_range(self, tmp_path, capsys):
        code = run_cli("trace", "--sto", "100", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "sto" in capsys.readouterr().err

    def test_bad_channel_choice(self, tmp_path):
        code = run_cli("trace", "--channel", "ricean", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_zero_trials_rejected(self, tmp_path, capsys):
        code = run_cli("sweep", "--trials", "0", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "trials" in capsys.readouterr().err

    def test_missing_out_rejected(self, capsys):
        assert run_cli("trace") == 2
        assert "out" in capsys.readouterr().err

    def test_unwritable_path_is_runtime_failure(self, capsys):
        code = run_cli("trace", "--sto", "1", "--out", "/nonexistent-dir/x.csv")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self):
        assert run_cli() == 2

    # -3080 and -3200 dB have a finite 10^(snr/10) but lie below the -300 dB
    # floor; without it they overflowed the noise or the metric sums mid-run.
    @pytest.mark.parametrize("snr", ["-inf", "1e308", "-1e308", "-3080", "-3200"])
    def test_snr_that_cannot_size_noise_rejected(self, tmp_path, capsys, snr):
        code = run_cli("sweep", f"--snr-db={snr}", "--trials", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(r"(?<![a-z])snr_db(?![a-z])", err.replace("-", "_"))

    def test_snr_at_floor_completes(self, tmp_path):
        out = tmp_path / "floor.csv"
        code = run_cli("sweep", "--snr-db=-300", "--n", "1024", "--cp", "72",
                       "--channel", "rayleigh-random", "--trials", "1", "--out", str(out))
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 3
        assert all(float(row["mean_abs_error"]) >= 0.0 for row in rows)

    def test_non_finite_taps_rejected(self, tmp_path, capsys):
        code = run_cli("response", "--taps", "nan", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(r"(?<![a-z])taps(?![a-z])", err.replace("-", "_"))

    @pytest.mark.parametrize("argv,expected", [
        (["trace", "--sto", ","], "sto: expected comma-separated integers, got ','"),
        (["response", "--taps", ","], "taps: expected comma-separated complex values, got ','"),
    ], ids=["sto", "taps"])
    def test_empty_list_names_its_flag(self, tmp_path, capsys, argv, expected):
        assert run_cli(*argv, "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("argv,expected", [
        (["trace", "--sto", "x"], "sto: expected comma-separated integers, got 'x'"),
        (["response", "--taps", "foo"],
         "taps: expected comma-separated complex values, got 'foo'"),
    ], ids=["sto", "taps"])
    def test_unparsable_list_names_its_flag(self, tmp_path, capsys, argv, expected):
        assert run_cli(*argv, "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (tmp_path / "x.csv").exists()

    # A rule the library owns is checked there only: the CLI reports the
    # owner's own message for the same value, with no prefix of its own.
    @pytest.mark.parametrize("argv,owner", [
        (["trace", "--cp", "300"], lambda: OfdmParams(n_subcarriers=128, cp_len=300)),
        (["trace", "--n", "1"], lambda: OfdmParams(n_subcarriers=1, cp_len=32)),
        (["sweep", "--snr-db=-inf"], lambda: ChannelScenario(snr_db=-np.inf)),
        (["trace", "--sto", "100"],
         lambda: check_search_offset("sto", 100, OfdmParams(n_subcarriers=128, cp_len=32))),
        (["response", "--taps", "nan"], lambda: freq_response([complex("nan")], 256)),
        (["response", "--points", "4"], lambda: freq_response(CIR_FIXTURE, 4)),
    ], ids=["cp", "n", "snr_db", "sto", "taps", "points"])
    def test_library_message_reported_verbatim(self, tmp_path, capsys, argv, owner):
        with pytest.raises(ValueError) as raised:
            owner()
        assert run_cli(*argv, "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err == f"error: {raised.value}\n"

    @pytest.mark.parametrize("seed", [2**127, -(2**127) - 1])
    def test_seed_outside_derive_seed_range_rejected(self, tmp_path, capsys, seed):
        with pytest.raises(ValueError) as raised:  # the range is derive_seed's
            derive_seed(seed)
        code = run_cli("sweep", "--seed", str(seed), "--trials", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "seed:" in err
        assert err == f"error: seed: {raised.value}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_value_error_during_simulation_is_runtime_failure(self, tmp_path, capsys,
                                                              monkeypatch):
        def failing_run(*args, **kwargs):
            raise ValueError("simulated failure")

        monkeypatch.setattr("cpsync.cli.run_monte_carlo", failing_run)
        code = run_cli("sweep", "--trials", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "simulated failure" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# defaults\nsto = 5\nseed = 9\ncp = 32\n")
        out_cfg = tmp_path / "from_config.csv"
        run_cli("trace", "--config", str(config), "--snr-db", "inf",
                "--channel", "awgn", "--out", str(out_cfg))
        comments, _ = read_csv(out_cfg)
        assert any("true_sto=5" in c for c in comments)
        assert any("seed=9" in c for c in comments)

        out_flag = tmp_path / "flag_wins.csv"
        run_cli("trace", "--config", str(config), "--sto", "3", "--snr-db", "inf",
                "--channel", "awgn", "--out", str(out_flag))
        comments, _ = read_csv(out_flag)
        assert any("true_sto=3" in c for c in comments)

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("bogus = 1\n")
        code = run_cli("trace", "--config", str(config), "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_bad_config_value_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("trials = many\n")
        code = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "trials" in capsys.readouterr().err

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("# defaults\n\nseed 3\n")
        code = run_cli("trace", "--config", str(config), "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert capsys.readouterr().err == "error: config: line 3 is not key=value: 'seed 3'\n"
        assert not (tmp_path / "x.csv").exists()

    def test_non_utf8_config_file_rejected(self, tmp_path, capsys):
        # Unread, the decode error escaped as a runtime failure: exit 1, no file named.
        config = tmp_path / "run.cfg"
        config.write_bytes(b"\xff")
        code = run_cli("trace", "--config", str(config), "--out", str(tmp_path / "t.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: cannot read {config}: 'utf-8' codec can't decode")
        assert not (tmp_path / "t.csv").exists()

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        code = run_cli("trace", "--config", str(tmp_path / "nope.cfg"),
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand,values", [
        ("sweep", {"trials": "3", "snr-db": "2", "cp": "16", "channel": "rayleigh-fixture",
                   "sto": "3,-2", "method": "dbm-mag", "n": "64", "seed": "21"}),
        ("trace", {"snr-db": "2", "cp": "16", "channel": "rayleigh-random", "sto": "-3",
                   "method": "all", "n": "128", "seed": "11"}),
        ("response", {"taps": "1,0.5-0.25j", "points": "32"}),
    ])
    def test_config_matches_flags_byte_for_byte(self, tmp_path, subcommand, values):
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        by_flag, by_config = tmp_path / "flag.csv", tmp_path / "config.csv"
        flags = [f"--{key}={value}" for key, value in values.items()]
        assert run_cli(subcommand, *flags, "--out", str(by_flag)) == 0
        assert run_cli(subcommand, "--config", str(config), "--out", str(by_config)) == 0
        assert by_config.read_bytes() == by_flag.read_bytes()

    @pytest.mark.parametrize("subcommand,key", [
        *(("trace", key) for key in ("seed", "n", "cp", "snr_db")),
        *(("sweep", key) for key in ("seed", "n", "cp", "snr_db", "trials")),
        ("response", "points"),
        ("trace", "channel"),
        ("sweep", "method"),
    ])
    def test_non_numeric_config_value_names_config_and_key(self, tmp_path, capsys,
                                                           subcommand, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = many\n")
        code = run_cli(subcommand, "--config", str(config), "--out", str(tmp_path / "x.csv"))
        assert code == 2
        err = capsys.readouterr().err.replace("-", "_")
        assert "config" in err
        assert re.search(rf"(?<![a-z]){key}(?![a-z])", err)

    def test_config_snr_that_cannot_size_noise_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("snr_db = -inf\n")
        code = run_cli("sweep", "--config", str(config), "--trials", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(r"(?<![a-z])snr_db(?![a-z])", err.replace("-", "_"))

    def test_trace_runs_with_a_key_only_response_takes(self, tmp_path):
        # One config file can serve several subcommands.
        config = tmp_path / "run.cfg"
        config.write_text("points = 9\nsto = 3\n")
        out = tmp_path / "trace.csv"
        assert run_cli("trace", "--config", str(config), "--out", str(out)) == 0
        comments, _ = read_csv(out)
        assert any("true_sto=3" in c for c in comments)
