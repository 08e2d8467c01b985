"""CLI behaviour: CSV schemas, determinism, validation and exit codes."""

import argparse
import csv
import dataclasses
import io
import itertools
import json
import os
import re
import subprocess
import sys
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

    @pytest.mark.parametrize("argv,field", [
        (["--snr-db", "2,10"], "snr_db"),
        (["--cp", "16,32"], "cp"),
        (["--channel", "awgn,rayleigh-fixture"], "channel"),
        (["--sto", "3,-3"], "sto"),
    ], ids=["snr_db", "cp", "channel", "sto"])
    def test_trace_takes_one_value_per_selector(self, tmp_path, capsys, argv, field):
        out = tmp_path / "x.csv"
        assert run_cli("trace", *argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {field}: trace takes exactly one value, got 2\n"
        assert not out.exists()
        # The same list from a --config file is refused naming the file.
        config = tmp_path / "run.cfg"
        config.write_text(f"{field} = {argv[-1]}\n")
        assert run_cli("trace", "--config", str(config), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"error: config: {field}: trace takes exactly one value, got 2\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("selectors,cells", [
        ([], [(cell.channel.snr_db, cell.ofdm.cp_len, cell.channel_mode)
              for cell in reference_scenarios()]),
        (["--snr-db=0,30", "--cp", "8,32", "--channel", "awgn,rayleigh-random"],
         list(itertools.product((0.0, 30.0), (8, 32), ("awgn", "rayleigh-random")))),
    ], ids=["reference", "lists"])
    def test_a_cells_rows_do_not_depend_on_the_grid(self, tmp_path, selectors, cells):
        # Each cell's trials are seeded by its label, so a sweep of one cell
        # writes the rows that the grid writes for it, SNR-major, then CP, then channel.
        args = ["sweep", "--trials", "20", "--seed", "17"]
        assert run_cli(*args, *selectors, "--out", str(tmp_path / "grid.csv")) == 0
        _, grid = read_csv(tmp_path / "grid.csv")
        assert len(grid) == 3 * len(cells)
        for i, (snr_db, cp_len, mode) in enumerate(cells):
            out = tmp_path / f"cell{i}.csv"
            assert run_cli(
                *args, f"--snr-db={snr_db}", "--cp", str(cp_len),
                "--channel", mode, "--out", str(out),
            ) == 0
            _, rows = read_csv(out)
            assert rows == grid[3 * i : 3 * i + 3]

    def test_negative_first_offset_attached_with_equals(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--trials", "2", "--sto=-3,3", "--out", str(out)) == 0
        comments, _ = read_csv(out)
        assert "# sto_values=-3,3" in comments

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

    def test_seed_is_not_a_response_flag(self, tmp_path, capsys):
        # Each flag given to a subcommand that does not take it.
        out = str(tmp_path / "x.csv")
        for argv in [
            ["response", "--seed", "3", "--out", out],
            ["trace", "--trials", "3", "--out", out],
            ["trace", "--points", "9", "--out", out],
            ["response", "--sto", "3", "--out", out],
            ["sweep", "--taps", "1", "--out", out],
            ["sweep", "--points", "9", "--out", out],
            ["fixture", "--out", "x"],
        ]:
            assert run_cli(*argv) == 2, argv
            assert f"unrecognized arguments: {' '.join(argv[1:3])}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


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

    # A label seeds every trial of its cell, so a repeated cell would run its
    # trials twice, and two SNRs that print alike would share their seeds.
    @pytest.mark.parametrize("argv,label", [
        (["--cp", "16,16"], "snr10_cp16_awgn"),
        (["--snr-db", "10,10.0000001"], "snr10_cp32_awgn"),
    ], ids=["cp", "snr_db"])
    def test_repeated_cell_rejected(self, tmp_path, capsys, argv, label):
        out = tmp_path / "x.csv"
        assert run_cli("sweep", *argv, "--trials", "1", "--out", str(out)) == 2
        assert f"two cells have the label {label!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_trials_rejected(self, tmp_path, capsys):
        code = run_cli("sweep", "--trials", "0", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "trials" in capsys.readouterr().err

    def test_missing_out_rejected(self, tmp_path, monkeypatch, capsys):
        # --out is checked before any work, so it is reported ahead of a bad value.
        def no_run_monte_carlo(*args):
            raise AssertionError("sweep ran a cell without --out")

        monkeypatch.setattr(cli, "run_monte_carlo", no_run_monte_carlo)
        monkeypatch.chdir(tmp_path)
        for args in (
            ["trace"], ["sweep"], ["response"], ["trace", "--cp", "300"],
            ["sweep", "--trials", "0"], ["response", "--points", "2"],
            ["trace", "--seed", str(2**130)],
        ):
            assert run_cli(*args) == 2
            assert "out: an output path is required" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    def test_unwritable_path_is_runtime_failure(self, capsys):
        code = run_cli("trace", "--sto", "1", "--out", "/nonexistent-dir/x.csv")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unwritable_path_fails_before_any_trial(self, tmp_path, monkeypatch, capsys):
        # The path is opened before the sweep's rows run; a bad value still comes first.
        calls = []
        monkeypatch.setattr(cli, "run_monte_carlo", lambda *args: calls.append(args))
        out = str(tmp_path / "missing" / "x.csv")
        assert run_cli("sweep", "--trials", "100000", "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert run_cli("sweep", "--cp", "300", "--out", out) == 2
        assert "cp_len" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_failed_sweep_leaves_files_as_they_were(self, tmp_path, monkeypatch, capsys):
        real_run = cli.run_monte_carlo
        cells = []

        def fail_on_second_cell(scenario, *args):
            cells.append(scenario)
            if len(cells) == 2:
                raise ValueError("simulated failure")
            return real_run(scenario, *args)

        monkeypatch.setattr(cli, "run_monte_carlo", fail_on_second_cell)
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"# earlier table\nx\n1\n")
        for out in (existing, tmp_path / "new.csv"):
            cells.clear()
            assert run_cli("sweep", "--trials", "1", "--out", str(out)) == 1
            assert "simulated failure" in capsys.readouterr().err
            assert len(cells) == 2
        assert existing.read_bytes() == b"# earlier table\nx\n1\n"
        assert list(tmp_path.iterdir()) == [existing]

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
        # float reads text beyond float64's range as +-inf; only inf means no noise.
        (["sweep", "--snr-db", "1e400", "--cp", "32", "--channel", "awgn", "--trials", "2"],
         "snr_db: '1e400' is beyond float64's range; inf means no noise"),
        (["sweep", "--snr-db=2,1e400", "--trials", "2"],
         "snr_db: '1e400' is beyond float64's range; inf means no noise"),
        (["trace", "--snr-db=-1e400"],
         "snr_db: '-1e400' is beyond float64's range; inf means no noise"),
    ], ids=["sto", "taps", "snr_db_beyond_float64", "snr_db_list_beyond_float64",
            "negative_snr_db_beyond_float64"])
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

    def test_config_may_supply_out_and_the_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text("out = a.csv\n")
        assert run_cli("trace", "--config", "run.cfg", "--out", "b.csv") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv", "run.cfg"]
        assert run_cli("trace", "--config", "run.cfg") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv", "run.cfg"]
        assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()

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

    def test_byte_order_mark_is_read_away(self, tmp_path):
        # Read as plain utf-8, the mark joined the first key: unknown key '\ufeffseed'.
        outputs = []
        for name, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            config = tmp_path / f"{name}.cfg"
            config.write_bytes(mark + b"seed = 3\n")
            out = tmp_path / f"{name}.csv"
            assert run_cli("trace", "--config", str(config), "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert b"seed=3" in outputs[0]
        assert outputs[1] == outputs[0]

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
        ("sweep", {"trials": "2", "snr-db": "2,10", "cp": "8,16",
                   "channel": "awgn,rayleigh-fixture"}),
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
        ("trace", "sto"),
        ("response", "taps"),
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

    @pytest.mark.parametrize("argv", [["trace"], ["sweep", "--trials", "1"]],
                             ids=["trace", "sweep"])
    def test_config_snr_beyond_float64_rejected(self, tmp_path, capsys, argv):
        # Unchecked, float's +inf ran the cells noiseless.
        config = tmp_path / "run.cfg"
        config.write_text("snr_db = 1e400\n")
        out = tmp_path / "x.csv"
        assert run_cli(*argv, "--config", str(config), "--out", str(out)) == 2
        expected = "config: snr_db: '1e400' is beyond float64's range; inf means no noise"
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not out.exists()

    def test_trace_runs_with_a_key_only_response_takes(self, tmp_path):
        # One config file can serve several subcommands.
        config = tmp_path / "run.cfg"
        config.write_text("points = 9\nsto = 3\n")
        out = tmp_path / "trace.csv"
        assert run_cli("trace", "--config", str(config), "--out", str(out)) == 0
        comments, _ = read_csv(out)
        assert any("true_sto=3" in c for c in comments)
        # Nor is a value checked that only another subcommand would read.
        for argv, text in [
            (["trace"], "trials = many\ntaps = x\n"),
            (["response"], "seed = x\nmethod = bogus\nsto = q\n"),
            (["sweep", "--trials", "1"], "points = many\ntaps = x\n"),
        ]:
            config.write_text(text)
            assert run_cli(*argv, "--config", str(config), "--out", str(out)) == 0, (argv, text)


# Run in a fresh interpreter: every --help text, captured first in the process
# and again after trace, sweep and --config calls, as one JSON list per capture.
HELP_TWICE = """
import contextlib, io, json, sys
from pathlib import Path
from cpsync.cli import main

def helps():
    texts = []
    for argv in (["--help"], *([name, "--help"] for name in ("trace", "sweep", "response", "fixture"))):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0, argv
        texts.append(out.getvalue())
    return texts

first = helps()
work = Path(sys.argv[1])
out = str(work / "x.csv")
(work / "bad.cfg").write_text("trials = many\\n")
(work / "good.cfg").write_text("seed = 3\\n")
assert main(["trace", "--out", out]) == 0
assert main(["sweep", "--trials", "1", "--cp", "16", "--out", out]) == 0
assert main(["sweep", "--config", str(work / "bad.cfg"), "--out", out]) == 2
assert main(["trace", "--config", str(work / "good.cfg"), "--out", out]) == 0
print(json.dumps([first, helps()]))
"""

# Counts the parsers an import of cpsync.cli builds, then those its first main call builds.
IMPORT_BUILDS = """
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__

def spy(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = spy
from cpsync import cli
imported = list(built)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["fixture"]) == 0
print(json.dumps([imported, built]))
"""


class TestOneParserPerProcess:
    """main parses every argv against one parser; a --config merge builds its own."""

    @staticmethod
    def _usage_errors(tmp_path, capsys):
        codes_and_errs = []
        for argv in (["--trials", "many"], ["--method", "nope"]):
            code = run_cli("sweep", *argv, "--out", str(tmp_path / "y.csv"))
            codes_and_errs.append((code, capsys.readouterr().err))
        return codes_and_errs

    def test_config_calls_leave_the_usage_errors_as_they_were(self, tmp_path, capsys):
        # A --config re-parse that switched the shared parser to exit_on_error=False
        # turned these into "error: ArgumentError: ..." and exit 1.
        before = self._usage_errors(tmp_path, capsys)
        config = tmp_path / "run.cfg"
        config.write_text("trials = many\n")
        out = tmp_path / "x.csv"
        assert run_cli("sweep", "--config", str(config), "--out", str(out)) == 2
        expected = "error: config: argument --trials: invalid int value: 'many'\n"
        assert capsys.readouterr().err == expected
        config.write_text("trials = 1\ncp = 16\n")
        assert run_cli("sweep", "--config", str(config), "--out", str(out)) == 0
        after = self._usage_errors(tmp_path, capsys)
        assert after == before
        for (code, err), message in zip(after, [
            "argument --trials: invalid int value: 'many'",
            "argument --method: invalid choice: 'nope'",
        ]):
            assert code == 2
            assert err.startswith("usage: cpsync sweep [-h] ")
            assert f"\ncpsync sweep: error: {message}" in err
        assert not (tmp_path / "y.csv").exists()

    def test_main_builds_no_parser_after_the_first_call(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        out = str(tmp_path / "x.csv")
        assert run_cli("fixture") == 0
        built.clear()
        for argv in (["trace", "--out", out], ["sweep", "--trials", "1", "--cp", "16", "--out", out],
                     ["response", "--points", "16", "--out", out], ["fixture"], ["--help"],
                     ["sweep", "--help"]):
            assert run_cli(*argv) == 0, argv
        assert built == []
        config = tmp_path / "run.cfg"
        config.write_text("seed = 3\n")
        assert run_cli("trace", "--config", str(config), "--out", out) == 0
        assert built == ["cpsync", *(f"cpsync {name}" for name in cli._COMMANDS)]

    def test_help_is_the_same_before_and_after_other_calls(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "COLUMNS": "80",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", HELP_TWICE, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        first, again = json.loads(done.stdout)
        assert again == first
        assert first[0].startswith("usage: cpsync [-h] {trace,sweep,response,fixture} ...")
        for name, text in zip(cli._COMMANDS, first[1:]):
            assert text.startswith(f"usage: cpsync {name} [-h]")

    def test_import_builds_no_parser_and_the_first_call_builds_one(self):
        # A process that imports cli without calling main, as a library user or a
        # benchmark set-up does, pays for no parser.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", IMPORT_BUILDS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        imported, built = json.loads(done.stdout)
        assert imported == []
        assert built == ["cpsync", *(f"cpsync {name}" for name in cli._COMMANDS)]
