"""Command-line front end: seeded runs emitted as self-describing CSV files.

Subcommands:

    trace     one realization's metric trace per method (plot-ready columns)
    sweep     Monte Carlo hit-rate table over a scenario grid
    response  frequency response of a tap vector (fixture CIR by default)
    fixture   print the canned 10-tap CIR to stdout

Metadata rides in ``#``-prefixed comment lines above the CSV header, so a
single file is self-describing yet loads in any reader that skips comments.
Numeric fields use round-trip decimal formatting and every subcommand is
byte-deterministic in (flags, seed). Flags override values from an optional
``--config`` key=value file. Exit codes: 0 success, 2 usage or validation
error (reported before any simulation work), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import sys
from dataclasses import dataclass

from .channel import _SNR_DB_RULE, CIR_FIXTURE, _snr_db_sizes_noise
from .harness import (
    ALL_METHODS,
    DEFAULT_STO_VALUES,
    _cell_scenario,
    freq_response,
    run_monte_carlo,
    run_trial,
)
from .sync import Method, check_search_offset
from .txgen import OfdmParams

__all__ = ["main", "run"]

_DEFAULT_SNR_AXIS = (10.0, 2.0)
_DEFAULT_CP_AXIS = (32, 16)
_DEFAULT_CHANNEL_AXIS = ("awgn", "rayleigh-fixture")
_CHANNEL_MODES = ("awgn", "rayleigh-fixture", "rayleigh-random")
_DEFAULT_N = 128
_DEFAULT_TRIALS = 100
_TRACE_COLUMNS = {
    Method.CBM: "cbm_value",
    Method.DBM_MAGNITUDE: "dbm_mag_value",
    Method.DBM_LITERAL: "dbm_lit_value",
}


class ValidationError(Exception):
    """Bad selector or configuration value; message names the field."""


def _parse_int_list(text: str, fieldname: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"{fieldname}: expected comma-separated integers, got {text!r}")


def _parse_complex_list(text: str, fieldname: str) -> tuple[complex, ...]:
    try:
        return tuple(complex(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"{fieldname}: expected comma-separated complex values, got {text!r}")


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValidationError(f"config: line {lineno} is not key=value: {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as err:
        raise ValidationError(f"config: cannot read {path}: {err}")
    return values


_CONFIG_PARSERS = {
    "snr_db": float,
    "cp": int,
    "channel": str,
    "sto": str,
    "trials": int,
    "seed": int,
    "out": str,
    "method": str,
    "n": int,
    "points": int,
    "taps": str,
}


def _resolve(ns: argparse.Namespace, key: str, default):
    """Flag value if given, else config-file value, else the built-in default."""
    value = getattr(ns, key, None)
    if value is not None:
        return value
    config = getattr(ns, "_config_values", {})
    if key in config:
        parser = _CONFIG_PARSERS.get(key)
        if parser is None:
            raise ValidationError(f"config: unknown key {key!r}")
        try:
            return parser(config[key])
        except ValueError:
            raise ValidationError(f"config: bad value for {key}: {config[key]!r}")
    return default


@dataclass(frozen=True)
class RunConfig:
    """Validated selector set for one CLI invocation."""

    snr_axis: tuple[float, ...]
    cp_axis: tuple[int, ...]
    channel_axis: tuple[str, ...]
    methods: tuple[Method, ...]
    sto_values: tuple[int, ...]
    n_trials: int
    master_seed: int
    n_fft: int
    points: int
    taps: tuple[complex, ...]
    out_path: str | None


def _validate_common(ns: argparse.Namespace, subcommand: str) -> RunConfig:
    config_path = getattr(ns, "config", None)
    ns._config_values = _load_config(config_path) if config_path else {}
    for key in ns._config_values:
        if key not in _CONFIG_PARSERS:
            raise ValidationError(f"config: unknown key {key!r}")

    # sweep defaults to the full grid; trace is one realization of one cell.
    single_cell = subcommand == "trace"

    n_fft = _resolve(ns, "n", _DEFAULT_N)
    if n_fft < 2:
        raise ValidationError(f"n: IDFT size must be >= 2, got {n_fft}")

    snr_db = _resolve(ns, "snr_db", None)
    if snr_db is not None and not _snr_db_sizes_noise(snr_db):
        raise ValidationError(f"snr-db: {snr_db} cannot size noise; {_SNR_DB_RULE}")
    default_snr = _DEFAULT_SNR_AXIS[:1] if single_cell else _DEFAULT_SNR_AXIS
    snr_axis = (snr_db,) if snr_db is not None else default_snr

    cp = _resolve(ns, "cp", None)
    default_cp = _DEFAULT_CP_AXIS[:1] if single_cell else _DEFAULT_CP_AXIS
    cp_axis = (cp,) if cp is not None else default_cp
    for value in cp_axis:
        if not 0 < value < n_fft:
            raise ValidationError(f"cp: must satisfy 0 < cp < n, got cp={value}, n={n_fft}")

    channel = _resolve(ns, "channel", None)
    if channel is not None and channel not in _CHANNEL_MODES:
        raise ValidationError(f"channel: must be one of {', '.join(_CHANNEL_MODES)}, got {channel!r}")
    default_channel = _DEFAULT_CHANNEL_AXIS[:1] if single_cell else _DEFAULT_CHANNEL_AXIS
    channel_axis = (channel,) if channel is not None else default_channel

    method = _resolve(ns, "method", "all")
    if method == "all":
        methods = ALL_METHODS
    else:
        try:
            methods = (Method(method),)
        except ValueError:
            raise ValidationError(f"method: must be cbm, dbm-mag, dbm-lit or all, got {method!r}")

    sto_text = _resolve(ns, "sto", None)
    default_sto = DEFAULT_STO_VALUES[:1] if single_cell else DEFAULT_STO_VALUES
    sto_values = _parse_int_list(sto_text, "sto") if sto_text is not None else default_sto
    if not sto_values:
        raise ValidationError("sto: needs at least one offset")
    for cp_value in cp_axis:
        params = OfdmParams(n_fft, cp_value)
        for sto in sto_values:
            try:
                check_search_offset("sto", sto, params)
            except ValueError as err:
                raise ValidationError(f"sto: {err}") from None

    n_trials = _resolve(ns, "trials", _DEFAULT_TRIALS)
    if n_trials < 1:
        raise ValidationError(f"trials: must be >= 1, got {n_trials}")

    points = _resolve(ns, "points", 256)
    taps_text = _resolve(ns, "taps", None)
    taps = _parse_complex_list(taps_text, "taps") if taps_text is not None else CIR_FIXTURE
    if not all(cmath.isfinite(t) for t in taps):
        raise ValidationError("taps: coefficients must be finite")
    if subcommand == "response":
        if not taps:
            raise ValidationError("taps: needs at least one coefficient")
        if points < len(taps):
            raise ValidationError(f"points: must be >= tap count {len(taps)}, got {points}")

    master_seed = _resolve(ns, "seed", 0)
    # derive_seed packs the master seed into 16 signed bytes.
    if not -(2**127) <= master_seed < 2**127:
        raise ValidationError(f"seed: must lie in [-2**127, 2**127), got {master_seed}")

    return RunConfig(
        snr_axis=snr_axis,
        cp_axis=cp_axis,
        channel_axis=channel_axis,
        methods=methods,
        sto_values=sto_values,
        n_trials=n_trials,
        master_seed=master_seed,
        n_fft=n_fft,
        points=points,
        taps=taps,
        out_path=_resolve(ns, "out", None),
    )


def _format_number(value) -> str:
    if isinstance(value, bool):
        raise TypeError("bool is not a CSV value")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, comments: list[str], header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_number(v) for v in row])


def cmd_trace(ns: argparse.Namespace) -> int:
    cfg = _validate_common(ns, "trace")
    if cfg.out_path is None:
        raise ValidationError("out: an output path is required")
    if len(cfg.sto_values) != 1:
        raise ValidationError("sto: trace takes exactly one offset")
    if len(cfg.snr_axis) != 1 or len(cfg.cp_axis) != 1 or len(cfg.channel_axis) != 1:
        raise ValidationError("trace: snr-db, cp and channel each take exactly one value")
    scenario = _cell_scenario(
        cfg.snr_axis[0], cfg.cp_axis[0], cfg.channel_axis[0], cfg.n_fft, cfg.methods, cfg.sto_values
    )
    true_sto = cfg.sto_values[0]
    result = run_trial(scenario, true_sto, cfg.master_seed)

    comments = [
        f"scenario={scenario.label} n={cfg.n_fft} symbols={scenario.ofdm.symbols_per_frame}",
        f"true_sto={true_sto} seed={cfg.master_seed}",
        " ".join(
            f"sto_hat_{m.value.replace('-', '_')}={result.estimates[m]}" for m in cfg.methods
        ),
    ]
    header = ["offset"] + [_TRACE_COLUMNS[m] for m in cfg.methods]
    first = result.traces[cfg.methods[0]]
    rows = []
    for idx, offset in enumerate(first.offsets):
        row = [int(offset)]
        row += [float(result.traces[m].values[idx]) for m in cfg.methods]
        rows.append(row)
    _write_csv(cfg.out_path, comments, header, rows)
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    cfg = _validate_common(ns, "sweep")
    if cfg.out_path is None:
        raise ValidationError("out: an output path is required")
    comments = [
        f"seed={cfg.master_seed} trials={cfg.n_trials} n={cfg.n_fft}",
        f"sto_values={','.join(str(s) for s in cfg.sto_values)}",
    ]
    header = [
        "snr_db",
        "cp_len",
        "channel",
        "method",
        "n_trials",
        "exact_hit_rate",
        "within_1_rate",
        "mean_abs_error",
        "mean_sq_error",
    ]
    rows = []
    for snr_db in cfg.snr_axis:
        for cp_len in cfg.cp_axis:
            for channel_mode in cfg.channel_axis:
                scenario = _cell_scenario(
                    snr_db, cp_len, channel_mode, cfg.n_fft, cfg.methods, cfg.sto_values
                )
                stats = run_monte_carlo(scenario, cfg.n_trials, cfg.master_seed)
                for method in cfg.methods:
                    m = stats.methods[method]
                    rows.append(
                        [
                            float(snr_db),
                            int(cp_len),
                            scenario.channel_mode,
                            method.value,
                            cfg.n_trials,
                            m.exact_hit_rate,
                            m.within_1_rate,
                            m.mean_abs_error,
                            m.mean_sq_error,
                        ]
                    )
    _write_csv(cfg.out_path, comments, header, rows)
    return 0


def cmd_response(ns: argparse.Namespace) -> int:
    cfg = _validate_common(ns, "response")
    if cfg.out_path is None:
        raise ValidationError("out: an output path is required")
    records = freq_response(cfg.taps, cfg.points)
    comments = [f"taps={len(cfg.taps)} points={cfg.points}"]
    header = ["frequency", "magnitude_db", "phase_rad"]
    rows = [
        [float(k) / cfg.points, magnitude_db, phase_rad]
        for k, magnitude_db, phase_rad in records
    ]
    _write_csv(cfg.out_path, comments, header, rows)
    return 0


def cmd_fixture(ns: argparse.Namespace) -> int:
    for tap in CIR_FIXTURE:
        print(f"{tap.real:.4f} {tap.imag:+.4f}j")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpsync",
        description="Cyclic-prefix OFDM timing-offset estimation runs, emitted as CSV.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, *, selectors: bool) -> None:
        p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
        p.add_argument("--out", type=str, default=None, help="output CSV path")
        p.add_argument("--config", type=str, default=None, help="key=value defaults file")
        if selectors:
            p.add_argument("--snr-db", dest="snr_db", type=float, default=None)
            p.add_argument("--cp", type=int, default=None, help="cyclic-prefix length")
            p.add_argument("--channel", type=str, default=None, choices=_CHANNEL_MODES)
            p.add_argument("--sto", type=str, default=None, help="true offset(s), comma-separated")
            p.add_argument(
                "--method", type=str, default=None, choices=["cbm", "dbm-mag", "dbm-lit", "all"]
            )
            p.add_argument("--n", type=int, default=None, help="IDFT size (default 128)")

    p_trace = sub.add_parser("trace", help="metric trace of one seeded realization")
    add_common(p_trace, selectors=True)
    p_trace.set_defaults(func=cmd_trace)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo hit-rate table over the scenario grid")
    add_common(p_sweep, selectors=True)
    p_sweep.add_argument("--trials", type=int, default=None, help="trials per cell (default 100)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_resp = sub.add_parser("response", help="frequency response of a tap vector")
    add_common(p_resp, selectors=False)
    p_resp.add_argument("--points", type=int, default=None, help="number of bins (default 256)")
    p_resp.add_argument("--taps", type=str, default=None, help="comma-separated complex taps")
    p_resp.set_defaults(func=cmd_response)

    p_fix = sub.add_parser("fixture", help="print the canned 10-tap CIR")
    p_fix.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
