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
import csv
import sys

from .channel import CIR_FIXTURE
from .harness import (
    ALL_METHODS,
    DEFAULT_STO_VALUES,
    _CHANNELS,
    _REFERENCE_AXES,
    _REFERENCE_N,
    Scenario,
    _grid,
    derive_seed,
    freq_response,
    run_monte_carlo,
    run_trial,
)
from .sync import Method

__all__ = ["main", "run"]

_METHODS = {**{m.value: (m,) for m in Method}, "all": ALL_METHODS}
# The MethodStats fields a sweep row reports, in column order. Listed by name
# so that a new MethodStats field stays out of the CSV body unless added here.
_SWEEP_STATS = ("exact_hit_rate", "within_1_rate", "mean_abs_error", "mean_sq_error")


class ValidationError(Exception):
    """Bad selector or configuration value; message names the field."""


def _parse_list(text: str, convert, fieldname: str, kind: str) -> tuple:
    try:
        values = tuple(convert(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        values = ()
    if not values:
        raise ValidationError(f"{fieldname}: expected comma-separated {kind}, got {text!r}")
    return values


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
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"config: cannot read {path}: {err}")
    return values


def _out_path(ns: argparse.Namespace) -> str:
    """Check --out, which every CSV subcommand takes, and return it."""
    if ns.out is None:
        raise ValidationError("out: an output path is required")
    return ns.out


def _cells(ns: argparse.Namespace, single: bool) -> list[Scenario]:
    """The grid cells the selector flags pick, validated, in output row order.

    An unset axis takes its reference values, or only the first of them when
    a single cell is wanted.
    """
    try:  # derive_seed owns the master seed's range
        derive_seed(ns.seed)
    except ValueError as err:
        raise ValidationError(f"seed: {err}") from None

    def axis(name, reference):
        value = getattr(ns, name)
        if value is not None:
            return (value,)
        return reference[:1] if single else reference

    axes = {name: axis(name, reference) for name, reference in _REFERENCE_AXES.items()}
    if ns.sto is None:
        sto_values = DEFAULT_STO_VALUES[:1] if single else DEFAULT_STO_VALUES
    else:
        sto_values = _parse_list(ns.sto, int, "sto", "integers")
    try:
        return _grid(ns.n, _METHODS[ns.method], sto_values, **axes)
    except ValueError as err:  # the owning constructor names the field
        raise ValidationError(str(err)) from None


def _write_csv(path: str, comments: list[str], header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_trace(ns: argparse.Namespace) -> int:
    (scenario,) = _cells(ns, single=True)
    out_path = _out_path(ns)
    if len(scenario.sto_values) != 1:
        raise ValidationError("sto: trace takes exactly one offset")
    methods = scenario.methods
    true_sto = scenario.sto_values[0]
    result = run_trial(scenario, true_sto, ns.seed)

    stems = [m.value.replace("-", "_") for m in methods]
    comments = [
        f"scenario={scenario.label} n={ns.n} symbols={scenario.ofdm.symbols_per_frame}",
        f"true_sto={true_sto} seed={ns.seed}",
        " ".join(f"sto_hat_{stem}={result.estimates[m]}" for stem, m in zip(stems, methods)),
    ]
    header = ["offset"] + [f"{stem}_value" for stem in stems]
    traces = [result.traces[m] for m in methods]
    rows = [
        [int(offset)] + [float(trace.values[idx]) for trace in traces]
        for idx, offset in enumerate(traces[0].offsets)
    ]
    _write_csv(out_path, comments, header, rows)
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    cells = _cells(ns, single=False)
    if ns.trials < 1:
        raise ValidationError(f"trials: must be >= 1, got {ns.trials}")
    out_path = _out_path(ns)
    comments = [
        f"seed={ns.seed} trials={ns.trials} n={ns.n}",
        f"sto_values={','.join(str(s) for s in cells[0].sto_values)}",
    ]
    header = ["snr_db", "cp_len", "channel", "method", "n_trials", *_SWEEP_STATS]
    rows = []
    for scenario in cells:
        stats = run_monte_carlo(scenario, ns.trials, ns.seed)
        for method in scenario.methods:
            m = stats.methods[method]
            rows.append(
                [
                    scenario.channel.snr_db,
                    scenario.ofdm.cp_len,
                    scenario.channel_mode,
                    method.value,
                    ns.trials,
                    *(getattr(m, stat) for stat in _SWEEP_STATS),
                ]
            )
    _write_csv(out_path, comments, header, rows)
    return 0


def cmd_response(ns: argparse.Namespace) -> int:
    taps = CIR_FIXTURE
    if ns.taps is not None:
        taps = _parse_list(ns.taps, complex, "taps", "complex values")
    try:
        records = freq_response(taps, ns.points)
    except ValueError as err:  # the message names taps or n_points
        raise ValidationError(str(err)) from None
    out_path = _out_path(ns)
    comments = [f"taps={len(taps)} points={ns.points}"]
    header = ["frequency", "magnitude_db", "phase_rad"]
    rows = [
        [float(k) / ns.points, magnitude_db, phase_rad]
        for k, magnitude_db, phase_rad in records
    ]
    _write_csv(out_path, comments, header, rows)
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
        p.add_argument("--out", type=str, default=None, help="output CSV path")
        p.add_argument("--config", type=str, default=None, help="key=value defaults file")
        if selectors:
            p.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
            p.add_argument("--snr-db", dest="snr_db", type=float, default=None)
            p.add_argument("--cp", type=int, default=None, help="cyclic-prefix length")
            p.add_argument("--channel", type=str, default=None, choices=_CHANNELS)
            p.add_argument("--sto", type=str, default=None, help="true offset(s), comma-separated")
            p.add_argument("--method", type=str, default="all", choices=_METHODS)
            p.add_argument(
                "--n", type=int, default=_REFERENCE_N, help="IDFT size (default %(default)s)"
            )

    p_trace = sub.add_parser("trace", help="metric trace of one seeded realization")
    add_common(p_trace, selectors=True)
    p_trace.set_defaults(func=cmd_trace)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo hit-rate table over the scenario grid")
    add_common(p_sweep, selectors=True)
    p_sweep.add_argument(
        "--trials", type=int, default=100, help="trials per cell (default %(default)s)"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_resp = sub.add_parser("response", help="frequency response of a tap vector")
    add_common(p_resp, selectors=False)
    p_resp.add_argument("--points", type=int, default=256, help="bin count (default %(default)s)")
    p_resp.add_argument("--taps", type=str, default=None, help="comma-separated complex taps")
    p_resp.set_defaults(func=cmd_response)

    p_fix = sub.add_parser("fixture", help="print the canned 10-tap CIR")
    p_fix.set_defaults(func=cmd_fixture)

    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Flags, then --config values, then build_parser's defaults.

    Each config key the running subcommand takes becomes a --flag=value token
    ahead of the command line's own flags, and argv is parsed once more, so
    argparse checks each value with its flag's own type= and choices=, and a
    flag given on the command line wins. A key that only another subcommand
    takes is accepted unchecked.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = parser.parse_args(argv)
    if not getattr(ns, "config", None):
        return ns
    values = _load_config(ns.config)
    (commands,) = [action.choices for action in parser._actions if action.dest == "subcommand"]
    known = {a.dest for p in commands.values() for a in p._actions} - {"help", "config"}
    unknown = [key for key in values if key not in known]
    if unknown:
        raise ValidationError(f"config: unknown key {unknown[0]!r}")
    command = commands[ns.subcommand]
    flags = {a.dest: a.option_strings[0] for a in command._actions}
    at = argv.index(ns.subcommand) + 1
    argv[at:at] = [f"{flags[k]}={v}" for k, v in values.items() if k in flags]
    # The flags parsed once already, so an error now comes from a config value.
    parser.exit_on_error = command.exit_on_error = False
    try:
        return parser.parse_args(argv)
    except argparse.ArgumentError as err:
        raise ValidationError(f"config: {err}") from None


def main(argv=None) -> int:
    try:
        ns = _parse_args(argv)
        return ns.func(ns)
    except SystemExit as exc:
        return int(exc.code or 0)
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
