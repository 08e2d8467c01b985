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
error (reported before any simulation work), 1 runtime failure. ``main`` may
run many times in one process: each call parses against one parser built on
the first call, and a ``--config`` merge re-parses on a parser built for that call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from collections.abc import Iterator

from .channel import CIR_FIXTURE, freq_response
from .harness import (
    ALL_METHODS,
    DEFAULT_STO_VALUES,
    _CHANNELS,
    _REFERENCE_AXES,
    _REFERENCE_N,
    Scenario,
    _grid,
    derive_seed,
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


def _listed(convert, field: str, kind: str, single: bool = False):
    """The argparse type= of a flag that takes one or more comma-separated values.

    convert raises ValueError or KeyError on a bad value. A malformed list, or
    with single a second value, raises ValidationError, which argparse passes
    on unhandled, so the message names the field rather than the flag.
    """

    def parse(text: str) -> tuple:
        try:
            values = tuple(convert(part.strip()) for part in text.split(",") if part.strip())
        except (KeyError, ValueError):
            values = ()
        if not values:
            raise ValidationError(f"{field}: expected comma-separated {kind}, got {text!r}")
        if single and len(values) > 1:
            raise ValidationError(f"{field}: trace takes exactly one value, got {len(values)}")
        return values

    return parse


def _selector(field: str, convert, kind: str, **keywords) -> dict:
    """A grid selector's keywords per subcommand; unset, its reference values (trace: the first)."""
    values = {**_REFERENCE_AXES, "sto": DEFAULT_STO_VALUES}[field]
    return {"sweep": dict(keywords, type=_listed(convert, field, kind), default=values),
            "trace": dict(keywords, type=_listed(convert, field, kind, True), default=values[:1])}


def _snr_db(text: str) -> float:
    """text as a float; text beyond float64's range, which float reads as +-inf, is refused."""
    if abs(value := float(text)) > sys.float_info.max and "inf" not in text.lower():
        raise ValidationError(f"snr_db: {text!r} is beyond float64's range; inf means no noise")
    return value


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        # utf-8-sig reads away the byte-order mark some editors write first.
        with open(path, encoding="utf-8-sig") as handle:
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


def _cells(ns: argparse.Namespace) -> list[Scenario]:
    """The grid cells the selector flags pick, validated, in output row order."""
    try:  # derive_seed owns the master seed's range
        derive_seed(ns.seed)
    except ValueError as err:
        raise ValidationError(f"seed: {err}") from None
    try:
        return _grid(ns.n, _METHODS[ns.method], ns.sto, ns.snr_db, ns.cp, ns.channel)
    except ValueError as err:  # the owning constructor names the field
        raise ValidationError(str(err)) from None


def _write_csv(path: str, comments: list[str], header: list[str], rows) -> None:
    """Write the table to path, which is opened for append before rows runs.

    rows may be a lazy sweep, so an unwritable path fails before any trial.
    Rows that raise leave an existing file's bytes as they were and remove a
    file this call created.
    """
    created = not os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    try:
        rows = list(rows)
    except BaseException:
        if created:
            os.remove(path)
        raise
    # Append to the empty file this call created: truncating it would make ext4
    # start writing it back to disk on close (auto_da_alloc).
    with open(path, "a" if created else "w", encoding="utf-8", newline="") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_trace(ns: argparse.Namespace) -> tuple[list[str], list[str], list]:
    (scenario,) = _cells(ns)
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
    return comments, header, rows


def cmd_sweep(ns: argparse.Namespace) -> tuple[list[str], list[str], Iterator[list]]:
    """The sweep's table; its rows run the trials lazily, once the flags have passed."""
    cells = _cells(ns)
    if ns.trials < 1:
        raise ValidationError(f"trials: must be >= 1, got {ns.trials}")
    comments = [
        f"seed={ns.seed} trials={ns.trials} n={ns.n}",
        f"sto_values={','.join(str(s) for s in cells[0].sto_values)}",
    ]
    header = ["snr_db", "cp_len", "channel", "method", "n_trials", *_SWEEP_STATS]

    def rows() -> Iterator[list]:
        for scenario in cells:
            stats = run_monte_carlo(scenario, ns.trials, ns.seed)
            for method in scenario.methods:
                m = stats.methods[method]
                yield [
                    scenario.channel.snr_db,
                    scenario.ofdm.cp_len,
                    scenario.channel_mode,
                    method.value,
                    ns.trials,
                    *(getattr(m, stat) for stat in _SWEEP_STATS),
                ]

    return comments, header, rows()


def cmd_response(ns: argparse.Namespace) -> tuple[list[str], list[str], list]:
    try:
        records = freq_response(ns.taps, ns.points)
    except ValueError as err:  # the message names taps or n_points
        raise ValidationError(str(err)) from None
    comments = [f"taps={len(ns.taps)} points={ns.points}"]
    header = ["frequency", "magnitude_db", "phase_rad"]
    rows = [
        [float(k) / ns.points, magnitude_db, phase_rad]
        for k, magnitude_db, phase_rad in records
    ]
    return comments, header, rows


def cmd_fixture(ns: argparse.Namespace) -> int:
    for tap in CIR_FIXTURE:
        print(f"{tap.real:.4f} {tap.imag:+.4f}j")
    return 0


# Every flag once, in --help order, with its argparse keywords in each subcommand
# that takes it; build_parser and the --config check both read it.
_CSV = {"trace", "sweep", "response"}  # the subcommands that write a CSV file
_CELLS = {"trace", "sweep"}  # the subcommands that run grid cells
_MODES = "{" + ",".join(_CHANNELS) + "}"  # --channel's metavar, and the modes its error lists
_DEFAULT = "(default %(default)s)"
_FLAGS = {
    "--out": dict.fromkeys(_CSV, dict(help="output CSV path")),
    "--config": dict.fromkeys(_CSV, dict(help="key=value defaults file")),
    "--seed": dict.fromkeys(_CELLS, dict(type=int, default=0, help=f"master seed {_DEFAULT}")),
    "--snr-db": _selector("snr_db", _snr_db, "numbers", help="SNR(s) in dB, comma-separated"),
    "--cp": _selector("cp", int, "integers", help="cyclic-prefix length(s), comma-separated"),
    "--channel": _selector("channel", dict(zip(_CHANNELS, _CHANNELS)).__getitem__,
                           f"modes of {_MODES}", metavar=_MODES, help="mode(s), comma-separated"),
    "--sto": _selector("sto", int, "integers", help="true offset(s), comma-separated"),
    "--method": dict.fromkeys(_CELLS, dict(default="all", choices=_METHODS)),
    "--n": dict.fromkeys(_CELLS, dict(type=int, default=_REFERENCE_N,
                                      help=f"IDFT size {_DEFAULT}")),
    "--trials": {"sweep": dict(type=int, default=100, help=f"trials per cell {_DEFAULT}")},
    "--points": {"response": dict(type=int, default=256, help=f"bin count {_DEFAULT}")},
    "--taps": {"response": dict(type=_listed(complex, "taps", "complex values"),
                                default=CIR_FIXTURE, help="comma-separated complex taps")},
}
# Each subcommand's help line and handler, in --help order. A _CSV handler
# returns the (comments, header, rows) that main writes to --out.
_COMMANDS = {
    "trace": ("metric trace of one seeded realization", cmd_trace),
    "sweep": ("Monte Carlo hit-rate table over the scenario grid", cmd_sweep),
    "response": ("frequency response of a tap vector", cmd_response),
    "fixture": ("print the canned 10-tap CIR", cmd_fixture),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpsync",
        description="Cyclic-prefix OFDM timing-offset estimation runs, emitted as CSV.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, handler) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flag, keywords in _FLAGS.items():
            if name in keywords:
                command.add_argument(flag, **keywords[name])
        command.set_defaults(func=handler)
    parser.set_defaults(commands=sub.choices)  # each subcommand's parser, by name
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The tree every main call parses against, built on the first; nothing changes it.

    Importing cli builds no parser.
    """
    return build_parser()


def _parse_args(argv) -> argparse.Namespace:
    """Flags, then --config values, then build_parser's defaults.

    Each config key the running subcommand takes becomes a --flag=value token
    ahead of the command line's own flags, and argv is parsed once more, so
    argparse checks each value with its flag's own type= and choices=, and a
    flag given on the command line wins. A key that only another subcommand
    takes is accepted unchecked.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _parser().parse_args(argv)
    if not getattr(ns, "config", None):
        return ns
    values = _load_config(ns.config)
    flags = {flag[2:].replace("-", "_"): (flag, takers) for flag, takers in _FLAGS.items()}
    del flags["config"]  # a config file cannot name another
    unknown = [key for key in values if key not in flags]
    if unknown:
        raise ValidationError(f"config: unknown key {unknown[0]!r}")
    at = argv.index(ns.subcommand) + 1
    argv[at:at] = [f"{flags[k][0]}={v}" for k, v in values.items() if ns.subcommand in flags[k][1]]
    # The flags parsed once already, so an error now comes from a config value. A
    # tree of its own reports it as one, and _parser()'s still exits with its usage line.
    parser = build_parser()
    parser.exit_on_error = parser.get_default("commands")[ns.subcommand].exit_on_error = False
    try:
        return parser.parse_args(argv)
    except (argparse.ArgumentError, ValidationError) as err:
        raise ValidationError(f"config: {err}") from None


def main(argv=None) -> int:
    try:
        ns = _parse_args(argv)
        if ns.subcommand not in _CSV:
            return ns.func(ns)
        if ns.out is None:  # checked once --config, which may supply it, is merged
            raise ValidationError("out: an output path is required")
        _write_csv(ns.out, *ns.func(ns))
        return 0
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
