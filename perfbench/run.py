"""cpsync Monte Carlo benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Run from the root of a cpsync checkout. The program is imported from
``src/`` as it stands and is not modified; per-layer timings come from
wrapping the public names each module calls through (see tracer.py).

A run sets up (imports cpsync and runs one warm-up trial, several times),
checks a Monte Carlo table at the frozen reference seed against
reference.json, spot-checks a few seeded trials against the plain-loop
oracle in tests/oracles.py, then runs timed blocks of trials for
``--seconds``. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced blocks and reports the
per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. ``--freeze`` rewrites
reference.json from the current program instead of benchmarking it.
"""

from __future__ import annotations

import os
import sys

# Single compute thread, fixed before numpy loads its BLAS. No bytecode is
# written, so every set-up compiles cpsync from source the same way.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse
import csv
import hashlib
import importlib
import json
import math
import platform
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE_PATH = BENCH_DIR / "reference.json"

sys.path.insert(0, str(BENCH_DIR))
from calibrate import Kernel  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE_SEED = 0
SETUP_REPEATS = 7
MIN_BLOCKS = 6
ORACLE_TOLERANCE = 1e-10  # acceptance criterion 3
# A rate may move by one trial's worth (1/reference_trials) before the
# output counts as changed: a ULP-level change in a metric may flip one
# near-tie decision, while a real estimator or pipeline fault moves many.
RATE_TOLERANCE_TRIALS = 1
RATE_FIELDS = ("exact_hit_rate", "within_1_rate")

SPAN_NAMES = (
    "cli.main",
    "harness.run_monte_carlo",
    "harness.run_trial",
    "txgen.build_frame",
    "spectral.idft",
    "channel.replicate_branches",
    "channel.random_cir",
    "channel.apply_cir",
    "channel.apply_sto",
    "channel.add_awgn",
    "channel.apply_cfo",
    "sync.estimate_sto.cbm",
    "sync.estimate_sto.dbm-mag",
    "sync.estimate_sto.dbm-lit",
)
COUNT_NAMES = (
    "txgen.SampleStream.validations",
    "sync.MetricTrace.validations",
    "sync.estimate_sto.calls",
    "sync.candidates",
    "channel.branch_samples",
    "harness.derive_seed.calls",
)


def bench_seed(*parts) -> int:
    """63-bit seed from the benchmark's own tagged parts (not cpsync's rule)."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


# -- workloads ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One benchmark input set.

    block_trials is the trial count per cell in one timed block;
    reference_trials the count behind the frozen table; oracle_trials the
    seeded trials per cell recomputed against the brute-force metric.
    kernel is the calibration kernel shaped like this workload's trials, and
    kernel_rate its calls per second at the reference host speed.
    """

    name: str
    cells: int
    block_trials: int
    reference_trials: int
    oracle_trials: int
    sweep_args: tuple[str, ...] | None  # None: run_monte_carlo in-process
    kernel: Kernel
    kernel_rate: float

    def scenarios(self, mods) -> list:
        """The cpsync Scenario of every cell, built from the public API."""
        h, ch, tx = mods.harness, mods.channel, mods.txgen
        if self.name == "grid":
            return h.reference_scenarios()
        if self.name == "diversity":
            return [h.Scenario(
                label="snr2_cp16_awgn_rx16_cfo0.2",
                ofdm=tx.OfdmParams(n_subcarriers=128, cp_len=16),
                channel=ch.ChannelScenario(snr_db=2.0, cfo=ch.CfoParams(0.2), rx_branches=16),
            )]
        return [h.Scenario(
            label="snr10_cp72_rayleigh-random",
            ofdm=tx.OfdmParams(n_subcarriers=1024, cp_len=72),
            channel=ch.ChannelScenario(snr_db=10.0),
            fresh_cir_per_trial=True,
        )]

    def run_block(self, mods, trials: int, seed: int, call=None) -> dict:
        """Run one block and return {(snr, cp, channel, method): row}.

        call(name, fn, *args) lets the traced run put a root span around
        the entry point. Raises BlockFailed when the program raises, exits
        non-zero or writes output that does not parse.
        """
        call = call or (lambda _name, fn, *args: fn(*args))
        if self.sweep_args is not None:
            out = WORK_DIR / f"{self.name}.csv"
            out.unlink(missing_ok=True)  # never parse an earlier block's table
            argv = ["sweep", *self.sweep_args, "--trials", str(trials),
                    "--seed", str(seed), "--out", str(out)]
            code = call("cli.main", mods.cli.main, argv)
            if code != 0:
                raise BlockFailed(f"cpsync sweep exited {code}")
            return parse_sweep_csv(out)
        rows = {}
        for scenario in self.scenarios(mods):
            try:
                stats = call("harness.run_monte_carlo", mods.harness.run_monte_carlo,
                             scenario, trials, seed)
            except Exception as err:  # noqa: BLE001 - any raise is a failed cell
                raise BlockFailed(f"run_monte_carlo raised {type(err).__name__}: {err}") from err
            for method, m in stats.methods.items():
                key = (float(scenario.channel.snr_db), scenario.ofdm.cp_len,
                       scenario.channel_mode, method.value)
                rows[key] = {"n_trials": stats.n_trials, "exact_hit_rate": m.exact_hit_rate,
                             "within_1_rate": m.within_1_rate}
        return rows


WORKLOADS = {
    # The reference experiment: the default 8-cell sweep through the CLI.
    # Small arrays, so per-trial Python overhead and txgen/spectral dominate.
    "grid": Workload("grid", cells=8, block_trials=15, reference_trials=100,
                     oracle_trials=1, sweep_args=(),
                     kernel=Kernel(n=128, cp=16, branches=1, taps=0, calls=50),
                     kernel_rate=2000.0),
    # 16 receive branches with CFO: the only workload that replicates
    # branches, rotates by CFO and accumulates metrics over branches, so the
    # time moves into channel and sync.
    "diversity": Workload("diversity", cells=1, block_trials=30, reference_trials=100,
                          oracle_trials=2, sweep_args=None,
                          kernel=Kernel(n=128, cp=16, branches=16, taps=0, calls=12),
                          kernel_rate=500.0),
    # N=1024 with a fresh seeded CIR per trial: 8x larger arrays, memory
    # traffic rather than interpreter time, and no shared channel fixture.
    "wideband": Workload("wideband", cells=1, block_trials=40, reference_trials=100,
                         oracle_trials=2,
                         sweep_args=("--n", "1024", "--cp", "72", "--snr-db", "10",
                                     "--channel", "rayleigh-random"),
                         kernel=Kernel(n=1024, cp=72, branches=1, taps=10, calls=15),
                         kernel_rate=500.0),
}


class BlockFailed(Exception):
    """A block whose program run failed or whose output was unusable."""


def parse_sweep_csv(path: Path) -> dict:
    """Rows of a sweep CSV keyed by (snr, cp, channel, method), by column name."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            lines = [line for line in handle if not line.startswith("#")]
        rows = {}
        for row in csv.DictReader(lines):
            key = (float(row["snr_db"]), int(row["cp_len"]), row["channel"], row["method"])
            rows[key] = {"n_trials": int(row["n_trials"]),
                         **{f: float(row[f]) for f in RATE_FIELDS}}
        return rows
    except (OSError, KeyError, ValueError, csv.Error) as err:
        raise BlockFailed(f"sweep output does not parse: {err}") from err


def reference_keys(reference: dict) -> list[tuple]:
    return [(r["snr_db"], r["cp_len"], r["channel"], r["method"]) for r in reference["rows"]]


def failed_cells(rows: dict, keys: list[tuple], trials: int) -> set:
    """Cells (snr, cp, channel) with a missing or inconsistent method row."""
    bad = set()
    for key in keys:
        row = rows.get(key)
        if (row is None or row["n_trials"] != trials
                or not 0.0 <= row["exact_hit_rate"] <= row["within_1_rate"] <= 1.0):
            bad.add(key[:3])
    return bad


# -- set-up, checks and timed blocks ------------------------------------------

def import_program() -> SimpleNamespace:
    """Import cpsync afresh from src/, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "cpsync" or n.startswith("cpsync.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        part: importlib.import_module(f"cpsync.{part}")
        for part in ("spectral", "txgen", "channel", "sync", "harness", "cli")
    })


def host_speed(workload: Workload, before: float, after: float) -> float:
    """Host speed during a section, from the kernel rates that bracket it."""
    return (before + after) / 2 / workload.kernel_rate


def set_up(workload: Workload, seed: int) -> tuple[SimpleNamespace, list[float], list[float]]:
    """Import plus one warm-up trial per cell, SETUP_REPEATS times.

    Returns the modules, the wall times and the times scaled to the
    reference host speed.
    """
    wall, scaled = [], []
    before = workload.kernel.rate()
    for repeat in range(SETUP_REPEATS):
        start = perf_counter()
        mods = import_program()
        workload.run_block(mods, 1, bench_seed(seed, "warm-up", repeat))
        elapsed = perf_counter() - start
        after = workload.kernel.rate()
        wall.append(elapsed)
        scaled.append(elapsed * host_speed(workload, before, after))
        before = after
    return mods, wall, scaled


def reference_check(mods, workload: Workload, reference: dict) -> tuple[float, int]:
    """Largest |rate - frozen rate| and the number of failed cells."""
    keys = reference_keys(reference)
    try:
        rows = workload.run_block(mods, reference["trials"], reference["seed"])
    except BlockFailed as err:
        print(f"reference block failed: {err}", file=sys.stderr)
        return float("inf"), workload.cells
    bad = failed_cells(rows, keys, reference["trials"])
    worst = 0.0
    for ref in reference["rows"]:
        key = (ref["snr_db"], ref["cp_len"], ref["channel"], ref["method"])
        if key[:3] in bad:
            continue
        for field in RATE_FIELDS:
            worst = max(worst, abs(rows[key][field] - ref[field]))
    return (float("inf") if bad else worst), len(bad)


def oracle_check(mods, workload: Workload, seed: int) -> int:
    """Recompute seeded trials and compare every trace with the oracle.

    The streams run_trial hands to estimate_sto are captured on the way in,
    so the brute-force metric sees exactly the estimator's input. Returns
    the number of cells with a mismatch.
    """
    from oracles import brute_force_metric, relative_error

    harness = mods.harness
    if "estimate_sto" not in vars(harness):
        raise RuntimeError("cannot spot-check harness.estimate_sto: the name is gone")
    original = harness.estimate_sto
    captured = []

    def capture(stream, cfg, *args, **kwargs):
        trace = original(stream, cfg, *args, **kwargs)
        captured.append((stream, cfg, trace))
        return trace

    failed = 0
    harness.estimate_sto = capture
    try:
        for cell, scenario in enumerate(workload.scenarios(mods)):
            ok = True
            for k in range(workload.oracle_trials):
                captured.clear()
                sto = scenario.sto_values[k % len(scenario.sto_values)]
                try:
                    result = harness.run_trial(scenario, sto, bench_seed(seed, "oracle", cell, k))
                except Exception as err:  # noqa: BLE001 - any raise is a failed cell
                    print(f"oracle trial raised: {type(err).__name__}: {err}", file=sys.stderr)
                    ok = False
                    continue
                ok &= len(captured) == len(scenario.methods)
                for stream, cfg, trace in captured:
                    expected = [
                        brute_force_metric(stream.branches, cfg.n, cfg.n_fft, cfg.cp_len,
                                           cfg.symbols_averaged, int(d), cfg.method.value)
                        for d in trace.offsets
                    ]
                    ok &= relative_error(trace.values, expected) < ORACLE_TOLERANCE
                    ok &= result.estimates[cfg.method] == trace.argopt
            failed += not ok
    finally:
        harness.estimate_sto = original
    return failed


@dataclass
class Timed:
    """Per-block rates in trials per second, as measured (wall) and scaled
    to the reference host speed."""

    untraced: list
    traced: list
    untraced_wall: list
    speeds: list
    traced_wall_s: float
    blocks: int
    failed_cells: int


def timed_blocks(mods, workload: Workload, reference: dict, seed: int, seconds: float,
                 tracer: Tracer | None) -> Timed:
    """Closed loop of blocks for `seconds`; with a tracer, every other block is traced.

    The calibration kernel runs before the first block and after every
    block, so each block's rate is scaled by the host speed around it.
    """
    keys = reference_keys(reference)
    trials = workload.block_trials
    result = Timed([], [], [], [], 0.0, 0, 0)
    deadline = perf_counter() + seconds
    before = workload.kernel.rate()
    while result.blocks < MIN_BLOCKS or perf_counter() < deadline:
        traced = tracer is not None and result.blocks % 2 == 1
        block_seed = bench_seed(seed, "block", result.blocks)
        result.blocks += 1
        if traced:
            tracer.install(mods)
        start = perf_counter()
        try:
            rows = workload.run_block(mods, trials, block_seed, tracer.call if traced else None)
        except BlockFailed as err:
            print(f"block failed: {err}", file=sys.stderr)
            rows = None
        finally:
            elapsed = perf_counter() - start
            if traced:
                tracer.uninstall()
        after = workload.kernel.rate()
        speed = host_speed(workload, before, after)
        before = after
        if rows is None:
            result.failed_cells += workload.cells
            continue
        bad = failed_cells(rows, keys, trials)
        result.failed_cells += len(bad)
        if bad:
            continue
        rate = workload.cells * trials / elapsed
        result.speeds.append(speed)
        if traced:
            result.traced.append(rate / speed)
            result.traced_wall_s += elapsed
        else:
            result.untraced.append(rate / speed)
            result.untraced_wall.append(rate)
    return result


# -- metrics ------------------------------------------------------------------

def per_layer_metrics(tracer: Tracer, timed: Timed) -> dict:
    trials = len(tracer.durations("harness.run_trial"))
    if trials == 0:
        raise RuntimeError("traced blocks recorded no harness.run_trial span")
    calls, self_s = tracer.calls(), tracer.self_seconds()
    metrics = {}
    for name in ("spectral.idft", "txgen.build_frame"):
        metrics[f"{name}.calls"] = (calls.get(name, 0) / trials, "calls/trial")
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / trials, "s/trial")
    for name in COUNT_NAMES:
        unit = "samples/trial" if name == "channel.branch_samples" else "count/trial"
        metrics[name] = (tracer.counts.get(name, 0) / trials, unit)
    run_trial_us = sorted(d * 1e6 for d in tracer.durations("harness.run_trial"))
    metrics["harness.run_trial.p50_us"] = (percentile(run_trial_us, 50), "us")
    metrics["harness.run_trial.p99_us"] = (percentile(run_trial_us, 99), "us")
    metrics["trace.accounted_frac"] = (sum(self_s.values()) / timed.traced_wall_s, "fraction")
    metrics["trace_overhead_frac"] = (
        1.0 - statistics.median(timed.traced) / statistics.median(timed.untraced), "fraction")
    return metrics


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def provenance() -> dict:
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        commit = ref
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": os.environ["OMP_NUM_THREADS"],
    }


# -- entry points -------------------------------------------------------------

def freeze() -> None:
    """Write reference.json: each workload's table at REFERENCE_SEED."""
    mods = import_program()
    out = {"seed": REFERENCE_SEED, "workloads": {}}
    for workload in WORKLOADS.values():
        rows = workload.run_block(mods, workload.reference_trials, REFERENCE_SEED)
        out["workloads"][workload.name] = {
            "seed": REFERENCE_SEED,
            "trials": workload.reference_trials,
            "rows": [{"snr_db": k[0], "cp_len": k[1], "channel": k[2], "method": k[3],
                      **{f: row[f] for f in RATE_FIELDS}} for k, row in sorted(rows.items())],
        }
    REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cpsync" / "__init__.py").is_file():
        print(f"error: no cpsync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no oracle module at {ROOT / 'tests' / 'oracles.py'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    if args.freeze:
        freeze()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["workloads"][workload.name]
    mods, setup_wall, setup_scaled = set_up(workload, args.seed)
    max_rate_delta, reference_failed = reference_check(mods, workload, reference)
    oracle_failed = oracle_check(mods, workload, args.seed)
    tracer = Tracer() if args.trace else None
    timed = timed_blocks(mods, workload, reference, args.seed, args.seconds, tracer)

    attempted = timed.blocks * workload.cells + 2 * workload.cells
    failed = timed.failed_cells + reference_failed + oracle_failed
    tolerance = RATE_TOLERANCE_TRIALS / reference["trials"]
    correct = failed == 0 and max_rate_delta <= tolerance and bool(timed.untraced)
    if args.trace and not timed.traced:
        correct = False

    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "blocks": timed.blocks, "block_trials": workload.block_trials,
            "cells": workload.cells, **provenance()}
    print("# " + json.dumps(info))
    print(f"# oracle cells failed {oracle_failed}, reference cells failed {reference_failed}, "
          f"rate tolerance {tolerance:g}")
    # Printed for every run, but not part of the result: the two checks
    # read 0 on correct code, and the wall-clock figures swing with the
    # host's speed.
    report = {
        "max_rate_delta": (max_rate_delta, "rate"),
        "failed_frac": (failed / attempted, "fraction"),
        "wall_trials_per_s": (statistics.median(timed.untraced_wall or [0.0]), "1/s"),
        "wall_setup_s": (statistics.median(setup_wall), "s"),
        "host_speed": (statistics.median(timed.speeds or [0.0]), "x reference"),
    }
    if args.trace:
        metrics = per_layer_metrics(tracer, timed) if timed.traced and timed.untraced else {}
        path = WORK_DIR / f"spans-{workload.name}.jsonl"
        tracer.write(path, info)
        print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        rates = timed.untraced or [0.0]
        metrics = {
            "trials_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"{workload.name:10s} {name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
