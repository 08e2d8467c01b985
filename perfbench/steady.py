"""Repeat benchmark runs and summarise each metric's median and quartiles.

Steadiness (one checkout, a fresh seed per run):

    python3 perfbench/steady.py --repeats 10
    python3 perfbench/steady.py --workloads grid --repeats 5 --seconds 15

prints, per workload and end-to-end metric, the median, the quartiles and
the spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
A metric is steady when its spread stays below a third of its bound. With
--repeats 1 it prints each run's own metric lines instead, so

    python3 perfbench/steady.py --repeats 1

runs every workload once and prints every metric with its unit.

Claim (parent against change, alternating pairs):

    python3 perfbench/steady.py --repeats 10 --parent ../parent-checkout

runs pairs of the parent checkout and this one on the same seed, alternating
which side runs first, and prints each side's median and quartiles, the
share of pairs the change won and a verdict per workload and metric. Both
checkouts must hold identical perfbench/ files. Every run is a separate
process, run one at a time from the root of its checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 180


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / BENCH_DIR.name).glob("*")):
        if path.is_file():
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int,
             echo: bool = False) -> dict:
    """One benchmark process; returns the metrics of its final JSON line.

    With echo, the run's own metric lines are printed as they came.
    """
    cmd = [sys.executable, str(root / BENCH_DIR.name / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs not correct:\n{proc.stdout}")
    if echo:
        print("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]
                      if not line.startswith("#")), end="", flush=True)
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def steadiness(args, spec: dict) -> int:
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    unsteady = 0
    for workload in args.workloads:
        runs = [run_once(ROOT, workload, seed, args.seconds, args.trace, echo=args.repeats == 1)
                for seed in range(args.first_seed, args.first_seed + args.repeats)]
        if args.repeats == 1:
            continue
        for metric in metrics:
            values = [run[metric["name"]] for run in runs]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else float("nan")
            bound = metric.get("bound")
            verdict = ""
            if bound is not None:
                steady = spread < bound / 3
                unsteady += not steady and metric["name"] != "setup_s"
                verdict = f"bound {bound:g} {'steady' if steady else 'UNSTEADY'}"
            print(f"{workload:10s} {metric['name']:34s} median {median:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f} {metric['unit']:8s} {verdict}",
                  flush=True)
            print(json.dumps({"workload": workload, "metric": metric["name"], "values": values}),
                  file=sys.stderr)
    return 1 if unsteady else 0


def claim(args, spec: dict) -> int:
    parent = Path(args.parent).resolve()
    if bench_digest(parent) != bench_digest(ROOT):
        print(f"error: {parent} does not hold the same {BENCH_DIR.name}/ files", file=sys.stderr)
        return 2
    regressions = 0
    for workload in args.workloads:
        sides = {"parent": [], "change": []}
        for i, seed in enumerate(range(args.first_seed, args.first_seed + args.repeats)):
            order = (("parent", parent), ("change", ROOT))
            for side, root in order if i % 2 == 0 else order[::-1]:
                sides[side].append(run_once(root, workload, seed, args.seconds, 0))
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            p = [run[name] for run in sides["parent"]]
            c = [run[name] for run in sides["change"]]
            wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
            p_q1, p_med, p_q3 = quartiles(p)
            c_q1, c_med, c_q3 = quartiles(c)
            worse = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
            all_better = max(c) < min(p) if lower else min(c) > max(p)
            if (p_q3 - p_q1) / p_med > metric["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif wins >= 0.9 * len(p) and abs(c_med - p_med) > p_q3 - p_q1:
                verdict = "gain"
            else:
                verdict = "no change"
            print(f"{workload:10s} {name:14s} parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
                  f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]  wins {wins}/{len(p)}  "
                  f"{metric['unit']}  {verdict}", flush=True)
    return 1 if regressions else 0


def main(argv=None) -> int:
    spec = load_spec(ROOT)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", type=lambda s: s.split(","), default=names)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent", help="root of the parent checkout to compare against")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(names)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    if args.repeats < (10 if args.parent else 1):
        parser.error("a claim needs --repeats of at least 10 pairs" if args.parent
                     else "--repeats must be >= 1")
    return claim(args, spec) if args.parent else steadiness(args, spec)


if __name__ == "__main__":
    sys.exit(main())
