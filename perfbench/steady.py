"""Steadiness self-check: is each end-to-end metric steadier than its bound?

Runs the benchmark command of ``BENCHMARK.json`` on every workload
(or the ones named) once per seed, in two sets, one run at a time, and
prints for each metric the interquartile spread of its values as a
share of their median, the drift of the second set's median from the
first's, and the metric's bound.  A metric is steady when its spread
(``setup_s`` excepted) and its drift both stay within the bound; the
check exits 1 otherwise, or when a run fails.

    python3 perfbench/steady.py --runs 5 --workloads nlu-parse
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

#: The set-up metric whose run-to-run spread is not held to its bound.
SETUP_METRIC = "setup_s"


def run_once(spec: dict, workload: str, seed: int,
             seconds: int) -> Dict[str, float]:
    """One benchmark run; returns its end-to-end metric values."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def judge(first: List[float], second: List[float], bound: float,
          better: str, is_setup: bool) -> tuple:
    """(spread of each set, drift of the second median, steady?)"""
    spreads = (stats.spread(first), stats.spread(second))
    m1, m2 = statistics.median(first), statistics.median(second)
    worse = (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1
    steady = worse <= bound and (is_setup or max(spreads) <= bound)
    return spreads, worse, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/steady.py", description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds per set (default: 10)")
    parser.add_argument("--workloads", default="",
                        help="comma-separated workloads (default: all)")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = ([w for w in args.workloads.split(",") if w]
             or [w["name"] for w in spec["workloads"]])
    seeds = list(range(1, args.runs + 1))
    values = {}
    for set_index in range(2):
        for workload in names:
            for seed in seeds:
                run = run_once(spec, workload, seed, spec["run_seconds"])
                for metric, value in run.items():
                    values.setdefault((workload, metric), [[], []])[
                        set_index].append(value)
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in run.items()),
                      flush=True)
    unsteady = 0
    print(f"\n{'workload':<15}{'metric':<13}{'median':>10}{'spread':>8}"
          f"{'spread2':>8}{'drift':>8}{'bound':>7}  verdict")
    for workload in names:
        for metric in spec["end_to_end"]:
            first, second = values[(workload, metric["name"])]
            spreads, drift, steady = judge(
                first, second, metric["bound"], metric["better"],
                metric["name"] == SETUP_METRIC)
            unsteady += not steady
            third = max(spreads) < metric["bound"] / 3
            print(f"{workload:<15}{metric['name']:<13}"
                  f"{statistics.median(first):>10.4g}{spreads[0]:>8.3f}"
                  f"{spreads[1]:>8.3f}{drift:>8.3f}{metric['bound']:>7.2f}  "
                  + ("steady" if steady else "UNSTEADY")
                  + ("" if third else " (spread above a third of the bound)"))
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
