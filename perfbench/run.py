"""The repository benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout (the benchmark imports the checkout's
own ``src/repro`` and nothing else)::

    python3 perfbench/run.py --workload inherit --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics on
unmodified code.  With ``--trace 1`` it alternates untraced passes with
traced ones, in which spans are recorded around every layer's public
entry points and the sampling profiler runs; it reports the per-layer
metrics, the profiler's subsystem rollup, and the tracing overhead.
Metric names and units are the ones declared in ``BENCHMARK.json``.

Every unit's simulated output is digested and must repeat exactly in
every pass; for the default seed it must also match
``perfbench/references.json``.  A unit that raises, mismatches, or
fails a differential check counts as failed, and any failure makes the
command exit 1.  ``--write-references`` regenerates the reference
digests of one workload for the default seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans as spans_mod  # noqa: E402
import stats  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

REFERENCES = HERE / "references.json"
OUT_DIR = HERE / "out"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest passes whose unit minima a run reports (per kind, when tracing).
MIN_PASSES = 3
#: Stop starting passes after this long, so a run ends within 180 s.
HARD_LIMIT_S = 120.0
#: Failure details printed to stderr, at most.
MAX_REPORTED = 5


def load_repro() -> None:
    """Import the checkout's ``repro`` from ``src``, refusing any other."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: {package} not found; run from the root of a "
            "checkout that holds the program's sources"
        )
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, "
            f"not from {package}"
        )


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """Units of the end-to-end and per-layer metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def load_references(workload: str) -> Dict[str, str]:
    if not REFERENCES.is_file():
        return {}
    with open(REFERENCES) as handle:
        return json.load(handle)["workloads"].get(workload, {})


class Checker:
    """Digest comparison across passes and against the references."""

    def __init__(self, workload, state, references: Optional[Dict[str, str]]):
        self.workload = workload
        self.state = state
        self.references = references
        self.expected: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, units) -> None:
        for unit in units:
            self.attempted += unit.items
            self.failed += self._unit_failures(unit)
            unit.output = None

    def _unit_failures(self, unit) -> int:
        if unit.error is not None:
            self.problems.append(f"{unit.label} raised:\n{unit.error}")
            return unit.items
        try:
            verdict = self.workload.check(self.state, unit)
        except Exception as exc:  # a check that cannot run fails the unit
            self.problems.append(f"{unit.label} check raised {exc!r}")
            return unit.items
        if verdict.failed:
            self.problems.append(
                f"{unit.label}: {verdict.failed} item(s) failed a "
                "differential check")
        expected = self.expected.setdefault(unit.label, verdict.digest)
        if verdict.digest != expected:
            self.problems.append(f"{unit.label}: output changed between passes")
            return unit.items
        if self.references is not None:
            reference = self.references.get(unit.label)
            if verdict.digest != reference:
                self.problems.append(
                    f"{unit.label}: output digest {verdict.digest[:12]} != "
                    f"reference {str(reference)[:12]}")
                return unit.items
        return verdict.failed


def run_setups(workload, seed: int, recorder=None):
    """Set up ``SETUP_REPEATS`` times; the last is kept (and traced)."""
    times = []
    state = None
    for repeat in range(SETUP_REPEATS):
        state = None
        gc.collect()
        patches = None
        if recorder is not None and repeat == SETUP_REPEATS - 1:
            patches = spans_mod.Patches(recorder, spans_mod.layer_targets())
            patches.install()
        start = time.perf_counter()
        try:
            state = workload.setup(seed)
        finally:
            times.append(time.perf_counter() - start)
            if patches is not None:
                patches.uninstall()
    return state, times


def measure(workload, seed: int, seconds: float, trace: bool,
            references: Optional[Dict[str, str]]) -> Dict[str, Any]:
    """Set up, run passes for ``seconds``, check every output.

    Returns the set-up times and, per pass, every unit's seconds; with
    ``trace`` the passes alternate between untraced and traced.
    """
    from repro.obs.perf import SamplingProfiler

    setup_recorder = spans_mod.SpanRecorder() if trace else None
    state, setup_times = run_setups(workload, seed, setup_recorder)
    checker = Checker(workload, state, references)
    recorder = spans_mod.SpanRecorder()
    patches = spans_mod.Patches(recorder, spans_mod.layer_targets())
    profiler = SamplingProfiler()
    passes: List[Dict[str, float]] = []
    traced_passes: List[Dict[str, float]] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) > len(traced_passes)
        prepared = workload.prepare(state)
        gc.collect()
        if traced:
            patches.install()
            profiler.start()
        try:
            units = workload.run_pass(state, prepared)
        finally:
            if traced:
                profiler.stop()
                patches.uninstall()
        checker.check(units)
        prepared = None
        (traced_passes if traced else passes).append(
            {u.label: u.seconds for u in units})
        elapsed = time.perf_counter() - start
        if trace:
            enough = min(len(passes), len(traced_passes)) >= MIN_PASSES
        else:
            enough = len(passes) >= max(
                MIN_PASSES, 2 * stats.blocks_for(len(units), 90))
        if (enough and elapsed >= seconds) or elapsed >= HARD_LIMIT_S:
            break
    return {
        "setup_times": setup_times,
        "items_per_pass": sum(unit.items for unit in units),
        "passes": passes,
        "traced_passes": traced_passes,
        "checker": checker,
        "setup_spans": setup_recorder.spans if trace else [],
        "recorder": recorder,
        "profile": profiler.profile(),
    }


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    passes = result["passes"]
    wall = stats.best_total(passes)
    return {
        "setup_s": statistics.median(result["setup_times"]),
        "wall_s": wall,
        "items_per_s": result["items_per_pass"] / wall,
        "item_p50_ms": stats.best_percentile(passes, 50)[0] * 1e3,
        "item_p90_ms": stats.best_percentile(passes, 90)[0] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(result: Dict[str, Any], observed: bool) -> Dict[str, float]:
    from repro.obs.perf.profiler import BUCKET_PREFIXES, NAMED_FOREIGN_BUCKETS

    metrics = spans_mod.setup_metrics(result["setup_spans"])
    metrics.update(spans_mod.layer_metrics(
        result["recorder"].spans, len(result["traced_passes"]), observed))
    shares = {row["bucket"]: row["exclusive_share"]
              for row in result["profile"].bucket_rollup()}
    for bucket in BUCKET_PREFIXES + NAMED_FOREIGN_BUCKETS + ("other",):
        metrics[f"rollup.{bucket}"] = shares.get(bucket, 0.0)
    metrics["trace.overhead_frac"] = (
        stats.best_total(result["traced_passes"])
        / stats.best_total(result["passes"]) - 1.0
    )
    return metrics


def write_references(workload, seed: int) -> int:
    """Record the digests of one pass as the workload's references."""
    state = workload.setup(seed)
    checker = Checker(workload, state, references=None)
    checker.check(workload.run_pass(state, workload.prepare(state)))
    if checker.failed:
        print("\n".join(checker.problems), file=sys.stderr)
        return 1
    document = {"seed": DEFAULT_SEED, "workloads": {}}
    if REFERENCES.is_file():
        with open(REFERENCES) as handle:
            document = json.load(handle)
    document["workloads"][workload.name] = dict(sorted(checker.expected.items()))
    with open(REFERENCES, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(checker.expected)} reference digests for "
          f"{workload.name} to {REFERENCES.relative_to(ROOT)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true",
                        help="record the default seed's output digests")
    args = parser.parse_args(argv)
    load_repro()
    workload = WORKLOADS[args.workload]
    if args.write_references:
        if args.seed != DEFAULT_SEED:
            parser.error(f"references are kept for seed {DEFAULT_SEED} only")
        return write_references(workload, args.seed)

    declared = declared_metrics()
    references = (load_references(workload.name)
                  if args.seed == DEFAULT_SEED else None)
    result = measure(workload, args.seed, args.seconds, bool(args.trace),
                     references)
    checker = result["checker"]
    if args.trace:
        values = per_layer(result, workload.observed)
        metric_units = declared["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload.name}-{args.seed}.json"
        result["recorder"].dump(str(path))
        print(f"wrote {len(result['recorder'].spans)} spans of "
              f"{len(result['traced_passes'])} traced passes to "
              f"{path.relative_to(ROOT)}")
    else:
        values = end_to_end(result)
        metric_units = declared["end_to_end"]
        units_per_pass = len(result["passes"][0])
        for p in (50, 90):
            count = stats.best_percentile(result["passes"], p)[1]
            print(f"item p{p}: {count} samples (fastest repeat of each of "
                  f"{units_per_pass} {workload.unit} in "
                  f"{stats.blocks_for(units_per_pass, p)} groups of passes), "
                  f"{stats.samples_beyond(count, p)} beyond it")
    if set(values) != set(metric_units):
        raise SystemExit(
            f"perfbench: measured {sorted(set(values) ^ set(metric_units))} "
            "differ from the metrics BENCHMARK.json declares")
    for problem in checker.problems[:MAX_REPORTED]:
        print(f"FAILED {problem}", file=sys.stderr)
    failed_frac = checker.failed / max(checker.attempted, 1)
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(result['passes'])} untraced + {len(result['traced_passes'])} "
          f"traced passes; {checker.attempted} items attempted, "
          f"{checker.failed} failed (failed_frac {failed_frac:g})")
    correct = checker.failed == 0 and checker.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metric_units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
