"""`python -m repro monitor` — run the live SLO monitor on a workload.

Replays a canonical workload with a telemetry sink attached (or
ingests an existing trace capture), renders the deterministic ops
timeline report, and optionally:

* ``--json PATH`` — write the flat monitor snapshot (the same
  document shape ``analyze --compare`` consumes);
* ``--compare GOLDEN`` — drift-gate the snapshot against a golden
  (exit 1 on drift);
* ``--check`` — enforce the detection gate (exit 1 when any injected
  fault was missed, detected too slowly, or a warmup alert fired);
* ``--mute RULE[,RULE…]`` — suppress alert rules (the CI
  missed-alert gate mutes a detector and asserts ``--check`` fails).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from ...experiments.chaos import monitor_chaos
from ...experiments.fleetchaos import monitor_fleetchaos
from ..analyze.drift import compare_snapshots
from .monitor import (
    chaos_spec,
    events_from_trace,
    fleetchaos_spec,
    monitor_snapshot,
    run_pipeline,
)
from .report import render_monitor_report

#: Workload -> the experiment's own serve-and-monitor entry point.
MONITOR_WORKLOADS = {
    "chaos": monitor_chaos,
    "fleetchaos": monitor_fleetchaos,
}


def _parse_mutes(raw: Optional[str]) -> List[str]:
    if not raw:
        return []
    return [part.strip() for part in raw.split(",") if part.strip()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro monitor",
        description="live SLO monitoring over a canonical workload",
    )
    parser.add_argument(
        "workload", choices=sorted(MONITOR_WORKLOADS),
        help="workload to replay under the monitor",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="full-size run (default: fast/smoke size)",
    )
    parser.add_argument(
        "--from-trace", metavar="TRACE",
        help="ingest an existing trace capture instead of replaying "
        "(timeline only: trace-fed runs carry no fault ground truth)",
    )
    parser.add_argument(
        "--report", metavar="PATH",
        help="write the ops timeline report here (default: stdout)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the monitor snapshot (drift-gate document) here",
    )
    parser.add_argument(
        "--compare", metavar="GOLDEN",
        help="compare the snapshot against a golden; exit 1 on drift",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless the detection gate passes",
    )
    parser.add_argument(
        "--mute", metavar="RULES",
        help="comma-separated alert rules to mute",
    )
    args = parser.parse_args(argv)
    muted = _parse_mutes(args.mute)

    if args.from_trace:
        with open(args.from_trace, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        events = events_from_trace(document)
        if args.workload == "fleetchaos":
            spec = fleetchaos_spec()
        else:
            # Window the ingested stream on its own horizon: the
            # trace does not carry the profile's mean service time.
            horizon = max((e.ts_us for e in events), default=0.0)
            spec = chaos_spec(max(horizon / 22.0, 1.0))
        run = run_pipeline(spec, events, truth=(), muted=muted)
    else:
        run = MONITOR_WORKLOADS[args.workload](
            fast=not args.full, muted=muted
        )

    rendered = render_monitor_report(run)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote ops timeline report to {args.report}")
    else:
        print(rendered)

    snapshot = monitor_snapshot(run)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote monitor snapshot to {args.json}")

    exit_code = 0
    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        drift = compare_snapshots(snapshot, golden)
        for line in drift.describe():
            print(line)
        if not drift.ok:
            exit_code = 1
    if args.check:
        problems = run.gate_problems()
        if problems:
            for problem in problems:
                print(f"DETECTION GATE: {problem}", file=sys.stderr)
            exit_code = 1
        else:
            print("detection gate: PASS")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
