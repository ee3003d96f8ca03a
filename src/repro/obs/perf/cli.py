"""``python -m repro perf profile ID [ID...]`` — profile experiments.

Runs the selected experiments (the ids of ``python -m repro
experiments``, fast mode unless ``--full``) under the sampling
profiler.  Emits folded stacks (``--folded-out``,
flamegraph-compatible), the hot-spot report with its subsystem rollup
(``--report``, stdout by default), and/or the structured record
(``--json``).  ``--trace-join`` additionally captures every simulation
of the run with the process-global tracer, as ``experiments --trace``
does, and joins real seconds onto pipeline phases.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from .profiler import (
    DEFAULT_HZ,
    SamplingProfiler,
    phase_durations_us,
    wall_simulated_join,
)


def _profile_experiments(args) -> int:
    from ...experiments.runner import run_experiments

    tracer = None
    if args.trace_join:
        from .. import Tracer, set_tracer

        tracer = Tracer()
        set_tracer(tracer)
    profiler = SamplingProfiler(hz=args.hz)
    profiler.start()
    try:
        run_experiments(args.experiments, fast=not args.full)
    finally:
        profile = profiler.stop()
        if tracer is not None:
            set_tracer(None)

    join_rows: Optional[List[Dict[str, Any]]] = None
    if tracer is not None:
        from ..analyze import from_tracer

        join_rows = wall_simulated_join(
            profile, phase_durations_us(from_tracer(tracer))
        )

    label = " ".join(args.experiments) + (" --full" if args.full else "")
    report = profile.report(label=label, top=args.top, join_rows=join_rows)
    if profile.sample_count == 0:
        print(
            "perf profile: no samples captured — raise --hz or profile "
            "a longer (--full) run", file=sys.stderr,
        )
    if args.folded_out:
        with open(args.folded_out, "w") as handle:
            handle.write(profile.folded())
        print(f"wrote {args.folded_out} ({len(profile.samples)} stacks)")
    if args.json:
        record = profile.as_dict(top=args.top, join_rows=join_rows)
        record["experiments"] = list(args.experiments)
        record["full"] = args.full
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report)
        print(f"wrote {args.report} ({profile.sample_count} samples)")
    else:
        print(report, end="")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from ...experiments.runner import DEFAULT_ORDER

    parser = argparse.ArgumentParser(
        prog="python -m repro perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "profile", help="sample the wall-clock stacks of experiments"
    )
    p.add_argument("experiments", nargs="+", choices=DEFAULT_ORDER,
                   metavar="ID",
                   help=f"experiment ids to run (of {DEFAULT_ORDER})")
    p.add_argument("--full", action="store_true",
                   help="paper-scale knowledge bases (longer profile)")
    p.add_argument("--hz", type=float, default=DEFAULT_HZ,
                   help=f"sampling rate (default {DEFAULT_HZ:g})")
    p.add_argument("--top", type=int, default=15,
                   help="frames in the hot-frame table (default 15)")
    p.add_argument("--folded-out", metavar="PATH",
                   help="write flamegraph-compatible folded stacks")
    p.add_argument("--report", metavar="PATH",
                   help="write the hot-spot report here (default: stdout)")
    p.add_argument("--json", metavar="PATH",
                   help="write the structured profile record")
    p.add_argument("--trace-join", action="store_true",
                   help="trace every simulation of the run and join "
                        "wall seconds onto pipeline phases")

    return _profile_experiments(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
