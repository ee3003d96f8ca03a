"""Run every regenerated table/figure and print/save the results.

Usage (``python -m repro experiments`` forwards here unchanged)::

    python -m repro experiments                   # fast mode, all
    python -m repro experiments --full            # paper-scale sizes
    python -m repro experiments fig16 fig21       # selected only
    python -m repro experiments --out results.txt
    python -m repro experiments fig21 --trace fig21.json
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional, Sequence

from .common import REGISTRY, ExperimentResult

#: The experiment modules in paper order.  Importing one registers its
#: experiments, so ``REGISTRY`` -- and a bare run and ``--list`` --
#: follow this order.
EXPERIMENT_MODULES = (
    "fig06_instruction_profile",
    "fig08_marker_traffic",
    "table04_parse_times",
    "fig15_inheritance",
    "fig16_alpha_speedup",
    "fig17_beta_speedup",
    "fig18_cluster_sweep",
    "fig19_kb_sweep",
    "fig20_propagation_counts",
    "fig21_overheads",
    "textstats_parallelism",
    "scaling_projection",
    "speech_robustness",
    "fault_degradation",
    "overload",
    "chaos",
    "fleetchaos",
)
for _module in EXPERIMENT_MODULES:
    importlib.import_module(f"{__package__}.{_module}")

#: Paper order.
DEFAULT_ORDER = tuple(REGISTRY)


def run_experiments(
    ids: Optional[Sequence[str]] = None,
    fast: bool = True,
) -> List[ExperimentResult]:
    """Run the selected experiments (all, in paper order, by default)."""
    selected = list(ids) if ids else list(DEFAULT_ORDER)
    for experiment_id in selected:
        if experiment_id not in REGISTRY:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; "
                f"available: {sorted(REGISTRY)}"
            )
    return [REGISTRY[experiment_id](fast=fast) for experiment_id in selected]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro experiments", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"experiment ids to run (default: all of {DEFAULT_ORDER})",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale knowledge bases (slower)",
    )
    parser.add_argument("--out", help="also write results to this file")
    parser.add_argument(
        "--snapshot", metavar="PATH",
        help="write the runs' numeric data as a drift-gate snapshot "
             "(keys {id}.{field}) for `python -m repro analyze --compare`",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list registered experiment ids and exit",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="capture every simulation in the run into one Perfetto "
             "trace (best with a single experiment id)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in DEFAULT_ORDER:
            print(experiment_id)
        return 0

    unknown = [e for e in args.experiments if e not in REGISTRY]
    if unknown:
        known = ", ".join(DEFAULT_ORDER)
        print(
            f"error: unknown experiment(s): {', '.join(unknown)}\n"
            f"usage: python -m repro experiments [IDS...] [--full]\n"
            f"known experiments: {known}\n"
            f"(use --list to print registered ids one per line)",
            file=sys.stderr,
        )
        return 2

    tracer = None
    if args.trace:
        # A process-global tracer captures every nested simulation the
        # selected experiments start, without threading a tracer
        # through each experiment's signature.
        from ..obs import Tracer, set_tracer

        tracer = Tracer()
        set_tracer(tracer)
    try:
        results = run_experiments(
            args.experiments or None, fast=not args.full
        )
    finally:
        if tracer is not None:
            set_tracer(None)
    text = "\n\n".join(r.render() for r in results)
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    if args.snapshot:
        import json

        from ..obs.analyze import make_snapshot

        snapshot = make_snapshot(
            {r.experiment_id: r.data for r in results},
            workload="experiments",
        )
        with open(args.snapshot, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.snapshot}")
    if tracer is not None:
        from ..obs import write_chrome_json

        write_chrome_json(args.trace, tracer)
        print(f"wrote {args.trace} ({tracer.num_events} trace events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
