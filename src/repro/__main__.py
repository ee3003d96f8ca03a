"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``parse "SENTENCE"``
    Parse a newswire sentence on the simulated 72-PE machine and print
    the extracted event template with timing.
``speech "SENTENCE"``
    Synthesize a noisy word lattice from the sentence and run the
    speech parser over it.
``experiments [IDS...] [--full] [--list] [--out PATH] [--snapshot PATH]
[--trace PATH]``
    Regenerate the paper's tables/figures and extension studies
    (including ``faultdeg``, the fault-injection degradation sweep,
    and ``overload``, the serving-under-overload sweep).  ``--trace``
    captures every simulation in the run into one Perfetto file (best
    with a single experiment id), and ``--snapshot`` writes the runs'
    numeric data as a drift-gate snapshot.
``serve [--queries N] [--load X] [--fault-fraction F] [--trace PATH]``
    Drive the concurrent query-serving host layer with a synthetic
    arrival stream of inheritance queries and print the serving
    report (admission, shedding, deadlines, hedges, breakers).
    ``--trace`` additionally writes a Chrome-trace-event/Perfetto
    JSON timeline of the run.
``trace WORKLOAD [--out trace.json] [--smoke] [--metrics-out PATH]``
    Capture a canonical workload (``propagate``, ``faults``,
    ``overload``, ``chaos``, or ``fleetchaos``, the sharded fleet
    through a regional outage) as a validated Perfetto trace with the
    metrics registry embedded; open the file in ``ui.perfetto.dev``.  See
    ``docs/OBSERVABILITY.md``.  ``--metrics-out`` additionally dumps
    the metrics registry as a standalone JSON document.
``analyze TRACE [--report out.md] [--compare golden.json]``
    Run the trace-analysis engine over a capture: critical paths,
    per-query latency attribution, measured α/β, structural
    anomalies, and (with ``--compare``) the metric-drift gate against
    a golden snapshot — exits non-zero on drift beyond tolerance.
``monitor WORKLOAD [--full] [--compare golden.json] [--check] [--mute R]``
    Replay ``chaos`` or ``fleetchaos`` under the live SLO monitor:
    windowed telemetry, burn-rate alerts, an ops timeline report, and
    detection scoring against the injected faults (``--check`` exits
    1 when a fault is missed).  See ``docs/OBSERVABILITY.md``.
``perf profile IDS... [--full] [--folded-out F --report R --json J]``
    Run experiments under the wall-clock sampling profiler: folded
    flamegraph stacks, a hot-spot report with subsystem bucket
    rollups, and (with ``--trace-join``) a wall-vs-simulated join of
    real seconds onto pipeline phases.  See ``docs/PERF.md``.  The
    wall-clock benchmark is ``perfbench/`` (``perfbench/README.md``).
``info``
    Print the machine configuration and knowledge-base statistics.

``experiments``, ``trace``, ``analyze``, ``monitor`` and ``perf``
hand their arguments unchanged to the owning module's
``main`` (``python -m repro SUB --help`` lists that parser's options),
so ``python -m repro experiments`` and ``python -m
repro.experiments.runner`` are one parser.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Optional, Sequence


#: Subcommand -> (module whose ``main(argv)`` owns it, help line).
FORWARDED = {
    "experiments": ("repro.experiments.runner",
                    "regenerate paper artifacts"),
    "trace": ("repro.obs.capture", "capture a workload as a Perfetto trace"),
    "analyze": ("repro.obs.analyze",
                "critical paths, latency attribution, drift gate on a trace"),
    "monitor": ("repro.obs.live.cli",
                "live SLO monitor: windowed telemetry, burn-rate alerts, "
                "ground-truth detection scoring"),
    "perf": ("repro.obs.perf.cli",
             "wall-clock sampling profiler over experiment runs"),
}


def _build(kb_nodes: int):
    from repro.apps.nlu import build_domain_kb
    from repro.machine import SnapMachine, snap1_16cluster

    kb = build_domain_kb(total_nodes=kb_nodes)
    machine = SnapMachine(kb.network, snap1_16cluster())
    return kb, machine


def cmd_parse(args) -> int:
    """Handle the `parse` subcommand."""
    from repro.apps.nlu import MemoryBasedParser, extract_template

    kb, machine = _build(args.kb_nodes)
    parser = MemoryBasedParser(machine, kb)
    result = parser.parse(args.sentence)
    template = extract_template(result, kb)
    if template is None:
        print("no completed hypothesis")
        if result.oov:
            print(f"out of vocabulary: {', '.join(result.oov)}")
        return 1
    print(template.render())
    print(
        f"\nP.P. {result.pp_time_us / 1e3:.2f} ms + "
        f"M.B. {result.mb_time_us / 1e3:.2f} ms simulated, "
        f"{result.instruction_count} SNAP instructions"
    )
    return 0


def cmd_speech(args) -> int:
    """Handle the `speech` subcommand."""
    from repro.apps import SpeechParser, synthesize_lattice

    kb, machine = _build(args.kb_nodes)
    parser = SpeechParser(machine, kb)
    lattice = synthesize_lattice(
        args.sentence, confusability=args.confusability
    )
    print("lattice: " + " ".join(
        "/".join(h.word for h in slot) for slot in lattice.slots
    ))
    result = parser.understand(lattice)
    print(f"meaning: {result.winner} (cost {result.cost})")
    print(
        f"{result.time_us / 1e3:.2f} ms simulated, beta max "
        f"{result.beta_max:.0f}"
    )
    return 0 if result.winner else 1


def cmd_serve(args) -> int:
    """Handle the `serve` subcommand."""
    from repro.experiments.overload import (
        build_queries, uncontended_profile,
    )
    from repro.host import HostConfig, ServingHost
    from repro.network.generator import generate_hierarchy_kb

    network = generate_hierarchy_kb(args.kb_nodes, branching=3)
    config = HostConfig(
        num_replicas=args.replicas,
        queue_capacity=args.queue_capacity,
        shed_policy=args.shed_policy,
        faulty_replica_fraction=args.fault_fraction,
        fault_seed=args.seed,
    )
    mean_service, p99 = uncontended_profile(network, config)
    sustainable = config.num_replicas / mean_service
    deadline_us = args.deadline_us or 2.5 * p99
    queries = build_queries(
        args.queries, args.load * sustainable, deadline_us, seed=args.seed
    )
    tracer = metrics = None
    if args.trace:
        from repro.obs import MetricsRegistry, Tracer

        tracer, metrics = Tracer(), MetricsRegistry()
    report = ServingHost(
        network, config, tracer=tracer, metrics=metrics
    ).serve(queries)
    print(
        f"offered {args.load:.1f}x sustainable "
        f"({args.load * sustainable * 1e6:.0f} q/s), "
        f"deadline {deadline_us:.0f} us"
    )
    for key, value in report.summary().items():
        print(f"  {key}: {value}")
    if args.trace:
        from repro.obs import write_chrome_json

        write_chrome_json(args.trace, tracer, metrics=metrics)
        print(f"wrote {args.trace} ({tracer.num_events} trace events)")
    return 0


def cmd_info(args) -> int:
    """Handle the `info` subcommand."""
    from repro.machine import snap1_16cluster, snap1_full

    kb, machine = _build(args.kb_nodes)
    full = snap1_full()
    print("SNAP-1 prototype (full configuration):")
    print(f"  clusters: {full.num_clusters}, PEs: {full.total_pes}, "
          f"node capacity: {full.node_capacity}")
    experiment = snap1_16cluster()
    print("experiment configuration (paper SS IV):")
    print(f"  clusters: {experiment.num_clusters}, "
          f"PEs: {experiment.total_pes}")
    stats = kb.network.stats()
    print(f"knowledge base ({args.kb_nodes} requested nodes):")
    for key, value in stats.items():
        print(f"  {key}: {value}")
    print(f"  concept sequences: {len(kb.cs_roots)} "
          f"({len(kb.core_roots)} core)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    cli = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = cli.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a newswire sentence")
    p.add_argument("sentence")
    p.add_argument("--kb-nodes", type=int, default=3000)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("speech", help="understand a noisy word lattice")
    p.add_argument("sentence")
    p.add_argument("--kb-nodes", type=int, default=3000)
    p.add_argument("--confusability", type=float, default=0.8)
    p.set_defaults(fn=cmd_speech)

    p = sub.add_parser(
        "serve", help="run the concurrent query-serving host layer"
    )
    p.add_argument("--queries", type=int, default=100,
                   help="number of queries in the arrival stream")
    p.add_argument("--load", type=float, default=1.0,
                   help="offered load as a multiple of sustainable")
    p.add_argument("--fault-fraction", type=float, default=0.0,
                   help="fraction of replicas built degraded")
    p.add_argument("--replicas", type=int, default=4)
    p.add_argument("--queue-capacity", type=int, default=16)
    p.add_argument("--shed-policy", default="reject-newest",
                   choices=["reject-newest", "reject-over-deadline"])
    p.add_argument("--deadline-us", type=float, default=None,
                   help="per-query deadline (default: 2.5x p99)")
    p.add_argument("--kb-nodes", type=int, default=240)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", metavar="PATH",
                   help="write a Perfetto trace of the serving run")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("info", help="machine + knowledge base statistics")
    p.add_argument("--kb-nodes", type=int, default=3000)
    p.set_defaults(fn=cmd_info)

    for name, (_, help_text) in FORWARDED.items():
        # Listed for the top-level help only: main() hands these
        # subcommands' argv to the owning parser before parsing.
        sub.add_parser(name, help=help_text, add_help=False)

    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in FORWARDED:
            module = importlib.import_module(FORWARDED[argv[0]][0])
            return module.main(argv[1:])
        args = cli.parse_args(argv)
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
