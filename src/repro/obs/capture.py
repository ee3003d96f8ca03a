"""Trace-capture workloads: ``python -m repro trace <workload>``.

One-command Perfetto captures of the canonical workloads, sized for a
readable timeline rather than a stopwatch:

``propagate``
    Fan-out-heavy marker propagation on a healthy 16-cluster machine:
    pipeline lanes, per-cluster decode spans, MU occupancy, and ICN
    message traffic.
``faults``
    The same propagation under an aggressive fault pattern: offline
    clusters, dead links, transfer retries/timeouts, and checkpoint
    replays on the ``faults`` track.
``overload``
    The serving host under bursty 2x overload with half the replicas
    degraded (slow and damaged) and hedging enabled: per-query span
    trees, queue depth, breaker trips, and a hedged-retry rescue —
    open the trace in ``ui.perfetto.dev`` and look for the ``hedge
    q…`` span that finishes while its doomed primary is cancelled
    (the worked example in ``EXPERIMENTS.md``).
``chaos``
    Rolling gray failure and repair under sustained load: replicas
    turn slow-and-lossy mid-stream (plus one mid-propagation cluster
    flap from a machine-level ``FaultSchedule``) and are later
    repaired; the timeline shows ``fault-*`` instants inside nested
    runs, ``health-quarantined``/``health-active`` lifecycle
    transitions on the replica tracks, and ``audit-mismatch`` marks
    where shadow re-execution caught a silently-incomplete answer.
``fleetchaos``
    The sharded fleet through a full-region outage and a later gray
    (3x-slow) region: per-query scatter-gather span trees on the
    ``fleet-queries`` process, per-shard ``failover`` instants as
    serving moves off the dead region, ``rebuild-done`` marks as the
    rebalancer restores the replication factor, and the restore-home
    moves after the repair.

The emitted file is Chrome trace-event JSON (object form) with the
run's :class:`repro.obs.metrics.MetricsRegistry` dump under the extra
top-level ``"metrics"`` key.  Every capture is validated with
:mod:`repro.obs.validate` before it is written.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Optional, Sequence, Tuple

from .chrome import export_chrome_json
from .metrics import MetricsRegistry
from .tracer import Tracer
from .validate import validate_chrome_trace

#: Workload ids, in help/display order.
WORKLOADS = ("propagate", "faults", "overload", "chaos", "fleetchaos")


def propagate_setup(faulty: bool = False):
    """(machine, programs) of the ``propagate``/``faults`` workloads.

    A 360-node hierarchy on a 16-cluster machine, healthy or under an
    aggressive fault pattern (offline clusters, dead links, transfer
    corruption), and the ``overload`` experiment's three inheritance
    programs.
    """
    from ..experiments.overload import TEMPLATES
    from ..isa import assemble
    from ..machine import MachineConfig, SnapMachine, snap1_16cluster
    from ..machine.faults import FaultConfig
    from ..network.generator import generate_hierarchy_kb

    network = generate_hierarchy_kb(360, branching=3)
    if faulty:
        config = MachineConfig(
            num_clusters=16,
            mus_per_cluster=3,
            faults=FaultConfig(
                seed=11,
                failed_cluster_fraction=0.125,
                mu_loss_prob=0.1,
                link_fail_prob=0.15,
                transfer_corrupt_prob=0.08,
                scp_timeout_prob=0.02,
            ),
        )
    else:
        config = snap1_16cluster()
    machine = SnapMachine(network, config)
    return machine, [assemble(text) for _, text in TEMPLATES]


def _capture_machine(
    faulty: bool, smoke: bool
) -> Tuple[Tracer, MetricsRegistry, Dict[str, Any]]:
    machine, programs = propagate_setup(faulty)
    programs = programs[: 1 if smoke else 2]
    tracer = Tracer()
    metrics = MetricsRegistry()
    offset = 0.0
    total = 0.0
    for program in programs:
        machine.reset_markers()
        # Back-to-back programs share one timeline: each run starts
        # where the previous one ended.
        report = machine.run(
            program, tracer=tracer, metrics=metrics, trace_offset_us=offset
        )
        offset += report.total_time_us
        total = offset
    return tracer, metrics, {
        "runs": len(programs),
        "simulated_us": round(total, 3),
    }


def capture_propagate(smoke: bool = False):
    """Healthy propagation capture (machine layer only)."""
    return _capture_machine(faulty=False, smoke=smoke)


def capture_faults(smoke: bool = False):
    """Propagation-under-faults capture (recovery events visible)."""
    return _capture_machine(faulty=True, smoke=smoke)


def capture_overload(smoke: bool = False):
    """Serving-host capture: bursty overload + degraded replicas + hedging.

    Tuned so every resilience mechanism fires on one timeline.  Half
    the replicas are degraded *slow-and-damaged* (heavy SCP-timeout
    penalties stretch their service several-fold before the offline
    clusters damage the answer), and the arrival stream alternates 2x
    overload bursts with drain lulls:

    * during a burst the queue overflows (shedding) and completed
      damaged attempts trip the per-replica breakers;
    * at a burst/lull boundary the healthy replicas drain while a
      straggler is still grinding on a degraded replica — the hedge
      timer fires, finds spare capacity, and the hedge *wins*,
      serving the query while the doomed primary is cancelled.  That
      hedged-retry rescue is the worked example in ``EXPERIMENTS.md``:
      open the trace in ``ui.perfetto.dev`` and find the query whose
      ``attempt-cancelled`` carries ``damage > 0`` next to a served
      outcome.
    """
    from dataclasses import replace

    from ..experiments.overload import build_queries, uncontended_profile
    from ..host import HostConfig, ServingHost
    from ..machine.faults import FaultConfig, RetryPolicy
    from ..network.generator import generate_hierarchy_kb

    count = 150 if smoke else 300
    burst, lull_us = 30, 3_000.0
    network = generate_hierarchy_kb(240, branching=3)
    base = HostConfig(
        num_replicas=4,
        clusters_per_replica=4,
        mus_per_cluster=2,
        queue_capacity=16,
        shed_policy="reject-newest",
        max_attempts=2,
        faulty_replica_fraction=0.5,
        fault_seed=3,
        replica_fault_template=FaultConfig(
            failed_cluster_fraction=0.25,
            transfer_corrupt_prob=0.05,
            scp_timeout_prob=0.9,
            scp_timeout_penalty_us=400.0,
            remap_nodes=False,
            retry=RetryPolicy(max_retries=1),
        ),
    )
    mean_service, p99 = uncontended_profile(network, base)
    sustainable = base.num_replicas / mean_service
    config = replace(base, hedge_after_us=0.9 * p99)
    queries = build_queries(count, 2.0 * sustainable, 20.0 * p99)
    # Re-time the uniform stream into burst/lull cycles: a drain lull
    # after every `burst` arrivals is what leaves healthy replicas
    # idle while a degraded-replica straggler is still in flight.
    queries = [
        replace(q, arrival_us=q.arrival_us + (q.query_id // burst) * lull_us)
        for q in queries
    ]
    tracer = Tracer()
    metrics = MetricsRegistry()
    host = ServingHost(network, config, tracer=tracer, metrics=metrics)
    report = host.serve(queries)
    return tracer, metrics, {
        "queries": count,
        "served": report.served,
        "shed": report.shed,
        "timed_out": report.timed_out,
        "failed": report.failed,
        "hedges_issued": metrics.counter("host.hedges_issued").value,
        "breaker_opens": metrics.counter("host.breaker.opens").value,
        "simulated_us": round(report.total_time_us, 3),
    }


def capture_chaos(smoke: bool = False):
    """Live-fault capture: gray replicas, quarantine, readmit, audit.

    The :mod:`repro.experiments.chaos` scenario under full tracing:
    two replicas degrade *gray* (3x-slow MUs + silent marker drop)
    and one suffers a mid-propagation cluster flap, each repaired
    later in the run.  Look for ``health-quarantined`` instants on
    the gray replica tracks shortly after their degradation point,
    ``health-active`` (reason ``readmitted``) after their repair, and
    ``audit-mismatch`` marks where the shadow re-execution caught a
    silently-truncated answer the breaker never saw.
    """
    from ..experiments.chaos import build_scenario
    from ..host import ServingHost

    network, config, queries, profile = build_scenario(fast=True)
    if smoke:
        queries = queries[: len(queries) // 2]
    tracer = Tracer()
    metrics = MetricsRegistry()
    host = ServingHost(network, config, tracer=tracer, metrics=metrics)
    report = host.serve(queries)
    return tracer, metrics, {
        "queries": len(queries),
        "served": report.served,
        "shed": report.shed,
        "timed_out": report.timed_out,
        "failed": report.failed,
        "quarantines": sum(
            r.health_quarantines for r in report.replicas
        ),
        "readmissions": sum(
            r.health_readmissions for r in report.replicas
        ),
        "audit_checks": report.audit_checks,
        "audit_mismatches": report.audit_mismatches,
        "simulated_us": round(report.total_time_us, 3),
    }


def capture_fleetchaos(smoke: bool = False):
    """Fleet capture: regional outage, failover, rebalance, gray region.

    The :mod:`repro.experiments.fleetchaos` scenario under full
    tracing: region 0 dies at 30 ms and is repaired at 300 ms, then
    region 2 turns 3x-slow for 70 ms.  Look for ``failover`` instants
    on the shard tracks at the outage (serving moves to the surviving
    replica), ``rebuild-done`` as the rebalancer restores R during the
    outage, the restore-home ``failover`` instants after the repair,
    and a second failover wave on the gray region's shards when the
    phi-accrual health lifecycle quarantines their slowed replicas.
    """
    from ..experiments.fleetchaos import build_scenario
    from ..fleet import FleetRouter

    network, config, queries, profile = build_scenario(fast=True)
    if smoke:
        queries = queries[: len(queries) // 2]
    tracer = Tracer()
    metrics = MetricsRegistry()
    router = FleetRouter(network, config, tracer=tracer, metrics=metrics)
    report = router.serve(queries)
    return tracer, metrics, {
        "queries": len(queries),
        "complete": report.complete,
        "degraded": report.degraded,
        "failed": report.failed,
        "shed": report.shed,
        "timed_out": report.timed_out,
        "failovers": report.total_failovers,
        "primary_changes": len(report.primary_changes),
        "rebuilds_completed": report.rebuilds_completed,
        "final_replication": list(report.final_replication),
        "simulated_us": round(report.total_time_us, 3),
    }


_RUNNERS = {
    "propagate": capture_propagate,
    "faults": capture_faults,
    "overload": capture_overload,
    "chaos": capture_chaos,
    "fleetchaos": capture_fleetchaos,
}


def capture(workload: str, smoke: bool = False) -> Dict[str, Any]:
    """Run a workload under tracing; return the validated document.

    The returned Chrome trace document carries the run summary under
    the extra top-level ``"capture"`` key.
    """
    runner = _RUNNERS.get(workload)
    if runner is None:
        raise KeyError(
            f"unknown workload {workload!r}; available: {list(WORKLOADS)}"
        )
    tracer, metrics, info = runner(smoke=smoke)
    document = export_chrome_json(tracer, metrics=metrics)
    document["capture"] = {"workload": workload, "smoke": smoke, **info}
    validate_chrome_trace(document)
    return document


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point for ``python -m repro trace``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="capture a Perfetto trace of a canonical workload",
    )
    parser.add_argument(
        "workload", choices=WORKLOADS,
        help="scenario to capture",
    )
    parser.add_argument(
        "--out", default="trace.json",
        help="output path (default: trace.json); open in ui.perfetto.dev",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes for CI smoke runs",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="also dump the run's MetricsRegistry as standalone JSON "
             "(snapshots can then be diffed without the trace)",
    )
    args = parser.parse_args(argv)
    document = capture(args.workload, smoke=args.smoke)
    with open(args.out, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")
    if args.metrics_out:
        # The standalone dump carries the capture envelope too, so a
        # metrics file is self-describing (workload, sizes) on its own.
        standalone = {
            "capture": document["capture"],
            "metrics": document["metrics"],
        }
        with open(args.metrics_out, "w") as handle:
            json.dump(standalone, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.metrics_out} (metrics registry dump)")
    events = len(document["traceEvents"])
    for key, value in document["capture"].items():
        print(f"  {key}: {value}")
    print(f"wrote {args.out} ({events} events) — open in ui.perfetto.dev")
    return 0


if __name__ == "__main__":
    sys.exit(main())
