"""Extension study — chaos: rolling gray failure and repair under load.

The overload experiment degrades replicas *statically* and lets the
breaker route around query-visible damage.  This experiment exercises
the live-fault machinery end to end: replicas turn **gray** mid-run
(slow MUs, silent marker drop, a mid-propagation cluster flap from a
machine-level :class:`~repro.machine.faults.FaultSchedule`) and are
later repaired, while a sustained arrival stream keeps the array
busy.  The health lifecycle must do what the breaker cannot:

* **quarantine** gray replicas from the phi-accrual latency signal
  and from integrity-audit mismatches (silent marker drop produces
  *no* query-visible damage — a breaker never fires on it);
* **probe and readmit** replicas after their repair event, restoring
  capacity instead of abandoning it;
* **catch at least one silently-incomplete answer** by shadow
  re-execution on a healthy replica.

Everything is seed-driven and simulated-time deterministic: same
seed, same timeline, same lifecycle transitions, same report.

Run with ``python -m repro experiments chaos``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterable, List, Tuple

from ..host import HostConfig, Query, ReplicaFaultEvent, ServingHost
from ..machine.faults import (
    FaultConfig,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
)
from ..network.generator import generate_hierarchy_kb
from ..obs.live import TelemetrySink, truth_from_replica_timeline
from ..obs.live.monitor import MonitorRun, chaos_spec, run_pipeline
from .common import ExperimentResult, experiment, timed
from .overload import build_queries, uncontended_profile

CHAOS_SEED = 20260808


def gray_faults(seed: int) -> FaultConfig:
    """Gray degradation: nothing dies, everything lies.

    3x-slow marker units (caught by the phi-accrual latency signal)
    plus silent marker drop (no query-visible damage at all — caught
    only by the integrity audit).  The breaker never fires on either.
    """
    return FaultConfig(
        seed=seed,
        mu_slowdown_factor=3.0,
        marker_drop_prob=0.12,
        remap_nodes=False,
        retry=RetryPolicy(max_retries=1),
    )


def flap_faults(seed: int, mean_service_us: float) -> FaultConfig:
    """Loud mid-propagation failure, from the machine-level timeline.

    A :class:`~repro.machine.faults.FaultSchedule` crashes one cluster
    a quarter of the way through a typical query and repairs it at
    three quarters — routing, retry, and checkpoint replay see the
    world change *during* a PROPAGATE.  The damage is query-visible,
    so the breaker (and the health damage term) both react.
    """
    flap = FaultSchedule((
        FaultEvent(0.25 * mean_service_us, "cluster-fail", cluster=1),
        FaultEvent(0.75 * mean_service_us, "cluster-repair", cluster=1),
    ))
    return FaultConfig(
        seed=seed,
        remap_nodes=False,
        retry=RetryPolicy(max_retries=1),
        schedule=flap,
    )


def build_scenario(
    fast: bool = True,
) -> Tuple[Any, HostConfig, List[Query], Dict[str, float]]:
    """(network, config, queries, profile) for the rolling-gray run.

    Shared with the ``chaos`` trace capture so the experiment, the
    golden, and CI all see the same scenario.  The timeline is keyed
    to the measured mean service time, so the regimes land at the
    same *relative* points regardless of KB size: replica 1 goes gray
    early and is repaired mid-run; replica 3 goes gray mid-run and is
    repaired near the end.
    """
    num_nodes = 240 if fast else 480
    # The stream offers 1.2x capacity on purpose.  140 queries end it
    # about 29 mean-service times in, shortly after the last repair;
    # a longer stream would keep the overload going long after the
    # fault timeline and page on true SLO burns that no injected
    # fault explains.  Both sizes therefore use the same count.
    count = 140
    network = generate_hierarchy_kb(num_nodes, branching=3)
    base = HostConfig(
        num_replicas=4,
        clusters_per_replica=4,
        mus_per_cluster=2,
        fault_seed=7,
    )
    mean_service, p99_0 = uncontended_profile(network, base)
    m = mean_service
    timeline = (
        ReplicaFaultEvent(2.0 * m, 1, gray_faults(101)),
        ReplicaFaultEvent(10.0 * m, 1, None),
        ReplicaFaultEvent(6.0 * m, 2, flap_faults(202, m)),
        ReplicaFaultEvent(14.0 * m, 2, None),
        ReplicaFaultEvent(12.0 * m, 3, gray_faults(303)),
        ReplicaFaultEvent(20.0 * m, 3, None),
    )
    config = replace(
        base,
        queue_capacity=16,
        max_attempts=2,
        breaker_failure_threshold=2,
        breaker_cooldown_us=2.0 * m,
        replica_timeline=timeline,
        health_enabled=True,
        health_window=8,
        health_min_samples=3,
        health_phi_quarantine=4.0,
        health_probe_after_us=3.0 * m,
        health_probe_successes=1,
        health_readmit_ratio=1.3,
        audit_interval=3,
    )
    rate = 1.2 * config.num_replicas / mean_service
    deadline_us = 20.0 * p99_0
    queries = build_queries(count, rate, deadline_us, seed=CHAOS_SEED)
    profile = {
        "mean_service_us": mean_service,
        "uncontended_p99_us": p99_0,
        "deadline_us": deadline_us,
        "rate_per_us": rate,
    }
    return network, config, queries, profile


def monitor_chaos(
    fast: bool = True, muted: Iterable[str] = (), scenario=None
) -> MonitorRun:
    """Serve the rolling-gray scenario with a sink attached; monitor it.

    Windows the telemetry stream, fires burn-rate/symptom alerts, and
    scores detection against the replica timeline's exact fault
    windows.  ``scenario`` reuses an already-built
    :func:`build_scenario` result; the host's report rides along as
    ``run.report``.
    """
    network, config, queries, profile = scenario or build_scenario(fast)
    sink = TelemetrySink()
    report = ServingHost(network, config, sink=sink).serve(queries)
    horizon = max(
        report.total_time_us,
        max((e.ts_us for e in sink.events), default=0.0),
    )
    truth = truth_from_replica_timeline(
        config.replica_timeline, horizon_us=horizon
    )
    return run_pipeline(
        chaos_spec(profile["mean_service_us"]), sink.ordered(), truth,
        horizon_us=horizon, muted=muted, report=report,
    )


@experiment("chaos")
def run(fast: bool = True) -> ExperimentResult:
    """Rolling gray failure + repair; quarantine, readmit, audit."""

    def body() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="chaos",
            title="EXTENSION: rolling gray failure and repair under load",
            paper_claim="(not a paper figure) the prototype assumed a "
                        "healthy array; this degrades and repairs "
                        "replicas mid-stream and requires detection",
        )
        scenario = build_scenario(fast)
        _, config, queries, profile = scenario
        m = profile["mean_service_us"]
        result.add(
            f"uncontended: mean service {m:.0f} us, p99 "
            f"{profile['uncontended_p99_us']:.0f} us; "
            f"{len(queries)} queries at "
            f"{profile['rate_per_us'] * 1e6:.0f} q/s"
        )
        result.add(
            "timeline (x = mean service): r1 gray @2.0x..10.0x, "
            "r2 cluster-flap @6.0x..14.0x, r3 gray @12.0x..20.0x"
        )
        # Live monitoring rides the same run.
        mon = monitor_chaos(scenario=scenario)
        report = mon.report

        # Replicas whose degradation is *silent* (slowdown + drop)
        # versus every replica the timeline touches at all.
        gray_ids = {1, 3}
        touched_ids = {e.replica for e in config.replica_timeline}
        quarantines = {
            r.replica_id: r.health_quarantines for r in report.replicas
        }
        readmissions = {
            r.replica_id: r.health_readmissions for r in report.replicas
        }
        result.add()
        result.add(
            f"{'replica':>8}{'attempts':>9}{'ok':>6}{'fail':>6}"
            f"{'quar':>6}{'readmit':>8}{'state':>13}"
        )
        for r in report.replicas:
            result.add(
                f"{r.replica_id:>8}{r.attempts:>9}{r.successes:>6}"
                f"{r.failures:>6}{r.health_quarantines:>6}"
                f"{r.health_readmissions:>8}{r.health_state:>13}"
            )
        result.add()
        result.add(
            f"outcomes: {report.served} served / {report.shed} shed / "
            f"{report.timed_out} timed out / {report.failed} failed; "
            f"audit {report.audit_checks} checks, "
            f"{report.audit_mismatches} mismatches"
        )
        score = mon.score
        result.add(
            f"monitor: {len(mon.alerts)} alert(s), recall "
            f"{score.recall:.2f}, precision {score.precision:.2f}, "
            f"worst ttd "
            + (
                f"{score.max_ttd_us / m:.1f}x mean service"
                if score.max_ttd_us is not None else "n/a"
            )
        )

        gray_quarantines = sum(quarantines[rid] for rid in gray_ids)
        total_readmissions = sum(readmissions.values())
        checks = [
            ("accounted", report.accounted()),
            ("quarantine fired on a gray replica", gray_quarantines >= 1),
            ("readmission after repair", total_readmissions >= 1),
            (
                "audit caught a silently-incomplete answer",
                report.audit_mismatches >= 1,
            ),
            (
                "healthy replicas never quarantined",
                all(
                    quarantines[r.replica_id] == 0
                    for r in report.replicas
                    if r.replica_id not in touched_ids
                ),
            ),
            (
                "monitor detected every fault in bound, no warmup "
                "alerts",
                not mon.gate_problems(),
            ),
            (
                "monitor raised no false alerts",
                not score.false_alerts,
            ),
        ]
        result.add()
        for label, ok in checks:
            result.add(f"  [{'ok' if ok else 'FAIL'}] {label}")
        broken = [label for label, ok in checks if not ok]
        if broken:
            raise RuntimeError(f"chaos contract violated: {broken}")

        result.data = {
            **profile,
            "submitted": report.submitted,
            "served": report.served,
            "shed": report.shed,
            "timed_out": report.timed_out,
            "failed": report.failed,
            "audit_checks": report.audit_checks,
            "audit_mismatches": report.audit_mismatches,
            "quarantines": quarantines,
            "readmissions": readmissions,
            "breaker_opens": sum(
                r.breaker_opens for r in report.replicas
            ),
            "monitor_alerts": len(mon.alerts),
            "monitor_recall": score.recall,
            "monitor_precision": score.precision,
            "monitor_max_ttd_us": score.max_ttd_us,
        }
        return result

    return timed(body)


if __name__ == "__main__":
    print(run(fast=True).render())
