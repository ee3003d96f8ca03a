"""Extension study — fleetchaos: a regional outage under fleet load.

The chaos experiment degrades *replicas within one host*; this one
kills an entire **failure domain** of the sharded fleet and requires
the routing layer — not retries, not breakers — to keep answering:

* **failover** — shards homed in the dead region must serve from
  their surviving replica immediately (stale-flagged answers, the
  cross-region hop priced in);
* **re-replication** — the background rebalancer must restore the
  replication factor R while the outage is still in progress, then
  migrate serving home after the repair;
* **gray failure** — a later region-wide slowdown (nothing dies,
  everything is 3x slow) must be caught by the phi-accrual health
  lifecycle and routed around, then readmitted after it clears;
* **quorum-or-degrade** — every in-deadline query returns a correct
  answer throughout, COMPLETE when all legs are fresh and DEGRADED
  while any leg is served stale.

Everything is seed-driven and simulated-time deterministic: same
seed, same timeline, same failovers, same report.

Run with ``python -m repro experiments fleetchaos``.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Tuple

from ..fleet import FleetConfig, FleetRouter
from ..host import Query
from ..isa import assemble
from ..machine.faults import RegionEvent, RegionSchedule
from ..network.generator import generate_hierarchy_kb
from ..obs.live import TelemetrySink
from ..obs.live.monitor import MonitorRun, fleetchaos_spec, run_pipeline
from .common import ExperimentResult, experiment, timed

FLEETCHAOS_SEED = 20260808

#: Search roots spread across the hierarchy so every shard owns some
#: and misses others (exercising both the answer and the miss path).
ROOTS = ("thing", "c1", "c2", "c5", "c17", "c40", "c80", "c120")

#: Outage/repair/gray timeline (fleet clock, µs).
FAIL_US = 30_000.0
REPAIR_US = 300_000.0
GRAY_ON_US = 330_000.0
GRAY_OFF_US = 400_000.0
GRAY_FACTOR = 3.0


def build_fleet_queries(
    count: int, mean_gap_us: float, deadline_us: float, seed: int
) -> List[Query]:
    """A Poisson stream of downward-closure queries over ``ROOTS``."""
    programs = {
        name: assemble(
            f"SEARCH-NODE {name} b0\n"
            "PROPAGATE b0 b1 chain(inverse:is-a)\n"
            "COLLECT-NODE b1\n"
        )
        for name in ROOTS
    }
    rng = random.Random(seed)
    queries = []
    now = 0.0
    for query_id in range(count):
        now += rng.expovariate(1.0) * mean_gap_us
        name = rng.choice(ROOTS)
        queries.append(Query(
            query_id=query_id, program=programs[name], arrival_us=now,
            deadline_us=deadline_us, template=name,
        ))
    return queries


def build_scenario(
    fast: bool = True,
) -> Tuple[Any, FleetConfig, List[Query], Dict[str, float]]:
    """(network, config, queries, profile) for the regional-outage run.

    Shared with the ``fleetchaos`` trace capture so the experiment,
    the golden, and CI all see the same scenario.  Region 0 (home to
    some shards by ring placement) dies early and is repaired late;
    region 2 then turns gray (3x slow) and recovers.  The query
    stream spans the whole timeline.
    """
    num_nodes = 240 if fast else 480
    count = 220 if fast else 440
    network = generate_hierarchy_kb(num_nodes, branching=3)
    config = FleetConfig(
        num_regions=3,
        num_shards=4,
        replication_factor=2,
        partition_policy="community",
        region_schedule=RegionSchedule((
            RegionEvent(FAIL_US, "region-fail", 0),
            RegionEvent(REPAIR_US, "region-repair", 0),
            RegionEvent(GRAY_ON_US, "region-slowdown", 2, GRAY_FACTOR),
            RegionEvent(GRAY_OFF_US, "region-slowdown", 2, 1.0),
        )),
        health_enabled=True,
        health_window=8,
        health_min_samples=3,
        health_phi_quarantine=4.0,
        health_probe_after_us=5_000.0,
        health_probe_successes=1,
        health_readmit_ratio=1.5,
    )
    mean_gap_us = 2_000.0
    deadline_us = 50_000.0
    queries = build_fleet_queries(
        count, mean_gap_us, deadline_us, seed=FLEETCHAOS_SEED
    )
    profile = {
        "mean_gap_us": mean_gap_us,
        "deadline_us": deadline_us,
        "fail_us": FAIL_US,
        "repair_us": REPAIR_US,
        "gray_on_us": GRAY_ON_US,
        "gray_off_us": GRAY_OFF_US,
    }
    return network, config, queries, profile


def monitor_fleetchaos(
    fast: bool = True, muted: Iterable[str] = (), scenario=None
) -> MonitorRun:
    """Serve the regional-outage scenario with a sink; monitor it.

    Windows the telemetry stream, fires burn-rate/symptom alerts, and
    scores detection against the region schedule's exact fault
    windows.  ``scenario`` reuses an already-built
    :func:`build_scenario` result; the router's report rides along as
    ``run.report``.
    """
    network, config, queries, profile = scenario or build_scenario(fast)
    sink = TelemetrySink()
    report = FleetRouter(network, config, sink=sink).serve(queries)
    horizon = max(
        report.total_time_us,
        max((e.ts_us for e in sink.events), default=0.0),
        profile["gray_off_us"],
    )
    return run_pipeline(
        fleetchaos_spec(), sink.ordered(),
        config.region_schedule.fault_windows(),
        horizon_us=horizon, muted=muted, report=report,
    )


@experiment("fleetchaos")
def run(fast: bool = True) -> ExperimentResult:
    """Regional outage + gray region; failover, rebalance, degrade."""

    def body() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="fleetchaos",
            title="EXTENSION: sharded fleet surviving a regional outage",
            paper_claim="(not a paper figure) the prototype was one "
                        "array; this shards the KB across regions and "
                        "requires answers through a full-region failure",
        )
        scenario = build_scenario(fast)
        _, config, queries, profile = scenario
        result.add(
            f"{config.num_shards} shards x R={config.replication_factor} "
            f"over {config.num_regions} regions; "
            f"{len(queries)} queries, deadline "
            f"{profile['deadline_us'] / 1e3:.0f} ms"
        )
        result.add(
            f"timeline: region 0 fail @{FAIL_US / 1e3:.0f} ms, repair "
            f"@{REPAIR_US / 1e3:.0f} ms; region 2 gray x{GRAY_FACTOR:g} "
            f"@{GRAY_ON_US / 1e3:.0f}..{GRAY_OFF_US / 1e3:.0f} ms"
        )
        # Live monitoring rides the same run.
        mon = monitor_fleetchaos(scenario=scenario)
        report = mon.report

        result.add()
        result.add(
            f"{'shard':>6}{'nodes':>7}{'home':>6}{'fresh':>7}"
            f"{'stale':>7}{'shed':>6}{'moves':>7}{'rebuilds':>9}"
        )
        for s in report.shards:
            result.add(
                f"{s.shard_id:>6}{s.num_nodes:>7}{s.home_region:>6}"
                f"{s.legs_fresh:>7}{s.legs_stale:>7}{s.legs_shed:>6}"
                f"{s.primary_changes:>7}{s.rebuilds:>9}"
            )
        latency = report.latency_summary()
        result.add()
        result.add(
            f"outcomes: {report.complete} complete / {report.degraded} "
            f"degraded / {report.failed} failed / {report.shed} shed / "
            f"{report.timed_out} timed out"
        )
        result.add(
            f"latency: mean {latency['mean']:.0f} us, p99 "
            f"{latency['p99']:.0f} us; {report.total_failovers} failover "
            f"hops, {len(report.primary_changes)} primary moves, "
            f"{report.rebuilds_completed} rebuild copies"
        )
        result.add(
            f"replication at end: {report.final_replication} "
            f"(R={config.replication_factor})"
        )
        score = mon.score
        result.add(
            f"monitor: {len(mon.alerts)} alert(s), recall "
            f"{score.recall:.2f}, precision {score.precision:.2f}, "
            f"worst ttd "
            + (
                f"{score.max_ttd_us / 1e3:.0f} ms"
                if score.max_ttd_us is not None else "n/a"
            )
        )

        stale_legs = sum(s.legs_stale for s in report.shards)
        checks = [
            ("accounted", report.accounted()),
            (
                ">= 99% of queries answered",
                report.answered_fraction >= 0.99,
            ),
            (
                "every answered query correct",
                report.correct_answered == report.answered,
            ),
            ("p99 under the deadline", latency["p99"] <= profile["deadline_us"]),
            ("failover served stale answers", stale_legs >= 1),
            (
                "re-replication restored R everywhere",
                report.replication_restored(),
            ),
            (
                "rebalancer actually copied",
                report.rebuilds_completed >= 1,
            ),
            (
                "serving returned home after repair",
                all(
                    s.serving_region == s.home_region
                    for s in report.shards
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
            raise RuntimeError(f"fleetchaos contract violated: {broken}")

        result.data = {
            **profile,
            "submitted": report.submitted,
            "complete": report.complete,
            "degraded": report.degraded,
            "failed": report.failed,
            "shed": report.shed,
            "timed_out": report.timed_out,
            "answered_fraction": report.answered_fraction,
            "correct_answered": report.correct_answered,
            "p99_latency_us": latency["p99"],
            "total_failovers": report.total_failovers,
            "primary_changes": len(report.primary_changes),
            "rebuilds_completed": report.rebuilds_completed,
            "rebuilds_aborted": report.rebuilds_aborted,
            "final_replication": list(report.final_replication),
            "stale_legs": stale_legs,
            "monitor_alerts": len(mon.alerts),
            "monitor_recall": score.recall,
            "monitor_precision": score.precision,
            "monitor_max_ttd_us": score.max_ttd_us,
        }
        return result

    return timed(body)


if __name__ == "__main__":
    print(run(fast=True).render())
