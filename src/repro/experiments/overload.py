"""Extension study — query serving under overload and partial failure.

The paper ran one query at a time from a Sun host; the ROADMAP north
star is sustained multi-query traffic.  This experiment drives the
:mod:`repro.host` serving layer with a Poisson-like arrival stream of
inheritance queries, sweeping **offered load** (as a multiple of the
array's sustainable throughput) × **fault injection** (a seed-driven
subset of replicas degraded through the PR 1 fault layer), and
measures the graceful-degradation contract:

* served p99 latency stays **bounded** (the deadline watchdogs cap it
  below 3× the uncontended p99) instead of growing without limit;
* the **shed fraction rises smoothly and monotonically** with offered
  load — overload costs capacity, never a crash or deadlock;
* every submitted query is accounted for in exactly one outcome
  bucket (served / shed / timed-out / failed).

Arrival streams reuse one unit-rate exponential gap sequence per seed,
scaled by the offered rate, so higher load strictly compresses the
same arrival pattern — the sweep is deterministic for a fixed seed.

Run with ``python -m repro experiments overload``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Tuple

from ..host import HostConfig, Query, ServingHost
from ..isa import assemble
from ..network.generator import generate_hierarchy_kb
from .common import ExperimentResult, experiment, timed

#: Query templates: full-hierarchy inheritance plus two subtree scans.
TEMPLATES: Tuple[Tuple[str, str], ...] = (
    ("root", """
        SEARCH-NODE thing b0
        PROPAGATE b0 b1 chain(inverse:is-a)
        COLLECT-NODE b1
    """),
    ("sub1", """
        SEARCH-NODE c1 b2
        PROPAGATE b2 b3 chain(inverse:is-a)
        COLLECT-NODE b3
    """),
    ("sub2", """
        SEARCH-NODE c2 b4
        PROPAGATE b4 b5 chain(inverse:is-a)
        COLLECT-NODE b5
    """),
)

#: Offered load as multiples of sustainable throughput.
LOAD_FACTORS = (0.5, 1.0, 1.5, 2.0, 3.0)

#: Faulty-replica fractions swept (0.25 of 4 replicas × half their
#: clusters offline ≈ 10% of the array's clusters faulty).
FAULT_ARMS = (0.0, 0.25)

ARRIVAL_SEED = 20260805


def build_queries(
    count: int,
    rate_per_us: float,
    deadline_us: float,
    seed: int = ARRIVAL_SEED,
) -> List[Query]:
    """A deterministic Poisson-like arrival stream over the templates.

    Gap and template-mix streams are drawn independently so scaling
    the rate changes *when* queries arrive, never *which* query
    arrives — the monotone-load comparison stays apples-to-apples.
    """
    programs = {name: assemble(text) for name, text in TEMPLATES}
    gap_rng = random.Random(f"{seed}/gaps")
    mix_rng = random.Random(f"{seed}/mix")
    queries: List[Query] = []
    arrival = 0.0
    names = [name for name, _ in TEMPLATES]
    for qid in range(count):
        arrival += gap_rng.expovariate(1.0) / rate_per_us
        name = mix_rng.choice(names)
        queries.append(
            Query(
                query_id=qid,
                program=programs[name],
                arrival_us=arrival,
                deadline_us=deadline_us,
                template=name,
            )
        )
    return queries


def uncontended_profile(
    network, config: HostConfig
) -> Tuple[float, float]:
    """(mean, p99) service time of the query mix on a healthy replica."""
    from ..host import ReplicaArray
    from ..host.report import percentile

    array = ReplicaArray(
        network, replace(config, faulty_replica_fraction=0.0)
    )
    programs = {name: assemble(text) for name, text in TEMPLATES}
    mix_rng = random.Random(f"{ARRIVAL_SEED}/mix")
    names = [name for name, _ in TEMPLATES]
    services = [
        array.healthy_service_us(
            Query(query_id=i, program=programs[name], template=name)
        )
        for i, name in enumerate(mix_rng.choice(names) for _ in range(200))
    ]
    return sum(services) / len(services), percentile(services, 99)


@experiment("overload")
def run(fast: bool = True) -> ExperimentResult:
    """Sweep offered load × fault rate; bounded p99, smooth shedding."""

    def body() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="overload",
            title="EXTENSION: serving under overload and partial failure",
            paper_claim="(not a paper figure) the prototype served one "
                        "query at a time; this sweeps offered load x "
                        "degraded replicas through the host layer",
        )
        num_nodes = 240 if fast else 720
        count = 150 if fast else 500
        network = generate_hierarchy_kb(num_nodes, branching=3)

        base = HostConfig(
            num_replicas=4,
            clusters_per_replica=4,
            mus_per_cluster=2,
            queue_capacity=8,
            shed_policy="reject-newest",
            max_attempts=2,
            breaker_failure_threshold=2,
            breaker_cooldown_us=10_000.0,
            fault_seed=3,
        )
        mean_service, p99_0 = uncontended_profile(network, base)
        #: Queries/µs the 4 replicas can absorb at 100% utilization.
        sustainable = base.num_replicas / mean_service
        deadline_us = 2.5 * p99_0

        result.add(
            f"uncontended: mean service {mean_service:.0f} us, "
            f"p99 {p99_0:.0f} us; sustainable "
            f"{sustainable * 1e6:.0f} q/s; deadline {deadline_us:.0f} us"
        )
        result.add()
        result.add(
            f"{'faulty':>7}{'load':>6}{'served':>8}{'shed':>6}"
            f"{'timeout':>8}{'failed':>7}{'shed%':>7}{'p50 us':>8}"
            f"{'p99 us':>8}{'hedges':>7}{'opens':>6}"
        )
        rows: List[Dict] = []
        for fault_fraction in FAULT_ARMS:
            for factor in LOAD_FACTORS:
                config = replace(
                    base,
                    hedge_after_us=0.75 * p99_0,
                    faulty_replica_fraction=fault_fraction,
                )
                queries = build_queries(
                    count, factor * sustainable, deadline_us
                )
                report = ServingHost(network, config).serve(queries)
                row = {
                    "fault_fraction": fault_fraction,
                    "load_factor": factor,
                    "submitted": report.submitted,
                    "served": report.served,
                    "shed": report.shed,
                    "timed_out": report.timed_out,
                    "failed": report.failed,
                    "shed_fraction": report.shed_fraction,
                    "p50_us": report.latency_percentile(50),
                    "p99_us": report.latency_percentile(99),
                    "hedges": sum(o.hedges for o in report.outcomes),
                    "breaker_opens": sum(
                        r.breaker_opens for r in report.replicas
                    ),
                    "accounted": report.accounted(),
                    "uncontended_p99_us": p99_0,
                }
                rows.append(row)
                result.add(
                    f"{100 * fault_fraction:>6.0f}%{factor:>6.1f}"
                    f"{row['served']:>8}{row['shed']:>6}"
                    f"{row['timed_out']:>8}{row['failed']:>7}"
                    f"{100 * row['shed_fraction']:>6.1f}%"
                    f"{row['p50_us']:>8.0f}{row['p99_us']:>8.0f}"
                    f"{row['hedges']:>7}{row['breaker_opens']:>6}"
                )
            result.add()
        overloaded = [
            r for r in rows
            if r["fault_fraction"] == FAULT_ARMS[-1]
            and r["load_factor"] == 2.0
        ][0]
        result.add(
            f"at 2.0x load with degraded replicas: p99 "
            f"{overloaded['p99_us']:.0f} us "
            f"({overloaded['p99_us'] / p99_0:.2f}x uncontended p99, "
            f"bound 3.0x), shed {100 * overloaded['shed_fraction']:.1f}% "
            "-- bounded latency, no collapse"
        )
        result.data = {
            "mean_service_us": mean_service,
            "uncontended_p99_us": p99_0,
            "sustainable_per_us": sustainable,
            "deadline_us": deadline_us,
            "rows": rows,
        }
        return result

    return timed(body)


if __name__ == "__main__":
    print(run(fast=True).render())
