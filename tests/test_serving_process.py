"""Serving leaves nothing behind and depends on nothing but its inputs.

One host stream (overload, one faulty replica, hedging, some ad-hoc
queries running the nested machine) and one fleet stream (the regional
outage of ``fleetchaos``) are served:

* after ``serve()`` no finished query or leg still holds a kernel event
  handle, fired or cancelled;
* two fresh interpreters with different ``PYTHONHASHSEED`` values
  produce the same per-query outcome digests.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def host_server_and_stream():
    from repro.experiments import overload
    from repro.host import HostConfig, ServingHost
    from repro.network import generator

    network = generator.generate_hierarchy_kb(120, branching=3, seed=1)
    config = HostConfig(
        num_replicas=4, clusters_per_replica=4, mus_per_cluster=2,
        queue_capacity=8, shed_policy="reject-newest", max_attempts=2,
        breaker_failure_threshold=2, breaker_cooldown_us=10_000.0,
        faulty_replica_fraction=0.25, fault_seed=3,
    )
    mean, p99 = overload.uncontended_profile(network, config)
    queries = overload.build_queries(
        150, 2.0 * config.num_replicas / mean, 2.5 * p99, seed="1/host")
    # Every 25th query is untemplated, so it runs the nested machine.
    queries = [replace(q, template=None) if i % 25 == 0 else q
               for i, q in enumerate(queries)]
    host = ServingHost(network, replace(config, hedge_after_us=0.3 * mean))
    return host, queries


def fleet_server_and_stream():
    from repro.experiments import fleetchaos
    from repro.fleet import FleetRouter

    network, config, queries, _profile = fleetchaos.build_scenario(fast=True)
    config = replace(config, shard_deadline_us=400.0)
    return FleetRouter(network, config), queries[:120]


def outcome_digests():
    """Per-query outcome digests of both streams, served once each."""
    digests = {}
    for name, build in (("host", host_server_and_stream),
                        ("fleet", fleet_server_and_stream)):
        server, queries = build()
        report = server.serve(queries)
        digests[name] = [
            hashlib.sha256(json.dumps(
                [o.as_dict(), o.results], sort_keys=True, default=repr,
            ).encode()).hexdigest()
            for o in report.outcomes
        ]
    return digests


class TestHandlesReleased:
    def test_host_queries_hold_no_handles(self):
        host, queries = host_server_and_stream()
        report = host.serve(queries)
        statuses = {o.status.value for o in report.outcomes}
        # Watchdogs fired (timed out) and were cancelled (served), and
        # hedges were armed.
        assert {"served", "timed-out"} <= statuses
        assert sum(o.hedges for o in report.outcomes) > 0
        assert not any(host._arrivals)
        for state in host._states:
            assert state.terminal
            assert state.watchdog is None
            assert not state.in_flight

    def test_fleet_queries_and_legs_hold_no_handles(self):
        router, queries = fleet_server_and_stream()
        router.serve(queries)
        legs = [leg for state in router._states for leg in state.legs]
        assert any(leg.status == "shed" for leg in legs)
        for state in router._states:
            assert state.finished
            assert state.deadline_event is None
        for leg in legs:
            assert leg.watchdog is None


def test_outcomes_independent_of_hash_seed():
    script = (
        "import json\n"
        "from tests.test_serving_process import outcome_digests\n"
        "print(json.dumps(outcome_digests()))\n"
    )
    runs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=300, check=True,
        )
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    assert runs[0]["host"] and runs[0]["fleet"]
    assert runs[0] == runs[1]
