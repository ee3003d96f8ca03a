"""A reused machine runs every program exactly as a fresh machine does.

Machines are built once and run many programs (the serving host runs
thousands of queries on one replica).  Nothing of one run may reach
the next: each run's ``to_json()`` on a shared machine must equal the
same run on a freshly built one.  Runs alternate between a clean, a
faulty and a ``pack_messages`` machine, include runs cut off by a
budget mid-propagation, and end with a host replica under the
``chaos`` fault timeline.
"""

from dataclasses import replace

import pytest

from repro.apps.inheritance import inheritance_program, property_lookup_program
from repro.experiments import chaos
from repro.host import Query, ReplicaArray
from repro.isa import assemble
from repro.machine import MachineConfig, SnapMachine
from repro.machine.faults import FaultConfig
from repro.network.generator import generate_hierarchy_kb

CONFIGS = {
    "clean": MachineConfig(num_clusters=8, mus_per_cluster=(3, 2)),
    "faulty": MachineConfig(
        num_clusters=8, mus_per_cluster=(3, 2),
        faults=FaultConfig(
            seed=11, failed_cluster_fraction=0.125, mu_loss_prob=0.1,
            link_fail_prob=0.15, transfer_corrupt_prob=0.08,
            scp_timeout_prob=0.02,
        ),
    ),
    "packed": MachineConfig(num_clusters=8, mus_per_cluster=(3, 2),
                            pack_messages=True),
}


def subtree(node):
    return assemble(
        f"SEARCH-NODE {node} b0\n"
        "PROPAGATE b0 b1 chain(inverse:is-a)\n"
        "COLLECT-NODE b1\n"
    )


#: (program, budget_us): inheritance, property lookup and subtree
#: queries of a 4-ary hierarchy, two of them cut off mid-run.
PROGRAMS = [
    (subtree("c1"), None),
    (inheritance_program(root="c2", num_properties=1), None),
    (property_lookup_program("c300", "attr1"), None),
    (subtree("c5"), 60.0),
    (subtree("c3"), None),
    (property_lookup_program("c200", "attr2"), None),
    (inheritance_program(root="c1", num_properties=1), 150.0),
    (subtree("c6"), None),
]


@pytest.fixture(scope="module")
def network():
    return generate_hierarchy_kb(341, branching=4, seed=1)


def fresh_run(network, config, program, budget_us):
    machine = SnapMachine(network, config)
    machine.reset_markers()
    return machine.run(program, budget_us=budget_us).to_json()


def test_shared_machines_match_fresh_machines(network):
    shared = {name: SnapMachine(network, config)
              for name, config in CONFIGS.items()}
    aborted = 0
    for program, budget_us in PROGRAMS:
        for name, machine in shared.items():
            machine.reset_markers()
            got = machine.run(program, budget_us=budget_us).to_json()
            aborted += bool(got.get("aborted"))
            want = fresh_run(network, CONFIGS[name], program, budget_us)
            assert got == want, (name, program.name, budget_us)
    assert aborted  # the budgets really cut runs off


def test_chaos_replica_matches_fresh_replica():
    network, config, _queries, profile = chaos.build_scenario(fast=True)
    mean = profile["mean_service_us"]
    rid = 2  # the mid-propagation cluster flap
    array = ReplicaArray(network, config)
    programs = [subtree("thing"), inheritance_program(root="thing",
                                                      num_properties=1)]
    phases = set()
    for step in range(16):
        now = step * mean
        budget = 0.5 * mean if step % 5 == 4 else None
        query = Query(step, programs[step % 2], arrival_us=now)
        array.execute(array.replicas[rid], query, budget_us=budget, now=now)
        phase = array._phase_index(rid, now)
        phases.add(phase)
        got = array._machine_for(rid, phase).last_report.to_json()
        fresh = ReplicaArray(network, config)
        fresh.execute(fresh.replicas[rid], query, budget_us=budget, now=now)
        want = fresh._machine_for(rid, phase).last_report.to_json()
        assert got == want, step
    assert len(phases) > 1
