"""Property: the timed machine computes exactly what the golden model
computes, for random knowledge bases, programs, and machine shapes."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FunctionalEngine
from repro.isa import (
    CollectMarker,
    CollectNode,
    Propagate,
    SearchNode,
    assemble,
    chain,
)
from repro.machine import MachineConfig, SnapMachine
from repro.network import SemanticNetwork

from tests.core.test_equivalence import (
    MARKERS,
    random_network,
    random_program,
)


def collect_state(state, markers=MARKERS):
    out = {}
    for marker in markers:
        nodes = state.marker_set_nodes(marker)
        values = None
        if marker < 64:
            values = tuple(
                round(state.marker_value(marker, n), 4) for n in nodes
            )
        out[marker] = (tuple(nodes), values)
    return out


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    clusters=st.sampled_from([1, 2, 4, 7]),
    mus=st.sampled_from([1, 2, 3]),
)
@settings(max_examples=20, deadline=None)
def test_property_timed_machine_matches_golden_model(seed, clusters, mus):
    network_args = (seed, 20, 50)
    program = random_program(seed + 7, nodes=20, length=10)

    golden = FunctionalEngine(random_network(*network_args), 1)
    golden.run(program)

    machine = SnapMachine(
        random_network(*network_args),
        MachineConfig(num_clusters=clusters, mus_per_cluster=mus),
    )
    machine.run(program)

    assert collect_state(machine.state) == collect_state(golden.state)


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=10, deadline=None)
def test_property_collect_results_match(seed):
    program = random_program(seed + 3, nodes=20, length=8)
    program.append(CollectNode(MARKERS[2]))
    program.append(CollectMarker(MARKERS[0]))

    golden = FunctionalEngine(random_network(seed, 20, 50), 1)
    golden_results = [
        r.result for r in golden.run(program).records if r.result is not None
    ]
    machine = SnapMachine(
        random_network(seed, 20, 50),
        MachineConfig(num_clusters=5, mus_per_cluster=2),
    )
    machine_results = machine.run(program).results()
    assert len(machine_results) == len(golden_results)
    for got, expected in zip(machine_results, golden_results):
        assert got == expected


# ----------------------------------------------------------------------
# Extra differential inputs: adversarial shapes for the same contract
# ----------------------------------------------------------------------
ALL_MARKERS = tuple(range(128))


def assert_timed_matches_golden(make_network, program, num_clusters,
                                policy="round-robin", mus=2,
                                setup=None):
    """Run ``program`` on the golden engine and on the timed machine,
    each over a fresh network with the same cluster count and
    partition policy; collect results and final marker state (every
    register, values to 4 places) must match.  ``setup(state)``
    prepares each side's machine state first and returns the program
    to run (e.g. after registering a custom hop function)."""
    golden = FunctionalEngine(make_network(), num_clusters, policy)
    machine = SnapMachine(
        make_network(),
        MachineConfig(num_clusters=num_clusters, mus_per_cluster=mus,
                      partition_policy=policy),
    )
    golden_program = setup(golden.state) if setup else program
    machine_program = setup(machine.state) if setup else program
    golden_results = [
        r.result for r in golden.run(golden_program).records
        if r.result is not None
    ]
    assert machine.run(machine_program).results() == golden_results
    assert (collect_state(machine.state, ALL_MARKERS)
            == collect_state(golden.state, ALL_MARKERS))
    return golden_results


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_property_partitioned_golden_matches_timed(seed):
    """Random KB x random program on 1-5 clusters, both sides
    partitioned alike."""
    program = random_program(seed + 977, nodes=24, length=12)
    assert_timed_matches_golden(
        lambda: random_network(seed, nodes=24, links=60),
        program, 1 + seed % 5,
    )


def test_duplicate_arrival_float32_rounding():
    """A comb rule listing the same relation twice delivers identical
    float64 values twice to one node.  The value register is float32,
    and each arrival is compared against the *rounded* stored value."""
    seed = 5284
    assert_timed_matches_golden(
        lambda: random_network(seed, nodes=24, links=60),
        random_program(seed + 977, nodes=24, length=12),
        1 + seed % 5,
    )


@pytest.mark.parametrize("policy", ["round-robin", "semantic",
                                    "sequential"])
def test_partition_policies(policy):
    assert_timed_matches_golden(
        lambda: random_network(7, nodes=30, links=90),
        random_program(4242, nodes=30, length=16),
        4, policy,
    )


def test_duplicate_arrivals_same_wave():
    """Eight links converge on one node at the same depth, with
    distinct path costs; the minimum must win on both sides."""
    def make_network():
        net = SemanticNetwork()
        for i in range(10):
            net.add_node(f"n{i}")
        for i in range(1, 9):
            net.add_link(0, "r1", i, float(i))
            net.add_link(i, "r1", 9, 0.5 * i)
        return net

    program = assemble("""
    SEARCH-NODE n0 m0 0.0
    PROPAGATE m0 m1 chain(r1) add-weight
    COLLECT-MARKER m1
    """)
    results = assert_timed_matches_golden(make_network, program, 3)
    values = {gid: value for gid, value, _origin in results[0]}
    assert values[9] == pytest.approx(1.5)  # via n1: 1.0 + 0.5


def test_negative_cycle_hits_expansion_cap():
    """A negative-cost cycle under min-value re-expansion terminates
    only through the per-(node, state) expansion cap.  One marker is
    in flight at a time, so the cut-off arrival is the same on both
    sides: 64 laps of the 4-cycle, 256 hops."""
    def make_network():
        net = SemanticNetwork()
        for i in range(4):
            net.add_node(f"c{i}")
        for i in range(4):
            net.add_link(i, "r1", (i + 1) % 4, -1.0)
        return net

    program = assemble("""
    SEARCH-NODE c0 m0 0.0
    PROPAGATE m0 m1 chain(r1) add-weight
    COLLECT-MARKER m1
    """)
    results = assert_timed_matches_golden(make_network, program, 2)
    assert results == [[(0, -256.0, 0), (1, -253.0, 0), (2, -254.0, 0),
                        (3, -255.0, 0)]]


def test_threshold_hop_function():
    """A registered hop with a liveness predicate cuts reach alike."""
    def setup(state):
        fid = state.functions.make_threshold(2.5, below=True)
        return [
            SearchNode(0, 0, 0.0),
            Propagate(0, 1, chain("r1"), fid),
            CollectMarker(1),
            CollectNode(1),
        ]

    assert_timed_matches_golden(
        lambda: random_network(11, nodes=20, links=70), None, 3,
        setup=setup,
    )


def test_create_delete_between_propagations():
    """CREATE/DELETE between propagations: each sweep sees the
    topology as mutated so far."""
    program = assemble("""
    SEARCH-NODE a b0
    PROPAGATE b0 b1 chain(r1)
    COLLECT-NODE b1
    CREATE a r1 1.0 d
    SEARCH-NODE a b2
    PROPAGATE b2 b3 chain(r1)
    COLLECT-NODE b3
    DELETE b r1 c
    SEARCH-NODE a b4
    PROPAGATE b4 b5 chain(r1)
    COLLECT-NODE b5
    """)

    def make_network():
        net = SemanticNetwork()
        for name in ("a", "b", "c", "d"):
            net.add_node(name)
        net.add_link(0, "r1", 1, 1.0)
        net.add_link(1, "r1", 2, 1.0)
        return net

    collects = assert_timed_matches_golden(make_network, program, 2)
    assert [len(c) for c in collects] == [2, 3, 2]


def test_fig5_inheritance_collects(fig5_kb):
    program = assemble("""
    SEARCH-NODE w:we m1 0.0
    SEARCH-NODE w:saw m2 0.0
    PROPAGATE m1 m3 spread(is-a,last) add-weight
    PROPAGATE m2 m4 chain(is-a) add-weight
    AND-MARKER m3 m4 m5 min
    COLLECT-NODE m3
    COLLECT-MARKER m4
    """)
    assert_timed_matches_golden(
        lambda: copy.deepcopy(fig5_kb), program, 4
    )
