"""The per-arrival fast path leaves simulated behaviour unchanged.

* Cached link rows follow every topology change (CREATE, DELETE,
  MARKER-CREATE, MARKER-DELETE), including links that sit in a
  continuation subnode's row, so the timed machine keeps agreeing with
  the SIMD golden model after the KB changes under a warm cache.
* Resetting markers leaves the complex-marker registers byte-equal to a
  fresh table, whichever path wrote them.
"""

import numpy as np
import pytest

from repro.baselines.simd import SimdMachine
from repro.core import FunctionalEngine
from repro.core.tables import NodeTable
from repro.isa import (
    ClearMarker,
    CollectMarker,
    CollectNode,
    Create,
    Delete,
    MarkerCreate,
    MarkerDelete,
    Propagate,
    SearchNode,
    SetMarker,
    SnapProgram,
    binary_marker,
    chain,
    complex_marker,
    step,
)
from repro.machine import MachineConfig, SnapMachine
from repro.network import SemanticNetwork

M0, M1, M2 = complex_marker(0), complex_marker(1), complex_marker(2)
B0 = binary_marker(0)

#: More than the 16 relation slots: links 15.. sit in the continuation
#: subnode's row once the fanout pre-processor splits the hub.
HUB_LINKS = 20


@pytest.fixture
def hub_kb():
    net = SemanticNetwork()
    net.add_node("hub")
    for i in range(HUB_LINKS):
        net.add_node(f"leaf{i}")
        net.add_link("hub", "has", f"leaf{i}", float(i))
    net.add_node("bound")
    return net


def flood():
    """Mark the hub's ``has`` neighbours afresh and collect them."""
    return [
        ClearMarker(M0),
        ClearMarker(M1),
        SearchNode("hub", M0, 0.0),
        Propagate(M0, M1, step("has"), "add-weight"),
        CollectNode(M1),
        CollectMarker(M1),
    ]


def reached(report):
    """Names collected by the last flood's COLLECT-NODE."""
    return {name for _gid, name in report.results()[-2]}


def snap(network):
    return SnapMachine(network, MachineConfig(num_clusters=4,
                                              mus_per_cluster=2))


class TestContinuationDelete:
    def test_delete_reports_and_removes_continuation_link(self, hub_kb):
        engine = FunctionalEngine(hub_kb, num_clusters=2)
        state = engine.state
        record = engine.execute(Delete("hub", "has", "leaf18"))
        assert record.work.links_made == 1
        leaf18 = state.resolve("leaf18")
        assert leaf18 not in {
            link.dest for link in state.network.outgoing("hub#1")
        }
        cid, lid = state.address("hub")
        dests = [
            e.dest_global for e in state.clusters[cid].relations.entries(lid)
        ]
        assert leaf18 not in dests
        assert len(dests) == HUB_LINKS - 1

    @pytest.mark.parametrize("make", [snap, SimdMachine])
    def test_delete_stops_propagation(self, hub_kb, make):
        report = make(hub_kb).run(SnapProgram(
            [Delete("hub", "has", "leaf18")] + flood()
        ))
        names = reached(report)
        assert "leaf18" not in names
        assert len(names) == HUB_LINKS - 1

    @pytest.mark.parametrize("make", [snap, SimdMachine])
    def test_marker_delete_stops_propagation(self, hub_kb, make):
        report = make(hub_kb).run(SnapProgram([
            SearchNode("hub", B0),
            MarkerDelete(B0, "has", "leaf16"),
        ] + flood()))
        names = reached(report)
        assert "leaf16" not in names
        assert len(names) == HUB_LINKS - 1


class TestLinkCacheInvalidation:
    """Each topology change lands between two floods, so the hub's
    cached row is warm when the change arrives."""

    PROGRAM = SnapProgram(
        flood()
        + [Create("hub", "has", 0.5, "fresh")] + flood()
        + [Delete("hub", "has", "leaf3")] + flood()
        + [Delete("hub", "has", "leaf18")] + flood()
        + [SearchNode("hub", B0), MarkerCreate(B0, "has", "bound")]
        + flood()
        + [MarkerDelete(B0, "has", "leaf16")] + flood()
    )

    def test_snap_matches_simd_after_every_change(self, hub_kb):
        timed = snap(hub_kb).run(self.PROGRAM)
        golden = SimdMachine(hub_kb).run(self.PROGRAM)
        assert timed.results() == golden.results()

    def test_every_change_is_seen(self, hub_kb):
        results = snap(hub_kb).run(self.PROGRAM).results()
        floods = [
            {name for _gid, name in results[i]}
            for i in range(0, len(results), 2)
        ]
        leaves = {f"leaf{i}" for i in range(HUB_LINKS)}
        assert floods == [
            leaves,
            leaves | {"fresh"},
            leaves - {"leaf3"} | {"fresh"},
            leaves - {"leaf3", "leaf18"} | {"fresh"},
            leaves - {"leaf3", "leaf18"} | {"fresh", "bound"},
            leaves - {"leaf3", "leaf16", "leaf18"} | {"fresh", "bound"},
        ]


def assert_registers_fresh(state):
    for tables in state.clusters:
        fresh = NodeTable(tables.num_nodes)
        assert tables.node_table.value.tobytes() == fresh.value.tobytes()
        assert tables.node_table.origin.tobytes() == fresh.origin.tobytes()


class TestRegisterReset:
    def test_node_table_writers(self):
        table = NodeTable(5)
        table.set_value(1, M0, 2.5, 7)
        table.fill(M1, 4.0)
        table.set_values(M2, np.array([0, 3]), np.array([1.0, -2.0]),
                         np.array([4, 5]))
        table.reset_registers()
        fresh = NodeTable(5)
        assert table.value.tobytes() == fresh.value.tobytes()
        assert table.origin.tobytes() == fresh.origin.tobytes()

    def test_reset_markers_after_every_write_path(self, hub_kb):
        engine = FunctionalEngine(hub_kb, num_clusters=3)
        for instruction in (
            SetMarker(M2, 3.0),                  # whole-marker fill
            ClearMarker(complex_marker(3)),      # whole-marker fill
            SearchNode("hub", M0, 1.5),          # set_value
            Propagate(M0, M1, chain("has"), "add-weight"),  # deliveries
        ):
            engine.execute(instruction)
        assert engine.state.marker_value(M1, "leaf4") == 5.5
        engine.state.reset_markers()
        assert_registers_fresh(engine.state)

    def test_reset_after_timed_run(self, hub_kb):
        machine = snap(hub_kb)
        machine.run(SnapProgram(flood() + [SetMarker(M2, 1.0)]))
        machine.reset_markers()
        assert_registers_fresh(machine.state)
