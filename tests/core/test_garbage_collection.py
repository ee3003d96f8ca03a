"""Controller housekeeping: result-node garbage collection (§III-C)."""

import pytest

from repro.core import FunctionalEngine
from repro.isa import (
    CollectNode,
    MarkerCreate,
    MarkerDelete,
    SearchNode,
    complex_marker,
)
from repro.machine import MachineConfig, SnapMachine
from repro.network import Color

M0 = complex_marker(0)


@pytest.fixture
def engine(fig5_kb):
    return FunctionalEngine(fig5_kb, num_clusters=2)


def bind_and_unbind(engine, result_name):
    engine.execute(SearchNode("w:we", M0))
    engine.execute(
        MarkerCreate(M0, "binding", result_name, "binding-inverse")
    )
    engine.execute(
        MarkerDelete(M0, "binding", result_name, "binding-inverse")
    )


class TestGarbageCollect:
    def test_orphaned_result_node_reclaimed(self, engine):
        bind_and_unbind(engine, "result:1")
        assert engine.state.garbage_collect() == 1
        assert "result:1" not in engine.state.network

    def test_live_result_node_kept(self, engine):
        engine.execute(SearchNode("w:we", M0))
        engine.execute(
            MarkerCreate(M0, "binding", "result:live", "binding-inverse")
        )
        assert engine.state.garbage_collect() == 0
        assert "result:live" in engine.state.network

    def test_reclaimed_slot_reused(self, engine):
        bind_and_unbind(engine, "result:old")
        engine.state.garbage_collect()
        nodes_before = engine.state.network.num_nodes
        engine.execute(SearchNode("w:saw", M0))
        engine.execute(
            MarkerCreate(M0, "binding", "result:new", "binding-inverse")
        )
        # The new result node reuses the freed physical slot.
        assert engine.state.network.num_nodes == nodes_before
        assert "result:new" in engine.state.network
        assert engine.state.network.node("result:new").color == Color.RESULT

    def test_markers_wiped_on_reclaim(self, engine):
        engine.execute(SearchNode("w:we", M0))
        engine.execute(
            MarkerCreate(M0, "binding", "result:x", "binding-inverse")
        )
        gid = engine.state.resolve("result:x")
        # Mark the result node directly, then orphan and collect it.
        engine.execute(SearchNode("result:x", M0))
        engine.execute(
            MarkerDelete(M0, "binding", "result:x", "binding-inverse")
        )
        # MarkerDelete above used M0 which includes result:x itself; the
        # self-binding link (result:x -> result:x) never existed, so
        # only the w:we links were removed.
        assert engine.state.garbage_collect() == 1
        # Reuse the slot and confirm the old marker is gone.
        engine.state.ensure_node("result:fresh")
        assert not engine.state.marker_test(M0, "result:fresh")

    def test_idempotent(self, engine):
        bind_and_unbind(engine, "result:1")
        assert engine.state.garbage_collect() == 1
        assert engine.state.garbage_collect() == 0

    def test_non_result_nodes_never_collected(self, engine):
        # Lexical nodes with no links would not be collected even if
        # isolated (only RESULT-colored nodes are GC candidates).
        before = engine.state.network.num_nodes
        assert engine.state.garbage_collect() == 0
        assert engine.state.network.num_nodes == before


class TestMachineHousekeeping:
    def test_housekeep_between_programs(self, fig5_kb):
        machine = SnapMachine(
            fig5_kb, MachineConfig(num_clusters=4, mus_per_cluster=2)
        )
        machine.run([
            SearchNode("w:we", M0),
            MarkerCreate(M0, "binding", "result:s1", "binding-inverse"),
            MarkerDelete(M0, "binding", "result:s1", "binding-inverse"),
        ])
        assert machine.state.garbage_collect() == 1
        # Machine still runs fine afterwards.
        results = machine.run([CollectNode(M0)]).results()
        assert results[-1]
