"""Instruction semantics on MachineState primitives."""

import pytest

from repro.core import FunctionalEngine, MachineState
from repro.isa import (
    AndMarker,
    ClearMarker,
    CollectColor,
    CollectMarker,
    CollectNode,
    CollectRelation,
    Create,
    Delete,
    FuncMarker,
    MarkerCreate,
    MarkerDelete,
    MarkerSetColor,
    NotMarker,
    OrMarker,
    Propagate,
    SearchColor,
    SearchNode,
    SearchRelation,
    SetColor,
    SetMarker,
    binary_marker,
    chain,
    complex_marker,
)
from repro.isa.program import SnapProgram
from repro.network import Color


@pytest.fixture
def engine(fig5_kb):
    return FunctionalEngine(fig5_kb, num_clusters=2)


M0, M1, M2 = complex_marker(0), complex_marker(1), complex_marker(2)
B0 = binary_marker(0)


class TestSearch:
    def test_search_node_sets_one(self, engine):
        engine.execute(SearchNode("w:we", M0, 1.5))
        nodes = engine.state.marker_set_nodes(M0)
        assert nodes == [engine.state.resolve("w:we")]
        assert engine.state.marker_value(M0, "w:we") == 1.5

    def test_search_color(self, engine):
        engine.execute(SearchColor(Color.LEXICAL, M0, 0.0))
        names = {
            engine.state.node_name(g)
            for g in engine.state.marker_set_nodes(M0)
        }
        assert names == {"w:we", "w:saw", "w:terrorists"}

    def test_search_relation(self, engine):
        engine.execute(SearchRelation("first", M0))
        names = {
            engine.state.node_name(g)
            for g in engine.state.marker_set_nodes(M0)
        }
        assert names == {"seeing-event"}

    def test_search_unknown_relation_noop(self, engine):
        engine.execute(SearchRelation("never-registered", M0))
        assert engine.state.marker_set_nodes(M0) == []


def _hub_kb():
    """A hub with 20 ``has`` links: the fanout split moves five of them
    (and a continuation slot) into the subnode ``hub#1``."""
    from repro.network.graph import SemanticNetwork

    net = SemanticNetwork()
    net.add_node("hub")
    for i in range(20):
        net.add_link("hub", "has", net.add_node(f"leaf{i}").node_id, 1.0)
    return net


def test_whole_row_ops_on_an_empty_cluster():
    """A cluster hosting no node contributes nothing to NOT-MARKER or
    SET-MARKER results (it used to report 32 phantom nodes)."""
    from repro.network.graph import SemanticNetwork

    net = SemanticNetwork()
    net.add_node("only")
    engine = FunctionalEngine(net, num_clusters=2)
    engine.execute(NotMarker(M0, M1, 0.0, "eq"))
    engine.execute(SetMarker(M2, 1.0))
    assert engine.execute(CollectNode(M1)).result == [(0, "only")]
    assert engine.execute(CollectNode(M2)).result == [(0, "only")]


class TestSearchRelationSkipsSubnodes:
    """SEARCH-RELATION marks a node once, by its logical row: the
    continuation subnode holding part of that row is not a node of its
    own."""

    PROGRAM = [SearchRelation("has", B0), CollectNode(B0)]

    def test_functional_engine(self):
        engine = FunctionalEngine(_hub_kb(), num_clusters=2)
        search = engine.execute(self.PROGRAM[0])
        collect = engine.execute(self.PROGRAM[1])
        assert collect.result == [(0, "hub")]
        # The hub's 16 static slots plus the subnode's 5, each once.
        assert search.work.slots == 21

    def test_snap_machine(self):
        from repro.machine import MachineConfig, SnapMachine

        machine = SnapMachine(_hub_kb(), MachineConfig(num_clusters=2))
        report = machine.run(SnapProgram(list(self.PROGRAM)))
        assert report.results() == [[(0, "hub")]]

    def test_simd_machine(self):
        from repro.baselines.simd import SimdMachine

        report = SimdMachine(_hub_kb()).run(SnapProgram(list(self.PROGRAM)))
        assert report.results() == [[(0, "hub")]]


class TestSetClear:
    def test_set_marker_everywhere(self, engine):
        engine.execute(SetMarker(M0, 2.0))
        assert len(engine.state.marker_set_nodes(M0)) == (
            engine.state.network.num_nodes
        )
        assert engine.state.marker_value(M0, "w:we") == 2.0

    def test_clear_marker(self, engine):
        engine.execute(SetMarker(M0))
        engine.execute(ClearMarker(M0))
        assert engine.state.marker_set_nodes(M0) == []

    def test_func_marker(self, engine):
        engine.execute(SearchNode("w:we", M0, 3.0))
        engine.execute(FuncMarker(M0, "negate"))
        assert engine.state.marker_value(M0, "w:we") == -3.0

    def test_func_marker_binary_noop(self, engine):
        engine.execute(SearchNode("w:we", B0))
        engine.execute(FuncMarker(B0, "negate"))
        assert engine.state.marker_test(B0, "w:we")


class TestBoolean:
    def test_and_intersects(self, engine):
        engine.execute(SearchNode("w:we", M0, 1.0))
        engine.execute(SearchNode("w:saw", M0, 1.0))
        engine.execute(SearchNode("w:we", M1, 2.0))
        engine.execute(AndMarker(M0, M1, M2, "add"))
        nodes = engine.state.marker_set_nodes(M2)
        assert nodes == [engine.state.resolve("w:we")]
        assert engine.state.marker_value(M2, "w:we") == 3.0

    def test_or_unions(self, engine):
        engine.execute(SearchNode("w:we", M0))
        engine.execute(SearchNode("w:saw", M1))
        engine.execute(OrMarker(M0, M1, M2))
        names = {
            engine.state.node_name(g)
            for g in engine.state.marker_set_nodes(M2)
        }
        assert names == {"w:we", "w:saw"}

    def test_not_complements(self, engine):
        engine.execute(SearchNode("w:we", M0))
        engine.execute(NotMarker(M0, M1))
        nodes = set(engine.state.marker_set_nodes(M1))
        assert engine.state.resolve("w:we") not in nodes
        assert len(nodes) == engine.state.network.num_nodes - 1

    def test_not_with_condition(self, engine):
        """m2 := nodes where m1 fails value >= 2 (or is clear)."""
        engine.execute(SearchNode("w:we", M0, 1.0))
        engine.execute(SearchNode("w:saw", M0, 5.0))
        engine.execute(NotMarker(M0, M1, 2.0, "ge"))
        nodes = set(engine.state.marker_set_nodes(M1))
        assert engine.state.resolve("w:we") in nodes        # 1.0 < 2
        assert engine.state.resolve("w:saw") not in nodes   # 5.0 >= 2


class TestMaintenance:
    def test_create_adds_nodes_and_link(self, engine):
        before = engine.state.network.num_nodes
        engine.execute(Create("new-a", "is-a", 0.5, "new-b"))
        net = engine.state.network
        assert net.num_nodes == before + 2
        assert net.outgoing_by_relation("new-a", "is-a")
        # Tables grew consistently.
        cid, lid = engine.state.address("new-a")
        entries = engine.state.clusters[cid].relations.entries(lid)
        assert entries[0].dest_global == net.resolve("new-b")

    def test_delete_removes_link(self, engine):
        engine.execute(Create("x1", "r", 0.0, "x2"))
        engine.execute(Delete("x1", "r", "x2"))
        assert engine.state.network.outgoing_by_relation("x1", "r") == []

    def test_set_color_updates_both_views(self, engine):
        engine.execute(SetColor("w:we", 9))
        assert engine.state.network.node("w:we").color == 9
        cid, lid = engine.state.address("w:we")
        assert engine.state.clusters[cid].node_table.color[lid] == 9

    def test_marker_create_binds(self, engine):
        engine.execute(SearchNode("w:we", M0))
        engine.execute(SearchNode("w:saw", M0))
        engine.execute(MarkerCreate(M0, "binding", "result-x", "binding-inverse"))
        net = engine.state.network
        assert "result-x" in net
        result = net.resolve("result-x")
        sources = {
            net.node(l.dest).name
            for l in net.outgoing_by_relation("result-x", "binding-inverse")
        }
        assert sources == {"w:we", "w:saw"}
        for word in ("w:we", "w:saw"):
            forward = net.outgoing_by_relation(word, "binding")
            assert forward and forward[0].dest == result

    def test_marker_delete_unbinds(self, engine):
        engine.execute(SearchNode("w:we", M0))
        engine.execute(MarkerCreate(M0, "binding", "result-y", "binding-inverse"))
        engine.execute(MarkerDelete(M0, "binding", "result-y", "binding-inverse"))
        net = engine.state.network
        assert net.outgoing_by_relation("w:we", "binding") == []
        assert net.outgoing_by_relation("result-y", "binding-inverse") == []

    def test_marker_set_color(self, engine):
        engine.execute(SearchColor(Color.LEXICAL, M0))
        engine.execute(MarkerSetColor(M0, 42))
        assert engine.state.network.node("w:we").color == 42


class TestCollect:
    def test_collect_node_sorted_names(self, engine):
        engine.execute(SearchNode("w:saw", M0))
        engine.execute(SearchNode("w:we", M0))
        record = engine.execute(CollectNode(M0))
        assert [gid for gid, _ in record.result] == sorted(
            gid for gid, _ in record.result
        )
        assert {name for _, name in record.result} == {"w:we", "w:saw"}

    def test_collect_marker_returns_values_and_origin(self, engine):
        engine.execute(SearchNode("w:we", M0, 4.5))
        record = engine.execute(CollectMarker(M0))
        gid, value, origin = record.result[0]
        assert value == 4.5
        assert origin == gid  # search sets origin = the node itself

    def test_collect_relation(self, engine):
        engine.execute(SearchNode("seeing-event", M0))
        record = engine.execute(CollectRelation(M0, "first"))
        assert len(record.result) == 1
        src, rel, dst, _w = record.result[0]
        assert rel == "first"
        assert engine.state.node_name(dst) == "seeing-event.experiencer"

    def test_collect_color(self, engine):
        engine.execute(SearchNode("w:we", M0))
        record = engine.execute(CollectColor(M0))
        assert record.result == [
            (engine.state.resolve("w:we"), Color.LEXICAL)
        ]

    def test_collect_empty(self, engine):
        record = engine.execute(CollectNode(M2))
        assert record.result == []


class TestPropagationSemantics:
    def test_min_cost_fixpoint(self, diamond_kb):
        """Two paths to dst: the cheaper cost must win regardless of
        exploration order (deterministic fixpoint semantics)."""
        engine = FunctionalEngine(diamond_kb, num_clusters=2)
        engine.execute(SearchNode("src", M0, 0.0))
        engine.execute(Propagate(M0, M1, chain("r"), "add-weight"))
        assert engine.state.marker_value(M1, "dst") == 2.0

    def test_cycle_terminates(self):
        from repro.network import SemanticNetwork

        net = SemanticNetwork()
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "r", "b", 1.0)
        net.add_link("b", "r", "a", 1.0)
        engine = FunctionalEngine(net)
        engine.execute(SearchNode("a", M0, 0.0))
        record = engine.execute(Propagate(M0, M1, chain("r"), "add-weight"))
        assert set(engine.state.marker_set_nodes(M1)) == {0, 1}
        assert record.arrivals >= 2

    def test_negative_cycle_capped(self):
        from repro.network import SemanticNetwork

        net = SemanticNetwork()
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "r", "b", -1.0)
        net.add_link("b", "r", "a", -1.0)
        engine = FunctionalEngine(net)
        engine.execute(SearchNode("a", M0, 0.0))
        # Must terminate (expansion cap) despite ever-decreasing cost.
        record = engine.execute(Propagate(M0, M1, chain("r"), "add-weight"))
        assert record.arrivals <= 2 * 64 + 2

    def test_threshold_function_limits_reach(self, chain_kb):
        engine = FunctionalEngine(chain_kb)
        token = engine.state.functions.make_threshold(3.0)
        engine.execute(SearchNode("a0", M0, 0.0))
        engine.execute(Propagate(M0, M1, chain("r"), token))
        names = {
            engine.state.node_name(g)
            for g in engine.state.marker_set_nodes(M1)
        }
        # weights 1,2,3,4,5 cumulative 1,3,6,... -> die after a2.
        assert names == {"a1", "a2"}

    def test_alpha_counts_seeds(self, fig5_kb):
        engine = FunctionalEngine(fig5_kb)
        engine.execute(SearchColor(Color.LEXICAL, M0))
        record = engine.execute(Propagate(M0, M1, chain("is-a"), "identity"))
        assert record.alpha == 3

    def test_origin_propagates_to_destination(self, chain_kb):
        engine = FunctionalEngine(chain_kb)
        engine.execute(SearchNode("a0", M0, 0.0))
        engine.execute(Propagate(M0, M1, chain("r"), "add-weight"))
        cid, lid = engine.state.address("a5")
        origin = engine.state.clusters[cid].node_table.get_origin(lid, M1)
        assert origin == engine.state.resolve("a0")


class TestOutOfBandMutation:
    def test_clean_error_for_unhosted_node(self, fig5_kb):
        """Mutating the network object directly (instead of using
        CREATE) must produce an actionable error, not a KeyError."""
        from repro.core.state import ExecutionError

        engine = FunctionalEngine(fig5_kb, num_clusters=2)
        engine.state.network.add_node("rogue")
        with pytest.raises(ExecutionError, match="CREATE"):
            engine.execute(SearchNode("rogue", M0))
