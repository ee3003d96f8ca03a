"""SemanticNetwork: construction, lookup, mutation, validation."""

import pytest

from repro.network import Color, GraphError, NodeError, SemanticNetwork
from repro.network.node import Link, Node


class TestNodes:
    def test_ids_are_dense_and_ordered(self):
        net = SemanticNetwork()
        nodes = [net.add_node(f"n{i}") for i in range(5)]
        assert [n.node_id for n in nodes] == [0, 1, 2, 3, 4]

    def test_duplicate_name_rejected(self):
        net = SemanticNetwork()
        net.add_node("x")
        with pytest.raises(GraphError):
            net.add_node("x")

    def test_resolve_by_name_id_and_node(self):
        net = SemanticNetwork()
        node = net.add_node("alpha")
        assert net.resolve("alpha") == node.node_id
        assert net.resolve(node.node_id) == node.node_id
        assert net.resolve(node) == node.node_id

    def test_resolve_unknown_name(self):
        net = SemanticNetwork()
        with pytest.raises(GraphError):
            net.resolve("ghost")

    def test_resolve_out_of_range_id(self):
        net = SemanticNetwork()
        net.add_node("only")
        with pytest.raises(GraphError):
            net.resolve(7)

    def test_contains(self):
        net = SemanticNetwork()
        net.add_node("present")
        assert "present" in net
        assert "absent" not in net
        assert 0 in net
        assert 1 not in net

    def test_ensure_node_creates_once(self):
        net = SemanticNetwork()
        a = net.ensure_node("n", Color.SYNTAX)
        b = net.ensure_node("n", Color.LEXICAL)
        assert a.node_id == b.node_id
        assert net.node("n").color == Color.SYNTAX  # first wins

    def test_invalid_color_rejected(self):
        with pytest.raises(NodeError):
            Node(0, "bad", color=300)

    def test_set_color(self):
        net = SemanticNetwork()
        net.add_node("n", Color.GENERIC)
        net.set_color("n", Color.CS_ROOT)
        assert net.node("n").color == Color.CS_ROOT


class TestLinks:
    def test_add_link_registers_relation(self):
        net = SemanticNetwork()
        net.add_node("a")
        net.add_node("b")
        link = net.add_link("a", "my-rel", "b", 2.5)
        assert net.relations.name_of(link.relation) == "my-rel"
        assert link.weight == 2.5

    def test_outgoing_by_relation(self):
        net = SemanticNetwork()
        for name in ("a", "b", "c"):
            net.add_node(name)
        net.add_link("a", "r1", "b")
        net.add_link("a", "r2", "c")
        r1_links = net.outgoing_by_relation("a", "r1")
        assert len(r1_links) == 1
        assert r1_links[0].dest == net.resolve("b")
        assert net.outgoing_by_relation("a", "never") == []

    def test_remove_link(self):
        net = SemanticNetwork()
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "r", "b")
        assert net.remove_link("a", "r", "b") is True
        assert net.num_links == 0
        assert net.remove_link("a", "r", "b") is False

    def test_remove_only_first_matching(self):
        net = SemanticNetwork()
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "r", "b", 1.0)
        net.add_link("a", "r", "b", 2.0)
        net.remove_link("a", "r", "b")
        remaining = net.outgoing("a")
        assert len(remaining) == 1
        assert remaining[0].weight == 2.0

    def test_in_degree_tracks_mutations(self):
        net = SemanticNetwork()
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "r", "b")
        assert net.in_degree("b") == 1
        net.remove_link("a", "r", "b")
        assert net.in_degree("b") == 0

    def test_fanout(self):
        net = SemanticNetwork()
        net.add_node("hub")
        for i in range(5):
            net.add_node(f"d{i}")
            net.add_link("hub", "r", f"d{i}")
        assert net.fanout("hub") == 5

    def test_link_reversed(self):
        link = Link(1, 2, 3, 4.0)
        back = link.reversed()
        assert (back.source, back.dest) == (3, 1)
        assert back.relation == 2 and back.weight == 4.0

    def test_links_iterates_all(self, fig5_kb):
        assert len(list(fig5_kb.links())) == fig5_kb.num_links


class TestQueriesAndStats:
    def test_stats_keys(self, fig5_kb):
        stats = fig5_kb.stats()
        assert stats["nodes"] == fig5_kb.num_nodes
        assert stats["links"] == fig5_kb.num_links
        assert stats["max_fanout"] >= 1
        assert stats["relation_types"] >= 3

    def test_validate_passes_on_good_graph(self, fig5_kb):
        fig5_kb.validate()

    def test_validate_detects_corruption(self):
        net = SemanticNetwork()
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "r", "b")
        # Corrupt internals deliberately.
        net._num_links = 5
        with pytest.raises(GraphError):
            net.validate()
