"""Fanout pre-processor and knowledge-base builder."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import (
    CONT_RELATION,
    Color,
    KnowledgeBaseBuilder,
    MAX_FANOUT,
    SemanticNetwork,
    preprocess_fanout,
)
from repro.network.builder import continuation_chain
from repro.network.graph import GraphError


def logical_fanout(physical: SemanticNetwork, node_ref) -> int:
    """Fanout of a node counting through its continuation chain."""
    cont_id = physical.relations.get(CONT_RELATION)
    return sum(
        1
        for nid in continuation_chain(physical, node_ref)
        for link in physical.outgoing(nid)
        if link.relation != cont_id
    )

def make_hub(fanout: int) -> SemanticNetwork:
    net = SemanticNetwork()
    net.add_node("hub")
    for i in range(fanout):
        net.add_node(f"d{i}")
        net.add_link("hub", "rel", f"d{i}", float(i))
    return net


class TestFanoutPreprocessor:
    def test_small_network_returned_unchanged(self):
        net = make_hub(MAX_FANOUT)
        assert preprocess_fanout(net) is net

    def test_overflow_creates_subnodes(self):
        net = make_hub(40)
        physical = preprocess_fanout(net)
        assert physical.num_nodes > net.num_nodes
        subnodes = [n for n in physical.nodes() if n.is_subnode]
        assert subnodes, "expected continuation subnodes"
        for sub in subnodes:
            assert sub.color == Color.SUBNODE
            assert sub.parent_id == physical.resolve("hub")

    def test_physical_fanout_bounded(self):
        physical = preprocess_fanout(make_hub(100))
        for node in physical.nodes():
            assert physical.fanout(node.node_id) <= MAX_FANOUT

    def test_original_ids_preserved(self):
        net = make_hub(40)
        original = {n.name: n.node_id for n in net.nodes()}
        physical = preprocess_fanout(net)
        for name, nid in original.items():
            assert physical.resolve(name) == nid

    def test_logical_fanout_preserved(self):
        net = make_hub(53)
        physical = preprocess_fanout(net)
        assert logical_fanout(physical, "hub") == 53

    def test_continuation_chain_lists_rows_in_order(self):
        physical = preprocess_fanout(make_hub(40))
        chain = continuation_chain(physical, "hub")
        assert [physical.node(n).name for n in chain] == [
            "hub", "hub#1", "hub#2",
        ]

    def test_continuation_cycle_rejected(self):
        net = make_hub(2)
        net.add_link("hub", CONT_RELATION, "d0")
        net.add_link("d0", CONT_RELATION, "hub")
        with pytest.raises(GraphError, match="continuation cycle"):
            continuation_chain(net, "hub")

    def test_link_destinations_preserved(self):
        net = make_hub(40)
        physical = preprocess_fanout(net)
        cont = physical.relations.get(CONT_RELATION)
        dests = set()
        nid = physical.resolve("hub")
        while nid is not None:
            nxt = None
            for link in physical.outgoing(nid):
                if link.relation == cont:
                    nxt = link.dest
                else:
                    dests.add(physical.node(link.dest).name)
            nid = nxt
        assert dests == {f"d{i}" for i in range(40)}

    def test_rejects_tiny_max_fanout(self):
        with pytest.raises(ValueError):
            preprocess_fanout(make_hub(3), max_fanout=1)

    @given(fanout=st.integers(min_value=1, max_value=80))
    @settings(max_examples=25, deadline=None)
    def test_property_fanout_and_weights_preserved(self, fanout):
        net = make_hub(fanout)
        physical = preprocess_fanout(net)
        physical.validate()
        assert logical_fanout(physical, "hub") == fanout
        for node in physical.nodes():
            assert physical.fanout(node.node_id) <= MAX_FANOUT


class TestKnowledgeBaseBuilder:
    def test_word_links_to_classes(self):
        builder = KnowledgeBaseBuilder()
        builder.add_word("we", ["animate", "noun-phrase"])
        net = builder.network
        links = net.outgoing_by_relation("w:we", "is-a")
        names = {net.node(l.dest).name for l in links}
        assert names == {"animate", "noun-phrase"}
        assert net.node("w:we").color == Color.LEXICAL

    def test_class_hierarchy_links(self):
        builder = KnowledgeBaseBuilder()
        builder.add_class("human", ["animate"])
        links = builder.network.outgoing_by_relation("human", "is-a")
        assert len(links) == 1

    def test_concept_sequence_structure(self, fig5_kb):
        net = fig5_kb
        # root --first--> first element
        first = net.outgoing_by_relation("seeing-event", "first")
        assert len(first) == 1
        assert net.node(first[0].dest).name == "seeing-event.experiencer"
        # elements chained by next
        nxt = net.outgoing_by_relation("seeing-event.experiencer", "next")
        assert net.node(nxt[0].dest).name == "seeing-event.see"
        # last element links back to root
        last = net.outgoing_by_relation("seeing-event.object", "last")
        assert net.node(last[0].dest).name == "seeing-event"
        # every element links element-of to the root
        for el in ("experiencer", "see", "object"):
            eo = net.outgoing_by_relation(f"seeing-event.{el}", "element-of")
            assert net.node(eo[0].dest).name == "seeing-event"

    def test_concept_sequence_constraints_bidirectional(self, fig5_kb):
        net = fig5_kb
        # constraint --syntax-of--> element, element --is-a--> constraint
        refl = net.outgoing_by_relation("animate", "syntax-of")
        names = {net.node(l.dest).name for l in refl}
        assert "seeing-event.experiencer" in names
        up = net.outgoing_by_relation("seeing-event.experiencer", "is-a")
        up_names = {net.node(l.dest).name for l in up}
        assert "animate" in up_names

    def test_empty_concept_sequence_rejected(self):
        builder = KnowledgeBaseBuilder()
        with pytest.raises(ValueError):
            builder.add_concept_sequence("empty", [])

    def test_auxiliary_sequence_color(self):
        builder = KnowledgeBaseBuilder()
        builder.add_concept_sequence(
            "time-case", [("when", ["time-expr"])], auxiliary=True
        )
        assert builder.network.node("time-case").color == Color.CS_AUX

    def test_add_property(self):
        builder = KnowledgeBaseBuilder()
        builder.add_class("bird", [])
        builder.add_property("bird", "flies", 0.9)
        net = builder.network
        links = net.outgoing_by_relation("bird", "has-property")
        assert net.node(links[0].dest).name == "p:flies"
        assert net.node("p:flies").color == Color.PROPERTY

    def test_build_validates(self, fig5_kb):
        # build(physical=True) must yield a valid bounded-fanout net.
        builder = KnowledgeBaseBuilder()
        builder.add_class("c", [])
        for i in range(30):
            builder.network.add_node(f"t{i}")
            builder.network.add_link("c", "r", f"t{i}")
        physical = builder.build(physical=True)
        for node in physical.nodes():
            assert physical.fanout(node.node_id) <= MAX_FANOUT
