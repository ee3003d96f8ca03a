"""The three Fig. 4 tables: status bits, node properties, relations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tables import (
    ClusterTables,
    MarkerStatusTable,
    NodeTable,
    RelationEntry,
    RelationTable,
    TableError,
    WORD_BITS,
    build_tables,
)
from repro.isa import binary_marker, complex_marker
from repro.network import (
    SemanticNetwork,
    preprocess_fanout,
    round_robin_partition,
)
from repro.network.builder import CONT_RELATION


class TestMarkerStatusTable:
    def test_set_test_clear(self):
        table = MarkerStatusTable(100)
        assert not table.test(3, 42)
        assert table.set(3, 42) is True       # was clear
        assert table.test(3, 42)
        assert table.set(3, 42) is False      # already set
        table.clear(3, 42)
        assert not table.test(3, 42)

    def test_word_packing(self):
        table = MarkerStatusTable(100)
        assert table.num_words == 4  # ceil(100/32)

    def test_set_all_respects_tail_mask(self):
        table = MarkerStatusTable(40)
        table.set_all(2)
        assert table.count(2) == 40  # padding bits not counted

    def test_clear_all(self):
        table = MarkerStatusTable(64)
        table.set_all(1)
        table.clear_all(1)
        assert table.count(1) == 0
        assert not table.any(1)

    def test_and_rows(self):
        table = MarkerStatusTable(70)
        for node in (0, 31, 32, 69):
            table.set(1, node)
        for node in (31, 32, 50):
            table.set(2, node)
        words = table.and_rows(1, 2, 3)
        assert words == table.num_words
        assert table.nodes_with(3) == [31, 32]

    def test_or_rows(self):
        table = MarkerStatusTable(40)
        table.set(1, 0)
        table.set(2, 39)
        table.or_rows(1, 2, 3)
        assert table.nodes_with(3) == [0, 39]

    def test_empty_table_has_no_padding_nodes(self):
        # A cluster that hosts no node still has one status word; no
        # whole-row write may set a bit in it.
        table = MarkerStatusTable(0)
        table.set_all(1)
        table.not_row(2, 3)
        assert table.nodes_with(1) == [] and table.nodes_with(3) == []
        assert not table.any(1) and not table.any(3)

    def test_not_row_keeps_padding_clear(self):
        table = MarkerStatusTable(40)
        table.set(1, 5)
        table.not_row(1, 2)
        expected = [n for n in range(40) if n != 5]
        assert table.nodes_with(2) == expected

    def test_nodes_with_ascending(self):
        table = MarkerStatusTable(200)
        for node in (199, 3, 64, 31):
            table.set(9, node)
        assert table.nodes_with(9) == [3, 31, 64, 199]

    def test_row_view_readonly(self):
        table = MarkerStatusTable(32)
        row = table.row(0)
        with pytest.raises(ValueError):
            row[0] = 1

    def test_grow_within_word(self):
        table = MarkerStatusTable(30)
        table.set(1, 29)
        table.grow(2)
        assert table.num_nodes == 32
        table.set(1, 31)
        assert table.nodes_with(1) == [29, 31]

    def test_grow_adds_words(self):
        table = MarkerStatusTable(32)
        table.set(1, 31)
        table.grow(1)
        assert table.num_words == 2
        table.set_all(2)
        assert table.count(2) == 33

    @given(
        nodes=st.integers(min_value=1, max_value=130),
        picks=st.lists(st.integers(min_value=0, max_value=129), max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_reference_set(self, nodes, picks):
        """Bit-packed table behaves exactly like a Python set."""
        table = MarkerStatusTable(nodes)
        reference = set()
        for p in picks:
            node = p % nodes
            table.set(5, node)
            reference.add(node)
        assert table.nodes_with(5) == sorted(reference)
        assert table.count(5) == len(reference)
        table.not_row(5, 6)
        assert table.nodes_with(6) == sorted(
            set(range(nodes)) - reference
        )


class TestNodeTable:
    def test_complex_value_and_origin(self):
        table = NodeTable(10)
        marker = complex_marker(3)
        table.set_value(4, marker, 2.5, origin=77)
        assert table.get_value(4, marker) == 2.5
        assert table.get_origin(4, marker) == 77

    def test_binary_marker_values_ignored(self):
        table = NodeTable(10)
        marker = binary_marker(3)
        table.set_value(4, marker, 2.5, origin=77)
        assert table.get_value(4, marker) == 0.0
        assert table.get_origin(4, marker) == -1

    def test_clear_value(self):
        table = NodeTable(5)
        table.set_value(1, 0, 9.0, 3)
        table.clear_value(1, 0)
        assert table.get_value(1, 0) == 0.0
        assert table.get_origin(1, 0) == -1

    def test_float32_storage(self):
        table = NodeTable(2)
        table.set_value(0, 0, 1.0e-3)
        assert abs(table.get_value(0, 0) - 1.0e-3) < 1e-9

    def test_grow(self):
        table = NodeTable(3)
        table.set_value(2, 0, 5.0, 1)
        table.grow(2)
        assert table.num_nodes == 5
        assert table.get_value(2, 0) == 5.0
        table.set_value(4, 0, 6.0, 2)
        assert table.get_value(4, 0) == 6.0


class TestRelationTable:
    def entry(self, rel=1, dc=0, dl=0, dg=0, w=0.0):
        return RelationEntry(rel, dc, dl, dg, w)

    def test_add_and_entries(self):
        table = RelationTable(4, cont_relation_id=None)
        table.add(0, self.entry(rel=5, dg=3, w=1.5))
        entries = table.entries(0)
        assert entries == [self.entry(rel=5, dg=3, w=1.5)]

    def test_overflow_spills(self):
        table = RelationTable(1, cont_relation_id=None)
        for i in range(20):
            table.add(0, self.entry(rel=i, dg=i))
        assert len(table.entries(0)) == 20

    def test_remove_compacts(self):
        table = RelationTable(1, cont_relation_id=None)
        for i in range(3):
            table.add(0, self.entry(rel=i, dg=i))
        assert table.remove(0, 1, 1)
        entries = table.entries(0)
        assert [e.relation for e in entries] == [0, 2]
        assert not table.remove(0, 1, 1)

    def test_remove_from_overflow(self):
        table = RelationTable(1, cont_relation_id=None)
        for i in range(18):
            table.add(0, self.entry(rel=i, dg=i))
        assert table.remove(0, 17, 17)
        assert len(table.entries(0)) == 17

    def test_links_of_walks_continuation(self):
        cont = 99
        table = RelationTable(2, cont_relation_id=cont)
        table.add(0, self.entry(rel=1, dg=10))
        table.add(0, RelationEntry(cont, 0, 1, 1, 0.0))  # continue at local 1
        table.add(1, self.entry(rel=2, dg=20))
        entries = table.entries(0)
        assert [e.relation for e in entries] == [1, 2]
        assert table.links_of(0)[0] == 3  # slots scanned

    def test_continuation_cycle_detected(self):
        cont = 99
        table = RelationTable(2, cont_relation_id=cont)
        table.add(0, RelationEntry(cont, 0, 1, 1, 0.0))
        table.add(1, RelationEntry(cont, 0, 0, 0, 0.0))
        with pytest.raises(TableError):
            table.links_of(0)

    def test_grow(self):
        table = RelationTable(1, cont_relation_id=None)
        table.add(0, self.entry(rel=1))
        table.grow(1)
        table.add(1, self.entry(rel=2))
        assert table.entries(1)[0].relation == 2
        assert table.entries(0)[0].relation == 1


class TestBuildTables:
    def make_net(self, hub_fanout=0):
        net = SemanticNetwork()
        for i in range(6):
            net.add_node(f"n{i}")
        net.add_link("n0", "r", "n1", 1.0)
        net.add_link("n1", "r", "n2", 2.0)
        for i in range(hub_fanout):
            net.add_node(f"h{i}")
            net.add_link("n3", "r", f"h{i}")
        return net

    def test_addresses_consistent(self):
        net = self.make_net()
        part = round_robin_partition(net, 3)
        tables = build_tables(net, part)
        for cluster in tables:
            for gid, lid in cluster.to_local.items():
                assert cluster.to_global[lid] == gid

    def test_relation_slots_point_to_correct_cluster(self):
        net = self.make_net()
        part = round_robin_partition(net, 3)
        tables = build_tables(net, part)
        src_c, src_l = part.address_of(net.resolve("n0"))
        entries = tables[src_c].relations.entries(src_l)
        assert len(entries) == 1
        dest = entries[0]
        assert dest.dest_global == net.resolve("n1")
        assert tables[dest.dest_cluster].to_global[dest.dest_local] == (
            net.resolve("n1")
        )

    def test_subnodes_rehomed_with_parent(self):
        net = preprocess_fanout(self.make_net(hub_fanout=40))
        part = round_robin_partition(net, 4)
        tables = build_tables(net, part)
        parent_gid = net.resolve("n3")
        parent_cluster = None
        for cluster in tables:
            if parent_gid in cluster.to_local:
                parent_cluster = cluster
        for node in net.nodes():
            if node.parent_id == parent_gid:
                assert node.node_id in parent_cluster.to_local

    def test_continuation_chain_local_and_complete(self):
        net = preprocess_fanout(self.make_net(hub_fanout=40))
        part = round_robin_partition(net, 4)
        tables = build_tables(net, part)
        cid, lid = None, None
        for cluster in tables:
            gid = net.resolve("n3")
            if gid in cluster.to_local:
                cid, lid = cluster.cluster_id, cluster.to_local[gid]
        entries = tables[cid].relations.entries(lid)
        assert len(entries) == 40

    def test_capacity_enforced(self):
        net = self.make_net()
        part = round_robin_partition(net, 2)
        with pytest.raises(TableError):
            build_tables(net, part, capacity=3)

    def test_cluster_add_node(self):
        net = self.make_net()
        part = round_robin_partition(net, 2)
        tables = build_tables(net, part)
        before = tables[0].num_nodes
        local = tables[0].add_node(global_id=500, color=7)
        assert tables[0].num_nodes == before + 1
        assert tables[0].to_local[500] == local
        assert tables[0].node_table.color[local] == 7
