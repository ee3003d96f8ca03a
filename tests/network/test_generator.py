"""Synthetic KB generator: determinism, proportions, structure."""

import pytest

from repro.network import (
    Color,
    GeneratorSpec,
    HIERARCHY_ROOT,
    generate_hierarchy_kb,
    generate_kb,
    layer_histogram,
    nonlexical_proportions,
)


class TestGenerateKb:
    def test_deterministic_for_seed(self):
        a = generate_kb(GeneratorSpec(total_nodes=500, seed=3))
        b = generate_kb(GeneratorSpec(total_nodes=500, seed=3))
        assert a.num_nodes == b.num_nodes
        assert a.num_links == b.num_links
        assert [n.name for n in a.nodes()] == [n.name for n in b.nodes()]

    def test_different_seeds_differ(self):
        a = generate_kb(GeneratorSpec(total_nodes=500, seed=1))
        b = generate_kb(GeneratorSpec(total_nodes=500, seed=2))
        assert a.num_links != b.num_links or (
            [n.name for n in a.nodes()] != [n.name for n in b.nodes()]
        )

    def test_node_budget_respected(self):
        net = generate_kb(GeneratorSpec(total_nodes=2000))
        assert abs(net.num_nodes - 2000) / 2000 < 0.05

    def test_paper_layer_proportions(self):
        net = generate_kb(GeneratorSpec(total_nodes=4000))
        mix = nonlexical_proportions(net)
        assert abs(mix["concept-sequences"] - 0.75) < 0.10
        assert abs(mix["hierarchy"] - 0.15) < 0.05
        assert abs(mix["syntax"] - 0.05) < 0.03

    def test_lexical_fraction(self):
        net = generate_kb(GeneratorSpec(total_nodes=3000))
        hist = layer_histogram(net)
        lexical_share = hist["lexical"] / net.num_nodes
        assert abs(lexical_share - 0.33) < 0.05

    def test_mean_fanout_near_paper(self):
        # Paper KB: 12K nodes / 48K links => mean fanout ~4; ours is
        # built to land in the 2.5-4.5 band.
        net = generate_kb(GeneratorSpec(total_nodes=4000))
        mean = net.num_links / net.num_nodes
        assert 2.0 < mean < 5.0

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(cs_fraction=0.9, hierarchy_fraction=0.3)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(total_nodes=10)

class TestHierarchyKb:
    def test_structure(self):
        net = generate_hierarchy_kb(100, branching=4)
        # 100 concepts + property nodes.
        concepts = [
            n for n in net.nodes() if n.color == Color.SEMANTIC
        ]
        assert len(concepts) == 100
        assert HIERARCHY_ROOT in net

    def test_every_nonroot_has_is_a_parent(self):
        net = generate_hierarchy_kb(60)
        root = net.resolve(HIERARCHY_ROOT)
        for node in net.nodes():
            if node.color != Color.SEMANTIC or node.node_id == root:
                continue
            assert net.outgoing_by_relation(node.node_id, "is-a")

    def test_downward_links_installed(self):
        net = generate_hierarchy_kb(60)
        down = net.outgoing_by_relation(HIERARCHY_ROOT, "inverse:is-a")
        assert len(down) == 4  # branching children of the root

    def test_properties_at_root(self):
        net = generate_hierarchy_kb(50, properties_at_root=3)
        props = net.outgoing_by_relation(HIERARCHY_ROOT, "has-property")
        assert len(props) == 3

    def test_reachability_root_to_all(self):
        net = generate_hierarchy_kb(80)
        seen = set()
        frontier = [net.resolve(HIERARCHY_ROOT)]
        while frontier:
            nid = frontier.pop()
            if nid in seen:
                continue
            seen.add(nid)
            frontier.extend(
                l.dest for l in net.outgoing_by_relation(nid, "inverse:is-a")
            )
        concepts = {
            n.node_id for n in net.nodes() if n.color == Color.SEMANTIC
        }
        assert concepts <= seen
