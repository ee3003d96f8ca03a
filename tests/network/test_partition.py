"""Partitioning policies: coverage, balance, addressing, locality."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import (
    PartitionError,
    Partitioning,
    SemanticNetwork,
    community_partition,
    detect_communities,
    make_partition,
    round_robin_partition,
    semantic_partition,
    sequential_partition,
)


def line_network(n: int) -> SemanticNetwork:
    net = SemanticNetwork()
    net.add_node("n0")
    for i in range(1, n):
        net.add_node(f"n{i}")
        net.add_link(f"n{i-1}", "r", f"n{i}")
    return net


def clustered_network(groups: int, size: int) -> SemanticNetwork:
    """Disconnected cliques — the ideal case for semantic allocation."""
    net = SemanticNetwork()
    for g in range(groups):
        names = [f"g{g}n{i}" for i in range(size)]
        for name in names:
            net.add_node(name)
        for a in names:
            for b in names:
                if a != b:
                    net.add_link(a, "r", b)
    return net


ALL_POLICIES = ["sequential", "round-robin", "semantic", "community"]


class TestCoverage:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("clusters", [1, 2, 7, 16])
    def test_every_node_assigned_exactly_once(self, policy, clusters):
        net = line_network(50)
        part = make_partition(net, clusters, policy)
        seen = []
        for cid in range(clusters):
            seen.extend(part.members(cid))
        assert sorted(seen) == list(range(50))

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_address_roundtrip(self, policy):
        net = line_network(30)
        part = make_partition(net, 4, policy)
        for nid in range(30):
            cluster, local = part.address_of(nid)
            assert part.global_id(cluster, local) == nid
            assert part.cluster_of(nid) == cluster

    def test_unknown_policy(self):
        with pytest.raises(PartitionError):
            make_partition(line_network(5), 2, "magic")

    def test_capacity_violation(self):
        with pytest.raises(PartitionError):
            make_partition(line_network(50), 2, "round-robin", capacity=10)

    def test_zero_clusters_rejected(self):
        with pytest.raises(PartitionError):
            round_robin_partition(line_network(5), 0)


class TestBalance:
    def test_round_robin_is_maximally_balanced(self):
        part = round_robin_partition(line_network(37), 5)
        sizes = part.sizes()
        assert max(sizes) - min(sizes) <= 1

    def test_sequential_blocks_are_contiguous(self):
        part = sequential_partition(line_network(40), 4)
        for cid in range(4):
            members = part.members(cid)
            assert members == list(range(members[0], members[0] + len(members)))

    def test_semantic_respects_target(self):
        net = clustered_network(groups=4, size=10)
        part = semantic_partition(net, 4)
        assert max(part.sizes()) <= 10


class TestLocality:
    def test_semantic_beats_round_robin_on_clustered_graph(self):
        net = clustered_network(groups=8, size=8)
        semantic_cut = semantic_partition(net, 8).cut_links(net)
        rr_cut = round_robin_partition(net, 8).cut_links(net)
        assert semantic_cut < rr_cut

    def test_semantic_perfect_on_disconnected_cliques(self):
        net = clustered_network(groups=4, size=5)
        part = semantic_partition(net, 4)
        assert part.cut_links(net) == 0

    def test_cut_links_zero_on_single_cluster(self):
        net = clustered_network(groups=2, size=4)
        part = round_robin_partition(net, 1)
        assert part.cut_links(net) == 0


class TestCommunityDetection:
    def test_empty_network_yields_no_communities(self):
        assert detect_communities(SemanticNetwork()) == []

    def test_cliques_detected_exactly(self):
        net = clustered_network(groups=3, size=5)
        communities = detect_communities(net)
        assert sorted(sorted(c) for c in communities) == [
            list(range(g * 5, g * 5 + 5)) for g in range(3)
        ]

    def test_deterministic_run_to_run(self):
        net = clustered_network(groups=4, size=6)
        assert detect_communities(net) == detect_communities(net)

    def test_ordering_largest_first_lowest_member_tiebreak(self):
        net = clustered_network(groups=3, size=4)
        communities = detect_communities(net)
        sizes = [len(c) for c in communities]
        assert sizes == sorted(sizes, reverse=True)
        # Equal sizes: ordered by smallest member id.
        firsts = [c[0] for c in communities]
        assert firsts == sorted(firsts)


class TestCommunityPartition:
    def test_empty_network_partitions_cleanly(self):
        part = community_partition(SemanticNetwork(), 4)
        assert part.num_nodes == 0
        assert part.sizes() == [0, 0, 0, 0]

    def test_single_community_split_instead_of_raising(self):
        # One fully connected component larger than any cluster: the
        # BFS-order split must apportion it without error.
        net = clustered_network(groups=1, size=12)
        part = community_partition(net, 4)
        seen = sorted(
            nid for cid in range(4) for nid in part.members(cid)
        )
        assert seen == list(range(12))
        assert max(part.sizes()) <= 3

    def test_perfect_on_disconnected_cliques(self):
        net = clustered_network(groups=4, size=5)
        part = community_partition(net, 4)
        assert part.cut_links(net) == 0

    def test_beats_round_robin_on_clustered_graph(self):
        net = clustered_network(groups=8, size=8)
        community_cut = community_partition(net, 8).cut_links(net)
        rr_cut = round_robin_partition(net, 8).cut_links(net)
        assert community_cut < rr_cut

    def test_deterministic_run_to_run(self):
        net = clustered_network(groups=4, size=7)
        a = community_partition(net, 3)
        b = community_partition(net, 3)
        assert [a.members(c) for c in range(3)] == \
               [b.members(c) for c in range(3)]

    def test_capacity_respected(self):
        net = line_network(20)
        part = community_partition(net, 4, capacity=5)
        assert max(part.sizes()) <= 5


class TestPartitioningObject:
    def test_invalid_assignment_rejected(self):
        with pytest.raises(PartitionError):
            Partitioning([0, 5, 0], num_clusters=2)

    def test_num_nodes(self):
        part = Partitioning([0, 1, 0, 1], num_clusters=2)
        assert part.num_nodes == 4
        assert part.sizes() == [2, 2]


@given(
    n=st.integers(min_value=1, max_value=120),
    clusters=st.integers(min_value=1, max_value=16),
    policy=st.sampled_from(ALL_POLICIES),
)
@settings(max_examples=60, deadline=None)
def test_property_partition_covers_all_nodes(n, clusters, policy):
    net = line_network(n)
    part = make_partition(net, clusters, policy, capacity=max(1, n))
    seen = sorted(
        nid for cid in range(clusters) for nid in part.members(cid)
    )
    assert seen == list(range(n))
    # Locals are dense per cluster.
    for cid in range(clusters):
        members = part.members(cid)
        for index, nid in enumerate(members):
            assert part.address_of(nid) == (cid, index)
