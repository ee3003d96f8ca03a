"""4-ary hypercube: addressing, routing, diameter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import HypercubeTopology, IcnStats, TopologyError, link_key


def _hamming(topo, a, b):
    """Differing address digits between two clusters."""
    return sum(1 for x, y in zip(topo.digits(a), topo.digits(b)) if x != y)


@st.composite
def cluster_pairs(draw):
    """(num_clusters, src, dst) with both endpoints in range."""
    n = draw(st.integers(1, 64))
    src = draw(st.integers(0, n - 1))
    dst = draw(st.integers(0, n - 1))
    return n, src, dst


@st.composite
def fault_patterns(draw):
    """(num_clusters, src, dst, blocked_clusters, blocked_links)."""
    n, src, dst = draw(cluster_pairs())
    blocked_clusters = frozenset(
        draw(st.sets(st.integers(0, n - 1), max_size=min(n, 8)))
    )
    link_pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=8,
        )
    )
    blocked_links = frozenset(
        link_key(a, b) for a, b in link_pairs if a != b
    )
    return n, src, dst, blocked_clusters, blocked_links


class TestAddressing:
    def test_32_clusters_use_three_digits(self):
        topo = HypercubeTopology(32)
        assert topo.num_digits == 3

    def test_digits_little_endian(self):
        topo = HypercubeTopology(32)
        # Cluster 23 = 113 base-4 (L=3, X=1, Y=1).
        assert topo.digits(23) == (3, 1, 1)

    def test_small_machines_fewer_digits(self):
        assert HypercubeTopology(4).num_digits == 1
        assert HypercubeTopology(16).num_digits == 2

    def test_out_of_range(self):
        topo = HypercubeTopology(8)
        with pytest.raises(TopologyError):
            topo.digits(8)


class TestRouting:
    def test_same_cluster_empty_route(self):
        topo = HypercubeTopology(32)
        assert topo.route(5, 5) == []

    def test_single_digit_difference_is_direct(self):
        topo = HypercubeTopology(32)
        # 0 (000) -> 3 (300): only L digit differs.
        assert topo.route(0, 3) == [3]
        assert topo.distance(0, 3) == 1

    def test_route_ends_at_destination(self):
        topo = HypercubeTopology(32)
        assert topo.route(0, 23)[-1] == 23

    def test_route_corrects_one_digit_per_hop(self):
        topo = HypercubeTopology(32)
        path = [0] + topo.route(0, 23)
        for a, b in zip(path, path[1:]):
            da, db = topo.digits(a), topo.digits(b)
            assert sum(1 for x, y in zip(da, db) if x != y) == 1

    def test_diameter_is_three_for_32_clusters(self):
        """§III-B: at most three intermediate hops for 32 clusters."""
        topo = HypercubeTopology(32)
        worst = max(
            topo.distance(a, b) for a in range(32) for b in range(32)
        )
        assert worst == topo.num_digits == 3

    def test_dimension_names(self):
        topo = HypercubeTopology(32)
        assert topo.dimension_of_hop(0, 1) == "L"
        assert topo.dimension_of_hop(0, 4) == "X"
        assert topo.dimension_of_hop(0, 16) == "Y"

    def test_dimension_of_multi_hop_rejected(self):
        topo = HypercubeTopology(32)
        with pytest.raises(TopologyError):
            topo.dimension_of_hop(0, 23)

    def test_neighbors_board_local_first(self):
        topo = HypercubeTopology(32)
        neighbors = topo.neighbors(0)
        # Board-local: 1,2,3; X: 4,8,12; Y: 16.
        assert set(neighbors) == {1, 2, 3, 4, 8, 12, 16}

    @given(
        n=st.integers(min_value=1, max_value=32),
        src=st.integers(0, 31),
        dst=st.integers(0, 31),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_routing_reaches_destination(self, n, src, dst):
        src, dst = src % n, dst % n
        topo = HypercubeTopology(n)
        path = topo.route(src, dst)
        assert len(path) == topo.distance(src, dst)
        # Full machines route in <= num_digits hops; partially
        # populated machines may need detours, bounded by 2x.
        assert len(path) <= 2 * topo.num_digits
        if src != dst:
            assert path[-1] == dst
        else:
            assert path == []
        for hop in path:
            assert 0 <= hop < n
        # Every hop changes exactly one digit (a real memory port).
        previous = src
        for hop in path:
            da, db = topo.digits(previous), topo.digits(hop)
            assert sum(1 for x, y in zip(da, db) if x != y) == 1
            previous = hop

    @given(pair=cluster_pairs())
    @settings(max_examples=100, deadline=None)
    def test_routes_are_valid_paths(self, pair):
        """A route is a chain of single-digit hops from src to dst over
        existing clusters, on machines of 1 to 64 clusters."""
        n, src, dst = pair
        topo = HypercubeTopology(n)
        path = topo.route(src, dst)
        assert (path == []) == (src == dst)
        previous = src
        for hop in path:
            assert 0 <= hop < n
            assert _hamming(topo, previous, hop) == 1
            previous = hop
        if path:
            assert path[-1] == dst


class TestNonPowerOfFour:
    """Partially populated machines (cluster count not a power of 4)."""

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 9, 11, 13, 15, 17, 31])
    def test_all_pairs_route(self, n):
        topo = HypercubeTopology(n)
        for src in range(n):
            for dst in range(n):
                path = topo.route(src, dst)
                if src == dst:
                    assert path == []
                else:
                    assert path[-1] == dst
                for hop in path:
                    assert 0 <= hop < n

    @pytest.mark.parametrize("n", [5, 11, 31])
    def test_hops_stay_within_machine(self, n):
        """No route passes through an unpopulated cluster id."""
        topo = HypercubeTopology(n)
        for src in range(n):
            for dst in range(n):
                assert all(hop < n for hop in topo.route(src, dst))


class TestMaxHopClaim:
    """§III-B: any pair "accommodated with at most three intermediate
    hops" — i.e. path length <= num_digits on fully populated machines."""

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_full_machine_distance_bounded_by_digits(self, n):
        topo = HypercubeTopology(n)
        worst = max(
            topo.distance(a, b) for a in range(n) for b in range(n)
        )
        assert worst == topo.num_digits
        assert worst <= 3

    def test_full_machine_distance_equals_hamming(self):
        topo = HypercubeTopology(16)
        for a in range(16):
            for b in range(16):
                assert topo.distance(a, b) == _hamming(topo, a, b)


class TestRouteSymmetry:
    @pytest.mark.parametrize("n", [4, 16, 32])
    def test_distance_symmetric_on_full_machines(self, n):
        """On fully populated machines the hop count is symmetric
        (it equals the Hamming distance of the addresses)."""
        topo = HypercubeTopology(n)
        for a in range(n):
            for b in range(n):
                assert topo.distance(a, b) == topo.distance(b, a)

    def test_reverse_route_visits_same_dimensions(self):
        topo = HypercubeTopology(32)
        forward = [0] + topo.route(0, 23)
        backward = [23] + topo.route(23, 0)
        dims_fwd = sorted(
            topo.dimension_of_hop(a, b)
            for a, b in zip(forward, forward[1:])
        )
        dims_bwd = sorted(
            topo.dimension_of_hop(a, b)
            for a, b in zip(backward, backward[1:])
        )
        assert dims_fwd == dims_bwd


class TestRouteAvoiding:
    def test_no_blocks_matches_default_route(self):
        topo = HypercubeTopology(16)
        for src in range(16):
            for dst in range(16):
                assert topo.route_avoiding(src, dst) == topo.route(src, dst)

    def test_detours_around_blocked_cluster(self):
        topo = HypercubeTopology(16)
        default = topo.route(0, 5)
        blocked = frozenset([default[0]])
        detour = topo.route_avoiding(0, 5, blocked_clusters=blocked)
        assert detour is not None
        assert detour[-1] == 5
        assert not blocked & set(detour)

    def test_detours_around_dead_link(self):
        topo = HypercubeTopology(16)
        default = topo.route(0, 1)
        assert default == [1]
        dead = frozenset([link_key(0, 1)])
        detour = topo.route_avoiding(0, 1, blocked_links=dead)
        assert detour is not None
        assert detour[-1] == 1
        previous = 0
        for hop in detour:
            assert link_key(previous, hop) not in dead
            previous = hop

    def test_blocked_destination_unreachable(self):
        topo = HypercubeTopology(16)
        assert topo.route_avoiding(
            0, 5, blocked_clusters=frozenset([5])
        ) is None

    def test_isolated_source_unreachable(self):
        topo = HypercubeTopology(16)
        dead = frozenset(link_key(0, nb) for nb in topo.neighbors(0))
        assert topo.route_avoiding(0, 5, blocked_links=dead) is None

    def test_deterministic(self):
        topo = HypercubeTopology(16)
        blocked = frozenset([1, 4])
        dead = frozenset([link_key(0, 5)])
        first = topo.route_avoiding(
            0, 5, blocked_clusters=blocked, blocked_links=dead
        )
        second = topo.route_avoiding(
            0, 5, blocked_clusters=blocked, blocked_links=dead
        )
        assert first == second

    @given(pattern=fault_patterns())
    @settings(max_examples=100, deadline=None)
    def test_route_avoiding_respects_blocked_sets(self, pattern):
        n, src, dst, blocked_clusters, blocked_links = pattern
        topo = HypercubeTopology(n)
        path = topo.route_avoiding(
            src, dst, blocked_clusters, blocked_links
        )
        if path is None:
            return
        previous = src
        for hop in path:
            assert hop not in blocked_clusters
            assert link_key(previous, hop) not in blocked_links
            previous = hop
        assert previous == dst

    @given(pattern=fault_patterns())
    @settings(max_examples=100, deadline=None)
    def test_clear_canonical_route_is_taken(self, pattern):
        # The simulator skips route_avoiding when the canonical route is
        # clear; that is only sound if route_avoiding returns it then.
        n, src, dst, blocked_clusters, blocked_links = pattern
        topo = HypercubeTopology(n)
        canonical = topo.route(src, dst)
        if src not in blocked_clusters and topo.path_clear(
                src, canonical, blocked_clusters, blocked_links):
            assert topo.route_avoiding(
                src, dst, blocked_clusters, blocked_links) == canonical


class TestStats:
    def test_record_and_means(self):
        stats = IcnStats()
        stats.add_route(("L",), 3)
        stats.add_route(("L", "X", "Y"), 1)
        stats.total_latency = 12.0
        assert stats.messages == 4
        assert stats.mean_hops == 1.5
        assert stats.mean_latency == 3.0
        assert stats.hop_histogram == {1: 3, 3: 1}

    def test_dimension_counting(self):
        stats = IcnStats()
        stats.add_route(("L", "L", "X"), 2)
        assert stats.dimension_counts == {"L": 4, "X": 2}
        assert stats.to_json()["dimension_counts"] == {"L": 4, "X": 2}

    def test_empty_stats(self):
        stats = IcnStats()
        assert stats.mean_hops == 0.0
        assert stats.mean_latency == 0.0
