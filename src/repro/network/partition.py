"""Partitioning the semantic network across clusters.

The knowledge base is stored distributed: *"A partitioning function is
applied to divide the network into regions.  Each region is allocated
to a cluster which processes all of its concepts, relations, and
markers.  The mapping function is variable with up to 1024 nodes per
cluster using sequential, round-robin, or semantically-based
allocation"* (paper §II-A).

All three allocation policies are implemented.  A
:class:`Partitioning` resolves global node ids to (cluster, local id)
pairs — the two fields of the relation table's destination-node entry.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from .graph import SemanticNetwork

#: Paper §II-A: granularity is at most 1024 nodes per cluster.
MAX_NODES_PER_CLUSTER = 1024


class PartitionError(ValueError):
    """Raised when a network cannot be partitioned as requested."""


class Partitioning:
    """An assignment of every node to exactly one cluster.

    Provides O(1) translation between global node ids and the
    (cluster, local-id) addressing used by the machine's relation
    table.
    """

    def __init__(self, assignment: Sequence[int], num_clusters: int) -> None:
        if num_clusters < 1:
            raise PartitionError("need at least one cluster")
        self.num_clusters = num_clusters
        self._cluster_of: List[int] = list(assignment)
        self._members: List[List[int]] = [[] for _ in range(num_clusters)]
        self._local_of: List[int] = [0] * len(self._cluster_of)
        for nid, cluster in enumerate(self._cluster_of):
            if not 0 <= cluster < num_clusters:
                raise PartitionError(
                    f"node {nid} assigned to invalid cluster {cluster}"
                )
            self._local_of[nid] = len(self._members[cluster])
            self._members[cluster].append(nid)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._cluster_of)

    def cluster_of(self, node_id: int) -> int:
        """Cluster holding ``node_id``."""
        return self._cluster_of[node_id]

    def address_of(self, node_id: int) -> Tuple[int, int]:
        """(cluster, local id) — the relation-table destination fields."""
        return self._cluster_of[node_id], self._local_of[node_id]

    def global_id(self, cluster: int, local: int) -> int:
        """Inverse of :meth:`address_of`."""
        return self._members[cluster][local]

    def members(self, cluster: int) -> List[int]:
        """Global ids of the nodes stored on ``cluster``."""
        return list(self._members[cluster])

    def sizes(self) -> List[int]:
        """Node count per cluster."""
        return [len(m) for m in self._members]

    def cut_links(self, network: SemanticNetwork) -> int:
        """Number of links crossing cluster boundaries.

        Cross-cluster links generate activation-message traffic during
        propagation, so a good semantic partition minimizes this.
        """
        return sum(
            1
            for link in network.links()
            if self._cluster_of[link.source] != self._cluster_of[link.dest]
        )


def _check_capacity(
    num_nodes: int, num_clusters: int, capacity: int
) -> None:
    if num_clusters < 1:
        raise PartitionError("need at least one cluster")
    if num_nodes > num_clusters * capacity:
        raise PartitionError(
            f"{num_nodes} nodes exceed capacity of "
            f"{num_clusters} clusters x {capacity} nodes"
        )


def sequential_partition(
    network: SemanticNetwork,
    num_clusters: int,
    capacity: int = MAX_NODES_PER_CLUSTER,
) -> Partitioning:
    """Contiguous blocks of node ids per cluster."""
    n = network.num_nodes
    _check_capacity(n, num_clusters, capacity)
    if n == 0:
        return Partitioning([], num_clusters)
    block = -(-n // num_clusters)  # ceil division
    block = min(block, capacity) if block else 1
    if block * num_clusters < n:
        block = -(-n // num_clusters)
    assignment = [min(nid // block, num_clusters - 1) for nid in range(n)]
    return Partitioning(assignment, num_clusters)


def round_robin_partition(
    network: SemanticNetwork,
    num_clusters: int,
    capacity: int = MAX_NODES_PER_CLUSTER,
) -> Partitioning:
    """Node ``i`` goes to cluster ``i mod num_clusters`` (best balance)."""
    n = network.num_nodes
    _check_capacity(n, num_clusters, capacity)
    return Partitioning([nid % num_clusters for nid in range(n)], num_clusters)


def semantic_partition(
    network: SemanticNetwork,
    num_clusters: int,
    capacity: int = MAX_NODES_PER_CLUSTER,
) -> Partitioning:
    """Locality-preserving allocation by breadth-first region growing.

    Grows connected regions so that semantically related concepts (which
    exchange the most markers) land on the same cluster, reducing
    cross-cluster activation traffic.  Regions are capped at
    ``ceil(n / num_clusters)`` nodes to stay balanced.
    """
    n = network.num_nodes
    _check_capacity(n, num_clusters, capacity)
    if n == 0:
        return Partitioning([], num_clusters)
    target = min(-(-n // num_clusters), capacity)
    assignment = [-1] * n
    # Undirected adjacency for region growing.
    neighbors: List[List[int]] = [[] for _ in range(n)]
    for link in network.links():
        neighbors[link.source].append(link.dest)
        neighbors[link.dest].append(link.source)

    cluster = 0
    filled = 0
    queue: deque = deque()
    for seed in range(n):
        if assignment[seed] != -1:
            continue
        queue.append(seed)
        while queue:
            nid = queue.popleft()
            if assignment[nid] != -1:
                continue
            if filled >= target and cluster < num_clusters - 1:
                cluster += 1
                filled = 0
            assignment[nid] = cluster
            filled += 1
            for nb in neighbors[nid]:
                if assignment[nb] == -1:
                    queue.append(nb)
    return Partitioning(assignment, num_clusters)


#: Label-propagation rounds before the detector gives up on full
#: convergence (asynchronous LPA converges in a handful of rounds on
#: the KB generators' graphs; the cap only bounds adversarial inputs).
MAX_LPA_ROUNDS = 16


def detect_communities(network: SemanticNetwork) -> List[List[int]]:
    """Deterministic community detection by label propagation.

    Asynchronous label propagation over the undirected link structure
    (the GraphRAG-style community-clustering recipe): every node starts
    as its own community and repeatedly adopts the most frequent label
    among its neighbours.  All tie-breaks are by **lowest label**, and
    nodes are visited in ascending id order, so the result is a pure
    function of the graph — no RNG is drawn and repeated runs (with or
    without a seed anywhere upstream) produce identical communities.

    Returns member lists (each ascending by node id), ordered largest
    community first with ties broken by smallest member id.  An empty
    network yields no communities; a fully connected one yields exactly
    one (single-community inputs are legal — the partitioners split
    them by BFS order instead of raising).
    """
    n = network.num_nodes
    if n == 0:
        return []
    neighbors: List[List[int]] = [[] for _ in range(n)]
    for link in network.links():
        neighbors[link.source].append(link.dest)
        neighbors[link.dest].append(link.source)
    labels = list(range(n))
    for _ in range(MAX_LPA_ROUNDS):
        changed = False
        for nid in range(n):
            if not neighbors[nid]:
                continue
            tally: Dict[int, int] = {}
            for nb in neighbors[nid]:
                label = labels[nb]
                tally[label] = tally.get(label, 0) + 1
            # Most frequent neighbour label; ties -> lowest label (the
            # deterministic tie-break that keeps partitions stable).
            best = min(
                tally, key=lambda label: (-tally[label], label)
            )
            if best != labels[nid]:
                labels[nid] = best
                changed = True
        if not changed:
            break
    members: Dict[int, List[int]] = {}
    for nid, label in enumerate(labels):
        members.setdefault(label, []).append(nid)
    return sorted(members.values(), key=lambda m: (-len(m), m[0]))


def _bfs_order(members: List[int], neighbors: List[List[int]]) -> List[int]:
    """Members of one community in BFS order from its lowest id.

    Used to split an oversized community into locality-preserving
    chunks: consecutive BFS positions are graph-adjacent, so a chunk
    boundary cuts as few intra-community links as a greedy sweep can.
    """
    member_set = set(members)
    order: List[int] = []
    seen: Set[int] = set()
    for seed in members:  # ascending; covers disconnected parts
        if seed in seen:
            continue
        queue: deque = deque((seed,))
        seen.add(seed)
        while queue:
            nid = queue.popleft()
            order.append(nid)
            for nb in sorted(neighbors[nid]):
                if nb in member_set and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
    return order


def community_partition(
    network: SemanticNetwork,
    num_clusters: int,
    capacity: int = MAX_NODES_PER_CLUSTER,
) -> Partitioning:
    """Community-aligned allocation (label propagation + bin packing).

    Detects communities with :func:`detect_communities`, splits any
    community larger than the balanced target into BFS-ordered chunks,
    and packs chunks onto clusters largest-first, least-loaded-first
    (ties by lowest cluster id).  A chunk that would overflow the
    least-loaded cluster's remaining capacity is split at the
    boundary, so packing always succeeds whenever
    ``n <= num_clusters * capacity``.

    Handles the degenerate inputs explicitly: an **empty network**
    partitions into ``num_clusters`` empty clusters, and a
    **single-community network** is split by BFS order rather than
    raising.  Everything is deterministic — same graph, same
    partition, run after run.
    """
    n = network.num_nodes
    _check_capacity(n, num_clusters, capacity)
    if n == 0:
        return Partitioning([], num_clusters)
    neighbors: List[List[int]] = [[] for _ in range(n)]
    for link in network.links():
        neighbors[link.source].append(link.dest)
        neighbors[link.dest].append(link.source)
    target = min(-(-n // num_clusters), capacity)
    chunks: List[List[int]] = []
    for community in detect_communities(network):
        if len(community) <= target:
            chunks.append(community)
            continue
        ordered = _bfs_order(community, neighbors)
        chunks.extend(
            ordered[i:i + target] for i in range(0, len(ordered), target)
        )
    chunks.sort(key=lambda chunk: (-len(chunk), chunk[0]))
    assignment = [-1] * n
    loads = [0] * num_clusters
    for chunk in chunks:
        rest = chunk
        while rest:
            cluster = min(
                range(num_clusters), key=lambda c: (loads[c], c)
            )
            room = capacity - loads[cluster]
            placed, rest = rest[:room], rest[room:]
            for nid in placed:
                assignment[nid] = cluster
            loads[cluster] += len(placed)
    return Partitioning(assignment, num_clusters)


def evict_clusters(
    partitioning: Partitioning, excluded: Iterable[int]
) -> Tuple[Partitioning, int]:
    """Remap every node off the ``excluded`` clusters onto survivors.

    The graceful-degradation allocator: when clusters fail, their
    region of the semantic network is evicted onto the surviving
    clusters, least-loaded first (ties broken by lowest cluster id),
    instead of crashing the machine.  Nodes are visited in global-id
    order, so the remap is deterministic.

    Returns ``(new_partitioning, nodes_moved)``.  Capacity is *not*
    re-enforced — a heavily degraded machine may pack survivors past
    the prototype's per-cluster limit, which the simulator surfaces as
    slowdown rather than failure.
    """
    excluded_set = set(excluded)
    survivors = [
        c for c in range(partitioning.num_clusters) if c not in excluded_set
    ]
    if not survivors:
        raise PartitionError("cannot evict every cluster")
    sizes = partitioning.sizes()
    assignment = [
        partitioning.cluster_of(nid) for nid in range(partitioning.num_nodes)
    ]
    heap = [(sizes[c], c) for c in survivors]
    heapq.heapify(heap)
    moved = 0
    for nid in range(len(assignment)):
        if assignment[nid] not in excluded_set:
            continue
        size, cid = heapq.heappop(heap)
        assignment[nid] = cid
        heapq.heappush(heap, (size + 1, cid))
        moved += 1
    return Partitioning(assignment, partitioning.num_clusters), moved


#: Registry of allocation policies by name (paper §II-A).
PARTITIONERS: Dict[str, Callable[..., Partitioning]] = {
    "sequential": sequential_partition,
    "round-robin": round_robin_partition,
    "semantic": semantic_partition,
    "community": community_partition,
}


def make_partition(
    network: SemanticNetwork,
    num_clusters: int,
    policy: str = "round-robin",
    capacity: int = MAX_NODES_PER_CLUSTER,
) -> Partitioning:
    """Partition ``network`` using a named policy."""
    try:
        partitioner = PARTITIONERS[policy]
    except KeyError:
        raise PartitionError(
            f"unknown partition policy {policy!r}; "
            f"choose from {sorted(PARTITIONERS)}"
        ) from None
    return partitioner(network, num_clusters, capacity)
