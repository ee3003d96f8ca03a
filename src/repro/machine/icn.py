"""4-ary hypercube interconnection network topology (paper §III-B).

Clusters are addressed by base-4 digits: the 5-bit cluster address *"is
paired to form modulo-4 fields"* — an L digit selecting one of the four
clusters on a board, an X digit selecting the board column, and a Y
digit selecting the board row.  A CU reaches directly every CU whose
address differs in exactly one digit (they share an L-, X-, or
Y-memory), so routing corrects one digit per hop and any pair is
*"accommodated with at most three intermediate hops"*.

The topology generalizes to any cluster count by using
``ceil(log4(n))`` digits, which the cluster-sweep experiments rely on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import permutations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

#: Digit names in routing order (board-local first, then x, then y).
DIMENSION_NAMES = ("L", "X", "Y")

#: Radix of each address digit.
RADIX = 4


class TopologyError(ValueError):
    """Raised for invalid cluster addresses."""


def link_key(a: int, b: int) -> Tuple[int, int]:
    """Canonical (undirected) key for the link between two clusters."""
    return (a, b) if a < b else (b, a)


class HypercubeTopology:
    """Base-4 digit addressing and dimension-ordered routing.

    Address digits and neighbor lists are tables built once per
    topology.  Routes are not memoized here: routing is a pure
    function of ``(src, dst)`` and the fault state, and a machine
    routes each pair once per fault state into its transport table
    (see ``docs/PERF.md``).
    """

    def __init__(self, num_clusters: int) -> None:
        if num_clusters < 1:
            raise TopologyError("need at least one cluster")
        self.num_clusters = num_clusters
        self.num_digits = 1
        while RADIX ** self.num_digits < num_clusters:
            self.num_digits += 1
        digit_count = self.num_digits
        table = []
        for cluster in range(num_clusters):
            out = []
            value = cluster
            for _ in range(digit_count):
                out.append(value % RADIX)
                value //= RADIX
            table.append(tuple(out))
        #: Precomputed base-4 digits for every cluster id.
        self._digit_table: Tuple[Tuple[int, ...], ...] = tuple(table)
        self._neighbor_table: List[Optional[List[int]]] = [None] * num_clusters

    def digits(self, cluster: int) -> Tuple[int, ...]:
        """Base-4 address digits, least significant (L) first."""
        self._check(cluster)
        return self._digit_table[cluster]

    def _check(self, cluster: int) -> None:
        if not 0 <= cluster < self.num_clusters:
            raise TopologyError(
                f"cluster {cluster} outside [0, {self.num_clusters})"
            )

    def distance(self, src: int, dst: int) -> int:
        """Actual hop count of the routed path."""
        return len(self.route(src, dst))

    def _value(self, digits: List[int]) -> int:
        value = 0
        for digit in reversed(digits):
            value = value * RADIX + digit
        return value

    def route(
        self, src: int, dst: int, order: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Dimension-ordered path from ``src`` to ``dst``.

        Returns the sequence of clusters *after* ``src`` (ending at
        ``dst``); empty when ``src == dst``.  Each step corrects one
        address digit — preferring the lowest (messages use the
        board-local L-memory first, then cross boards in X, then Y),
        or following ``order`` (a permutation of digit indices) when
        one is given; alternate digit orders are how fault-aware
        routing detours around a dead link or cluster.
        On partially populated machines (cluster count not a power of
        4) a correction whose intermediate cluster does not exist is
        skipped in favor of another digit; zeroing a digit is always a
        valid fallback since it strictly decreases the cluster id.
        """
        self._check(src)
        self._check(dst)
        dims: Sequence[int] = (
            range(self.num_digits) if order is None else order
        )
        path: List[int] = []
        current = list(self.digits(src))
        target = list(self.digits(dst))
        guard = 0
        while current != target:
            guard += 1
            if guard > 4 * self.num_digits:
                raise TopologyError(
                    f"routing {src}->{dst} failed to converge"
                )
            hop = None
            for dim in dims:
                if current[dim] == target[dim]:
                    continue
                candidate = list(current)
                candidate[dim] = target[dim]
                value = self._value(candidate)
                if value < self.num_clusters:
                    current = candidate
                    hop = value
                    break
            if hop is None:
                # Zero the highest nonzero differing digit: the id
                # strictly decreases, so the hop always exists.
                for dim in reversed(range(self.num_digits)):
                    if current[dim] != target[dim] and current[dim] != 0:
                        candidate = list(current)
                        candidate[dim] = 0
                        current = candidate
                        hop = self._value(candidate)
                        break
            if hop is None:  # pragma: no cover - unreachable
                raise TopologyError(f"no valid hop from {current}")
            path.append(hop)
        return path

    def path_clear(
        self,
        src: int,
        path: List[int],
        blocked_clusters: FrozenSet[int],
        blocked_links: FrozenSet[Tuple[int, int]],
    ) -> bool:
        """Whether a path avoids every blocked cluster and link."""
        previous = src
        for hop in path:
            if hop in blocked_clusters:
                return False
            if link_key(previous, hop) in blocked_links:
                return False
            previous = hop
        return True

    def route_avoiding(
        self,
        src: int,
        dst: int,
        blocked_clusters: FrozenSet[int] = frozenset(),
        blocked_links: FrozenSet[Tuple[int, int]] = frozenset(),
    ) -> Optional[List[int]]:
        """Fault-aware route around dead clusters and links.

        Tries the canonical dimension order first, then every
        alternate digit order (a detour through a different memory
        dimension), and finally a breadth-first search over the
        surviving adjacency.  Returns ``None`` when the pair is
        unreachable — the caller must treat the message as lost.
        Deterministic: digit orders are tried in lexicographic order
        and the BFS expands neighbors in sorted order.
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return []
        if src in blocked_clusters or dst in blocked_clusters:
            return None
        orders = (
            permutations(range(self.num_digits))
            if self.num_digits <= 4
            else (tuple(range(self.num_digits)),)
        )
        for order in orders:
            try:
                path = self.route(src, dst, order=order)
            except TopologyError:
                continue
            if self.path_clear(src, path, blocked_clusters, blocked_links):
                return path
        # All digit orders blocked: BFS detour over surviving links.
        previous = {src: -1}
        frontier = deque([src])
        while frontier:
            current = frontier.popleft()
            for neighbor in self.neighbors(current):
                if neighbor in previous or neighbor in blocked_clusters:
                    continue
                if link_key(current, neighbor) in blocked_links:
                    continue
                previous[neighbor] = current
                if neighbor == dst:
                    path = [dst]
                    node = current
                    while node != src:
                        path.append(node)
                        node = previous[node]
                    return list(reversed(path))
                frontier.append(neighbor)
        return None

    def neighbors(self, cluster: int) -> List[int]:
        """All clusters directly reachable (one digit differs).

        Memoized per cluster; callers receive a fresh copy.
        """
        self._check(cluster)
        cached = self._neighbor_table[cluster]
        if cached is not None:
            return list(cached)
        digits = list(self.digits(cluster))
        out = []
        for dim in range(self.num_digits):
            for value in range(RADIX):
                if value == digits[dim]:
                    continue
                candidate = list(digits)
                candidate[dim] = value
                cid = 0
                for digit_index in reversed(range(self.num_digits)):
                    cid = cid * RADIX + candidate[digit_index]
                if cid < self.num_clusters:
                    out.append(cid)
        out.sort()
        self._neighbor_table[cluster] = out
        return list(out)

    def dimension_of_hop(self, src: int, dst: int) -> str:
        """Name of the memory (L/X/Y/...) a single hop travels through."""
        a, b = self.digits(src), self.digits(dst)
        diffs = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        if len(diffs) != 1:
            raise TopologyError(f"{src}->{dst} is not a single hop")
        dim = diffs[0]
        if dim < len(DIMENSION_NAMES):
            return DIMENSION_NAMES[dim]
        return f"D{dim}"

    def path_dimensions(self, src: int, path: Sequence[int]) -> Tuple[str, ...]:
        """Dimension names (L/X/Y/...) of every hop along ``path``.

        Equivalent to calling :meth:`dimension_of_hop` on each
        consecutive pair starting at ``src``.
        """
        names = []
        previous = src
        for hop in path:
            names.append(self.dimension_of_hop(previous, hop))
            previous = hop
        return tuple(names)


@dataclass
class IcnStats:
    """Traffic accounting for the interconnection network."""

    messages: int = 0
    total_hops: int = 0
    hop_histogram: Dict[int, int] = field(default_factory=dict)
    dimension_counts: Dict[str, int] = field(default_factory=dict)
    #: Sum of per-message latencies, in the order messages were sent.
    total_latency: float = 0.0

    def add_route(self, dimensions: Sequence[str], messages: int) -> None:
        """Account ``messages`` messages routed along one path.

        ``dimensions`` names the memory of every hop of the *actual*
        path, so hop totals and per-dimension counts are updated from
        the same source and can never disagree.  The timed machine
        counts messages per route and adds each route once per run.
        """
        hops = len(dimensions)
        self.messages += messages
        self.total_hops += hops * messages
        self.hop_histogram[hops] = self.hop_histogram.get(hops, 0) + messages
        counts = self.dimension_counts
        for name in dimensions:
            counts[name] = counts.get(name, 0) + messages

    @property
    def mean_hops(self) -> float:
        """Mean hops per message."""
        return self.total_hops / self.messages if self.messages else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean per-message latency, in microseconds."""
        return self.total_latency / self.messages if self.messages else 0.0

    def to_json(self) -> Dict[str, object]:
        """JSON-friendly traffic summary, with the hop/dimension
        invariant checked: every counted hop must be attributed to
        exactly one L/X/Y memory."""
        dimension_total = sum(self.dimension_counts.values())
        if self.dimension_counts and dimension_total != self.total_hops:
            raise RuntimeError(
                "ICN accounting out of sync: "
                f"{dimension_total} dimension hops vs "
                f"{self.total_hops} total hops"
            )
        return {
            "messages": self.messages,
            "mean_hops": self.mean_hops,
            "mean_latency_us": self.mean_latency,
            "dimension_counts": dict(self.dimension_counts),
        }
