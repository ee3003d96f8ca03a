"""The semantic network: nodes + typed weighted links.

This is the *logical* knowledge base authored by applications.  It
allows arbitrary fanout; the pre-processor in
:mod:`repro.network.builder` converts it to the machine's physical form
where every node holds at most :data:`~repro.network.node.MAX_FANOUT`
relation slots (splitting large nodes into subnode chains, paper
§II-B).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Union

from .node import Color, Link, Node
from .relation import RelationRegistry

NodeRef = Union[int, str, Node]


class GraphError(ValueError):
    """Raised for malformed graph operations."""


class SemanticNetwork:
    """A directed multigraph of concepts and typed weighted relations.

    Node ids are dense integers assigned in creation order — they become
    the physical node-ID indexes of the machine tables.  Names are
    unique and resolvable in O(1).
    """

    def __init__(self) -> None:
        self.relations = RelationRegistry()
        self._nodes: List[Node] = []
        self._by_name: Dict[str, int] = {}
        self._out: List[List[Link]] = []
        self._in_degree: List[int] = []
        self._num_links = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        color: int = Color.GENERIC,
        function: int = 0,
        parent_id: Optional[int] = None,
    ) -> Node:
        """Create a node; names must be unique within the network."""
        if name in self._by_name:
            raise GraphError(f"duplicate node name: {name!r}")
        node = Node(len(self._nodes), name, color, function, parent_id)
        self._nodes.append(node)
        self._by_name[name] = node.node_id
        self._out.append([])
        self._in_degree.append(0)
        return node

    def add_link(
        self,
        source: NodeRef,
        relation: str,
        dest: NodeRef,
        weight: float = 0.0,
    ) -> Link:
        """Add a directed link; registers the relation name on demand."""
        src_id = self.resolve(source)
        dst_id = self.resolve(dest)
        rid = self.relations.register(relation)
        link = Link(src_id, rid, dst_id, weight)
        self._out[src_id].append(link)
        self._in_degree[dst_id] += 1
        self._num_links += 1
        return link

    def ensure_node(
        self, name: str, color: int = Color.GENERIC, function: int = 0
    ) -> Node:
        """Return the node named ``name``, creating it if absent."""
        nid = self._by_name.get(name)
        if nid is not None:
            return self._nodes[nid]
        return self.add_node(name, color, function)

    def remove_link(self, source: NodeRef, relation: str, dest: NodeRef) -> bool:
        """Remove the first matching link; return whether one existed.

        Supports the DELETE instruction of Table II.
        """
        src_id = self.resolve(source)
        dst_id = self.resolve(dest)
        rid = self.relations.get(relation)
        if rid is None:
            return False
        links = self._out[src_id]
        for i, link in enumerate(links):
            if link.relation == rid and link.dest == dst_id:
                del links[i]
                self._in_degree[dst_id] -= 1
                self._num_links -= 1
                return True
        return False

    def set_color(self, node: NodeRef, color: int) -> None:
        """Recolor a node (SET-COLOR instruction)."""
        nid = self.resolve(node)
        old = self._nodes[nid]
        self._nodes[nid] = Node(
            old.node_id, old.name, color, old.function, old.parent_id
        )

    def rename_node(self, node: NodeRef, new_name: str) -> Node:
        """Rename a node in place (id unchanged).

        Used by the controller's garbage collector to recycle result
        nodes: a reclaimed physical slot gets the next logical name.
        """
        nid = self.resolve(node)
        if new_name in self._by_name and self._by_name[new_name] != nid:
            raise GraphError(f"duplicate node name: {new_name!r}")
        old = self._nodes[nid]
        del self._by_name[old.name]
        self._by_name[new_name] = nid
        self._nodes[nid] = Node(
            nid, new_name, old.color, old.function, old.parent_id
        )
        return self._nodes[nid]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def resolve(self, ref: NodeRef) -> int:
        """Resolve a node reference (id, name, or Node) to its id."""
        if isinstance(ref, Node):
            return ref.node_id
        if isinstance(ref, int):
            if not 0 <= ref < len(self._nodes):
                raise GraphError(f"node id out of range: {ref}")
            return ref
        nid = self._by_name.get(ref)
        if nid is None:
            raise GraphError(f"unknown node: {ref!r}")
        return nid

    def node(self, ref: NodeRef) -> Node:
        """Return the :class:`Node` for a reference."""
        return self._nodes[self.resolve(ref)]

    def name_of(self, nid: int) -> str:
        """Name of a node by id, without resolving a reference (hot
        retrieval path; ``nid`` must be a valid id)."""
        return self._nodes[nid].name

    def names_of(self, nids: Iterable[int]) -> List[str]:
        """Names of many nodes by id, in order (COLLECT-NODE's
        retrieval path; every id must be valid)."""
        nodes = self._nodes
        return [nodes[nid].name for nid in nids]

    def __contains__(self, ref: NodeRef) -> bool:
        if isinstance(ref, Node):
            ref = ref.node_id
        if isinstance(ref, int):
            return 0 <= ref < len(self._nodes)
        return ref in self._by_name

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        """Number of links."""
        return self._num_links

    def nodes(self) -> Iterator[Node]:
        """Iterate all nodes in id order."""
        return iter(self._nodes)

    def outgoing(self, node: NodeRef) -> List[Link]:
        """All outgoing links of a node."""
        return list(self._out[self.resolve(node)])

    def outgoing_by_relation(self, node: NodeRef, relation: str) -> List[Link]:
        """Outgoing links of a node with the given relation name."""
        rid = self.relations.get(relation)
        if rid is None:
            return []
        return [l for l in self._out[self.resolve(node)] if l.relation == rid]

    def fanout(self, node: NodeRef) -> int:
        """Number of outgoing relation slots the node requires."""
        return len(self._out[self.resolve(node)])

    def in_degree(self, node: NodeRef) -> int:
        """Number of incoming links."""
        return self._in_degree[self.resolve(node)]

    def links(self) -> Iterator[Link]:
        """Iterate every link in the network."""
        for out in self._out:
            yield from out

    # ------------------------------------------------------------------
    # Validation / statistics
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal consistency; raise :class:`GraphError` if broken."""
        if len(self._out) != len(self._nodes):
            raise GraphError("adjacency/node count mismatch")
        count = 0
        for nid, out in enumerate(self._out):
            for link in out:
                if link.source != nid:
                    raise GraphError(f"link source mismatch at node {nid}")
                if not 0 <= link.dest < len(self._nodes):
                    raise GraphError(f"dangling link from node {nid}")
                count += 1
        if count != self._num_links:
            raise GraphError("link count mismatch")

    def stats(self) -> Dict[str, float]:
        """Summary statistics of the knowledge base."""
        fanouts = [len(out) for out in self._out]
        colors: Dict[int, int] = {}
        for n in self._nodes:
            colors[n.color] = colors.get(n.color, 0) + 1
        return {
            "nodes": self.num_nodes,
            "links": self.num_links,
            "max_fanout": max(fanouts) if fanouts else 0,
            "mean_fanout": (
                sum(fanouts) / len(fanouts) if fanouts else 0.0
            ),
            "relation_types": len(self.relations),
            "colors": len(colors),
        }
