"""Knowledge-base construction utilities and the fanout pre-processor.

The paper (§II-B, *Capacity*) fixes the physical relation table at 16
outgoing slots per node: *"Nodes with fanout greater than 16 are
divided into subnodes by a pre-processor when the knowledge base is
created."*  :func:`preprocess_fanout` implements that pre-processor —
it rewrites a logical :class:`~repro.network.graph.SemanticNetwork`
into a physical one where every node fits its relation-table row, by
chaining overflow links through continuation subnodes.

Continuation links use the reserved relation :data:`CONT_RELATION`; the
machine's relation table walks them transparently, so propagation
semantics always see the *logical* fanout.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from .graph import GraphError, SemanticNetwork
from .node import MAX_FANOUT, Color, Link

#: Reserved relation used to chain subnodes; never visible to programs.
CONT_RELATION = "__cont__"

#: Links kept per physical row when a continuation slot is needed.
_LINKS_PER_ROW = MAX_FANOUT - 1


def preprocess_fanout(
    network: SemanticNetwork, max_fanout: int = MAX_FANOUT
) -> SemanticNetwork:
    """Return a physical network where every node has ≤ ``max_fanout`` slots.

    Original node ids are preserved; subnodes are appended after all
    original nodes so existing links (and any partitioning of the
    originals) remain valid.  If no node exceeds the limit the input is
    returned unchanged (already physical).
    """
    if max_fanout < 2:
        raise ValueError("max_fanout must allow a continuation slot (>= 2)")
    if all(network.fanout(n.node_id) <= max_fanout for n in network.nodes()):
        return network

    physical = SemanticNetwork()
    # Recreate all original nodes first so ids are preserved.
    for node in network.nodes():
        physical.add_node(node.name, node.color, node.function, node.parent_id)
    # Pre-register all relation names in original id order so relation
    # ids survive the rewrite.
    for name in network.relations:
        physical.relations.register(name)

    links_per_row = max_fanout - 1
    for node in network.nodes():
        out = network.outgoing(node.node_id)
        if len(out) <= max_fanout:
            for link in out:
                physical.add_link(
                    link.source,
                    network.relations.name_of(link.relation),
                    link.dest,
                    link.weight,
                )
            continue
        # Split: each row keeps links_per_row links + one continuation.
        rows: List[List[Link]] = [
            out[i: i + links_per_row]
            for i in range(0, len(out), links_per_row)
        ]
        current = node.node_id
        for row_index, row in enumerate(rows):
            last_row = row_index == len(rows) - 1
            for link in row:
                physical.add_link(
                    current,
                    network.relations.name_of(link.relation),
                    link.dest,
                    link.weight,
                )
            if not last_row:
                sub = physical.add_node(
                    f"{node.name}#{row_index + 1}",
                    Color.SUBNODE,
                    node.function,
                    parent_id=node.node_id,
                )
                physical.add_link(current, CONT_RELATION, sub.node_id)
                current = sub.node_id
    physical.validate()
    return physical


def continuation_chain(physical: SemanticNetwork, node_ref) -> List[int]:
    """A node's physical rows: its own id, then each continuation
    subnode's, in chain order."""
    cont_id = physical.relations.get(CONT_RELATION)
    chain = [physical.resolve(node_ref)]
    while cont_id is not None:
        nxt = None
        for link in physical.outgoing(chain[-1]):
            if link.relation == cont_id:
                nxt = link.dest
        if nxt is None:
            break
        if nxt in chain:
            raise GraphError(f"continuation cycle at node {nxt}")
        chain.append(nxt)
    return chain


class KnowledgeBaseBuilder:
    """Fluent helper for authoring layered linguistic knowledge bases.

    Provides the vocabulary of Fig. 1: words in the lexical layer,
    syntactic and semantic classes in the middle, and concept sequences
    (root + ordered, constrained elements) at the top.
    """

    def __init__(self) -> None:
        self.network = SemanticNetwork()

    # -- middle layers --------------------------------------------------
    def add_class(
        self, name: str, parents: Iterable[str] = (), color: int = Color.SEMANTIC
    ) -> str:
        """Add a semantic/syntactic class with ``is-a`` links to parents."""
        self.network.ensure_node(name, color)
        for parent in parents:
            self.network.ensure_node(parent, color)
            self.network.add_link(name, "is-a", parent)
        return name

    def add_syntax_class(self, name: str, parents: Iterable[str] = ()) -> str:
        """Add a syntactic category (NP, VP, ...)."""
        return self.add_class(name, parents, color=Color.SYNTAX)

    # -- lexical layer ---------------------------------------------------
    def add_word(
        self,
        word: str,
        classes: Iterable[str],
        weight: float = 0.0,
    ) -> str:
        """Add a lexical node linked ``is-a`` to its classes.

        e.g. the word *we* connects to *animate* and *noun-phrase*.
        """
        name = f"w:{word}"
        self.network.ensure_node(name, Color.LEXICAL)
        for cls in classes:
            self.network.ensure_node(cls)
            self.network.add_link(name, "is-a", cls, weight)
        return name

    # -- concept sequences -------------------------------------------------
    def add_concept_sequence(
        self,
        name: str,
        elements: Iterable[Tuple[str, Iterable[str]]],
        auxiliary: bool = False,
        cost: float = 1.0,
    ) -> str:
        """Add a concept sequence: a root plus ordered constrained elements.

        ``elements`` is a sequence of ``(element_name, constraints)``
        pairs; constraints are class names each element must satisfy
        (e.g. the *experiencer* element of *seeing-event* must be
        ``animate`` and ``noun-phrase``).  The root links ``first`` to
        the first element; elements chain via ``next``; the final
        element links ``last`` back to the root (which is how the
        ``spread(is-a, last)`` rule of Fig. 5 reaches roots).
        """
        root_color = Color.CS_AUX if auxiliary else Color.CS_ROOT
        root = self.network.ensure_node(name, root_color)
        element_list = list(elements)
        if not element_list:
            raise ValueError(f"concept sequence {name!r} has no elements")
        previous = None
        for index, (el_name, constraints) in enumerate(element_list):
            full = f"{name}.{el_name}"
            self.network.ensure_node(full, Color.CS_ELEMENT)
            self.network.add_link(full, "element-of", root.node_id)
            for constraint in constraints:
                self.network.ensure_node(constraint)
                # Constraint classes point down to the elements they
                # license, so markers propagated up the is-a hierarchy
                # can be reflected onto candidate elements.
                self.network.add_link(constraint, "syntax-of", full)
                self.network.add_link(full, "is-a", constraint)
            if index == 0:
                self.network.add_link(root.node_id, "first", full, cost)
            if previous is not None:
                self.network.add_link(previous, "next", full, cost)
            previous = full
        self.network.add_link(previous, "last", root.node_id, cost)
        return name

    # -- properties (inheritance workloads) -------------------------------
    def add_property(self, owner: str, prop: str, weight: float = 1.0) -> str:
        """Attach a property node to a concept."""
        name = f"p:{prop}"
        self.network.ensure_node(name, Color.PROPERTY)
        self.network.ensure_node(owner)
        self.network.add_link(owner, "has-property", name, weight)
        return name

    def build(self, physical: bool = True) -> SemanticNetwork:
        """Finalize; optionally run the fanout pre-processor."""
        self.network.validate()
        if physical:
            return preprocess_fanout(self.network)
        return self.network
