"""Nodes and links of the SNAP semantic network.

Nodes carry the *permanent* properties stored in the machine's node
table (paper Fig. 4): a color (one of 256, distinguishing the concept
type) and an arithmetic/logic function id used during propagation.
Dynamic state (markers) lives in the machine tables, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Number of node colors (8-bit field, paper Fig. 4).
NUM_COLORS = 256

#: Maximum outgoing relations per node before the knowledge-base
#: pre-processor splits it into subnodes (paper §II-B "Capacity").
MAX_FANOUT = 16


class NodeError(ValueError):
    """Raised for invalid node definitions."""


#: Colors used by the layered linguistic knowledge base of Fig. 1.
#: Values are arbitrary but stable; applications may define their own.
class Color:
    """Symbolic names for commonly used node colors."""

    GENERIC = 0
    LEXICAL = 1            # words of the vocabulary (bottom layer)
    SYNTAX = 2             # syntactic classes (NP, VP, ...)
    SEMANTIC = 3           # semantic classes (animate, event, ...)
    CS_ROOT = 4            # concept-sequence root
    CS_ELEMENT = 5         # concept-sequence element
    CS_AUX = 6             # auxiliary concept sequence (time-case, ...)
    PROPERTY = 7           # property nodes for inheritance workloads
    SUBNODE = 8            # continuation subnodes created by fanout split
    RESULT = 9             # nodes created at runtime to bind results

    _NAMES = {
        0: "generic", 1: "lexical", 2: "syntax", 3: "semantic",
        4: "cs-root", 5: "cs-element", 6: "cs-aux", 7: "property",
        8: "subnode", 9: "result",
    }

    @classmethod
    def name_of(cls, color: int) -> str:
        """Human-readable name for a color id."""
        return cls._NAMES.get(color, f"color-{color}")


@dataclass
class Node:
    """A semantic-network concept node.

    Parameters mirror the permanent fields of the node table:
    ``node_id`` is the physical node-ID index, ``color`` the 8-bit type
    tag, and ``function`` the default arithmetic/logic function id
    applied when markers traverse this node.
    """

    node_id: int
    name: str
    color: int = Color.GENERIC
    function: int = 0
    #: Set for subnodes created by the fanout pre-processor: the id of
    #: the original node they continue.
    parent_id: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.color < NUM_COLORS:
            raise NodeError(
                f"color {self.color} out of range [0, {NUM_COLORS})"
            )
        if self.node_id < 0:
            raise NodeError(f"negative node id: {self.node_id}")

    @property
    def is_subnode(self) -> bool:
        """True when this node was created by the fanout pre-processor."""
        return self.parent_id is not None


@dataclass(frozen=True)
class Link:
    """A directed, typed, weighted relation between two nodes.

    Matches one slot of the relation table: relation type id,
    destination node id, and a 32-bit floating-point weight.
    """

    source: int
    relation: int
    dest: int
    weight: float = 0.0

    def reversed(self) -> "Link":
        """The same link traversed in the opposite direction."""
        return Link(self.dest, self.relation, self.source, self.weight)
