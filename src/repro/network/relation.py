"""Relation types for semantic-network links.

SNAP-1 supports ``R = 64K`` distinct relation types (paper Fig. 4).  Each
relation is identified by a 16-bit type id; human-readable names are kept
in a registry so that knowledge bases can be authored symbolically while
the machine tables store compact integer ids.

The registry pre-defines the standard linguistic relations used by the
SNAP knowledge-base layers of Fig. 1: subsumption (``is-a``), concept
sequence ordering (``first``, ``next``, ``last``), case roles
(``agent``, ``object``, ``experiencer`` ...) and their inverses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

#: Maximum number of distinct relation types (16-bit field, paper Fig. 4).
MAX_RELATION_TYPES = 64 * 1024

#: Relations predefined by the linguistic knowledge-base layers (Fig. 1).
STANDARD_RELATIONS = (
    # Concept-type hierarchy.
    "is-a",
    "instance-of",
    # Concept sequence structure (root and ordered elements).
    "first",
    "next",
    "last",
    "root",
    "element-of",
    # Case roles / semantic constraints.
    "agent",
    "object",
    "experiencer",
    "recipient",
    "instrument",
    "location",
    "time",
    # Lexical layer attachment.
    "word-of",
    "syntax-of",
    # Auxiliary concept sequences (e.g. time-case).
    "aux",
    # Generic property attachment for inheritance workloads.
    "has-property",
    "part-of",
    # Marker-created bindings (MARKER-CREATE default relations).
    "binding",
    "binding-inverse",
    # Result / cancellation bookkeeping used by the NLU application.
    "cancels",
)


class RelationError(ValueError):
    """Raised for invalid relation registrations or lookups."""


@dataclass
class RelationRegistry:
    """Bidirectional mapping between relation names and 16-bit type ids.

    A registry instance is owned by a :class:`~repro.network.graph.
    SemanticNetwork`; ids are dense and assigned in registration order so
    that the machine's relation table can use them directly as packed
    integer fields.
    """

    _name_to_id: Dict[str, int] = field(default_factory=dict)
    _id_to_name: Dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in STANDARD_RELATIONS:
            self.register(name)

    def register(self, name: str) -> int:
        """Register ``name`` and return its type id (idempotent)."""
        if name in self._name_to_id:
            return self._name_to_id[name]
        if len(self._name_to_id) >= MAX_RELATION_TYPES:
            raise RelationError(
                f"relation type capacity exceeded ({MAX_RELATION_TYPES})"
            )
        rid = len(self._name_to_id)
        self._name_to_id[name] = rid
        self._id_to_name[rid] = name
        return rid

    def name_of(self, rid: int) -> str:
        """Return the name for type id ``rid``; raise if unregistered."""
        try:
            return self._id_to_name[rid]
        except KeyError:
            raise RelationError(f"unknown relation id: {rid}") from None

    def get(self, name: str) -> Optional[int]:
        """Return the type id for ``name`` or ``None``."""
        return self._name_to_id.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._name_to_id

    def __len__(self) -> int:
        return len(self._name_to_id)

    def __iter__(self) -> Iterator[str]:
        return iter(self._name_to_id)

    def inverse_name(self, name: str) -> str:
        """Return the conventional inverse-relation name.

        SNAP programs frequently traverse relations in both directions
        (MARKER-CREATE installs forward and reverse relations).  The
        convention used throughout this codebase is an ``-of`` /
        ``inverse:`` pairing.
        """
        if name.startswith("inverse:"):
            return name[len("inverse:"):]
        return f"inverse:{name}"
