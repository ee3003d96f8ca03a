"""The 20-instruction SNAP marker-propagation ISA (paper Table II).

Instructions are small immutable dataclasses.  Operands are symbolic —
node names or ids, relation names, marker ids, rule objects, function
names — and are resolved against the loaded knowledge base when the
instruction executes.  *"The programmer deals with logical data
structures such as markers, relations, and nodes.  Their physical
allocation remains transparent"* (§II-B).

Markers: 64 **complex** markers (ids 0–63) carry a 32-bit float value
and a 15-bit origin address; 64 **binary** markers (ids 64–127) carry
set-membership only (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple, Union

from .rules import PropagationRule

#: Marker register file sizes (paper Fig. 4).
NUM_COMPLEX_MARKERS = 64
NUM_BINARY_MARKERS = 64
NUM_MARKERS = NUM_COMPLEX_MARKERS + NUM_BINARY_MARKERS


class InstructionError(ValueError):
    """Raised for malformed instructions."""


def complex_marker(index: int) -> int:
    """Marker id of the ``index``-th complex (valued) marker."""
    if not 0 <= index < NUM_COMPLEX_MARKERS:
        raise InstructionError(f"complex marker index out of range: {index}")
    return index


def binary_marker(index: int) -> int:
    """Marker id of the ``index``-th binary (set-membership) marker."""
    if not 0 <= index < NUM_BINARY_MARKERS:
        raise InstructionError(f"binary marker index out of range: {index}")
    return NUM_COMPLEX_MARKERS + index


def is_complex(marker: int) -> bool:
    """True when ``marker`` carries a floating-point value."""
    return 0 <= marker < NUM_COMPLEX_MARKERS


def check_marker(marker: int) -> int:
    """Validate a marker id; return it."""
    if not 0 <= marker < NUM_MARKERS:
        raise InstructionError(f"marker id out of range: {marker}")
    return marker


NodeOperand = Union[int, str]


#: Instruction categories used throughout the performance figures
#: (Figs. 6, 18, 19, 20): the paper profiles time and counts by class.
class Category:
    """Instruction categories used by the performance figures."""
    MAINTENANCE = "maintenance"
    SEARCH = "search"
    PROPAGATE = "propagate"
    MARKER_MAINT = "marker-maint"
    BOOLEAN = "boolean"
    SETCLEAR = "setclear"
    COLLECT = "collect"

    ALL = (
        MAINTENANCE,
        SEARCH,
        PROPAGATE,
        MARKER_MAINT,
        BOOLEAN,
        SETCLEAR,
        COLLECT,
    )


@dataclass(frozen=True)
class Instruction:
    """Base class for all SNAP instructions."""

    opcode: ClassVar[str] = "?"
    category: ClassVar[str] = "?"

    def reads(self) -> Tuple[int, ...]:
        """Marker ids this instruction reads (dependency analysis)."""
        return ()

    def writes(self) -> Tuple[int, ...]:
        """Marker ids this instruction writes."""
        return ()


# ----------------------------------------------------------------------
# Node maintenance
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Create(Instruction):
    """CREATE source-node, relation, weight, end-node.

    Loads one link of the knowledge base; creates missing nodes.
    """

    source: NodeOperand
    relation: str
    weight: float
    end: NodeOperand
    color: int = 0

    opcode: ClassVar[str] = "CREATE"
    category: ClassVar[str] = Category.MAINTENANCE


@dataclass(frozen=True)
class Delete(Instruction):
    """DELETE source-node, relation, end-node."""

    source: NodeOperand
    relation: str
    end: NodeOperand

    opcode: ClassVar[str] = "DELETE"
    category: ClassVar[str] = Category.MAINTENANCE


@dataclass(frozen=True)
class SetColor(Instruction):
    """SET-COLOR node, color."""

    node: NodeOperand
    color: int

    opcode: ClassVar[str] = "SET-COLOR"
    category: ClassVar[str] = Category.MAINTENANCE


# ----------------------------------------------------------------------
# Search (configuration phase: set initial markers)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchNode(Instruction):
    """SEARCH-NODE node, marker, value — set marker at a named node."""

    node: NodeOperand
    marker: int
    value: float = 0.0

    opcode: ClassVar[str] = "SEARCH-NODE"
    category: ClassVar[str] = Category.SEARCH

    def writes(self) -> Tuple[int, ...]:
        """Marker ids this instruction writes."""
        return (self.marker,)


@dataclass(frozen=True)
class SearchRelation(Instruction):
    """SEARCH-RELATION relation, marker, value.

    Sets the marker at every node with an outgoing link of the given
    relation type.
    """

    relation: str
    marker: int
    value: float = 0.0

    opcode: ClassVar[str] = "SEARCH-RELATION"
    category: ClassVar[str] = Category.SEARCH

    def writes(self) -> Tuple[int, ...]:
        """Marker ids this instruction writes."""
        return (self.marker,)


@dataclass(frozen=True)
class SearchColor(Instruction):
    """SEARCH-COLOR color, marker, value — mark every node of a color."""

    color: int
    marker: int
    value: float = 0.0

    opcode: ClassVar[str] = "SEARCH-COLOR"
    category: ClassVar[str] = Category.SEARCH

    def writes(self) -> Tuple[int, ...]:
        """Marker ids this instruction writes."""
        return (self.marker,)


# ----------------------------------------------------------------------
# Propagation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Propagate(Instruction):
    """PROPAGATE marker-1, marker-2, rule-type(r1,r2), function.

    Sends ``marker2`` from every node where ``marker1`` is set, along
    the paths admitted by ``rule``; ``function`` (a hop-function name
    or token) updates marker2's value at every link traversed.
    """

    marker1: int
    marker2: int
    rule: PropagationRule
    function: Union[int, str] = "identity"

    opcode: ClassVar[str] = "PROPAGATE"
    category: ClassVar[str] = Category.PROPAGATE

    def reads(self) -> Tuple[int, ...]:
        """Marker ids this instruction reads."""
        return (self.marker1,)

    def writes(self) -> Tuple[int, ...]:
        """Marker ids this instruction writes."""
        return (self.marker2,)


# ----------------------------------------------------------------------
# Marker node maintenance (binding)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MarkerCreate(Instruction):
    """MARKER-CREATE marker, forward-relation, end-node, reverse-relation.

    Binds concepts that have been marked: every node with ``marker``
    set is linked to ``end`` by a forward relation, and ``end`` is
    linked back by a reverse relation.
    """

    marker: int
    forward: str
    end: NodeOperand
    reverse: Optional[str] = None

    opcode: ClassVar[str] = "MARKER-CREATE"
    category: ClassVar[str] = Category.MARKER_MAINT

    def reads(self) -> Tuple[int, ...]:
        """Marker ids this instruction reads."""
        return (self.marker,)


@dataclass(frozen=True)
class MarkerDelete(Instruction):
    """MARKER-DELETE marker, forward-relation, end-node, reverse-relation."""

    marker: int
    forward: str
    end: NodeOperand
    reverse: Optional[str] = None

    opcode: ClassVar[str] = "MARKER-DELETE"
    category: ClassVar[str] = Category.MARKER_MAINT

    def reads(self) -> Tuple[int, ...]:
        """Marker ids this instruction reads."""
        return (self.marker,)


@dataclass(frozen=True)
class MarkerSetColor(Instruction):
    """MARKER-SET-COLOR marker, color — recolor all marked nodes."""

    marker: int
    color: int

    opcode: ClassVar[str] = "MARKER-SET-COLOR"
    category: ClassVar[str] = Category.MARKER_MAINT

    def reads(self) -> Tuple[int, ...]:
        """Marker ids this instruction reads."""
        return (self.marker,)


# ----------------------------------------------------------------------
# Boolean (global, over the whole marker status table)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AndMarker(Instruction):
    """AND-MARKER marker-1, marker-2, marker-3, function.

    Sets marker-3 at nodes where both sources are set; ``function``
    (combine-function name/token) merges the two source values.
    """

    marker1: int
    marker2: int
    marker3: int
    function: Union[int, str] = "first"

    opcode: ClassVar[str] = "AND-MARKER"
    category: ClassVar[str] = Category.BOOLEAN

    def reads(self) -> Tuple[int, ...]:
        """Marker ids this instruction reads."""
        return (self.marker1, self.marker2)

    def writes(self) -> Tuple[int, ...]:
        """Marker ids this instruction writes."""
        return (self.marker3,)


@dataclass(frozen=True)
class OrMarker(Instruction):
    """OR-MARKER marker-1, marker-2, marker-3, function."""

    marker1: int
    marker2: int
    marker3: int
    function: Union[int, str] = "first"

    opcode: ClassVar[str] = "OR-MARKER"
    category: ClassVar[str] = Category.BOOLEAN

    def reads(self) -> Tuple[int, ...]:
        """Marker ids this instruction reads."""
        return (self.marker1, self.marker2)

    def writes(self) -> Tuple[int, ...]:
        """Marker ids this instruction writes."""
        return (self.marker3,)


@dataclass(frozen=True)
class NotMarker(Instruction):
    """NOT-MARKER marker-1, marker-2, value, condition.

    Sets marker-2 at nodes where marker-1 is *not* "satisfied": either
    clear, or set with a value failing ``condition(value1, value)``.
    With the default ``always`` condition this is plain complement.
    """

    marker1: int
    marker2: int
    value: float = 0.0
    condition: str = "always"

    opcode: ClassVar[str] = "NOT-MARKER"
    category: ClassVar[str] = Category.BOOLEAN

    def reads(self) -> Tuple[int, ...]:
        """Marker ids this instruction reads."""
        return (self.marker1,)

    def writes(self) -> Tuple[int, ...]:
        """Marker ids this instruction writes."""
        return (self.marker2,)


# ----------------------------------------------------------------------
# Set/clear (direct update, no test of present state)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SetMarker(Instruction):
    """SET-MARKER marker, value — set at every node."""

    marker: int
    value: float = 0.0

    opcode: ClassVar[str] = "SET-MARKER"
    category: ClassVar[str] = Category.SETCLEAR

    def writes(self) -> Tuple[int, ...]:
        """Marker ids this instruction writes."""
        return (self.marker,)


@dataclass(frozen=True)
class ClearMarker(Instruction):
    """CLEAR-MARKER marker — clear at every node."""

    marker: int

    opcode: ClassVar[str] = "CLEAR-MARKER"
    category: ClassVar[str] = Category.SETCLEAR

    def writes(self) -> Tuple[int, ...]:
        """Marker ids this instruction writes."""
        return (self.marker,)


@dataclass(frozen=True)
class FuncMarker(Instruction):
    """FUNC-MARKER marker, function — rewrite values where set."""

    marker: int
    function: Union[int, str] = "identity"

    opcode: ClassVar[str] = "FUNC-MARKER"
    category: ClassVar[str] = Category.SETCLEAR

    def reads(self) -> Tuple[int, ...]:
        """Marker ids this instruction reads."""
        return (self.marker,)

    def writes(self) -> Tuple[int, ...]:
        """Marker ids this instruction writes."""
        return (self.marker,)


# ----------------------------------------------------------------------
# Retrieval
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CollectNode(Instruction):
    """COLLECT-NODE marker — return ids/names of marked nodes.

    This is the opcode that forces PU serialization and a barrier
    (paper §III-A).
    """

    marker: int

    opcode: ClassVar[str] = "COLLECT-NODE"
    category: ClassVar[str] = Category.COLLECT

    def reads(self) -> Tuple[int, ...]:
        """Marker ids this instruction reads."""
        return (self.marker,)


@dataclass(frozen=True)
class CollectMarker(Instruction):
    """COLLECT-MARKER marker — return (node, value, origin) triples."""

    marker: int

    opcode: ClassVar[str] = "COLLECT-MARKER"
    category: ClassVar[str] = Category.COLLECT

    def reads(self) -> Tuple[int, ...]:
        """Marker ids this instruction reads."""
        return (self.marker,)


@dataclass(frozen=True)
class CollectRelation(Instruction):
    """COLLECT-RELATION marker, relation.

    Returns the links of the given relation type leaving marked nodes.
    """

    marker: int
    relation: str

    opcode: ClassVar[str] = "COLLECT-RELATION"
    category: ClassVar[str] = Category.COLLECT

    def reads(self) -> Tuple[int, ...]:
        """Marker ids this instruction reads."""
        return (self.marker,)


@dataclass(frozen=True)
class CollectColor(Instruction):
    """COLLECT-COLOR marker — return (node, color) pairs of marked nodes."""

    marker: int

    opcode: ClassVar[str] = "COLLECT-COLOR"
    category: ClassVar[str] = Category.COLLECT

    def reads(self) -> Tuple[int, ...]:
        """Marker ids this instruction reads."""
        return (self.marker,)


#: All twenty instruction classes of Table II.
INSTRUCTION_SET = (
    Create,
    Delete,
    SetColor,
    SearchNode,
    SearchRelation,
    SearchColor,
    Propagate,
    MarkerCreate,
    MarkerDelete,
    MarkerSetColor,
    AndMarker,
    OrMarker,
    NotMarker,
    SetMarker,
    ClearMarker,
    FuncMarker,
    CollectNode,
    CollectMarker,
    CollectRelation,
    CollectColor,
)

#: Opcode string -> class.
OPCODES = {cls.opcode: cls for cls in INSTRUCTION_SET}
