"""Execution core: distributed tables, activation messages, semantics.

The core implements the paper's three knowledge-base tables (Fig. 4),
the 64-bit activation-message wire format (§III-B), and the instruction
semantics shared by the untimed functional engine and the timed
machine simulator.
"""

from .tables import (
    ClusterTables,
    EMPTY_SLOT,
    MACHINE_NODE_CAPACITY,
    MarkerStatusTable,
    NodeTable,
    RelationEntry,
    RelationTable,
    TableError,
    WORD_BITS,
    build_tables,
)
from .activation import (
    ActivationMessage,
    FIELD_WIDTHS,
    MESSAGE_BITS,
    MESSAGE_BYTES,
    MessageError,
    from_bfloat16_bits,
    from_bytes,
    to_bfloat16_bits,
    unpack,
)
from .state import (
    Arrival,
    ExecutionError,
    MachineState,
    PropagationContext,
    WorkReport,
)
from .backends import PropagationOutcome, propagate
from .engine import (
    ExecutionRecord,
    FunctionalEngine,
    RunResult,
    run_program,
)

__all__ = [
    "PropagationOutcome", "propagate",
    "ClusterTables", "EMPTY_SLOT", "MACHINE_NODE_CAPACITY",
    "MarkerStatusTable", "NodeTable", "RelationEntry", "RelationTable",
    "TableError", "WORD_BITS", "build_tables",
    "ActivationMessage", "FIELD_WIDTHS", "MESSAGE_BITS", "MESSAGE_BYTES",
    "MessageError", "from_bfloat16_bits", "from_bytes",
    "to_bfloat16_bits", "unpack",
    "Arrival", "ExecutionError", "MachineState", "PropagationContext",
    "WorkReport",
    "ExecutionRecord", "FunctionalEngine", "RunResult", "run_program",
]
