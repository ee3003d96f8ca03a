"""The SNAP marker-propagation instruction set (paper Table II).

Twenty high-level instructions over logical markers, relations, and
nodes; propagation-rule state machines; per-hop marker functions; and
program containers with the assembler and marker-dependency analysis
used to measure β-parallelism.
"""

from .functions import (
    CONDITIONS,
    CombineFunction,
    DEFAULT_COMBINE,
    DEFAULT_HOP,
    DEFAULT_UNARY,
    FunctionError,
    FunctionRegistry,
    HopFunction,
    MAX_FUNCTION_TOKENS,
    STANDARD_COMBINE_FUNCTIONS,
    STANDARD_HOP_FUNCTIONS,
    STANDARD_UNARY_FUNCTIONS,
    UnaryFunction,
    condition,
)
from .rules import (
    PropagationRule,
    RULE_TYPES,
    RuleError,
    chain,
    comb,
    custom,
    parse_rule,
    seq,
    spread,
    step,
)
from .instructions import (
    AndMarker,
    Category,
    ClearMarker,
    CollectColor,
    CollectMarker,
    CollectNode,
    CollectRelation,
    Create,
    Delete,
    FuncMarker,
    INSTRUCTION_SET,
    Instruction,
    InstructionError,
    MarkerCreate,
    MarkerDelete,
    MarkerSetColor,
    NotMarker,
    NUM_BINARY_MARKERS,
    NUM_COMPLEX_MARKERS,
    NUM_MARKERS,
    OPCODES,
    OrMarker,
    Propagate,
    SearchColor,
    SearchNode,
    SearchRelation,
    SetColor,
    SetMarker,
    binary_marker,
    check_marker,
    complex_marker,
    is_complex,
)
from .program import (
    ProgramError,
    SnapProgram,
    assemble,
    assemble_line,
    disassemble,
    marker_name,
)

__all__ = [
    # functions
    "CONDITIONS", "CombineFunction", "DEFAULT_COMBINE", "DEFAULT_HOP",
    "DEFAULT_UNARY", "FunctionError", "FunctionRegistry", "HopFunction",
    "MAX_FUNCTION_TOKENS", "STANDARD_COMBINE_FUNCTIONS",
    "STANDARD_HOP_FUNCTIONS", "STANDARD_UNARY_FUNCTIONS", "UnaryFunction",
    "condition",
    # rules
    "PropagationRule", "RULE_TYPES", "RuleError", "chain", "comb",
    "custom", "parse_rule", "seq", "spread", "step",
    # instructions
    "AndMarker", "Category", "ClearMarker", "CollectColor",
    "CollectMarker", "CollectNode", "CollectRelation", "Create",
    "Delete", "FuncMarker", "INSTRUCTION_SET", "Instruction",
    "InstructionError", "MarkerCreate", "MarkerDelete", "MarkerSetColor",
    "NotMarker", "NUM_BINARY_MARKERS", "NUM_COMPLEX_MARKERS",
    "NUM_MARKERS", "OPCODES", "OrMarker", "Propagate", "SearchColor",
    "SearchNode", "SearchRelation", "SetColor", "SetMarker",
    "binary_marker", "check_marker", "complex_marker", "is_complex",
    # program
    "ProgramError", "SnapProgram", "assemble", "assemble_line",
    "disassemble", "marker_name",
]
