"""The functional (untimed) SNAP executor.

Runs SNAP programs to completion with exact semantics but no notion of
time.  It is both the **serial baseline's** execution core and the
**golden model** against which the discrete-event machine simulator is
property-tested: both drive the same :class:`~repro.core.state.
MachineState` primitives, so final marker state must agree bit-for-bit
for any program and any cluster count.

PROPAGATE — the dominant instruction — runs the golden FIFO worklist
(:func:`~repro.core.backends.propagate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..isa.instructions import (
    AndMarker,
    ClearMarker,
    CollectColor,
    CollectMarker,
    CollectNode,
    CollectRelation,
    Create,
    Delete,
    FuncMarker,
    Instruction,
    MarkerCreate,
    MarkerDelete,
    MarkerSetColor,
    NotMarker,
    OrMarker,
    Propagate,
    SearchColor,
    SearchNode,
    SearchRelation,
    SetColor,
    SetMarker,
)
from ..isa.program import SnapProgram
from ..network.graph import SemanticNetwork
from .backends import propagate
from .state import ExecutionError, MachineState, WorkReport


@dataclass
class ExecutionRecord:
    """What one instruction did: work counters and propagation stats."""

    instruction: Instruction
    work: WorkReport
    result: Any = None
    #: Number of simultaneously activated source nodes (α, §II-C).
    alpha: int = 0
    #: Longest path any marker traveled (hops).
    max_hops: int = 0
    #: Cross-cluster activation messages emitted.
    remote_messages: int = 0
    #: Total marker deliveries.
    arrivals: int = 0

    @property
    def category(self) -> str:
        """The instruction's profiling category."""
        return self.instruction.category

    @property
    def opcode(self) -> str:
        """The instruction's opcode string."""
        return self.instruction.opcode


@dataclass
class RunResult:
    """Outcome of running a whole program."""

    records: List[ExecutionRecord] = field(default_factory=list)

    @property
    def collects(self) -> List[ExecutionRecord]:
        """Records of retrieval instructions, in program order."""
        return [r for r in self.records if r.result is not None]

    def category_counts(self) -> Dict[str, int]:
        """Instruction counts per category."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.category] = counts.get(record.category, 0) + 1
        return counts


# Instruction class -> (dispatch kind, unbound MachineState primitive).
# Built once at import and shared by every executor: execute() here and
# the timed machine's PU decode each do one dict probe per instruction.
KIND_PROPAGATE = "propagate"
KIND_GLOBAL = "global"
KIND_CLUSTER = "cluster"
KIND_COLLECT = "collect"

_DISPATCH: Dict[type, Tuple[str, Optional[Callable]]] = {
    Propagate: (KIND_PROPAGATE, None),
    Create: (KIND_GLOBAL, MachineState.create),
    Delete: (KIND_GLOBAL, MachineState.delete),
    SetColor: (KIND_GLOBAL, MachineState.set_color),
    SearchNode: (KIND_CLUSTER, MachineState.search_node),
    SearchRelation: (KIND_CLUSTER, MachineState.search_relation),
    SearchColor: (KIND_CLUSTER, MachineState.search_color),
    AndMarker: (KIND_CLUSTER, MachineState.and_marker),
    OrMarker: (KIND_CLUSTER, MachineState.or_marker),
    NotMarker: (KIND_CLUSTER, MachineState.not_marker),
    SetMarker: (KIND_CLUSTER, MachineState.set_marker),
    ClearMarker: (KIND_CLUSTER, MachineState.clear_marker),
    FuncMarker: (KIND_CLUSTER, MachineState.func_marker),
    MarkerCreate: (KIND_CLUSTER, MachineState.marker_create),
    MarkerDelete: (KIND_CLUSTER, MachineState.marker_delete),
    MarkerSetColor: (KIND_CLUSTER, MachineState.marker_set_color),
    CollectNode: (KIND_COLLECT, MachineState.collect_node),
    CollectMarker: (KIND_COLLECT, MachineState.collect_marker),
    CollectRelation: (KIND_COLLECT, MachineState.collect_relation),
    CollectColor: (KIND_COLLECT, MachineState.collect_color),
}


def dispatch_entry(cls: type) -> Optional[Tuple[str, Optional[Callable]]]:
    """Dispatch entry for an instruction class, honoring subclasses."""
    entry = _DISPATCH.get(cls)
    if entry is None:
        for base in cls.__mro__[1:]:
            entry = _DISPATCH.get(base)
            if entry is not None:
                _DISPATCH[cls] = entry  # memoize the subclass
                break
    return entry


class FunctionalEngine:
    """Untimed executor of SNAP programs over a partitioned KB."""

    def __init__(
        self,
        network: SemanticNetwork,
        num_clusters: int = 1,
        partition_policy: str = "round-robin",
        state: Optional[MachineState] = None,
    ) -> None:
        self.state = state or MachineState(
            network, num_clusters, partition_policy
        )

    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return self.state.num_clusters

    # ------------------------------------------------------------------
    def run(self, program: SnapProgram) -> RunResult:
        """Execute a program in order; return all execution records."""
        result = RunResult()
        for instruction in program:
            result.records.append(self.execute(instruction))
        return result

    def execute(self, instruction: Instruction) -> ExecutionRecord:
        """Execute one instruction with exact semantics."""
        entry = dispatch_entry(type(instruction))
        if entry is None:
            raise ExecutionError(
                f"unsupported instruction: {instruction.opcode}"
            )
        kind, primitive = entry
        state = self.state

        if kind == KIND_CLUSTER:
            work = WorkReport()
            for cid in range(state.num_clusters):
                work.merge(primitive(state, cid, instruction))
            return ExecutionRecord(instruction, work)

        if kind == KIND_COLLECT:
            work = WorkReport()
            collected: List = []
            for cid in range(state.num_clusters):
                part, part_work = primitive(state, cid, instruction)
                collected.extend(part)
                work.merge(part_work)
            # Full-tuple sort: ties on the leading global id (e.g.
            # COLLECT-RELATION listing several links of one node) must
            # not depend on cluster visit order, or results would vary
            # across partition policies.
            collected.sort()
            return ExecutionRecord(instruction, work, result=collected)

        if kind == KIND_PROPAGATE:
            return self._propagate(instruction)

        return ExecutionRecord(instruction, primitive(state, instruction))

    # ------------------------------------------------------------------
    def _propagate(self, instruction: Propagate) -> ExecutionRecord:
        """Marker propagation through the golden worklist."""
        outcome = propagate(self.state, instruction)
        return ExecutionRecord(
            instruction,
            outcome.work,
            alpha=outcome.alpha,
            max_hops=outcome.max_hops,
            remote_messages=outcome.remote_messages,
            arrivals=outcome.arrivals,
        )


def run_program(
    network: SemanticNetwork,
    program: SnapProgram,
    num_clusters: int = 1,
    partition_policy: str = "round-robin",
) -> RunResult:
    """Convenience one-shot: build an engine and run a program."""
    engine = FunctionalEngine(network, num_clusters, partition_policy)
    return engine.run(program)
