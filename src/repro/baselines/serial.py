"""Serial (single-PE) baseline.

Executes SNAP programs with exact semantics on a single processor and
charges a serial cost model: every micro-operation the array would
distribute across clusters and marker units happens sequentially on
one PE, with no broadcast, communication, or synchronization overhead
(there is nothing to synchronize).

This is the reference point for all speedup figures (Figs. 16–18) and
the machine that produced the uniprocessor instruction profile of
Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.engine import ExecutionRecord, FunctionalEngine
from ..core.state import MachineState
from ..isa.instructions import Category
from ..isa.program import SnapProgram
from ..machine.cluster import work_service_time
from ..machine.config import Timing
from ..network.graph import SemanticNetwork


@dataclass
class SerialTrace:
    """Per-instruction timing on the serial machine."""

    index: int
    opcode: str
    category: str
    time_us: float
    alpha: int = 0
    max_hops: int = 0
    arrivals: int = 0
    result: Any = None


@dataclass
class SerialRunReport:
    """Aggregate of a serial run (compatible with experiment harness)."""

    total_time_us: float = 0.0
    traces: List[SerialTrace] = field(default_factory=list)
    category_busy_us: Dict[str, float] = field(default_factory=dict)

    @property
    def total_time_ms(self) -> float:
        """Total simulated time in milliseconds."""
        return self.total_time_us / 1e3

    @property
    def total_time_s(self) -> float:
        """Total simulated time in seconds."""
        return self.total_time_us / 1e6

    def results(self) -> List[Any]:
        """Collected retrieval results, in program order."""
        return [t.result for t in self.traces if t.result is not None]

    def category_counts(self) -> Dict[str, int]:
        """Instruction counts per category."""
        counts: Dict[str, int] = {}
        for t in self.traces:
            counts[t.category] = counts.get(t.category, 0) + 1
        return counts

    def category_time_share(self) -> Dict[str, float]:
        """Fraction of execution time per instruction class (Fig. 6)."""
        total = sum(self.category_busy_us.values())
        if total == 0:
            return {}
        return {c: b / total for c, b in self.category_busy_us.items()}


class SerialMachine:
    """One processor, whole knowledge base, exact semantics."""

    def __init__(
        self,
        network: SemanticNetwork,
        timing: Optional[Timing] = None,
    ) -> None:
        self.timing = timing or Timing()
        self.engine = FunctionalEngine(network, num_clusters=1)

    @property
    def state(self) -> MachineState:
        """The underlying shared MachineState."""
        return self.engine.state

    def instruction_time(self, record: ExecutionRecord) -> float:
        """Serial cost of one executed instruction.

        Decode plus the full work performed sequentially; every marker
        delivery pays the same task-dequeue overhead an MU pays (a
        serial PE processes arrivals from the identical worklist
        structure); retrieval adds the per-item host transfer cost.
        """
        t = self.timing.t_decode + work_service_time(record.work, self.timing)
        t += record.arrivals * self.timing.t_task_overhead
        if record.category == Category.COLLECT:
            items = len(record.result or ())
            t += self.timing.t_collect_cluster
            t += items * self.timing.t_collect_item
        return t

    def run(self, program: SnapProgram) -> SerialRunReport:
        """Execute a program; return serial timing report."""
        report = SerialRunReport()
        for index, instruction in enumerate(program):
            record = self.engine.execute(instruction)
            time_us = self.instruction_time(record)
            report.total_time_us += time_us
            report.category_busy_us[record.category] = (
                report.category_busy_us.get(record.category, 0.0) + time_us
            )
            report.traces.append(
                SerialTrace(
                    index=index,
                    opcode=record.opcode,
                    category=record.category,
                    time_us=time_us,
                    alpha=record.alpha,
                    max_hops=record.max_hops,
                    arrivals=record.arrivals,
                    result=record.result,
                )
            )
        return report
