"""CM-2-style SIMD baseline (the Fig. 15 comparison machine).

The paper attributes the CM-2's inheritance performance profile to its
execution model: a very wide, flat SIMD array where every semantic
network node gets its own (bit-serial) processor, but where the
machine *"had to iterate between the controller and array after each
propagation step on the critical path"* (§IV).  Consequently:

* per-step cost is dominated by a large, constant controller
  round-trip (instruction sequencing over the front end);
* within a step, all active nodes process their links fully in
  parallel, so per-step array work is nearly independent of knowledge
  base size;
* total propagation time ≈ (path depth) × (round-trip + step work) —
  almost flat in KB size, but with a big constant.

SNAP-1, in contrast, has tiny per-step overhead (local MIMD control)
but only 32 clusters, so its time grows with nodes-per-cluster.  The
curves therefore start an order of magnitude apart (< 1 s vs < 10 s at
6.4 K nodes) and *"the lines will cross when larger knowledge bases
are used"* — exactly what the Fig. 15 experiment regenerates.

Semantics are exact: the same :class:`MachineState` primitives are
driven level-synchronously, which is precisely how a SIMD machine
would execute marker propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..core.state import MachineState
from ..isa.instructions import Category, Propagate
from ..isa.program import SnapProgram
from ..core.engine import FunctionalEngine
from ..network.graph import SemanticNetwork


@dataclass(frozen=True)
class SimdTiming:
    """CM-2-style cost parameters, in microseconds.

    Defaults are calibrated to the paper's report of CM-2 inheritance
    runs under 10 s to depth ~7 on a 6.4 K-node hierarchy [2].
    """

    #: Controller↔array round-trip per propagation step (the killer).
    t_step_roundtrip: float = 100_000.0
    #: Bit-serial link processing within a step (parallel across
    #: nodes, so charged once per step per relation slot position).
    t_step_per_slot: float = 2_000.0
    #: Flat cost of any non-propagate SNAP instruction (global SIMD op).
    t_instruction: float = 10_000.0
    #: Per collected item (front-end retrieval).
    t_collect_item: float = 100.0


@dataclass
class SimdTrace:
    """Per-instruction timing on the SIMD machine."""
    index: int
    opcode: str
    category: str
    time_us: float
    steps: int = 0
    result: Any = None


@dataclass
class SimdRunReport:
    """Aggregate of a SIMD run."""
    total_time_us: float = 0.0
    traces: List[SimdTrace] = field(default_factory=list)

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


class SimdMachine:
    """Level-synchronous SIMD execution of SNAP programs."""

    def __init__(
        self,
        network: SemanticNetwork,
        timing: Optional[SimdTiming] = None,
    ) -> None:
        self.timing = timing or SimdTiming()
        # Single partition: the SIMD array is one flat address space.
        self.engine = FunctionalEngine(network, num_clusters=1)

    @property
    def state(self) -> MachineState:
        """The underlying shared MachineState."""
        return self.engine.state

    def run(self, program: SnapProgram) -> SimdRunReport:
        """Run to completion; returns the result/report."""
        report = SimdRunReport()
        for index, instruction in enumerate(program):
            if isinstance(instruction, Propagate):
                steps, time_us = self._propagate(instruction)
                trace = SimdTrace(
                    index, instruction.opcode, instruction.category,
                    time_us, steps=steps,
                )
            else:
                record = self.engine.execute(instruction)
                time_us = self.timing.t_instruction
                if record.category == Category.COLLECT:
                    time_us += len(record.result or ()) * (
                        self.timing.t_collect_item
                    )
                trace = SimdTrace(
                    index, record.opcode, record.category, time_us,
                    result=record.result,
                )
            report.total_time_us += trace.time_us
            report.traces.append(trace)
        return report

    def _propagate(self, instruction: Propagate) -> tuple:
        """Level-synchronous propagation: one controller round-trip per
        step, array work parallel within the step.

        Execution goes through the engine's FIFO golden model, which is
        level-synchronous, so ``max_hops`` is exactly the number of
        controller-iterated steps the SIMD array would take."""
        record = self.engine.execute(instruction)
        steps = record.max_hops
        # Per-step cost: the controller round-trip dominates; array
        # work is parallel across the whole frontier, so only the
        # worst per-node slot scan matters, charged bit-serially.
        step_cost = (
            self.timing.t_step_roundtrip
            + 16 * self.timing.t_step_per_slot
        )
        # The seed step counts as a round-trip too.
        total = (steps + 1) * step_cost
        return steps, total
