"""`SnapMachine`: the user-facing façade of the SNAP-1 simulator.

Mirrors the paper's system flow (§II-A): load a knowledge base into
the processing array, download a compiled application, run it, and
retrieve results — with a full measurement report per run.

Example
-------
>>> from repro.network import generate_kb, GeneratorSpec
>>> from repro.machine import SnapMachine, snap1_16cluster
>>> from repro.isa import assemble
>>> machine = SnapMachine(generate_kb(GeneratorSpec(total_nodes=500)),
...                       snap1_16cluster())
>>> report = machine.run(assemble('''
...     SEARCH-NODE word0 b0
...     PROPAGATE b0 b1 chain(is-a)
...     COLLECT-NODE b1
... '''))
>>> report.total_time_us > 0
True
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..core.state import MachineState
from ..isa.instructions import Instruction
from ..isa.program import SnapProgram
from ..network.graph import SemanticNetwork
from .config import MachineConfig, snap1_full
from .icn import HypercubeTopology
from .report import MachineRunReport
from .simulator import SnapSimulation


class SnapMachine:
    """A configured SNAP-1 with a loaded knowledge base.

    The machine keeps persistent knowledge-base state across ``run``
    calls (markers, bindings, and node maintenance survive between
    programs, as on the hardware), while each run gets a fresh
    measurement report.
    """

    def __init__(
        self,
        network: SemanticNetwork,
        config: Optional[MachineConfig] = None,
    ) -> None:
        self.config = config or snap1_full()
        # Graceful degradation: nodes are evicted off failed clusters
        # before the tables are built, so their region of the KB stays
        # reachable on survivors.
        excluded = None
        fault_cfg = self.config.faults
        if fault_cfg is not None and fault_cfg.enabled and fault_cfg.remap_nodes:
            from .faults import failed_clusters_for

            excluded = failed_clusters_for(
                fault_cfg, self.config.num_clusters
            )
        self.state = MachineState(
            network,
            num_clusters=self.config.num_clusters,
            partition_policy=self.config.partition_policy,
            node_capacity_per_cluster=(
                self.config.nodes_per_cluster
                if self.config.enforce_capacity
                else None
            ),
            excluded_clusters=excluded,
        )
        # One topology per machine, shared by every run: routing is
        # stateless, so sharing only lets the route/dimension caches
        # stay warm across programs (a big win for host serving, where
        # one machine executes thousands of queries).
        self.topology = HypercubeTopology(self.config.num_clusters)
        #: Transport tables per fault state, shared by every run (same
        #: topology, same timing), so each (src, dest) pair is routed
        #: once per fault state.
        self._route_tables: Dict[Any, Dict[int, Tuple]] = {}
        self.last_report: Optional[MachineRunReport] = None
        #: Process name this machine's tracks are filed under in a
        #: trace (the host layer sets one per replica, e.g.
        #: ``replica 03``).
        self.trace_name = "machine"

    # ------------------------------------------------------------------
    def run(
        self,
        program: Union[SnapProgram, Iterable[Instruction]],
        budget_us: Optional[float] = None,
        tracer=None,
        metrics=None,
        trace_offset_us: float = 0.0,
    ) -> MachineRunReport:
        """Execute a program with full timing; returns the run report.

        ``budget_us`` caps the simulated execution time: a run that has
        not completed by the budget is abandoned (``report.aborted`` is
        set) with the clock parked exactly on the budget.  The serving
        host uses this to bound nested executions by a query deadline;
        the default (``None``) is the unchanged run-to-completion path.

        ``tracer``/``metrics`` opt the run into the observability
        layer (:mod:`repro.obs`); ``trace_offset_us`` shifts every
        emitted timestamp, which the serving host uses to place a
        nested per-query run at the host time it dispatched.  The
        defaults (global :data:`repro.obs.NULL_TRACER`, no registry)
        cost one branch per run.
        """
        if not isinstance(program, SnapProgram):
            program = SnapProgram(list(program))
        simulation = SnapSimulation(
            self.state, self.config, topology=self.topology,
            tracer=tracer, metrics=metrics,
            trace_offset_us=trace_offset_us,
            trace_name=self.trace_name,
            route_tables=self._route_tables,
        )
        self.last_report = simulation.run(program, budget_us=budget_us)
        return self.last_report

    def reset_markers(self) -> None:
        """Wipe all marker state (host hand-over between queries)."""
        self.state.reset_markers()

    # -- inspection ------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.state.network.num_nodes

    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return self.config.num_clusters

    @property
    def total_pes(self) -> int:
        """All functional units: PU + CU + MUs per cluster."""
        return self.config.total_pes

    def marker_set_nodes(self, marker: int) -> List[int]:
        """Global ids of nodes where ``marker`` is currently set."""
        return self.state.marker_set_nodes(marker)

