"""Run reports: everything the measurement system gathers in one run.

The paper's *"integrated measurement system for evaluating
marker-propagation algorithms, partitioning functions, communication
traffic, and synchronization protocols"* (§II-B) corresponds to this
module: per-instruction traces, per-category busy time (Figs. 6/18/19),
instruction counts (Fig. 20), the four parallel-overhead components
(Fig. 21), sync-point traffic (Fig. 8), and α/path-length statistics
(§IV text).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..isa.instructions import Category
from .icn import IcnStats
from .sync import SyncStats


def _json_safe(value: Any) -> Any:
    """Coerce an arbitrary value into something ``json.dump`` accepts.

    :attr:`InstructionTrace.result` is typed ``Any`` — retrieval
    instructions store whatever the collection phase produced (node-name
    lists today, but nothing enforces that).  Containers are converted
    recursively (sets sorted by ``repr`` for a deterministic dump,
    mapping keys stringified); anything else falls back to ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return [_json_safe(item) for item in sorted(value, key=repr)]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    return repr(value)


@dataclass
class InstructionTrace:
    """Timing and work of one executed instruction."""

    index: int
    opcode: str
    category: str
    issue_time: float
    complete_time: float
    alpha: int = 0
    max_hops: int = 0
    remote_messages: int = 0
    arrivals: int = 0
    work_ops: int = 0
    result: Any = None

    @property
    def latency(self) -> float:
        """Issue-to-complete elapsed time, in microseconds."""
        return self.complete_time - self.issue_time


@dataclass
class OverheadBreakdown:
    """The four components of parallel overhead (Fig. 21), in µs."""

    broadcast: float = 0.0
    communication: float = 0.0
    synchronization: float = 0.0
    collection: float = 0.0

    def total(self) -> float:
        """Aggregate value across fields."""
        return (
            self.broadcast + self.communication
            + self.synchronization + self.collection
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (JSON-friendly)."""
        return {
            "broadcast": self.broadcast,
            "communication": self.communication,
            "synchronization": self.synchronization,
            "collection": self.collection,
        }


@dataclass
class MachineRunReport:
    """Full measurement record of one program execution."""

    total_time_us: float = 0.0
    traces: List[InstructionTrace] = field(default_factory=list)
    #: MU busy time attributed to each instruction category (µs).
    category_busy_us: Dict[str, float] = field(default_factory=dict)
    overheads: OverheadBreakdown = field(default_factory=OverheadBreakdown)
    sync_stats: SyncStats = field(default_factory=SyncStats)
    icn_stats: IcnStats = field(default_factory=IcnStats)
    cluster_busy: List[Dict[str, float]] = field(default_factory=list)
    events_processed: int = 0
    num_clusters: int = 0
    total_pes: int = 0
    #: Set only when the run had an enabled fault layer; fault-free
    #: reports (and their JSON dumps) are byte-identical to pre-fault
    #: builds.
    faults_enabled: bool = False
    fault_stats: Optional[Any] = None
    #: True when the run was cut off by a ``budget_us`` watchdog before
    #: completing (traces cover only the instructions that finished).
    aborted: bool = False

    # ------------------------------------------------------------------
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
        """Instruction counts per category (Fig. 6 frequency axis)."""
        counts: Dict[str, int] = {}
        for trace in self.traces:
            counts[trace.category] = counts.get(trace.category, 0) + 1
        return counts

    def category_time_share(self) -> Dict[str, float]:
        """Fraction of attributed busy time per category (Fig. 6)."""
        total = sum(self.category_busy_us.values())
        if total == 0:
            return {}
        return {
            category: busy / total
            for category, busy in self.category_busy_us.items()
        }

    def propagate_count(self) -> int:
        """Number of PROPAGATE instructions executed (Fig. 20)."""
        return sum(
            1 for t in self.traces if t.category == Category.PROPAGATE
        )

    def max_propagation_distance(self) -> int:
        """Longest marker path in hops (§IV: 10–15 steps typical)."""
        return max((t.max_hops for t in self.traces), default=0)

    def mu_utilization(self) -> float:
        """Aggregate MU busy fraction over the run."""
        if self.total_time_us <= 0 or not self.cluster_busy:
            return 0.0
        busy = sum(c["mu_busy"] for c in self.cluster_busy)
        capacity = sum(c["mu_servers"] for c in self.cluster_busy)
        return busy / (capacity * self.total_time_us)

    def to_json(self) -> Dict[str, Any]:
        """JSON-serializable dump of the run's measurements.

        Covers everything an external analysis pipeline needs: totals,
        per-instruction traces (with collected results coerced through
        :func:`_json_safe` — ``result`` is ``Any`` and may hold
        non-JSON types), per-category busy time, the overhead
        breakdown, traffic series, and per-cluster utilization.
        (Raw perf records are omitted — export those separately if
        needed.)
        """
        dump: Dict[str, Any] = {
            "total_time_us": self.total_time_us,
            "num_clusters": self.num_clusters,
            "total_pes": self.total_pes,
            "events_processed": self.events_processed,
            "instructions": [self._trace_json(t) for t in self.traces],
            "category_busy_us": dict(self.category_busy_us),
            "overheads_us": self.overheads.as_dict(),
            "messages_per_sync": self.sync_stats.messages_per_sync(),
            "icn": self.icn_stats.to_json(),
            "cluster_busy": [dict(c) for c in self.cluster_busy],
        }
        if self.faults_enabled and self.fault_stats is not None:
            dump["faults"] = self.fault_stats.as_dict()
        if self.aborted:
            dump["aborted"] = True
        return dump

    @staticmethod
    def _trace_json(t: InstructionTrace) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "index": t.index,
            "opcode": t.opcode,
            "category": t.category,
            "issue_us": t.issue_time,
            "complete_us": t.complete_time,
            "latency_us": t.latency,
            "alpha": t.alpha,
            "max_hops": t.max_hops,
            "remote_messages": t.remote_messages,
            "arrivals": t.arrivals,
        }
        if t.result is not None:
            entry["result"] = _json_safe(t.result)
        return entry

    def summary(self) -> Dict[str, Any]:
        """Headline numbers for experiment tables."""
        summary = {
            "time_ms": round(self.total_time_ms, 3),
            "instructions": len(self.traces),
            "propagates": self.propagate_count(),
            "messages": self.icn_stats.messages,
            "mean_msgs_per_sync": round(self.sync_stats.mean_messages, 2),
            "max_path": self.max_propagation_distance(),
            "mu_utilization": round(self.mu_utilization(), 3),
            "overhead_us": {
                k: round(v, 1) for k, v in self.overheads.as_dict().items()
            },
        }
        if self.faults_enabled and self.fault_stats is not None:
            summary["faults_injected"] = self.fault_stats.total_injected()
        return summary
