"""KB sharding: induced subgraphs + per-shard nested execution.

The fleet partitions one logical knowledge base into ``num_shards``
**shards** using a :mod:`repro.network.partition` policy (community
partitioning by default, so each shard holds semantically related
concepts and most marker traffic stays shard-local).  Each shard is an
*induced subgraph*: its nodes keep their names, and only links whose
both endpoints live on the shard survive — exactly the data a replica
group of that shard would store.

:class:`ShardExecutor` wraps one shard in a nested
:class:`repro.machine.SnapMachine` and answers queries through the full
PU/MU/CU cost model.  Replicas of a shard are byte-identical and the
nested simulator is deterministic, so one executor per shard answers
for **every** replica: per-replica differences (regional slowdown,
cross-region failover hops) are latency adjustments applied by the
router, not separate simulations.

A query whose search roots are absent from a shard is a **miss**: the
executor detects this by pre-scanning the program's name operands
(running the machine would raise ``GraphError`` at resolve time) and
charges only a fixed name-table lookup cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..isa.program import SnapProgram
from ..machine.config import MachineConfig, Timing
from ..machine.machine import SnapMachine
from ..network.graph import SemanticNetwork
from ..network.partition import make_partition
from ..obs.tracer import NULL_TRACER
from .config import FleetConfig


class FleetError(ValueError):
    """Raised for invalid fleet-level requests."""


@dataclass(frozen=True)
class Shard:
    """One slice of the KB: an induced subgraph plus its provenance."""

    shard_id: int
    #: The shard's induced subgraph (names preserved, ids re-densified).
    network: SemanticNetwork
    #: Global node ids this shard holds, ascending.
    global_ids: Tuple[int, ...]
    #: Node names this shard holds (the routing name table).
    names: FrozenSet[str]

    @property
    def num_nodes(self) -> int:
        return len(self.global_ids)


def build_shards(
    network: SemanticNetwork, config: FleetConfig
) -> List[Shard]:
    """Partition the KB into induced subgraphs, one per shard.

    Deterministic: the partition policies draw no RNG, nodes are added
    to each subgraph in ascending global-id order, and links in the
    parent network's iteration order.
    """
    partitioning = make_partition(
        network, config.num_shards, policy=config.partition_policy
    )
    shards: List[Shard] = []
    for sid in range(config.num_shards):
        members = partitioning.members(sid)
        member_set = set(members)
        sub = SemanticNetwork()
        names = []
        for nid in members:
            node = network.node(nid)
            sub.add_node(node.name, node.color, node.function)
            names.append(node.name)
        for link in network.links():
            if link.source in member_set and link.dest in member_set:
                sub.add_link(
                    network.node(link.source).name,
                    network.relations.name_of(link.relation),
                    network.node(link.dest).name,
                    link.weight,
                )
        shards.append(
            Shard(
                shard_id=sid,
                network=sub,
                global_ids=tuple(members),
                names=frozenset(names),
            )
        )
    return shards


@dataclass(slots=True)
class ShardAnswer:
    """What one shard's nested execution produced for a query."""

    #: Simulated service time on the shard machine, in µs (excludes
    #: regional slowdown and failover hops — the router adds those).
    service_us: float
    #: True when the answer carries no query-visible fault damage.
    ok: bool
    #: True when the query's search roots are absent from this shard
    #: (an empty answer at name-table-lookup cost).
    miss: bool = False
    #: Collected retrieval results, in program order.
    results: Optional[List[Any]] = None


#: Instruction attributes that carry a node-name operand (``forward``
#: and ``reverse`` on the MARKER ops are *relation* names — excluded).
_NAME_ATTRS = ("node", "source", "end")


class ShardExecutor:
    """Nested machine for one shard, with per-template caching.

    Shard replicas are identical and the nested simulation is
    deterministic, so ``(template, shard)`` fully determines the
    answer; repeated templates cost one simulation total.
    """

    def __init__(
        self,
        shard: Shard,
        config: FleetConfig,
        timing: Optional[Timing] = None,
    ) -> None:
        self.shard = shard
        self.config = config
        self.machine: Optional[SnapMachine] = None
        if shard.num_nodes:
            machine_cfg = MachineConfig(
                num_clusters=config.clusters_per_shard,
                mus_per_cluster=config.mus_per_cluster,
                partition_policy=config.partition_policy,
                timing=timing or Timing(),
            )
            self.machine = SnapMachine(shard.network, machine_cfg)
            self.machine.trace_name = f"shard {shard.shard_id:02d}"
        self._cache: Dict[str, ShardAnswer] = {}
        self.executions = 0
        self.cache_hits = 0

    def _covers(self, program: SnapProgram) -> bool:
        """Whether every name operand of the program is on this shard.

        Fleet queries must reference nodes **by name** — a raw node id
        is ambiguous across shards (ids re-densify per subgraph).
        """
        names = self.shard.names
        for instr in program:
            for attr in _NAME_ATTRS:
                ref = getattr(instr, attr, None)
                if ref is None:
                    continue
                if not isinstance(ref, str):
                    raise FleetError(
                        "fleet queries must reference nodes by name; "
                        f"{instr.opcode} carries id operand {ref!r}"
                    )
                if ref not in names:
                    return False
        return True

    def execute(self, query, tracer=None, metrics=None,
                trace_offset_us: float = 0.0) -> ShardAnswer:
        """Answer one query leg on this shard (cached per template).

        Cache hits replay the stored timing without re-simulating;
        like the host's replica array, only the first execution of a
        template emits machine-level trace tracks.
        """
        template = getattr(query, "template", None)
        if template is not None:
            hit = self._cache.get(template)
            if hit is not None:
                self.cache_hits += 1
                return hit
        answer = self._execute(query.program, tracer, metrics,
                               trace_offset_us)
        if template is not None:
            self._cache[template] = answer
        return answer

    def _execute(self, program: SnapProgram, tracer, metrics,
                 trace_offset_us: float) -> ShardAnswer:
        if self.machine is None or not self._covers(program):
            return ShardAnswer(
                service_us=self.config.name_miss_service_us,
                ok=True, miss=True, results=[],
            )
        self.executions += 1
        self.machine.reset_markers()
        report = self.machine.run(
            program, tracer=tracer, metrics=metrics,
            trace_offset_us=trace_offset_us,
        )
        damage = 0
        if report.faults_enabled and report.fault_stats is not None:
            damage = report.fault_stats.query_visible_failures()
        return ShardAnswer(
            service_us=report.total_time_us,
            ok=damage == 0 and not report.aborted,
            results=report.results(),
        )

    def reference_results(self, query) -> List[Any]:
        """Ground-truth answer of this shard for correctness checks.

        Shard machines are fault-free and the KB is immutable, so the
        cached execution *is* the reference — a stale (non-home) serve
        returns the same payload, just later.
        """
        answer = self.execute(query, tracer=NULL_TRACER)
        return list(answer.results or [])
