"""Shared machine state and instruction semantics.

:class:`MachineState` holds the distributed knowledge-base tables and
implements the *semantics* of every SNAP instruction as **per-cluster
primitives** that report the work they performed.  Two executors drive
it:

* the :class:`~repro.core.engine.FunctionalEngine` — untimed, global
  worklist; used by the serial baseline and as the golden model;
* the timed :class:`~repro.machine.machine.SnapMachine` — schedules the
  same primitives through a discrete-event simulation of the PU/MU/CU
  pipeline, interconnect, and tiered synchronization.

Because both executors run the *same* primitive code, final marker
state is identical regardless of cluster count or event ordering — a
property the test suite checks explicitly.

Cluster sweeps are word-parallel, as the paper's MUs process a status
word's nodes at once: each one unpacks whole status rows into node ids
and gathers or scatters register rows with numpy, instead of visiting
one node at a time.

Propagation value semantics: when a complex marker reaches a node more
than once, the *minimum* value is kept, and the node is re-expanded
only when a strictly smaller value arrives.  This makes the final
values a deterministic fixpoint (minimum path cost under the hop
function), matching the "cost of accepting a particular concept
sequence" reading of marker values, independent of message ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..isa.functions import FunctionRegistry, HopFunction, always_alive, condition
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
    is_complex,
)
from ..isa.rules import PropagationRule
from ..network.builder import continuation_chain, preprocess_fanout
from ..network.graph import SemanticNetwork
from ..network.node import Color
from ..network.partition import Partitioning, make_partition
from .tables import (
    MACHINE_NODE_CAPACITY,
    ClusterTables,
    RelationEntry,
    bits_at,
    build_tables,
)


class ExecutionError(RuntimeError):
    """Raised when an instruction cannot be executed."""


@dataclass(slots=True)
class WorkReport:
    """Counters of machine work performed by a primitive.

    The timing model converts these into simulated time; the
    functional engine aggregates them for instruction profiles.
    """

    words: int = 0       # marker-status words read/written
    nodes: int = 0       # per-node visits (table row touches)
    slots: int = 0       # relation-table slots scanned
    sets: int = 0        # marker bits written
    fp_ops: int = 0      # floating-point value updates
    messages: int = 0    # cross-cluster activation messages emitted
    links_made: int = 0  # relation slots written (bindings)

    def merge(self, other: "WorkReport") -> "WorkReport":
        """Merge another instance into this one; returns self."""
        self.words += other.words
        self.nodes += other.nodes
        self.slots += other.slots
        self.sets += other.sets
        self.fp_ops += other.fp_ops
        self.messages += other.messages
        self.links_made += other.links_made
        return self

    def total(self) -> int:
        """Aggregate micro-operation count."""
        return (
            self.words + self.nodes + self.slots + self.sets
            + self.fp_ops + self.messages + self.links_made
        )


#: A marker delivery pending at a cluster: ``(cluster, local, state,
#: value, origin, hops)``.  The same tuple serves a local delivery and a
#: remote one: the timed machine carries a remote arrival across the
#: interconnect as its activation message.  Its level is the
#: propagation's (:attr:`PropagationContext.level`).
Arrival = Tuple[int, int, int, float, int, int]

#: What :meth:`MachineState.deliver` returns: ``(local, remote, slots,
#: fp_ops)`` -- the deliveries it emits on this cluster and on others,
#: the relation slots it scanned and its floating-point updates.
Delivery = Tuple[Sequence[Arrival], Sequence[Arrival], int, int]

#: A delivery that expands nothing, without and with a register write.
_NO_EXPANSION: Tuple[Delivery, Delivery] = (((), (), 0, 0), ((), (), 0, 1))


#: Compiled rule: state -> ((relation id, next state), ...).
CompiledRule = Dict[int, Tuple[Tuple[int, int], ...]]

#: Per-(node, rule-state) expansion budget — the safety valve against
#: pathological negative-cost cycles.  Shared by the functional engine
#: and the timed machine so cap semantics cannot drift between them.
MAX_EXPANSIONS = 64


@dataclass(slots=True)
class PropagationContext:
    """Per-PROPAGATE bookkeeping shared by all clusters."""

    instr: Propagate
    rule: PropagationRule
    compiled: CompiledRule
    hop: HopFunction
    level: int = 0
    #: (cluster, local, state) -> (times expanded, value last expanded
    #: from): the expansion cap and the re-expansion test in one entry.
    expanded: Dict[Tuple[int, int, int], Tuple[int, float]] = field(
        default_factory=dict)
    #: Safety valve for pathological negative-cost cycles.
    max_expansions: int = MAX_EXPANSIONS
    # statistics
    total_arrivals: int = 0
    remote_messages: int = 0
    max_hops: int = 0
    alpha: int = 0  # number of seed (source-activated) nodes
    # Per-arrival constants, derived from the fields above.
    marker: int = field(init=False)
    valued: bool = field(init=False)
    combine: Callable[[float, float], float] = field(init=False)
    alive: Optional[Callable[[float], bool]] = field(init=False)

    def __post_init__(self) -> None:
        self.marker = self.instr.marker2
        self.valued = is_complex(self.marker)
        self.combine = self.hop.combine  # hop.apply without its frame
        self.alive = None if self.hop.alive is always_alive else self.hop.alive


class MachineState:
    """Distributed knowledge base + SNAP instruction semantics."""

    def __init__(
        self,
        network: SemanticNetwork,
        num_clusters: int = 32,
        partition_policy: str = "round-robin",
        partitioning: Optional[Partitioning] = None,
        functions: Optional[FunctionRegistry] = None,
        node_capacity_per_cluster: Optional[int] = None,
        excluded_clusters: Optional[Iterable[int]] = None,
        machine_capacity: Optional[int] = None,
    ) -> None:
        """``node_capacity_per_cluster``: pass 1024 to enforce the
        prototype's physical cluster memory limit; ``None`` (default)
        places no bound, which baselines and sweep configurations
        rely on (a 1-cluster reference run holds the whole KB).

        ``excluded_clusters``: failed clusters that must host no nodes
        (fault injection); the partition is remapped so their region
        of the network is evicted onto survivors, and runtime node
        creation never places nodes there.

        ``machine_capacity``: total node budget across all clusters;
        defaults to the prototype's 32K.  Benchmarks and scale studies
        pass a larger figure to model a bigger build of the machine."""
        self.network = preprocess_fanout(network)
        self.num_clusters = num_clusters
        self.functions = functions or FunctionRegistry()
        self.excluded_clusters = frozenset(excluded_clusters or ())
        #: Nodes evicted off excluded clusters (graceful degradation).
        self.nodes_remapped = 0
        if partitioning is None:
            capacity = (
                node_capacity_per_cluster
                if node_capacity_per_cluster is not None
                else max(1, self.network.num_nodes)
            )
            partitioning = make_partition(
                self.network, num_clusters, partition_policy, capacity
            )
        if self.excluded_clusters:
            from ..network.partition import evict_clusters

            partitioning, self.nodes_remapped = evict_clusters(
                partitioning, self.excluded_clusters
            )
        self.partitioning = partitioning
        self.clusters: List[ClusterTables] = build_tables(
            self.network,
            partitioning,
            capacity=(
                machine_capacity
                if machine_capacity is not None
                else MACHINE_NODE_CAPACITY
            ),
        )
        #: global node id -> (cluster, local id); maintained through
        #: runtime node creation.
        self.addr: Dict[int, Tuple[int, int]] = {}
        for tables in self.clusters:
            for gid, lid in tables.to_local.items():
                self.addr[gid] = (tables.cluster_id, lid)
        #: Reclaimed node slots awaiting reuse (controller GC, §III-C).
        self._free_nodes: List[int] = []

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def resolve(self, ref) -> int:
        """Resolve a node operand to a global id."""
        return self.network.resolve(ref)

    def address(self, ref) -> Tuple[int, int]:
        """(cluster, local) address of a node operand.

        Raises :class:`ExecutionError` for nodes the machine does not
        host — typically a symptom of mutating the network object
        directly instead of through CREATE/MARKER-CREATE instructions.
        """
        gid = self.resolve(ref)
        try:
            return self.addr[gid]
        except KeyError:
            raise ExecutionError(
                f"node {self.network.node(gid).name!r} (id {gid}) is not "
                f"loaded into the machine tables; create nodes through "
                f"CREATE/MARKER-CREATE instructions, not by mutating the "
                f"network directly"
            ) from None

    def node_name(self, gid: int) -> str:
        """Name of a node by global id."""
        return self.network.name_of(gid)

    def compile_rule(self, rule: PropagationRule) -> CompiledRule:
        """Translate a rule's relation names into relation ids.

        Relations absent from the knowledge base compile to no
        transitions (a marker simply cannot move along them).
        """
        compiled: CompiledRule = {}
        for state in rule.table:
            moves = []
            for rel_name, nxt in rule.moves(state):
                rid = self.network.relations.get(rel_name)
                if rid is not None:
                    moves.append((rid, nxt))
            compiled[state] = tuple(moves)
        return compiled

    def _least_loaded_cluster(self) -> int:
        sizes = [t.num_nodes for t in self.clusters]
        if self.excluded_clusters:
            eligible = [
                c for c in range(len(sizes))
                if c not in self.excluded_clusters
            ]
            best = min(eligible, key=lambda c: sizes[c])
            return best
        return sizes.index(min(sizes))

    def _create_node(self, name: str, color: int) -> int:
        """Create a node at runtime, reusing a reclaimed slot if any."""
        if self._free_nodes:
            gid = self._free_nodes.pop()
            self.network.rename_node(gid, name)
            self.network.set_color(gid, color)
            cid, lid = self.addr[gid]
            self.clusters[cid].node_table.color[lid] = color
            return gid
        node = self.network.add_node(name, color)
        cid = self._least_loaded_cluster()
        lid = self.clusters[cid].add_node(node.node_id, color)
        self.addr[node.node_id] = (cid, lid)
        return node.node_id

    def garbage_collect(self) -> int:
        """Reclaim orphaned result nodes (§III-C housekeeping).

        The controller performs *"node management and garbage
        collection"* when the pipeline is empty.  A runtime-created
        result node whose bindings have all been MARKER-DELETEd is
        unreachable; its markers are wiped and its physical slot is
        queued for reuse by the next CREATE/MARKER-CREATE.
        """
        from ..isa.instructions import NUM_MARKERS

        freed = 0
        free_set = set(self._free_nodes)
        for node in list(self.network.nodes()):
            gid = node.node_id
            if (
                node.color != Color.RESULT
                or gid in free_set
                or self.network.fanout(gid) > 0
                or self.network.in_degree(gid) > 0
            ):
                continue
            cid, lid = self.addr[gid]
            tables = self.clusters[cid]
            for marker in range(NUM_MARKERS):
                tables.status.clear(marker, lid)
                tables.node_table.clear_value(lid, marker)
            self.network.rename_node(gid, f"__free__:{gid}")
            self._free_nodes.append(gid)
            freed += 1
        return freed

    def reset_markers(self) -> None:
        """Clear all marker state machine-wide (status bits + complex
        value/origin registers) without touching the knowledge base.

        This is the host's between-queries wipe: serving treats each
        query as independent, so the array is handed over clean.  Nodes
        created at runtime and runtime link bindings are *not* undone —
        those are knowledge-base maintenance, owned by the controller's
        housekeeping (:meth:`garbage_collect`), not per-query state.
        """
        for tables in self.clusters:
            tables.status.reset()
            tables.node_table.reset_registers()

    def ensure_node(self, ref, color: int = Color.RESULT) -> int:
        """Resolve a node operand, creating it (by name) if missing."""
        if isinstance(ref, str) and ref not in self.network:
            return self._create_node(ref, color)
        return self.resolve(ref)

    def add_link_runtime(
        self, source_gid: int, relation: str, dest_gid: int, weight: float
    ) -> WorkReport:
        """Install a link in both the logical network and the tables."""
        link = self.network.add_link(source_gid, relation, dest_gid, weight)
        src_c, src_l = self.addr[source_gid]
        dst_c, dst_l = self.addr[dest_gid]
        self.clusters[src_c].relations.add(
            src_l,
            RelationEntry(link.relation, dst_c, dst_l, dest_gid, weight),
        )
        return WorkReport(links_made=1)

    def remove_link_runtime(
        self, source_gid: int, relation: str, dest_gid: int
    ) -> WorkReport:
        """Remove a link from the network and tables (if present).

        A link past a node's 16 slots sits in a continuation subnode's
        row, so the network and the table both walk the chain.
        """
        removed = any(
            self.network.remove_link(row, relation, dest_gid)
            for row in continuation_chain(self.network, source_gid)
        )
        rid = self.network.relations.get(relation)
        if removed and rid is not None:
            src_c, src_l = self.addr[source_gid]
            self.clusters[src_c].relations.remove(src_l, rid, dest_gid)
        return WorkReport(slots=1, links_made=1 if removed else 0)

    # ------------------------------------------------------------------
    # Node maintenance (controller-initiated, global)
    # ------------------------------------------------------------------
    def create(self, instr: Create) -> WorkReport:
        """CREATE: load one link, creating endpoints as needed."""
        src = self.ensure_node(instr.source, Color.GENERIC)
        dst = self.ensure_node(instr.end, Color.GENERIC)
        return self.add_link_runtime(src, instr.relation, dst, instr.weight)

    def delete(self, instr: Delete) -> WorkReport:
        """DELETE: remove one knowledge-base link."""
        src = self.resolve(instr.source)
        dst = self.resolve(instr.end)
        return self.remove_link_runtime(src, instr.relation, dst)

    def set_color(self, instr: SetColor) -> WorkReport:
        """SET-COLOR: retag a node's color in network and tables."""
        gid = self.resolve(instr.node)
        self.network.set_color(gid, instr.color)
        cid, lid = self.addr[gid]
        self.clusters[cid].node_table.color[lid] = instr.color
        return WorkReport(nodes=1)

    # ------------------------------------------------------------------
    # Search (configuration phase)
    # ------------------------------------------------------------------
    def search_node(self, cid: int, instr: SearchNode) -> WorkReport:
        """Set a marker at a named node if it lives on this cluster."""
        gid = self.resolve(instr.node)
        home, lid = self.address(gid)
        if home != cid:
            return WorkReport(nodes=1)  # each PE checks its name table
        tables = self.clusters[cid]
        tables.status.set(instr.marker, lid)
        tables.node_table.set_value(lid, instr.marker, instr.value, gid)
        return WorkReport(nodes=1, sets=1, fp_ops=1)

    def search_relation(self, cid: int, instr: SearchRelation) -> WorkReport:
        """Mark every local node with an outgoing link of the relation."""
        tables = self.clusters[cid]
        rid = self.network.relations.get(instr.relation)
        work = WorkReport()
        if rid is None:
            return work
        color = tables.node_table.color
        for lid in range(tables.num_nodes):
            if color[lid] == Color.SUBNODE:
                continue  # its links belong to its parent's logical row
            row = tables.relations.links_of(lid)
            work.slots += row[0]
            if rid in row[1::5]:  # each link's relation field
                tables.status.set(instr.marker, lid)
                gid = tables.to_global[lid]
                tables.node_table.set_value(lid, instr.marker, instr.value, gid)
                work.sets += 1
                work.fp_ops += 1
        work.nodes += tables.num_nodes
        return work

    def search_color(self, cid: int, instr: SearchColor) -> WorkReport:
        """Mark every local node of the given color."""
        tables = self.clusters[cid]
        lids = np.flatnonzero(tables.node_table.color == instr.color)
        if lids.size:
            tables.status.set_many(instr.marker, lids)
            if is_complex(instr.marker):
                to_global = tables.to_global
                tables.node_table.set_values(
                    instr.marker, lids, instr.value,
                    [to_global[lid] for lid in lids.tolist()],
                )
        return WorkReport(nodes=tables.num_nodes, sets=lids.size,
                          fp_ops=lids.size)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def make_context(self, instr: Propagate, level: int = 0) -> PropagationContext:
        """Prepare the shared bookkeeping for one PROPAGATE."""
        hop = self.functions.hop(instr.function)
        return PropagationContext(
            instr=instr,
            rule=instr.rule,
            compiled=self.compile_rule(instr.rule),
            hop=hop,
            level=level,
        )

    def seeds(
        self, ctx: PropagationContext, cid: int
    ) -> Tuple[List[Arrival], WorkReport]:
        """Scan a cluster's status table for source-marker nodes.

        Returns pseudo-arrivals at the origin nodes themselves (state =
        rule initial, marker2 not set at origins) that the executor
        expands with ``deliver(ctx, seed, seed=True)``.
        """
        tables = self.clusters[cid]
        marker = ctx.instr.marker1
        lids = tables.status.nodes_with_array(marker)
        values = tables.node_table.gather(marker, lids)[0]
        to_global = tables.to_global
        initial = ctx.rule.initial_state
        out = [
            (cid, lid, initial, value, to_global[lid], 0)
            for lid, value in zip(lids.tolist(), values.tolist())
        ]
        ctx.alpha += len(out)
        return out, WorkReport(words=tables.status.num_words, nodes=len(out))

    def deliver(
        self, ctx: PropagationContext, arrival: Arrival, seed: bool = False
    ) -> Delivery:
        """One marker hop: set marker-2 at the arrival's node, then
        expand along its links if the node should re-emit.

        Expansion happens on first arrival at a (node, rule-state), or
        when a strictly smaller complex-marker value arrives (min-cost
        fixpoint semantics).  A ``seed`` is an origin node: it expands
        without receiving the marker.  Returns the :data:`Delivery`;
        the caller counts one node visit and one marker set per
        non-seed delivery and one message per remote arrival.
        """
        cluster, local, state, value, origin, hops = arrival
        tables = self.clusters[cluster]
        key = (cluster, local, state)
        expanded = ctx.expanded
        record = expanded.get(key)
        fp_ops = 0
        if not seed:
            ctx.total_arrivals += 1
            if hops > ctx.max_hops:
                ctx.max_hops = hops
            marker = ctx.marker
            bits = tables.status.bits
            word = local >> 5  # divmod by WORD_BITS == 32
            old = bits.item(marker, word)
            mask = 1 << (local & 31)
            was_clear = not old & mask
            if was_clear:
                bits[marker, word] = old | mask
            if ctx.valued:
                registers = tables.node_table
                if was_clear or value < registers.value.item(marker, local):
                    registers.set_value(local, marker, value, origin)
                    fp_ops = 1
                if record is not None and not value < record[1]:
                    return _NO_EXPANSION[fp_ops]
            elif record is not None:
                return _NO_EXPANSION[0]
        count = 0 if record is None else record[0]
        if count >= ctx.max_expansions:
            return _NO_EXPANSION[fp_ops]
        expanded[key] = (count + 1, value)
        moves = ctx.compiled.get(state)
        if not moves:
            return _NO_EXPANSION[fp_ops]

        combine = ctx.combine
        alive = ctx.alive
        hops += 1
        links = iter(tables.relations.links_of(local))
        slots = next(links)
        local_out: List[Arrival] = []
        remote_out: List[Arrival] = []
        for relation, dest_cluster, dest_local, _gid, weight in zip(
            links, links, links, links, links
        ):
            for rid, next_state in moves:
                if relation != rid:
                    continue
                new_value = combine(value, weight)
                fp_ops += 1
                if alive is not None and not alive(new_value):
                    continue
                out = (dest_cluster, dest_local, next_state, new_value,
                       origin, hops)
                if dest_cluster == cluster:
                    local_out.append(out)
                else:
                    remote_out.append(out)
        ctx.remote_messages += len(remote_out)
        return local_out, remote_out, slots, fp_ops

    # ------------------------------------------------------------------
    # Boolean operations (word-wise over the status table)
    # ------------------------------------------------------------------
    def and_marker(self, cid: int, instr: AndMarker) -> WorkReport:
        """AND-MARKER over this cluster's status table."""
        words = self.clusters[cid].status.and_rows(
            instr.marker1, instr.marker2, instr.marker3)
        # Both sources are set wherever marker-3 now is.
        return WorkReport(words=words,
                          fp_ops=self._combine_values(cid, instr, None))

    def or_marker(self, cid: int, instr: OrMarker) -> WorkReport:
        """OR-MARKER over this cluster's status table."""
        status = self.clusters[cid].status
        sources = None
        if is_complex(instr.marker3):
            # Source status words before marker-3 (which may alias a
            # source) is written.
            sources = (status.row(instr.marker1).copy(),
                       status.row(instr.marker2).copy())
        words = status.or_rows(instr.marker1, instr.marker2, instr.marker3)
        return WorkReport(words=words,
                          fp_ops=self._combine_values(cid, instr, sources))

    def _combine_values(
        self,
        cid: int,
        instr: Union[AndMarker, OrMarker],
        sources: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> int:
        """Merge source values into marker-3 where it is now set;
        returns the number of values written.

        ``sources`` holds OR-MARKER's source status words from before
        the write (None for AND-MARKER, whose sources are both set
        wherever marker-3 is).  The combine function applies only where
        both sources were set; elsewhere the present source's value is
        taken unchanged (an unset marker has no value to merge).  The
        origin is marker-1's where it has one, else marker-2's.
        """
        if not is_complex(instr.marker3):
            return 0
        tables = self.clusters[cid]
        combine = self.functions.combine(instr.function)
        lids = tables.status.nodes_with_array(instr.marker3)
        if not lids.size:
            return 0
        registers = tables.node_table
        v1, o1 = registers.gather(instr.marker1, lids)
        v2, o2 = registers.gather(instr.marker2, lids)
        if sources is None:
            values = combine.combine_many(v1, v2)
        else:
            has1 = bits_at(sources[0], lids)
            both = has1 & bits_at(sources[1], lids)
            values = np.where(has1, v1, v2)
            values[both] = combine.combine_many(v1[both], v2[both])
        registers.set_values(instr.marker3, lids, values,
                             np.where(o1 < 0, o2, o1))
        return lids.size

    def not_marker(self, cid: int, instr: NotMarker) -> WorkReport:
        """m2 := nodes where m1 is clear or fails the condition."""
        tables = self.clusters[cid]
        status = tables.status
        work = WorkReport(words=status.not_row(instr.marker1, instr.marker2))
        if instr.condition != "always":
            cond = condition(instr.condition)
            # Read after the complement: with marker-2 aliasing
            # marker-1 this sees the complemented row.
            lids = status.nodes_with_array(instr.marker1)
            values = tables.node_table.gather(instr.marker1, lids)[0]
            failed = lids[~np.asarray(cond(values, instr.value), dtype=bool)]
            status.set_many(instr.marker2, failed)
            work.fp_ops = lids.size
            work.sets = failed.size
        return work

    # ------------------------------------------------------------------
    # Set/clear
    # ------------------------------------------------------------------
    def set_marker(self, cid: int, instr: SetMarker) -> WorkReport:
        """SET-MARKER: set at every local node."""
        tables = self.clusters[cid]
        tables.status.set_all(instr.marker)
        work = WorkReport(words=tables.status.num_words)
        if is_complex(instr.marker):
            tables.node_table.fill(instr.marker, instr.value)
            work.fp_ops += tables.num_nodes
        return work

    def clear_marker(self, cid: int, instr: ClearMarker) -> WorkReport:
        """CLEAR-MARKER: clear at every local node."""
        tables = self.clusters[cid]
        tables.status.clear_all(instr.marker)
        work = WorkReport(words=tables.status.num_words)
        if is_complex(instr.marker):
            tables.node_table.fill(instr.marker, 0.0)
        return work

    def func_marker(self, cid: int, instr: FuncMarker) -> WorkReport:
        """FUNC-MARKER: rewrite values where set."""
        tables = self.clusters[cid]
        work = WorkReport(words=tables.status.num_words)
        if not is_complex(instr.marker):
            return work
        unary = self.functions.unary(instr.function)
        lids = tables.status.nodes_with_array(instr.marker)
        if lids.size:
            values, origins = tables.node_table.gather(instr.marker, lids)
            tables.node_table.set_values(instr.marker, lids,
                                         unary.apply_many(values), origins)
            work.fp_ops = lids.size
        return work

    # ------------------------------------------------------------------
    # Marker node maintenance (binding)
    # ------------------------------------------------------------------
    def marker_create(self, cid: int, instr: MarkerCreate) -> WorkReport:
        """Bind each locally marked node to the end node."""
        end_gid = self.ensure_node(instr.end)
        tables = self.clusters[cid]
        work = WorkReport(words=tables.status.num_words)
        for lid in tables.status.nodes_with(instr.marker):
            gid = tables.to_global[lid]
            work.merge(self.add_link_runtime(gid, instr.forward, end_gid, 0.0))
            if instr.reverse:
                work.merge(
                    self.add_link_runtime(end_gid, instr.reverse, gid, 0.0)
                )
            work.nodes += 1
        return work

    def marker_delete(self, cid: int, instr: MarkerDelete) -> WorkReport:
        """Unbind each locally marked node from the end node."""
        end_gid = self.resolve(instr.end)
        tables = self.clusters[cid]
        work = WorkReport(words=tables.status.num_words)
        for lid in tables.status.nodes_with(instr.marker):
            gid = tables.to_global[lid]
            work.merge(self.remove_link_runtime(gid, instr.forward, end_gid))
            if instr.reverse:
                work.merge(
                    self.remove_link_runtime(end_gid, instr.reverse, gid)
                )
            work.nodes += 1
        return work

    def marker_set_color(self, cid: int, instr: MarkerSetColor) -> WorkReport:
        """Recolor every locally marked node."""
        tables = self.clusters[cid]
        work = WorkReport(words=tables.status.num_words)
        for lid in tables.status.nodes_with(instr.marker):
            tables.node_table.color[lid] = instr.color
            gid = tables.to_global[lid]
            self.network.set_color(gid, instr.color)
            work.nodes += 1
        return work

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def collect_node(
        self, cid: int, instr: CollectNode
    ) -> Tuple[List[Tuple[int, str]], WorkReport]:
        """Collect (gid, name) for locally marked nodes."""
        tables = self.clusters[cid]
        to_global = tables.to_global
        gids = [to_global[lid]
                for lid in tables.status.nodes_with(instr.marker)]
        out = list(zip(gids, self.network.names_of(gids)))
        return out, WorkReport(words=tables.status.num_words, nodes=len(out))

    def collect_marker(
        self, cid: int, instr: CollectMarker
    ) -> Tuple[List[Tuple[int, float, int]], WorkReport]:
        """Collect (gid, value, origin) for locally marked nodes."""
        tables = self.clusters[cid]
        lids = tables.status.nodes_with_array(instr.marker)
        values, origins = tables.node_table.gather(instr.marker, lids)
        to_global = tables.to_global
        out = [
            (to_global[lid], value, origin)
            for lid, value, origin in zip(
                lids.tolist(), values.tolist(), origins.tolist())
        ]
        return out, WorkReport(words=tables.status.num_words, nodes=len(out))

    def collect_relation(
        self, cid: int, instr: CollectRelation
    ) -> Tuple[List[Tuple[int, str, int, float]], WorkReport]:
        """Collect matching links leaving locally marked nodes."""
        tables = self.clusters[cid]
        rid = self.network.relations.get(instr.relation)
        work = WorkReport(words=tables.status.num_words)
        out = []
        if rid is None:
            return out, work
        for lid in tables.status.nodes_with(instr.marker):
            gid = tables.to_global[lid]
            links = iter(tables.relations.links_of(lid))
            work.slots += next(links)
            for relation, _c, _l, dest_gid, weight in zip(
                links, links, links, links, links
            ):
                if relation == rid:
                    out.append((gid, instr.relation, dest_gid, weight))
            work.nodes += 1
        return out, work

    def collect_color(
        self, cid: int, instr: CollectColor
    ) -> Tuple[List[Tuple[int, int]], WorkReport]:
        """Collect (gid, color) for locally marked nodes."""
        tables = self.clusters[cid]
        lids = tables.status.nodes_with_array(instr.marker)
        to_global = tables.to_global
        out = list(zip(
            [to_global[lid] for lid in lids.tolist()],
            tables.node_table.color[lids].tolist(),
        ))
        return out, WorkReport(words=tables.status.num_words, nodes=len(out))

    # ------------------------------------------------------------------
    # Whole-state queries (tests / applications)
    # ------------------------------------------------------------------
    def marker_set_nodes(self, marker: int) -> List[int]:
        """Global ids of all nodes where ``marker`` is set."""
        out: List[int] = []
        for tables in self.clusters:
            out.extend(
                tables.to_global[lid]
                for lid in tables.status.nodes_with(marker)
            )
        return sorted(out)

    def marker_value(self, marker: int, node_ref) -> float:
        """Value of a complex marker at one node."""
        cid, lid = self.address(node_ref)
        return self.clusters[cid].node_table.get_value(lid, marker)

    def marker_test(self, marker: int, node_ref) -> bool:
        """Whether a marker is set at one node."""
        cid, lid = self.address(node_ref)
        return self.clusters[cid].status.test(marker, lid)
