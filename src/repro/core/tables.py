"""The three knowledge-base tables of paper Fig. 4.

Each cluster stores its partition of the semantic network in:

* a **node table** — permanent properties (color, function) and the
  dynamic complex-marker registers (32-bit float value + 15-bit origin
  address) for each local node;
* a **marker status table** — one bit per (marker, node), packed into
  ``W = 32``-bit words so that *"when the table is updated, the status
  of markers from W nodes are processed simultaneously by each PE"*;
* a **relation table** — up to 16 outgoing relation slots per node,
  each holding (relation type, destination cluster, destination local
  id, 32-bit float weight).  Continuation slots installed by the
  fanout pre-processor are walked transparently.

All tables are numpy-backed; word-level operation counts (the unit of
MU work) are exposed for the timing model.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..isa.instructions import NUM_COMPLEX_MARKERS, NUM_MARKERS, is_complex
from ..network.builder import CONT_RELATION
from ..network.graph import SemanticNetwork
from ..network.node import MAX_FANOUT
from ..network.partition import Partitioning

#: CPU word length in bits (TMS320C30 is a 32-bit machine).
WORD_BITS = 32

#: Machine node capacity: "32K semantic network nodes were selected as
#: a compromise between knowledge base size and machine cost".
MACHINE_NODE_CAPACITY = 32 * 1024

#: Sentinel for an empty relation slot.
EMPTY_SLOT = -1


class TableError(ValueError):
    """Raised on capacity violations or bad table access."""


def _tail_mask(num_nodes: int) -> np.uint32:
    """Mask of the last status word's bits that hold nodes, so whole-row
    writes keep the padding bits (all 32 of an empty table's one word)
    clear."""
    tail = num_nodes % WORD_BITS
    if tail or not num_nodes:
        return np.uint32((1 << tail) - 1)
    return np.uint32(0xFFFFFFFF)


def bits_at(words: np.ndarray, locals_: np.ndarray) -> np.ndarray:
    """Status bits of ``locals_`` in a row of status words, as bools."""
    return (
        (words[locals_ // WORD_BITS] >> (locals_ % WORD_BITS)) & 1
    ).astype(bool)


class MarkerStatusTable:
    """Bit-packed active/inactive state for all 128 markers.

    Rows are markers; each row has ``ceil(n / 32)`` status words.
    Word-level boolean operations are the primitive the MUs execute
    "for 32 nodes at a time".
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.num_words = max(1, -(-num_nodes // WORD_BITS))
        #: The status words, one row per marker.  The per-arrival
        #: delivery path (:meth:`repro.core.state.MachineState.deliver`)
        #: reads and writes single words of it directly.
        self.bits = np.zeros((NUM_MARKERS, self.num_words), dtype=np.uint32)
        self._tail_mask = _tail_mask(num_nodes)

    # -- single-bit operations --------------------------------------------
    def set(self, marker: int, local: int) -> bool:
        """Set marker bit; returns True if it was previously clear."""
        word, bit = divmod(local, WORD_BITS)
        old = self.bits.item(marker, word)
        mask = 1 << bit
        if old & mask:
            return False
        self.bits[marker, word] = old | mask
        return True

    def clear(self, marker: int, local: int) -> None:
        """Clear one marker bit at a local node."""
        word, bit = divmod(local, WORD_BITS)
        self.bits[marker, word] &= np.uint32(~np.uint32(1 << bit))

    def test(self, marker: int, local: int) -> bool:
        """Whether the marker bit is set at a local node."""
        word, bit = divmod(local, WORD_BITS)
        return bool(self.bits[marker, word] >> np.uint32(bit) & 1)

    # -- row (whole-marker) operations ----------------------------------
    def row(self, marker: int) -> np.ndarray:
        """The raw status words of a marker (read-only view)."""
        view = self.bits[marker]
        view.flags.writeable = False
        return view

    def set_all(self, marker: int) -> None:
        """Set the marker at every node (word-wise)."""
        self.bits[marker, :] = np.uint32(0xFFFFFFFF)
        self.bits[marker, -1] = self._tail_mask

    def clear_all(self, marker: int) -> None:
        """Clear the marker at every node (word-wise)."""
        self.bits[marker, :] = 0

    def reset(self) -> None:
        """Clear every marker at every node (between serving queries)."""
        self.bits[:, :] = 0

    def and_rows(self, m1: int, m2: int, m3: int) -> int:
        """m3 := m1 & m2; returns words processed (timing unit)."""
        np.bitwise_and(self.bits[m1], self.bits[m2], out=self.bits[m3])
        return self.num_words

    def or_rows(self, m1: int, m2: int, m3: int) -> int:
        """m3 := m1 | m2; returns words processed."""
        np.bitwise_or(self.bits[m1], self.bits[m2], out=self.bits[m3])
        return self.num_words

    def not_row(self, m1: int, m2: int) -> int:
        """m2 := ~m1 (padding bits kept clear)."""
        np.bitwise_not(self.bits[m1], out=self.bits[m2])
        self.bits[m2, -1] &= self._tail_mask
        return self.num_words

    # -- queries -----------------------------------------------------------
    def count(self, marker: int) -> int:
        """Population count of a marker row."""
        return int(
            sum(bin(int(w)).count("1") for w in self.bits[marker])
        )

    def nodes_with(self, marker: int) -> List[int]:
        """Local ids of nodes where the marker is set, ascending."""
        return self.nodes_with_array(marker).tolist()

    # -- bulk operations -------------------------------------------------
    def set_many(self, marker: int, locals_: np.ndarray) -> None:
        """Set the marker at every listed local id (duplicates fine)."""
        words = locals_ // WORD_BITS
        masks = (np.uint32(1) << (locals_ % WORD_BITS)).astype(np.uint32)
        np.bitwise_or.at(self.bits[marker], words, masks)

    def nodes_with_array(self, marker: int) -> np.ndarray:
        """Local ids of nodes where the marker is set, as an ascending
        int64 array: the whole row's words unpacked at once."""
        row = self.bits[marker].astype("<u4", copy=False)
        return np.unpackbits(
            row.view(np.uint8), count=self.num_nodes, bitorder="little"
        ).nonzero()[0]

    def any(self, marker: int) -> bool:
        """Whether the marker is set anywhere."""
        return bool(np.any(self.bits[marker]))

    def snapshot(self) -> np.ndarray:
        """Copy of the whole table (for equivalence testing)."""
        return self.bits.copy()

    def grow(self, count: int = 1) -> None:
        """Extend capacity for ``count`` more nodes (runtime CREATE)."""
        self.num_nodes += count
        new_words = max(1, -(-self.num_nodes // WORD_BITS))
        if new_words > self.num_words:
            pad = np.zeros((NUM_MARKERS, new_words - self.num_words),
                           dtype=np.uint32)
            self.bits = np.concatenate([self.bits, pad], axis=1)
            self.num_words = new_words
        self._tail_mask = _tail_mask(self.num_nodes)


class NodeTable:
    """Permanent node properties + complex-marker registers (Fig. 4).

    The registers are marker-major — ``value``/``origin`` have shape
    ``(NUM_COMPLEX_MARKERS, n)`` — and every write goes through a
    method that records the marker as dirty, so
    :meth:`reset_registers` rewrites only the rows a query touched.
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.color = np.zeros(num_nodes, dtype=np.uint8)
        self.function = np.zeros(num_nodes, dtype=np.uint8)
        #: 32-bit float value per (complex marker, node).
        self.value = np.zeros((NUM_COMPLEX_MARKERS, num_nodes), dtype=np.float32)
        #: 15-bit origin address (global node id) per (complex marker, node).
        self.origin = np.full((NUM_COMPLEX_MARKERS, num_nodes), -1, dtype=np.int32)
        #: Complex markers written since the last :meth:`reset_registers`.
        self._dirty: Set[int] = set()

    def set_value(self, local: int, marker: int, value: float,
                  origin: int = -1) -> None:
        """Store a complex marker's value/origin (no-op for binary)."""
        if 0 <= marker < NUM_COMPLEX_MARKERS:  # is_complex, inlined
            self._dirty.add(marker)
            self.value[marker, local] = value
            self.origin[marker, local] = origin

    def set_values(self, marker: int, locals_: np.ndarray,
                   values: np.ndarray, origins: np.ndarray) -> None:
        """Scatter a complex marker's value/origin over many nodes."""
        self._dirty.add(marker)
        self.value[marker, locals_] = values
        self.origin[marker, locals_] = origins

    def gather(
        self, marker: int, locals_: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A marker's values (float64) and origins at many nodes; a
        binary marker reads as value 0.0, origin -1 everywhere."""
        if is_complex(marker):
            return (self.value[marker, locals_].astype(np.float64),
                    self.origin[marker, locals_])
        return (np.zeros(len(locals_)),
                np.full(len(locals_), -1, dtype=np.int32))

    def fill(self, marker: int, value: float) -> None:
        """Set a complex marker's value at every node, origin cleared
        (SET-MARKER and CLEAR-MARKER)."""
        self._dirty.add(marker)
        self.value[marker] = value
        self.origin[marker] = -1

    def get_value(self, local: int, marker: int) -> float:
        """Complex-marker value at a local node (0.0 for binary)."""
        if is_complex(marker):
            return float(self.value[marker, local])
        return 0.0

    def get_origin(self, local: int, marker: int) -> int:
        """Complex-marker origin at a local node (-1 for binary)."""
        if is_complex(marker):
            return int(self.origin[marker, local])
        return -1

    def clear_value(self, local: int, marker: int) -> None:
        """Reset a complex marker's value/origin at a node."""
        if is_complex(marker):
            self.value[marker, local] = 0.0
            self.origin[marker, local] = -1

    def reset_registers(self) -> None:
        """Reset every complex-marker value/origin register."""
        for marker in self._dirty:
            self.value[marker] = 0.0
            self.origin[marker] = -1
        self._dirty.clear()

    def grow(self, count: int = 1) -> None:
        """Extend capacity for ``count`` more nodes (runtime CREATE)."""
        self.num_nodes += count
        self.color = np.concatenate(
            [self.color, np.zeros(count, dtype=np.uint8)]
        )
        self.function = np.concatenate(
            [self.function, np.zeros(count, dtype=np.uint8)]
        )
        self.value = np.concatenate(
            [self.value,
             np.zeros((NUM_COMPLEX_MARKERS, count), dtype=np.float32)],
            axis=1,
        )
        self.origin = np.concatenate(
            [self.origin,
             np.full((NUM_COMPLEX_MARKERS, count), -1, dtype=np.int32)],
            axis=1,
        )


class RelationEntry(NamedTuple):
    """One decoded relation-table slot."""

    relation: int
    dest_cluster: int
    dest_local: int
    dest_global: int
    weight: float


#: A node's logical links as :meth:`RelationTable.links_of` caches
#: them: the number of slots the continuation walk scans (the MU timing
#: unit), then ``relation, dest_cluster, dest_local, dest_global,
#: weight`` for each link, flattened into one tuple.
LinkRow = Tuple[Any, ...]


class RelationTable:
    """Fixed 16-slot outgoing-relation storage per node.

    Slots hold (relation type, destination cluster, destination local
    id, weight).  The destination's global id is kept alongside for
    convenience (it is derivable from cluster+local via the
    partitioning, exactly as on the hardware).

    Runtime MARKER-CREATE bindings may exceed the 16 static slots; they
    spill into a dynamic overflow area (the hardware allocated result
    nodes from a reserved pool — see DESIGN.md).

    Readers see a node's links through :meth:`links_of`, which decodes
    the node's row (continuation chain included) once and caches it.
    :meth:`add` and :meth:`remove` drop the cached row of the physical
    row they change and of every node whose chain runs through it.
    """

    def __init__(
        self,
        num_nodes: int,
        cont_relation_id: Optional[int],
        node_ids: Optional[List[int]] = None,
    ) -> None:
        """``node_ids``: one int object per node id (``node_ids[i] ==
        i``), shared by every table of a machine, so cached rows hold
        pointers instead of a fresh int per link; grown on demand."""
        self.num_nodes = num_nodes
        self.cont_relation_id = cont_relation_id
        self._ids: List[int] = node_ids if node_ids is not None else []
        shape = (num_nodes, MAX_FANOUT)
        self.relation = np.full(shape, EMPTY_SLOT, dtype=np.int32)
        self.dest_cluster = np.zeros(shape, dtype=np.int32)
        self.dest_local = np.zeros(shape, dtype=np.int32)
        self.dest_global = np.zeros(shape, dtype=np.int32)
        self.weight = np.zeros(shape, dtype=np.float32)
        self._fill = np.zeros(num_nodes, dtype=np.int32)
        self._overflow: Dict[int, List[RelationEntry]] = {}
        #: Cached :data:`LinkRow` per local id (None: not decoded yet).
        self._rows: List[Optional[LinkRow]] = [None] * num_nodes
        #: Continuation subnode -> nodes whose cached row walks it.
        self._via: Dict[int, Set[int]] = {}
        #: One float object per distinct weight (keyed by its bits),
        #: shared by every cached row.
        self._weights: Dict[bytes, float] = {}

    def grow(self, count: int = 1) -> None:
        """Extend capacity for ``count`` more nodes (runtime CREATE)."""
        self.num_nodes += count
        shape = (count, MAX_FANOUT)
        self.relation = np.concatenate(
            [self.relation, np.full(shape, EMPTY_SLOT, dtype=np.int32)]
        )
        self.dest_cluster = np.concatenate(
            [self.dest_cluster, np.zeros(shape, dtype=np.int32)]
        )
        self.dest_local = np.concatenate(
            [self.dest_local, np.zeros(shape, dtype=np.int32)]
        )
        self.dest_global = np.concatenate(
            [self.dest_global, np.zeros(shape, dtype=np.int32)]
        )
        self.weight = np.concatenate(
            [self.weight, np.zeros(shape, dtype=np.float32)]
        )
        self._fill = np.concatenate(
            [self._fill, np.zeros(count, dtype=np.int32)]
        )
        self._rows.extend([None] * count)

    def _invalidate(self, local: int) -> None:
        """Drop the cached rows that include physical row ``local``."""
        self._rows[local] = None
        for head in self._via.pop(local, ()):
            self._rows[head] = None

    def add(self, local: int, entry: RelationEntry) -> None:
        """Install a link in the next free slot (or overflow)."""
        self._invalidate(local)
        slot = int(self._fill[local])
        if slot >= MAX_FANOUT:
            self._overflow.setdefault(local, []).append(entry)
            return
        self.relation[local, slot] = entry.relation
        self.dest_cluster[local, slot] = entry.dest_cluster
        self.dest_local[local, slot] = entry.dest_local
        self.dest_global[local, slot] = entry.dest_global
        self.weight[local, slot] = entry.weight
        self._fill[local] = slot + 1

    def remove(self, local: int, relation: int, dest_global: int) -> bool:
        """Remove a node's first matching link, walking its continuation
        chain; the physical row it sat in is compacted."""
        for current, slots in self._walk(local):
            for slot, entry in enumerate(slots):
                if entry[0] != relation or entry[3] != dest_global:
                    continue
                self._invalidate(current)
                fill = int(self._fill[current])
                if slot >= fill:
                    del self._overflow[current][slot - fill]
                    return True
                for column in (self.relation, self.dest_cluster,
                               self.dest_local, self.dest_global,
                               self.weight):
                    column[current, slot:fill - 1] = (
                        column[current, slot + 1:fill]
                    )
                self.relation[current, fill - 1] = EMPTY_SLOT
                self._fill[current] = fill - 1
                return True
        return False

    def _walk(self, local: int) -> Iterator[Tuple[int, List[tuple]]]:
        """``(local id, slots)`` of each physical row of a node's logical
        row, following continuation slots.  Continuation subnodes always
        live on their parent's cluster, so the walk never leaves the
        table."""
        seen: Set[int] = set()
        current: Optional[int] = local
        while current is not None:
            if current in seen:
                raise TableError(f"continuation cycle at local node {current}")
            seen.add(current)
            fill = int(self._fill[current])
            slots: List[tuple] = list(zip(
                self.relation[current, :fill].tolist(),
                self.dest_cluster[current, :fill].tolist(),
                self.dest_local[current, :fill].tolist(),
                self.dest_global[current, :fill].tolist(),
                self.weight[current, :fill].tolist(),
            ))
            slots.extend(self._overflow.get(current, ()))
            yield current, slots
            current = None
            for entry in slots:
                if entry[0] == self.cont_relation_id:
                    current = entry[2]

    def links_of(self, local: int) -> LinkRow:
        """Logical links of a node as its cached :data:`LinkRow`."""
        row = self._rows[local]
        if row is None:
            row = self._rows[local] = self._decode(local)
        return row

    def _decode(self, local: int) -> LinkRow:
        ids = self._ids
        weights = self._weights
        flat: List[Any] = [0]
        for current, slots in self._walk(local):
            if current != local:
                self._via.setdefault(current, set()).add(local)
            flat[0] += len(slots)
            for relation, cluster, dest, gid, weight in slots:
                if relation == self.cont_relation_id:
                    continue
                top = max(dest, gid)
                if top >= len(ids):
                    ids.extend(range(len(ids), top + 1))
                weight = weights.setdefault(struct.pack("<d", weight), weight)
                flat += (relation, cluster, ids[dest], ids[gid], weight)
        return tuple(flat)

    def entries(self, local: int) -> List[RelationEntry]:
        """Logical links of a node as :class:`RelationEntry` tuples."""
        links = iter(self.links_of(local))
        next(links)  # slots scanned
        return list(map(RelationEntry, links, links, links, links, links))


@dataclass
class ClusterTables:
    """All three tables for one cluster, plus id mappings."""

    cluster_id: int
    node_table: NodeTable
    status: MarkerStatusTable
    relations: RelationTable
    #: local id -> global node id.
    to_global: List[int]
    #: global node id -> local id (only for nodes on this cluster).
    to_local: Dict[int, int]

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.node_table.num_nodes

    def add_node(self, global_id: int, color: int, function: int = 0) -> int:
        """Install a new node at runtime; returns its local id."""
        local = self.num_nodes
        self.node_table.grow(1)
        self.status.grow(1)
        self.relations.grow(1)
        self.node_table.color[local] = color
        self.node_table.function[local] = function
        self.to_global.append(global_id)
        self.to_local[global_id] = local
        return local


def build_tables(
    network: SemanticNetwork,
    partitioning: Partitioning,
    capacity: int = MACHINE_NODE_CAPACITY,
) -> List[ClusterTables]:
    """Distribute a (physical) network into per-cluster tables.

    The network must already satisfy the 16-slot fanout limit (run
    :func:`repro.network.builder.preprocess_fanout` first); subnodes
    are re-homed to their parent's cluster so continuation chains stay
    cluster-local.
    """
    if network.num_nodes > capacity:
        raise TableError(
            f"network has {network.num_nodes} nodes; machine capacity is "
            f"{capacity}"
        )
    cont_id = network.relations.get(CONT_RELATION)

    # Re-home subnodes with their parents (continuation chains must be
    # cluster-local).
    cluster_of: List[int] = [
        partitioning.cluster_of(n.node_id) for n in network.nodes()
    ]
    for node in network.nodes():
        if node.parent_id is not None:
            cluster_of[node.node_id] = cluster_of[node.parent_id]

    # One int object per node id: the id maps and every cached link
    # row share them.
    node_ids = list(range(network.num_nodes))
    members: List[List[int]] = [[] for _ in range(partitioning.num_clusters)]
    for nid in node_ids:
        members[cluster_of[nid]].append(nid)

    # Build per-cluster id maps.
    tables: List[ClusterTables] = []
    to_local_all: Dict[int, Tuple[int, int]] = {}
    for cid, nodes in enumerate(members):
        to_local = {gid: i for i, gid in enumerate(nodes)}
        for gid, lid in to_local.items():
            to_local_all[gid] = (cid, lid)
        tables.append(
            ClusterTables(
                cluster_id=cid,
                node_table=NodeTable(len(nodes)),
                status=MarkerStatusTable(len(nodes)),
                relations=RelationTable(len(nodes), cont_id, node_ids),
                to_global=list(nodes),
                to_local=to_local,
            )
        )

    # Populate node properties.
    for node in network.nodes():
        cid, lid = to_local_all[node.node_id]
        tables[cid].node_table.color[lid] = node.color
        tables[cid].node_table.function[lid] = node.function

    # Populate relation slots.
    for link in network.links():
        src_c, src_l = to_local_all[link.source]
        dst_c, dst_l = to_local_all[link.dest]
        tables[src_c].relations.add(
            src_l,
            RelationEntry(link.relation, dst_c, dst_l, link.dest, link.weight),
        )
    return tables
