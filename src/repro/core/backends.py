"""Interchangeable PROPAGATE execution backends.

The functional engine originally drove propagation through a
pure-Python breadth-first worklist.  That loop is the *golden model*:
exact semantics, one arrival at a time.  This module keeps it
(:class:`PythonBackend`) and adds :class:`VectorizedBackend`, which
runs the same computation wave-synchronously with numpy — dense
arrival arrays, CSR-style adjacency gathered in bulk, bit-packed
status updates done a word at a time — while reproducing the golden
model bit for bit: identical marker status/value/origin state,
identical :class:`~repro.core.state.WorkReport` counters, identical
alpha / max-hops / remote-message / arrival statistics.

Equivalence rests on a property of the golden loop worth stating
explicitly: the FIFO worklist makes it **level-synchronous**.  Seeds
expand first; every arrival they emit is processed before any arrival
emitted by a level-1 expansion, and so on.  Within one level the order
is fully determined — seeds in (cluster, local) order, and each
expansion emits its local children before its remote children, each
group in (relation-slot, rule-move) order.  The vectorized backend
materializes one level ("wave") at a time as arrays sorted by exactly
that key, so even order-sensitive tie-breaks (which origin wrote a
register first, which arrival consumed the expansion budget) come out
identical.  Arrival values are carried as float64, the same precision
as Python floats, and registers are read/written through the same
float32 tables, so arithmetic rounds identically too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional, Type, Union

import numpy as np

from ..isa.functions import always_alive
from ..isa.instructions import Propagate, is_complex
from .state import MAX_EXPANSIONS, MachineState, WorkReport


@dataclass
class PropagationOutcome:
    """Everything one PROPAGATE produced, backend-independently."""

    work: WorkReport = field(default_factory=WorkReport)
    #: Number of simultaneously activated source nodes (α, §II-C).
    alpha: int = 0
    #: Longest path any marker traveled (hops).
    max_hops: int = 0
    #: Cross-cluster activation messages emitted.
    remote_messages: int = 0
    #: Total marker deliveries.
    arrivals: int = 0
    #: Synchronous wave count (equals ``max_hops``: every wave that
    #: runs delivers at least one marker one hop further out).
    waves: int = 0


class PropagationBackend:
    """Protocol for PROPAGATE executors over a :class:`MachineState`.

    A backend receives the shared machine state and one instruction and
    must leave the state exactly as the golden Python model would,
    returning the same :class:`PropagationOutcome`.
    """

    name: str = "abstract"

    def propagate(
        self,
        state: MachineState,
        instruction: Propagate,
        level: int = 0,
    ) -> PropagationOutcome:
        raise NotImplementedError


class PythonBackend(PropagationBackend):
    """The golden model: exact breadth-first worklist, one arrival at
    a time, driving the per-arrival :class:`MachineState` primitives."""

    name = "python"

    def propagate(
        self,
        state: MachineState,
        instruction: Propagate,
        level: int = 0,
    ) -> PropagationOutcome:
        ctx = state.make_context(instruction, level)
        work = WorkReport()
        queue = deque()

        for cid in range(state.num_clusters):
            seeds, seed_work = state.seeds(ctx, cid)
            work.merge(seed_work)
            # Seeds are expanded directly: the origin node re-emits the
            # marker without receiving it.
            for seed in seeds:
                local_out, remote_out = state.expand(ctx, seed, work)
                queue.extend(local_out)
                queue.extend(remote_out)

        while queue:
            arrival = queue.popleft()
            if not state.deliver(ctx, arrival, work):
                continue
            local_out, remote_out = state.expand(ctx, arrival, work)
            queue.extend(local_out)
            queue.extend(remote_out)

        return PropagationOutcome(
            work=work,
            alpha=ctx.alpha,
            max_hops=ctx.max_hops,
            remote_messages=ctx.remote_messages,
            arrivals=ctx.total_arrivals,
            waves=ctx.max_hops,
        )


@dataclass
class _Adjacency:
    """Flat, machine-wide CSR view of every cluster's relation table.

    Local ids are renumbered into one flat space (cluster-major, so
    flat order equals the golden model's seed-scan order); continuation
    chains and overflow slots are pre-walked into plain edge lists.
    """

    offsets: np.ndarray            # (C+1,) cluster id -> flat base
    n_total: int
    cluster_of: np.ndarray         # (N,) flat -> cluster id
    local_of: np.ndarray           # (N,) flat -> local id
    to_global: np.ndarray          # (N,) flat -> global node id
    indptr: np.ndarray             # (N+1,) CSR row pointers
    edge_rel: np.ndarray           # relation id per edge
    edge_dest: np.ndarray          # flat destination per edge
    edge_dest_cluster: np.ndarray  # destination cluster per edge
    edge_weight: np.ndarray        # float64 weight per edge
    scanned: np.ndarray            # (N,) slots links_of would scan


class VectorizedBackend(PropagationBackend):
    """Wave-synchronous numpy implementation of PROPAGATE.

    Holds no marker state of its own — it reads and writes the same
    bit-packed status words and float32 value registers as the golden
    model, just in bulk.  The only derived structure is the flat CSR
    adjacency, cached across calls and invalidated by
    :attr:`MachineState.mutation_version`.

    Duplicate same-wave arrivals at one (node, rule-state) are the one
    place bulk operations cannot express the golden model's sequential
    semantics (each arrival sees its predecessors' register writes and
    expansion records); those groups — rare outside adversarial inputs
    — fall back to an in-order scalar loop while everything else in
    the wave stays vectorized.
    """

    name = "vectorized"

    def __init__(self) -> None:
        self._adj: Optional[_Adjacency] = None
        self._adj_state: Optional[MachineState] = None
        self._adj_version: int = -1

    # -- adjacency cache -------------------------------------------------
    def _adjacency(self, state: MachineState) -> _Adjacency:
        if (
            self._adj is None
            or self._adj_state is not state
            or self._adj_version != state.mutation_version
        ):
            self._adj = self._build_adjacency(state)
            self._adj_state = state
            self._adj_version = state.mutation_version
        return self._adj

    @staticmethod
    def _build_adjacency(state: MachineState) -> _Adjacency:
        clusters = state.clusters
        sizes = np.array([t.num_nodes for t in clusters], dtype=np.int64)
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        n_total = int(offsets[-1])
        cluster_of = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        local_of = (
            np.concatenate([np.arange(s, dtype=np.int64) for s in sizes])
            if n_total
            else np.zeros(0, dtype=np.int64)
        )
        to_global = (
            np.concatenate(
                [np.asarray(t.to_global, dtype=np.int64) for t in clusters]
            )
            if n_total
            else np.zeros(0, dtype=np.int64)
        )

        # Edges are every node's cached link row (a LinkRow: slots
        # scanned, then five fields per link), in (node, link) order —
        # exactly the golden model's expansion order.
        indptr = np.zeros(n_total + 1, dtype=np.int64)
        scanned = np.zeros(n_total, dtype=np.int64)
        rel, dest_cluster, dest_local, weight = [], [], [], []
        for t in clusters:
            base = int(offsets[t.cluster_id])
            for lid in range(t.num_nodes):
                row = t.relations.links_of(lid)
                scanned[base + lid] = row[0]
                indptr[base + lid + 1] = len(row) // 5
                rel.extend(row[1::5])
                dest_cluster.extend(row[2::5])
                dest_local.extend(row[3::5])
                weight.extend(row[5::5])
        np.cumsum(indptr, out=indptr)
        edge_dest_cluster = np.asarray(dest_cluster, dtype=np.int64)
        return _Adjacency(
            offsets=offsets,
            n_total=n_total,
            cluster_of=cluster_of,
            local_of=local_of,
            to_global=to_global,
            indptr=indptr,
            edge_rel=np.asarray(rel, dtype=np.int64),
            edge_dest=(
                offsets[edge_dest_cluster]
                + np.asarray(dest_local, dtype=np.int64)
            ),
            edge_dest_cluster=edge_dest_cluster,
            edge_weight=np.asarray(weight, dtype=np.float64),
            scanned=scanned,
        )

    # -- the wave loop ---------------------------------------------------
    def propagate(
        self,
        state: MachineState,
        instruction: Propagate,
        level: int = 0,
    ) -> PropagationOutcome:
        adj = self._adjacency(state)
        work = WorkReport()
        m1, m2 = instruction.marker1, instruction.marker2
        complex1, complex2 = is_complex(m1), is_complex(m2)

        # Dense rule-state indexing: table states plus any next-states
        # referenced by moves (terminal states have no table entry).
        rule = instruction.rule
        compiled = state.compile_rule(rule)
        state_ids = set(compiled)
        state_ids.add(rule.initial_state)
        for moves in compiled.values():
            for _rid, nxt in moves:
                state_ids.add(nxt)
        states_sorted = sorted(state_ids)
        sidx_of = {s: i for i, s in enumerate(states_sorted)}
        moves_by_sidx = [
            tuple((rid, sidx_of[nxt]) for rid, nxt in compiled.get(s, ()))
            for s in states_sorted
        ]
        S = len(states_sorted)
        hop = state.functions.hop(instruction.function)

        # Per-(flat node, rule-state) expansion bookkeeping, the dense
        # equivalent of PropagationContext.expanded/expansions.
        expanded_flag = np.zeros(adj.n_total * S, dtype=bool)
        expanded_val = np.zeros(adj.n_total * S, dtype=np.float64)
        exp_count = np.zeros(adj.n_total * S, dtype=np.int32)

        total_arrivals = 0
        remote_messages = 0
        max_hops = 0
        empty_frontier = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=np.int64),
        )

        # -- hop function, bulk or elementwise ---------------------------
        if hop.vapply is not None:
            def hop_apply(values, weights):
                return np.asarray(hop.vapply(values, weights),
                                  dtype=np.float64)
        else:
            def hop_apply(values, weights):
                return np.array(
                    [hop.combine(v, w)
                     for v, w in zip(values.tolist(), weights.tolist())],
                    dtype=np.float64,
                )

        if hop.valive is not None:
            def hop_alive(values):
                mask = np.asarray(hop.valive(values), dtype=bool)
                return None if mask.all() else mask
        elif hop.alive is always_alive:
            def hop_alive(values):
                return None
        else:
            def hop_alive(values):
                mask = np.fromiter(
                    (bool(hop.alive(v)) for v in values.tolist()),
                    dtype=bool,
                    count=values.size,
                )
                return None if mask.all() else mask

        # -- scatter/gather over the per-cluster tables ------------------
        def per_cluster(flats):
            cl = adj.cluster_of[flats]
            for cid in np.unique(cl):
                sel = cl == cid
                yield state.clusters[int(cid)], sel, adj.local_of[flats[sel]]

        def test_bits(flats):
            out = np.empty(flats.size, dtype=bool)
            for t, sel, lids in per_cluster(flats):
                out[sel] = t.status.test_many(m2, lids)
            return out

        def set_bits(flats):
            for t, sel, lids in per_cluster(flats):
                t.status.set_many(m2, lids)

        def gather_values(flats):
            out = np.empty(flats.size, dtype=np.float64)
            for t, sel, lids in per_cluster(flats):
                out[sel] = t.node_table.value[m2, lids].astype(np.float64)
            return out

        def scatter_values(flats, values, origins):
            for t, sel, lids in per_cluster(flats):
                t.node_table.set_values(m2, lids, values[sel], origins[sel])

        def read_value(flat):
            cid = int(adj.cluster_of[flat])
            lid = int(adj.local_of[flat])
            return float(state.clusters[cid].node_table.value[m2, lid])

        def write_value(flat, value, origin):
            cid = int(adj.cluster_of[flat])
            lid = int(adj.local_of[flat])
            state.clusters[cid].node_table.set_value(lid, m2, value, origin)

        # -- wave steps --------------------------------------------------
        def expand(nodes, sidxs, values, origins):
            """Emit all children of this wave's expanding arrivals, in
            the golden order: (arrival position, local-before-remote,
            relation slot, rule move)."""
            nonlocal remote_messages
            if nodes.size == 0:
                return empty_frontier
            position = np.arange(nodes.size, dtype=np.int64)
            cand = []
            for sidx in np.unique(sidxs):
                moves = moves_by_sidx[sidx]
                if not moves:
                    continue  # recorded, but no slots scanned
                grp = sidxs == sidx
                gn = nodes[grp]
                work.slots += int(adj.scanned[gn].sum())
                deg = adj.indptr[gn + 1] - adj.indptr[gn]
                total = int(deg.sum())
                if total == 0:
                    continue
                gp = position[grp]
                gv = values[grp]
                go = origins[grp]
                rep = np.repeat(np.arange(gn.size, dtype=np.int64), deg)
                seg = np.cumsum(deg) - deg
                flat_i = np.arange(total, dtype=np.int64)
                slot = flat_i - seg[rep]
                eidx = adj.indptr[gn][rep] + slot
                erel = adj.edge_rel[eidx]
                src_cluster = adj.cluster_of[gn][rep]
                for m, (rid, nsidx) in enumerate(moves):
                    match = erel == rid
                    cnt = int(np.count_nonzero(match))
                    if cnt == 0:
                        continue
                    work.fp_ops += cnt  # hop applied before liveness
                    em = eidx[match]
                    rm = rep[match]
                    jm = slot[match]
                    sc = src_cluster[match]
                    nv = hop_apply(gv[rm], adj.edge_weight[em])
                    live = hop_alive(nv)
                    if live is not None:
                        em, rm, jm = em[live], rm[live], jm[live]
                        sc, nv = sc[live], nv[live]
                        if em.size == 0:
                            continue
                    dst = adj.edge_dest[em]
                    remote = (adj.edge_dest_cluster[em] != sc).astype(np.uint8)
                    nmsg = int(remote.sum())
                    work.messages += nmsg
                    remote_messages += nmsg
                    cand.append((
                        gp[rm],
                        remote,
                        jm,
                        np.full(em.size, m, dtype=np.int64),
                        dst,
                        np.full(em.size, nsidx, dtype=np.int64),
                        nv,
                        go[rm],
                    ))
            if not cand:
                return empty_frontier
            p = np.concatenate([c[0] for c in cand])
            rem = np.concatenate([c[1] for c in cand])
            j = np.concatenate([c[2] for c in cand])
            mv = np.concatenate([c[3] for c in cand])
            dst = np.concatenate([c[4] for c in cand])
            nsx = np.concatenate([c[5] for c in cand])
            val = np.concatenate([c[6] for c in cand])
            org = np.concatenate([c[7] for c in cand])
            order = np.lexsort((mv, j, rem, p))
            return dst[order], nsx[order], val[order], org[order]

        def deliver(dest, values, origins):
            """Set marker-2 bits and min-update the value registers for
            one wave of arrivals."""
            nonlocal total_arrivals
            n = dest.size
            total_arrivals += n
            work.nodes += n
            work.sets += n
            order = np.argsort(dest, kind="stable")
            sd = dest[order]
            starts = np.ones(n, dtype=bool)
            starts[1:] = sd[1:] != sd[:-1]
            uniq = sd[starts]
            bit_before = test_bits(uniq)
            set_bits(uniq)
            if not complex2:
                return
            if uniq.size == n:
                stored = gather_values(dest)
                was_clear = np.empty(n, dtype=bool)
                was_clear[order] = ~bit_before
                write = was_clear | (values < stored)
                work.fp_ops += int(np.count_nonzero(write))
                if write.any():
                    scatter_values(dest[write], values[write], origins[write])
                return
            start_pos = np.nonzero(starts)[0]
            counts = np.diff(np.append(start_pos, n))
            singles = counts == 1
            if singles.any():
                oi = order[start_pos[singles]]
                stored = gather_values(dest[oi])
                write = (~bit_before[singles]) | (values[oi] < stored)
                work.fp_ops += int(np.count_nonzero(write))
                if write.any():
                    sel = oi[write]
                    scatter_values(dest[sel], values[sel], origins[sel])
            for gi in np.nonzero(~singles)[0]:
                members = order[start_pos[gi]: start_pos[gi] + counts[gi]]
                node = int(uniq[gi])
                bit = bool(bit_before[gi])
                current = read_value(node)
                for k, i in enumerate(members):
                    v = float(values[i])
                    if (k == 0 and not bit) or v < current:
                        write_value(node, v, int(origins[i]))
                        # Re-read, not cache: the register is float32,
                        # and the golden model compares each arrival
                        # against the *rounded* stored value.
                        current = read_value(node)
                        work.fp_ops += 1

        def decide(dest, sidxs, values):
            """Which arrivals expand, consuming the per-key budget in
            the golden order."""
            n = dest.size
            keys = dest * S + sidxs
            order = np.argsort(keys, kind="stable")
            sk = keys[order]
            starts = np.ones(n, dtype=bool)
            starts[1:] = sk[1:] != sk[:-1]
            if starts.all():
                flag = expanded_flag[keys]
                if complex2:
                    want = ~flag | (values < expanded_val[keys])
                else:
                    want = ~flag
                allowed = want & (exp_count[keys] < MAX_EXPANSIONS)
                ak = keys[allowed]
                expanded_flag[ak] = True
                expanded_val[ak] = values[allowed]
                exp_count[ak] += 1
                return allowed
            decided = np.zeros(n, dtype=bool)
            start_pos = np.nonzero(starts)[0]
            counts = np.diff(np.append(start_pos, n))
            singles = counts == 1
            if singles.any():
                oi = order[start_pos[singles]]
                k1 = keys[oi]
                flag = expanded_flag[k1]
                if complex2:
                    want = ~flag | (values[oi] < expanded_val[k1])
                else:
                    want = ~flag
                allowed = want & (exp_count[k1] < MAX_EXPANSIONS)
                ak = k1[allowed]
                expanded_flag[ak] = True
                expanded_val[ak] = values[oi][allowed]
                exp_count[ak] += 1
                decided[oi[allowed]] = True
            for gi in np.nonzero(~singles)[0]:
                members = order[start_pos[gi]: start_pos[gi] + counts[gi]]
                k = int(sk[start_pos[gi]])
                for i in members:
                    v = float(values[i])
                    want = (not expanded_flag[k]) or (
                        complex2 and v < float(expanded_val[k])
                    )
                    if want and exp_count[k] < MAX_EXPANSIONS:
                        expanded_flag[k] = True
                        expanded_val[k] = v
                        exp_count[k] += 1
                        decided[i] = True
            return decided

        # -- seeds -------------------------------------------------------
        seed_parts, val_parts = [], []
        for t in state.clusters:
            work.words += t.status.num_words
            lids = t.status.nodes_with_array(m1)
            if lids.size:
                seed_parts.append(adj.offsets[t.cluster_id] + lids)
                if complex1:
                    val_parts.append(
                        t.node_table.value[m1, lids].astype(np.float64)
                    )
                else:
                    val_parts.append(np.zeros(lids.size, dtype=np.float64))
        if seed_parts:
            seed_nodes = np.concatenate(seed_parts)
            seed_vals = np.concatenate(val_parts)
        else:
            seed_nodes = np.zeros(0, dtype=np.int64)
            seed_vals = np.zeros(0, dtype=np.float64)
        alpha = int(seed_nodes.size)
        work.nodes += alpha
        seed_origins = adj.to_global[seed_nodes]

        init_sidx = sidx_of[rule.initial_state]
        seed_keys = seed_nodes * S + init_sidx
        expanded_flag[seed_keys] = True
        expanded_val[seed_keys] = seed_vals
        exp_count[seed_keys] = 1

        frontier = expand(
            seed_nodes,
            np.full(alpha, init_sidx, dtype=np.int64),
            seed_vals,
            seed_origins,
        )
        wave = 1
        while frontier[0].size:
            max_hops = wave
            dest, dsidx, dval, dorig = frontier
            deliver(dest, dval, dorig)
            decided = decide(dest, dsidx, dval)
            sel = np.nonzero(decided)[0]
            frontier = expand(dest[sel], dsidx[sel], dval[sel], dorig[sel])
            wave += 1

        return PropagationOutcome(
            work=work,
            alpha=alpha,
            max_hops=max_hops,
            remote_messages=remote_messages,
            arrivals=total_arrivals,
            waves=max_hops,
        )


#: Registered backends by name.
BACKENDS: Dict[str, Type[PropagationBackend]] = {
    PythonBackend.name: PythonBackend,
    VectorizedBackend.name: VectorizedBackend,
}

_default_backend = "python"


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend (CLI ``--backend``)."""
    global _default_backend
    if name not in BACKENDS:
        raise ValueError(
            f"unknown propagation backend: {name!r}; "
            f"known: {sorted(BACKENDS)}"
        )
    _default_backend = name


def get_default_backend() -> str:
    """Name of the process-wide default backend."""
    return _default_backend


def make_backend(
    backend: Union[None, str, PropagationBackend] = None,
) -> PropagationBackend:
    """Resolve a backend spec (name, instance, or None = default)."""
    if backend is None:
        backend = _default_backend
    if isinstance(backend, str):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown propagation backend: {backend!r}; "
                f"known: {sorted(BACKENDS)}"
            )
        return BACKENDS[backend]()
    return backend
