"""The SNAP-1 discrete-event simulator.

Ties every hardware model together and executes a SNAP program with
full timing:

1. the **controller** (PCP program flow + SCP operand instantiation)
   issues instructions over the global bus, stalling on marker
   dependencies with in-flight instructions (this is where
   β-parallelism materializes: independent PROPAGATEs overlap);
2. each cluster's **PU** decodes the broadcast instruction and
   decomposes it into marker-unit tasks;
3. **MUs** execute tasks — whole-table boolean/set/clear sweeps, seed
   scans, and per-node propagation expansions (α-parallelism);
4. the **CU** DMAs cross-cluster activation messages into the 4-ary
   hypercube, store-and-forwarding through intermediate CUs;
5. the **tiered synchronizer** detects propagation termination: each
   PROPAGATE level's count of created minus finished marker processes
   (the sum its AND-tree forms, see :mod:`repro.machine.sync`) reaching
   zero fires the barrier, which charges the barrier cost;
6. an attached tracer (:mod:`repro.obs.tracer`), the counterpart of
   SNAP-1's performance-collection network, records the monitoring
   events; with none attached the run records nothing.

Semantics are delegated to :class:`repro.core.state.MachineState` —
the same primitives the functional engine uses — so the timed machine
is functionally identical to the golden model by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.activation import ActivationMessage, unpack
from ..core.engine import (
    KIND_COLLECT,
    KIND_GLOBAL,
    KIND_PROPAGATE,
    dispatch_entry,
)
from ..core.state import (
    Arrival,
    ExecutionError,
    MachineState,
    PropagationContext,
)
from ..isa.instructions import Category, Instruction, SetColor
from ..isa.program import SnapProgram
from ..obs.tracer import get_tracer
from .cluster import (
    ACTIVATION_QUEUE_CAPACITY,
    PU_QUEUE_CAPACITY,
    ClusterSim,
    build_clusters,
    work_service_time,
)
from .config import MachineConfig
from .des import Job, Server, ServerPool, Simulator, Timeout
from .faults import FaultInjector
from .icn import HypercubeTopology
from .report import InstructionTrace, MachineRunReport
from .sync import barrier_cost


#: Category key of every propagation-time charge.
_PROPAGATE = Category.PROPAGATE

# Argument names of the per-instruction and per-message trace events
# (see repro.obs.tracer).
_K_INSTR_END = ("work_ops", "messages", "opcode", "alpha")
_K_SEED_SCAN = ("instr", "seeds")
_K_MSG_SEND = ("dest", "hops", "instr", "latency_us")
_K_MSG_RECV = ("instr", "hops")
_K_HEAP = ("heap_size", "pending")


@dataclass(slots=True)
class _InstrState:
    """Bookkeeping for one in-flight instruction."""

    index: int
    instr: Instruction
    issue_time: float
    #: The instruction's dispatch kind and MachineState primitive.
    kind: str
    primitive: Optional[Callable]
    #: Markers the instruction reads and writes (issue dependencies).
    reads: FrozenSet[int]
    writes: FrozenSet[int]
    clusters_remaining: int = 0
    scan_done: bool = False
    #: Marker processes (arrival tasks and messages in transit) not
    #: finished yet: the level's tiered-synchronizer count.
    pending: int = 0
    ctx: Optional[PropagationContext] = None
    collected: List[Any] = field(default_factory=list)
    work_ops: int = 0
    messages: int = 0
    completed: bool = False
    #: Activation messages lost to faults, awaiting checkpoint replay.
    lost: List[Any] = field(default_factory=list)
    replay_rounds: int = 0
    #: Tracing bookkeeping (populated only when a tracer is active).
    lane: int = -1
    span: Any = None
    phase: Any = None


class SnapSimulation:
    """One timed execution of a SNAP program."""

    def __init__(
        self,
        state: MachineState,
        config: MachineConfig,
        topology: Optional[HypercubeTopology] = None,
        tracer=None,
        metrics=None,
        trace_offset_us: float = 0.0,
        trace_name: str = "machine",
        route_tables: Optional[Dict[Any, Dict[int, Tuple]]] = None,
    ) -> None:
        """``route_tables`` holds the transport tables (see
        :meth:`_route_entry`) per fault state; pass the same dict to
        every run on one topology and one configuration so each pair
        is routed once per fault state, not once per run."""
        if state.num_clusters != config.num_clusters:
            raise ValueError(
                "machine state and configuration disagree on cluster count"
            )
        self.state = state
        self.cfg = config
        self.timing = config.timing
        self.sim = Simulator()
        # A topology may be shared across runs (SnapMachine passes one
        # per machine) so its digit and neighbor tables are built once;
        # routing is stateless, so sharing cannot change any path.
        if topology is not None and topology.num_clusters != config.num_clusters:
            raise ValueError("shared topology disagrees on cluster count")
        self.topology = (
            topology
            if topology is not None
            else HypercubeTopology(config.num_clusters)
        )
        # Fault layer: constructed only for an *enabled* config, so the
        # fault-free path never draws an RNG stream or takes a branch
        # that could perturb the event trace.
        fault_cfg = config.faults
        self.faults: Optional[FaultInjector] = None
        if fault_cfg is not None and fault_cfg.enabled:
            self.faults = FaultInjector(
                fault_cfg,
                config.num_clusters,
                config.mu_counts(),
                topology=self.topology,
            )
        self.clusters: List[ClusterSim] = build_clusters(
            self.sim, config, self.faults
        )
        #: Clusters whose PU/CU still respond (all of them, fault-free).
        self.alive_clusters: List[ClusterSim] = [
            c for c in self.clusters if not c.failed
        ]
        self.report = MachineRunReport(
            num_clusters=config.num_clusters,
            total_pes=config.total_pes,
        )
        # Controller: PCP + SCP + global bus, serialized.
        self.controller = Server(self.sim, name="controller")
        if self.faults is not None and self.faults.cfg.scp_timeout_prob > 0:
            self.controller.penalty_hook = self._scp_penalty
        # Fault timeline: events are chain-scheduled one at a time (the
        # heap holds at most one pending fault event), and gray hooks
        # are installed only when the config can ever exercise them —
        # schedule-free faulty runs take none of these branches.
        self._fault_cursor = 0
        self._fault_event_handle = None
        self._drops_possible = False
        if self.faults is not None:
            self._drops_possible = self.faults.drops_possible
            if self.faults.slowdown_possible:
                for cluster in self.clusters:
                    cluster.mus.penalty_hook = self._make_mu_slowdown(
                        cluster.cluster_id
                    )
            if self.faults.schedule.events:
                self._schedule_next_fault_event()
        self._program: Optional[SnapProgram] = None
        self._pc = 0
        self._in_flight: Dict[int, _InstrState] = {}
        #: Clusters whose PU instruction queue is at capacity.
        self._full_queues = 0
        #: Transport per ``src * num_clusters + dest`` (see
        #: :meth:`_route_entry`) per fault state, shared across runs.
        self._route_tables = route_tables if route_tables is not None else {}
        #: This run's routes per fault state (see :meth:`_open_route`),
        #: and every route in the order this run first used it.
        self._run_routes: Dict[Any, Dict[int, List[Any]]] = {}
        self._routes_used: List[List[Any]] = []
        self._switch_routes()
        self._num_clusters = config.num_clusters
        self._pack = config.pack_messages
        #: Messages sent, and sent by the last barrier (Fig. 8 series).
        self._sent = 0
        self._sent_at_barrier = 0
        #: Float sums of the message path, folded into the report when
        #: the run ends (see :meth:`_fold_traffic`); each adds its terms
        #: in the order the messages were sent.
        self._icn_latency = 0.0
        self._communication = 0.0
        #: The report's per-category busy time (see :meth:`_attribute`).
        self._category_busy = self.report.category_busy_us
        self._traces: Dict[int, InstructionTrace] = {}
        timing = self.timing
        #: An arrival task's service-time terms (see :meth:`_arrival_job`).
        self._arrival_timing = (
            timing.t_task_overhead + timing.t_node_visit, timing.t_slot_scan,
            timing.t_marker_set, timing.t_fp_op, timing.t_msg_write,
        )
        self._deliver = state.deliver
        # Observability.  `self._tr is None` is the only check hot
        # paths pay when tracing is off (NULL_TRACER default); all
        # track allocation happens here, up front.  `trace_offset_us`
        # shifts every emitted timestamp so nested runs (a replica
        # executing one query under the serving host) land at the host
        # time they actually ran.
        obs_tracer = tracer if tracer is not None else get_tracer()
        self._tr = obs_tracer if obs_tracer.enabled else None
        self._metrics = metrics
        self._off = trace_offset_us
        self._trace_name = trace_name
        if self._tr is not None:
            tr = self._tr
            self._tk_ctrl = tr.track(trace_name, "controller")
            self._tk_kernel = tr.track(trace_name, "des-kernel")
            self._tk_icn = tr.track(trace_name, "icn")
            self._tk_faults = tr.track(trace_name, "faults")
            self._tk_cluster = [
                tr.track(trace_name, f"cluster {cid:02d}")
                for cid in range(config.num_clusters)
            ]
            self._tk_cu = [
                tr.track(trace_name, f"cluster {cid:02d} cu")
                for cid in range(config.num_clusters)
            ]
            self._lane_tracks: List[int] = []
            self._free_lanes: List[int] = []
            #: Service start of the span job in service, per track.
            self._span_starts: Dict[int, float] = {}
            if self.faults is not None:
                self.faults.emit_injection_events(
                    tr, self._tk_faults, ts=self._off
                )

    # ------------------------------------------------------------------
    # Public entry
    # ------------------------------------------------------------------
    def run(
        self, program: SnapProgram, budget_us: Optional[float] = None
    ) -> MachineRunReport:
        """Execute the program to completion; return the run report.

        With a ``budget_us``, execution stops once the simulated clock
        reaches the budget: the report is marked ``aborted``, partial
        traces are kept, and no deadlock check is made (in-flight work
        was cancelled by the watchdog, not stuck).  The serving host
        uses this to cut off queries that overrun their deadline
        without simulating the remainder of the run.
        """
        self._program = program
        self._pc = 0
        self._try_issue()
        if self._tr is not None:
            self._run_observed(budget_us)
        else:
            self.sim.run(until=budget_us)
        self._fold_traffic()
        incomplete = self._in_flight or self._pc < len(program)
        if incomplete and budget_us is not None:
            self.report.aborted = True
        elif incomplete:
            raise RuntimeError(
                f"simulation deadlock: pc={self._pc}, "
                f"in flight={sorted(self._in_flight)}"
            )
        if budget_us is not None and not incomplete:
            # The run finished inside its budget: report the true end
            # time, not the budget the clock was clamped to.
            self.report.total_time_us = self.sim.last_event_us
        else:
            self.report.total_time_us = self.sim.now
        self.report.traces = [
            self._traces[i] for i in sorted(self._traces)
        ]
        self.report.events_processed = self.sim.events_processed
        for cluster in self.clusters:
            summary = cluster.busy_summary()
            summary["mu_servers"] = cluster.num_mus
            self.report.cluster_busy.append(summary)
        utilization = self.report.mu_utilization()
        assert utilization <= 1.0 + 1e-9, (
            f"MU utilization {utilization} exceeds capacity: "
            "busy-time accounting is broken"
        )
        if self.faults is not None:
            self.faults.stats.nodes_remapped = getattr(
                self.state, "nodes_remapped", 0
            )
            self.report.faults_enabled = True
            self.report.fault_stats = self.faults.stats
        if self._metrics is not None:
            self._feed_metrics()
        return self.report

    def _run_observed(self, budget_us: Optional[float]) -> None:
        """Run the kernel with its ``des.run`` span and ``heap`` counter.

        The span covers the dispatch window; the kernel's ``sample``
        hook records heap slots and live pending events every
        :data:`~repro.machine.des.SAMPLE_EVERY` events, and one final
        sample closes the run, all on the ``des-kernel`` track.
        """
        tr, track, off, sim = self._tr, self._tk_kernel, self._off, self.sim

        def sample(heap_size: int, pending: int) -> None:
            tr.series(track, "heap", off + sim.now, _K_HEAP,
                      heap_size, pending)

        before = sim.events_processed
        span = tr.begin(track, "des.run", off + sim.now)
        sim.run(until=budget_us, sample=sample)
        tr.end(span, off + sim.now, ("events",),
               sim.events_processed - before)
        sample(sim.heap_size, sim.pending)

    def _fold_traffic(self) -> None:
        """Fold the message path's per-route counts and float sums into
        the report: integer counts per route in first-use order (so
        the report's dicts fill in the order single messages would
        fill them), the float sums as accumulated in send order."""
        icn = self.report.icn_stats
        for _path, _latency, messages, dimensions, _rerouted in (
                self._routes_used):
            if messages:
                icn.add_route(dimensions, messages)
        icn.total_latency = self._icn_latency
        self.report.overheads.communication = self._communication

    def _feed_metrics(self) -> None:
        """Fold the finished run's report into the metrics registry.

        Runs once per program, after the event loop — the machine
        layer's aggregate counters cost nothing on the hot path.
        """
        registry = self._metrics
        traces = self.report.traces
        registry.counter("machine.instructions").inc(len(traces))
        latency = registry.histogram("machine.instruction_latency_us")
        for trace in traces:
            latency.observe(trace.latency)
        icn = self.report.icn_stats
        registry.counter("machine.icn.messages").inc(icn.messages)
        registry.counter("machine.icn.hops").inc(icn.total_hops)
        for dim in sorted(icn.dimension_counts):
            registry.counter(f"machine.icn.dim.{dim}").inc(
                icn.dimension_counts[dim]
            )
        if self.faults is not None:
            for key, value in self.faults.stats.as_dict().items():
                if value:
                    registry.counter(f"machine.faults.{key}").inc(value)

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def _scp_penalty(self, service: float) -> float:
        """Transient SCP/bus timeout: stretch this broadcast's service."""
        assert self.faults is not None
        if self.faults.scp_timeout():
            self.faults.stats.scp_timeouts += 1
            if self._tr is not None:
                self._tr.instant(
                    self._tk_faults, "scp-timeout", self._off + self.sim.now,
                    ("penalty_us",), self.faults.cfg.scp_timeout_penalty_us,
                )
            return self.faults.cfg.scp_timeout_penalty_us
        return 0.0

    def _make_mu_slowdown(self, cid: int):
        """Gray slow-MU penalty hook for one cluster's pool.

        Stretches each task's service by the cluster's *current*
        slowdown factor, so a ``mu-slowdown`` event takes effect on
        the next task to enter service and a factor of 1.0 restores
        full speed.
        """
        faults = self.faults

        def penalty(service: float) -> float:
            extra = (faults.slowdown_for(cid) - 1.0) * service
            if extra > 0.0:
                faults.stats.slowdown_us += extra
            return extra

        return penalty

    # ------------------------------------------------------------------
    # Fault timeline delivery
    # ------------------------------------------------------------------
    def _schedule_next_fault_event(self) -> None:
        """Put the next schedule entry on the event heap (chained)."""
        events = self.faults.schedule.events
        cursor = self._fault_cursor
        if cursor >= len(events):
            self._fault_event_handle = None
            return
        delay = events[cursor].time_us - self.sim.now
        self._fault_event_handle = self.sim.schedule(
            delay if delay > 0.0 else 0.0, self._apply_fault_event
        )

    def _apply_fault_event(self) -> None:
        """Deliver one timeline event to the live world.

        Routing, dispatch (``alive_clusters``), MU-pool capacity, and
        the gray sampling rates all observe the change from this
        instant on; work already in service on an affected component
        runs to completion (committed service cannot be retracted).
        """
        faults = self.faults
        event = faults.schedule.events[self._fault_cursor]
        self._fault_cursor += 1
        routing_changed = faults.apply_event(event)
        if routing_changed:
            blocked = faults.blocked_clusters
            for cluster in self.clusters:
                cluster.failed = cluster.cluster_id in blocked
            self.alive_clusters = [
                c for c in self.clusters if not c.failed
            ]
            self._switch_routes()
        if event.kind in ("mu-fail", "mu-repair"):
            cid = event.cluster
            count = faults.current_mu_counts[cid]
            pool = self.clusters[cid].mus
            if count != pool.num_servers:
                pool.resize(count)
                # Report capacity = the largest pool this cluster ever
                # had, so utilization stays bounded by real capacity.
                self.clusters[cid].num_mus = pool.peak_servers
        if self._tr is not None:
            detail = {}
            if event.cluster is not None:
                detail["cluster"] = event.cluster
            if event.link is not None:
                detail["link"] = f"{event.link[0]}-{event.link[1]}"
            if event.value is not None:
                detail["value"] = event.value
            self._tr.instant(
                self._tk_faults, f"fault-{event.kind}",
                self._off + self.sim.now, tuple(detail), *detail.values(),
            )
        self._schedule_next_fault_event()

    # ------------------------------------------------------------------
    # Tracing helpers (called only behind `self._tr is not None`)
    # ------------------------------------------------------------------
    def _trace_issue(self, st: _InstrState) -> None:
        """Open an instruction span on the lowest free pipeline lane.

        One lane per concurrently in-flight instruction: spans on a
        lane are strictly sequential, so Perfetto renders the
        controller pipeline as parallel rows with clean nesting —
        phase spans (`broadcast` / `wave` / `barrier` / …) are
        children of the instruction span on the same lane.
        """
        tr = self._tr
        if self._free_lanes:
            self._free_lanes.sort()
            lane = self._free_lanes.pop(0)
        else:
            lane = len(self._lane_tracks)
            self._lane_tracks.append(
                tr.track(self._trace_name, f"pipe {lane}")
            )
        st.lane = lane
        ts = self._off + self.sim.now
        st.span = tr.begin(
            self._lane_tracks[lane], f"{st.instr.opcode} #{st.index}", ts
        )
        st.phase = tr.begin(self._lane_tracks[lane], "broadcast", ts)

    def _trace_phase(self, st: _InstrState, name: Optional[str]) -> None:
        """Close the current phase span and open the next one."""
        tr = self._tr
        ts = self._off + self.sim.now
        tr.end(st.phase, ts)
        st.phase = (
            tr.begin(self._lane_tracks[st.lane], name, ts)
            if name is not None else None
        )

    def _trace_complete(self, st: _InstrState) -> None:
        """Close the instruction span and release its lane."""
        if st.span is None:
            return
        tr = self._tr
        ts = self._off + self.sim.now
        tr.end(st.phase, ts)
        tr.end(
            st.span, ts, _K_INSTR_END, st.work_ops, st.messages,
            st.instr.opcode, st.ctx.alpha if st.ctx is not None else 0,
        )
        self._free_lanes.append(st.lane)

    def _traced_span_job(self, track: int, name: str, job: Job) -> Job:
        """Wrap a single-server job so its occupancy becomes a span.

        The span runs from actual service start to actual completion
        (``now - start``), so penalty hooks (SCP timeouts stretching a
        broadcast) are visible in the trace.  Only valid for serialized
        servers (controller, PU, CU), one per track: their jobs never
        overlap, so the track's start time is held until its job
        completes.  The wrapper is two bound methods and the original
        job's callback and arguments, so it allocates no closure.
        """
        service, _, done, args = job
        return (service, self._span_job_start, self._span_job_done,
                (track, name, done, args))

    def _span_job_start(self, track: int, _name: str, _done: Any,
                        _args: Tuple[Any, ...]) -> None:
        self._span_starts[track] = self.sim.now

    def _span_job_done(self, track: int, name: str,
                       done: Callable[..., None],
                       args: Tuple[Any, ...]) -> None:
        start = self._span_starts[track]
        now = self.sim.now
        self._tr.span(track, name, self._off + start, now - start)
        done(*args)

    def _traced_mu_job(self, cid: int, job: Job) -> Job:
        """Wrap an MU-pool job to sample the cluster's busy-MU count.

        Pool jobs overlap, so MU activity is a counter track
        (``mu_busy``), not spans: one sample as each task starts and
        one as it finishes.
        """
        service, _, done, args = job
        return (service, self._mu_job_start, self._mu_job_done,
                (self._tk_cluster[cid], self.clusters[cid].mus, done, args))

    def _mu_job_start(self, track: int, pool: ServerPool, _done: Any,
                      _args: Tuple[Any, ...]) -> None:
        self._tr.counter(track, "mu_busy", self._off + self.sim.now,
                         pool.busy_servers)

    def _mu_job_done(self, track: int, pool: ServerPool,
                     done: Callable[..., None],
                     args: Tuple[Any, ...]) -> None:
        self._tr.counter(track, "mu_busy", self._off + self.sim.now,
                         pool.busy_servers)
        done(*args)

    # ------------------------------------------------------------------
    # Controller
    # ------------------------------------------------------------------
    def _depends_on_inflight(
        self, instr: Instruction, kind: str,
        reads: FrozenSet[int], writes: FrozenSet[int],
    ) -> bool:
        if instr.category == Category.COLLECT and self._in_flight:
            # COLLECT-NODE forces PU serialization: full barrier.
            return True
        if kind == KIND_GLOBAL and self._in_flight:
            # Node management alters the knowledge base; the controller
            # performs it only when the pipeline is empty (§III-C
            # "housekeeping is performed when the pipeline is empty").
            return True
        touched = reads | writes
        for st in self._in_flight.values():
            if st.writes & touched or st.reads & writes:
                return True
        return False

    def _try_issue(self) -> None:
        program = self._program
        if program is None or self._pc >= len(program):
            return
        if len(self._in_flight) >= self.cfg.instruction_queue_depth:
            return
        if self._full_queues:
            return
        instr = program[self._pc]
        entry = dispatch_entry(type(instr))
        if entry is None:
            raise ExecutionError(f"unsupported instruction: {instr.opcode}")
        kind, primitive = entry
        reads, writes = frozenset(instr.reads()), frozenset(instr.writes())
        if self._depends_on_inflight(instr, kind, reads, writes):
            return  # re-tried on every instruction completion
        index = self._pc
        self._pc += 1
        st = _InstrState(index, instr, self.sim.now, kind, primitive,
                         reads, writes)
        self._in_flight[index] = st
        service = self.timing.t_pcp + self.timing.t_broadcast
        self.report.overheads.broadcast += self.timing.t_broadcast
        self._attribute(instr.category, self.timing.t_broadcast)
        job = (service, None, self._broadcast_done, (st,))
        if self._tr is not None:
            self._trace_issue(st)
            job = self._traced_span_job(
                self._tk_ctrl, f"broadcast #{index}", job
            )
        self.controller.submit(job)
        # The controller pipeline may issue further independent
        # instructions while this one is broadcast.
        self.sim.schedule(0.0, self._try_issue)

    def _broadcast_done(self, st: _InstrState) -> None:
        instr = st.instr
        if self._tr is not None:
            self._trace_phase(
                st, "wave" if st.kind == KIND_PROPAGATE else "execute"
            )
        if st.kind == KIND_GLOBAL:
            self._dispatch_maintenance(st)
            return
        if st.kind == KIND_PROPAGATE:
            st.ctx = self.state.make_context(instr, level=st.index)
        # Failed clusters never decode: their PU is stuck.  Any node
        # remapping happened at machine construction, so surviving
        # clusters hold the evicted table regions.
        st.clusters_remaining = len(self.alive_clusters)
        for cluster in self.alive_clusters:
            cluster.instructions_queued += 1
            if cluster.instructions_queued == PU_QUEUE_CAPACITY:
                self._full_queues += 1
            job = (self.timing.t_decode, None, self._decode_done,
                   (st, cluster))
            if self._tr is not None:
                job = self._traced_span_job(
                    self._tk_cluster[cluster.cluster_id],
                    f"decode #{st.index}", job,
                )
            cluster.pu.submit(job)
        self._try_issue()

    # ------------------------------------------------------------------
    # Node maintenance (controller-side housekeeping)
    # ------------------------------------------------------------------
    def _dispatch_maintenance(self, st: _InstrState) -> None:
        instr = st.instr
        work = st.primitive(self.state, instr)
        st.work_ops += work.total()
        # The affected node's home cluster performs the table update.
        try:
            home, _ = self.state.address(
                instr.node if isinstance(instr, SetColor) else instr.source
            )
        except Exception:
            home = 0
        if self.faults is not None and home in self.faults.blocked_clusters:
            # Without node remap a table update may target an offline
            # cluster; the controller falls back to a survivor.
            home = self.alive_clusters[0].cluster_id
        st.clusters_remaining = 1
        service = work_service_time(work, self.timing)
        self._attribute(instr.category, service)
        job = (service, None, self._cluster_task_done, (st,))
        if self._tr is not None:
            job = self._traced_mu_job(home, job)
        self.clusters[home].mus.submit(job)
        self._try_issue()

    # ------------------------------------------------------------------
    # PU decode and task dispatch
    # ------------------------------------------------------------------
    def _decode_done(self, st: _InstrState, cluster: ClusterSim) -> None:
        cluster.instructions_queued -= 1
        if cluster.instructions_queued == PU_QUEUE_CAPACITY - 1:
            self._full_queues -= 1
        if st.kind == KIND_PROPAGATE:
            self._dispatch_seed_scan(st, cluster)
            return
        cid = cluster.cluster_id
        if st.kind == KIND_COLLECT:
            items, work = st.primitive(self.state, cid, st.instr)
            args = (st, items)
        else:
            work = st.primitive(self.state, cid, st.instr)
            args = (st,)
        st.work_ops += work.total()
        service = work_service_time(work, self.timing)
        self._attribute(st.instr.category, service)
        job = (service, None, self._cluster_task_done, args)
        if self._tr is not None:
            job = self._traced_mu_job(cid, job)
        cluster.mus.submit(job)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _dispatch_seed_scan(self, st: _InstrState, cluster: ClusterSim) -> None:
        """MU scans the status table and expands every seed node."""
        ctx = st.ctx
        assert ctx is not None
        cid = cluster.cluster_id
        seeds, work = self.state.seeds(ctx, cid)
        local_out: List[Arrival] = []
        remote_out: List[Arrival] = []
        deliver = self._deliver
        for seed in seeds:
            seed_local, seed_remote, slots, fp_ops = deliver(
                ctx, seed, seed=True)
            work.slots += slots
            work.fp_ops += fp_ops
            work.messages += len(seed_remote)
            local_out += seed_local
            remote_out += seed_remote
        st.work_ops += work.total()
        service = work_service_time(work, self.timing)
        self._attribute(Category.PROPAGATE, service)
        job = (service, None, self._seed_scan_done,
               (st, cid, local_out, remote_out))
        if self._tr is not None:
            self._tr.instant(
                self._tk_cluster[cid], "seed-scan",
                self._off + self.sim.now,
                _K_SEED_SCAN, st.index, len(seeds),
            )
            job = self._traced_mu_job(cid, job)
        cluster.mus.submit(job)

    def _seed_scan_done(
        self,
        st: _InstrState,
        cid: int,
        local_out: List[Arrival],
        remote_out: List[Arrival],
    ) -> None:
        if local_out:
            self._spawn_arrivals(st, cid, local_out)
        for arrival in remote_out:
            self._send_message(st, cid, arrival)
        self._cluster_task_done(st)

    def _arrival_job(self, st: _InstrState, arrival: Arrival) -> Job:
        """Deliver a marker at its destination node (one MU task).

        The task's service time is :func:`work_service_time` of its
        work, summed term by term in the same order: no status words
        or link writes, one node visit and one marker set.
        """
        local_out, remote_out, slots, fp_ops = self._deliver(st.ctx, arrival)
        messages = len(remote_out)
        base, t_slot, t_set, t_fp, t_msg = self._arrival_timing
        service = (base + slots * t_slot + t_set + fp_ops * t_fp
                   + messages * t_msg)
        st.work_ops += 2 + slots + fp_ops + messages
        self._category_busy[_PROPAGATE] += service
        cid = arrival[0]
        job = (service, None, self._arrival_done,
               (st, cid, local_out, remote_out))
        if self._tr is not None:
            job = self._traced_mu_job(cid, job)
        return job

    def _spawn_arrivals(
        self, st: _InstrState, cid: int, arrivals: Sequence[Arrival]
    ) -> None:
        """Deliver markers at cluster ``cid`` as one MU-pool submission.

        Delivery/expansion side effects run in arrival order and
        ``submit_batch`` preserves per-job enqueue order, so the event
        trace is identical to N sequential submissions.
        """
        job = self._arrival_job
        batch = [job(st, arrival) for arrival in arrivals]
        st.pending += len(batch)
        self.clusters[cid].mus.submit_batch(batch)

    def _arrival_done(
        self,
        st: _InstrState,
        cid: int,
        local_out: Sequence[Arrival],
        remote_out: Sequence[Arrival],
    ) -> None:
        if local_out:
            self._spawn_arrivals(st, cid, local_out)
        for arrival in remote_out:
            self._send_message(st, cid, arrival)
        st.pending -= 1
        if not st.pending:
            self._check_propagate_done(st)

    def _wire_round_trip(self, st: _InstrState, arrival: Arrival) -> Arrival:
        """Pass a remote delivery through the 64-bit wire format.

        Values come back bfloat16-truncated exactly as on the hardware.
        """
        ctx = st.ctx
        cluster, local, state, value, origin, hops = arrival
        msg = ActivationMessage(
            ctx.marker, value, 0, ctx.rule, state, cluster, local, origin,
            ctx.level, hops,
        )
        msg = unpack(msg.pack([ctx.rule]), [ctx.rule],
                     level=ctx.level, hops=hops)
        return (msg.dest_cluster, msg.dest_local, msg.state, msg.value,
                msg.origin, msg.hops)

    def _switch_routes(self) -> None:
        """Select the transport and run route tables of the current
        fault state."""
        key = None if self.faults is None else (
            self.faults.blocked_clusters, self.faults.blocked_links
        )
        self._transport = self._route_tables.setdefault(key, {})
        self._routes = self._run_routes.setdefault(key, {})

    def _route_entry(self, src: int, dest: int) -> Tuple:
        """``(path, hop dimensions, latency, rerouted)`` from ``src``.

        Fault-free, ``path`` is the dimension-ordered route.  Under
        faults it is :meth:`HypercubeTopology.route_avoiding`'s path
        around the current blocked clusters and links, or ``None`` when
        none survives; ``rerouted`` says it differs from the
        fault-free route.
        """
        topology = self.topology
        rerouted = False
        path = canonical = topology.route(src, dest)
        faults = self.faults
        if faults is not None:
            blocked = faults.blocked_clusters
            dead_links = faults.blocked_links
            # route_avoiding tries the canonical route first, so a clear
            # one is its answer and needs no second routing.
            if src in blocked or not topology.path_clear(
                    src, canonical, blocked, dead_links):
                path = topology.route_avoiding(src, dest, blocked, dead_links)
                if path is None:
                    return None, (), 0.0, False
                rerouted = path != canonical
        hops = len(path)
        timing = self.timing
        latency = (
            timing.t_cu_dma
            + hops * timing.t_hop
            + max(0, hops - 1) * timing.t_forward
        )
        return (tuple(path), topology.path_dimensions(src, path), latency,
                rerouted)

    def _open_route(self, src: int, dest: int, key: int) -> List[Any]:
        """This run's route record for a pair under the current fault
        state: ``[path, latency, messages, dimensions, rerouted]``.

        The message count grows per message sent; the hop and
        dimension counts it stands for are folded into the report when
        the run ends (:meth:`_fold_traffic`).
        """
        entry = self._transport.get(key)
        if entry is None:
            entry = self._transport[key] = self._route_entry(src, dest)
        path, dimensions, latency, rerouted = entry
        route = self._routes[key] = [path, latency, 0, dimensions, rerouted]
        self._routes_used.append(route)
        return route

    def _send_message(self, st: _InstrState, src: int, arrival: Arrival) -> None:
        """Transport a remote marker delivery across the hypercube."""
        if self._pack:
            arrival = self._wire_round_trip(st, arrival)
        dest = arrival[0]
        key = src * self._num_clusters + dest
        route = self._routes.get(key)
        if route is None:
            route = self._open_route(src, dest, key)
        path = route[0]
        if path is None:
            # No surviving route: the marker simply never arrives
            # (graceful degradation — accuracy, not correctness).
            self.faults.stats.messages_unreachable += 1
            if self._tr is not None:
                self._tr.instant(
                    self._tk_faults, "msg-unreachable",
                    self._off + self.sim.now,
                    ("src", "dest"), src, dest,
                )
            return
        if route[4]:
            self.faults.stats.messages_rerouted += 1
            if self._tr is not None:
                self._tr.instant(
                    self._tk_faults, "msg-rerouted",
                    self._off + self.sim.now,
                    ("src", "dest", "hops"), src, dest, len(path),
                )
        latency = route[1]
        route[2] += 1
        st.pending += 1
        st.messages += 1
        self._sent += 1
        self._icn_latency += latency
        self._communication += latency
        self._category_busy[_PROPAGATE] += latency
        if self._tr is not None:
            ts = self._off + self.sim.now
            self._tr.instant(
                self._tk_cluster[src], "msg-send", ts,
                _K_MSG_SEND, dest, len(path), st.index, latency,
            )
            self._tr.counter(self._tk_icn, "messages", ts, self._sent)

        # The message waits in the source's marker activation memory
        # until its CU DMA completes.
        source = self.clusters[src]
        held = source.activation_held
        if held >= ACTIVATION_QUEUE_CAPACITY:
            source.activation_overflows += 1
        held += 1
        source.activation_held = held
        if held > source.activation_peak:
            source.activation_peak = held
        # Per-transfer recovery record, carried hop to hop.  Created
        # only when corruption is possible, so the fault-free (and the
        # corruption-free faulty) transport path is untouched.
        rec: Optional[Dict[str, Any]] = None
        if self.faults is not None and self.faults.corruption_possible:
            rec = {"attempts": 0, "alive": True, "watchdog": None, "src": src}

        job = (self.timing.t_cu_dma, None, self._launch_message,
               (st, arrival, path, rec, source))
        if self._tr is not None:
            job = self._traced_span_job(
                self._tk_cu[src], f"dma #{st.index}", job
            )
        source.cu.submit(job)

    def _launch_message(
        self,
        st: _InstrState,
        arrival: Arrival,
        path: Tuple[int, ...],
        rec: Optional[Dict[str, Any]],
        source: ClusterSim,
    ) -> None:
        """Source CU DMA done: the message leaves the activation memory
        and its first hop's wire transfer starts."""
        source.activation_held -= 1
        self.sim.schedule(self.timing.t_hop, self._after_wire,
                          st, arrival, path, 0, rec)

    def _after_wire(
        self,
        st: _InstrState,
        arrival: Arrival,
        path: Tuple[int, ...],
        hop_index: int,
        rec: Optional[Dict[str, Any]],
    ) -> None:
        """The wire transfer of one hop finished: forward the message,
        or deliver it at its destination cluster."""
        if rec is not None:
            if not rec["alive"]:
                # The recovery watchdog already declared this
                # transfer lost; drop the stale wire event.
                return
            if self.faults.transfer_corrupted():
                # Parity caught a corrupted transfer on this hop:
                # retry the hop after a backoff instead of
                # delivering poisoned data.
                self._retry_hop(st, arrival, path, hop_index, rec)
                return
        if hop_index != len(path) - 1:
            # Store and forward: once the intermediate CU has forwarded
            # the message, the next hop's wire transfer starts.
            target = path[hop_index]
            job = (self.timing.t_forward, None, self.sim.schedule,
                   (self.timing.t_hop, self._after_wire, st, arrival, path,
                    hop_index + 1, rec))
            if self._tr is not None:
                job = self._traced_span_job(
                    self._tk_cu[target], f"fwd #{st.index}", job
                )
            self.clusters[target].cu.submit(job)
            return
        if rec is not None and rec["watchdog"] is not None:
            watchdog = rec["watchdog"]
            if watchdog.armed:
                watchdog.cancel()
        cid = arrival[0]
        if self._drops_possible and self.faults.marker_dropped():
            # Gray failure: the marker vanishes at the destination NIC
            # without any CRC trip or timeout.  Sync counters still
            # balance (the barrier sees a consume), so the propagation
            # "completes" with silently missing activation — invisible
            # to query_visible_failures, caught only by the host's
            # answer-integrity audit.
            self.faults.stats.markers_dropped += 1
            if self._tr is not None:
                self._tr.instant(
                    self._tk_faults, "marker-dropped",
                    self._off + self.sim.now,
                    ("instr", "dest"), st.index, cid,
                )
            st.pending -= 1
            self._check_propagate_done(st)
            return
        if self._tr is not None:
            self._tr.instant(
                self._tk_cluster[cid], "msg-recv",
                self._off + self.sim.now, _K_MSG_RECV, st.index, arrival[5],
            )
        # The message's pending count passes to the arrival task it
        # becomes, so the level cannot complete here.
        self.clusters[cid].mus.submit(self._arrival_job(st, arrival))

    def _retry_hop(
        self,
        st: _InstrState,
        arrival: Arrival,
        path: Tuple[int, ...],
        hop_index: int,
        rec: Dict[str, Any],
    ) -> None:
        """Detected corruption: capped-backoff retry under a watchdog."""
        assert self.faults is not None
        policy = self.faults.cfg.retry
        rec["attempts"] += 1
        if rec["attempts"] > policy.max_retries:
            watchdog = rec["watchdog"]
            if watchdog is not None and watchdog.armed:
                watchdog.cancel()
            rec["alive"] = False
            self.faults.stats.transfer_failures += 1
            self._message_lost(st, arrival, rec["src"])
            return
        self.faults.stats.transfer_retries += 1
        if self._tr is not None:
            self._tr.instant(
                self._tk_faults, "transfer-retry",
                self._off + self.sim.now, ("attempt", "src", "dest"),
                rec["attempts"], rec["src"], arrival[0],
            )
        if rec["watchdog"] is None:
            # First corruption of this transfer arms the timeout
            # budget: total recovery (simulated µs) is bounded even if
            # every retry keeps getting corrupted.
            rec["watchdog"] = Timeout(
                self.sim, policy.timeout_budget_us,
                self._transfer_timed_out, st, arrival, rec,
            )
        backoff = policy.backoff(rec["attempts"] - 1)
        self.faults.stats.retry_time_us += backoff
        # The retry costs the backoff wait plus the re-sent wire hop
        # (the wait is scheduled here; the hop after it).
        self._communication += backoff + self.timing.t_hop
        self._attribute(Category.PROPAGATE, backoff + self.timing.t_hop)
        self.sim.schedule(
            backoff, self.sim.schedule,
            self.timing.t_hop, self._after_wire, st, arrival, path,
            hop_index, rec,
        )

    def _transfer_timed_out(
        self,
        st: _InstrState,
        arrival: Arrival,
        rec: Dict[str, Any],
    ) -> None:
        """Recovery budget exhausted: declare the transfer failed."""
        assert self.faults is not None
        rec["alive"] = False
        self.faults.stats.transfer_failures += 1
        if self._tr is not None:
            self._tr.instant(
                self._tk_faults, "transfer-timeout",
                self._off + self.sim.now,
                ("src", "dest"), rec["src"], arrival[0],
            )
        self._message_lost(st, arrival, rec["src"])

    def _message_lost(
        self, st: _InstrState, arrival: Arrival, src: int
    ) -> None:
        """Give up on a transfer; queue it for checkpoint replay.

        The level's count still drops — the transfer is *accounted
        for*, just unsuccessful — so the propagation barrier can fire
        and decide whether to replay from the checkpoint.
        """
        if self._tr is not None:
            self._tr.instant(
                self._tk_faults, "msg-lost", self._off + self.sim.now,
                ("src", "dest", "instr"), src, arrival[0], st.index,
            )
        st.lost.append((src, arrival))
        st.pending -= 1
        self._check_propagate_done(st)

    def _check_propagate_done(self, st: _InstrState) -> None:
        if st.completed or not st.scan_done or st.pending > 0:
            return
        if st.lost:
            # Checkpoint recovery: the marker state up to this barrier
            # *is* the checkpoint (delivered markers are already
            # folded in), so only the lost activation messages need
            # re-issuing — not the whole propagation.
            assert self.faults is not None
            fc = self.faults.cfg
            if fc.checkpoint_recovery and st.replay_rounds < fc.max_replay_rounds:
                st.replay_rounds += 1
                lost, st.lost = st.lost, []
                self.faults.stats.replays += 1
                self.faults.stats.replayed_messages += len(lost)
                if self._tr is not None:
                    self._tr.instant(
                        self._tk_faults, "checkpoint-replay",
                        self._off + self.sim.now,
                        ("instr", "round", "messages"),
                        st.index, st.replay_rounds, len(lost),
                    )
                for src, arrival in lost:
                    self._send_message(st, src, arrival)
                if st.pending > 0:
                    return
                # Every replayed message was unreachable; fall through.
            if st.lost:
                self.faults.stats.messages_lost += len(st.lost)
                st.lost.clear()
        st.completed = True
        cost = barrier_cost(
            self.cfg.total_pes,
            self.timing.t_sync_base,
            self.timing.t_sync_per_pe,
        )
        self.report.overheads.synchronization += cost
        self._attribute(Category.PROPAGATE, cost)
        if self._tr is not None and st.span is not None:
            self._trace_phase(st, "barrier")
        self.sim.schedule(cost, self._barrier_done, st)

    def _barrier_done(self, st: _InstrState) -> None:
        sync_stats = self.report.sync_stats
        sync_stats.count_message(self._sent - self._sent_at_barrier)
        self._sent_at_barrier = self._sent
        sync_stats.barrier(self.sim.now, st.index)
        self._complete(st)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _cluster_task_done(self, st: _InstrState, items: Optional[List] = None) -> None:
        if items:
            st.collected.extend(items)
        st.clusters_remaining -= 1
        if st.clusters_remaining > 0:
            return
        if st.kind == KIND_PROPAGATE:
            st.scan_done = True
            self._check_propagate_done(st)
            return
        if st.kind == KIND_COLLECT:
            self._gather_results(st)
            return
        self._complete(st)

    def _gather_results(self, st: _InstrState) -> None:
        """Controller retrieves items from each cluster's dual-port.

        Dominant overhead of Fig. 21: cost grows with the number of
        clusters (per-cluster setup) plus per-item transfer.
        """
        service = (
            len(self.alive_clusters) * self.timing.t_collect_cluster
            + len(st.collected) * self.timing.t_collect_item
        )
        self.report.overheads.collection += service
        self._attribute(Category.COLLECT, service)
        st.collected.sort(key=lambda item: item[0])
        job = (service, None, self._complete, (st,))
        if self._tr is not None and st.span is not None:
            self._trace_phase(st, "gather")
            job = self._traced_span_job(
                self._tk_ctrl, f"collect #{st.index}", job
            )
        self.controller.submit(job)

    def _complete(self, st: _InstrState) -> None:
        instr = st.instr
        ctx = st.ctx
        self._traces[st.index] = InstructionTrace(
            index=st.index,
            opcode=instr.opcode,
            category=instr.category,
            issue_time=st.issue_time,
            complete_time=self.sim.now,
            alpha=ctx.alpha if ctx else 0,
            max_hops=ctx.max_hops if ctx else 0,
            remote_messages=ctx.remote_messages if ctx else 0,
            arrivals=ctx.total_arrivals if ctx else 0,
            work_ops=st.work_ops,
            result=list(st.collected) if st.collected else (
                [] if instr.category == Category.COLLECT else None
            ),
        )
        if self._tr is not None:
            self._trace_complete(st)
        del self._in_flight[st.index]
        if (
            self._fault_event_handle is not None
            and not self._in_flight
            and self._pc >= len(self._program)
        ):
            # The program is done: drop any fault events still in the
            # future so they don't stretch total_time_us.
            self.sim.cancel(self._fault_event_handle)
            self._fault_event_handle = None
        self._try_issue()

    # ------------------------------------------------------------------
    def _attribute(self, category: str, busy: float) -> None:
        """Charge busy time to an instruction category.  The per-arrival
        and per-message paths inline this on ``_category_busy``."""
        busy_us = self._category_busy
        busy_us[category] = busy_us.get(category, 0.0) + busy


