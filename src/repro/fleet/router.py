"""The fleet router: scatter-gather over shards with failover.

One :class:`FleetRouter` fronts the whole fleet.  A query fans out one
**leg** per shard; each leg is dispatched to the shard's first
available replica in ring-preference order and served through that
replica's FIFO queue at the shard machine's simulated cost (scaled by
any regional gray slowdown, plus the cross-region hop penalty when the
serving replica is not the shard's home primary).  Legs resolve
independently:

* a leg answered by the home-region primary is **fresh**;
* a leg answered by any other replica is **stale** (correct — the KB
  is immutable — but explicitly flagged, and it paid a failover hop);
* a leg that missed its per-shard deadline, found no live replica, or
  was cut off by the query deadline is **shed**.

The query finalizes when every leg resolves or its own deadline
fires; the :class:`~repro.fleet.report.FleetStatus` is derived from
the leg ledger against the quorum (``FleetConfig.quorum``).

Failure handling is event-driven.  A ``region-fail`` event marks every
replica in the domain dead, re-dispatches the in-flight legs it was
serving to surviving replicas, and wakes the rebalancer; a
``region-repair`` event triggers home-restore copies so serving
reverts to primaries; ``region-slowdown`` inflates the domain's
service times, which (with health enabled) drives the phi-accrual
lifecycle to quarantine gray replicas — a failover with no hard fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..host.health import HealthState, health_transition_records
from ..machine.config import Timing
from ..machine.des import Server, Simulator
from ..network.graph import SemanticNetwork
from ..obs.tracer import get_tracer
from .config import FleetConfig
from .placement import PlacementMap, ShardReplica
from .rebalance import CopyJob, Rebalancer
from .report import FleetOutcome, FleetReport, FleetStatus, ShardSummary
from .sharding import FleetError, ShardAnswer, ShardExecutor, build_shards

#: Leg lifecycle labels (kept as strings for the ledger tuples).
_PENDING = "pending"
_FRESH = "fresh"
_STALE = "stale"
_SHED = "shed"
#: Status text per status, resolved once (an ``Enum.value`` read is a
#: Python-level descriptor call).
_STATUS_TEXT = {status: status.value for status in FleetStatus}
_ANSWERED = (FleetStatus.COMPLETE, FleetStatus.DEGRADED)

# Argument names of the observation hooks (see repro.obs.tracer).
_K_TEMPLATE = ("template",)
_K_STATUS = ("status",)
_K_LEG = ("region", "home")
_K_LEG_DONE = ("status", "miss")
_K_QUERY_END = ("status", "fresh", "stale", "shed")
_K_REGION = ("region",)
_K_FAILOVER = ("to_region", "home")
_K_QUERY_ID = ("query_id",)
_K_LEG_EVENT = ("shard", "status", "region", "miss")
_K_LEG_SHED = ("shard", "status", "region")
_K_OUTCOME = ("query_id", "status", "arrival_us", "latency_us", "ok",
              "stale", "reason")


@dataclass(slots=True, eq=False)
class _Leg:
    """One shard's slice of one query's scatter-gather."""

    state: "_FleetQueryState"
    shard_id: int
    status: str = _PENDING
    #: Region of the current dispatch (None before first dispatch).
    region: Optional[int] = None
    #: Bumped on every re-dispatch; completions carry the attempt they
    #: belong to, so a superseded service finish is discarded.
    attempt: int = 0
    #: True when the shard had nothing for the query's search roots.
    miss: bool = False
    results: Optional[List[Any]] = None
    watchdog: Optional[list] = None
    span: Optional[int] = None
    #: Health handle of the in-flight probe dispatch, if any.
    probing: Optional[ShardReplica] = None


@dataclass(slots=True, eq=False)
class _FleetQueryState:
    """Router-side state of one in-flight scatter-gather."""

    query: Any
    legs: List[_Leg] = field(default_factory=list)
    resolved: int = 0
    deadline_abs: Optional[float] = None
    deadline_event: Optional[list] = None
    finished: bool = False
    track: int = 0
    span: Optional[int] = None


class _FleetInstruments:
    """The router's per-event metric instruments, resolved at attach."""

    __slots__ = ("legs_shed", "legs_fresh", "legs_stale", "legs_miss",
                 "leg_service", "in_flight", "primary_changes",
                 "latency", "failovers", "queries")

    def __init__(self, metrics) -> None:
        resolve = metrics.resolve
        self.legs_shed = resolve("counter", "fleet.legs.shed")
        self.legs_fresh = resolve("counter", "fleet.legs.fresh")
        self.legs_stale = resolve("counter", "fleet.legs.stale")
        self.legs_miss = resolve("counter", "fleet.legs.miss")
        self.leg_service = resolve("histogram", "fleet.leg.service_us")
        self.in_flight = resolve("gauge", "fleet.in_flight")
        self.primary_changes = resolve("counter", "fleet.primary_changes")
        self.latency = resolve("histogram", "fleet.latency_us")
        self.failovers = resolve("counter", "fleet.failovers")
        self.queries = {
            status: resolve("counter", f"fleet.queries.{text}")
            for status, text in _STATUS_TEXT.items()
        }


class FleetRouter:
    """Sharded, replicated serving fleet over one DES timeline."""

    def __init__(
        self,
        network: SemanticNetwork,
        config: Optional[FleetConfig] = None,
        timing: Optional[Timing] = None,
        tracer=None,
        metrics=None,
        sink=None,
    ) -> None:
        self.config = config or FleetConfig()
        self.shards = build_shards(network, self.config)
        self.executors = [
            ShardExecutor(shard, self.config, timing)
            for shard in self.shards
        ]
        self.placement = PlacementMap(self.config, len(self.shards))
        self.sim = Simulator()
        self.rebalancer = Rebalancer(
            self.sim, self.placement, self.shards, self.config,
            on_complete=self._rebuild_done, on_abort=self._rebuild_aborted,
        )
        self._servers: Dict[Tuple[int, int], Server] = {}
        self._states: List[_FleetQueryState] = []
        self._outcomes: List[FleetOutcome] = []
        self._legs_by_region: List[Set[_Leg]] = [
            set() for _ in range(self.config.num_regions)
        ]
        self._in_flight = 0
        self._last_terminal_us = 0.0
        self._ran = False
        # Per-shard tallies for the report.
        num_shards = len(self.shards)
        self._legs_fresh = [0] * num_shards
        self._legs_stale = [0] * num_shards
        self._legs_shed = [0] * num_shards
        self._legs_missed = [0] * num_shards
        self._rebuilds = [0] * num_shards
        # Pre-bound callbacks (no per-event closures on the hot path).
        self._arrive_cb = self._arrive
        self._leg_done_cb = self._leg_done
        self._leg_deadline_cb = self._leg_deadline
        self._query_deadline_cb = self._query_deadline
        self._region_event_cb = self._region_event
        # Observability.  Process names are distinct from the host
        # layer's ("host"/"queries") so trace analysis keyed on those
        # processes never mistakes fleet tracks for host tracks.
        obs_tracer = tracer if tracer is not None else get_tracer()
        self._tr = obs_tracer if obs_tracer.enabled else None
        self._metrics = metrics
        self._observed = self._tr is not None or metrics is not None
        self._mi = (
            _FleetInstruments(metrics) if metrics is not None else None
        )
        # Live-telemetry sink (duck-typed, append-only; normally a
        # repro.obs.live.TelemetrySink).  Deliberately independent of
        # `_observed`: the sink reads nothing back, so attaching one
        # leaves the fleet report byte-identical.
        self._sink = sink
        if self._tr is not None:
            tr = self._tr
            self._tk_router = tr.track("fleet", "router")
            self._tk_shard = [
                tr.track("fleet", f"shard {sid:02d}")
                for sid in range(num_shards)
            ]

    # ------------------------------------------------------------------
    # Public entry
    # ------------------------------------------------------------------
    def serve(self, queries: Sequence[Any]) -> FleetReport:
        """Serve the whole stream to quiescence; return the report.

        Like the serving host, a router serves exactly one stream:
        replica state, health windows, and the region timeline are a
        single continuous history.
        """
        if self._ran:
            raise FleetError("a FleetRouter serves exactly one stream")
        self._ran = True
        seen: Set[int] = set()
        for query in queries:
            if query.query_id in seen:
                raise FleetError(f"duplicate query_id {query.query_id}")
            seen.add(query.query_id)
        sim = self.sim
        for event in self.config.region_schedule.events:
            sim.schedule(event.time_us, self._region_event_cb, event)
        default_deadline = self.config.default_deadline_us
        for query in sorted(
            queries, key=lambda q: (q.arrival_us, q.query_id)
        ):
            deadline = (
                query.deadline_us
                if query.deadline_us is not None
                else default_deadline
            )
            state = _FleetQueryState(
                query=query,
                deadline_abs=(
                    None if deadline is None
                    else query.arrival_us + deadline
                ),
            )
            self._states.append(state)
            sim.schedule(query.arrival_us, self._arrive_cb, state)
        sim.run()
        stuck = [s.query.query_id for s in self._states if not s.finished]
        if stuck:
            raise RuntimeError(f"fleet deadlock: queries {stuck}")
        if self._sink is not None:
            self._emit_lifecycle_telemetry()
        return self._build_report()

    # ------------------------------------------------------------------
    # Arrival, fan-out, and leg dispatch
    # ------------------------------------------------------------------
    def _arrive(self, state: _FleetQueryState) -> None:
        now = self.sim.now
        if self._tr is not None:
            qid = state.query.query_id
            state.track = self._tr.track(
                "fleet-queries", f"query {qid:05d}"
            )
            state.span = self._tr.begin(
                state.track, f"query {qid}", now,
                _K_TEMPLATE, getattr(state.query, "template", "") or "",
            )
        if self._sink is not None:
            self._sink.emit(
                now, "arrival", _K_QUERY_ID, state.query.query_id
            )
        cap = self.config.queue_capacity
        if cap is not None and self._in_flight >= cap:
            self._finalize(state, FleetStatus.SHED,
                           shed_reason="queue-full")
            return
        self._in_flight += 1
        if self._observed:
            self._note_in_flight()
        state.legs = [
            _Leg(state=state, shard_id=sid)
            for sid in range(len(self.shards))
        ]
        deadline = state.deadline_abs
        if deadline is not None:
            state.deadline_event = self.sim.schedule(
                max(deadline - now, 0.0), self._query_deadline_cb, state
            )
        leg_deadline = self.config.shard_deadline_us
        for leg in state.legs:
            if leg_deadline is not None:
                leg.watchdog = self.sim.schedule(
                    leg_deadline, self._leg_deadline_cb, leg
                )
            self._dispatch_leg(leg)

    def _dispatch_leg(self, leg: _Leg) -> None:
        """Route one leg to the best available replica of its shard."""
        now = self.sim.now
        sid = leg.shard_id
        replica = self.placement.select(sid, now)
        if replica is None:
            self._resolve_leg(leg, _SHED)
            return
        region = replica.region
        home = self.placement.home_region(sid)
        # A dispatch to a PROBING replica is a health test, not a
        # serving decision — the previous primary keeps the title
        # until the replica is readmitted (otherwise every probe
        # cycle would read as failover flapping).
        probe = (
            replica.health is not None
            and replica.health.state is HealthState.PROBING
        )
        if not probe and self.placement.note_serving(
            sid, region, now,
            reason="restore-home" if region == home else "failover",
        ):
            self._note_primary_change(sid, region, now)
        if replica.health is not None:
            replica.health.acquire(now)
            leg.probing = replica
        leg.region = region
        leg.attempt += 1
        self._legs_by_region[region].add(leg)
        answer = self.executors[sid].execute(
            leg.state.query,
            tracer=self._tr, metrics=self._metrics,
            trace_offset_us=now,
        )
        slowdown = self.placement.region_slowdown[region]
        service = answer.service_us * slowdown
        if region != home:
            service += self.config.failover_penalty_us
        if self._tr is not None:
            if leg.span is not None:
                # Re-dispatch after a regional failure: the first
                # attempt's service died with its region.
                self._tr.end(leg.span, now, _K_STATUS, "orphaned")
            leg.span = self._tr.begin(
                self._tk_shard[sid],
                f"leg q{leg.state.query.query_id}", now,
                _K_LEG, region, home == region,
            )
        self._server(sid, region).submit((
            service, None, self._leg_done_cb,
            (leg, leg.attempt, replica, answer, slowdown),
        ))

    def _server(self, shard_id: int, region: int) -> Server:
        server = self._servers.get((shard_id, region))
        if server is None:
            server = Server(
                self.sim, name=f"shard{shard_id}@region{region}"
            )
            self._servers[(shard_id, region)] = server
        return server

    # ------------------------------------------------------------------
    # Leg resolution
    # ------------------------------------------------------------------
    def _leg_done(
        self,
        leg: _Leg,
        attempt: int,
        replica: ShardReplica,
        answer: ShardAnswer,
        slowdown: float,
    ) -> None:
        now = self.sim.now
        if replica.health is not None:
            # Observed-over-baseline ratio: regional slowdown inflates
            # it past 1.0 (the gray-failure signal); the failover hop
            # penalty is a routing cost, not replica slowness, and is
            # deliberately excluded.
            if leg.probing is replica:
                leg.probing = None
            replica.health.record_attempt(
                now, slowdown, 0 if answer.ok else 1
            )
        if (leg.attempt != attempt or leg.status != _PENDING
                or leg.state.finished):
            # Superseded: the leg failed over, was shed, or the query
            # already finalized while this service completed.  The
            # replica's work is wasted but its health was still scored.
            return
        self._legs_by_region[replica.region].discard(leg)
        replica.served += 1
        sid = leg.shard_id
        fresh = replica.region == self.placement.home_region(sid)
        leg.status = _FRESH if fresh else _STALE
        leg.miss = answer.miss
        leg.results = answer.results
        self._release_leg_watchdog(leg)
        if fresh:
            self._legs_fresh[sid] += 1
        else:
            self._legs_stale[sid] += 1
        if answer.miss:
            self._legs_missed[sid] += 1
        if self._observed:
            self._note_leg_done(leg, answer, fresh, now)
        if self._sink is not None:
            self._sink.emit(
                now, "leg", _K_LEG_EVENT,
                sid, leg.status, replica.region, answer.miss,
            )
        state = leg.state
        state.resolved += 1
        if state.resolved == len(state.legs):
            self._finalize(state, None)

    def _leg_deadline(self, leg: _Leg) -> None:
        """Per-shard deadline: shed the leg, keep the gather going."""
        leg.watchdog = None
        if leg.status != _PENDING or leg.state.finished:
            return
        self._resolve_leg(leg, _SHED)

    def _resolve_leg(self, leg: _Leg, status: str) -> None:
        """Mark a pending leg shed and advance the gather."""
        leg.status = status
        leg.attempt += 1  # orphan any in-flight service completion
        if leg.probing is not None:
            leg.probing.health.release()
            leg.probing = None
        if leg.region is not None:
            self._legs_by_region[leg.region].discard(leg)
        self._release_leg_watchdog(leg)
        sid = leg.shard_id
        self._legs_shed[sid] += 1
        now = self.sim.now
        if self._tr is not None:
            self._tr.end(leg.span, now, _K_STATUS, _SHED)
        if self._mi is not None:
            self._mi.legs_shed.inc()
        if self._sink is not None:
            self._sink.emit(
                now, "leg", _K_LEG_SHED, sid, _SHED, leg.region
            )
        state = leg.state
        state.resolved += 1
        if state.resolved == len(state.legs):
            self._finalize(state, None)

    def _release_leg_watchdog(self, leg: _Leg) -> None:
        """Cancel a leg's deadline event and drop its handle, so
        finished legs hold no kernel entries."""
        if leg.watchdog is not None:
            self.sim.cancel(leg.watchdog)
            leg.watchdog = None

    def _query_deadline(self, state: _FleetQueryState) -> None:
        """Query deadline: cut pending legs, answer if quorum holds."""
        state.deadline_event = None
        if state.finished:
            return
        for leg in state.legs:
            if leg.status == _PENDING:
                leg.status = _SHED
                leg.attempt += 1
                if leg.probing is not None:
                    leg.probing.health.release()
                    leg.probing = None
                if leg.region is not None:
                    self._legs_by_region[leg.region].discard(leg)
                self._release_leg_watchdog(leg)
                self._legs_shed[leg.shard_id] += 1
                if self._tr is not None:
                    self._tr.end(leg.span, self.sim.now, _K_STATUS, _SHED)
                if self._mi is not None:
                    self._mi.legs_shed.inc()
                if self._sink is not None:
                    self._sink.emit(
                        self.sim.now, "leg", _K_LEG_SHED,
                        leg.shard_id, _SHED, leg.region,
                    )
        answered = sum(
            1 for leg in state.legs if leg.status in (_FRESH, _STALE)
        )
        status = (
            FleetStatus.DEGRADED if answered >= self.config.quorum
            else FleetStatus.TIMED_OUT
        )
        self._finalize(state, status)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def _finalize(
        self,
        state: _FleetQueryState,
        status: Optional[FleetStatus],
        shed_reason: Optional[str] = None,
    ) -> None:
        if state.finished:
            return
        state.finished = True
        now = self.sim.now
        if state.deadline_event is not None:
            self.sim.cancel(state.deadline_event)
            state.deadline_event = None
        fresh = tuple(
            leg.shard_id for leg in state.legs if leg.status == _FRESH
        )
        stale = tuple(
            leg.shard_id for leg in state.legs if leg.status == _STALE
        )
        shed = tuple(
            leg.shard_id for leg in state.legs if leg.status == _SHED
        )
        if status is None:
            answered = len(fresh) + len(stale)
            if not stale and not shed:
                status = FleetStatus.COMPLETE
            elif answered >= self.config.quorum:
                status = FleetStatus.DEGRADED
            else:
                status = FleetStatus.FAILED
        correct = True
        results: Dict[int, List[Any]] = {}
        if status in (FleetStatus.COMPLETE, FleetStatus.DEGRADED):
            for leg in state.legs:
                if leg.status not in (_FRESH, _STALE):
                    continue
                reference = self.executors[leg.shard_id].reference_results(
                    state.query
                )
                payload = list(leg.results or [])
                results[leg.shard_id] = payload
                if payload != reference:
                    correct = False
        query = state.query
        outcome = FleetOutcome(
            query_id=query.query_id,
            status=status,
            arrival_us=query.arrival_us,
            finish_us=now,
            latency_us=now - query.arrival_us,
            shards_fresh=fresh,
            shards_stale=stale,
            shards_shed=shed,
            failovers=len(stale),
            correct=correct,
            shed_reason=shed_reason,
            results=results or None,
        )
        self._outcomes.append(outcome)
        self._last_terminal_us = now
        if self._sink is not None:
            self._sink.emit(
                now, "query", _K_OUTCOME, query.query_id,
                _STATUS_TEXT[status], query.arrival_us,
                now - query.arrival_us, outcome.ok, len(stale), shed_reason,
            )
        if state.legs and status is not FleetStatus.SHED:
            self._in_flight -= 1
            if self._observed:
                self._note_in_flight()
        if self._observed:
            self._note_outcome(outcome, now)
        if self._tr is not None:
            self._tr.end(
                state.span, now, _K_QUERY_END,
                _STATUS_TEXT[status], len(fresh), len(stale), len(shed),
            )

    def _emit_lifecycle_telemetry(self) -> None:
        """Replay replica health trails into the telemetry sink.

        Post-run, like the serving host's: transition ledgers already
        carry their simulated timestamps, so the windowed view places
        them correctly after sorting and the scatter-gather hot path
        pays nothing per transition.  Replicas dropped at
        ``region-repair`` lose their (empty-by-then) trails; the
        quarantine transitions that matter for gray detection belong
        to surviving slowdown-region replicas.
        """
        emit = self._sink.emit
        for sid, placed in enumerate(self.placement.replicas):
            for region in sorted(placed):
                replica = placed[region]
                if replica.health is None:
                    continue
                for ts, fields in health_transition_records(
                    replica.health, region
                ):
                    fields = dict(fields, shard=sid, region=region)
                    fields.pop("replica", None)
                    emit(ts, "health", tuple(fields), *fields.values())

    # ------------------------------------------------------------------
    # Region fault timeline
    # ------------------------------------------------------------------
    def _region_event(self, event) -> None:
        now = self.sim.now
        if self._metrics is not None:
            self._metrics.counter("fleet.region_events").inc()
        if self._tr is not None:
            self._tr.instant(
                self._tk_router, event.kind, now, _K_REGION, event.region,
            )
        if self._sink is not None:
            self._sink.emit(
                now, "fault", ("event", "region", "value"),
                event.kind, event.region, event.value,
            )
        if event.kind == "region-fail":
            self.placement.region_fail(event.region)
            # Legs the dead domain was serving fail over immediately:
            # their in-flight service is lost with the region.
            orphans = [
                leg for leg in self._legs_by_region[event.region]
                if leg.status == _PENDING and not leg.state.finished
            ]
            self._legs_by_region[event.region].clear()
            for leg in orphans:
                if leg.probing is not None:
                    leg.probing.health.release()
                    leg.probing = None
                leg.attempt += 1
                if self._metrics is not None:
                    self._metrics.counter("fleet.failover_redispatches").inc()
                self._dispatch_leg(leg)
            self.rebalancer.ensure_replication()
        elif event.kind == "region-repair":
            came_home = self.placement.region_repair(event.region)
            self.rebalancer.restore_home(came_home)
            self.rebalancer.ensure_replication()
        else:  # region-slowdown
            self.placement.set_slowdown(event.region, event.value)

    # ------------------------------------------------------------------
    # Rebalance callbacks
    # ------------------------------------------------------------------
    def _rebuild_done(self, job: CopyJob) -> None:
        self._rebuilds[job.shard_id] += 1
        now = self.sim.now
        if self._metrics is not None:
            self._metrics.counter("fleet.rebuilds.completed").inc()
        if self._tr is not None:
            self._tr.instant(
                self._tk_shard[job.shard_id], "rebuild-done", now,
                ("region", "kind"), job.target_region, job.kind,
            )
        # Serving reverts to the restored copy if it is now preferred
        # over the current primary (a home restore, typically).  The
        # next dispatched leg records the primary change.

    def _rebuild_aborted(self, job: CopyJob) -> None:
        if self._metrics is not None:
            self._metrics.counter("fleet.rebuilds.aborted").inc()
        if self._tr is not None:
            self._tr.instant(
                self._tk_shard[job.shard_id], "rebuild-aborted",
                self.sim.now, _K_REGION, job.target_region,
            )

    # ------------------------------------------------------------------
    # Observability (all callers behind `self._observed` / `self._tr`)
    # ------------------------------------------------------------------
    def _note_primary_change(self, shard_id: int, region: int,
                             now: float) -> None:
        if self._tr is not None:
            self._tr.instant(
                self._tk_shard[shard_id], "failover", now, _K_FAILOVER,
                region, self.placement.home_region(shard_id),
            )
        if self._mi is not None:
            self._mi.primary_changes.inc()

    def _note_in_flight(self) -> None:
        now = self.sim.now
        if self._tr is not None:
            self._tr.counter(
                self._tk_router, "in_flight", now, self._in_flight
            )
        if self._mi is not None:
            self._mi.in_flight.set(now, self._in_flight)

    def _note_leg_done(self, leg: _Leg, answer: ShardAnswer,
                       fresh: bool, now: float) -> None:
        if self._tr is not None:
            self._tr.end(leg.span, now, _K_LEG_DONE, leg.status, answer.miss)
        mi = self._mi
        if mi is not None:
            (mi.legs_fresh if fresh else mi.legs_stale).inc()
            if answer.miss:
                mi.legs_miss.inc()
            mi.leg_service.observe(answer.service_us)

    def _note_outcome(self, outcome: FleetOutcome, now: float) -> None:
        mi = self._mi
        if mi is None:
            return
        status = outcome.status
        mi.queries[status].inc()
        if status in _ANSWERED:
            mi.latency.observe(outcome.latency_us)
            if outcome.failovers:
                mi.failovers.inc(outcome.failovers)

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def _build_report(self) -> FleetReport:
        final_replication = self.placement.replication_counts()
        if self._metrics is not None:
            self._metrics.gauge("fleet.replication.min").set(
                self.sim.now,
                min(final_replication) if final_replication else 0,
            )
        changes_per_shard = [0] * len(self.shards)
        for change in self.placement.primary_changes:
            changes_per_shard[change.shard_id] += 1
        shards = [
            ShardSummary(
                shard_id=shard.shard_id,
                num_nodes=shard.num_nodes,
                home_region=self.placement.home_region(shard.shard_id),
                serving_region=self.placement.serving_region(
                    shard.shard_id
                ),
                replication=final_replication[shard.shard_id],
                legs_fresh=self._legs_fresh[shard.shard_id],
                legs_stale=self._legs_stale[shard.shard_id],
                legs_shed=self._legs_shed[shard.shard_id],
                legs_missed=self._legs_missed[shard.shard_id],
                primary_changes=changes_per_shard[shard.shard_id],
                rebuilds=self._rebuilds[shard.shard_id],
            )
            for shard in self.shards
        ]
        return FleetReport(
            outcomes=self._outcomes,
            shards=shards,
            total_time_us=self._last_terminal_us,
            primary_changes=list(self.placement.primary_changes),
            rebuilds_completed=self.rebalancer.completed,
            rebuilds_aborted=self.rebalancer.aborted,
            final_replication=final_replication,
            replication_factor=self.config.replication_factor,
        )
