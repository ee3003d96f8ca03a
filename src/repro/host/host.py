"""The resilient query-serving host.

``ServingHost`` runs a simulated-time serving loop on top of the same
DES kernel as the machine model (:mod:`repro.machine.des`): queries
arrive on the host clock, pass admission control, wait in the bounded
queue, and execute on replica cluster groups whose service times come
from the *nested* machine simulator — so every serving latency is
backed by the full PU/MU/CU + ICN + synchronization cost model,
including PR 1 fault injection on degraded replicas.

Resilience mechanisms, in the order a query meets them:

1. **Admission control** — a bounded FIFO with ``reject-newest`` or
   ``reject-over-deadline`` shedding (:mod:`repro.host.admission`).
2. **Deadline watchdogs** — one cancellable kernel event per admitted
   query; expiry cancels queued or in-flight work and frees the
   replica immediately.
3. **Hedged retries** — an attempt in flight longer than
   ``hedge_after_us`` is re-issued on another (healthiest-available)
   replica; the first undamaged completion wins and the loser is
   cancelled, releasing its replica.
4. **Sequential retries** — a completed-but-damaged attempt is retried
   on a different replica up to ``max_attempts`` times.
5. **Circuit breakers** — per replica, fed by the fault reports of
   completed attempts (:mod:`repro.host.breaker`); open breakers take
   a replica out of dispatch until its cooldown and probe succeed.
6. **Health lifecycle** (optional) — a phi-accrual detector over
   attempt latencies and damage (:mod:`repro.host.health`) that
   quarantines gray replicas the breaker cannot see, probes them
   after a hold-off, and readmits on sustained healthy probes; plus
   sampled answer-integrity audits (shadow re-execution on a healthy
   replica) that catch silently-incomplete answers.

Determinism: the host draws no randomness of its own — arrivals are
given, nested executions are deterministic, and the DES breaks ties
FIFO — so a serving run is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Sequence, Set, Tuple

from ..machine.config import Timing
from ..machine.des import Simulator
from ..network.graph import SemanticNetwork
from ..obs.tracer import get_tracer
from .admission import REJECT_NEWEST, AdmissionQueue
from .breaker import BreakerState
from .config import HostConfig
from .executor import AttemptResult, Replica, ReplicaArray
from .health import HealthState, ReplicaHealth, health_transition_records
from .query import HostError, Query, QueryOutcome, QueryStatus
from .report import ReplicaSummary, ServingReport

# Hot-path constants: one global load instead of an enum attribute
# chain per query.
_SERVED = QueryStatus.SERVED
_SHED = QueryStatus.SHED
_TIMED_OUT = QueryStatus.TIMED_OUT
_FAILED = QueryStatus.FAILED
_CLOSED = BreakerState.CLOSED
_OPEN = BreakerState.OPEN
_QUARANTINED = HealthState.QUARANTINED
#: Status text per status, resolved once (an ``Enum.value`` read is a
#: Python-level descriptor call).
_STATUS_TEXT = {status: status.value for status in QueryStatus}

# Argument names of the observation hooks (see repro.obs.tracer).
_K_TEMPLATE = ("template",)
_K_REPLICA = ("replica",)
_K_ATTEMPT_END = ("ok", "damage", "cancelled")
_K_ATTEMPT_DONE = ("replica", "ok", "damage")
_K_REASON = ("reason",)
_K_QUERY_END = ("status", "attempts", "hedges")
_K_QUERY_ID = ("query_id",)
_K_OUTCOME = ("query_id", "status", "arrival_us", "latency_us", "reason")


@dataclass(slots=True)
class _Attempt:
    """One dispatch of a query onto a replica."""

    state: "_QueryState"
    replica: Replica
    start_us: float
    result: AttemptResult
    hedged: bool = False
    live: bool = True
    completion_event: Any = None
    hedge_event: Any = None
    #: Open attempt span handle (tracing only).
    span: Any = None


@dataclass(slots=True)
class _QueryState:
    """Mutable serving-side bookkeeping for one query."""

    query: Query
    #: Effective deadline budget (query's own, or the host default).
    deadline_us: Optional[float]
    #: Absolute deadline instant (arrival + budget; None = unbounded),
    #: precomputed once so the hot path never re-derives it.
    deadline_abs: Optional[float] = None
    terminal: bool = False
    queued: bool = False
    #: Deadline watchdog: a raw cancellable kernel event handle.
    watchdog: Any = None
    in_flight: List[_Attempt] = field(default_factory=list)
    primary_attempts: int = 0
    hedges: int = 0
    tried: Set[int] = field(default_factory=set)
    #: Tracing bookkeeping (populated only when a tracer is active).
    track: int = -1
    span: Any = None
    queued_span: Any = None

    @property
    def absolute_deadline_us(self) -> Optional[float]:
        return self.deadline_abs


class _HostInstruments:
    """The host's per-event metric instruments, resolved at attach."""

    __slots__ = (
        "queue_depth", "attempts", "hedges_issued", "attempts_cancelled",
        "hedges_cancelled", "attempt_failures", "queries", "retries",
        "served_latency", "busy", "outcome",
    )

    def __init__(self, metrics, num_replicas: int) -> None:
        resolve = metrics.resolve
        self.queue_depth = resolve("gauge", "host.queue_depth")
        self.attempts = resolve("counter", "host.attempts")
        self.hedges_issued = resolve("counter", "host.hedges_issued")
        self.attempts_cancelled = resolve(
            "counter", "host.attempts_cancelled")
        self.hedges_cancelled = resolve("counter", "host.hedges_cancelled")
        self.attempt_failures = resolve("counter", "host.attempt_failures")
        self.queries = resolve("counter", "host.queries")
        self.retries = resolve("counter", "host.retries")
        self.served_latency = resolve(
            "histogram", "host.served_latency_us")
        self.busy = [
            resolve("gauge", f"host.replica.{rid}.busy")
            for rid in range(num_replicas)
        ]
        self.outcome = {
            status: resolve("counter", f"host.outcome.{text}")
            for status, text in _STATUS_TEXT.items()
        }


class ServingHost:
    """A one-shot serving run over a stream of queries."""

    def __init__(
        self,
        network: SemanticNetwork,
        config: Optional[HostConfig] = None,
        timing: Optional[Timing] = None,
        tracer=None,
        metrics=None,
        sink=None,
    ) -> None:
        self.config = config or HostConfig()
        self.sim = Simulator()
        self.array = ReplicaArray(network, self.config, timing)
        self.queue = AdmissionQueue(
            self.config.queue_capacity, self.config.shed_policy
        )
        self.outcomes: List[QueryOutcome] = []
        self._states: List[_QueryState] = []
        self._ran = False
        # Hot-path plumbing: the queue's raw deque (emptiness checks
        # without a method call) and pre-bound callbacks, so the
        # per-query/per-attempt paths never allocate a bound method.
        self._buffer = self.queue.buffer
        self._replicas = self.array.replicas
        # Health lifecycle + integrity auditing (both default-off; an
        # empty self._health keeps every hot-path check one truthiness
        # test, preserving byte-identical behaviour when disabled).
        self._health: List[ReplicaHealth] = []
        if self.config.health_enabled:
            self._health = [
                ReplicaHealth(
                    window=self.config.health_window,
                    min_samples=self.config.health_min_samples,
                    sigma_floor=self.config.health_sigma_floor,
                    damage_weight=self.config.health_damage_weight,
                    phi_quarantine=self.config.health_phi_quarantine,
                    probe_after_us=self.config.health_probe_after_us,
                    probe_successes=self.config.health_probe_successes,
                    readmit_ratio=self.config.health_readmit_ratio,
                )
                for _ in self._replicas
            ]
        self._audit_interval = self.config.audit_interval
        self._served_count = 0
        self.audit_checks = 0
        self.audit_mismatches = 0
        self._audit_log: List[Tuple[float, int, int, bool]] = []
        self._hopeless_cb = self._hopeless
        self._attempt_done_cb = self._attempt_done
        self._maybe_hedge_cb = self._maybe_hedge
        self._on_deadline_cb = self._on_deadline
        # Arrivals are reserved up front (fixing tie-break order) but
        # committed to the event heap one at a time; see serve().
        self._arrivals: List[Any] = []
        self._arrival_count = 0
        self._next_arrival = 0
        # Tail-drop on a full queue needs no admission-control logic
        # beyond a length check; precompute whether that shortcut
        # applies (it never does for reject-over-deadline).
        cap = self.config.queue_capacity
        self._fast_shed_cap = (
            cap
            if cap is not None and self.config.shed_policy == REJECT_NEWEST
            else None
        )
        # Observability.  The untraced default costs one `_observed`
        # bool check at each instrumentation site; the tracer draws
        # one span tree per query (admission → attempts → hedges →
        # outcome), per-replica attempt spans + busy transitions, and
        # a queue-depth counter, while the registry accumulates the
        # matching aggregates.
        obs_tracer = tracer if tracer is not None else get_tracer()
        self._tr = obs_tracer if obs_tracer.enabled else None
        self._metrics = metrics
        self._observed = self._tr is not None or metrics is not None
        self._mi = (
            _HostInstruments(metrics, len(self._replicas))
            if metrics is not None else None
        )
        # Live-telemetry sink (duck-typed: anything with .emit(ts,
        # kind, names, *values), normally repro.obs.live.TelemetrySink).
        # Kept off the `_observed` flag on purpose: the sink is
        # append-only and reads nothing back, so attaching one must
        # leave the tracer/metrics paths — and the serving report —
        # byte-identical.
        self._sink = sink
        if self._tr is not None:
            tr = self._tr
            self._tk_queue = tr.track("host", "queue")
            self._tk_replica = [
                tr.track("host", f"replica {r.replica_id:02d}")
                for r in self._replicas
            ]

    # ------------------------------------------------------------------
    # Public entry
    # ------------------------------------------------------------------
    def serve(self, queries: Sequence[Query]) -> ServingReport:
        """Serve the whole stream to quiescence; return the report."""
        if self._ran:
            raise HostError("a ServingHost serves exactly one stream")
        self._ran = True
        seen: Set[int] = set()
        for query in queries:
            if query.query_id in seen:
                raise HostError(f"duplicate query_id {query.query_id}")
            seen.add(query.query_id)
        default_deadline = self.config.default_deadline_us
        states = self._states
        sim = self.sim
        reserve = sim.reserve
        on_arrival = self._on_arrival
        arrivals = self._arrivals
        for query in sorted(
            queries, key=lambda q: (q.arrival_us, q.query_id)
        ):
            deadline = (
                query.deadline_us
                if query.deadline_us is not None
                else default_deadline
            )
            state = _QueryState(
                query=query,
                deadline_us=deadline,
                deadline_abs=(
                    None if deadline is None
                    else query.arrival_us + deadline
                ),
            )
            states.append(state)
            arrivals.append(reserve(query.arrival_us, on_arrival, state))
        # Reserving assigned every arrival its sequence number first
        # (identical FIFO tie-breaking to scheduling them all), but
        # only one arrival sits in the heap at a time — each commits
        # its successor on firing — so heap depth tracks the queries
        # actually in flight rather than the whole stream.
        self._arrival_count = len(arrivals)
        if arrivals:
            self._next_arrival = 1
            sim.commit(arrivals[0])
        sim.run()
        stuck = [s.query.query_id for s in self._states if not s.terminal]
        if stuck:
            raise RuntimeError(f"serving deadlock: queries {stuck}")
        if self._observed or self._sink is not None:
            self._replay_lifecycle()
        return self._build_report()

    # ------------------------------------------------------------------
    # Arrival and admission
    # ------------------------------------------------------------------
    def _on_arrival(self, state: _QueryState) -> None:
        nxt = self._next_arrival
        arrivals = self._arrivals
        arrivals[nxt - 1] = None  # this arrival's handle, now fired
        if nxt < self._arrival_count:
            self.sim.commit(arrivals[nxt])
            self._next_arrival = nxt + 1
        if self._observed:
            self._trace_arrival(state)
        if self._sink is not None:
            self._sink.emit(
                self.sim.now, "arrival", _K_QUERY_ID, state.query.query_id
            )
        # Fast path: nothing waiting ahead and a replica free now —
        # dispatch directly, bypassing the (possibly zero-capacity)
        # buffer.  FIFO order is preserved because the queue is empty.
        buffer = self._buffer
        if not buffer:
            replica = self._pick_replica(state)
            if replica is not None:
                self._arm_watchdog(state)
                self._start_attempt(state, replica)
                return
        elif (
            self._fast_shed_cap is not None
            and len(buffer) >= self._fast_shed_cap
        ):
            # Tail-drop shortcut: same outcome and counters as
            # queue.offer() on a full reject-newest queue.
            self.queue.shed_newest += 1
            self._finalize(state, _SHED, shed_reason="queue-full")
            return
        admitted, evicted, reason = self.queue.offer(
            state, hopeless=self._hopeless_cb
        )
        for victim in evicted:
            self._release_watchdog(victim)
            self._finalize(victim, _SHED, shed_reason="over-deadline")
        if not admitted:
            if self._observed and evicted:
                self._note_queue_depth()
            self._finalize(state, _SHED, shed_reason=reason)
            return
        state.queued = True
        self._arm_watchdog(state)
        if self._observed:
            self._note_enqueued(state)

    def _hopeless(self, state: _QueryState) -> bool:
        """Queued query that cannot meet its deadline even if started
        immediately on a healthy replica (shed-over-deadline test)."""
        deadline = state.deadline_abs
        if deadline is None:
            return False
        remaining = deadline - self.sim.now
        return remaining < self.array.healthy_service_us(state.query)

    def _arm_watchdog(self, state: _QueryState) -> None:
        deadline = state.deadline_abs
        if deadline is None:
            return
        remaining = deadline - self.sim.now
        state.watchdog = self.sim.schedule(
            remaining if remaining > 0.0 else 0.0,
            self._on_deadline_cb,
            state,
        )

    def _release_watchdog(self, state: _QueryState) -> None:
        # Cancelling an already-fired event is a kernel no-op, so no
        # armed/expired bookkeeping is needed here.  A released handle
        # is dropped, so finished queries hold no kernel entries.
        if state.watchdog is not None:
            self.sim.cancel(state.watchdog)
            state.watchdog = None

    # ------------------------------------------------------------------
    # Observability (every caller is behind a `self._observed` check)
    # ------------------------------------------------------------------
    def _trace_arrival(self, state: _QueryState) -> None:
        """Open the query's span tree (its own Perfetto thread)."""
        tr = self._tr
        if tr is None:
            return
        qid = state.query.query_id
        state.track = tr.track("queries", f"query {qid:05d}")
        state.span = tr.begin(
            state.track, f"query {qid}", self.sim.now,
            _K_TEMPLATE, state.query.template or "",
        )

    def _note_queue_depth(self) -> None:
        """Sample the admission-queue depth after a mutation."""
        depth = len(self._buffer)
        now = self.sim.now
        if self._tr is not None:
            self._tr.counter(self._tk_queue, "queue_depth", now, depth)
        if self._mi is not None:
            self._mi.queue_depth.set(now, depth)

    def _note_enqueued(self, state: _QueryState) -> None:
        if self._tr is not None and state.span is not None:
            state.queued_span = self._tr.begin(
                state.track, "queued", self.sim.now
            )
        self._note_queue_depth()

    def _note_dispatch(self, attempt: _Attempt) -> None:
        """An attempt entered service on a replica."""
        state, replica = attempt.state, attempt.replica
        now = self.sim.now
        rid = replica.replica_id
        tr = self._tr
        if tr is not None:
            if state.queued_span is not None:
                tr.end(state.queued_span, now)
                state.queued_span = None
            track = self._tk_replica[rid]
            label = "hedge" if attempt.hedged else "attempt"
            attempt.span = tr.begin(
                track, f"{label} q{state.query.query_id}", now,
                _K_REPLICA, rid,
            )
            tr.counter(track, "busy", now, 1)
            if state.span is not None:
                tr.instant(
                    state.track,
                    "hedge-issued" if attempt.hedged else "attempt-start",
                    now, _K_REPLICA, rid,
                )
        mi = self._mi
        if mi is not None:
            mi.attempts.inc()
            if attempt.hedged:
                mi.hedges_issued.inc()
            mi.busy[rid].set(now, 1)

    def _note_attempt_end(
        self, attempt: _Attempt, cancelled: bool
    ) -> None:
        """An attempt left its replica (completed or cancelled)."""
        state, replica = attempt.state, attempt.replica
        now = self.sim.now
        rid = replica.replica_id
        result = attempt.result
        tr = self._tr
        if tr is not None:
            track = self._tk_replica[rid]
            tr.end(
                attempt.span, now,
                _K_ATTEMPT_END, result.ok, result.damage, cancelled,
            )
            tr.counter(track, "busy", now, 0)
            if state.span is not None:
                tr.instant(
                    state.track,
                    "attempt-cancelled" if cancelled else "attempt-done",
                    now, _K_ATTEMPT_DONE, rid, result.ok, result.damage,
                )
        mi = self._mi
        if mi is not None:
            if cancelled:
                mi.attempts_cancelled.inc()
                if attempt.hedged:
                    mi.hedges_cancelled.inc()
            elif not result.ok:
                mi.attempt_failures.inc()
            mi.busy[rid].set(now, 0)

    def _note_finalize(
        self,
        state: _QueryState,
        status: QueryStatus,
        shed_reason: Optional[str],
    ) -> None:
        """Close the query's span tree and count its outcome."""
        now = self.sim.now
        tr = self._tr
        if tr is not None and state.span is not None:
            if state.queued_span is not None:
                tr.end(state.queued_span, now)
                state.queued_span = None
            text = _STATUS_TEXT[status]
            if shed_reason:
                tr.instant(state.track, text, now, _K_REASON, shed_reason)
            else:
                tr.instant(state.track, text, now)
            tr.end(
                state.span, now, _K_QUERY_END,
                text, state.primary_attempts + state.hedges, state.hedges,
            )
        mi = self._mi
        if mi is not None:
            mi.queries.inc()
            mi.outcome[status].inc()
            if state.primary_attempts > 1:
                mi.retries.inc(state.primary_attempts - 1)
            if status is _SERVED:
                mi.served_latency.observe(now - state.query.arrival_us)

    def _replay_lifecycle(self) -> None:
        """Replay the lifecycle ledgers into every attached observer.

        Breaker/health transitions and audit verdicts accumulate in
        their own ledgers during the run; one post-run pass feeds the
        tracer, the metrics and the telemetry sink, so the serving hot
        path pays nothing per transition.  Each observer sees its
        events in ledger order with their original simulated
        timestamps, so windowed sink consumers see them in the right
        place on the timeline after the ``(ts_us, seq)`` sort.
        """
        tr = self._tr
        m = self._metrics
        emit = self._sink.emit if self._sink is not None else None
        open_state = BreakerState.OPEN
        for replica in self._replicas:
            rid = replica.replica_id
            for t in replica.breaker.transitions:
                if tr is not None:
                    tr.instant(
                        self._tk_replica[rid],
                        f"breaker-{t.to_state.value}",
                        t.time_us, ("from_state",), t.from_state.value,
                    )
                if m is not None:
                    m.counter("host.breaker.transitions").inc()
                    if t.to_state is open_state:
                        m.counter("host.breaker.opens").inc()
                if emit is not None:
                    emit(
                        t.time_us, "breaker",
                        ("replica", "from_state", "to_state"),
                        rid, t.from_state.value, t.to_state.value,
                    )
        for rid, health in enumerate(self._health):
            records = (
                health_transition_records(health, rid)
                if emit is not None else None
            )
            for i, t in enumerate(health.transitions):
                if tr is not None:
                    tr.instant(
                        self._tk_replica[rid],
                        f"health-{t.to_state.value}",
                        t.time_us, ("from_state", "phi", "reason"),
                        t.from_state.value, round(t.phi, 3), t.reason,
                    )
                if m is not None:
                    m.counter("host.health.transitions").inc()
                    if t.to_state is _QUARANTINED:
                        m.counter("host.health.quarantines").inc()
                    elif t.to_state is HealthState.ACTIVE:
                        m.counter("host.health.readmissions").inc()
                if emit is not None:
                    ts, fields = records[i]
                    emit(ts, "health", tuple(fields), *fields.values())
        if self._health and m is not None:
            probes = sum(h.probes for h in self._health)
            if probes:
                m.counter("host.health.probes").inc(probes)
        for when, qid, rid, ok in self._audit_log:
            if tr is not None and 0 <= rid < len(self._tk_replica):
                tr.instant(
                    self._tk_replica[rid],
                    "audit-ok" if ok else "audit-mismatch",
                    when, ("query",), qid,
                )
            if emit is not None:
                emit(when, "audit", ("query_id", "replica", "ok"),
                     qid, rid, ok)
        if self._audit_log and m is not None:
            m.counter("host.audit.checks").inc(self.audit_checks)
            if self.audit_mismatches:
                m.counter("host.audit.mismatches").inc(
                    self.audit_mismatches
                )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _pick_replica(self, state: _QueryState) -> Optional[Replica]:
        """The healthiest idle replica the breakers will admit.

        Preference order: replicas this query has not tried yet, then
        closed breakers before half-open probes, then lowest id (the
        deterministic tie-break).
        """
        now = self.sim.now
        tried = state.tried
        health = self._health
        best: Optional[Replica] = None
        best_key: Optional[tuple] = None
        # Single allocation-free pass: minimizing (already-tried,
        # breaker-rank, replica_id) over the admissible replicas picks
        # exactly what the old untried-pool-then-sort selection did.
        for r in self._replicas:
            if r.busy or not r.breaker.allow(now):
                continue
            if health and not health[r.replica_id].allow(now):
                continue
            rid = r.replica_id
            if rid not in tried and r.breaker.state is _CLOSED:
                # Replicas iterate in ascending id, so the first
                # untried replica with a closed breaker has the
                # minimal key (False, 0, id) — nothing later beats it.
                return r
            if rid in tried:
                key = (True, 0 if r.breaker.state is _CLOSED else 1, rid)
            else:
                key = (False, 1, rid)
            if best_key is None or key < best_key:
                best = r
                best_key = key
        return best

    def _dispatch_loop(self) -> None:
        """Drain the queue head-first onto free replicas."""
        buffer = self._buffer
        while buffer:
            state = buffer[0]
            if state.terminal:
                buffer.popleft()
                continue
            # Peek before popping: when no replica is free the head
            # keeps its FIFO slot without a pop/requeue round-trip.
            replica = self._pick_replica(state)
            if replica is None:
                return
            buffer.popleft()
            state.queued = False
            if self._observed:
                self._note_queue_depth()
            self._start_attempt(state, replica)

    def _start_attempt(
        self, state: _QueryState, replica: Replica, hedged: bool = False
    ) -> None:
        now = self.sim.now
        replica.breaker.acquire(now)
        if self._health:
            self._health[replica.replica_id].acquire(now)
        replica.busy = True
        replica.serving = state.query.query_id
        replica.attempts += 1
        state.tried.add(replica.replica_id)
        if hedged:
            state.hedges += 1
        else:
            state.primary_attempts += 1
        query = state.query
        if query.template is None:
            deadline = state.deadline_abs
            budget = None if deadline is None else deadline - now
        else:
            budget = None
        if self._observed:
            # Nested machine tracks land at the host dispatch time.
            result = self.array.execute(
                replica, query, budget_us=budget,
                tracer=self._tr, metrics=self._metrics,
                trace_offset_us=now, now=now,
            )
        else:
            result = self.array.execute(
                replica, query, budget_us=budget, now=now
            )
        attempt = _Attempt(state, replica, now, result, hedged)
        attempt.completion_event = self.sim.schedule(
            result.service_us, self._attempt_done_cb, attempt
        )
        state.in_flight.append(attempt)
        if self._observed:
            self._note_dispatch(attempt)
        hedge_after = self.config.hedge_after_us
        if (
            not hedged
            and hedge_after is not None
            and state.hedges < self.config.hedge_max
            and result.service_us > hedge_after
        ):
            attempt.hedge_event = self.sim.schedule(
                hedge_after, self._maybe_hedge_cb, attempt
            )

    def _maybe_hedge(self, attempt: _Attempt) -> None:
        """The straggler timer fired: re-issue onto a healthy replica."""
        attempt.hedge_event = None
        state = attempt.state
        if (
            state.terminal
            or not attempt.live
            or state.hedges >= self.config.hedge_max
        ):
            return
        replica = self._pick_replica(state)
        if replica is None:
            return  # no spare capacity; the primary keeps running
        self._start_attempt(state, replica, hedged=True)

    # ------------------------------------------------------------------
    # Completion, failure, cancellation
    # ------------------------------------------------------------------
    def _attempt_done(self, attempt: _Attempt) -> None:
        state, replica = attempt.state, attempt.replica
        sim = self.sim
        now = sim.now
        attempt.live = False
        attempt.completion_event = None
        if attempt.hedge_event is not None:
            sim.cancel(attempt.hedge_event)
            attempt.hedge_event = None
        try:
            state.in_flight.remove(attempt)
        except ValueError:
            pass
        replica.busy = False
        replica.serving = None
        replica.busy_us += now - attempt.start_us
        result = attempt.result
        if self._observed:
            self._note_attempt_end(attempt, cancelled=False)
        if result.ok:
            replica.successes += 1
            replica.breaker.record_success(now)
        else:
            replica.failures += 1
            replica.breaker.record_failure(now)
            if replica.breaker.state is _OPEN:
                # Wake the dispatcher when the cooldown expires so an
                # all-open array cannot strand the queue.
                sim.schedule(
                    max(0.0, replica.breaker.open_until_us - now),
                    self._dispatch_loop,
                )
        if self._health:
            self._health_record(replica, state, result, now)
        if not state.terminal:
            if result.ok:
                self._cancel_in_flight(state)
                self._finalize(
                    state,
                    _SERVED,
                    replica=replica,
                    service_us=result.service_us,
                    results=result.results,
                )
            else:
                self._after_failed_attempt(state, replica)
        if self._buffer:
            self._dispatch_loop()

    def _health_record(
        self,
        replica: Replica,
        state: _QueryState,
        result: AttemptResult,
        now: float,
    ) -> None:
        """Feed one completed attempt into the replica's health score."""
        health = self._health[replica.replica_id]
        was_quarantined = health.state is _QUARANTINED
        ratio = result.service_us / max(
            self.array.healthy_service_us(state.query), 1e-9
        )
        health.record_attempt(now, ratio, result.damage)
        if not was_quarantined and health.state is _QUARANTINED:
            # Wake the dispatcher when the hold-off expires so an
            # all-quarantined array cannot strand the queue.
            self.sim.schedule(health.probe_after_us, self._dispatch_loop)

    def _after_failed_attempt(
        self, state: _QueryState, replica: Replica
    ) -> None:
        now = self.sim.now
        if state.in_flight:
            return  # a hedge is still racing; let it decide
        deadline = state.deadline_abs
        out_of_time = deadline is not None and deadline - now <= 0
        if state.primary_attempts < self.config.max_attempts and not out_of_time:
            retry_replica = self._pick_replica(state)
            if retry_replica is not None:
                self._start_attempt(state, retry_replica)
            else:
                # Head-of-line requeue: the retry keeps its position.
                state.queued = True
                self.queue.requeue_front(state)
                if self._observed:
                    self._note_enqueued(state)
            return
        self._finalize(state, _FAILED, replica=replica)

    def _on_deadline(self, state: _QueryState) -> None:
        state.watchdog = None
        if state.terminal:
            return
        if state.queued:
            self.queue.remove(state)
            state.queued = False
            if self._observed:
                self._note_queue_depth()
        self._cancel_in_flight(state)
        self._finalize(state, _TIMED_OUT)
        self._dispatch_loop()

    def _cancel_in_flight(self, state: _QueryState) -> None:
        """Abort every running attempt, freeing its replica *now*."""
        now = self.sim.now
        for attempt in list(state.in_flight):
            attempt.live = False
            self.sim.cancel(attempt.completion_event)
            attempt.completion_event = None
            if attempt.hedge_event is not None:
                self.sim.cancel(attempt.hedge_event)
                attempt.hedge_event = None
            replica = attempt.replica
            replica.busy = False
            replica.serving = None
            replica.cancelled += 1
            replica.busy_us += now - attempt.start_us
            # A cancelled attempt renders no verdict for the breaker
            # (or the health lifecycle's probe slot).
            replica.breaker.release()
            if self._health:
                self._health[replica.replica_id].release()
            if self._observed:
                self._note_attempt_end(attempt, cancelled=True)
        state.in_flight.clear()

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def _finalize(
        self,
        state: _QueryState,
        status: QueryStatus,
        replica: Optional[Replica] = None,
        service_us: float = 0.0,
        results: Optional[List[Any]] = None,
        shed_reason: Optional[str] = None,
    ) -> None:
        state.terminal = True
        if status is _SERVED and self._audit_interval is not None:
            self._served_count += 1
            if self._served_count % self._audit_interval == 0:
                self._run_audit(state, replica, results)
        if self._observed:
            self._note_finalize(state, status, shed_reason)
        self._release_watchdog(state)
        now = self.sim.now
        query = state.query
        arrival = query.arrival_us
        if self._sink is not None:
            self._sink.emit(
                now, "query", _K_OUTCOME, query.query_id,
                _STATUS_TEXT[status], arrival, now - arrival, shed_reason,
            )
        primaries = state.primary_attempts
        hedges = state.hedges
        # Positional construction (field order matches QueryOutcome):
        # this runs once per query and dataclass keyword __init__ is
        # measurably slower on the overload benchmark.
        self.outcomes.append(
            QueryOutcome(
                query.query_id,
                status,
                arrival,
                now,
                now - arrival,
                service_us,
                primaries + hedges,
                hedges,
                primaries - 1 if primaries > 1 else 0,
                replica.replica_id if replica else None,
                replica.breaker.state.value if replica else None,
                shed_reason,
                results,
            )
        )

    def _run_audit(
        self,
        state: _QueryState,
        replica: Optional[Replica],
        results: Optional[List[Any]],
    ) -> None:
        """Shadow re-execute a served answer and compare results.

        The only detection path for gray marker drop: the serving
        attempt completed "successfully" (no query-visible damage),
        so neither the breaker nor the latency signal fires — but the
        answer is missing activation the reference run produces.
        """
        now = self.sim.now
        self.audit_checks += 1
        ok = results == self.array.reference_results(state.query)
        rid = replica.replica_id if replica is not None else -1
        self._audit_log.append((now, state.query.query_id, rid, ok))
        if ok:
            return
        self.audit_mismatches += 1
        if self._health and replica is not None:
            health = self._health[rid]
            was_quarantined = health.state is _QUARANTINED
            health.record_audit_failure(now)
            if not was_quarantined and health.state is _QUARANTINED:
                self.sim.schedule(
                    health.probe_after_us, self._dispatch_loop
                )

    def _build_report(self) -> ServingReport:
        health = self._health
        report = ServingReport(
            outcomes=list(self.outcomes),
            total_time_us=max(
                (o.finish_us for o in self.outcomes), default=self.sim.now
            ),
            replicas=[
                ReplicaSummary(
                    replica_id=r.replica_id,
                    faulty=r.faulty,
                    attempts=r.attempts,
                    successes=r.successes,
                    failures=r.failures,
                    cancelled=r.cancelled,
                    busy_us=r.busy_us,
                    breaker_state=r.breaker.state.value,
                    breaker_opens=r.breaker.times_opened,
                    health_state=(
                        health[r.replica_id].state.value if health else None
                    ),
                    health_quarantines=(
                        health[r.replica_id].quarantines if health else 0
                    ),
                    health_readmissions=(
                        health[r.replica_id].readmissions if health else 0
                    ),
                )
                for r in self.array.replicas
            ],
            queue_max_depth=self.queue.max_depth,
            queue_admitted=self.queue.admitted,
            audit_checks=self.audit_checks,
            audit_mismatches=self.audit_mismatches,
        )
        if not report.accounted():
            raise RuntimeError(
                "outcome accounting violated: "
                f"{report.submitted} submitted, buckets "
                f"{report.served}/{report.shed}/"
                f"{report.timed_out}/{report.failed}"
            )
        return report


def run_serial(
    network: SemanticNetwork,
    queries: Sequence[Query],
    config: Optional[HostConfig] = None,
    timing: Optional[Timing] = None,
) -> ServingReport:
    """Reference semantics: one healthy replica, one query at a time.

    The paper's original operating mode (a single Sun host issuing one
    query to the SCP at a time).  No admission control, deadlines,
    hedging, or breakers — every query is served in arrival order.
    ``ServingHost`` with an unbounded queue, no faults, and breakers
    disabled must produce identical per-query results and service
    times (the no-behaviour-change guarantee).
    """
    cfg = replace(
        config or HostConfig(),
        num_replicas=1,
        faulty_replica_fraction=0.0,
        breakers_enabled=False,
        queue_capacity=None,
        hedge_after_us=None,
    )
    array = ReplicaArray(network, cfg, timing)
    replica = array.replicas[0]
    outcomes: List[QueryOutcome] = []
    clock = 0.0
    for query in sorted(queries, key=lambda q: (q.arrival_us, q.query_id)):
        start = max(clock, query.arrival_us)
        result = array.execute(replica, query)
        finish = start + result.service_us
        clock = finish
        replica.attempts += 1
        replica.successes += 1
        replica.busy_us += result.service_us
        outcomes.append(
            QueryOutcome(
                query_id=query.query_id,
                status=QueryStatus.SERVED,
                arrival_us=query.arrival_us,
                finish_us=finish,
                latency_us=finish - query.arrival_us,
                service_us=result.service_us,
                attempts=1,
                replica=0,
                breaker_state=replica.breaker.state.value,
                results=result.results,
            )
        )
    return ServingReport(
        outcomes=outcomes,
        total_time_us=clock,
        replicas=[
            ReplicaSummary(
                replica_id=0,
                faulty=False,
                attempts=replica.attempts,
                successes=replica.successes,
                failures=0,
                cancelled=0,
                busy_us=replica.busy_us,
                breaker_state=replica.breaker.state.value,
                breaker_opens=0,
            )
        ],
    )
