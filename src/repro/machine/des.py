"""A small discrete-event simulation kernel.

Time is a float in **microseconds** of simulated machine time.  The
kernel provides an event heap, deterministic FIFO tie-breaking, and two
building blocks used by the SNAP-1 component models: a multi-server
resource (the MU pool of a cluster) and a single server (PU, CU,
global bus, SCP).

Determinism: events scheduled for the same timestamp fire in schedule
order (a monotone sequence number breaks ties), so simulations are
bit-reproducible.

Hot-path design (see ``docs/PERF.md``): heap entries are plain lists
``[time, seq, fn, args]`` so ``heapq`` compares them with C-level
tuple ordering (the unique ``seq`` guarantees the comparison never
reaches ``fn``); ``schedule`` accepts positional callback arguments so
callers can pass one reusable bound method instead of allocating a
closure per event; cancellation is O(1) lazy removal with a live-event
counter, and the heap is compacted in bulk once cancelled entries
outnumber live ones — so cancellation-heavy serving runs (hedges,
deadline watchdogs) neither leak memory nor pay per-entry pop costs.

Server jobs are plain tuples ``(service_time, on_start, on_done,
args)``.  A job entering service pushes its completion event onto the
heap itself, and an idle server starts a submitted job without
queueing it, so one job costs one tuple and one heap entry.
Observation is a single hook on :meth:`Simulator.run` (``sample``), so
there is one dispatch loop whether a tracer is attached or not.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised on kernel misuse (e.g. scheduling in the past)."""


#: Heap entry layout: ``[time, seq, fn, args]``.  A cancelled (or
#: already-fired) entry has ``fn`` set to ``None``; it stays in the
#: heap until popped or compacted away.
_Event = list

#: Compaction trigger: cancelled entries must exceed this count *and*
#: outnumber live entries before the heap is rebuilt.  Keeps the
#: amortized cost O(1) per cancellation while bounding heap growth to
#: ~2x the live-event count for cancellation-heavy workloads.
COMPACT_THRESHOLD = 512

#: Events between two samples of :meth:`Simulator.run`'s ``sample``
#: hook.
SAMPLE_EVERY = 256


class Simulator:
    """Event heap + clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[_Event] = []
        self._seq = 0
        self.events_processed = 0
        #: Timestamp of the last event actually processed (unlike
        #: ``now``, never advanced by an empty ``run(until=...)``).
        self.last_event_us = 0.0
        #: Scheduled events that are neither fired nor cancelled.
        self._live = 0
        #: Cancelled entries still occupying heap slots.
        self._dead = 0

    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> _Event:
        """Run ``fn(*args)`` after ``delay`` microseconds of simulated
        time.  Returns a handle accepted by :meth:`cancel`."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        event = [self.now + delay, self._seq, fn, args]
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, event)
        return event

    def reserve(
        self, time: float, fn: Callable[..., None], *args: Any
    ) -> _Event:
        """Create an event for a known future instant *without* putting
        it in the heap yet.

        The sequence number is assigned immediately, so a caller that
        knows its whole schedule up front (the serving host's arrival
        stream) can fix the FIFO tie-break order of all its events
        first and still keep the heap as shallow as the live horizon:
        heap-operation cost scales with events actually in flight, not
        with the total stream length.  The caller owns delivery — each
        reserved event must be handed to :meth:`commit` before the
        clock reaches its time, and must not be cancelled while
        uncommitted.  Reserved events count as pending.
        """
        if time < self.now:
            raise SimulationError(f"reserve in the past: {time} < {self.now}")
        event = [time, self._seq, fn, args]
        self._seq += 1
        self._live += 1
        return event

    def commit(self, event: _Event) -> None:
        """Enter a :meth:`reserve`-d event into the heap."""
        heapq.heappush(self._heap, event)

    def cancel(self, event: _Event) -> None:
        """Cancel a scheduled event (lazy O(1) removal).

        Cancelling an event that already fired (or was already
        cancelled) is a no-op.  Dead entries are purged in bulk by
        :meth:`_compact` once they outnumber live ones.
        """
        if event[2] is None:
            return
        event[2] = None
        event[3] = ()
        self._live -= 1
        self._dead += 1
        if self._dead > COMPACT_THRESHOLD and self._dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Rebuilding cannot change the firing order: pop order is a
        function of the total ``(time, seq)`` order alone, not of the
        heap's internal layout.  The list is rebuilt in place, so the
        run loop and the servers may hold on to it.
        """
        heap = self._heap
        heap[:] = [e for e in heap if e[2] is not None]
        heapq.heapify(heap)
        self._dead = 0

    def run(
        self,
        until: Optional[float] = None,
        sample: Optional[Callable[[int, int], None]] = None,
    ) -> float:
        """Process events until the heap empties (or ``until`` passes).

        Boundary semantics (inclusive): events scheduled *exactly* at
        ``until`` fire — including events an earlier handler schedules
        with ``schedule(0, fn)`` while the clock sits at ``until``.
        Only events strictly later than ``until`` stay queued.  The
        clock always lands on exactly ``until`` when one is given,
        even if the heap empties earlier, so back-to-back
        ``run(until=...)`` calls advance time deterministically.

        ``schedule(0, fn)`` during event processing is deterministic:
        the new event carries the current time and the next sequence
        number, so it fires after every already-queued event of the
        same timestamp, in submission order (FIFO tie-breaking).

        ``sample`` is the kernel's observability hook: when given, it
        is called as ``sample(heap_size, pending)`` after every
        :data:`SAMPLE_EVERY`-th event of this call (heap slots and
        live pending events at that instant).  Detached, the loop pays
        one integer comparison per event for it.

        ``events_processed``, ``pending``, and ``last_event_us`` are
        flushed once per :meth:`run` call, not per event — callbacks
        must not read them mid-run (none do; they are post-run report
        inputs).

        Returns the final simulated time.
        """
        heap = self._heap
        heappop = heapq.heappop
        limit = math.inf if until is None else until
        mark = SAMPLE_EVERY if sample is not None else -1
        fired = 0
        last = self.last_event_us
        try:
            while heap:
                event = heappop(heap)
                fn = event[2]
                if fn is None:
                    self._dead -= 1
                    continue
                event_time = event[0]
                if event_time > limit:
                    # Past the horizon: put it back (pop order depends
                    # on (time, seq) alone, so this changes nothing).
                    heapq.heappush(heap, event)
                    break
                args = event[3]
                # Mark consumed: a late cancel() of this handle is a
                # no-op, and callback/argument refs are released.
                event[2] = None
                event[3] = ()
                last = event_time
                self.now = event_time
                fired += 1
                fn(*args)
                if fired == mark:
                    sample(len(heap), self._live - fired)
                    mark += SAMPLE_EVERY
        finally:
            self._live -= fired
            self.events_processed += fired
            self.last_event_us = last
        if until is not None and until > self.now:
            self.now = until
        return self.now

    @property
    def pending(self) -> int:
        """Events still scheduled (uncancelled).  O(1)."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Heap slots in use, including not-yet-purged cancelled
        entries (bounded to ~2x ``pending`` by compaction)."""
        return len(self._heap)


class Timeout:
    """A cancellable watchdog over a guarded operation.

    Schedules ``on_timeout(*args)`` after ``delay`` microseconds; if
    the guarded operation completes first, :meth:`cancel` disarms the
    watchdog.  Used by the fault layer to enforce per-transfer
    recovery budgets (a transfer that cannot be repaired within its
    budget of simulated time is declared failed) and by the serving
    host's per-query deadline watchdogs.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        on_timeout: Callable[..., None],
        *args: Any,
    ) -> None:
        self._sim = sim
        self._on_timeout = on_timeout
        self._args = args
        self._cancelled = False
        self.expired = False
        self._event = sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.expired = True
        self._on_timeout(*self._args)

    def cancel(self) -> None:
        """Disarm the watchdog (the guarded operation completed)."""
        self._cancelled = True
        self._sim.cancel(self._event)

    @property
    def armed(self) -> bool:
        """Whether the watchdog can still fire."""
        return not self._cancelled and not self.expired


#: A unit of work submitted to a server: the tuple
#: ``(service_time, on_start, on_done, args)``.  ``on_start(*args)``
#: (or ``None``) runs as service begins; ``on_done(*args)`` (or
#: ``None``) runs when it completes, so hot paths pass reusable bound
#: methods plus their arguments instead of building a closure per job.
Job = Tuple[float, Optional[Callable[..., None]],
            Optional[Callable[..., None]], Tuple[Any, ...]]


class Server:
    """A single FIFO server (models PU decode, CU DMA, bus, SCP).

    Tracks busy time and queue-length statistics so component
    utilization can be reported.  ``busy_time`` accrues a job's full
    service when the job *starts* (which keeps accrual order — and
    float summation order — independent of completion interleaving);
    :meth:`busy_time_until` pro-rates the in-service job so a run cut
    off mid-service (a ``budget_us`` abort) never reports more busy
    time than actually elapsed.

    ``penalty_hook`` is the fault-injection hook: when set, it is
    called as ``penalty_hook(service_time)`` as each job enters service
    and may return extra service microseconds (e.g. a transient
    SCP/bus timeout penalty).  Left at ``None`` — the default — the
    server's behavior is bit-identical to a hook-free build.

    A job entering service pushes its completion event straight onto
    the simulator's heap (same sequence-number assignment as
    :meth:`Simulator.schedule`), and a job submitted to an idle server
    starts without passing through the queue.
    """

    def __init__(self, sim: Simulator, name: str = "server") -> None:
        self.sim = sim
        self.name = name
        self._queue: Deque[Job] = deque()
        self._busy = False
        self.busy_time = 0.0
        self.jobs_done = 0
        #: Most jobs ever waiting at once (excluding the one in service).
        self.max_queue = 0
        self.penalty_hook: Optional[Callable[[float], float]] = None
        #: Completion timestamp of the job in service (valid when busy).
        self._service_end = 0.0
        #: Reusable completion callback (no per-job closure).
        self._finish_cb = self._finish
        #: The simulator's event heap (a list that is never replaced).
        self._heap = sim._heap

    @property
    def busy(self) -> bool:
        """Whether the server is currently serving a job."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Jobs waiting (excluding in service)."""
        return len(self._queue)

    @property
    def idle(self) -> bool:
        """Whether no work is queued or in service."""
        return not self._busy and not self._queue

    def submit(self, job: Job) -> None:
        """Enqueue a job; service starts when capacity frees."""
        if self._busy:
            queue = self._queue
            queue.append(job)
            if len(queue) > self.max_queue:
                self.max_queue = len(queue)
        else:
            self._start(job)

    def _start(self, job: Job) -> None:
        service, on_start, on_done, args = job
        self._busy = True
        if on_start is not None:
            on_start(*args)
        if self.penalty_hook is not None:
            service += self.penalty_hook(service)
        if service < 0.0:
            raise SimulationError(f"negative service time: {service}")
        self.busy_time += service
        sim = self.sim
        end = sim.now + service
        self._service_end = end
        seq = sim._seq
        sim._seq = seq + 1
        sim._live += 1
        heappush(self._heap, [end, seq, self._finish_cb, job])

    def _finish(self, _service: float, _on_start: Any,
                on_done: Optional[Callable[..., None]],
                args: Tuple[Any, ...]) -> None:
        self.jobs_done += 1
        if on_done is not None:
            on_done(*args)
        if self._queue:
            self._start(self._queue.popleft())
        else:
            self._busy = False

    def busy_time_until(self, now: float) -> float:
        """Busy time actually *elapsed* by ``now``.

        Equals ``busy_time`` once every started job has completed; a
        job still in service contributes only its elapsed portion, so
        aborted runs cannot report utilization above capacity.
        """
        if self._busy and self._service_end > now:
            return self.busy_time - (self._service_end - now)
        return self.busy_time


class ServerPool:
    """``k`` identical FIFO servers sharing one queue (the MU pool).

    Jobs start and complete as in :class:`Server`.  A job submitted
    while a server is free *and* nobody waits starts at once; while a
    completion callback runs, the finishing server is already free but
    the queue may still hold older jobs, which keep their turn.
    """

    def __init__(self, sim: Simulator, servers: int, name: str = "pool") -> None:
        if servers < 1:
            raise SimulationError("pool needs at least one server")
        self.sim = sim
        self.name = name
        self.num_servers = servers
        #: Largest capacity the pool ever had (resize() can grow it).
        self.peak_servers = servers
        self._queue: Deque[Job] = deque()
        self._busy = 0
        self.busy_time = 0.0
        self.jobs_done = 0
        #: Most jobs ever waiting at once (excluding those in service).
        self.max_queue = 0
        #: Fault-injection hook; see :class:`Server`.
        self.penalty_hook: Optional[Callable[[float], float]] = None
        #: Completion timestamps of the jobs in service.
        self._service_ends: List[float] = []
        self._finish_cb = self._finish
        self._heap = sim._heap

    @property
    def busy_servers(self) -> int:
        """Servers currently serving jobs."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Jobs waiting (excluding in service)."""
        return len(self._queue)

    @property
    def idle(self) -> bool:
        """Whether no work is queued or in service."""
        return self._busy == 0 and not self._queue

    def submit(self, job: Job) -> None:
        """Enqueue a job; service starts when capacity frees."""
        queue = self._queue
        if not queue and self._busy < self.num_servers:
            self._start(job)
            return
        queue.append(job)
        if len(queue) > self.max_queue:
            self.max_queue = len(queue)
        if self._busy < self.num_servers:
            self._start(queue.popleft())

    def submit_batch(self, jobs: List[Job]) -> None:
        """Enqueue a fan-out of jobs in one call.

        Exactly equivalent to submitting each job in order — the queue
        contents, start order, and event sequence numbers are
        bit-identical — but the per-job call overhead is paid once per
        batch, which is how the simulator delivers a PROPAGATE fan-out
        to a destination cluster as one aggregated submission.
        """
        queue = self._queue
        num_servers = self.num_servers
        start = self._start
        for job in jobs:
            if not queue and self._busy < num_servers:
                start(job)
                continue
            queue.append(job)
            if len(queue) > self.max_queue:
                self.max_queue = len(queue)
            if self._busy < num_servers:
                start(queue.popleft())

    def resize(self, servers: int) -> None:
        """Change pool capacity mid-run (fault-timeline MU loss/restore).

        Shrinking never preempts jobs already in service — the pool
        just stops starting new work until occupancy falls below the
        new capacity.  Growing immediately starts queued jobs in FIFO
        order, exactly as if the extra servers had been idle.
        ``peak_servers`` tracks the largest capacity the pool ever
        had, so utilization accounting stays bounded by real capacity.
        """
        if servers < 1:
            raise SimulationError("pool needs at least one server")
        self.num_servers = servers
        if servers > self.peak_servers:
            self.peak_servers = servers
        while self._queue and self._busy < self.num_servers:
            self._start(self._queue.popleft())

    def _start(self, job: Job) -> None:
        service, on_start, on_done, args = job
        self._busy += 1
        if on_start is not None:
            on_start(*args)
        if self.penalty_hook is not None:
            service += self.penalty_hook(service)
        if service < 0.0:
            raise SimulationError(f"negative service time: {service}")
        self.busy_time += service
        sim = self.sim
        end = sim.now + service
        self._service_ends.append(end)
        seq = sim._seq
        sim._seq = seq + 1
        sim._live += 1
        heappush(self._heap, [end, seq, self._finish_cb, job])

    def _finish(self, _service: float, _on_start: Any,
                on_done: Optional[Callable[..., None]],
                args: Tuple[Any, ...]) -> None:
        self._busy -= 1
        self._service_ends.remove(self.sim.now)
        self.jobs_done += 1
        if on_done is not None:
            on_done(*args)
        if self._queue and self._busy < self.num_servers:
            self._start(self._queue.popleft())

    def busy_time_until(self, now: float) -> float:
        """Busy time actually *elapsed* by ``now`` (see
        :meth:`Server.busy_time_until`)."""
        total = self.busy_time
        for end in self._service_ends:
            if end > now:
                total -= end - now
        return total


def utilization(busy_time: float, servers: int, elapsed: float) -> float:
    """Fraction of capacity used over an interval."""
    if elapsed <= 0:
        return 0.0
    return busy_time / (servers * elapsed)
