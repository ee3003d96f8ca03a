"""Simulated-time-native tracing: spans, instants, and counters.

The tracer is the event-capture half of the observability layer
(:mod:`repro.obs`).  Every timestamp is **simulated microseconds**
supplied by the caller — the tracer never reads a wall clock — so a
trace is as deterministic as the run that produced it and two traces
of the same seed are byte-identical.

Event model (mirrors the Chrome trace-event format the exporter
targets; see :mod:`repro.obs.chrome`):

*spans*
    A named interval on a track.  Either emitted complete
    (:meth:`Tracer.span`, when begin time and duration are both known)
    or opened with :meth:`Tracer.begin` and closed later with
    :meth:`Tracer.end` — the handle is the span's index in
    :attr:`Tracer.spans`, and closing replaces that record.
*instants*
    A point event on a track (:meth:`Tracer.instant`) — fault
    injections, breaker trips, sheds.
*counters*
    A sampled numeric series on a track (:meth:`Tracer.counter`) —
    queue depth, MU-pool occupancy; or several named series sharing
    one timestamp (:meth:`Tracer.series`) — the DES heap size and
    pending events.

Event arguments are positional: a call site states its argument
names once, as a constant tuple of strings, and passes the values
after it::

    _DONE = ("ok", "damage")
    tracer.instant(track, "attempt-done", now, _DONE, result.ok, damage)

A span or instant is stored as one flat tuple of atoms (ints, floats,
strings, ``None``, and the shared key tuples), which the cycle
collector untracks the first time it sees it.  Counter samples, the
most numerous events and all one shape, are stored column-wise, so
they cost no container at all.  No dict is built until
:meth:`Tracer.to_chrome_json` runs.

A *track* is a ``(process, thread)`` pair interned to a small integer
by :meth:`Tracer.track`; the exporter maps processes and threads to
Perfetto track groups.  Tracks are cheap — the serving host gives
every query its own thread so a query's admission → attempts → hedges
→ outcome renders as one self-contained span tree.

The default tracer everywhere is :data:`NULL_TRACER`, whose
``enabled`` flag is ``False``: instrumented hot paths guard on that
flag (one attribute read) and skip all event construction, which is
how the detached-cost contract (perfbench bounds with tracing
disabled, see ``docs/OBSERVABILITY.md``) is met.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

#: Argument names of one call site, in the order its values follow.
Keys = Tuple[str, ...]


class NullTracer:
    """The zero-overhead default: every method is a no-op.

    ``enabled`` is ``False`` so instrumented code can skip event
    construction entirely instead of calling into the no-ops.
    """

    __slots__ = ()
    enabled = False

    def track(self, process: str, thread: str) -> int:
        """Accept and ignore a track registration."""
        return 0

    def span(self, track: int, name: str, ts: float, dur: float,
             keys: Keys = (), *values: Any) -> None:
        """Ignore a complete span."""

    def begin(self, track: int, name: str, ts: float,
              keys: Keys = (), *values: Any) -> None:
        """Ignore a span open; the returned handle is ``None``."""
        return None

    def end(self, handle: Optional[int], ts: float,
            keys: Keys = (), *values: Any) -> None:
        """Ignore a span close."""

    def instant(self, track: int, name: str, ts: float,
                keys: Keys = (), *values: Any) -> None:
        """Ignore an instant event."""

    def counter(self, track: int, name: str, ts: float,
                value: float) -> None:
        """Ignore a counter sample."""

    def series(self, track: int, name: str, ts: float, keys: Keys,
               *values: Any) -> None:
        """Ignore a sample of named counter series."""

    def to_chrome_json(self, metrics: Any = None) -> Dict[str, Any]:
        """An empty but valid Chrome trace-event document."""
        return {"traceEvents": []}


#: The process-wide disabled tracer (shared; it holds no state).
NULL_TRACER = NullTracer()

#: Argument names a span closed by the end-of-capture sweep gains.
_OPEN_AT_EOF: Keys = ("open_at_eof",)


class Tracer:
    """Collects simulated-time events for one run (or one CLI capture).

    Not thread-safe — the simulator is single-threaded.  Nothing is
    formatted until :meth:`to_chrome_json` runs.  Spans and instants
    are held as one flat atom tuple per event.  Counter samples, the
    most frequent and all one shape, are held column-wise (track,
    name, timestamp and value lists), and so are track names, so
    capturing them creates no container at all.  Readers, the exporter
    included, see the capture through :attr:`spans`, :attr:`instants`,
    :attr:`tracks` and :attr:`counters` only.
    """

    enabled = True

    def __init__(self) -> None:
        #: process -> thread -> track id.
        self._track_ids: Dict[str, Dict[str, int]] = {}
        #: Process and thread name per track id, in registration order.
        self._processes: List[str] = []
        self._threads: List[str] = []
        #: ``(track, name, begin_ts, end_ts, begin_keys, end_keys,
        #: *begin_values, *end_values)``; ``end_ts`` is ``None`` and
        #: ``end_keys`` empty while the span is open.
        self.spans: List[tuple] = []
        #: ``(track, name, ts, keys, *values)``
        self.instants: List[tuple] = []
        #: Counter columns: one entry per sample.  A value is a number,
        #: or ``(series_names, *series_values)`` for :meth:`series`.
        self._counter_tracks: List[int] = []
        self._counter_names: List[str] = []
        self._counter_ts: List[float] = []
        self._counter_values: list = []

    # ------------------------------------------------------------------
    def track(self, process: str, thread: str) -> int:
        """Intern a ``(process, thread)`` pair; returns its track id."""
        threads = self._track_ids.get(process)
        if threads is None:
            threads = self._track_ids[process] = {}
        track_id = threads.get(thread)
        if track_id is None:
            track_id = threads[thread] = len(self._threads)
            self._processes.append(process)
            self._threads.append(thread)
        return track_id

    def span(self, track: int, name: str, ts: float, dur: float,
             keys: Keys = (), *values: Any) -> None:
        """Record a complete span (begin time + duration known)."""
        self.spans.append((track, name, ts, ts + dur, keys, ()) + values)

    def begin(self, track: int, name: str, ts: float,
              keys: Keys = (), *values: Any) -> int:
        """Open a span; close it by passing the handle to :meth:`end`."""
        spans = self.spans
        spans.append((track, name, ts, None, keys, ()) + values)
        return len(spans) - 1

    def end(self, handle: Optional[int], ts: float,
            keys: Keys = (), *values: Any) -> None:
        """Close a span opened by :meth:`begin`.

        ``keys``/``values`` are appended to the span's arguments (shown
        on the slice in Perfetto; a repeated name keeps its first
        position and takes the later value).  Closing ``None`` or an
        already-closed handle is a no-op, so callers need no liveness
        bookkeeping.
        """
        if handle is None:
            return
        spans = self.spans
        rec = spans[handle]
        if rec[3] is None:
            spans[handle] = (rec[0], rec[1], rec[2], ts, rec[4], keys,
                             *rec[6:], *values)

    def instant(self, track: int, name: str, ts: float,
                keys: Keys = (), *values: Any) -> None:
        """Record a point event."""
        self.instants.append((track, name, ts, keys) + values)

    def counter(self, track: int, name: str, ts: float,
                value: float) -> None:
        """Record one counter sample."""
        self._counter_tracks.append(track)
        self._counter_names.append(name)
        self._counter_ts.append(ts)
        self._counter_values.append(value)

    def series(self, track: int, name: str, ts: float, keys: Keys,
               *values: Any) -> None:
        """Record one sample of the counter series named ``keys``."""
        self.counter(track, name, ts, (keys,) + values)

    @property
    def tracks(self) -> Iterator[Tuple[str, str]]:
        """``(process, thread)`` per track id, in registration order.
        A fresh iterator on each read."""
        return zip(self._processes, self._threads)

    @property
    def counters(self) -> Iterator[tuple]:
        """One ``(track, name, ts, value)`` per sample, in capture
        order; ``value`` is a number, or ``(series_names,
        *series_values)`` for :meth:`series`.  A fresh iterator on each
        read."""
        return zip(self._counter_tracks, self._counter_names,
                   self._counter_ts, self._counter_values)

    # ------------------------------------------------------------------
    def close_open_spans(self, ts: float) -> int:
        """Close every still-open span at ``ts`` (end-of-run sweep).

        Returns the number of spans closed.  Aborted runs (budget
        cut-offs, cancelled attempts) can leave spans open; the
        exporter requires every span to have an end.  Force-closed
        spans are marked with an ``open_at_eof`` arg so a trace
        consumer (:mod:`repro.obs.analyze`) can still tell a clean
        close from an end-of-capture sweep.
        """
        spans = self.spans
        closed = 0
        for index, rec in enumerate(spans):
            if rec[3] is None:
                self.close_at_eof(index, ts)
                closed += 1
        return closed

    def close_at_eof(self, handle: int, ts: float) -> tuple:
        """Sweep-close one open span at ``max(ts, begin)``; returns
        its closed record."""
        rec = self.spans[handle]
        closed = (rec[0], rec[1], rec[2], max(ts, rec[2]), rec[4],
                  _OPEN_AT_EOF, *rec[6:], True)
        self.spans[handle] = closed
        return closed

    @property
    def num_events(self) -> int:
        """Total captured events across all kinds."""
        return (len(self.spans) + len(self.instants)
                + len(self._counter_ts))

    def to_chrome_json(self, metrics: Any = None) -> Dict[str, Any]:
        """Export as a Chrome trace-event / Perfetto JSON document.

        Open spans are closed at the latest captured timestamp first.
        ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) is
        embedded under the top-level ``"metrics"`` key when given.
        """
        from .chrome import export_chrome_json

        return export_chrome_json(self, metrics=metrics)


# ----------------------------------------------------------------------
# Process-global tracer (the `--trace` plumbing).
#
# Components default their `tracer=None` constructor argument to the
# global tracer, so `python -m repro experiments --trace out.json` can
# capture a whole experiment sweep without threading a tracer through
# every call site.  The default global tracer is NULL_TRACER.
# ----------------------------------------------------------------------

_GLOBAL_TRACER: Union[Tracer, NullTracer] = NULL_TRACER


def get_tracer() -> Union[Tracer, NullTracer]:
    """The process-global tracer (:data:`NULL_TRACER` unless set)."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Optional[Union[Tracer, NullTracer]]) -> None:
    """Install (or with ``None``, clear) the process-global tracer."""
    global _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer if tracer is not None else NULL_TRACER
