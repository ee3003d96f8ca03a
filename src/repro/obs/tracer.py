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
    :meth:`Tracer.end` — the handle is a plain list, so closing costs
    one item assignment.
*instants*
    A point event on a track (:meth:`Tracer.instant`) — fault
    injections, breaker trips, sheds.
*counters*
    A sampled numeric series on a track (:meth:`Tracer.counter`) —
    queue depth, MU-pool occupancy, heap size.  The value may be a
    number or a dict of named series sharing one timestamp.

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

from typing import Any, Dict, List, Optional, Tuple, Union

#: Counter values: one number, or named series sharing a timestamp.
CounterValue = Union[int, float, Dict[str, float]]


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
             **args: Any) -> None:
        """Ignore a complete span."""

    def begin(self, track: int, name: str, ts: float,
              **args: Any) -> Optional[list]:
        """Ignore a span open; the returned handle is ``None``."""
        return None

    def end(self, handle: Optional[list], ts: float, **args: Any) -> None:
        """Ignore a span close."""

    def instant(self, track: int, name: str, ts: float,
                **args: Any) -> None:
        """Ignore an instant event."""

    def counter(self, track: int, name: str, ts: float,
                value: CounterValue) -> None:
        """Ignore a counter sample."""

    def to_chrome_json(self, metrics: Any = None) -> Dict[str, Any]:
        """An empty but valid Chrome trace-event document."""
        return {"traceEvents": []}


#: The process-wide disabled tracer (shared; it holds no state).
NULL_TRACER = NullTracer()


class Tracer:
    """Collects simulated-time events for one run (or one CLI capture).

    Not thread-safe — the simulator is single-threaded.  Events are
    held in flat lists of tuples; nothing is formatted until
    :meth:`to_chrome_json` runs, so capture cost per event is one
    append.
    """

    enabled = True

    def __init__(self) -> None:
        self._track_ids: Dict[Tuple[str, str], int] = {}
        #: ``(process, thread)`` per track id, in registration order.
        self.tracks: List[Tuple[str, str]] = []
        #: Open/closed spans: ``[track, name, begin_ts, end_ts, args]``
        #: (``end_ts`` is ``None`` while the span is open).
        self.spans: List[list] = []
        #: ``(track, name, ts, args)``
        self.instants: List[tuple] = []
        #: ``(track, name, ts, value)``
        self.counters: List[tuple] = []

    # ------------------------------------------------------------------
    def track(self, process: str, thread: str) -> int:
        """Intern a ``(process, thread)`` pair; returns its track id."""
        key = (process, thread)
        track_id = self._track_ids.get(key)
        if track_id is None:
            track_id = len(self.tracks)
            self._track_ids[key] = track_id
            self.tracks.append(key)
        return track_id

    def span(self, track: int, name: str, ts: float, dur: float,
             **args: Any) -> None:
        """Record a complete span (begin time + duration known)."""
        self.spans.append([track, name, ts, ts + dur, args or None])

    def begin(self, track: int, name: str, ts: float, **args: Any) -> list:
        """Open a span; close it by passing the handle to :meth:`end`."""
        handle = [track, name, ts, None, args or None]
        self.spans.append(handle)
        return handle

    def end(self, handle: Optional[list], ts: float, **args: Any) -> None:
        """Close a span opened by :meth:`begin`.

        Extra ``args`` are merged into the span's (shown on the slice
        in Perfetto).  Closing ``None`` or an already-closed handle is
        a no-op, so callers need no liveness bookkeeping.
        """
        if handle is None or handle[3] is not None:
            return
        handle[3] = ts
        if args:
            merged = handle[4] or {}
            merged.update(args)
            handle[4] = merged

    def instant(self, track: int, name: str, ts: float,
                **args: Any) -> None:
        """Record a point event."""
        self.instants.append((track, name, ts, args or None))

    def counter(self, track: int, name: str, ts: float,
                value: CounterValue) -> None:
        """Record one counter sample (number, or dict of series)."""
        self.counters.append((track, name, ts, value))

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
        closed = 0
        for handle in self.spans:
            if handle[3] is None:
                handle[3] = max(ts, handle[2])
                merged = handle[4] or {}
                merged["open_at_eof"] = True
                handle[4] = merged
                closed += 1
        return closed

    @property
    def num_events(self) -> int:
        """Total captured events across all kinds."""
        return len(self.spans) + len(self.instants) + len(self.counters)

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
