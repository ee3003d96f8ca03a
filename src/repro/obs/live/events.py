"""The telemetry stream: timestamped events from the serving layers.

A :class:`TelemetrySink` is the fourth observability hook next to
``tracer``/``metrics`` (and the cheapest): producers call
:meth:`TelemetrySink.emit` with a simulated timestamp, an event kind,
and flat fields; the sink appends.  Nothing is scheduled on
the DES, no state is read back, and the default (``sink=None``)
skips every call site behind one ``is not None`` check — attaching a
sink can never change a run's behaviour or report.

Event kinds emitted today (field names in parentheses):

``arrival``
    A query entered the system (``query_id``).
``query``
    A query reached a terminal state (``query_id``, ``status``,
    ``arrival_us``, ``latency_us``, and for shed queries ``reason``).
    Fleet outcomes also carry ``ok`` (answered-with-quorum) and
    ``stale`` (stale legs in the answer).
``leg``
    One shard's slice of a fleet scatter-gather resolved (``shard``,
    ``status`` fresh/stale/shed, ``region`` when dispatched,
    ``service_us``/``miss`` for answered legs).
``health``
    A replica health-lifecycle transition (``replica`` or
    ``shard``+``region``, ``from_state``, ``to_state``, ``reason``).
``breaker``
    A circuit-breaker transition (``replica``, ``from_state``,
    ``to_state``).
``audit``
    One answer-integrity audit (``query_id``, ``replica``, ``ok``).
``fault``
    A fault-layer timeline event reaching the serving layer (region
    events today: ``event`` kind, ``region``, optional ``value``).
    Ground truth for detection scoring does *not* come from these —
    it is exported straight from the schedules
    (:meth:`repro.machine.faults.RegionSchedule.fault_windows`) — but
    they annotate the ops timeline report.

Producers pass field names once per call site, as a constant tuple of
strings, followed by the values (``sink.emit(now, "arrival", _QID,
query_id)``), so an emission builds no dict.

The stream is not guaranteed time-ordered at the sink (lifecycle
trails are replayed post-run); consumers sort by ``(ts_us, seq)``,
which is deterministic because emission order is.  An event is a
tuple that starts with exactly those two values.  The sink numbers
its events itself, so no two share a ``seq`` and their natural tuple
order is that sort; events built elsewhere may repeat a ``seq``, so
consumers of arbitrary streams sort with the ``(ts_us, seq)`` key.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple


class TelemetryEvent(tuple):
    """One timestamped telemetry record.

    The tuple ``(ts_us, seq, kind, names, *values)``: ``seq`` is the
    emission sequence number (the deterministic tie-break) and the
    fields are ``names`` paired with the values that follow.
    """

    __slots__ = ()

    def __new__(cls, ts_us: float, kind: str, seq: int,
                fields: Optional[Dict[str, Any]] = None) -> "TelemetryEvent":
        fields = fields or {}
        return tuple.__new__(
            cls, (ts_us, seq, kind, tuple(fields), *fields.values())
        )

    ts_us = property(itemgetter(0), doc="Simulated timestamp (µs).")
    seq = property(itemgetter(1), doc="Emission sequence number.")
    kind = property(itemgetter(2), doc="Event kind.")

    @property
    def fields(self) -> Dict[str, Any]:
        """The fields as a fresh dict."""
        return dict(zip(self[3], self[4:]))

    def get(self, name: str, default: Any = None) -> Any:
        """Field accessor (missing fields return ``default``)."""
        names = self[3]
        if name in names:
            return self[4 + names.index(name)]
        return default


_new_event = tuple.__new__


class TelemetrySink:
    """An append-only collector of :class:`TelemetryEvent` records."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[TelemetryEvent] = []

    def emit(self, ts_us: float, kind: str,
             names: Tuple[str, ...] = (), *values: Any) -> None:
        """Record one event at simulated time ``ts_us``; its fields are
        ``names`` paired with ``values``."""
        events = self.events
        events.append(_new_event(
            TelemetryEvent, (ts_us, len(events), kind, names) + values
        ))

    def __len__(self) -> int:
        return len(self.events)

    def ordered(self) -> List[TelemetryEvent]:
        """Events sorted by ``(ts_us, seq)`` (emission-stable)."""
        # Each seq is unique here, so tuple order never looks past it.
        return sorted(self.events)
