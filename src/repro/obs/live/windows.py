"""Windowed aggregation over the telemetry stream.

Turns a run's :class:`~repro.obs.live.events.TelemetryEvent` stream
into a deterministic time series of :class:`WindowSnapshot` records —
the input signal for the SLO engine and the rows of the ops timeline
report.

Semantics, pinned by tests:

* Windows are **half-open** ``[start, end)``: an event whose
  timestamp lands exactly on a boundary belongs to the *next*
  window.
* The series is **gapless** from ``t_start`` through the horizon —
  windows with no events still appear (an empty window is a signal:
  zero traffic), with zeroed counts and 0.0 percentiles.
* Windows **tumble**: consecutive ``width_us`` windows partition
  time, so each event lands in exactly one window.
* Percentiles are exact over the window's retained samples (sorted,
  linear interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence

from .events import TelemetryEvent


class WindowError(ValueError):
    """Raised for invalid window configurations or event streams."""


@dataclass(frozen=True)
class WindowConfig:
    """Window geometry: the width of each tumbling window."""

    width_us: float

    def __post_init__(self) -> None:
        if self.width_us <= 0:
            raise WindowError(f"width_us must be > 0: {self.width_us}")


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Exact ``q``-th percentile (linear interpolation; 0.0 if empty)."""
    if not 0 <= q <= 100:
        raise WindowError(f"percentile must be in [0, 100]: {q}")
    n = len(sorted_samples)
    if n == 0:
        return 0.0
    if n == 1:
        return sorted_samples[0]
    rank = q / 100.0 * (n - 1)
    low = int(rank)
    high = min(low + 1, n - 1)
    frac = rank - low
    return sorted_samples[low] * (1.0 - frac) + sorted_samples[high] * frac


@dataclass
class WindowSnapshot:
    """Aggregates of one window of the telemetry stream."""

    index: int
    start_us: float
    end_us: float
    #: Queries that entered the system in the window.
    arrivals: int = 0
    #: Terminal outcomes by status value.
    outcomes: Dict[str, int] = field(default_factory=dict)
    #: Outcomes that answered successfully (host: served; fleet:
    #: complete/degraded with quorum).
    ok: int = 0
    #: Latencies of the ok outcomes, sorted ascending (µs).
    latencies: List[float] = field(default_factory=list)
    #: Fleet only — resolved legs by shard id.
    legs_fresh: Dict[int, int] = field(default_factory=dict)
    legs_stale: Dict[int, int] = field(default_factory=dict)
    legs_shed: Dict[int, int] = field(default_factory=dict)
    #: Fleet only — answered legs served by each region / stale share.
    region_served: Dict[int, int] = field(default_factory=dict)
    region_stale: Dict[int, int] = field(default_factory=dict)
    #: Lifecycle signals.
    health_transitions: int = 0
    quarantines: int = 0
    breaker_opens: int = 0
    audit_checks: int = 0
    audit_mismatches: int = 0
    #: Fault-layer annotations ("region-fail r0", ...), in stream order.
    faults: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def width_us(self) -> float:
        return self.end_us - self.start_us

    @property
    def finished(self) -> int:
        """Terminal outcomes in the window."""
        return sum(self.outcomes.values())

    @property
    def errors(self) -> int:
        """Terminal outcomes that did not answer ok."""
        return self.finished - self.ok

    def qps(self) -> float:
        """Arrival rate over the window, in queries per second."""
        return self.arrivals / self.width_us * 1e6 if self.width_us else 0.0

    def latency_pct(self, q: float) -> float:
        """Exact latency percentile of the window's ok outcomes."""
        return percentile(self.latencies, q)

    def stale_legs(self) -> int:
        return sum(self.legs_stale.values())

    def answered_legs(self) -> int:
        return sum(self.legs_fresh.values()) + self.stale_legs()

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (JSON-friendly, samples summarized)."""
        return {
            "index": self.index,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "arrivals": self.arrivals,
            "outcomes": dict(sorted(self.outcomes.items())),
            "ok": self.ok,
            "errors": self.errors,
            "qps": round(self.qps(), 3),
            "p50_us": round(self.latency_pct(50), 3),
            "p95_us": round(self.latency_pct(95), 3),
            "p99_us": round(self.latency_pct(99), 3),
            "stale_legs": self.stale_legs(),
            "shed_legs": sum(self.legs_shed.values()),
            "quarantines": self.quarantines,
            "breaker_opens": self.breaker_opens,
            "audit_mismatches": self.audit_mismatches,
            "faults": list(self.faults),
        }


# ----------------------------------------------------------------------
_SHED_STATUSES = frozenset({"shed"})


def _ingest(window: WindowSnapshot, event: TelemetryEvent) -> None:
    """Fold one event into one window's aggregates."""
    kind = event.kind
    get = event.get
    if kind == "arrival":
        window.arrivals += 1
    elif kind == "query":
        status = get("status", "unknown")
        window.outcomes[status] = window.outcomes.get(status, 0) + 1
        ok = get("ok")
        if ok is None:
            ok = status == "served"
        if ok:
            window.ok += 1
            latency = get("latency_us")
            if latency is not None:
                window.latencies.append(latency)
    elif kind == "leg":
        shard = get("shard", -1)
        status = get("status")
        if status == "fresh":
            window.legs_fresh[shard] = window.legs_fresh.get(shard, 0) + 1
        elif status == "stale":
            window.legs_stale[shard] = window.legs_stale.get(shard, 0) + 1
        else:
            window.legs_shed[shard] = window.legs_shed.get(shard, 0) + 1
        region = get("region")
        if region is not None and status in ("fresh", "stale"):
            window.region_served[region] = (
                window.region_served.get(region, 0) + 1
            )
            if status == "stale":
                window.region_stale[region] = (
                    window.region_stale.get(region, 0) + 1
                )
    elif kind == "health":
        window.health_transitions += 1
        if get("to_state") == "quarantined":
            window.quarantines += 1
    elif kind == "breaker":
        if get("to_state") == "open":
            window.breaker_opens += 1
    elif kind == "audit":
        window.audit_checks += 1
        if not get("ok", True):
            window.audit_mismatches += 1
    elif kind == "fault":
        label = get("event", "fault")
        region = get("region")
        if region is not None:
            label = f"{label} r{region}"
        value = get("value")
        if value is not None:
            label = f"{label} x{value:g}"
        window.faults.append(label)


#: Stream order: by timestamp, then emission sequence; events equal
#: in both keep their input order.
_TS_SEQ = itemgetter(0, 1)


def aggregate_windows(
    events: Iterable[TelemetryEvent],
    config: WindowConfig,
    horizon_us: Optional[float] = None,
    t_start: float = 0.0,
) -> List[WindowSnapshot]:
    """Aggregate a stream into its gapless window series.

    ``horizon_us`` extends (never truncates) the series: windows are
    produced through ``max(horizon_us, last event ts)``, so a quiet
    tail still renders as empty windows.  Events before ``t_start``
    are a caller error.
    """
    ordered = sorted(events, key=_TS_SEQ)
    if ordered and ordered[0].ts_us < t_start:
        raise WindowError(
            f"event at {ordered[0].ts_us} precedes t_start {t_start}"
        )
    last_ts = ordered[-1].ts_us if ordered else t_start
    end = max(horizon_us if horizon_us is not None else t_start, last_ts)
    width = config.width_us
    #: Windows whose *start* lies in [t_start, end] — an event exactly
    #: at the horizon still has a window to land in (half-open rule).
    count = int((end - t_start) // width) + 1
    windows = [
        WindowSnapshot(
            index=i,
            start_us=t_start + i * width,
            end_us=t_start + i * width + width,
        )
        for i in range(count)
    ]
    for event in ordered:
        #: The one window containing ts: start <= ts < start + width.
        _ingest(windows[int((event.ts_us - t_start) // width)], event)
    for window in windows:
        window.latencies.sort()
    return windows
