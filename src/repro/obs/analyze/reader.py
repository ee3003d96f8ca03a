"""Trace ingestion: Chrome-trace JSON back into span trees and series.

The exporter (:mod:`repro.obs.chrome`) flattens a capture into the
Chrome trace-event format; this module is its inverse.  It rebuilds,
per ``(pid, tid)`` track:

* a **span forest** — complete (``"X"``) events nested by interval
  containment, in event order (the exporter emits parents before
  children at equal timestamps, so a simple stack reproduces the
  original nesting);
* the **instant list** (``"i"`` events) in timestamp order;
* **counter series** (``"C"`` events) keyed by series name — a
  multi-series counter event (one timestamp, named values) becomes
  one series per ``args`` key, named ``event.key``.

Track identity comes from the ``process_name``/``thread_name``
metadata events; unnamed tracks get ``pid N``/``tid N`` placeholders.
Extra top-level keys of the object form (``metrics``, ``capture``)
ride along on the :class:`TraceModel` so the analyzer sees the whole
artifact.

Inputs are validated with :mod:`repro.obs.validate` before any model
is built — a malformed document fails with the validator's explicit
per-event messages, not a reader crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..validate import validate_chrome_trace


@dataclass
class Span:
    """One reconstructed interval, with its nested children."""

    name: str
    start_us: float
    end_us: float
    args: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    @property
    def open_at_eof(self) -> bool:
        """True when the tracer force-closed this span at end of run."""
        return bool(self.args.get("open_at_eof"))

    def contains(self, other: "Span") -> bool:
        """Interval containment (the nesting criterion)."""
        return (
            other.start_us >= self.start_us and other.end_us <= self.end_us
        )

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class Instant:
    """One point event."""

    name: str
    ts_us: float
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Track:
    """Everything captured on one ``(process, thread)`` pair."""

    process: str
    thread: str
    pid: int
    tid: int
    #: Roots of the span forest, in start order.
    spans: List[Span] = field(default_factory=list)
    instants: List[Instant] = field(default_factory=list)
    #: Series name -> ``[(ts, value), ...]`` in timestamp order.
    counters: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=dict
    )

    def all_spans(self) -> Iterator[Span]:
        """Every span on the track, depth-first."""
        for root in self.spans:
            yield from root.walk()

    @property
    def extent_us(self) -> Tuple[float, float]:
        """Earliest and latest timestamp on the track (0, 0 if empty)."""
        starts: List[float] = [s.start_us for s in self.spans]
        ends: List[float] = [s.end_us for s in self.spans]
        starts += [i.ts_us for i in self.instants]
        ends += [i.ts_us for i in self.instants]
        for series in self.counters.values():
            starts.append(series[0][0])
            ends.append(series[-1][0])
        if not starts:
            return (0.0, 0.0)
        return (min(starts), max(ends))


@dataclass
class TraceModel:
    """The reconstructed capture: tracks plus document extras."""

    tracks: List[Track] = field(default_factory=list)
    #: The embedded ``MetricsRegistry`` dump, when present.
    metrics: Optional[Dict[str, Any]] = None
    #: The ``python -m repro trace`` capture envelope, when present.
    capture: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def processes(self) -> List[str]:
        """Distinct process names, in first-seen order."""
        seen: List[str] = []
        for track in self.tracks:
            if track.process not in seen:
                seen.append(track.process)
        return seen

    def tracks_of(self, process: str) -> List[Track]:
        """All tracks of one process, in tid order."""
        return [t for t in self.tracks if t.process == process]

    def track(self, process: str, thread: str) -> Optional[Track]:
        """The one track with this name, if present."""
        for t in self.tracks:
            if t.process == process and t.thread == thread:
                return t
        return None

    @property
    def end_us(self) -> float:
        """Latest timestamp anywhere in the capture."""
        return max((t.extent_us[1] for t in self.tracks), default=0.0)


# ----------------------------------------------------------------------
def read_document(document: Any) -> TraceModel:
    """Build a :class:`TraceModel` from a Chrome trace-event document.

    Accepts the object form (``{"traceEvents": [...], ...}``) or a
    bare event array.  The document is validated first; schema
    violations raise :class:`repro.obs.validate.TraceValidationError`.
    """
    validate_chrome_trace(document)
    if isinstance(document, dict):
        events = document["traceEvents"]
        metrics = document.get("metrics")
        capture = document.get("capture")
    else:
        events, metrics, capture = document, None, None

    process_names: Dict[int, str] = {}
    thread_names: Dict[Tuple[int, int], str] = {}
    by_track: Dict[Tuple[int, int], Dict[str, list]] = {}

    def bucket(pid: int, tid: int) -> Dict[str, list]:
        key = (pid, tid)
        entry = by_track.get(key)
        if entry is None:
            entry = by_track[key] = {"spans": [], "instants": [], "counters": []}
        return entry

    for event in events:
        phase = event["ph"]
        pid, tid = event["pid"], event["tid"]
        if phase == "M":
            label = (event.get("args") or {}).get("name")
            if event["name"] == "process_name":
                process_names[pid] = label
            elif event["name"] == "thread_name":
                thread_names[(pid, tid)] = label
            continue
        if phase == "X":
            start = event["ts"]
            args = dict(event.get("args") or {})
            bucket(pid, tid)["spans"].append(
                Span(event["name"], start, start + event["dur"], args)
            )
        elif phase in ("i", "I"):
            bucket(pid, tid)["instants"].append(
                Instant(event["name"], event["ts"],
                        dict(event.get("args") or {}))
            )
        elif phase == "C":
            args = event["args"]
            samples = bucket(pid, tid)["counters"]
            if list(args) == ["value"]:
                samples.append((event["name"], event["ts"], args["value"]))
            else:
                for series, value in args.items():
                    samples.append(
                        (f"{event['name']}.{series}", event["ts"], value)
                    )
        # Other phases (B/E pairs, flow events) are not produced by the
        # exporter; a foreign trace's extras are simply not modelled.

    tracks: List[Track] = []
    for (pid, tid) in sorted(by_track):
        entry = by_track[(pid, tid)]
        track = Track(
            process=process_names.get(pid, f"pid {pid}"),
            thread=thread_names.get((pid, tid), f"tid {tid}"),
            pid=pid,
            tid=tid,
            spans=_build_forest(entry["spans"]),
            instants=entry["instants"],
        )
        for series, ts, value in entry["counters"]:
            track.counters.setdefault(series, []).append((ts, value))
        tracks.append(track)
    return TraceModel(tracks=tracks, metrics=metrics, capture=capture)


def _build_forest(spans: List[Span]) -> List[Span]:
    """Nest flat spans by interval containment.

    Spans arrive sorted by start (FIFO tie-break preserved from the
    exporter, which emits a parent before its equal-timestamp
    children), so one pass with an ancestor stack rebuilds the tree:
    pop ancestors that cannot contain the next span, then attach it to
    whatever remains on top.
    """
    roots: List[Span] = []
    stack: List[Span] = []
    for span in spans:
        while stack and not stack[-1].contains(span):
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            roots.append(span)
        stack.append(span)
    return roots


def from_tracer(tracer, metrics=None) -> TraceModel:
    """Model a live :class:`repro.obs.tracer.Tracer` capture.

    Goes through the exporter, so the model is exactly what a reader
    of the written file would see (this also closes any still-open
    spans, marking them ``open_at_eof``).
    """
    from ..chrome import export_chrome_json

    return read_document(export_chrome_json(tracer, metrics=metrics))
