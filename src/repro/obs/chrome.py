"""Chrome trace-event / Perfetto JSON exporter.

Converts a :class:`repro.obs.tracer.Tracer` capture into the JSON
object form of the Chrome trace-event format, which loads directly in
``ui.perfetto.dev`` (or ``chrome://tracing``):

* every distinct *process* name among the tracer's tracks becomes a
  ``pid`` (host, each replica machine, the DES kernel), announced with
  a ``process_name`` metadata event;
* every *thread* within a process becomes a ``tid`` with a
  ``thread_name`` metadata event (per-cluster tracks, per-replica
  tracks, per-query tracks);
* spans export as complete ``"X"`` events, instants as ``"i"``, and
  counter samples as ``"C"`` — timestamps are simulated microseconds,
  which is exactly the unit the format expects, so the Perfetto
  timeline reads in machine time.

Events are emitted sorted by timestamp (FIFO tie-break on capture
order), so per-track ``ts`` sequences are monotone — the property the
CI trace smoke validates (:mod:`repro.obs.validate`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional


def export_chrome_json(tracer, metrics=None) -> Dict[str, Any]:
    """Build the Chrome trace-event document for a tracer capture.

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` plus a
    ``"metrics"`` key when a registry is given (extra top-level keys
    are legal in the object form of the format).
    """
    tracer.close_open_spans(_last_timestamp(tracer))

    # Stable pid/tid assignment in track-registration order.
    pids: Dict[str, int] = {}
    threads_in: Dict[int, int] = {}  # pid -> tracks numbered so far
    tids: Dict[int, tuple] = {}
    meta: List[Dict[str, Any]] = []
    for track_id, (process, thread) in enumerate(tracer.tracks):
        pid = pids.get(process)
        if pid is None:
            pid = pids[process] = len(pids) + 1
            meta.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": process},
            })
        tid = threads_in[pid] = threads_in.get(pid, 0) + 1
        tids[track_id] = (pid, tid)
        meta.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": thread},
        })

    body: List[Dict[str, Any]] = []
    for track, name, begin, end, args in tracer.spans:
        pid, tid = tids[track]
        event: Dict[str, Any] = {
            "name": name, "cat": "span", "ph": "X",
            "ts": begin, "dur": (end - begin) if end is not None else 0.0,
            "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        body.append(event)
    for track, name, ts, args in tracer.instants:
        pid, tid = tids[track]
        event = {
            "name": name, "cat": "instant", "ph": "i", "s": "t",
            "ts": ts, "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        body.append(event)
    for track, name, ts, value in tracer.counters:
        pid, tid = tids[track]
        body.append({
            "name": name, "cat": "counter", "ph": "C",
            "ts": ts, "pid": pid, "tid": tid,
            "args": dict(value) if isinstance(value, dict)
            else {"value": value},
        })

    body.sort(key=lambda e: e["ts"])
    document: Dict[str, Any] = {
        "traceEvents": meta + body,
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        document["metrics"] = metrics.as_dict()
    return document


def write_chrome_json(
    path: str, tracer, metrics=None, indent: Optional[int] = None
) -> Dict[str, Any]:
    """Export and write the document to ``path``; returns it."""
    document = export_chrome_json(tracer, metrics=metrics)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=indent)
        handle.write("\n")
    return document


def _last_timestamp(tracer) -> float:
    """Latest timestamp seen anywhere in the capture (0.0 if empty)."""
    last = 0.0
    for span in tracer.spans:
        if span[3] is not None and span[3] > last:
            last = span[3]
        elif span[2] > last:
            last = span[2]
    for _, _, ts, _ in tracer.instants:
        if ts > last:
            last = ts
    for _, _, ts, _ in tracer.counters:
        if ts > last:
            last = ts
    return last
